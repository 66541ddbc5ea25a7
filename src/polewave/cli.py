"""Command-line front end.

Every subcommand loads a declarative potential spec (a small JSON file),
runs one computation from the library, and writes a table with a fixed
column schema, as CSV (default) or JSON. Tables carry a metadata header
with the tool version, a hash of the fully resolved configuration, and
the unit convention, so identical invocations produce byte-identical
files that can be diffed in regression tests. Floats are printed with 17
significant digits for exact round-trips.

Exit codes: 0 success, 2 no bound state in the search window, 3 a
potential spec or option failed validation (a float option that is not
a finite number included), 4 a computation failed numerically.

There is no plotting dependency. --plot-data writes the same rows as a
whitespace-separated table with a comment header, which gnuplot and
friends consume directly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

__all__ = ["main"]

_UNITS = "hbar=2m=1"


class _Usage(Exception):
    """Raised for anything that should map to exit code 3."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad options, which collides with
    # the no-bound-state code; route through the validation path instead
    def error(self, message):
        raise _Usage(message)


@dataclass(frozen=True)
class _Option:
    """One command-line option, declared once: its flag, value type,
    default and choices, the one subcommand that owns it (None: every
    subcommand), whether it enters the config digest, and the range
    check of its values. Float values must be finite."""

    flag: str
    kind: type
    default: object = None
    choices: tuple | None = None
    owner: str | None = None
    hashed: bool = True
    at_least: int | None = None
    positive: bool = False
    dest: str | None = None
    help: str | None = None

    @property
    def name(self) -> str:
        return self.dest or self.flag[2:].replace("-", "_")

    def parse(self, text: str):
        try:
            value = self.kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a valid {self.kind.__name__}: {text!r}") from None
        if self.kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError("must be a finite number")
        if self.at_least is not None and value < self.at_least:
            raise argparse.ArgumentTypeError(f"must be >= {self.at_least}")
        if self.positive and not value > 0:
            raise argparse.ArgumentTypeError("must be positive")
        return value


_OPTIONS = (
    # the digest hashes the spec's text, not its path
    _Option("--potential", str, hashed=False, help="JSON potential spec file"),
    _Option("--ell", int, 0, at_least=0),
    _Option("--kmin", float, 0.1, positive=True),
    _Option("--kmax", float, 3.0),
    _Option("--ksteps", int, 30, at_least=1),
    _Option("--h", float, 1.0 / 256.0, positive=True),
    _Option("--rmax", float, positive=True),
    _Option("--order", int, 2, at_least=0),
    _Option("--sample-mode", str, "near", choices=("near", "real")),
    _Option("--sample-count", int, 6, at_least=2),
    _Option("--sample-spacing", float, positive=True),
    _Option("--format", str, "csv", choices=("csv", "json"), hashed=False, dest="fmt"),
    _Option("--out", str, hashed=False),
    _Option("--plot-data", str, hashed=False),
    _Option("--alpha", float, 1.0, owner="separable"),
    _Option("--beta", float, 5.0, owner="separable"),
    _Option("--parity", str, "even", choices=("even", "odd"), owner="oned"),
)


def _digest(cfg: argparse.Namespace) -> str:
    """sha256 of the fully resolved configuration."""
    payload = {o.name: getattr(cfg, o.name) for o in _OPTIONS if o.hashed}
    payload.update(subcommand=cfg.subcommand, potential_spec=cfg.spec_text)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Table:
    """One subcommand's output: ordered rows plus a verdict block."""

    columns: list[str]
    rows: list[list[float]]
    verdict: list[tuple[str, object]]


def _load_spec(cfg: argparse.Namespace):
    from .potentials import PotentialSpec, make_potential

    if not cfg.potential:
        raise _Usage("this subcommand needs --potential <file>")
    try:
        with open(cfg.potential) as fh:
            text = fh.read()
    except OSError as exc:
        raise _Usage(f"cannot read potential spec: {exc}") from exc
    cfg.spec_text = text
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _Usage(f"potential spec is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise _Usage("potential spec must be a JSON object")
    allowed = {"kind", "depth", "radius", "path"}
    extra = set(raw) - allowed
    if extra:
        raise _Usage(f"unknown keys in potential spec: {sorted(extra)}")
    if "kind" not in raw:
        raise _Usage("potential spec needs a 'kind'")
    path = raw.get("path")
    if path is not None:
        if not isinstance(path, str):
            raise _Usage("'path' must be a string")
        # data files resolve relative to the spec that names them
        path = os.path.join(os.path.dirname(os.path.abspath(cfg.potential)), path)
    try:
        spec = PotentialSpec(
            kind=str(raw["kind"]),
            depth=float(raw.get("depth", 0.0)),
            radius=float(raw.get("radius", 1.0)),
            path=path,
        )
    except (TypeError, ValueError) as exc:
        raise _Usage(f"bad potential spec field: {exc}") from exc
    return make_potential(spec)


def _k_grid(cfg: argparse.Namespace):
    import numpy as np

    if cfg.ksteps == 1:
        return np.array([cfg.kmin])
    return np.linspace(cfg.kmin, cfg.kmax, cfg.ksteps)


def _grid(cfg: argparse.Namespace, potential):
    from .potentials import make_grid

    return make_grid(potential, h=cfg.h, r_max=cfg.rmax)


def _states(cfg: argparse.Namespace):
    """The potential, its grid and its bound states at l = --ell,
    deepest first; NoBoundStateError if there are none."""
    from .errors import NoBoundStateError
    from .spectrum import find_bound_states

    pot = _load_spec(cfg)
    grid = _grid(cfg, pot)
    states = find_bound_states(pot, cfg.ell, grid)
    if not states:
        raise NoBoundStateError(f"no bound state with l = {cfg.ell}")
    return pot, grid, states


# ---------------------------------------------------------------- subcommands


def cmd_phases(cfg: argparse.Namespace) -> Table:
    import numpy as np

    from .radial import jost_function

    pot = _load_spec(cfg)
    k = _k_grid(cfg)
    # on the real axis F(-k) = conj F(k), bit for bit
    f = jost_function(pot, cfg.ell, k, _grid(cfg, pot))
    delta = -np.angle(f)
    if k.size >= 2:
        delta = np.unwrap(delta)
    s_dev = np.abs(np.conj(f) / f) - 1.0
    rows = [[float(kk), float(dd), float(ss)] for kk, dd, ss in zip(k, delta, s_dev)]
    verdict = [
        ("max_unitarity_deviation", float(np.max(np.abs(s_dev)))),
        ("delta_at_kmin", float(delta[0])),
    ]
    return Table(["k", "delta", "s_unitarity_deviation"], rows, verdict)


def cmd_bound(cfg: argparse.Namespace) -> Table:
    from .spectrum import asymptotic_coefficient

    _, _, states = _states(cfg)
    rows = [
        [
            float(cfg.ell),
            st.alpha,
            st.energy,
            st.asymptotic_norm,
            asymptotic_coefficient(st),
        ]
        for st in states
    ]
    verdict = [("n_states", len(states)), ("deepest_alpha", states[0].alpha)]
    return Table(["ell", "alpha", "energy", "norm_constant", "anc"], rows, verdict)


def cmd_verify_pole(cfg: argparse.Namespace) -> Table:
    from .poletheorem import (
        compare_to_bound,
        extrapolant_samples,
        extrapolant_samples_near_pole,
        extrapolate_to_pole,
    )

    pot, grid, states = _states(cfg)
    rows: list[list[float]] = []
    per_state: list[tuple[str, object]] = []
    worst = 0.0
    sampler = extrapolant_samples_near_pole if cfg.sample_mode == "near" else extrapolant_samples
    for idx, st in enumerate(states):
        samples = sampler(
            pot, cfg.ell, st.alpha, grid, n_samples=cfg.sample_count, spacing=cfg.sample_spacing
        )
        ext = extrapolate_to_pole(samples, order=cfg.order)
        cmp_ = compare_to_bound(ext, st)
        for r, gs, ex, resid in zip(cmp_.r, cmp_.g_star, cmp_.expected, cmp_.residuals):
            rows.append([float(idx), st.alpha, float(r), float(gs), float(ex), float(resid)])
        per_state.append((f"state{idx}_alpha", st.alpha))
        per_state.append((f"state{idx}_max_residual", cmp_.max_residual))
        worst = max(worst, cmp_.max_residual)
    verdict = [("max_relative_residual", worst), ("n_states", len(states))]
    verdict += per_state
    return Table(
        ["state", "alpha", "r", "g_star", "expected", "residual"], rows, verdict
    )


def cmd_residue(cfg: argparse.Namespace) -> Table:
    from .poletheorem import residue_prediction, smatrix_residue

    pot, grid, states = _states(cfg)
    rows = []
    worst = 0.0
    for st in states:
        pred = residue_prediction(cfg.ell, st.asymptotic_norm)
        for method_id, method in ((0.0, "imaginary_axis"), (1.0, "real_axis_fit")):
            est = smatrix_residue(pot, cfg.ell, st.alpha, grid, method=method)
            rel = abs(est.value - pred) / abs(pred)
            rows.append(
                [
                    st.alpha,
                    method_id,
                    est.value.real,
                    est.value.imag,
                    pred.real,
                    pred.imag,
                    rel,
                    est.n_estimate,
                ]
            )
            if method == "imaginary_axis":
                worst = max(worst, rel)
    verdict = [
        ("max_rel_error_imaginary_axis", worst),
        ("methods", "0=imaginary_axis 1=real_axis_fit"),
    ]
    return Table(
        [
            "alpha",
            "method",
            "residue_re",
            "residue_im",
            "predicted_re",
            "predicted_im",
            "rel_error",
            "n_from_residue",
        ],
        rows,
        verdict,
    )


def cmd_gw_compare(cfg: argparse.Namespace) -> Table:
    import numpy as np

    from .errors import SpecError
    from .poletheorem import gw_extrapolant

    if cfg.ell != 0:
        raise SpecError("the competing prefactor form is defined for l = 0")
    pot, grid, states = _states(cfg)
    st = states[0]
    alpha = st.alpha
    # tighter window than the pole-verification one: past ~3/alpha both
    # forms share the same admixture error and the comparison washes out
    r = grid.r()
    sel = (r >= 0.5) & (r <= min(3.0 / alpha, grid.r_max))
    expected = -st.u[sel]
    denom = np.maximum(np.abs(expected), 1e-3 * float(np.max(np.abs(st.u))))

    def errors(k):
        """Largest deviation from -u at each k of the universal form
        and of the derivative form."""
        forms = gw_extrapolant(pot, alpha, k, grid)
        return [
            [float(np.max(np.abs(vals[sel, j] - expected) / denom)) for j in range(k.size)]
            for vals in (forms.universal.g, forms.values)
        ]

    if cfg.sample_mode == "near":
        # geometric ladder of pole distances d_j = alpha^2 4^{-j}; both
        # residuals against -u shrink linearly in d (slopes ~ 1 below),
        # with the derivative form also paying a larger constant
        frac = 4.0 ** -np.arange(1, cfg.sample_count + 1)
        kappa = alpha * np.sqrt(1.0 - frac)
        dist = alpha**2 * frac
        ours, gw = errors(1j * kappa)
        rows = [[float(d), float(kk), o, g] for d, kk, o, g in zip(dist, kappa, ours, gw)]
        logd = np.log(dist)
        verdict = [
            ("gw_worse_at_largest_distance", bool(gw[0] > ours[0])),
            ("alpha", alpha),
            ("slope_ours", float(np.polyfit(logd, np.log(ours), 1)[0])),
            ("slope_gw", float(np.polyfit(logd, np.log(gw), 1)[0])),
            ("n_distances", len(rows)),
        ]
        return Table(["distance", "kappa", "ours_err", "gw_err"], rows, verdict)

    # real mode (the default here): both forms against -u at scattering
    # energies; the interesting regime is k at or below the pole scale
    k = _k_grid(cfg)
    ours, gw = errors(k)
    rows = [[float(kk), o, g] for kk, o, g in zip(k, ours, gw)]
    j_near = int(np.argmin(np.abs(k - alpha)))
    verdict = [
        ("gw_worse_nearest_pole", bool(gw[j_near] > ours[j_near])),
        ("alpha", alpha),
        ("k_nearest_pole", float(k[j_near])),
        ("ours_err_nearest", ours[j_near]),
        ("gw_err_nearest", gw[j_near]),
        ("n_gw_worse", sum(g > o for o, g in zip(ours, gw))),
        ("n_k", len(rows)),
    ]
    return Table(["k", "ours_err", "gw_err"], rows, verdict)


def cmd_separable(cfg: argparse.Namespace) -> Table:
    from .separable import (
        SeparableModel,
        sep_compare_forms,
        sep_jost,
        sep_prefactors,
        sep_ratio,
        winding_number,
    )

    m = SeparableModel(cfg.alpha, cfg.beta)
    k = _k_grid(cfg)
    rows = []
    for kk in k:
        ours_err, gw_err = sep_compare_forms(m, float(kk))
        rows.append([float(kk), m.z(float(kk)), float(ours_err), float(gw_err)])
    eps = 1e-8
    k_pole = 1j * m.alpha * (1.0 - eps)
    ours_pole, gw_pole = sep_compare_forms(m, k_pole)
    ours0, _ = sep_prefactors(m, 0.0)
    spot = float((sep_ratio(m, 0.0) * ours0).real)
    verdict = [
        ("winding_number", winding_number(m)),
        ("jost_at_zero", float(sep_jost(m, 0.0).real)),
        ("prefactor_ratio_at_zero", spot),
        ("ours_err_at_pole", float(abs(ours_pole))),
        ("gw_err_at_pole", float(abs(gw_pole))),
    ]
    return Table(["k", "z", "ours_err", "gw_err"], rows, verdict)


def cmd_oned(cfg: argparse.Namespace) -> Table:
    from .errors import NoBoundStateError
    from .onedim import (
        Potential1D,
        find_bound_1d,
        pole_extrapolate_1d,
        pole_residue_1d,
        residue_prediction_1d,
        zero_energy_phase,
    )

    pot = Potential1D(_load_spec(cfg))
    grid = _grid(cfg, pot.half)
    states = find_bound_1d(pot, cfg.parity, grid)
    if not states:
        raise NoBoundStateError(f"no {cfg.parity} bound state")
    rows = []
    worst = 0.0
    worst_res = 0.0
    for st in states:
        ext, cmp_ = pole_extrapolate_1d(
            pot, cfg.parity, st, grid,
            n_samples=cfg.sample_count,
            spacing=cfg.sample_spacing,
            mode=cfg.sample_mode,
            order=cfg.order,
        )
        est = pole_residue_1d(pot, cfg.parity, st.alpha, grid)
        pred = residue_prediction_1d(cfg.parity, st.norm_constant)
        rel = abs(est.value - pred) / abs(pred)
        rows.append(
            [
                st.alpha,
                st.energy,
                st.norm_constant,
                cmp_.max_residual,
                est.value.imag,
                pred.imag,
                rel,
            ]
        )
        worst = max(worst, cmp_.max_residual)
        worst_res = max(worst_res, rel)
    zp = zero_energy_phase(pot, grid)
    verdict = [
        ("parity", cfg.parity),
        ("n_states", len(states)),
        ("max_extrapolation_residual", worst),
        ("max_residue_rel_error", worst_res),
        ("delta_even_at_zero", zp.delta0),
        ("zero_energy_threshold", zp.threshold_alpha),
    ]
    return Table(
        [
            "alpha",
            "energy",
            "norm_constant",
            "extrapolation_residual",
            "residue_im",
            "predicted_im",
            "residue_rel_error",
        ],
        rows,
        verdict,
    )


_COMMANDS = {
    "phases": cmd_phases,
    "bound": cmd_bound,
    "verify-pole": cmd_verify_pole,
    "residue": cmd_residue,
    "gw-compare": cmd_gw_compare,
    "separable": cmd_separable,
    "oned": cmd_oned,
}


# ------------------------------------------------------------------- output


def _g17(x: float) -> str:
    return "%.17g" % float(x)


def _verdict_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _g17(v)
    return str(v)


def _render_csv(table: Table, cfg: argparse.Namespace) -> str:
    lines = [
        f"# polewave {_version()}",
        f"# units: {_UNITS}",
        f"# config: sha256:{_digest(cfg)}",
        f"# subcommand: {cfg.subcommand}",
        ",".join(table.columns),
    ]
    for row in table.rows:
        lines.append(",".join(_g17(x) for x in row))
    for key, val in table.verdict:
        lines.append(f"# verdict.{key} = {_verdict_value(val)}")
    return "\n".join(lines) + "\n"


def _render_json(table: Table, cfg: argparse.Namespace) -> str:
    doc = {
        "meta": {
            "tool": "polewave",
            "version": _version(),
            "units": _UNITS,
            "config_sha256": _digest(cfg),
            "subcommand": cfg.subcommand,
        },
        "columns": table.columns,
        "rows": table.rows,
        "verdict": {k: v for k, v in table.verdict},
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _render_plot(table: Table, cfg: argparse.Namespace) -> str:
    lines = [
        f"# polewave {_version()}  {cfg.subcommand}  config sha256:{_digest(cfg)}",
        "# columns: " + " ".join(table.columns),
    ]
    for row in table.rows:
        lines.append(" ".join(_g17(x) for x in row))
    return "\n".join(lines) + "\n"


def _version() -> str:
    from . import __version__

    return __version__


def _verdict_line(table: Table) -> str:
    head = table.verdict[0]
    return f"verdict: {head[0]} = {_verdict_value(head[1])}"


# --------------------------------------------------------------------- main


def _build_parser() -> _Parser:
    parser = _Parser(prog="polewave", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for opt in _OPTIONS:
            if opt.owner in (None, name):
                p.add_argument(
                    opt.flag, dest=opt.name, type=opt.parse, default=opt.default,
                    choices=opt.choices, help=opt.help,
                )
        # an option another subcommand owns keeps its default here, so
        # every config carries every field the digest hashes
        p.set_defaults(
            spec_text=None,
            **{o.name: o.default for o in _OPTIONS if o.owner not in (None, name)},
        )
        if name == "gw-compare":
            # the head-to-head at scattering energies is the headline
            p.set_defaults(sample_mode="real")
    return parser


def main(argv=None) -> int:
    try:
        cfg = _build_parser().parse_args(argv)
        if not cfg.kmax > cfg.kmin:
            raise _Usage("need 0 < kmin < kmax")
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    from .errors import NoBoundStateError, NumericalError, PolewaveError, SpecError

    try:
        table = _COMMANDS[cfg.subcommand](cfg)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NoBoundStateError as exc:
        print(f"no bound state: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (SpecError, PolewaveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

    text = _render_json(table, cfg) if cfg.fmt == "json" else _render_csv(table, cfg)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
        print(_verdict_line(table))
    else:
        sys.stdout.write(text)
        if cfg.fmt == "json":
            print(_verdict_line(table))
    if cfg.plot_data:
        with open(cfg.plot_data, "w") as fh:
            fh.write(_render_plot(table, cfg))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
