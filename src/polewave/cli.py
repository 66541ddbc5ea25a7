"""Command-line front end.

Every subcommand loads a declarative potential spec (a small JSON file),
runs one computation from the library, and writes a table with a fixed
column schema, as CSV (default) or JSON. Tables carry a metadata header
with the tool version, a hash of the fully resolved configuration, and
the unit convention, so identical invocations produce byte-identical
files that can be diffed in regression tests. Floats are printed with 17
significant digits for exact round-trips.

Exit codes: 0 success, 2 no bound state in the search window, 3 a
potential spec or option failed validation, 4 a computation failed
numerically.

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
from dataclasses import dataclass, field

__all__ = ["main"]

_UNITS = "hbar=2m=1"


class _Usage(Exception):
    """Raised for anything that should map to exit code 3."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad options, which collides with
    # the no-bound-state code; route through the validation path instead
    def error(self, message):
        raise _Usage(message)


@dataclass
class RunConfig:
    """Fully resolved invocation, the thing that gets hashed."""

    subcommand: str
    potential: str | None = None
    ell: int = 0
    kmin: float = 0.1
    kmax: float = 3.0
    ksteps: int = 30
    h: float = 1.0 / 256.0
    rmax: float | None = None
    order: int = 2
    sample_mode: str = "near"
    sample_count: int = 6
    sample_spacing: float | None = None
    fmt: str = "csv"
    out: str | None = None
    plot_data: str | None = None
    alpha: float = 1.0
    beta: float = 5.0
    parity: str = "even"
    spec_text: str | None = field(default=None, repr=False)

    def validate(self) -> None:
        if self.ell < 0:
            raise _Usage("--ell must be >= 0")
        if not (self.kmin > 0 and self.kmax > self.kmin):
            raise _Usage("need 0 < kmin < kmax")
        if self.ksteps < 1:
            raise _Usage("--ksteps must be >= 1")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise _Usage("--h must be positive")
        if self.rmax is not None and not (self.rmax > 0 and math.isfinite(self.rmax)):
            raise _Usage("--rmax must be positive")
        if self.order < 0:
            raise _Usage("--order must be >= 0")
        if self.sample_mode not in ("near", "real"):
            raise _Usage("--sample-mode must be 'near' or 'real'")
        if self.sample_count < 2:
            raise _Usage("--sample-count must be >= 2")
        if self.sample_spacing is not None and self.sample_spacing <= 0:
            raise _Usage("--sample-spacing must be positive")
        if self.fmt not in ("csv", "json"):
            raise _Usage("--format must be csv or json")
        if self.parity not in ("even", "odd"):
            raise _Usage("--parity must be even or odd")

    def spacing(self) -> float:
        if self.sample_spacing is not None:
            return self.sample_spacing
        return 0.0005 if self.sample_mode == "near" else 0.05

    def digest(self) -> str:
        payload = {
            "subcommand": self.subcommand,
            "potential_spec": self.spec_text,
            "ell": self.ell,
            "kmin": self.kmin,
            "kmax": self.kmax,
            "ksteps": self.ksteps,
            "h": self.h,
            "rmax": self.rmax,
            "order": self.order,
            "sample_mode": self.sample_mode,
            "sample_count": self.sample_count,
            "sample_spacing": self.sample_spacing,
            "alpha": self.alpha,
            "beta": self.beta,
            "parity": self.parity,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Table:
    """One subcommand's output: ordered rows plus a verdict block."""

    columns: list[str]
    rows: list[list[float]]
    verdict: list[tuple[str, object]]


def _load_spec(cfg: RunConfig):
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


def _k_grid(cfg: RunConfig):
    import numpy as np

    if cfg.ksteps == 1:
        return np.array([cfg.kmin])
    return np.linspace(cfg.kmin, cfg.kmax, cfg.ksteps)


# ---------------------------------------------------------------- subcommands


def cmd_phases(cfg: RunConfig) -> Table:
    import numpy as np

    from .potentials import make_grid
    from .radial import _jost_from_regular, solve_regular

    pot = _load_spec(cfg)
    grid = make_grid(pot, h=cfg.h, r_max=cfg.rmax)
    k = _k_grid(cfg)
    phi = solve_regular(pot, cfg.ell, k, grid).values
    f_up = _jost_from_regular(pot, cfg.ell, k, grid, phi)
    f_dn = _jost_from_regular(pot, cfg.ell, -k, grid, phi)
    delta = -np.angle(f_up)
    if k.size >= 2:
        delta = np.unwrap(delta)
    s_dev = np.abs(f_dn / f_up) - 1.0
    rows = [[float(kk), float(dd), float(ss)] for kk, dd, ss in zip(k, delta, s_dev)]
    verdict = [
        ("max_unitarity_deviation", float(np.max(np.abs(s_dev)))),
        ("delta_at_kmin", float(delta[0])),
    ]
    return Table(["k", "delta", "s_unitarity_deviation"], rows, verdict)


def cmd_bound(cfg: RunConfig) -> Table:
    from .errors import NoBoundStateError
    from .potentials import make_grid
    from .spectrum import asymptotic_coefficient, find_bound_states

    pot = _load_spec(cfg)
    grid = make_grid(pot, h=cfg.h, r_max=cfg.rmax)
    states = find_bound_states(pot, cfg.ell, grid)
    if not states:
        raise NoBoundStateError(f"no bound state with l = {cfg.ell}")
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


def cmd_verify_pole(cfg: RunConfig) -> Table:
    from .errors import NoBoundStateError
    from .poletheorem import (
        compare_to_bound,
        extrapolant_samples,
        extrapolant_samples_near_pole,
        extrapolate_to_pole,
    )
    from .potentials import make_grid
    from .spectrum import find_bound_states

    pot = _load_spec(cfg)
    grid = make_grid(pot, h=cfg.h, r_max=cfg.rmax)
    states = find_bound_states(pot, cfg.ell, grid)
    if not states:
        raise NoBoundStateError(f"no bound state with l = {cfg.ell}")
    rows: list[list[float]] = []
    per_state: list[tuple[str, object]] = []
    worst = 0.0
    for idx, st in enumerate(states):
        if cfg.sample_mode == "near":
            samples = extrapolant_samples_near_pole(
                pot, cfg.ell, st.alpha, grid,
                n_samples=cfg.sample_count, spacing=cfg.spacing(),
            )
        else:
            samples = extrapolant_samples(
                pot, cfg.ell, st.alpha, grid,
                n_samples=cfg.sample_count, spacing=cfg.spacing(),
            )
        ext = extrapolate_to_pole(samples, order=cfg.order)
        cmp_ = compare_to_bound(ext, st)
        for r, gs, ex, resid in zip(cmp_.r, cmp_.g_star, cmp_.expected, cmp_.residuals):
            rows.append([float(idx), st.alpha, float(r), float(gs), float(ex), float(resid)])
        per_state.append((f"state{idx}_alpha", st.alpha))
        per_state.append((f"state{idx}_max_residual", cmp_.max_residual))
        per_state.append((f"state{idx}_signed_match", bool(cmp_.signed)))
        worst = max(worst, cmp_.max_residual)
    verdict = [("max_relative_residual", worst), ("n_states", len(states))]
    verdict += per_state
    return Table(
        ["state", "alpha", "r", "g_star", "expected", "residual"], rows, verdict
    )


def cmd_residue(cfg: RunConfig) -> Table:
    from .errors import NoBoundStateError
    from .poletheorem import residue_prediction, smatrix_residue
    from .potentials import make_grid
    from .spectrum import find_bound_states

    pot = _load_spec(cfg)
    grid = make_grid(pot, h=cfg.h, r_max=cfg.rmax)
    states = find_bound_states(pot, cfg.ell, grid)
    if not states:
        raise NoBoundStateError(f"no bound state with l = {cfg.ell}")
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


def cmd_gw_compare(cfg: RunConfig) -> Table:
    import numpy as np

    from .errors import NoBoundStateError, SpecError
    from .poletheorem import _imaginary_axis_data, gw_extrapolant, pole_branch_sign
    from .potentials import make_grid
    from .radial import _jost_from_regular, solve_regular
    from .spectrum import find_bound_states

    if cfg.ell != 0:
        raise SpecError("the competing prefactor form is defined for l = 0")
    pot = _load_spec(cfg)
    grid = make_grid(pot, h=cfg.h, r_max=cfg.rmax)
    states = find_bound_states(pot, 0, grid)
    if not states:
        raise NoBoundStateError("no s-wave bound state")
    st = states[0]
    alpha = st.alpha
    # tighter window than the pole-verification one: past ~3/alpha both
    # forms share the same admixture error and the comparison washes out
    lo, hi = 0.5, min(3.0 / alpha, grid.r_max)
    r = grid.r()
    sel = (r >= lo) & (r <= hi)
    expected = -st.u[sel]
    peak = float(np.max(np.abs(st.u)))
    denom = np.maximum(np.abs(expected), 1e-3 * peak)
    s = pole_branch_sign(pot, 0, alpha, grid)

    if cfg.sample_mode == "near":
        # geometric ladder of pole distances d_j = alpha^2 4^{-j}; both
        # residuals against -u shrink linearly in d (slopes ~ 1 below),
        # with the derivative form also paying a larger constant
        frac = 4.0 ** -np.arange(1, cfg.sample_count + 1)
        kappa = alpha * np.sqrt(1.0 - frac)
        dist = alpha**2 * frac
        phi, f_up, f_dn = _imaginary_axis_data(pot, 0, kappa, grid)
        ours = s * math.sqrt(2.0 * alpha) * np.sqrt(dist) * phi / np.sqrt(f_up * f_dn)
        gw = gw_extrapolant(pot, alpha, 1j * kappa, grid)
        rows = []
        for j in range(len(kappa)):
            ours_err = float(np.max(np.abs(ours[sel, j] - expected) / denom))
            gw_err = float(np.max(np.abs(gw.values[sel, j] - expected) / denom))
            rows.append([float(dist[j]), float(kappa[j]), ours_err, gw_err])
        logd = np.log(dist)
        slope_ours = float(np.polyfit(logd, np.log([r_[2] for r_ in rows]), 1)[0])
        slope_gw = float(np.polyfit(logd, np.log([r_[3] for r_ in rows]), 1)[0])
        verdict = [
            ("gw_worse_at_largest_distance", bool(rows[0][3] > rows[0][2])),
            ("alpha", alpha),
            ("slope_ours", slope_ours),
            ("slope_gw", slope_gw),
            ("n_distances", len(rows)),
        ]
        return Table(["distance", "kappa", "ours_err", "gw_err"], rows, verdict)

    # real mode (the default here): both forms against -u at scattering
    # energies; the interesting regime is k at or below the pole scale
    k = _k_grid(cfg)
    phi = solve_regular(pot, 0, k, grid).values
    f = _jost_from_regular(pot, 0, k, grid, phi)
    phi = phi.real
    ours = (
        s
        * math.sqrt(2.0 * alpha)
        * np.sqrt(alpha**2 + k**2)[None, :]
        * phi
        / np.abs(f)[None, :]
    )
    gw = gw_extrapolant(pot, alpha, k, grid)
    rows = []
    n_worse = 0
    for j, kk in enumerate(k):
        ours_err = float(np.max(np.abs(ours[sel, j] - expected) / denom))
        gw_err = float(np.max(np.abs(gw.values[sel, j] - expected) / denom))
        n_worse += gw_err > ours_err
        rows.append([float(kk), ours_err, gw_err])
    j_near = int(np.argmin(np.abs(k - alpha)))
    verdict = [
        ("gw_worse_nearest_pole", bool(rows[j_near][2] > rows[j_near][1])),
        ("alpha", alpha),
        ("k_nearest_pole", float(k[j_near])),
        ("ours_err_nearest", rows[j_near][1]),
        ("gw_err_nearest", rows[j_near][2]),
        ("n_gw_worse", int(n_worse)),
        ("n_k", len(rows)),
    ]
    return Table(["k", "ours_err", "gw_err"], rows, verdict)


def cmd_separable(cfg: RunConfig) -> Table:
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


def cmd_oned(cfg: RunConfig) -> Table:
    from .errors import NoBoundStateError
    from .onedim import (
        Potential1D,
        find_bound_1d,
        pole_extrapolate_1d,
        pole_residue_1d,
        residue_prediction_1d,
        zero_energy_phase,
    )
    from .potentials import make_grid

    pot = Potential1D(_load_spec(cfg))
    grid = make_grid(pot.half, h=cfg.h, r_max=cfg.rmax)
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
            spacing=cfg.spacing(),
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


def _render_csv(table: Table, cfg: RunConfig) -> str:
    lines = [
        f"# polewave {_version()}",
        f"# units: {_UNITS}",
        f"# config: sha256:{cfg.digest()}",
        f"# subcommand: {cfg.subcommand}",
        ",".join(table.columns),
    ]
    for row in table.rows:
        lines.append(",".join(_g17(x) for x in row))
    for key, val in table.verdict:
        lines.append(f"# verdict.{key} = {_verdict_value(val)}")
    return "\n".join(lines) + "\n"


def _render_json(table: Table, cfg: RunConfig) -> str:
    doc = {
        "meta": {
            "tool": "polewave",
            "version": _version(),
            "units": _UNITS,
            "config_sha256": cfg.digest(),
            "subcommand": cfg.subcommand,
        },
        "columns": table.columns,
        "rows": table.rows,
        "verdict": {k: v for k, v in table.verdict},
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _render_plot(table: Table, cfg: RunConfig) -> str:
    lines = [
        f"# polewave {_version()}  {cfg.subcommand}  config sha256:{cfg.digest()}",
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
        p.add_argument("--potential", help="JSON potential spec file")
        p.add_argument("--ell", type=int, default=0)
        p.add_argument("--kmin", type=float, default=0.1)
        p.add_argument("--kmax", type=float, default=3.0)
        p.add_argument("--ksteps", type=int, default=30)
        p.add_argument("--h", type=float, default=1.0 / 256.0)
        p.add_argument("--rmax", type=float, default=None)
        p.add_argument("--order", type=int, default=2)
        p.add_argument("--sample-mode", choices=("near", "real"), default="near")
        p.add_argument("--sample-count", type=int, default=6)
        p.add_argument("--sample-spacing", type=float, default=None)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)
        p.add_argument("--plot-data", default=None)
        if name == "separable":
            p.add_argument("--alpha", type=float, default=1.0)
            p.add_argument("--beta", type=float, default=5.0)
        if name == "oned":
            p.add_argument("--parity", choices=("even", "odd"), default="even")
        if name == "gw-compare":
            # the head-to-head at scattering energies is the headline
            p.set_defaults(sample_mode="real")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = RunConfig(
            subcommand=ns.subcommand,
            potential=ns.potential,
            ell=ns.ell,
            kmin=ns.kmin,
            kmax=ns.kmax,
            ksteps=ns.ksteps,
            h=ns.h,
            rmax=ns.rmax,
            order=ns.order,
            sample_mode=ns.sample_mode,
            sample_count=ns.sample_count,
            sample_spacing=ns.sample_spacing,
            fmt=ns.fmt,
            out=ns.out,
            plot_data=ns.plot_data,
            alpha=getattr(ns, "alpha", 1.0),
            beta=getattr(ns, "beta", 5.0),
            parity=getattr(ns, "parity", "even"),
        )
        cfg.validate()
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
