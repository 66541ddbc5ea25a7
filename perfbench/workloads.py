"""The four workloads: their inputs, their operations and the checks on
every output.

A workload is a list of operations, each tagged with the class of its
potential: "cutoff" (square wells, and the separable model) or "tail"
(gaussian (4, 1) and exponential (9, 0.5)). One pass runs every
operation of one class. The seed draws the momenta of scattering-sweep;
the other inputs are the stock wells, fixed so that each output can be
checked against a value made apart from the program (reference.py) or
against a property the method must have.

Only polewave and numpy are imported at module level, so that importing
this module is part of the timed set-up; the references are built by
``Workload.prepare`` after the set-up has been timed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from polewave.onedim import (
    Potential1D,
    build_bound_1d,
    find_bound_1d,
    pole_extrapolate_1d,
    pole_residue_1d,
    smatrix_1d,
    solve_parity,
    zero_energy_phase,
)
from polewave.poletheorem import (
    compare_to_bound,
    extrapolant_samples_near_pole,
    extrapolate_to_pole,
    gw_extrapolant,
    pole_branch_sign,
    residue_prediction,
    smatrix_residue,
)
from polewave.potentials import PotentialSpec, make_grid, make_potential
from polewave.radial import jost_on_imaginary_axis, phase_shift_curve, physical_wave, solve_regular
from polewave.spectrum import build_bound_state, find_bound_states

# Tolerances of tests/test_acceptance.py.
TOL_ALPHA = 1e-8
TOL_NORM = 1e-6
TOL_PHASE = 1e-6
TOL_POLE = 1e-3
TOL_POLE_LOOSE = 1e-2  # deep state of a two-state well, and l = 1 (criteria 4, 5)
TOL_RESIDUE = 1e-2
TOL_THRESHOLD = 1e-2

#: name -> (kind, depth, radius, h)
CASES = {
    "sq41": ("square", 4.0, 1.0, 1 / 256),
    "deep30": ("square", 30.0, 1.0, 1 / 512),
    "sq15": ("square", 15.0, 1.0, 1 / 256),
    "gauss41": ("gaussian", 4.0, 1.0, 1 / 256),
    "exp905": ("exponential", 9.0, 0.5, 1 / 256),
}

N_MOMENTA = 300
K_RANGE = (0.05, 4.0)


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def near(value, ref, tol: float, what: str) -> None:
    gap = float(np.max(np.abs(np.asarray(value) - np.asarray(ref))))
    expect(gap < tol, f"{what}: gap {gap:.3e} >= {tol:.0e}")


@dataclass
class Op:
    """One timed operation and the check of its output. ``keep`` picks
    the part of the output that the cross checks need; the rest is freed
    once checked, so that large arrays do not pile up over a round."""

    name: str
    cls: str
    run: Callable[[], object]
    check: Callable[[object], None]
    keep: Callable[[object], object] = lambda out: None


@dataclass
class Workload:
    name: str
    ops: list[Op] = field(default_factory=list)
    #: checks across the outputs of one round, name -> output
    cross: list[Callable[[dict], None]] = field(default_factory=list)
    #: runs after the set-up is timed; builds what the checks compare with
    prepare: Callable[[], None] = lambda: None

    def passes(self) -> dict[str, list[Op]]:
        """The operations of each class. The order is fixed: it decides
        which arrays are alive together, and with it the peak RSS."""
        return {cls: [op for op in self.ops if op.cls == cls] for cls in ("cutoff", "tail")}


def _cls(name: str) -> str:
    return "cutoff" if CASES[name][0] == "square" else "tail"


def _build_cases(names):
    out = {}
    for name in names:
        kind, depth, radius, h = CASES[name]
        pot = make_potential(PotentialSpec(kind, depth, radius))
        out[name] = (pot, make_grid(pot, h=h))
    return out


def _sq(name):
    _, depth, radius, _ = CASES[name]
    return depth, radius


# ------------------------------------------------------------ bound-search


def bound_search() -> Workload:
    cases = _build_cases(CASES)
    line = {n: Potential1D(cases[n][0]) for n in ("sq41", "gauss41")}
    wl = Workload("bound-search")
    ref: dict = {}

    def prepare():
        import reference as R

        for name, l in (("sq41", 0), ("deep30", 0), ("sq15", 1)):
            alphas = R.square_alphas(*_sq(name), l)
            ref[name] = (alphas, [R.square_norm(*_sq(name), l, a) for a in alphas])
        stored = R.stored()
        ref["gauss41"] = ([stored["gaussian_4_1_radial_l0_alpha"]], None)
        ref["exp905"] = ([R.exp_alpha(9.0, 0.5)], None)
        for name, l in (("sq41", 0), ("deep30", 0), ("sq15", 1), ("gauss41", 0), ("exp905", 0)):
            kind, depth, radius, _ = CASES[name]
            ref["sturm", name] = R.sturm_count(kind, depth, radius, l, cases[name][1].r_max)
        for parity in ("even", "odd"):
            alphas = R.line_square_alphas(4.0, 1.0, parity)
            ref["1d", "sq41", parity] = (alphas, [R.line_square_norm(4.0, 1.0, parity, a) for a in alphas])
        ref["1d", "gauss41", "even"] = ([stored["gaussian_4_1_line_even_alpha"]], None)
        ref["1d", "gauss41", "odd"] = ref["gauss41"]

    wl.prepare = prepare

    def radial_op(name, l):
        pot, grid = cases[name]

        def check(states):
            alphas, norms = ref[name]
            expect(len(states) == ref["sturm", name], f"{name}: {len(states)} states, Sturm count {ref['sturm', name]}")
            expect(len(states) == len(alphas), f"{name}: {len(states)} states, reference {len(alphas)}")
            near([s.alpha for s in states], alphas, TOL_ALPHA, f"{name} alpha")
            if norms is not None:
                near([s.asymptotic_norm for s in states], norms, TOL_NORM, f"{name} N")

        return Op(f"bound {name} l={l}", _cls(name), lambda: find_bound_states(pot, l, grid), check,
                  lambda states: [s.alpha for s in states])

    def line_op(name, parity):
        p, grid = line[name], cases[name][1]

        def check(states):
            alphas, norms = ref["1d", name, parity]
            expect(len(states) == len(alphas), f"1d {name} {parity}: {len(states)} states, reference {len(alphas)}")
            near([s.alpha for s in states], alphas, TOL_ALPHA, f"1d {name} {parity} alpha")
            if norms is not None:
                near([s.norm_constant for s in states], norms, TOL_NORM, f"1d {name} {parity} N")

        return Op(f"bound1d {name} {parity}", _cls(name), lambda: find_bound_1d(p, parity, grid), check,
                  lambda states: [s.alpha for s in states])

    # the cheapest search of each class comes first: it is the warm-up
    wl.ops = [line_op(n, par) for n in ("sq41", "gauss41") for par in ("odd", "even")]
    wl.ops += [radial_op("sq41", 0), radial_op("deep30", 0), radial_op("sq15", 1),
               radial_op("gauss41", 0), radial_op("exp905", 0)]

    def odd_is_radial(out):
        # the odd channel on the line is the radial s-wave problem
        for name in ("sq41", "gauss41"):
            odd, radial = out[f"bound1d {name} odd"], out[f"bound {name} l=0"]
            expect(len(odd) == len(radial), f"{name}: odd 1d and radial state counts differ")
            near(odd, radial, TOL_ALPHA, f"{name} odd 1d alpha vs radial alpha")

    wl.cross.append(odd_is_radial)
    return wl


# -------------------------------------------------------- scattering-sweep


def scattering_sweep(seed: int) -> Workload:
    cases = _build_cases(CASES)
    line = {n: Potential1D(cases[n][0]) for n in ("sq41", "gauss41")}
    momenta = {}
    for i, name in enumerate(CASES):
        rng = np.random.default_rng([seed, i])
        momenta[name] = np.unique(rng.uniform(*K_RANGE, N_MOMENTA))
    wl = Workload("scattering-sweep")
    ref: dict = {}
    l_of = {"sq15": 1}

    def prepare():
        import reference as R

        for name in ("sq41", "deep30", "sq15"):
            ref["phase", name] = R.square_phase(*_sq(name), l_of.get(name, 0), momenta[name])
        ref["even", "sq41"] = R.line_square_even_phase(4.0, 1.0, momenta["sq41"])
        # tails: shoot at three of the seeded momenta with scipy
        for name in ("gauss41", "exp905"):
            kind, depth, radius, _ = CASES[name]
            idx = np.linspace(0, momenta[name].size - 1, 3).astype(int)
            ks = momenta[name][idx]
            ref["phase", name] = (idx, [R.shooting_phase(kind, depth, radius, k) for k in ks])
        ref["gap"] = R.phase_gap
        ref["wave"] = R.square_wave_l0
        ref["free"] = R.free_wave

    wl.prepare = prepare

    def phases_op(name):
        pot, grid = cases[name]
        k, l = momenta[name], l_of.get(name, 0)

        def check(delta):
            expect(np.all(np.abs(np.diff(delta)) < 1.0), f"{name}: phase curve jumps")
            if _cls(name) == "cutoff":
                near(ref["gap"](delta, ref["phase", name]), 0.0, TOL_PHASE, f"{name} phase vs closed form")
            else:
                idx, shot = ref["phase", name]
                near(ref["gap"](delta[idx], shot), 0.0, TOL_PHASE, f"{name} phase vs shooting")

        return Op(f"phases {name}", _cls(name), lambda: phase_shift_curve(pot, l, k, grid), check,
                  lambda delta: delta)

    def wave_op(name):
        pot, grid = cases[name]
        k, l = momenta[name], l_of.get(name, 0)

        def check(wave):
            # the free form with the wave's own phase holds at the last node
            tail = ref["free"](l, k, grid.r_max, wave.delta)
            near(wave.values[-1] * k, tail * k, TOL_PHASE, f"{name} wave asymptote")
            if _cls(name) == "cutoff":
                near(ref["gap"](wave.delta, ref["phase", name]), 0.0, TOL_PHASE, f"{name} wave phase")
            if name in ("sq41", "deep30"):
                radii = grid.r()
                for j in (0, k.size // 2, k.size - 1):
                    exact = ref["wave"](*_sq(name), float(k[j]), radii)
                    near(wave.values[:, j] * k[j], exact * k[j], TOL_PHASE, f"{name} wave at k={k[j]:.4f}")

        return Op(f"wave {name}", _cls(name), lambda: physical_wave(pot, l, k, grid), check)

    def parity_op(name, parity):
        p, grid, k = line[name], cases[name][1], momenta[name]

        def check(sol):
            if parity == "even" and name == "sq41":
                near(ref["gap"](sol.delta, ref["even", name]), 0.0, TOL_PHASE, "sq41 even phase vs closed form")

        return Op(f"parity {name} {parity}", _cls(name), lambda: solve_parity(p, parity, k, grid), check,
                  lambda sol: sol.delta)

    def smatrix_op(name, parity):
        p, grid, k = line[name], cases[name][1], momenta[name]

        def check(s):
            near(np.abs(s), 1.0, 1e-10, f"{name} {parity} |S|")
            if name == "sq41":
                delta = ref["even", name] if parity == "even" else ref["phase", name]
                near(s, np.exp(2j * delta), 2 * TOL_PHASE, f"sq41 {parity} S vs closed form")

        return Op(f"smatrix1d {name} {parity}", _cls(name), lambda: smatrix_1d(p, parity, k, grid), check,
                  lambda s: s)

    for name in CASES:
        wl.ops += [phases_op(name), wave_op(name)]
    for name in line:
        wl.ops += [parity_op(name, par) for par in ("even", "odd")]
        wl.ops += [smatrix_op(name, par) for par in ("even", "odd")]

    def channels_agree(out):
        for name in line:
            # odd channel = radial s-wave; S of each channel = e^{2 i delta}
            # of its outward sweep (origin Jost data vs asymptotic matching)
            near(ref["gap"](out[f"parity {name} odd"], out[f"phases {name}"]), 0.0,
                 TOL_PHASE, f"{name} odd 1d phase vs radial phase")
            for parity in ("even", "odd"):
                delta = out[f"parity {name} {parity}"]
                near(out[f"smatrix1d {name} {parity}"], np.exp(2j * delta), 2 * TOL_PHASE,
                     f"{name} {parity} S vs parity phase")

    wl.cross.append(channels_agree)
    return wl


# -------------------------------------------------------------- pole-check


def pole_check() -> Workload:
    cases = _build_cases(CASES)
    line = Potential1D(cases["sq41"][0])
    wl = Workload("pole-check")
    ref: dict = {}
    states = [("sq41", 0, 0), ("deep30", 0, 0), ("deep30", 0, 1), ("sq15", 1, 0),
              ("gauss41", 0, 0), ("exp905", 0, 0)]

    def prepare():
        import reference as R

        for name, l in (("sq41", 0), ("deep30", 0), ("sq15", 1)):
            alphas = R.square_alphas(*_sq(name), l)
            ref[name] = (alphas, [R.square_norm(*_sq(name), l, a) for a in alphas])
        ref["gauss41"] = ([R.stored()["gaussian_4_1_radial_l0_alpha"]], None)
        ref["exp905"] = ([R.exp_alpha(9.0, 0.5)], None)
        for parity in ("even", "odd"):
            a = R.line_square_alphas(4.0, 1.0, parity)[0]
            ref["1d", parity] = (a, R.line_square_norm(4.0, 1.0, parity, a))

    wl.prepare = prepare

    def pole_op(name, l, i):
        pot, grid = cases[name]
        cutoff = pot.cutoff is not None
        # the real-axis fit reaches the pole only where no other
        # singularity is near: one s-wave state per well
        real_fit = l == 0 and name != "deep30"

        def run():
            alpha = ref[name][0][i]
            state = build_bound_state(pot, l, alpha, grid)
            samples = extrapolant_samples_near_pole(pot, l, alpha, grid)
            cmp_ = compare_to_bound(extrapolate_to_pole(samples, order=2), state)
            residues = {}
            for method, used in (("imaginary_axis", cutoff), ("real_axis_fit", real_fit)):
                if used:
                    residues[method] = smatrix_residue(pot, l, alpha, grid, method).value
            ladder = _gw_ladder(pot, alpha, grid, state) if l == 0 else None
            return state, cmp_, residues, ladder

        def check(out):
            state, cmp_, residues, ladder = out
            alphas, norms = ref[name]
            loose = l == 1 or (name == "deep30" and i == 0)
            tol = TOL_POLE_LOOSE if loose else TOL_POLE
            expect(cmp_.max_residual < tol, f"{name}[{i}] pole residual {cmp_.max_residual:.2e}")
            norm = norms[i] if norms is not None else state.asymptotic_norm
            if norms is not None:
                near(state.asymptotic_norm, norm, TOL_NORM, f"{name}[{i}] N")
            pred = residue_prediction(l, norm)
            for method, value in residues.items():
                rel = abs(value - pred) / abs(pred)
                expect(rel < TOL_RESIDUE, f"{name}[{i}] {method} residue rel {rel:.2e}")
            if ladder is not None:
                for form, errs in ladder.items():
                    expect(all(a > b for a, b in zip(errs, errs[1:])),
                           f"{name}[{i}] {form} deviation does not shrink toward the pole: {errs}")

        return Op(f"pole {name}[{i}] l={l}", _cls(name), run, check)

    wl.ops = [pole_op(*s) for s in states]

    def line_op(parity):
        grid = cases["sq41"][1]

        def run():
            alpha, _ = ref["1d", parity]
            state = build_bound_1d(line, parity, alpha, grid)
            _, cmp_ = pole_extrapolate_1d(line, parity, state, grid)
            return state, cmp_, pole_residue_1d(line, parity, alpha, grid)

        def check(out):
            state, cmp_, est = out
            _, norm = ref["1d", parity]
            near(state.norm_constant, norm, TOL_NORM, f"1d {parity} N")
            expect(cmp_.max_residual < TOL_POLE, f"1d {parity} pole residual {cmp_.max_residual:.2e}")
            pred = (1.0 if parity == "even" else -1.0) * 2j * norm**2
            rel = abs(est.value - pred) / abs(pred)
            expect(rel < TOL_RESIDUE, f"1d {parity} residue rel {rel:.2e}")

        return Op(f"pole1d sq41 {parity}", "cutoff", run, check)

    def threshold_check(zp):
        expect(zp.threshold_alpha is None, f"zero-energy state reported at {zp.threshold_alpha}")
        near(zp.delta0, math.pi / 2, TOL_THRESHOLD, "delta_plus(0) vs pi/2")

    wl.ops += [line_op("even"), line_op("odd")]
    wl.ops.append(Op("threshold sq41", "cutoff",
                     lambda: zero_energy_phase(line, cases["sq41"][1]), threshold_check))
    return wl


def _gw_ladder(pot, alpha, grid, state) -> dict[str, list[float]]:
    """Deviation of both prefactor forms from -u on the geometric ladder
    of pole distances alpha^2 4^-j, j = 1..5, farthest first."""
    frac = 4.0 ** -np.arange(1, 6)
    kappa = alpha * np.sqrt(1.0 - frac)
    f_up = jost_on_imaginary_axis(pot, 0, kappa, grid)
    f_dn = jost_on_imaginary_axis(pot, 0, -kappa, grid)
    phi = solve_regular(pot, 0, 1j * kappa, grid).values.real
    s = pole_branch_sign(pot, 0, alpha, grid)
    ours = s * math.sqrt(2.0 * alpha) * alpha * np.sqrt(frac) * phi / np.sqrt(f_up * f_dn)
    gw = gw_extrapolant(pot, alpha, 1j * kappa, grid).values.real
    r = grid.r()
    sel = (r >= 0.5) & (r <= min(3.0 / alpha, grid.r_max))
    expected = -state.u[sel]
    denom = np.maximum(np.abs(expected), 1e-3 * np.max(np.abs(state.u)))
    return {
        form: [float(np.max(np.abs(vals[sel, j] - expected) / denom)) for j in range(frac.size)]
        for form, vals in (("ours", ours), ("gw", gw))
    }


# ------------------------------------------------------------- cli-session

CLI_CALLS = [
    ("phases", "square"), ("bound", "square"), ("verify-pole", "square"),
    ("residue", "square"), ("gw-compare", "square"), ("separable", None), ("oned", "square"),
    ("bound", "gaussian"), ("verify-pole", "gaussian"), ("gw-compare", "gaussian"),
    ("residue", "gaussian"),
]
#: calls that fail on every run today; counted in "failed", not checked
EXPECTED_FAILURES = {("residue", "gaussian"): 3}


def cli_label(sub: str, spec: str | None) -> str:
    return f"{sub}.{spec or 'model'}"


def cli_argv(sub: str, spec: str | None, bench: Path) -> list[str]:
    argv = [sub]
    if spec is not None:
        # r_max 12 instead of the default 25 halves every sweep and changes
        # no checked digit (the square well's tail is exact, the gaussian's
        # is below 1e-60 there); it keeps a whole round of eleven processes
        # inside the time a run may take
        argv += ["--potential", str(bench / "specs" / f"{spec}.json"), "--rmax", "12"]
    if sub == "gw-compare":
        # the geometric ladder toward the pole, whose deviations must shrink
        argv += ["--sample-mode", "near"]
    return argv


class CliFailed(Exception):
    """A CLI call exited with a nonzero code."""


def cli_session(bench: Path, out_dir: Path, runner) -> Workload:
    """``runner(label, argv, out_path)`` runs one CLI process and returns
    its exit code; the worker supplies it so it can time and trace."""
    import polewave.cli  # noqa: F401  (the set-up this workload times)

    wl = Workload("cli-session")
    ref: dict = {}

    def prepare():
        import reference as R

        a = R.square_alphas(4.0, 1.0, 0)[0]
        ref["square"] = (a, R.square_norm(4.0, 1.0, 0, a), R.sturm_count("square", 4.0, 1.0, 0, 25.0))
        ref["gaussian"] = (R.stored()["gaussian_4_1_radial_l0_alpha"], None,
                           R.sturm_count("gaussian", 4.0, 1.0, 0, 25.0))
        ref["phase"] = lambda k: R.square_phase(4.0, 1.0, 0, k)
        ref["gap"] = R.phase_gap
        ae = R.line_square_alphas(4.0, 1.0, "even")
        ref["even"] = (ae, [R.line_square_norm(4.0, 1.0, "even", x) for x in ae])

    wl.prepare = prepare

    def op(sub, spec):
        label = cli_label(sub, spec)
        path = out_dir / f"cli-{label}.txt"
        argv = cli_argv(sub, spec, bench)

        def run():
            code = runner(label, argv, path)
            if code != 0:
                raise CliFailed(f"{label} exited {code}")
            return _parse_csv(path.read_text())

        return Op(f"cli {label}", "tail" if spec == "gaussian" else "cutoff", run,
                  lambda table: _check_cli(sub, spec, table, ref))

    wl.ops = [op(sub, spec) for sub, spec in CLI_CALLS]
    return wl


def _parse_csv(text: str) -> tuple[dict, np.ndarray]:
    verdict, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# verdict."):
            key, _, val = line[len("# verdict."):].partition(" = ")
            verdict[key] = val
        elif line and not line.startswith("#") and line[0] in "-0123456789":
            rows.append([float(x) for x in line.split(",")])
    return verdict, np.array(rows)


def _check_cli(sub: str, spec: str | None, table, ref) -> None:
    verdict, rows = table
    what = f"cli {sub} {spec}"
    if sub == "separable":
        alpha, beta = 1.0, 5.0
        z = (rows[:, 0] ** 2 + alpha**2) / (4.0 * beta * (alpha + beta))
        near(rows[:, 1], z, 1e-14, f"{what} z")
        near(rows[:, 2], np.abs((1 + 2 * z) / np.sqrt(1 + z) - 1), 1e-12, f"{what} ours_err")
        low = rows[:, 0] < 2 * alpha
        expect(bool(np.all(rows[low, 3] > rows[low, 2])), f"{what}: gw form not worse below 2 alpha")
        z0 = alpha**2 / (4.0 * beta * (alpha + beta))
        near(float(verdict["prefactor_ratio_at_zero"]), (1 + 2 * z0) / math.sqrt(1 + z0), 1e-12, f"{what} ratio at 0")
        expect(verdict["winding_number"] == "1", f"{what}: winding number {verdict['winding_number']}")
        expect(float(verdict["ours_err_at_pole"]) < 1e-6 and float(verdict["gw_err_at_pole"]) < 1e-6,
               f"{what}: forms miss the pole")
        return
    if sub == "phases":
        near(ref["gap"](rows[:, 1], ref["phase"](rows[:, 0])), 0.0, TOL_PHASE, f"{what} phase")
        near(rows[:, 2], 0.0, 1e-10, f"{what} unitarity")
        return
    if sub == "oned":
        alphas, norms = ref["even"]
        expect(len(rows) == len(alphas), f"{what}: {len(rows)} states")
        near(rows[:, 0], alphas, TOL_ALPHA, f"{what} alpha")
        near(rows[:, 2], norms, TOL_NORM, f"{what} N")
        expect(float(verdict["max_extrapolation_residual"]) < TOL_POLE, f"{what}: pole residual")
        expect(float(verdict["max_residue_rel_error"]) < TOL_RESIDUE, f"{what}: residue")
        near(float(verdict["delta_even_at_zero"]), math.pi / 2, TOL_THRESHOLD, f"{what} delta_plus(0)")
        return
    alpha, norm, count = ref[spec]
    if sub == "bound":
        expect(len(rows) == count, f"{what}: {len(rows)} states, Sturm count {count}")
        near(rows[0, 1], alpha, TOL_ALPHA, f"{what} alpha")
        if norm is not None:
            near(rows[0, 3], norm, TOL_NORM, f"{what} N")
    elif sub == "verify-pole":
        near(float(verdict["state0_alpha"]), alpha, TOL_ALPHA, f"{what} alpha")
        expect(float(verdict["max_relative_residual"]) < TOL_POLE, f"{what}: pole residual")
    elif sub == "residue":
        # rows: alpha, method, residue re, im, predicted re, im, ...; the
        # prediction is -i N^2, with N from the closed form where there is one
        for row in rows:
            pred = -1j * norm**2 if norm is not None else complex(row[4], row[5])
            rel = abs(complex(row[2], row[3]) - pred) / abs(pred)
            expect(rel < TOL_RESIDUE, f"{what}: method {row[1]:.0f} residue rel {rel:.2e}")
    elif sub == "gw-compare":
        near(float(verdict["alpha"]), alpha, TOL_ALPHA, f"{what} alpha")
        for col, form in ((2, "ours"), (3, "gw")):
            errs = rows[:, col]
            expect(bool(np.all(errs[1:] < errs[:-1])), f"{what}: {form} deviation does not shrink toward the pole")
    else:
        raise CheckFailed(f"no check for {what}")


def build(name: str, seed: int, bench: Path, out_dir: Path, runner=None) -> Workload:
    if name == "bound-search":
        return bound_search()
    if name == "scattering-sweep":
        return scattering_sweep(seed)
    if name == "pole-check":
        return pole_check()
    if name == "cli-session":
        return cli_session(bench, out_dir, runner)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("bound-search", "scattering-sweep", "pole-check", "cli-session")
