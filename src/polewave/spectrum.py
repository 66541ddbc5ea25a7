"""Bound states: location, construction, and normalization.

A bound state of angular momentum l sits at k = i alpha where the Jost
function F_l(i alpha) vanishes. Along the imaginary axis our F is exactly
real (see radial), so the search is a sign-change scan plus bisection,
batched over candidates so the grid solves stay vectorized.

The bound radial function is the reduced Jost solution itself,
u propto ft_l(i alpha, r), which decays like exp(-alpha r) with unit
coefficient by construction; normalization only has to integrate u^2 on
the grid and add the analytic tail beyond r_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, simpson

from .analytic import free_decay
from .errors import NoBoundStateError, NumericalError, SpecError
from .potentials import Grid, Potential, make_grid
from .radial import _origin_series, jost_on_imaginary_axis, solve_jost_reduced

_BISECT_ITERS = 44
_N_SCAN = 200


@dataclass
class BoundState:
    """Unit-norm bound state u(r) on a grid, positive at large r.

    asymptotic_norm is the coefficient N in u -> N exp(-alpha r) (times
    the exact inverse-power dressing for l >= 1); it equals the residue
    data of the S matrix through |Res S(i alpha)| = N^2.
    """

    grid: Grid
    l: int
    alpha: float
    u: np.ndarray
    asymptotic_norm: float

    @property
    def energy(self) -> float:
        return -self.alpha**2

    def tail_reference(self, r=None) -> np.ndarray:
        """The unit-coefficient decaying free solution this state is
        measured against at large r."""
        if r is None:
            r = self.grid.r()
        return free_decay(self.l, self.alpha, r)


def decay_tail_integral(l: int, alpha: float, radius: float) -> float:
    """Exact integral of the unit-coefficient decay profile squared
    from ``radius`` to infinity.

    For l = 0 this is exp(-2 a R) / 2a; for l = 1 the dressing term
    integrates in closed form as well (the exponential-integral pieces
    cancel); higher l falls back to quadrature.
    """
    x = 2.0 * alpha * radius
    if l == 0:
        return math.exp(-x) / (2.0 * alpha)
    if l == 1:
        return math.exp(-x) * (1.0 / (2.0 * alpha) + 1.0 / (alpha**2 * radius))
    val, _ = quad(
        lambda rr: free_decay(l, alpha, rr) ** 2, radius, radius + 60.0 / alpha
    )
    return float(val)


def _bisect(condition, lo, hi, flo) -> np.ndarray:
    """Midpoints of the brackets [lo, hi] of a real condition after
    _BISECT_ITERS halvings, all brackets in one batch; flo holds the
    condition at lo. A bracket with lo == hi is an exact root and stays."""
    lo, hi, flo = np.asarray(lo), np.asarray(hi), np.asarray(flo)
    live = lo < hi
    for _ in range(_BISECT_ITERS):
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        fm = np.zeros_like(mid)
        fm[live] = condition(mid[live])
        same = np.sign(fm) == np.sign(flo)
        lo = np.where(live & same, mid, lo)
        flo = np.where(live & same, fm, flo)
        hi = np.where(live & ~same, mid, hi)
    return 0.5 * (lo + hi)


def _scan_roots(potential: Potential, grid: Grid, condition) -> list[float]:
    """Zeros of a real bound-state condition of kappa on (0, sqrt(-min U)],
    deepest first: a sign scan on _N_SCAN points, then bisection of
    every sign change."""
    umin = float(np.min(potential(grid.r())))
    if umin >= 0.0:
        return []
    amax = math.sqrt(-umin)
    lo = min(1e-4, 1e-3 * amax)
    if amax <= lo:
        return []

    def scan(lo_, hi_):
        ks = np.linspace(lo_, hi_, _N_SCAN)
        return ks, condition(ks)

    ks, fv = scan(lo, amax)
    scale = float(np.median(np.abs(fv))) or 1.0
    # a near-zero endpoint could hide a sign change just outside; widen once
    if abs(fv[-1]) < 1e-9 * scale or abs(fv[0]) < 1e-9 * scale:
        ks, fv = scan(lo * 0.5, amax * 1.01)

    left, right, fleft = [], [], []
    for i in range(_N_SCAN - 1):
        if fv[i] == 0.0:
            left.append(ks[i])
            right.append(ks[i])
            fleft.append(0.0)
        elif fv[i] * fv[i + 1] < 0.0:
            left.append(ks[i])
            right.append(ks[i + 1])
            fleft.append(fv[i])
    if not left:
        return []
    roots = _bisect(condition, left, right, fleft)
    return sorted((float(x) for x in roots), reverse=True)


def find_bound_states(
    potential: Potential,
    l: int,
    grid: Grid | None = None,
) -> list[BoundState]:
    """All bound states for the given l, deepest (largest alpha) first."""
    if grid is None:
        grid = make_grid(potential)

    def condition(kappa):
        return jost_on_imaginary_axis(potential, l, kappa, grid)

    return [
        build_bound_state(potential, l, a, grid)
        for a in _scan_roots(potential, grid, condition)
    ]


def ground_state(
    potential: Potential,
    l: int,
    grid: Grid | None = None,
) -> BoundState:
    states = find_bound_states(potential, l, grid)
    if not states:
        raise NoBoundStateError(f"no bound state with l = {l} for this potential")
    return states[0]


def _check_regular_at_origin(
    potential: Potential, l: int, alpha: float, grid: Grid, vals: np.ndarray
) -> None:
    """A true bound state is regular at r = 0. The inward Jost sweep
    exposes any admixture of the irregular r^{-l} solution right at the
    innermost nodes, so test there."""
    peak = float(np.max(np.abs(vals)))
    if l == 0:
        # ft_0(i alpha, 0) equals F_0(i alpha), which must be ~ 0
        if abs(vals[0]) > 1e-5 * peak:
            raise NumericalError(
                f"alpha = {alpha:.12g} is not a bound state: the radial function "
                f"does not vanish at the origin ({abs(vals[0]):.2e} vs peak {peak:.2e})"
            )
        return
    series = _origin_series(potential, l, -(alpha**2))
    expected = series(2 * grid.h) / series(grid.h)
    actual = vals[2] / vals[1]
    if not math.isfinite(actual) or abs(actual / expected - 1.0) > 0.05:
        raise NumericalError(
            f"alpha = {alpha:.12g} is not a bound state: near-origin growth "
            f"{actual:.6g} differs from the regular ratio {expected:.6g}"
        )


def build_bound_state(
    potential: Potential, l: int, alpha: float, grid: Grid
) -> BoundState:
    """Construct and normalize the bound state at a known alpha.

    alpha must already be a zero of F_l(i alpha) on this grid to high
    accuracy; the origin-regularity check below rejects anything else.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise SpecError("alpha must be a positive real number")
    sol = solve_jost_reduced(potential, l, 1j * alpha, grid)
    vals = sol.values[:, 0].real
    _check_regular_at_origin(potential, l, alpha, grid, vals)
    r = grid.r()
    body = float(simpson(vals**2, x=r))
    tail = decay_tail_integral(l, alpha, grid.r_max)
    norm = 1.0 / math.sqrt(body + tail)
    return BoundState(grid=grid, l=l, alpha=alpha, u=norm * vals, asymptotic_norm=norm)


def asymptotic_coefficient(state: BoundState) -> float:
    """Coefficient of the decaying free solution in u at large r,
    averaged over the outer tenth of the grid. For a unit-norm state
    this should reproduce state.asymptotic_norm."""
    r = state.grid.r()
    i0 = int(0.9 * state.grid.n)
    ref = free_decay(state.l, state.alpha, r[i0:])
    return float(np.mean(state.u[i0:] / ref))
