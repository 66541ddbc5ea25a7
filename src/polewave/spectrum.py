"""Bound states: location, construction, and normalization.

A bound state of angular momentum l sits at k = i alpha where the Jost
function F_l(i alpha) vanishes. Along the imaginary axis our F is exactly
real (see radial). The search brackets every zero by the Sturm count:
the sweep of the outward solution that reads F(i kappa) also counts its
nodes, which number the states with alpha > kappa. Cells of a kappa
batch are split until each holds at most one state, and a batched
Illinois regula falsi with a bisection safeguard refines each
bracketed zero. A search that finds fewer states than the count is
refused, never returned short.

The bound radial function is the regular solution swept out to the
outer turning point, matched there to the reduced Jost solution
ft_l(i alpha, r) swept in from the cutoff node (radial._matched_state).
It decays like exp(-alpha r) with unit coefficient by construction;
normalization only has to integrate u^2 on the grid and add the
analytic tail beyond r_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _integrate as ig
from ._riccati import free_decay, free_decay_d
from .errors import NumericalError
from .potentials import Grid, Potential
from .radial import _counted_condition, _matched_state, _mesh, _Mesh

#: relative bracket width at which root refinement stops. The bound-state
#: conditions are rounding noise within about 1e-11 of a root (the line
#: conditions on square (4, 1)); a tighter stop buys steps in the noise.
_ROOT_RTOL = 2e-12
#: cap on refinement steps; a bracket halves at least every third step
_MAX_STEPS = 150


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


def decay_tail_integral(l: int, alpha: float, radius: float) -> float:
    """Exact integral of the unit-coefficient decay profile squared
    from ``radius`` to infinity.

    For l = 0 this is exp(-2 a R) / 2a; for l = 1 the dressing term
    integrates in closed form as well (the exponential-integral pieces
    cancel). At any l, d/dr W(f_a, f_b) = (a^2 - b^2) f_a f_b makes the
    integral the Wronskian of f and df/dalpha at R; with z = alpha R and
    F = free_decay(l, 1, z), F'' = (l(l+1)/z^2 + 1) F, that is
    -[F F' + z (F F'' - F'^2)] / 2 alpha.
    """
    x = 2.0 * alpha * radius
    if l == 0:
        return math.exp(-x) / (2.0 * alpha)
    if l == 1:
        return math.exp(-x) * (1.0 / (2.0 * alpha) + 1.0 / (alpha**2 * radius))
    z = alpha * radius
    f, fd = float(free_decay(l, 1.0, z)), float(free_decay_d(l, 1.0, z))
    fdd = (l * (l + 1) / z**2 + 1.0) * f
    return -(f * fd + z * (f * fdd - fd * fd)) / (2.0 * alpha)


def _regula_falsi(condition, lo, hi, flo, fhi) -> np.ndarray:
    """Zeros of a real condition in the brackets [lo, hi], all brackets
    in one batch; flo and fhi hold the condition at the ends, of
    opposite signs. A bracket with an exact zero at an end (lo == hi
    included) is a root and stays.

    Each step evaluates the false-position point of every live bracket
    and keeps the sign change. When a secant step keeps the same end as
    the secant step before it, that end's value is scaled down
    (Illinois, with the Anderson-Bjorck factor), so the bracket closes
    from both sides instead of creeping in from one. Whenever three steps
    have not halved a bracket the next one bisects it. No step is
    shorter than 0.9 times the stopping width, so near the root, where
    the condition is rounding noise, one step across it closes the
    bracket. A bracket stops at an exact zero or once its width is
    within _ROOT_RTOL of its ends; the end with the smaller condition
    is returned.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    fa, fb = np.array(flo, dtype=float), np.array(fhi, dtype=float)
    a = np.where(fb == 0, b, a)
    b = np.where(fa == 0, a, b)
    ga, gb = np.abs(fa), np.abs(fb)  # |condition| at the ends, unscaled
    kept = np.zeros(a.shape, dtype=int)  # end kept by the last secant step: -1 a, +1 b
    ref = b - a  # width at the last halving
    slow = np.zeros(a.shape, dtype=int)  # steps since then
    for _ in range(_MAX_STEPS):
        tol = _ROOT_RTOL * np.maximum(np.abs(a), np.abs(b))
        live = b - a > tol
        if not live.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.clip(b - fb * (b - a) / (fb - fa), a + 0.9 * tol, b - 0.9 * tol)
        bisect = (slow >= 3) | ~(a < x) | ~(x < b)
        x = np.where(bisect, 0.5 * (a + b), x)
        fx = np.zeros_like(x)
        fx[live] = condition(x[live])
        root = live & (fx == 0)
        to_a = live & ~root & (np.sign(fx) == np.sign(fa))
        to_b = live & ~root & ~to_a
        with np.errstate(divide="ignore", invalid="ignore"):
            fb = np.where(to_a & (kept == 1), _ab_factor(fx, fa) * fb, fb)
            fa = np.where(to_b & (kept == -1), _ab_factor(fx, fb) * fa, fa)
        a, fa = np.where(to_a | root, x, a), np.where(to_a, fx, fa)
        b, fb = np.where(to_b | root, x, b), np.where(to_b, fx, fb)
        ga = np.where(to_a | root, np.abs(fx), ga)
        gb = np.where(to_b | root, np.abs(fx), gb)
        kept = np.where(bisect, kept, np.where(to_a, 1, np.where(to_b, -1, kept)))
        halved = b - a <= 0.5 * ref
        ref = np.where(halved, b - a, ref)
        slow = np.where(halved, 0, slow + live)
    return np.where(ga <= gb, a, b)


def _ab_factor(f_new, f_old):
    """Anderson-Bjorck scale 1 - f_new / f_old for the kept end, where
    f_new replaced f_old; 1/2 (Illinois) where that is not positive."""
    m = 1.0 - f_new / f_old
    return np.where(m > 0, m, 0.5)


def _scan_roots(mesh: _Mesh, l_out: int, l: int, sign: float) -> list[float]:
    """Zeros of the bound-state condition sign F_l(i kappa) of the channel
    (l_out, sign) of radial._condition on (0, sqrt(-min U)], deepest
    first, bracketed by the Sturm count of radial._counted_condition.

    The count of states with alpha > kappa is read on a first batch of
    _WIDE momenta spread over (lo, sqrt(-min U)]. A cell across which it
    drops by d > 1 holds d roots and is split at d equally spaced
    points, all such cells in one batch, until every cell holds at most
    one. Each cell across which the count drops by exactly 1 holds one
    simple root, and _regula_falsi refines them all in one batch from
    the condition values the count sweeps read at the cell ends. If
    those share a sign, count and condition disagree in rounding at an
    end, and the root lies within rounding of the end with the smaller
    value, which is taken as a root. Every sweep marches at most _WIDE
    momenta: a batch of two or more on the blocked path, a batch of one,
    such as the refinement of a single bracket, on Python floats (see
    _integrate.numerov). A bracket's end values and its refinement can
    then come from two paths that differ only in rounding.

    The search is refused (NumericalError) unless the count at
    sqrt(-min U) is 0 and the distinct roots number the count at lo.
    """
    umin = float(np.min(mesh.u))
    if umin >= 0.0:
        return []
    amax = math.sqrt(-umin)
    counted = _counted_condition(mesh, l_out, l, sign)

    def sweep(kappa):
        parts = [counted(kappa[i : i + ig._WIDE]) for i in range(0, kappa.size, ig._WIDE)]
        return tuple(np.concatenate(p) for p in zip(*parts))

    lo = min(1e-4, 1e-3 * amax)
    ks = np.linspace(lo, amax, ig._WIDE)
    fv, n = sweep(ks)
    if n[-1] != 0:
        raise NumericalError(
            f"the Sturm count reads {n[-1]} bound states below the bottom of the "
            "well; the grid does not resolve this potential"
        )
    while True:
        drop = n[:-1] - n[1:]
        cells = np.flatnonzero(drop > 1)
        if not cells.size:
            break
        if np.any(ks[cells + 1] - ks[cells] <= _ROOT_RTOL * ks[cells + 1]):
            raise NumericalError("the Sturm count does not separate two bound states")
        new = np.concatenate(
            [np.linspace(ks[i], ks[i + 1], d + 2)[1:-1] for i, d in zip(cells, drop[cells])]
        )
        fnew, nnew = sweep(new)
        order = np.argsort(np.concatenate([ks, new]))
        ks = np.concatenate([ks, new])[order]
        fv, n = np.concatenate([fv, fnew])[order], np.concatenate([n, nnew])[order]
    i = np.flatnonzero(n[:-1] - n[1:] == 1)
    flo, fhi = fv[i], fv[i + 1]
    same = np.sign(flo) == np.sign(fhi)
    at_lo = same & (np.abs(flo) <= np.abs(fhi))
    flo, fhi = np.where(at_lo, 0.0, flo), np.where(same & ~at_lo, 0.0, fhi)
    roots = _regula_falsi(lambda x: sweep(x)[0], ks[i], ks[i + 1], flo, fhi)
    roots = sorted({float(x) for x in roots}, reverse=True)
    if len(roots) != n[0]:
        raise NumericalError(
            f"the bound-state search found {len(roots)} distinct states where the "
            f"Sturm count reads {n[0]}"
        )
    return roots


def find_bound_states(
    potential: Potential,
    l: int,
    grid: Grid | None = None,
) -> list[BoundState]:
    """All bound states for the given l, deepest (largest alpha) first."""
    mesh = _mesh(potential, grid)
    return [_bound_state(mesh, l, a) for a in _scan_roots(mesh, l, l, 1.0)]


def _normalised(mesh: _Mesh, l_out: int, l: int, alpha: float) -> tuple[np.ndarray, float]:
    """The matched bound state at k = i alpha with unit tail coefficient
    (radial._matched_state, outward solution at l_out) and the integral
    of its square over r > 0: Simpson on the grid plus the exact decay
    tail beyond r_max."""
    u, h = _matched_state(mesh, l_out, l, alpha), mesh.grid.h
    return u, float(ig.simpson(u**2, h)) + decay_tail_integral(l, alpha, mesh.grid.r_max)


def build_bound_state(
    potential: Potential, l: int, alpha: float, grid: Grid
) -> BoundState:
    """Construct and normalize the bound state at a known alpha.

    alpha must already be a zero of F_l(i alpha) on this grid to high
    accuracy: the outward and inward solutions are matched at the outer
    turning point, and a Wronskian mismatch there refuses anything else.
    """
    return _bound_state(_mesh(potential, grid), l, alpha)


def _bound_state(mesh: _Mesh, l: int, alpha: float) -> BoundState:
    u, total = _normalised(mesh, l, l, alpha)
    norm = 1.0 / math.sqrt(total)
    return BoundState(grid=mesh.grid, l=l, alpha=alpha, u=norm * u, asymptotic_norm=norm)


def asymptotic_coefficient(state: BoundState) -> float:
    """Coefficient of the decaying free solution in u at large r,
    averaged over the outer tenth of the grid. For a unit-norm state
    this should reproduce state.asymptotic_norm."""
    r = state.grid.r()
    i0 = int(0.9 * state.grid.n)
    ref = free_decay(state.l, state.alpha, r[i0:])
    return float(np.mean(state.u[i0:] / ref))
