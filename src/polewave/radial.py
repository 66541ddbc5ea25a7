"""Regular and Jost solutions of the radial equation, and the Jost
function built from their Wronskian.

Conventions. The regular solution phi_l(k, r) carries the k-independent
origin normalization

    phi_l(k, r) -> r^{l+1} / (2l+1)!!    as r -> 0,

so it is entire in k^2 and even in k. The Jost solution is fixed at
infinity, f_l(k, r) -> e^{i(k r + l pi/2)}; internally we march its
reduced form

    ft_l = (-i)^l f_l,    ft_l(k, r) -> i e^{i k r} hhat-wise,

because ft is real on the imaginary k axis, which keeps bound-state
searches in exact real arithmetic. The Jost function is

    F_l(k) = (-i k)^l W[ft_l, phi_l],      W[f, g] = f g' - f' g,

normalized so that F = 1 identically for U = 0. Zeros of F_l on the
positive imaginary axis, k = i alpha, are the bound states; the phase
shift on the real axis is delta_l = -arg F_l.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _integrate as ig
from ._riccati import double_factorial_odd, hhat_plus, hhat_plus_d
from .errors import (
    ConditioningWarning,
    GridError,
    NumericalError,
    SpecError,
    StepSizeError,
)
from .potentials import _TAIL_TINY, Grid, Potential, make_grid

#: momenta whose rounding grows by more than this factor get a warning
_CONDITION_LIMIT = 1e6


def _momenta(k) -> np.ndarray:
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    if k.ndim != 1:
        raise SpecError("momenta must be a scalar or a 1d array")
    return k


def _check_step(potential: Potential, l: int, k2: np.ndarray, grid: Grid) -> None:
    umax = float(np.max(np.abs(potential(grid.r()))))
    q = math.sqrt(float(np.max(np.abs(k2))) + umax)
    if q * grid.h > 0.5:
        raise StepSizeError(
            f"grid step h = {grid.h:g} is too coarse for local momentum {q:.3g} "
            f"(need q h <= 0.5)"
        )


def _domains(potential: Potential, grid: Grid):
    """Split the node range at piece boundaries; each part carries the
    fn of the smooth piece that governs it, so interface nodes get
    one-sided values and no fn is evaluated outside its own piece."""
    edges = set()
    for p in potential.pieces():
        for e in (p.lo, p.hi):
            if np.isfinite(e) and 0.0 < e < grid.r_max:
                edges.add(float(e))
    idx = [0] + [grid.index_of(b) for b in sorted(edges)] + [grid.n]
    r = grid.r()
    out = []
    for i0, i1 in zip(idx[:-1], idx[1:]):
        if i1 - i0 < 5:
            raise GridError("a smooth piece spans fewer than 5 nodes; refine the grid")
        rmid = 0.5 * (r[i0] + r[i1])
        for p in potential.pieces():
            if p.lo <= rmid < p.hi:
                out.append((i0, i1, p.fn))
                break
        else:
            raise GridError(f"no potential piece covers r = {rmid:g}")
    return out


def _w_block(fn, r_sl: np.ndarray, l: int, k2: np.ndarray) -> np.ndarray:
    """w = U + l(l+1)/r^2 - k^2 on a node slice, shape (nodes, nk)."""
    u = np.asarray(fn(r_sl), dtype=float)
    cf = np.zeros_like(r_sl)
    nz = r_sl > 0
    cf[nz] = l * (l + 1) / r_sl[nz] ** 2
    return (u + cf)[:, None] - k2[None, :]


def _sided_w(potential: Potential, l: int, r0: float, side: int, k2: np.ndarray):
    """(w, w', w'') one-sided at r0, with centrifugal derivatives exact."""
    u, u1, u2 = potential.taylor_sided(r0, side)
    cf = l * (l + 1) / r0**2
    w0 = (u + cf) - k2
    w1 = u1 - 2.0 * l * (l + 1) / r0**3
    w2 = u2 + 6.0 * l * (l + 1) / r0**4
    return w0, w1, w2


@dataclass
class RadialSolution:
    """Values of one solution family on a grid, batched over momenta.

    values has shape (n_nodes, n_k) and complex dtype; on the imaginary
    k axis the imaginary parts are exact zeros, so .real is lossless
    there.
    """

    grid: Grid
    l: int
    k: np.ndarray
    values: np.ndarray
    kind: str

    def at_radius(self, radius: float) -> np.ndarray:
        return self.values[self.grid.index_of(radius)]


def _origin_series(potential: Potential, l: int, k2):
    """The regular solution near the origin as a function of r,

        phi = r^{l+1}/(2l+1)!! (1 + c2 r^2 + c3 r^3 + c4 r^4),

    for l >= -1. At l = -1 this is the even solution on the line,
    y(0) = 1, y'(0) = 0: r^0 = 1, (-1)!! = 1 and the centrifugal term
    vanishes.
    """
    u0, u1, u2 = potential.taylor_at_zero()
    c2 = (u0 - k2) / (4 * l + 6)
    c3 = u1 / (6 * l + 12)
    c4 = (0.5 * u2 + (u0 - k2) * c2) / (8 * l + 20)
    fac = double_factorial_odd(l)

    def series(rr):
        return rr ** (l + 1) / fac * (1.0 + c2 * rr**2 + c3 * rr**3 + c4 * rr**4)

    return series


def _sweep_regular(
    potential: Potential, l: int, k, grid: Grid, top: int | None = None
) -> np.ndarray:
    """Values of the regular solution for l >= -1 on nodes 0..top
    (default the whole grid), shape (top + 1, nk).

    The first two nodes come from the origin series, the origin itself
    included at l = -1 where the solution does not vanish there. Numerov
    is a forward recurrence, so stopping at top leaves every value it
    does compute bit-identical to the full sweep.
    """
    k = _momenta(k)
    k2 = k * k
    _check_step(potential, l, k2, grid)
    top = grid.n if top is None else top
    h, r = grid.h, grid.r()
    seed = _origin_series(potential, l, k2)
    s = 0 if l < 0 else 1
    vals = np.empty((top + 1, k.size), dtype=complex)
    vals[0] = 0.0
    for i0, i1, fn in _domains(potential, grid):
        if i0 >= top:
            break
        i1 = min(i1, top)
        w = _w_block(fn, r[i0 : i1 + 1], l, k2)
        if i0 == 0:
            vals[s] = seed(r[s])
            vals[s + 1] = seed(r[s + 1])
            vals[s : i1 + 1] = ig.numerov(vals[s], vals[s + 1], w[s:], h)
        else:
            du = ig.deriv_backward(vals, i0, h)
            w0, w1, w2 = _sided_w(potential, l, r[i0], +1, k2)
            vals[i0 + 1] = ig.taylor_step(vals[i0], du, h, w0, w1, w2)
            vals[i0 : i1 + 1] = ig.numerov(vals[i0], vals[i0 + 1], w, h)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("regular solution overflowed; reduce r_max or check inputs")
    return vals


def solve_regular(potential: Potential, l: int, k, grid: Grid) -> RadialSolution:
    """Outward integration of the regular solution phi_l(k, r).

    Seeds the first two nodes from the origin power series
    phi = r^{l+1}/(2l+1)!! (1 + c2 r^2 + c3 r^3 + c4 r^4), then marches
    with Numerov, stepping across potential breakpoints one-sidedly.
    """
    if l < 0:
        raise SpecError("l must be a non-negative integer")
    k = _momenta(k)
    return RadialSolution(grid, l, k, _sweep_regular(potential, l, k, grid), "regular")


def _free_reduced(l: int, k: np.ndarray, r_sl: np.ndarray) -> np.ndarray:
    """Reduced free Jost solution i^{l+1} hhat_l^+(k r) on a node slice."""
    z = k[None, :] * r_sl[:, None]
    return (1j) ** (l + 1) * hhat_plus(l, z)


def _free_reduced_d(l: int, k: np.ndarray, r0: float) -> np.ndarray:
    return (1j) ** (l + 1) * k * hhat_plus_d(l, k * r0)


def solve_jost_reduced(potential: Potential, l: int, k, grid: Grid) -> RadialSolution:
    """Inward integration of the reduced Jost solution ft_l = (-i)^l f_l.

    Beyond the cutoff node r_c of _cutoff_node, U counts as zero and ft
    is the exact free solution; the sweep starts from r_c with an
    analytic derivative. This holds for every potential, a decaying tail
    included, so no value depends on r_max. Momenta with Im k < 0 are
    admitted while the tail neglected beyond r_c, weighted by
    exp(2 |Im k| (r - r_c)), stays negligible (the analyticity strip of
    the tail).

    For l >= 1 the values stop at the first node and the origin slot is
    set to zero; ft diverges like r^{-l} there and is never needed at
    the origin itself.

    This is the whole grid, for the bound-state wave. The Jost function
    reads ft only on the five-node Wronskian window beyond r_c, where it
    is the free solution and nothing is swept.
    """
    k = _momenta(k)
    vals = _sweep_jost(potential, l, k, grid, 0, grid.n)
    return RadialSolution(grid, l, k, vals, "jost-reduced")


def _cutoff_node(potential: Potential, grid: Grid) -> int:
    """The node r_c beyond which U counts as zero: the cutoff of a
    finite-range potential, else the first node past which the tail
    integral is at most _TAIL_TINY, at most n - 4 so that the Wronskian
    window fits on the grid. suggested_rmax uses the same bound, so a
    default grid reaches past r_c."""
    if potential.cutoff is not None:
        return grid.index_of(potential.cutoff)
    return bisect.bisect_left(
        range(grid.n - 4),
        True,
        key=lambda i: potential.tail_integral(i * grid.h) <= _TAIL_TINY,
    )


def _check_strip(potential: Potential, grid: Grid, m: int, kappa: float) -> None:
    """Refuse Im k = -kappa < 0 outside the analyticity strip of the
    tail. The solution growing like e^{kappa r} lifts the tail neglected
    beyond r_c by up to e^{2 kappa (r - r_c)}; that weighted tail must
    decay over the grid and stay below 1e-9."""
    r = np.linspace(m * grid.h, grid.r_max, 33)
    tail = np.array([potential.tail_integral(x) for x in r])
    leak = tail * np.exp(np.minimum(2.0 * kappa * (r - r[0]), 700.0))
    if (leak[-1] > 0.0 and leak[-1] >= leak[0]) or leak.max() > 1e-9:
        raise SpecError(
            "momenta with Im k < 0 reach outside this potential's "
            f"analyticity strip (tail leakage {leak.max():.1e}); only a "
            "tail decaying faster than exp(2 |Im k| r) admits them"
        )


def _sweep_jost(
    potential: Potential, l: int, k, grid: Grid, lo: int, hi: int
) -> np.ndarray:
    """Values of ft_l on nodes lo..hi, shape (hi - lo + 1, nk).

    The free solution is filled in beyond the cutoff node r_c only on
    the window and at r_c, which seeds the sweep inward, and the inward
    sweep stops at lo. The values are bit-identical to the same nodes
    of the full sweep: Numerov is a recurrence along the sweep, and the
    free solution and w are evaluated node by node.
    """
    if l < 0:
        raise SpecError("l must be a non-negative integer")
    k = _momenta(k)
    k2 = k * k
    if l >= 1 and np.any(k == 0):
        raise SpecError("k = 0 is not meaningful for the Jost solution with l >= 1")
    _check_step(potential, l, k2, grid)
    h, r = grid.h, grid.r()
    m = _cutoff_node(potential, grid)
    im_min = float(np.min(k.imag))
    if im_min < 0:
        _check_strip(potential, grid, m, -im_min)
        # At Im k > 0, ft is the solution that grows inward, which is
        # stable. At Im k < 0 it decays inward, so inside r_c the
        # growing solution can lift rounding by exp(2 |Im k| r_c): in
        # the inward sweep, and in the Wronskian with phi, which grows
        # outward like it.
        factor = math.exp(-2.0 * im_min * r[m])
        if factor > _CONDITION_LIMIT:
            warnings.warn(
                f"Im k < 0 inside the cutoff node r = {r[m]:g} amplifies "
                f"rounding by exp(2 |Im k| r) = {factor:.2e}",
                ConditioningWarning,
                stacklevel=3,
            )

    # vals[j] holds node lo + j; the exact free region starts at node m
    top = max(hi, m)
    vals = np.empty((top - lo + 1, k.size), dtype=complex)
    stop = max(lo, 1 if l >= 1 else 0)
    free = max(m, 1, lo)
    vals[free - lo :] = _free_reduced(l, k, r[free : top + 1])
    if m == 0 and lo == 0:
        vals[0] = 1.0 if l == 0 else 0.0
    # the smooth pieces inside r_c, the last one clipped there
    inner = [(i0, min(i1, m), fn) for i0, i1, fn in _domains(potential, grid) if i0 < m]
    for i0, i1, fn in reversed(inner):
        if i1 <= lo:
            break
        if i1 == m:
            du = _free_reduced_d(l, k, r[m])
        else:
            du = ig.deriv_forward(vals, i1 - lo, h)
        w0, w1, w2 = _sided_w(potential, l, r[i1], -1, k2)
        vals[i1 - 1 - lo] = ig.taylor_step(vals[i1 - lo], du, -h, w0, w1, w2)
        i_lo = max(i0, stop)
        w_rev = _w_block(fn, r[i_lo : i1 + 1], l, k2)[::-1]
        swept = ig.numerov(vals[i1 - lo], vals[i1 - 1 - lo], w_rev, h)
        vals[i_lo - lo : i1 + 1 - lo] = swept[::-1]
    if l >= 1 and lo == 0:
        vals[0] = 0.0
    if not np.all(np.isfinite(vals)):
        raise NumericalError("Jost solution overflowed; momenta too deep for this grid")
    return vals[: hi - lo + 1]


def wronskian(a: np.ndarray, b: np.ndarray, i: int, h: float) -> np.ndarray:
    """W[a, b] = a b' - a' b at node i from five-point stencils."""
    da = ig.deriv_central(a, i, h)
    db = ig.deriv_central(b, i, h)
    return a[i] * db - da * b[i]


def _wronskian_node(potential: Potential, grid: Grid) -> int:
    """Two nodes outside the cutoff node, where ft is the free solution
    and phi is well scaled. A zero-range potential takes the midpoint
    instead, away from the origin where ft diverges for l >= 1."""
    m = _cutoff_node(potential, grid)
    return m + 2 if m > 0 else grid.n // 2


def jost_function(
    potential: Potential,
    l: int,
    k,
    grid: Grid | None = None,
) -> np.ndarray:
    """Jost function F_l(k) for an array of momenta.

    F is normalized to 1 at vanishing potential; F(-k*) = F(k)* holds
    by construction and bound states sit at the zeros on the positive
    imaginary axis.

    Both sweeps stop at the five-node Wronskian window around
    _wronskian_node, just outside the cutoff node: phi is swept out to
    its top, and ft is the free solution there for every potential, so
    F does not depend on r_max. The values are bit-identical to the
    Wronskian of the full-grid solve_regular and solve_jost_reduced.
    """
    if grid is None:
        grid = make_grid(potential)
    k = _momenta(k)
    phi = _sweep_regular(potential, l, k, grid, _wronskian_node(potential, grid) + 2)
    return _jost_from_regular(potential, l, k, grid, phi)


def _jost_from_regular(
    potential: Potential, l: int, k, grid: Grid, phi: np.ndarray
) -> np.ndarray:
    """F_l(k) from regular-solution values phi already swept at momenta
    with the same k^2, so phi swept at k serves F(-k) as well: phi
    depends on k only through k^2, and (-k)^2 equals k^2 exactly. phi
    must reach the top of the Wronskian window, the only nodes of ft
    computed."""
    k = _momenta(k)
    i = _wronskian_node(potential, grid)
    ft = _sweep_jost(potential, l, k, grid, i - 2, i + 2)
    return (-1j * k) ** l * wronskian(ft, phi[i - 2 : i + 3], 2, grid.h)


def regular_and_jost(
    potential: Potential, l: int, k, grid: Grid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi_l(k, r), F_l(k) and F_l(-k), all from one regular sweep; on
    the real axis S_l(k) = F_l(-k) / F_l(k)."""
    k = np.asarray(k)
    phi = solve_regular(potential, l, k, grid).values
    return (
        phi,
        _jost_from_regular(potential, l, k, grid, phi),
        _jost_from_regular(potential, l, -k, grid, phi),
    )


def jost_on_imaginary_axis(
    potential: Potential,
    l: int,
    kappa,
    grid: Grid | None = None,
) -> np.ndarray:
    """F_l(i kappa) as an exactly real array.

    kappa > 0 probes bound states, kappa < 0 probes virtual states
    (inside the analyticity strip of a decaying tail). The
    reduced-solution phases are chosen
    so every intermediate on the imaginary axis is real; the imaginary
    parts discarded here are identically zero, not merely small.
    """
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    f = jost_function(potential, l, 1j * kappa, grid)
    return f.real


def phase_shift(
    potential: Potential,
    l: int,
    k,
    grid: Grid | None = None,
) -> np.ndarray:
    """delta_l(k) = -arg F_l(k) on the real axis, principal value."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    return -np.angle(jost_function(potential, l, k, grid))


def phase_shift_curve(
    potential: Potential,
    l: int,
    k,
    grid: Grid | None = None,
) -> np.ndarray:
    """Phase shift on an increasing momentum grid, unwrapped to a
    continuous curve (the principal value is restored mod 2 pi)."""
    k = np.asarray(k, dtype=float)
    if k.ndim != 1 or k.size < 2 or np.any(np.diff(k) <= 0):
        raise SpecError("phase_shift_curve wants a strictly increasing momentum grid")
    return np.unwrap(phase_shift(potential, l, k, grid))


@dataclass
class PhysicalWave:
    """Scattering solution v_l(k, r) = k^l phi_l / |F_l|, normalized to
    the asymptote sin(k r - l pi/2 + delta_l)/k."""

    grid: Grid
    l: int
    k: np.ndarray
    values: np.ndarray
    jost: np.ndarray
    delta: np.ndarray


def physical_wave(
    potential: Potential,
    l: int,
    k,
    grid: Grid | None = None,
) -> PhysicalWave:
    """Physical scattering wave for real k > 0, batched over momenta."""
    if grid is None:
        grid = make_grid(potential)
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if np.any(k <= 0):
        raise SpecError("physical_wave is defined for real k > 0")
    phi = solve_regular(potential, l, k, grid).values
    fvals = _jost_from_regular(potential, l, k, grid, phi)
    v = (k**l)[None, :] * phi.real
    v /= np.abs(fvals)[None, :]  # in place: one wave-sized array, not two
    return PhysicalWave(grid, l, k, v, fvals, -np.angle(fvals))
