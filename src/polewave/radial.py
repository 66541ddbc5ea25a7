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
from .potentials import Grid, Potential, make_grid

#: inward sweeps that amplify seed noise beyond this factor get a warning
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


def _sweep_regular(potential: Potential, l: int, k, grid: Grid) -> np.ndarray:
    """Values of the regular solution for l >= -1, shape (nodes, nk).

    The first two nodes come from the origin series, the origin itself
    included at l = -1 where the solution does not vanish there.
    """
    k = _momenta(k)
    k2 = k * k
    _check_step(potential, l, k2, grid)
    h, r = grid.h, grid.r()
    seed = _origin_series(potential, l, k2)
    s = 0 if l < 0 else 1
    vals = np.empty((grid.n + 1, k.size), dtype=complex)
    vals[0] = 0.0
    for i0, i1, fn in _domains(potential, grid):
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

    For a potential that vanishes identically beyond its cutoff the
    outer region is filled with the exact free solution and the sweep
    starts from the cutoff with an analytic derivative, so momenta in
    the lower half plane are meaningful there. A potential with only a
    decaying tail is seeded at r_max instead; that admits Im k >= 0
    always, and Im k < 0 only while exp(2 |Im k| r) times the neglected
    tail stays negligible (the analyticity strip of the tail).

    For l >= 1 the values stop at the first node and the origin slot is
    set to zero; ft diverges like r^{-l} there and is never needed at
    the origin itself.
    """
    if l < 0:
        raise SpecError("l must be a non-negative integer")
    k = _momenta(k)
    k2 = k * k
    if l >= 1 and np.any(k == 0):
        raise SpecError("k = 0 is not meaningful for the Jost solution with l >= 1")
    _check_step(potential, l, k2, grid)
    h, r = grid.h, grid.r()
    im_min = float(np.min(k.imag))
    im_max = float(np.max(np.abs(k.imag)))
    vals = np.empty((grid.n + 1, k.size), dtype=complex)
    doms = _domains(potential, grid)

    if potential.cutoff is not None:
        m = grid.index_of(potential.cutoff)
    else:
        if im_min < -1e-12:
            # Seeding the sweep with the free asymptote at r_max neglects
            # the tail beyond it, and for Im k < 0 that error rides on the
            # exponentially growing solution. It stays harmless only while
            # the tail decays faster than exp(2 |Im k| r), i.e. inside the
            # analyticity strip of f(-k, r).
            leak = math.exp(2.0 * abs(im_min) * grid.r_max) * potential.tail_integral(
                grid.r_max
            )
            if leak > 1e-9:
                raise SpecError(
                    "momenta with Im k < 0 reach outside this potential's "
                    f"analyticity strip (tail leakage {leak:.1e}); only a "
                    "tail decaying faster than exp(2 |Im k| r) can seed the "
                    "inward sweep"
                )
        m = grid.n

    # Inside the potential region the two exponential behaviors mix, so
    # seed rounding can be amplified by exp(2 |Im k| r_cut) by the time
    # the sweep reaches the origin. (Outside a decaying tail the sweep
    # only ever amplifies the component it is following, which is safe.)
    if im_max > 0 and potential.cutoff is not None and m > 0:
        factor = math.exp(2.0 * im_max * r[m])
        if factor > _CONDITION_LIMIT:
            warnings.warn(
                f"inward sweep from r = {r[m]:g} amplifies seed rounding by "
                f"exp(2 |Im k| r) = {factor:.2e}",
                ConditioningWarning,
                stacklevel=2,
            )

    stop = 1 if l >= 1 else 0
    if potential.cutoff is None:
        # single smooth domain; seed the top two nodes with the free
        # asymptote (error of order the tail integral beyond r_max)
        if len(doms) != 1:
            raise GridError("a potential without a cutoff must be a single smooth piece")
        i0, i1, fn = doms[0]
        vals[i1 - 1 :] = _free_reduced(l, k, r[i1 - 1 :])
        w = _w_block(fn, r[i0 : i1 + 1], l, k2)
        w_rev = w[stop - i0 :][::-1]
        swept = ig.numerov(vals[i1], vals[i1 - 1], w_rev, h)
        vals[stop : i1 + 1] = swept[::-1]
        if l >= 1:
            vals[0] = 0.0
    else:
        # exact free region beyond the cutoff
        vals[max(m, 1) :] = _free_reduced(l, k, r[max(m, 1) :])
        if m == 0:
            vals[0] = 1.0 if l == 0 else 0.0
        inner = [d for d in doms if d[1] <= m]
        analytic_edge = True
        for i0, i1, fn in reversed(inner):
            if analytic_edge:
                du = _free_reduced_d(l, k, r[i1])
                analytic_edge = False
            else:
                du = ig.deriv_forward(vals, i1, h)
            w0, w1, w2 = _sided_w(potential, l, r[i1], -1, k2)
            vals[i1 - 1] = ig.taylor_step(vals[i1], du, -h, w0, w1, w2)
            lo = max(i0, stop)
            w = _w_block(fn, r[i0 : i1 + 1], l, k2)
            w_rev = w[lo - i0 :][::-1]
            swept = ig.numerov(vals[i1], vals[i1 - 1], w_rev, h)
            vals[lo : i1 + 1] = swept[::-1]
        if l >= 1:
            vals[0] = 0.0
    if not np.all(np.isfinite(vals)):
        raise NumericalError("Jost solution overflowed; momenta too deep for this grid")
    return RadialSolution(grid, l, k, vals, "jost-reduced")


def wronskian(a: np.ndarray, b: np.ndarray, i: int, h: float) -> np.ndarray:
    """W[a, b] = a b' - a' b at node i from five-point stencils."""
    da = ig.deriv_central(a, i, h)
    db = ig.deriv_central(b, i, h)
    return a[i] * db - da * b[i]


def _wronskian_node(potential: Potential, grid: Grid) -> int:
    """A node safely inside one smooth region where both solutions are
    well scaled: just outside the cutoff if there is one, else midway."""
    if potential.cutoff is not None and potential.cutoff > 0:
        return min(grid.index_of(potential.cutoff) + 2, grid.n - 2)
    return max(2, grid.n // 2)


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
    """
    if grid is None:
        grid = make_grid(potential)
    k = _momenta(k)
    return _jost_from_regular(potential, l, k, grid, solve_regular(potential, l, k, grid).values)


def _jost_from_regular(
    potential: Potential, l: int, k, grid: Grid, phi: np.ndarray
) -> np.ndarray:
    """F_l(k) from regular-solution values phi already swept at momenta
    with the same k^2, so phi swept at k serves F(-k) as well: phi
    depends on k only through k^2, and (-k)^2 equals k^2 exactly."""
    k = _momenta(k)
    ft = solve_jost_reduced(potential, l, k, grid)
    w = wronskian(ft.values, phi, _wronskian_node(potential, grid), grid.h)
    return (-1j * k) ** l * w


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

    kappa > 0 probes bound states, kappa < 0 (finite-range potentials
    only) probes virtual states. The reduced-solution phases are chosen
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
    v = (k**l)[None, :] * phi.real / np.abs(fvals)[None, :]
    return PhysicalWave(grid, l, k, v, fvals, -np.angle(fvals))
