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

Each public function derives U on the grid's nodes, the cutoff node and
the Jost window once, as a _Mesh, and every sweep it makes reads them.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

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
#: the imaginary part of the complex step in E = k^2, relative to |E|
_COMPLEX_STEP = 1e-30
#: largest relative Wronskian mismatch of a matched bound state on a
#: fine grid; a wrong alpha reads far above it
_MATCH_TOL = 1e-6


def _momenta(k) -> np.ndarray:
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    if k.ndim != 1:
        raise SpecError("momenta must be a scalar or a 1d array")
    return k


def _squares(k: np.ndarray) -> np.ndarray:
    """k^2 of a batch, in float64 where every k^2 is real: on the real
    and the imaginary axis, mixed or not. The radial equation is real
    there, and the sweeps run in real arithmetic."""
    k2 = k * k
    return k2 if np.any(k2.imag) else k2.real


@dataclass(frozen=True)
class _Mesh:
    """U on the nodes of a grid. domains holds one (i0, i1, U on nodes
    i0..i1) per smooth piece, from that piece's fn, so interface nodes
    are one-sided; u is U on every node, right-continuous. cutoff is the
    node r_c past which U counts as zero: a finite range's cutoff, else
    the first node whose tail integral is at most _TAIL_TINY, at most
    n - 4 so the Jost window fits (as in suggested_rmax). window, its
    centre, is r_c + 2, where ft is free and phi well scaled, or n // 2
    at zero range, away from the origin where ft diverges for l >= 1; F
    sweeps phi to window + 2. Both resolve on first use, so a grid that
    ends inside the well serves every sweep that reads no F."""

    potential: Potential
    grid: Grid
    domains: tuple
    u: np.ndarray

    @cached_property
    def cutoff(self) -> int:
        if self.potential.cutoff is not None:
            return self.grid.index_of(self.potential.cutoff)
        n, h, tail = self.grid.n, self.grid.h, self.potential.tail_integral
        return bisect.bisect_left(range(n - 4), True, key=lambda i: tail(i * h) <= _TAIL_TINY)

    @cached_property
    def window(self) -> int:
        return self.cutoff + 2 if self.cutoff > 0 else self.grid.n // 2


def _mesh(potential: Potential, grid: Grid | None = None) -> _Mesh:
    """The _Mesh of a potential on a grid, by default make_grid's."""
    if grid is None:
        grid = make_grid(potential)
    pieces = potential.pieces()
    edges = {float(e) for p in pieces for e in (p.lo, p.hi) if 0.0 < e < grid.r_max}
    idx = [0] + [grid.index_of(b) for b in sorted(edges)] + [grid.n]
    domains = []
    for i0, i1 in zip(idx[:-1], idx[1:]):
        rmid = 0.5 * (i0 * grid.h + i1 * grid.h)
        fn = next((p.fn for p in pieces if p.lo <= rmid < p.hi), None)
        if fn is None:
            raise GridError(f"no potential piece covers r = {rmid:g}")
        domains.append((i0, i1, np.asarray(fn(np.arange(i0, i1 + 1) * grid.h), dtype=float)))
    u = np.concatenate([v[:-1] for _, _, v in domains] + [domains[-1][2][-1:]])
    return _Mesh(potential, grid, tuple(domains), u)


def _check_step(mesh: _Mesh, k2: np.ndarray, lo: int, hi: int) -> None:
    """Refuse a grid too coarse for the nodes lo..hi that a sweep marches
    (q h <= 0.5 at the largest local momentum q), then one with a piece under 5 nodes."""
    umax = float(np.max(np.abs(mesh.u[lo : hi + 1]), initial=0.0))
    q = math.sqrt(float(np.max(np.abs(k2))) + umax)
    if q * mesh.grid.h > 0.5:
        raise StepSizeError(
            f"grid step h = {mesh.grid.h:g} is too coarse for local momentum {q:.3g} "
            f"(need q h <= 0.5)"
        )
    if any(i1 - i0 < 5 for i0, i1, _ in mesh.domains):
        raise GridError("a smooth piece spans fewer than 5 nodes; refine the grid")


def _w_block(u: np.ndarray, r_sl: np.ndarray, l: int, k2: np.ndarray) -> np.ndarray:
    """w = U + l(l+1)/r^2 - k^2 on a node slice from U there, shape (nodes, nk)."""
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

    values has shape (n_nodes, n_k); its dtype is float64 where every
    k^2 of the batch is real, else complex. A regular solution is
    marched to the top of the Jost window and continued beyond it in
    closed form (_sweep_regular).
    """

    grid: Grid
    l: int
    k: np.ndarray
    values: np.ndarray


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


def _sweep_regular(mesh: _Mesh, l: int, k, top: int | None = None, norm=None) -> np.ndarray:
    """Values of the regular solution for l >= -1 on nodes 0..top
    (default the whole grid), shape (top + 1, nk).

    The first two nodes come from the origin series, the origin itself
    included at l = -1 where the solution does not vanish there. Numerov
    is a forward recurrence, so stopping at top leaves every value it
    does compute bit-identical to the same nodes of a longer sweep. The
    values are float64 where every k^2 is real (_squares), else complex.

    The whole grid is marched only to the top of the Jost window, or
    further at very small |k| (_fill_node); the nodes beyond, where U is
    zero, take the exact free continuation (_free_fill). norm, if given,
    maps the marched values to one factor per momentum that scales them
    and the fill's coefficients, so each node is written once (_wave).
    """
    k = _momenta(k)
    k2 = _squares(k)
    grid = mesh.grid
    whole = top is None
    if whole:
        top = _fill_node(mesh, max(l, 0), k) - 1
    _check_step(mesh, k2, 0, top)
    h, r = grid.h, grid.r()
    seed = _origin_series(mesh.potential, l, k2)
    s = 0 if l < 0 else 1
    vals = np.empty((grid.n + 1 if whole else top + 1, k.size), dtype=k2.dtype)
    vals[0] = 0.0
    for i0, i1, u in mesh.domains:
        if i0 >= top:
            break
        i1 = min(i1, top)
        w = _w_block(u[: i1 - i0 + 1], r[i0 : i1 + 1], l, k2)
        if i0 == 0:
            vals[s] = seed(r[s])
            vals[s + 1] = seed(r[s + 1])
            ig.numerov(vals[s], vals[s + 1], w[s:], h, out=vals[s : i1 + 1])
        else:
            du = ig.deriv_backward(vals, i0, h)
            w0, w1, w2 = _sided_w(mesh.potential, l, r[i0], +1, k2)
            vals[i0 + 1] = ig.taylor_step(vals[i0], du, h, w0, w1, w2)
            ig.numerov(vals[i0], vals[i0 + 1], w, h, out=vals[i0 : i1 + 1])
    f = 1.0 if norm is None else norm(vals[: top + 1])
    if whole and top < grid.n:
        _free_fill(max(l, 0), k, grid, mesh.window, vals, top + 1, f)
    if norm is not None:
        vals[: top + 1] *= f
    if not np.all(np.isfinite(vals)):
        raise NumericalError("regular solution overflowed; reduce r_max or check inputs")
    return vals


#: nodes per block of the free fill
_FILL_BLOCK = 64


def _fill_node(mesh: _Mesh, l: int, k: np.ndarray) -> int:
    """The first node of the free fill of a whole-grid sweep, or n + 1
    for none. It lies past the Jost window, and where the cancellation of
    the fill, eps (|k| r)^{-(2l+1)} at the smallest nonzero |k|, stays
    within the march's own rounding i^{3/2} eps over i nodes (the
    estimate of _rounding): i^{2l + 5/2} >= (|k| h)^{-(2l+1)}. A
    grid that ends inside the range of the potential gets no fill."""
    cutoff, n = mesh.potential.cutoff, mesh.grid.n
    if cutoff is not None and cutoff >= mesh.grid.r_max:
        return n + 1
    kmin = np.min(np.abs(k[k != 0]), initial=np.inf)
    rounding = (kmin * mesh.grid.h) ** (-(2 * l + 1) / (2 * l + 2.5))
    return math.ceil(min(max(mesh.window + 3, rounding), n + 1))


def _free_fill(l: int, k: np.ndarray, grid: Grid, i: int, vals: np.ndarray, s: int, f) -> None:
    """Overwrite nodes s..n of vals with the free solution at l >= 0
    that the values on nodes i - 2..i + 2 belong to, U being zero there,
    times f, one factor per momentum that enters the coefficients.

    The free pair is f_+-(r) = e^{+-ik(r - r_i)} sum_m c_m (+-i / 2kr)^m,
    c_m = (l+m)! / (m! (l-m)!): ft_l(+-k, r) scaled by e^{-+ik r_i}, so
    the coefficients keep the size of the values. phi = a f_+ + b f_-
    with a = W[f_-, phi] / 2ik and b = -W[f_+, phi] / 2ik, read on the
    five nodes around i as F is. At k = 0 the pair is r^{l+1}, r^{-l}.

    That makes phi = sum_m r^{-m} (p_m g_0 + q_m g_1), in the basis
    g = (cos kr', sin kr') at real k and g = (e^{ikr'}, e^{-ikr'})
    elsewhere, r' = r - r_i; both are real where k^2 is, so a float
    sweep stays float. With r' = R + t, R a block start and t < B h the
    offset within a block of B = _FILL_BLOCK nodes, g(R + t) is a 2x2
    transfer of g(R), folded into per-row coefficients. Each row of
    every block is then a product of a block-start table and a row
    table, written in place: evaluating sin, cos or exp on every node
    would cost about as much as marching there. A float sweep builds
    the tables per column, from cos and sin of k r' at real k.
    """
    h, B = grid.h, _FILL_BLOCK
    zero = k == 0
    k = np.where(zero, 1.0, k)
    win = vals[i - 2 : i + 3]
    rw = np.arange(i - 2, i + 3) * h
    f_up = _free_reduced(l, k, rw) * np.exp(-1j * k * rw[2])
    f_dn = _free_reduced(l, -k, rw) * np.exp(1j * k * rw[2])
    a = wronskian(f_dn, win, 2, h) / (2j * k)
    b = -wronskian(f_up, win, 2, h) / (2j * k)
    # the coefficients of r^{-m} e^{+-ikr'}: c_m (+-i / 2k)^m a and b
    m = np.arange(l + 1)[:, None]
    cy = np.array([math.comb(l + j, j) * math.perm(l, j) for j in range(l + 1)])[:, None]
    cy = cy * (0.5j / k) ** m
    p, q = a * cy * f, b * cy * (-1.0) ** m * f
    tail = vals[s:]
    # i k R' at the block starts, then i k t at the offsets within a block
    nb = -(-len(tail) // B)
    at = np.concatenate([(s - i + B * np.arange(nb)) * h, np.arange(B) * h])
    e = np.multiply.outer(at, 1j * k)
    if vals.dtype == complex:
        g0, g1 = np.exp(e[:nb]), np.exp(-e[:nb])
        cp, cq = p[:, None] * np.exp(e[nb:]), q[:, None] * np.exp(-e[nb:])
    else:
        # real k: p cos + q sin, p and q twice the real part and minus
        # twice the imaginary part of the e^{ikr'} coefficients; on the
        # imaginary axis p e^{ikr'} + q e^{-ikr'}, every factor real, with
        # e^{+-ikr'} from the complex exp so it rounds as in a complex
        # sweep (np.exp of a float differs in the last bit)
        rot = k.imag == 0
        p, q = np.where(rot, 2 * p.real, p.real), np.where(rot, -2 * p.imag, q.real)
        c, sn = np.cos(e.imag), np.sin(e.imag)
        c[:, ~rot], sn[:, ~rot] = np.exp(e[:, ~rot]).real, np.exp(-e[:, ~rot]).real
        g0, g1, c, sn = c[:nb], sn[:nb], c[nb:], sn[nb:]
        st = np.where(rot, sn, 0.0)
        cp = p[:, None] * c + q[:, None] * st
        cq = q[:, None] * np.where(rot, c, sn) - p[:, None] * st
    x = 1.0 / grid.r()[s:, None]
    for blk, lo in enumerate(range(0, len(tail), B)):
        dst = tail[lo : lo + B]
        n = len(dst)
        np.multiply(cp[l, :n], g0[blk], out=dst)
        dst += cq[l, :n] * g1[blk]
        for o in range(l - 1, -1, -1):
            dst *= x[lo : lo + n]
            dst += cp[o, :n] * g0[blk]
            dst += cq[o, :n] * g1[blk]
    if zero.any():
        u, v = rw[:, None] ** (l + 1), rw[:, None] ** -l
        r = grid.r()[s:, None]
        tail[:, zero] = (
            wronskian(v, win[:, zero], 2, h) * r ** (l + 1) - wronskian(u, win[:, zero], 2, h) * r**-l
        ) / (2 * l + 1)


def solve_regular(potential: Potential, l: int, k, grid: Grid) -> RadialSolution:
    """The regular solution phi_l(k, r) on the whole grid.

    Seeds the first two nodes from the origin power series
    phi = r^{l+1}/(2l+1)!! (1 + c2 r^2 + c3 r^3 + c4 r^4), then marches
    with Numerov, stepping across potential breakpoints one-sidedly, to
    the top of the Jost window; beyond it, where U is zero, phi is the
    exact free solution with the coefficients read on the window. phi is
    entire in k^2, so every momentum is admitted, Im k < 0 included.
    """
    if l < 0:
        raise SpecError("l must be a non-negative integer")
    k = _momenta(k)
    return RadialSolution(grid, l, k, _sweep_regular(_mesh(potential, grid), l, k))


def _on_imaginary_axis(k: np.ndarray, ft: np.ndarray) -> np.ndarray:
    """ft, as float64 where every k lies on the imaginary axis: ft is
    real there, and the imaginary parts dropped are exact zeros."""
    return ft if np.any(k.real) else ft.real


def _free_reduced(l: int, k: np.ndarray, r_sl: np.ndarray) -> np.ndarray:
    """Reduced free Jost solution i^{l+1} hhat_l^+(k r) on a node slice."""
    z = k[None, :] * r_sl[:, None]
    return _on_imaginary_axis(k, (1j) ** (l + 1) * hhat_plus(l, z))


def _free_reduced_d(l: int, k: np.ndarray, r0: float) -> np.ndarray:
    return _on_imaginary_axis(k, (1j) ** (l + 1) * k * hhat_plus_d(l, k * r0))


def solve_jost_reduced(potential: Potential, l: int, k, grid: Grid) -> RadialSolution:
    """Inward integration of the reduced Jost solution ft_l = (-i)^l f_l.

    Beyond the cutoff node r_c (_Mesh), U counts as zero and ft
    is the exact free solution; the sweep starts from r_c with an
    analytic derivative. This holds for every potential, a decaying tail
    included, so no value depends on r_max. Momenta with Im k < 0 are
    admitted while the tail neglected beyond r_c, weighted by
    exp(2 |Im k| (r - r_c)), stays negligible (the analyticity strip of
    the tail).

    For l >= 1 the values stop at the first node and the origin slot is
    set to zero; ft diverges like r^{-l} there and is never needed at
    the origin itself.

    This is the whole grid, the reference the windowed sweeps are
    checked against. The Jost function reads ft only on the five-node
    Wronskian window beyond r_c, where it is the free solution, and a
    bound state sweeps it in only to its match node (_matched_state).
    """
    k = _momenta(k)
    return RadialSolution(grid, l, k, _sweep_jost(_mesh(potential, grid), l, k, 0))


def _check_strip(mesh: _Mesh, kappa: float) -> None:
    """Refuse Im k = -kappa < 0 outside the analyticity strip of the
    tail. The solution growing like e^{kappa r} lifts the tail neglected
    beyond r_c by up to e^{2 kappa (r - r_c)}; that weighted tail must
    decay over the grid and stay below 1e-9."""
    r = np.linspace(mesh.cutoff * mesh.grid.h, mesh.grid.r_max, 33)
    tail = np.array([mesh.potential.tail_integral(x) for x in r])
    leak = tail * np.exp(np.minimum(2.0 * kappa * (r - r[0]), 700.0))
    if (leak[-1] > 0.0 and leak[-1] >= leak[0]) or leak.max() > 1e-9:
        raise SpecError(
            "momenta with Im k < 0 reach outside this potential's "
            f"analyticity strip (tail leakage {leak.max():.1e}); only a "
            "tail decaying faster than exp(2 |Im k| r) admits them"
        )


def _check_jost(mesh: _Mesh, l: int, k: np.ndarray) -> None:
    """The refusals of the Jost solution ft_l at momenta k, and the
    warning where rounding inside the cutoff node grows past
    _CONDITION_LIMIT."""
    if l < 0:
        raise SpecError("l must be a non-negative integer")
    if l >= 1 and np.any(k == 0):
        raise SpecError("k = 0 is not meaningful for the Jost solution with l >= 1")
    im_min = float(np.min(k.imag))
    if im_min < 0:
        _check_strip(mesh, -im_min)
        # At Im k > 0, ft is the solution that grows inward, which is
        # stable. At Im k < 0 it decays inward, so inside r_c the
        # growing solution can lift rounding by exp(2 |Im k| r_c): in
        # the inward sweep, and in the Wronskian with phi, which grows
        # outward like it.
        m, h = mesh.cutoff, mesh.grid.h
        factor = math.exp(-2.0 * im_min * m * h)
        if factor > _CONDITION_LIMIT:
            warnings.warn(
                f"Im k < 0 inside the cutoff node r = {m * h:g} amplifies "
                f"rounding by exp(2 |Im k| r) = {factor:.2e}",
                ConditioningWarning,
                stacklevel=4,
            )


def _sweep_jost(mesh: _Mesh, l: int, k, lo: int) -> np.ndarray:
    """Values of ft_l on nodes lo..n, shape (n - lo + 1, nk).

    The free solution is filled in from the cutoff node r_c on, and the
    inward sweep from r_c stops at lo. The values are bit-identical to
    the same nodes of the full sweep: Numerov is a recurrence along the
    sweep, and the free solution and w are evaluated node by node.

    On the imaginary axis ft is real and so are the values
    (_on_imaginary_axis); elsewhere they are complex.
    """
    k = _momenta(k)
    k2 = _squares(k)
    _check_jost(mesh, l, k)
    grid, m = mesh.grid, mesh.cutoff
    h, r = grid.h, grid.r()
    _check_step(mesh, k2, lo, m)
    stop = max(lo, 1 if l >= 1 else 0)
    free = max(m, 1, lo)
    ft = _free_reduced(l, k, r[free:])
    # vals[j] holds node lo + j; the exact free region starts at node m
    vals = np.empty((grid.n - lo + 1, k.size), dtype=ft.dtype)
    vals[free - lo :] = ft
    if m == 0 and lo == 0:
        vals[0] = 1.0 if l == 0 else 0.0
    # the smooth pieces inside r_c, the last one clipped there
    inner = [(i0, min(i1, m), u) for i0, i1, u in mesh.domains if i0 < m]
    for i0, i1, u in reversed(inner):
        if i1 <= lo:
            break
        if i1 == m:
            du = _free_reduced_d(l, k, r[m])
        else:
            du = ig.deriv_forward(vals, i1 - lo, h)
        w0, w1, w2 = _sided_w(mesh.potential, l, r[i1], -1, k2)
        vals[i1 - 1 - lo] = ig.taylor_step(vals[i1 - lo], du, -h, w0, w1, w2)
        i_lo = max(i0, stop)
        w_rev = _w_block(u[i_lo - i0 : i1 + 1 - i0], r[i_lo : i1 + 1], l, k2)[::-1]
        into = vals[i_lo - lo : i1 + 1 - lo][::-1]
        ig.numerov(vals[i1 - lo], vals[i1 - 1 - lo], w_rev, h, out=into)
    if l >= 1 and lo == 0:
        vals[0] = 0.0
    if not np.all(np.isfinite(vals)):
        raise NumericalError("Jost solution overflowed; momenta too deep for this grid")
    return vals


def wronskian(a: np.ndarray, b: np.ndarray, i: int, h: float) -> np.ndarray:
    """W[a, b] = a b' - a' b at node i from five-point stencils."""
    da = ig.deriv_central(a, i, h)
    db = ig.deriv_central(b, i, h)
    return a[i] * db - da * b[i]


def jost_function(
    potential: Potential,
    l: int,
    k,
    grid: Grid | None = None,
) -> np.ndarray:
    """Jost function F_l(k) for an array of momenta.

    F is normalized to 1 at vanishing potential; F(-k*) = F(k)* holds
    by construction and bound states sit at the zeros on the positive
    imaginary axis. F is read on the Jost window (see _jost), so it
    does not depend on r_max.
    """
    k = _momenta(k)
    return _jost(_mesh(potential, grid), l, l, k)


def _jost(mesh: _Mesh, l_out: int, l: int, k, minus: bool = False):
    """F_l(k), and with minus the pair F_l(k), F_l(-k), from one sweep of
    the outward solution at l_out (l in 3D; -1 even, 0 odd on the line,
    where F_0 is f'(k, 0) resp. f(k, 0) up to sign).

    The Wronskian is read on the Jost window, the five nodes around
    mesh.window just outside the cutoff node, where ft is the free
    solution for every potential; the outward solution is swept out to
    the window's top and no further. The values are bit-identical to
    the Wronskian of full-grid sweeps at the same momenta.
    """
    phi = _sweep_regular(mesh, l_out, k, mesh.window + 2)
    f = _jost_from_regular(mesh, l, k, phi)
    return (f, _jost_from_regular(mesh, l, -np.asarray(k), phi)) if minus else f


def _jost_from_regular(mesh: _Mesh, l: int, k, phi: np.ndarray) -> np.ndarray:
    """F_l(k) from outward-solution values phi already swept at momenta
    with the same k^2, so phi swept at k serves F(-k) as well: phi
    depends on k only through k^2, and (-k)^2 equals k^2 exactly. phi
    must reach the top of the Jost window, where ft is the free
    solution."""
    k = _momenta(k)
    _check_jost(mesh, l, k)
    i, h = mesh.window, mesh.grid.h
    ft = _free_reduced(l, k, np.arange(i - 2, i + 3) * h)
    return (-1j * k) ** l * wronskian(ft, phi[i - 2 : i + 3], 2, h)


def _rounding(a: np.ndarray, b: np.ndarray, n: int, h: float) -> np.ndarray:
    """The rounding of wronskian(a, b, 2, h) on the Jost window, for b
    swept out over n nodes.

    The Wronskian is the difference of a b' and a' b, which cancel near a
    zero of F, so their magnitudes set the scale. The rounding of a
    two-step recurrence like Numerov's grows statistically like
    n^{3/2} eps over n nodes (P. Henrici, Discrete Variable Methods in
    Ordinary Differential Equations, Wiley 1962)."""
    terms = np.abs(a[2] * ig.deriv_central(b, 2, h)) + np.abs(ig.deriv_central(a, 2, h) * b[2])
    return n**1.5 * np.finfo(float).eps * terms


def _jost_derivative(mesh: _Mesh, l: int, k):
    """dF_l/dk at momenta k != 0 on the real or the imaginary axis, and
    its rounding (_rounding), by a complex step in E = k^2 (W. Squire,
    G. Trapp, SIAM Review 40, 110 (1998)): phi is real for real E and
    analytic in E, so one sweep to the Jost window at kc = sqrt(E + i eps)
    gives phi = Re phi(kc) and dphi/dE = Im phi(kc) / Im kc^2 with no step
    error. Then dF/dk = 2k (-ik)^l (W[a, phi] + W[ft, dphi/dE]), with
    a = i^{l+1} (l hhat_l(kr) + kr hhat_l'(kr)) / 2E = d(k^l ft)/dE / k^l,
    is the exact derivative of the F of _jost_from_regular; every factor
    is real on the imaginary axis, where dF/dk is then exactly imaginary.
    """
    k = _momenta(k)
    e = k * k
    if np.any(k == 0) or np.any(e.imag):
        raise SpecError("the Jost derivative needs k != 0 on the real or the imaginary axis")
    _check_jost(mesh, l, k)
    e = e.real
    kc = np.sqrt(e + 1j * _COMPLEX_STEP * np.abs(e))
    i, h = mesh.window, mesh.grid.h
    swept = _sweep_regular(mesh, l, kc, i + 2)[i - 2 :]
    phi, dphi = swept.real, swept.imag / (kc * kc).imag
    r = np.arange(i - 2, i + 3) * h
    z = k[None, :] * r[:, None]
    ft = _free_reduced(l, k, r)
    a = (1j) ** (l + 1) * (l * hhat_plus(l, z) + z * hhat_plus_d(l, z))
    a = _on_imaginary_axis(k, a) / (2 * e)
    c = _on_imaginary_axis(k, (-1j * k) ** l)
    w = wronskian(a, phi, 2, h) + wronskian(ft, dphi, 2, h)
    rounding = _rounding(a, phi, i + 3, h) + _rounding(ft, dphi, i + 3, h)
    return 2 * k * (c * w), 2 * np.abs(k * c) * rounding


def _regular_and_jost(mesh: _Mesh, l_out: int, l: int, k):
    """The outward solution at l_out on the whole grid (marched to the
    Jost window, free beyond it), with F_l(k) and F_l(-k) read from it
    on the window."""
    phi = _sweep_regular(mesh, l_out, k)
    f = _jost_from_regular(mesh, l, k, phi)
    return phi, f, _jost_from_regular(mesh, l, -np.asarray(k), phi)


def _wave(mesh: _Mesh, l_out: int, l: int, k: np.ndarray, scale):
    """The whole-grid outward solution at l_out times scale(F_l), and F_l,
    read on the Jost window of the march before the fill continues it."""
    jost = []

    def norm(phi):
        jost.append(_jost_from_regular(mesh, l, k, phi))
        return scale(jost[0])

    return _sweep_regular(mesh, l_out, k, norm=norm), jost[0]


def _matched_state(mesh: _Mesh, l_out: int, l: int, alpha: float) -> np.ndarray:
    """The bound-state function at k = i alpha with unit tail coefficient,
    by outward/inward matching (J. W. Cooley, Math. Comp. 15, 363 (1961)).

    The regular solution at l_out (l in 3D; -1 even, 0 odd on the line)
    is swept out from the origin and ft_l in from the cutoff node, each
    the way it grows, to the outer classical turning point t: the
    outermost node inside r_c where U + l(l+1)/r^2 + alpha^2 < 0. u is
    ft from t on and phi ft(t) / phi(t) inside. alpha is refused unless
    the relative Wronskian |W| / (|ft phi'| + |ft' phi| + q |ft phi|) at
    t is within _MATCH_TOL, or on a grid too coarse for that, (q h)^4,
    for the local momentum q of _check_step. The q term keeps the measure
    finite where both log-derivatives nearly vanish at t, as they do near
    the edge of a square well whose state lies close to threshold.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise SpecError("alpha must be a positive real number")
    k = np.array([1j * alpha])
    grid, m = mesh.grid, mesh.cutoff
    h, r, pot_r = grid.h, grid.r()[1 : m + 1], mesh.u[1 : m + 1]
    allowed = np.flatnonzero(pot_r + l * (l + 1) / r**2 + alpha**2 < 0)
    # both five-node stencils stay on the grid
    t = min(max(int(allowed[-1]) + 1 if allowed.size else 0, 2), grid.n - 2)
    phi = _sweep_regular(mesh, l_out, k, t + 2)[:, 0]
    ft = _sweep_jost(mesh, l, k, t - 2)[:, 0]
    a, b = ft[2] * ig.deriv_central(phi, t, h), ig.deriv_central(ft, 2, h) * phi[t]
    q2 = np.max(np.abs(pot_r), initial=0.0) + alpha**2
    # at a true state this is the truncation error of the two sweeps
    mismatch = abs(a - b) / (abs(a) + abs(b) + math.sqrt(q2) * abs(ft[2] * phi[t]))
    if not mismatch <= max(_MATCH_TOL, (q2 * h * h) ** 2):
        raise NumericalError(
            f"alpha = {alpha:.12g} is not a bound state: the outward and inward "
            f"solutions do not match at r = {t * h:g} (relative Wronskian {mismatch:.2e})"
        )
    return np.concatenate([phi[:t] * (ft[2] / phi[t]), ft[2:]])


def _condition(mesh: _Mesh, l_out: int, l: int, sign: float):
    """The real bound-state condition kappa -> sign F_l(i kappa), read
    off the outward solution at l_out (_jost): F_l in 3D, row (l, +1);
    f(i kappa, 0) = F_0 (0, +1) and f'(i kappa, 0) = -F_0 (-1, -1) on
    the line."""

    def condition(kappa):
        k = 1j * np.atleast_1d(np.asarray(kappa, dtype=float))
        return sign * _jost(mesh, l_out, l, k).real

    return condition


def _counted_condition(mesh: _Mesh, l_out: int, l: int, sign: float):
    """kappa -> (sign F_l(i kappa), the number of bound states with
    alpha > kappa), both from the one sweep of the outward solution at
    l_out that _condition makes, for a batch of kappa > 0.

    The count is Sturm's oscillation count (J. D. Pryce, Numerical
    Solution of Sturm-Liouville Problems, Oxford 1993): the states
    deeper than E = -kappa^2 are the zeros of the outward solution on
    r > 0. Up to the window's top they are its sign changes from its
    first nonzero node (node 0 at l_out = -1, node 1 otherwise). Beyond
    it the solution is a ft + b gt with ft decaying, and it crosses zero
    once more exactly where its sign at the top differs from the sign of
    b, which is that of the raw F = W[ft, phi] at the window. signbit
    makes an exact zero at a node count once. The count equals the
    continuous one while h resolves the local wavelength, which
    _check_step enforces.
    """

    def counted(kappa):
        k = 1j * np.atleast_1d(np.asarray(kappa, dtype=float))
        phi = _sweep_regular(mesh, l_out, k, mesh.window + 2)
        f = _jost_from_regular(mesh, l, k, phi).real
        s = np.signbit(phi[0 if l_out < 0 else 1 :])
        nodes = np.count_nonzero(s[1:] != s[:-1], axis=0)
        return sign * f, nodes + (np.signbit(f) != s[-1])

    return counted


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
    """Physical scattering wave for real k > 0, batched over momenta.

    The regular solution is marched to the top of the Jost window, where
    F is read; beyond it the wave is the exact free solution with phase
    shift delta in closed form, both written at the scale k^l / |F|."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if np.any(k <= 0):
        raise SpecError("physical_wave is defined for real k > 0")
    if l < 0:
        raise SpecError("l must be a non-negative integer")
    mesh = _mesh(potential, grid)
    v, fvals = _wave(mesh, l, l, k, lambda f: k**l / np.abs(f))
    return PhysicalWave(mesh.grid, l, k, v, fvals, -np.angle(fvals))
