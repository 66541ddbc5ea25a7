"""Scattering on the line for an even potential, U(-x) = U(x).

Symmetry splits the problem into even and odd channels with their own
phase shifts,

    v_plus(k, x)  -> cos(k x + delta_plus),
    v_minus(k, x) -> -sin(k x + delta_minus),

and their own S matrices built from the half-line Jost solution
f(k, x) -> e^{ikx}: S_plus = -f'(-k, 0)/f'(k, 0) from the vanishing
derivative at the origin, S_minus = f(-k, 0)/f(k, 0) from the vanishing
value. The odd channel is the three-dimensional s-wave problem in
disguise; the even channel is genuinely one-dimensional, with the
threshold anomaly delta_plus(0) = pi/2 for any potential that does not
hold a zero-energy even state. Its outward solution, y(0) = 1 and
y'(0) = 0, is still the radial regular solution, taken at l = -1:
r^{l+1} = 1, (-1)!! = 1 and the centrifugal term vanishes. So both
channels are swept by the radial code, and both bound-state searches
use the radial root finder.

The pole relation here reads

    lim_{k -> i alpha} (1/k) sqrt(alpha (alpha^2 + k^2)) v(k, x)
        = u_alpha(x)

for both parities, with u_alpha normalized over the whole line. The
extrapolant in t = k^2 is sqrt(alpha (alpha^2 + t)) y(t, x) / sqrt(W(t))
(times the parity's asymptotic sign), where y is the outward parity
solution and W(t) = t y(X)^2 + y'(X)^2 its asymptotic strength at the
matching point; W is entire in t and equals the product of origin Jost
data on both momentum half-axes, so the same branch bookkeeping as in
the three-dimensional module applies, through the same sign probe of
the parity condition just below the pole.

Bound states are zeros of the parity conditions on the imaginary axis:
f'(i alpha, 0) = 0 (even), f(i alpha, 0) = 0 (odd). The convention for
stored bound states keeps the raw e^{-alpha x} tail coefficient at 1
and records the constant N that makes N u unit-normalized over the
line, so N is also the asymptotic normalization constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _integrate as ig
from .errors import NoBoundStateError, SpecError
from .potentials import Grid, Potential, make_grid
from .poletheorem import (
    ExtrapolantSamples,
    PoleComparison,
    PoleExtrapolation,
    ResidueEstimate,
    _branch_sign,
    _compare,
    _extrapolant,
    _ladder_residue,
    _sample_window,
    extrapolate_to_pole,
)
from .radial import _jost, _matched_state, _regular_and_jost, _sweep_regular
from .spectrum import _regula_falsi, _scan_roots, decay_tail_integral

#: the l of the regular solution that is each parity's outward solution
_L_OUT = {"even": -1, "odd": 0}


@dataclass(frozen=True)
class Potential1D:
    """An even potential on the line, stored through its x >= 0 half.

    Any radial potential model doubles as the half profile; evenness is
    structural, so only the half-line is ever evaluated. The cusp an
    exponential profile acquires at x = 0 under even reflection is
    harmless: integration never crosses the origin.
    """

    half: Potential

    def __call__(self, x):
        return self.half(np.abs(np.asarray(x, dtype=float)))

    def length_scale(self) -> float:
        """The range parameter, for momentum windows stated in units of
        the inverse range."""
        a = getattr(self.half, "radius", None)
        if a is None:
            a = self.half.cutoff
        if not a or not math.isfinite(a) or a <= 0:
            return 1.0
        return float(a)


def _check_parity(parity: str) -> str:
    if parity not in _L_OUT:
        raise SpecError(f"parity must be one of {tuple(_L_OUT)}, got {parity!r}")
    return parity


@dataclass
class ParitySolution:
    """A real scattering solution of definite parity on x >= 0.

    values carry unit asymptotic amplitude, following the asymptotic
    forms cos(k x + delta) for even and -sin(k x + delta) for odd; the
    seed y(0) = 1 resp. y'(0) = 1 fixes the overall sign, and with it
    the branch of delta mod 2 pi.
    """

    grid: Grid
    parity: str
    k: np.ndarray
    values: np.ndarray
    delta: np.ndarray


def solve_parity(p: Potential1D, parity: str, k, grid: Grid | None = None) -> ParitySolution:
    """Scattering solution of one parity for real k > 0.

    The parity solution is the radial regular solution at l = -1 or 0:
    marched out from the parity seed to the top of the Jost window and
    continued beyond it as the exact free solution. Amplitude and phase
    are matched to the free asymptote at the outermost grid node.
    """
    _check_parity(parity)
    if grid is None:
        grid = make_grid(p.half)
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if np.any(k <= 0):
        raise SpecError("solve_parity wants real k > 0")
    y = _sweep_regular(p.half, _L_OUT[parity], k, grid)
    x_top = grid.r_max
    y_top = y[-1]
    dy_top = ig.deriv_backward(y, grid.n, grid.h)
    if parity == "even":
        # y -> A cos(k x + delta): phase from (y, -y'/k)
        phase = np.arctan2(-dy_top, k * y_top) - k * x_top
    else:
        # y -> B sin(k x + delta): the stored solution flips to -sin
        phase = np.arctan2(k * y_top, dy_top) - k * x_top
    delta = np.angle(np.exp(1j * phase))
    amp = np.hypot(y_top, dy_top / k)
    vals = y / amp[None, :]
    if parity == "odd":
        vals = -vals
    return ParitySolution(grid, parity, k, vals, delta)


def smatrix_1d(p: Potential1D, parity: str, k, grid: Grid | None = None) -> np.ndarray:
    """S matrix of one parity channel.

    S_plus(k) = -f'(-k, 0) / f'(k, 0), S_minus(k) = f(-k, 0) / f(k, 0);
    unimodular for real k, simple poles at the bound states.
    """
    _check_parity(parity)
    if grid is None:
        grid = make_grid(p.half)
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    f_up, f_dn = _jost(p.half, _L_OUT[parity], 0, k, grid, minus=True)
    s = f_dn / f_up
    return -s if parity == "even" else s


def _parity_condition(p: Potential1D, parity: str, kappa, grid: Grid) -> np.ndarray:
    """The real bound-state condition on the imaginary axis:
    f'(i kappa, 0) for even, f(i kappa, 0) for odd.

    The Jost function read off the parity solution y is the Wronskian
    W[ft_0, y], which is constant and equals -f'(k, 0) (even) resp.
    f(k, 0) (odd) at the origin; the odd one is F_0(k) itself."""
    k = 1j * np.atleast_1d(np.asarray(kappa, dtype=float))
    w = _jost(p.half, _L_OUT[parity], 0, k, grid).real
    return -w if parity == "even" else w


@dataclass
class BoundState1D:
    """A bound state on the line, stored on x >= 0.

    u keeps the raw tail convention u -> e^{-alpha x}; norm_constant is
    the N with 2 integral_0^inf (N u)^2 dx = 1, so N u is the unit-norm
    state of Eq-style full-line normalization and N doubles as the
    asymptotic normalization constant.
    """

    grid: Grid
    parity: str
    alpha: float
    u: np.ndarray
    norm_constant: float

    @property
    def energy(self) -> float:
        return -self.alpha**2

    def unit_norm(self) -> np.ndarray:
        return self.norm_constant * self.u


def find_bound_1d(
    p: Potential1D,
    parity: str,
    grid: Grid | None = None,
) -> list[BoundState1D]:
    """All bound states of one parity, deepest first.

    Scans the parity condition along the imaginary axis and refines
    each sign change, with the root finder of the radial bound-state
    search.
    """
    _check_parity(parity)
    if grid is None:
        grid = make_grid(p.half)

    def condition(kappa):
        return _parity_condition(p, parity, kappa, grid)

    roots = _scan_roots(p.half, grid, condition)
    return [build_bound_1d(p, parity, a, grid) for a in roots]


def build_bound_1d(p: Potential1D, parity: str, alpha: float, grid: Grid) -> BoundState1D:
    """Construct the bound state at a known alpha of the given parity:
    the parity solution matched to the half-line Jost solution at the
    outer turning point, refused unless the two match."""
    u = _matched_state(p.half, _L_OUT[_check_parity(parity)], 0, alpha, grid)
    body = float(ig.simpson(u**2, grid.h))
    tail = decay_tail_integral(0, alpha, grid.r_max)
    n_const = 1.0 / math.sqrt(2.0 * (body + tail))
    return BoundState1D(grid, parity, alpha, u, n_const)


def ground_state_1d(p: Potential1D, parity: str, grid: Grid | None = None) -> BoundState1D:
    states = find_bound_1d(p, parity, grid)
    if not states:
        raise NoBoundStateError(f"no {parity} bound state for this potential")
    return states[0]


def extrapolant_samples_1d(
    p: Potential1D,
    parity: str,
    alpha: float,
    grid: Grid,
    *,
    n_samples: int = 6,
    spacing: float = 0.0005,
    mode: str = "near",
) -> ExtrapolantSamples:
    """Samples of the one-dimensional extrapolant in t = k^2.

    h(t, x) = sigma * (+-) sqrt(alpha (alpha^2 + t)) y(t, x) / sqrt(W(t)),
    with y the outward parity solution and the channel strength

        W_even(t) = f'(k, 0) f'(-k, 0),    W_odd(t) = f(k, 0) f(-k, 0),

    which equals t y(X)^2 + y'(X)^2 by the Wronskian of f(k) with f(-k)
    but, unlike that asymptotic form, involves no cancellation between
    exponentially large terms near a pole. The (+-) is the asymptotic
    sign of the parity wave (plus for cos, minus for -sin), and sigma
    the sign of the parity condition just below the pole, the
    one-dimensional counterpart of the radial branch probe: with it the
    pole limit is +u_alpha (full-line normalized) for every parity and
    every depth. W is entire in t, so "near" mode samples
    t_j = -alpha^2 (1 - spacing j) directly on the bound-state side;
    "real" mode samples scattering energies t_j = + spacing j alpha^2.
    Reuses the radial fitting machinery downstream (l is stored as 0).
    """
    _check_parity(parity)
    t, k = _sample_window(alpha, n_samples, spacing, mode)
    y, f_up, f_dn = _regular_and_jost(p.half, _L_OUT[parity], 0, k, grid)
    w = (f_up * f_dn).real
    sigma = _branch_sign(lambda kappa: _parity_condition(p, parity, kappa, grid), alpha)
    asym = 1.0 if parity == "even" else -1.0
    return _extrapolant(grid, 0, alpha, t, y, w, sigma, asym * np.sqrt(alpha * (alpha**2 + t)))


def compare_to_bound_1d(extrapolation: PoleExtrapolation, state: BoundState1D) -> PoleComparison:
    """Residual profile of the extrapolated wave against +N u, the
    unit-norm bound state of the same parity, with the windowing and
    node floor of the radial comparison."""
    return _compare(extrapolation, state, state.unit_norm())


def pole_extrapolate_1d(
    p: Potential1D,
    parity: str,
    state: BoundState1D,
    grid: Grid | None = None,
    *,
    n_samples: int = 6,
    spacing: float = 0.0005,
    mode: str = "near",
    order: int = 2,
) -> tuple[PoleExtrapolation, PoleComparison]:
    """Sample, fit, and compare in one call; the 1D headline check."""
    if grid is None:
        grid = state.grid
    samples = extrapolant_samples_1d(
        p, parity, state.alpha, grid, n_samples=n_samples, spacing=spacing, mode=mode
    )
    ext = extrapolate_to_pole(samples, order=order)
    return ext, compare_to_bound_1d(ext, state)


def residue_prediction_1d(parity: str, norm_constant: float) -> complex:
    """Residue of the parity S matrix at k = i alpha: +2i N^2 for the
    even channel (from the pole parametrization of S_plus with positive
    residue strength), -2i N^2 for the odd channel (the s-wave radial
    identity with the full-line N absorbing a factor 2)."""
    _check_parity(parity)
    sgn = 1.0 if parity == "even" else -1.0
    return sgn * 2j * norm_constant**2


def pole_residue_1d(
    p: Potential1D,
    parity: str,
    alpha: float,
    grid: Grid,
) -> ResidueEstimate:
    """Residue of the parity S matrix at k = i alpha, by Richardson
    extrapolation of (k - i alpha) S(k) along the imaginary axis.

    Needs the lower-half-plane Jost data, which the radial solver
    refuses outside the analyticity strip of a decaying tail."""
    _check_parity(parity)
    value, err = _ladder_residue(
        alpha, lambda kappa: (kappa - alpha) * smatrix_1d(p, parity, 1j * kappa, grid).real
    )
    return ResidueEstimate(value, math.sqrt(abs(value) / 2.0), "imaginary_axis", err)


@dataclass
class ZeroEnergyPhase:
    """delta_plus extrapolated to k = 0.

    threshold_alpha is None in the generic case; when an even state
    sits at (or numerically indistinguishable from) zero binding, the
    pi/2 law does not apply and the offending alpha is recorded here
    instead of asserting anything about the limit.
    """

    delta0: float
    samples_k: np.ndarray
    samples_delta: np.ndarray
    threshold_alpha: float | None


def zero_energy_phase(p: Potential1D, grid: Grid | None = None) -> ZeroEnergyPhase:
    """The one-dimensional threshold law delta_plus(0) = pi/2.

    Fits a quadratic through delta_plus at k = {0.02, 0.04, 0.06} in
    units of the inverse range and evaluates it at k = 0. A zero-energy
    even bound state is the documented exception; it is detected by a
    sign change (or collapse) of the even condition f'(i kappa, 0) just
    above kappa = 0 and reported rather than asserted away.
    """
    if grid is None:
        grid = make_grid(p.half)
    scale = p.length_scale()
    k_lo, k_hi = 1e-3 / scale, 0.1 / scale

    def even(kappa):
        return _parity_condition(p, "even", kappa, grid)

    c = even(np.array([k_lo, k_hi]))
    threshold = None
    # linear extrapolation of the even condition to kappa = 0: a state
    # at (or crossing) threshold makes it vanish there
    c_zero = c[0] - k_lo * (c[1] - c[0]) / (k_hi - k_lo)
    if c[0] * c[1] < 0.0:
        threshold = float(_regula_falsi(even, [k_lo], [k_hi], [c[0]], [c[1]])[0])
    elif abs(c_zero) < 1e-3 * max(abs(c[0]), abs(c[1])):
        threshold = 0.0
    ks = np.array([0.02, 0.04, 0.06]) / scale
    deltas = solve_parity(p, "even", ks, grid).delta
    deltas = np.unwrap(deltas)
    coef = np.polyfit(ks, deltas, 2)
    return ZeroEnergyPhase(float(np.polyval(coef, 0.0)), ks, deltas, threshold)
