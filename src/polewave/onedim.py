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
hold a zero-energy even state.

Each channel is one row (l_out, sign) over the radial code (_CHANNEL).
Its outward solution y is the radial regular solution at l_out: l = 0
odd, and l = -1 even, where y(0) = 1, y'(0) = 0 since r^{l+1} = 1,
(-1)!! = 1 and the centrifugal term vanishes. W = W[ft_0, y], read on
the Jost window as F_0 is, is sign times the channel's origin Jost
datum: f(k, 0) odd, f'(k, 0) even. The search, the bound-state
builder, the pole sampler and the wave's scale and phase are the
radial ones given the row.

The pole relation reads

    lim_{k -> i alpha} (1/k) sqrt(alpha (alpha^2 + k^2)) v(k, x) = u_alpha(x)

for both parities, with u_alpha normalized over the whole line, on the
radial branch bookkeeping (extrapolant_samples_1d). Bound states are
the zeros of the channel conditions f'(i alpha, 0) (even) and
f(i alpha, 0) (odd). Stored bound states keep the raw e^{-alpha x}
tail coefficient at 1 and record the constant N that makes N u
unit-normalized over the line, so N is also the asymptotic
normalization constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .potentials import Grid, Potential
from .poletheorem import (
    ExtrapolantSamples,
    PoleComparison,
    PoleExtrapolation,
    ResidueEstimate,
    _compare,
    _ladder_residue,
    _samples,
    extrapolate_to_pole,
)
from .radial import _condition, _jost, _mesh, _Mesh, _wave
from .spectrum import _normalised, _regula_falsi, _scan_roots

#: each parity's channel row (l_out, sign): the l of the regular solution
#: that is its outward solution y, and the sign that turns F_0 = W[ft_0, y]
#: into its origin Jost datum, f(k, 0) odd and f'(k, 0) even
_CHANNEL = {"even": (-1, -1.0), "odd": (0, 1.0)}


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


def _channel(parity: str) -> tuple[int, float]:
    if parity not in _CHANNEL:
        raise SpecError(f"parity must be one of {tuple(_CHANNEL)}, got {parity!r}")
    return _CHANNEL[parity]


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

    The parity solution is the radial regular solution y at l_out = -1
    or 0, marched out from the parity seed to the top of the Jost window
    and continued beyond it as the exact free solution. Its scale and
    phase come from W = W[ft_0, y] on the Jost window, as the radial
    physical wave's come from F: y -> |W| / k cos(k x + delta) (even)
    and |W| / k sin(k x + delta) (odd), with delta = -arg((-ik)^l_out W).
    So neither depends on r_max. y is written once, at its final scale
    -sign k / |W| (_wave).
    """
    l_out, sign = _channel(parity)
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if np.any(k <= 0):
        raise SpecError("solve_parity wants real k > 0")
    mesh = _mesh(p.half, grid)
    y, w = _wave(mesh, l_out, 0, k, lambda w: -sign * k / np.abs(w))
    return ParitySolution(mesh.grid, parity, k, y, -np.angle((-1j * k) ** l_out * w))


def smatrix_1d(p: Potential1D, parity: str, k, grid: Grid | None = None) -> np.ndarray:
    """S matrix of one parity channel.

    S_plus(k) = -f'(-k, 0) / f'(k, 0), S_minus(k) = f(-k, 0) / f(k, 0);
    unimodular for real k, simple poles at the bound states.
    """
    l_out, sign = _channel(parity)
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    f_up, f_dn = _jost(_mesh(p.half, grid), l_out, 0, k, minus=True)
    return sign * (f_dn / f_up)


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

    The radial bound-state search given the channel row: the channel
    condition, f'(i kappa, 0) even and f(i kappa, 0) odd, along the
    imaginary axis, with every state bracketed by the Sturm count of the
    parity solution y (nodes from x = 0 at l_out = -1, from the first
    node past it at l_out = 0) and refined by the radial root finder.
    """
    l_out, sign = _channel(parity)
    mesh = _mesh(p.half, grid)
    return [_bound_1d(mesh, l_out, parity, a) for a in _scan_roots(mesh, l_out, 0, sign)]


def build_bound_1d(p: Potential1D, parity: str, alpha: float, grid: Grid) -> BoundState1D:
    """Construct the bound state at a known alpha of the given parity:
    the parity solution matched to the half-line Jost solution at the
    outer turning point, refused unless the two match."""
    l_out = _channel(parity)[0]
    return _bound_1d(_mesh(p.half, grid), l_out, parity, alpha)


def _bound_1d(mesh: _Mesh, l_out: int, parity: str, alpha: float) -> BoundState1D:
    u, half_norm = _normalised(mesh, l_out, 0, alpha)
    return BoundState1D(mesh.grid, parity, alpha, u, 1.0 / math.sqrt(2.0 * half_norm))


def extrapolant_samples_1d(
    p: Potential1D,
    parity: str,
    alpha: float,
    grid: Grid,
    *,
    n_samples: int = 6,
    spacing: float | None = None,
    mode: str = "near",
) -> ExtrapolantSamples:
    """Samples of the one-dimensional extrapolant in t = k^2, from the
    radial sampler given the channel row (l_out, sign); l is stored as 0.

    h(t, x) = sigma * (-sign) sqrt(alpha (alpha^2 + t)) y(t, x) / sqrt(D(t)),
    with y the outward solution and the channel strength

        D_even(t) = f'(k, 0) f'(-k, 0),    D_odd(t) = f(k, 0) f(-k, 0),

    which equals t y(X)^2 + y'(X)^2 by the Wronskian of f(k) with f(-k)
    but involves no cancellation between exponentially large terms near
    a pole. -sign is the asymptotic sign of the parity wave (plus for
    cos, minus for -sin) and sigma the radial branch probe of the
    channel condition: with it the pole limit is +u_alpha (full-line
    normalized) for every parity and depth. D is entire in t, so the
    "near" and "real" windows are the radial ones, with their default
    spacings.
    """
    l_out, sign = _channel(parity)
    return _samples(
        _mesh(p.half, grid), l_out, 0, sign, alpha, n_samples, spacing, mode,
        lambda t: -sign * np.sqrt(alpha * (alpha**2 + t)),
    )


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
    spacing: float | None = None,
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
    return -_channel(parity)[1] * 2j * norm_constant**2


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
    mesh = _mesh(p.half, grid)
    l_out, sign = _CHANNEL["even"]
    scale = p.length_scale()
    k_lo, k_hi = 1e-3 / scale, 0.1 / scale
    ks = np.array([0.02, 0.04, 0.06]) / scale
    # one window sweep: the condition at i k_lo and i k_hi, the phase
    # delta = -arg((-ik)^l_out W) of solve_parity at ks
    w = _jost(mesh, l_out, 0, np.concatenate([1j * np.array([k_lo, k_hi]), ks]))
    c = sign * w[:2].real
    threshold = None
    # linear extrapolation of the even condition to kappa = 0: a state
    # at (or crossing) threshold makes it vanish there
    c_zero = c[0] - k_lo * (c[1] - c[0]) / (k_hi - k_lo)
    if c[0] * c[1] < 0.0:
        even = _condition(mesh, l_out, 0, sign)
        threshold = float(_regula_falsi(even, [k_lo], [k_hi], [c[0]], [c[1]])[0])
    elif abs(c_zero) < 1e-3 * max(abs(c[0]), abs(c[1])):
        threshold = 0.0
    deltas = np.unwrap(-np.angle((-1j * ks) ** l_out * w[2:]))
    coef = np.polyfit(ks, deltas, 2)
    return ZeroEnergyPhase(float(np.polyval(coef, 0.0)), ks, deltas, threshold)
