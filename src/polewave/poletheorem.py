"""Extrapolating the physical scattering wave to a bound-state pole.

The physical wave v_l(k, r) = k^l phi_l(k, r) / |F_l(k)|, rescaled as

    g(t, r) = s * alpha^l * sqrt(2 alpha (alpha^2 + t)) * phi(t, r) / sqrt(d_side D(t)),

with t = k^2, D(t) = F_l(k) F_l(-k) and d_side the sign of D, is a
function of energy alone and analytic across the bound-state energy
t = -alpha^2: the simple zero of D there is cancelled by the explicit
sqrt(alpha^2 + t). Fitting a polynomial in t through samples of g and
evaluating it at t = -alpha^2 reproduces minus the unit-norm bound
state, -u_alpha(r).

The sign s = sign F(i kappa)|_{kappa -> alpha-} deserves a comment. The
physical wave is built from e^{i delta}, which the S matrix fixes only
up to an overall sign (delta is defined mod pi). Continued through real
energies, g therefore lands on -u_alpha times the sign the Jost
function carries on the imaginary axis just below this pole: +u_alpha
at the ground state of a one-state well, alternating at deeper poles.
Multiplying the samples by s selects the branch on which the pole
residue strength is positive definite, and on that branch the limit is
-u_alpha at every pole of every potential, which is the form of the
statement this module verifies. s is computed from F alone, never from
the bound state it is compared against.

Samples can be taken on the real momentum axis (the default: actual
scattering data) or on the imaginary axis between the pole and the next
singularity of D. The imaginary-axis window is the one to use when the
target tolerance beats what low-order extrapolation across the distance
t = 0.05 alpha^2 .. -alpha^2 can deliver, and it is the only window
from which a deep second pole can be reached when a shallower state and
a virtual state stand in between.

D carries the factor k^{2l} = t^l from the k^l of each Jost function,
so between the pole and t = 0 its sign d_side is (-1)^l. Dividing by
sqrt(d_side D) takes out the negative t^l at odd l and leaves a real
function of t, analytic at the pole; with the branch sign folded in,
the limit is -u_alpha at every l, and compare_to_bound checks it with
its sign.

Also here: the S-matrix residue at the pole, whose magnitude is the
squared asymptotic normalization N^2, and the competing prefactor form
sqrt(4 i alpha^2 F(k) / Fdot(k)) v(k, r), which agrees with g at the
pole itself but degrades faster away from it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ExtrapolationWarning, NumericalError, SpecError
from .potentials import Grid, Potential
from .radial import (
    _condition,
    _jost,
    _jost_derivative,
    _mesh,
    _Mesh,
    _regular_and_jost,
    jost_function,
)
from .spectrum import BoundState

_DISTANCE_FACTOR = 3.0
#: points on the imaginary-axis ladder toward the pole
_LADDER_POINTS = 7
#: polynomial degree of the real-axis residue fit
_FIT_DEGREE = 8
#: Chebyshev nodes of the real-axis residue fit
_FIT_NODES = 12
#: largest Richardson gauge of the residue ladder, relative to the
#: residue; ladders with a true relative error above 1e-2 read 0.15 or more
_LADDER_GAUGE = 0.1
#: default sample spacing of each window, in units of alpha^2
_SPACING = {"real": 0.05, "near": 0.0005}


@dataclass
class ExtrapolantSamples:
    """g(t_j, r_i) on a grid, ready for fitting in t.

    t_j > 0 are scattering energies, -alpha^2 < t_j < 0 lie between the
    pole and the next zero of D. branch_sign is the factor s already
    folded into g (see the module docstring); it is recorded so reports
    can state which branch of e^{i delta} the samples live on. d_side is
    the sign of D over the window, and g takes the square root of
    d_side D: +1 on the real axis, (-1)^l on the approach to a radial
    pole.
    """

    grid: Grid
    l: int
    alpha: float
    t: np.ndarray
    g: np.ndarray
    d: np.ndarray
    branch_sign: float = 1.0
    d_side: float = 1.0


def _branch_sign(condition, alpha: float) -> float:
    """Sign of a real bound-state condition on the imaginary axis just
    below its simple zero at kappa = alpha.

    The sign is constant between neighboring zeros, so probing at 0.1
    percent below alpha reads it off without landing on either
    neighbor; a second probe at 0.4 percent covers an exact zero.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise SpecError("alpha must be positive")
    for back in (1e-3, 4e-3):
        value = float(condition(alpha * (1.0 - back))[0])
        if value != 0.0:
            return math.copysign(1.0, value)
    raise NumericalError(
        "the bound-state condition vanishes at both probe points below the "
        "pole; alpha is probably not a converged bound-state position"
    )


def pole_branch_sign(
    potential: Potential, l: int, alpha: float, grid: Grid
) -> float:
    """The sign of F_l(i kappa) just below the pole at kappa = alpha.

    F is real on the imaginary axis and has a simple zero at each bound
    state, so its sign is constant between neighboring poles. Samples
    of g are multiplied by this sign so that their continuation to
    t = -alpha^2 is -u_alpha regardless of how many deeper states the
    well holds.
    """
    return _branch_sign(_condition(_mesh(potential, grid), l, l, 1.0), alpha)


def _sample_window(
    alpha: float, n_samples: int, spacing: float | None, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Energies t_j and momenta k_j of a sample window, j = 1..n.

    "real": t_j = spacing alpha^2 j on the scattering side, k_j real.
    "near": t_j = -alpha^2 (1 - spacing j) between the pole and t = 0,
    k_j = i alpha sqrt(1 - spacing j) on the imaginary axis.
    spacing None is the window's default in _SPACING.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise SpecError("alpha must be positive")
    if mode not in _SPACING:
        raise SpecError(f"unknown sampling mode {mode!r}")
    spacing = _SPACING[mode] if spacing is None else spacing
    if n_samples < 2 or not spacing > 0:
        raise SpecError("need at least 2 samples with positive spacing")
    j = np.arange(1, n_samples + 1)
    if mode == "real":
        t = spacing * alpha**2 * j
        return t, np.sqrt(t)
    if spacing * n_samples >= 1:
        raise SpecError("sample window must stay between the pole and t = 0")
    frac = 1.0 - spacing * j
    return -(alpha**2) * frac, 1j * alpha * np.sqrt(frac)


def _extrapolant(
    grid: Grid,
    l: int,
    alpha: float,
    t: np.ndarray,
    y: np.ndarray,
    d: np.ndarray,
    sign: float,
    pref: np.ndarray,
) -> ExtrapolantSamples:
    """g = sign * pref * y / sqrt(side * D) at the momenta of t, for the
    outward solution y and the channel strength D of a radial or a line
    channel; side is the one sign D must keep over the window.

    pref is the caller's prefactor, alpha^l sqrt(2 alpha (alpha^2 + t))
    radially and +-sqrt(alpha (alpha^2 + t)) on the line; sign is the
    branch probe. A D that vanishes or changes sign means another
    S-matrix pole or zero lies between the samples and the target. D
    may be complex, as F(k) F(-k) is at real k in rounding; its sign is
    that of its real part.
    """
    re = np.real(d)
    if np.any(d == 0) or np.any(np.sign(re) != np.sign(re[0])):
        raise NumericalError(
            "the channel strength D(t) changes sign inside the sample window; "
            "another S-matrix pole or zero lies between these samples and the target"
        )
    side = math.copysign(1.0, re[0])
    g = sign * pref * y / np.sqrt(side * d)
    return ExtrapolantSamples(grid, l, alpha, t, g, d, sign, side)


def _samples(
    mesh: _Mesh,
    l_out: int,
    l: int,
    sign: float,
    alpha: float,
    n_samples: int,
    spacing: float | None,
    window: str,
    pref,
) -> ExtrapolantSamples:
    """g on a window of _sample_window for the channel (l_out, sign) of
    radial._condition: one sweep of the window's momenta for y, F(k) and
    F(-k), the branch probe of the condition, and pref(t) (_pref in 3D)."""
    t, k = _sample_window(alpha, n_samples, spacing, window)
    y, f_up, f_dn = _regular_and_jost(mesh, l_out, l, k)
    s = _branch_sign(_condition(mesh, l_out, l, sign), alpha)
    return _extrapolant(mesh.grid, l, alpha, t, y, (f_up * f_dn).real, s, pref(t))


def _pref(l: int, alpha: float):
    """The radial prefactor alpha^l sqrt(2 alpha (alpha^2 + t)) of t."""
    return lambda t: alpha**l * math.sqrt(2.0 * alpha) * np.sqrt(alpha**2 + t)


def extrapolant_samples(
    potential: Potential,
    l: int,
    alpha: float,
    grid: Grid,
    *,
    n_samples: int = 6,
    spacing: float | None = None,
) -> ExtrapolantSamples:
    """Sample g at real momenta t_j = j * spacing * alpha^2, j = 1..n;
    the default spacing is 0.05."""
    return _samples(
        _mesh(potential, grid), l, l, 1.0, alpha, n_samples, spacing, "real", _pref(l, alpha)
    )


def extrapolant_samples_near_pole(
    potential: Potential,
    l: int,
    alpha: float,
    grid: Grid,
    *,
    n_samples: int = 6,
    spacing: float | None = None,
) -> ExtrapolantSamples:
    """Sample g on the imaginary axis at t_j = -alpha^2 (1 - spacing j).

    This needs D(t) = F(i kappa) F(-i kappa) with kappa = sqrt(-t), so
    the tail beyond the solver's cutoff node must decay faster than
    e^{2 kappa r} (the radial solver checks). All samples
    must land on one side of the nearest zero of D; a mixed-sign window
    means a virtual state or another bound state sits inside it, so
    shrink the window.

    On this side of t = 0, D has the sign (-1)^l of its factor t^l,
    recorded as d_side; g takes the square root of d_side D, so it is
    real at every l and tends to -u_alpha (see the module docstring).

    The default window hugs the pole (spacing 0.0005, in units of
    alpha^2 per step): these samples exist to nail the local limit, not
    to demonstrate extrapolation from scattering energies.
    """
    return _samples(
        _mesh(potential, grid), l, l, 1.0, alpha, n_samples, spacing, "near", _pref(l, alpha)
    )


@dataclass
class PoleExtrapolation:
    """Polynomial-in-t extrapolation of the samples to t = -alpha^2."""

    samples: ExtrapolantSamples
    order: int
    g_star: np.ndarray
    condition: float


def extrapolate_to_pole(samples: ExtrapolantSamples, order: int = 2) -> PoleExtrapolation:
    """Fit g(t, r) with one shared polynomial basis and evaluate at the
    pole energy. The basis is centered and scaled, so the reported
    condition number reflects the fit, not the units."""
    t = samples.t
    if order < 1 or order + 1 > t.size:
        raise SpecError(f"order {order} needs more than {order} samples, got {t.size}")
    target = -samples.alpha**2
    span = float(t.max() - t.min())
    dist = float(np.min(np.abs(t - target)))
    if dist > _DISTANCE_FACTOR * span:
        warnings.warn(
            f"extrapolating {dist:.3g} beyond a sample window of span {span:.3g}; "
            f"the polynomial model is unconstrained out there",
            ExtrapolationWarning,
            stacklevel=2,
        )
    center = float(t.mean())
    scale = 0.5 * span if span > 0 else 1.0
    tau = (t - center) / scale
    v = np.vander(tau, order + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(v, samples.g.T, rcond=None)
    tau_star = (target - center) / scale
    g_star = np.polynomial.polynomial.polyval(tau_star, coef)
    cond = float(np.linalg.cond(v))
    return PoleExtrapolation(samples, order, np.asarray(g_star), cond)


@dataclass
class PoleComparison:
    """Pointwise residuals of the extrapolated wave against the function
    the pole limit should equal, over a radial window: minus the
    unit-norm bound state at every l radially, plus it on the line."""

    r: np.ndarray
    g_star: np.ndarray
    expected: np.ndarray
    residuals: np.ndarray
    max_residual: float


def _compare(extrapolation: PoleExtrapolation, state, expected: np.ndarray, lo=None, hi=None):
    """Relative residuals |g_star - expected| on the comparison window,
    default [0.5, 6/alpha], with the denominator floored at 1e-3 of the
    peak of expected so nodes of the state do not divide by zero.

    state is a radial or a line bound state, checked to share the grid
    and the pole of the extrapolation; expected is given on the whole
    grid. A window reaching past r_max is clipped there, with a
    warning: the verdict then depends on r_max."""
    g = extrapolation.samples.grid
    if (g.h, g.n) != (state.grid.h, state.grid.n):
        raise SpecError("extrapolation and bound state live on different grids")
    if abs(extrapolation.samples.alpha - state.alpha) > 1e-9 * state.alpha:
        raise SpecError("extrapolation targets a different pole than this bound state")
    if lo is None:
        lo = 0.5
    if hi is None:
        hi = 6.0 / state.alpha
    r = g.r()
    sel = (r >= lo) & (r <= min(hi, g.r_max))
    if not sel.any():
        raise SpecError("empty comparison window")
    if hi > g.r_max:
        warnings.warn(
            f"the comparison window ends at r = {hi:.4g}, beyond r_max = {g.r_max:.4g}; "
            "it is clipped at r_max, so the residuals depend on r_max",
            ExtrapolationWarning,
            stacklevel=3,
        )
    gs = extrapolation.g_star[sel]
    ex = expected[sel]
    denom = np.maximum(np.abs(ex), 1e-3 * float(np.max(np.abs(expected))))
    res = np.abs(gs - ex) / denom
    return PoleComparison(r[sel], gs, ex, res, float(res.max()))


def compare_to_bound(
    extrapolation: PoleExtrapolation,
    state: BoundState,
    r_lo: float | None = None,
    r_hi: float | None = None,
) -> PoleComparison:
    """Residual profile of g_star against -u, minus the unit-norm bound
    state, at every l.

    The residual is relative, with the denominator floored at 1e-3 of
    the peak so nodes of u do not divide by zero. The default window
    [0.5, 6/alpha] starts past the origin region (both functions are
    tiny there) and ends where the state has decayed by ~ e^{-6}.
    """
    return _compare(extrapolation, state, -state.u, r_lo, r_hi)


@dataclass
class ResidueEstimate:
    """Residue of S_l at k = i alpha and the normalization it implies."""

    value: complex
    n_estimate: float
    method: str
    error: float


def residue_prediction(l: int, asymptotic_norm: float) -> complex:
    """The residue the pole theorem predicts: -i (-1)^l N^2."""
    return -1j * (-1) ** l * asymptotic_norm**2


def _richardson(seq: np.ndarray) -> tuple[float, float]:
    """Limit of seq_j = s + c1 eps_j + c2 eps_j^2 + ... with eps_j
    halving per step."""
    t = [np.asarray(seq, dtype=float)]
    while t[-1].size > 1:
        prev = t[-1]
        fac = 2.0 ** len(t)
        t.append((fac * prev[1:] - prev[:-1]) / (fac - 1.0))
    best = float(t[-1][0])
    prev_best = float(t[-2][0]) if len(t) > 1 and t[-2].size else best
    return best, abs(best - prev_best)


def _ladder_residue(alpha: float, rho) -> tuple[complex, float]:
    """Residue at k = i alpha and its error gauge, from rho(kappa) =
    (kappa - alpha) S(i kappa) on the ladder kappa_j = alpha (1 - 2^-j),
    Richardson-extrapolated to the pole. A gauge above _LADDER_GAUGE of
    the residue is refused: the ladder has not converged, typically
    because the rounding of F(-i kappa), amplified by e^{2 kappa r_c},
    swamps S."""
    j = np.arange(1, _LADDER_POINTS + 1)
    limit, err = _richardson(rho(alpha * (1.0 - 0.5**j)))
    if not err <= _LADDER_GAUGE * abs(limit):
        raise NumericalError(
            f"the residue ladder at alpha = {alpha:.6g} has not converged: its Richardson "
            f"gauge {err:.3g} exceeds {_LADDER_GAUGE:g} of the residue {abs(limit):.3g}"
        )
    return 1j * limit, err


def smatrix_residue(
    potential: Potential,
    l: int,
    alpha: float,
    grid: Grid,
    method: str = "imaginary_axis",
) -> ResidueEstimate:
    """Residue of the S matrix at the bound-state pole k = i alpha.

    "imaginary_axis" walks kappa_j = alpha (1 - 2^-j) up to the pole
    and Richardson-extrapolates (k - i alpha) S(i k); it needs the
    Jost function at -i kappa, which the radial solver refuses outside
    the analyticity strip of a decaying tail.
    "real_axis_fit" fits a complex polynomial to (k - i alpha) S(k) on
    scattering momenta [0.1 alpha, 2 alpha] and evaluates it at i alpha;
    it works for any potential but leans on the fit reaching the pole
    inside the region of analyticity.
    """
    if method == "imaginary_axis":
        mesh = _mesh(potential, grid)

        def rho(kappa):
            f_up, f_dn = _jost(mesh, l, l, 1j * kappa, minus=True)
            return (kappa - alpha) * f_dn.real / f_up.real

        value, err = _ladder_residue(alpha, rho)
    elif method == "real_axis_fit":
        theta = (np.arange(_FIT_NODES) + 0.5) * math.pi / _FIT_NODES
        half = 0.95 * alpha
        center = 1.05 * alpha
        k = center + half * np.cos(theta)
        f = jost_function(potential, l, k, grid)
        s = np.conj(f) / f
        hvals = (k - 1j * alpha) * s
        zeta = (k - center) / half
        v = np.vander(zeta, _FIT_DEGREE + 1, increasing=True)
        coef, res_, *_ = np.linalg.lstsq(v, hvals, rcond=None)
        zeta_star = (1j * alpha - center) / half
        value = complex(np.polynomial.polynomial.polyval(zeta_star, coef))
        # drop the top coefficient as a cheap truncation-error gauge
        value_lo = complex(
            np.polynomial.polynomial.polyval(zeta_star, coef[:-1])
        )
        err = abs(value - value_lo)
    else:
        raise SpecError(f"unknown residue method {method!r}")
    return ResidueEstimate(value, math.sqrt(abs(value)), method, err)


@dataclass
class JostDerivative:
    """dF_l/dk and its error: the rounding of the Wronskians it is read
    from. The error excludes the O(h^4) Numerov truncation, which moves
    F and dF/dk alike."""

    value: complex
    error: float


def jost_derivative(
    potential: Potential,
    l: int,
    k0: complex,
    grid: Grid,
) -> JostDerivative:
    """dF_l/dk at k0 != 0 on the real or the imaginary axis, from one
    sweep of one complex step in E = k0^2 (radial._jost_derivative)."""
    d, rounding = _jost_derivative(_mesh(potential, grid), l, k0)
    return JostDerivative(complex(d[0]), float(rounding[0]))


@dataclass
class GwExtrapolant:
    """Both prefactor forms at the same momenta, s-wave only.

    values holds the competing form sqrt(4 i alpha^2 F(k)/Fdot(k)) v(k, r),
    with its prefactor in prefactor. Exact at the pole like g, and like
    g its error is linear in the distance to the pole, but with a larger
    coefficient (measured on the reference rank-one model) and at the
    cost of one more sweep, for F' at every momentum. universal
    holds the universal form g = sqrt(2 alpha (alpha^2 + k^2)) v(k, r)
    built from the same sweep, as samples at t = k^2.
    """

    grid: Grid
    k: np.ndarray
    values: np.ndarray
    prefactor: np.ndarray
    universal: ExtrapolantSamples


def gw_extrapolant(
    potential: Potential,
    alpha: float,
    k,
    grid: Grid,
) -> GwExtrapolant:
    """The derivative prefactor form and the universal form at momenta k
    on the real or the imaginary axis, both on the branch of the g
    samples, so both aim at -u_alpha and their deviations can be
    compared head to head. One regular sweep serves the wave, F(k) and
    F(-k); one complex-step sweep of the same momenta serves F'."""
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    mesh = _mesh(potential, grid)
    phi, f, f_dn = _regular_and_jost(mesh, 0, 0, k)
    fdot = _jost_derivative(mesh, 0, k)[0]
    pref = np.sqrt(4j * alpha**2 * f / fdot)
    # the wave normalization |F| continues off the real axis as
    # sqrt(F(k) F(-k)), which vanishes with F at the pole and keeps the
    # product finite; np.abs would not
    d = f * f_dn
    s = _branch_sign(_condition(mesh, 0, 0, 1.0), alpha)
    v = s * phi / np.sqrt(d)[None, :]
    t = k * k
    universal = _extrapolant(grid, 0, alpha, t, phi, d, s, _pref(0, alpha)(t))
    return GwExtrapolant(grid, k, pref[None, :] * v, pref, universal)

