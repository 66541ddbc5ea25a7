"""Extrapolating the physical scattering wave to a bound-state pole.

The physical wave v_l(k, r) = k^l phi_l(k, r) / |F_l(k)|, rescaled as

    g(t, r) = s * alpha^l * sqrt(2 alpha (alpha^2 + t)) * phi(t, r) / sqrt(D(t)),

with t = k^2 and D(t) = F_l(k) F_l(-k), is a function of energy alone
and analytic across the bound-state energy t = -alpha^2: the simple
zero of D there is cancelled by the explicit sqrt(alpha^2 + t). Fitting
a polynomial in t through samples of g and evaluating it at t = -alpha^2
reproduces minus the unit-norm bound state, -u_alpha(r), for s-waves.

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

At odd l the continuation of g along real energies carries the phase
(-i)^l: D is negative on the approach to the pole and g is imaginary
there, landing on i u_alpha rather than -u_alpha. Only the magnitude
is branch-free. The near-pole sampler detects that case, samples |g|,
and compare_to_bound checks the squares, recording the observed side
of D rather than asserting a sign.

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

from . import _integrate as ig
from .errors import ExtrapolationWarning, NumericalError, SpecError
from .potentials import Grid, Potential
from .radial import (
    PhysicalWave,
    _jost_from_regular,
    jost_function,
    jost_on_imaginary_axis,
    regular_and_jost,
    solve_regular,
)
from .spectrum import BoundState

_DISTANCE_FACTOR = 3.0
#: points on the imaginary-axis ladder toward the pole
_LADDER_POINTS = 7
#: polynomial degree of the real-axis residue fit
_FIT_DEGREE = 8
#: Chebyshev nodes of the real-axis residue fit
_FIT_NODES = 12
#: step of the Jost derivative, relative to |k0|
_REL_STEP = 0.01


@dataclass
class ExtrapolantSamples:
    """g(t_j, r_i) on a grid, ready for fitting in t.

    mode is "real" (t_j > 0, scattering region) or "imaginary"
    (-alpha^2 < t_j < 0, between the pole and the next zero of D).
    branch_sign is the factor s already folded into g (see the module
    docstring); it is recorded so reports can state which branch of
    e^{i delta} the samples live on. d_side is the sign of D over the
    window: -1 flags the odd-l imaginary-axis case where g stores the
    magnitude of an imaginary continuation (see
    extrapolant_samples_near_pole).
    """

    grid: Grid
    l: int
    alpha: float
    t: np.ndarray
    g: np.ndarray
    d: np.ndarray
    mode: str
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
    return _branch_sign(
        lambda kappa: jost_on_imaginary_axis(potential, l, kappa, grid), alpha
    )


def _imaginary_axis_data(
    potential: Potential, l: int, kappa: np.ndarray, grid: Grid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi(i kappa, r) and the real values F(i kappa), F(-i kappa), from
    one regular sweep."""
    phi, f_up, f_dn = regular_and_jost(potential, l, 1j * kappa, grid)
    return phi.real, f_up.real, f_dn.real


def _sample_window(
    alpha: float, n_samples: int, spacing: float, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Energies t_j and momenta k_j of a sample window, j = 1..n.

    "real": t_j = spacing alpha^2 j on the scattering side, k_j real.
    "near": t_j = -alpha^2 (1 - spacing j) between the pole and t = 0,
    k_j = i alpha sqrt(1 - spacing j) on the imaginary axis.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise SpecError("alpha must be positive")
    if n_samples < 2 or not spacing > 0:
        raise SpecError("need at least 2 samples with positive spacing")
    j = np.arange(1, n_samples + 1)
    if mode == "real":
        t = spacing * alpha**2 * j
        return t, np.sqrt(t)
    if mode != "near":
        raise SpecError(f"unknown sampling mode {mode!r}")
    if spacing * n_samples >= 1:
        raise SpecError("sample window must stay between the pole and t = 0")
    frac = 1.0 - spacing * j
    return -(alpha**2) * frac, 1j * alpha * np.sqrt(frac)


def _extrapolant(
    grid: Grid,
    l: int,
    alpha: float,
    mode: str,
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
    return ExtrapolantSamples(grid, l, alpha, t, g, d, mode, sign, side)


def extrapolant_samples(
    potential: Potential,
    l: int,
    alpha: float,
    grid: Grid,
    *,
    n_samples: int = 6,
    spacing: float = 0.05,
) -> ExtrapolantSamples:
    """Sample g at real momenta t_j = j * spacing * alpha^2, j = 1..n."""
    t, k = _sample_window(alpha, n_samples, spacing, "real")
    phi = solve_regular(potential, l, k, grid).values
    f = _jost_from_regular(potential, l, k, grid, phi)
    d = (f * np.conj(f)).real
    s = pole_branch_sign(potential, l, alpha, grid)
    pref = alpha**l * math.sqrt(2.0 * alpha) * np.sqrt(alpha**2 + t)
    return _extrapolant(grid, l, alpha, "real", t, phi.real, d, s, pref)


def extrapolant_samples_near_pole(
    potential: Potential,
    l: int,
    alpha: float,
    grid: Grid,
    *,
    n_samples: int = 6,
    spacing: float = 0.0005,
) -> ExtrapolantSamples:
    """Sample g on the imaginary axis at t_j = -alpha^2 (1 - spacing j).

    This needs D(t) = F(i kappa) F(-i kappa) with kappa = sqrt(-t), so
    the tail beyond the solver's cutoff node must decay faster than
    e^{2 kappa r} (the radial solver checks). All samples
    must land on one side of the nearest zero of D; a mixed-sign window
    means a virtual state or another bound state sits inside it, so
    shrink the window.

    D is positive between the pole and t = 0 when the continued wave is
    real there, which holds at even l. At odd l the (-i)^l phase of the
    continuation makes D negative on the approach, g itself is
    imaginary, and what gets sampled is its magnitude, the real
    function with -D under the square root. The magnitude is the part
    the squared comparison of compare_to_bound consumes, and d_side
    records which case occurred.

    The default window hugs the pole (half a percent of alpha^2 per
    step): these samples exist to nail the local limit, not to
    demonstrate extrapolation from scattering energies.
    """
    t, k = _sample_window(alpha, n_samples, spacing, "near")
    phi, f_up, f_dn = _imaginary_axis_data(potential, l, k.imag, grid)
    s = pole_branch_sign(potential, l, alpha, grid)
    pref = alpha**l * math.sqrt(2.0 * alpha) * np.sqrt(alpha**2 + t)
    return _extrapolant(grid, l, alpha, "imaginary", t, phi, f_up * f_dn, s, pref)


@dataclass
class PoleExtrapolation:
    """Polynomial-in-t extrapolation of the samples to t = -alpha^2."""

    samples: ExtrapolantSamples
    order: int
    g_star: np.ndarray
    condition: float

    @property
    def t_target(self) -> float:
        return -self.samples.alpha ** 2


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
    """Pointwise residuals of the extrapolated wave against the bound
    state, over a radial window.

    For l = 0 the comparison is signed: g_star should equal minus the
    unit-norm bound state. For l >= 1 the squares are compared (the
    sign convention of the continued prefactor is not part of the
    claim being tested there).
    """

    r: np.ndarray
    g_star: np.ndarray
    expected: np.ndarray
    residuals: np.ndarray
    max_residual: float
    signed: bool


def _comparison_nodes(extrapolation: PoleExtrapolation, state, lo, hi):
    """Grid radii and the mask of the comparison window, default
    [0.5, 6/alpha], after checking that extrapolation and state share
    the grid and the pole. state is a radial or a line bound state."""
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
    return r, sel


def compare_to_bound(
    extrapolation: PoleExtrapolation,
    state: BoundState,
    r_lo: float | None = None,
    r_hi: float | None = None,
) -> PoleComparison:
    """Residual profile of g_star against the bound state.

    The residual is relative, with the denominator floored at 1e-3 of
    the peak so nodes of u do not divide by zero. The default window
    [0.5, 6/alpha] starts past the origin region (both functions are
    tiny there) and ends where the state has decayed by ~ e^{-6}.
    """
    r, sel = _comparison_nodes(extrapolation, state, r_lo, r_hi)
    u = state.u[sel]
    gs = extrapolation.g_star[sel]
    peak = float(np.max(np.abs(state.u)))
    if extrapolation.samples.l == 0:
        expected = -u
        denom = np.maximum(np.abs(u), 1e-3 * peak)
        res = np.abs(gs - expected) / denom
        signed = True
    else:
        expected = u
        denom = np.maximum(u**2, (1e-3 * peak) ** 2)
        res = np.abs(gs**2 - u**2) / denom
        signed = False
    return PoleComparison(r[sel], gs, expected, res, float(res.max()), signed)


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
    Richardson-extrapolated to the pole."""
    j = np.arange(1, _LADDER_POINTS + 1)
    limit, err = _richardson(rho(alpha * (1.0 - 0.5**j)))
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
        def rho(kappa):
            _, f_up, f_dn = _imaginary_axis_data(potential, l, kappa, grid)
            return (kappa - alpha) * f_dn / f_up

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


def residue_consistency(
    potential: Potential, l: int, alpha: float, grid: Grid, tol: float = 1e-2
) -> tuple[ResidueEstimate, ResidueEstimate, bool]:
    """Run both residue methods; flag disagreement beyond tol (relative)."""
    a = smatrix_residue(potential, l, alpha, grid, "imaginary_axis")
    b = smatrix_residue(potential, l, alpha, grid, "real_axis_fit")
    scale = max(abs(a.value), abs(b.value), 1e-300)
    return a, b, abs(a.value - b.value) / scale > tol


@dataclass
class JostDerivative:
    value: complex
    error: float


def _stencil_derivatives(
    potential: Potential, l: int, k, grid: Grid, fractions: tuple[float, ...]
) -> np.ndarray:
    """dF_l/dk at every momentum of k by five-point differencing along
    the axis each momentum lies on, with steps fractions x _REL_STEP |k|;
    row i of the result holds the step fractions[i]. Every stencil goes
    through one jost_function call; the columns of a batch do not
    interact, so each difference is what a sweep of its own would give."""
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    if np.any(k == 0):
        raise SpecError("the Jost derivative needs k != 0")
    direction = np.where(np.abs(k.real) < 1e-12 * np.abs(k), 1j, 1.0)
    steps = direction * (_REL_STEP * np.abs(k)) * np.array(fractions)[:, None]
    stencil = np.array([-2.0, -1.0, 1.0, 2.0])
    weights = np.array([1.0, -8.0, 8.0, -1.0])
    ks = k[:, None] + steps[..., None] * stencil
    f = jost_function(potential, l, ks.ravel(), grid).reshape(ks.shape)
    return (f * weights).sum(axis=-1) / (12.0 * steps)


def jost_derivative(
    potential: Potential,
    l: int,
    k0: complex,
    grid: Grid,
) -> JostDerivative:
    """dF_l/dk at k0 by five-point differencing along the axis k0 lies
    on, with step halving for an error estimate; both stencils share one
    sweep of 8 momenta."""
    d_half, d_full = _stencil_derivatives(potential, l, k0, grid, (0.5, 1.0))[:, 0]
    return JostDerivative(complex(d_half), float(abs(d_half - d_full) / 15.0))


@dataclass
class GwExtrapolant:
    """Both prefactor forms at the same momenta, s-wave only.

    values holds the competing form sqrt(4 i alpha^2 F(k)/Fdot(k)) v(k, r),
    with its prefactor in prefactor. Exact at the pole like g, and like
    g its error is linear in the distance to the pole, but with a larger
    coefficient (measured on the reference rank-one model) and at the
    cost of a numerical derivative of F at every momentum. universal
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
    F(-k); one more, of the stencils of every momentum, serves F'."""
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    phi, f, f_dn = regular_and_jost(potential, 0, k, grid)
    fdot = _stencil_derivatives(potential, 0, k, grid, (0.5,))[0]
    pref = np.sqrt(4j * alpha**2 * f / fdot)
    # the wave normalization |F| continues off the real axis as
    # sqrt(F(k) F(-k)), which vanishes with F at the pole and keeps the
    # product finite; np.abs would not
    d = f * f_dn
    s = pole_branch_sign(potential, 0, alpha, grid)
    v = s * phi / np.sqrt(d)[None, :]
    t = k * k
    mode = "real" if not np.any(k.imag) else "imaginary"
    universal = _extrapolant(
        grid, 0, alpha, mode, t, phi, d, s, math.sqrt(2.0 * alpha) * np.sqrt(alpha**2 + t)
    )
    return GwExtrapolant(grid, k, pref[None, :] * v, pref, universal)


@dataclass
class WronskianIdentity:
    """Both sides of u'v - u v' = (alpha^2 + k^2) integral_0^r u v dr'."""

    radius: float
    lhs: float
    rhs: float
    residual: float


def wronskian_identity(
    state: BoundState, wave: PhysicalWave, radius: float, k_index: int = 0
) -> WronskianIdentity:
    """Check the cross-Wronskian identity between the bound state and a
    physical wave at one radius (snapped to the nearest grid node)."""
    g = state.grid
    if (g.h, g.n) != (wave.grid.h, wave.grid.n):
        raise SpecError("bound state and wave live on different grids")
    i = int(round(radius / g.h))
    i = max(2, min(i, g.n - 2))
    r = g.r()
    u = state.u
    v = wave.values[:, k_index].real
    k = float(wave.k[k_index].real)
    du = float(ig.deriv_central(u, i, g.h))
    dv = float(ig.deriv_central(v, i, g.h))
    lhs = du * v[i] - u[i] * dv
    rhs = (state.alpha**2 + k**2) * float(ig.simpson(u[: i + 1] * v[: i + 1], g.h))
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
    return WronskianIdentity(r[i], lhs, rhs, residual)
