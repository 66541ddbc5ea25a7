"""Closed-form rank-one separable model for prefactor comparisons.

A one-term separable interaction with shape parameter beta and a single
bound state at k = i alpha admits a rational Jost function, so both
pole-extrapolation prefactors can be evaluated exactly: the universal
sqrt(2 alpha (alpha^2 + k^2)) and the Goldberger-Watson form
sqrt(4 i alpha^2 F(k) / Fdot(k)). The ratio of scattering to bound wave
functions at the origin is also closed-form,

    R(k) = (1 + 2 z) / (sqrt(2 alpha (k^2 + alpha^2)) sqrt(1 + z)),
    z    = (k^2 + alpha^2) / (4 beta (alpha + beta)),

so prefactor times R measures each form's deviation from the exact pole
relation with no numerics in the way. The universal form errs by
(1 + 2z)/sqrt(1 + z) - 1 = 3z/2 + O(z^2), small until k^2 approaches
beta^2; the GW form picks up an additional error from the S-matrix zero
at k = -i alpha and loses to the universal form at every real momentum
below 2 alpha.

The rational representative used for F here carries a zero-pole pair
(zero at i beta, pole at i sqrt((alpha+beta)^2 + beta^2)) that cancels
in the S matrix and in the winding number over the upper half-plane, so
the physical content is the single bound-state zero at i alpha. The
pair is a feature of this particular quotient, not of the model;
winding_number() counts zeros minus poles and comes out 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecError

__all__ = [
    "SeparableModel",
    "sep_jost",
    "sep_jost_derivative",
    "sep_ratio",
    "sep_prefactors",
    "sep_compare_forms",
    "winding_number",
]

#: points per edge of the winding-number rectangle
_EDGE_POINTS = 4000


@dataclass(frozen=True)
class SeparableModel:
    """Bound-state position alpha and shape parameter beta, beta > alpha.

    z(k) = (k^2 + alpha^2) / (4 beta (alpha + beta)) is the natural
    smallness parameter: it vanishes at the pole and stays below
    ~ beta / (4 (alpha + beta)) for momenta up to the shape scale.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (
            math.isfinite(self.alpha)
            and math.isfinite(self.beta)
            and 0.0 < self.alpha < self.beta
        ):
            raise SpecError("separable model needs beta > alpha > 0")

    def z(self, k):
        k = np.asarray(k)
        return (k**2 + self.alpha**2) / (4.0 * self.beta * (self.alpha + self.beta))


def _jost_pieces(m: SeparableModel, k):
    """Numerator, denominator, and their k-derivatives for the rational
    Jost function. Shared by value and derivative evaluation so the two
    cannot drift apart."""
    k = np.asarray(k, dtype=complex)
    a, b = m.alpha, m.beta
    c = (a + b) ** 2 + b**2
    f1 = k - 1j * b
    f2 = k + 1j * (2.0 * b + a)
    f3 = k - 1j * a
    num = f1 * f2 * f3
    dnum = f2 * f3 + f1 * f3 + f1 * f2
    den = (k + 1j * b) * (k**2 + c)
    dden = (k**2 + c) + (k + 1j * b) * 2.0 * k
    return num, dnum, den, dden


def _guard_poles(m: SeparableModel, k) -> None:
    k = np.asarray(k, dtype=complex)
    c = (m.alpha + m.beta) ** 2 + m.beta**2
    scale = m.beta
    near_beta = np.abs(k + 1j * m.beta) < 1e-12 * scale
    near_c = np.abs(k**2 + c) < 1e-12 * scale**2
    if np.any(near_beta) or np.any(near_c):
        raise SpecError(
            "k sits on a pole of the rational Jost expression "
            "(k = -i beta or k^2 = -((alpha+beta)^2 + beta^2))"
        )


def sep_jost(m: SeparableModel, k):
    """Exact Jost function of the separable model.

    F(k) = (k - i b)(k + i(2b + a))(k - i a) / ((k + i b)(k^2 + (a+b)^2 + b^2)).

    Vanishes at the bound state k = i alpha; |F(-k)| = |F(k)| on the
    real axis, so the S matrix built from it is unitary there.
    """
    _guard_poles(m, k)
    num, _, den, _ = _jost_pieces(m, k)
    out = num / den
    return out if out.ndim else complex(out)


def sep_jost_derivative(m: SeparableModel, k):
    """dF/dk from the quotient rule on the exact rational pieces."""
    _guard_poles(m, k)
    num, dnum, den, dden = _jost_pieces(m, k)
    out = (dnum * den - num * dden) / den**2
    return out if out.ndim else complex(out)


def sep_ratio(m: SeparableModel, k):
    """Scattering-to-bound ratio at the origin, v(k, 0+) / u_alpha(0+).

    R(k) = (1 + 2 z) / (sqrt(2 a (k^2 + a^2)) sqrt(1 + z)). Real and
    positive for real k; diverges at the pole itself, where the
    vanishing prefactor sqrt(2 a (a^2 + k^2)) tames it to exactly 1.
    """
    z = m.z(k)
    pref = np.sqrt(2.0 * m.alpha * (np.asarray(k) ** 2 + m.alpha**2))
    out = (1.0 + 2.0 * z) / (pref * np.sqrt(1.0 + z))
    return out if np.ndim(out) else float(np.real(out)) if np.isrealobj(out) else complex(out)


def sep_prefactors(m: SeparableModel, k):
    """Both pole prefactors at momentum k (complex allowed).

    Returns (ours, gw) with ours = sqrt(2 a (a^2 + k^2)) and
    gw = sqrt(4 i a^2 F / Fdot), principal branches. On the imaginary
    axis just below the pole both radicands are positive real, so the
    principal branches agree there and the two forms coincide at the
    pole; on the real axis gw is complex while ours stays real.
    """
    k = np.asarray(k, dtype=complex)
    a = m.alpha
    ours = np.sqrt(2.0 * a * (a**2 + k**2))
    gw = np.sqrt(4j * a**2 * sep_jost(m, k) / sep_jost_derivative(m, k))
    if ours.ndim:
        return ours, gw
    return complex(ours), complex(gw)


def sep_compare_forms(m: SeparableModel, k):
    """Deviation of each prefactor-times-R product from 1.

    ours_err = |R sqrt(2 a (k^2 + a^2)) - 1| reduces to
    |(1 + 2z)/sqrt(1 + z) - 1|, the model's intrinsic origin
    correction; gw_err = |R sqrt(4 i a^2 F / Fdot) - 1| adds the
    error of the Goldberger-Watson prefactor on top. Both vanish at
    the pole. Real k is the headline comparison; complex k near
    i alpha is allowed for verifying the pole limit.
    """
    k = np.asarray(k, dtype=complex)
    z = m.z(k)
    ours_prod = (1.0 + 2.0 * z) / np.sqrt(1.0 + z)
    ours_err = np.abs(ours_prod - 1.0)
    ours, gw = sep_prefactors(m, k if k.ndim else complex(k))
    # R * gw, with R's 1/ours divergence cancelled analytically so the
    # pole limit is evaluable: R * gw = ours_prod * (gw / ours).
    gw_err = np.abs(ours_prod * np.asarray(gw) / np.asarray(ours) - 1.0)
    if np.ndim(ours_err):
        return ours_err, gw_err
    return float(ours_err), float(gw_err)


def winding_number(m: SeparableModel, *, height: float | None = None) -> int:
    """Zeros minus poles of F inside a rectangle in the upper half plane,
    by the argument principle on its boundary, with _EDGE_POINTS points
    per edge.

    The rectangle |Re k| <= 3 beta, 0 < Im k <= height (default 3 beta)
    contains the bound-state zero together with the representative's
    cancelling zero-pole pair, so the count is 1. The bottom edge is
    nudged just above the real axis; F has no real zeros to collide
    with, but the S-matrix unitarity strip is where the phase varies
    fastest.
    """
    hw = 3.0 * m.beta
    ht = 3.0 * m.beta if height is None else height
    eps = 1e-9 * m.beta
    corners = [
        complex(-hw, eps),
        complex(hw, eps),
        complex(hw, ht),
        complex(-hw, ht),
        complex(-hw, eps),
    ]
    total = 0.0
    for z0, z1 in zip(corners[:-1], corners[1:]):
        s = np.linspace(0.0, 1.0, _EDGE_POINTS, endpoint=False)
        pts = z0 + (z1 - z0) * s
        vals = sep_jost(m, pts)
        ang = np.angle(vals)
        total += float(np.sum(np.angle(np.exp(1j * np.diff(ang)))))
        # wrap the seam between consecutive edges
        nxt = sep_jost(m, np.asarray([z1]))[0]
        total += float(np.angle(nxt / vals[-1]))
    n = total / (2.0 * math.pi)
    rounded = round(n)
    if abs(n - rounded) > 1e-3:
        raise SpecError(
            f"argument-principle integral {n:.6f} is not near an integer; "
            "move the rectangle off a zero or pole"
        )
    return int(rounded)
