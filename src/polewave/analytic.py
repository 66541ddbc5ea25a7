"""Closed-form references for potentials that admit them.

The square well is solvable in Riccati-Bessel functions and the
exponential well in Bessel functions of scaled argument, so both serve
as independent checks on the grid solvers: every frozen number in the
test suite traces back to the expressions here (or to free-field
limits), not to the code under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# free_decay and free_decay_d live with the solver, which must not load
# this module; they are re-exported here with the other closed forms
from ._riccati import free_decay, free_decay_d, hhat_plus, hhat_plus_d, jhat, jhat_d, yhat
from .errors import NoBoundStateError


def _brackets(fn, lo: float, hi: float, n: int = 2000):
    """Sign-change brackets on [lo, hi] of a function that maps an
    array elementwise."""
    xs = np.linspace(lo, hi, n)
    vals = fn(xs)
    out = []
    for i in range(n - 1):
        if vals[i] == 0.0:
            out.append((xs[i], xs[i]))
        elif vals[i] * vals[i + 1] < 0:
            out.append((xs[i], xs[i + 1]))
    return out


@dataclass(frozen=True)
class SquareWellOracle:
    """Everything about U(r) = -depth on r < radius, in closed form.

    The bound-state forms take any l through scipy's spherical_jn and
    spherical_kn, so they stay independent of the solver's _riccati.
    """

    depth: float
    radius: float

    def _interior_k(self, k):
        return np.sqrt(np.asarray(k, dtype=complex) ** 2 + self.depth)

    def jost(self, l: int, k) -> np.ndarray:
        """Jost function F_l(k), normalized so that F = 1 at U = 0.

        Matches the interior regular solution jhat_l(K r) / K^{l+1}
        against the free outgoing solution at the well edge.
        """
        a = self.radius
        k = np.asarray(k, dtype=complex)
        bigk = self._interior_k(k)
        fe = (-1) ** l * 1j * hhat_plus(l, k * a)
        fe_d = (-1) ** l * 1j * k * hhat_plus_d(l, k * a)
        b = jhat(l, bigk * a) * fe_d / bigk - jhat_d(l, bigk * a) * fe
        return (-1) ** (l + 1) * (k / bigk) ** l * b

    def phase_shift(self, l: int, k) -> np.ndarray:
        """delta_l(k) = -arg F_l(k), principal value."""
        return -np.angle(self.jost(l, np.asarray(k, dtype=float)))

    def _bound_profiles(self, l: int, alpha):
        """Interior wavenumber K, and the interior jhat_l(K r) and the
        decaying exterior E(r) -> exp(-alpha r) of a bound state, as
        functions of r returning (value, r-derivative); E is
        (2/pi) x k_l(x) at x = alpha r, free_decay in Bessel form."""
        from scipy.special import spherical_jn, spherical_kn

        bigk = np.sqrt(self.depth - alpha * alpha)

        def inner(r):
            z = bigk * np.asarray(r, dtype=float)
            j, jd = spherical_jn(l, z), spherical_jn(l, z, derivative=True)
            return z * j, bigk * (j + z * jd)

        def outer(r):
            x = alpha * np.asarray(r, dtype=float)
            kn, knd = spherical_kn(l, x), spherical_kn(l, x, derivative=True)
            return 2.0 / math.pi * x * kn, 2.0 / math.pi * alpha * (kn + x * knd)

        return bigk, inner, outer

    def bound_condition(self, l: int, alpha):
        """Real function of alpha, elementwise, whose zeros on
        (0, sqrt(U0)) are the bound-state wavenumbers: the Wronskian of
        the interior and exterior solutions at the edge. Written in
        product form so there are no cotangent poles to confuse a
        bracketing search."""
        _, inner, outer = self._bound_profiles(l, alpha)
        (j, jd), (e, ed) = inner(self.radius), outer(self.radius)
        return jd * e - j * ed

    def bound_alphas(self, l: int) -> list[float]:
        """All bound-state alphas, deepest first."""
        from scipy.optimize import brentq

        top = math.sqrt(self.depth) if self.depth > 0 else 0.0
        if top <= 0:
            return []
        lo, hi = 1e-9 * top, top * (1.0 - 1e-9)
        roots = []
        for x0, x1 in _brackets(lambda x: self.bound_condition(l, x), lo, hi):
            roots.append(x0 if x0 == x1 else brentq(
                lambda x: self.bound_condition(l, x), x0, x1, xtol=1e-14, rtol=1e-15))
        return sorted(roots, reverse=True)

    def normalization(self, l: int, alpha: float) -> float:
        """Asymptotic coefficient N of the unit-norm bound state,
        u(r) -> N exp(-alpha r) (times the l-dependent dressing).

        For solutions of u'' = (l(l+1)/r^2 - q) u, d/dr W[u_p, u_q] =
        (p - q) u_p u_q, so each integral of u^2 is the Wronskian of u and
        du/dq at the edge, with u'' taken from the equation."""
        a = self.radius
        bigk, inner, outer = self._bound_profiles(l, alpha)
        (j, jd), (e, ed) = inner(a), outer(a)
        z, x = bigk * a, alpha * a
        jdd = (l * (l + 1) / a**2 - bigk**2) * j
        edd = (l * (l + 1) / a**2 + alpha**2) * e
        body = (z * (jd * jd - j * jdd) / bigk - j * jd) / (2.0 * bigk**2)
        tail = -(e * ed + x * (e * edd - ed * ed) / alpha) / (2.0 * alpha**2)
        return 1.0 / math.sqrt((e / j) ** 2 * body + tail)

    def bound_u(self, l: int, alpha: float, r) -> np.ndarray:
        """Unit-norm bound radial function, positive at large r."""
        r = np.asarray(r, dtype=float)
        _, inner, outer = self._bound_profiles(l, alpha)
        inside = r < self.radius
        out = np.empty_like(r)
        out[inside] = inner(r[inside])[0] * (outer(self.radius)[0] / inner(self.radius)[0])
        out[~inside] = outer(r[~inside])[0]
        return self.normalization(l, alpha) * out

    def physical_wave(self, l: int, k: float, r) -> np.ndarray:
        """Scattering solution behaving as sin(k r - l pi/2 + delta)/k."""
        r = np.asarray(r, dtype=float)
        a = self.radius
        bigk = float(self._interior_k(k).real)
        delta = float(self.phase_shift(l, k))
        out = np.empty_like(r)
        outside = r >= a
        out[outside] = (
            jhat(l, k * r[outside]).real * math.cos(delta)
            - yhat(l, k * r[outside]).real * math.sin(delta)
        ) / k
        edge = (
            jhat(l, k * a).real * math.cos(delta) - yhat(l, k * a).real * math.sin(delta)
        ) / k
        c_in = edge / jhat(l, bigk * a).real
        out[~outside] = c_in * jhat(l, bigk * r[~outside]).real
        return out


def exp_well_bound_alpha(depth: float, radius: float) -> float:
    """Ground-state alpha of U = -depth exp(-r/radius), from the Bessel
    closed form: the bound state is J_nu(2 a sqrt(U0) e^{-r/2a}) with
    nu = 2 a alpha, and regularity at r = 0 pins J_nu(2 a sqrt(U0)) = 0.
    """
    from scipy.optimize import brentq
    from scipy.special import jv

    z0 = 2.0 * radius * math.sqrt(depth)
    fn = lambda nu: jv(nu, z0)
    brackets = _brackets(fn, 1e-6, z0, 4000)
    if not brackets:
        raise NoBoundStateError("exponential well too shallow for a bound state")
    # the largest nu root is the ground state (deepest binding)
    x0, x1 = brackets[-1]
    nu = brentq(fn, x0, x1, xtol=1e-14, rtol=1e-15)
    return nu / (2.0 * radius)


def exp_well_bound_u(depth: float, radius: float, alpha: float, r) -> np.ndarray:
    """Unnormalized exponential-well bound state J_nu(z(r)), scaled to
    unit asymptotic coefficient so it tends to exp(-alpha r)."""
    from scipy.special import gamma, jv

    r = np.asarray(r, dtype=float)
    nu = 2.0 * radius * alpha
    z = 2.0 * radius * math.sqrt(depth) * np.exp(-r / (2.0 * radius))
    c_inf = (radius * math.sqrt(depth)) ** nu / gamma(nu + 1.0)
    return jv(nu, z) / c_inf
