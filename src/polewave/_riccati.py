"""Riccati-Bessel and Riccati-Hankel functions for complex argument.

We need j-hat, y-hat and h-hat(+), and the first derivatives of j-hat
and h-hat(+), for low partial waves but at genuinely complex argument
(the Jost machinery evaluates them at k r with k anywhere in the cut
plane). scipy's spherical_jn only takes real arguments, so l = 0, 1 are
written out in closed form and higher l is built by upward recurrence,
which is stable for the moderate |x| and small l used here.

Conventions:

    jhat_l(x) = x j_l(x),   yhat_l(x) = x y_l(x),
    hhat_l(x) = x h_l^(1)(x) = jhat_l(x) + i yhat_l(x),

so jhat_0 = sin x, yhat_0 = -cos x, hhat_0 = -i e^{ix}, and the
Wronskian jhat_l' yhat_l - jhat_l yhat_l' = 1 for all l.
"""

from __future__ import annotations

import numpy as np

# Below this |x| the explicit jhat_1 formula loses digits to cancellation,
# so a short Taylor series takes over (error ~ x^8/75600 < 1e-12 there).
_SMALL = 0.1


def _asarray(x):
    return np.asarray(x, dtype=complex)


def jhat(l: int, x) -> np.ndarray:
    """Riccati-Bessel function x j_l(x), regular at the origin."""
    x = _asarray(x)
    if l == 0:
        return np.sin(x)
    if l == 1:
        small = np.abs(x) < _SMALL
        xs = np.where(small, 1.0, x)
        direct = np.sin(xs) / xs - np.cos(xs)
        x2 = x * x
        series = x2 / 3.0 * (1.0 - x2 / 10.0 * (1.0 - x2 / 28.0))
        return np.where(small, series, direct)
    return _recur_pair(l, x, jhat(0, x), jhat(1, x))[1]


def yhat(l: int, x) -> np.ndarray:
    """Riccati-Bessel function x y_l(x), irregular at the origin."""
    x = _asarray(x)
    if l == 0:
        return -np.cos(x)
    if l == 1:
        return -np.cos(x) / x - np.sin(x)
    return _recur_pair(l, x, yhat(0, x), yhat(1, x))[1]


def hhat_plus(l: int, x) -> np.ndarray:
    """Riccati-Hankel function x h_l^(1)(x) ~ (-i)^{l+1} e^{ix}."""
    x = _asarray(x)
    if l == 0:
        return -1j * np.exp(1j * x)
    if l == 1:
        return -np.exp(1j * x) * (1.0 + 1j / x)
    return _recur_pair(l, x, hhat_plus(0, x), hhat_plus(1, x))[1]


def free_decay(l: int, alpha: float, r) -> np.ndarray:
    """Decaying free solution with unit coefficient, exp(-alpha r) times
    the exact inverse-power dressing for l > 0.

    This is i^{l+1} hhat_l^+(i alpha r); for l = 0 it is exp(-alpha r)
    and for l = 1 it is exp(-alpha r) (1 + 1/(alpha r)).
    """
    z = 1j * alpha * np.asarray(r, dtype=float)
    return ((1j) ** (l + 1) * hhat_plus(l, z)).real


def free_decay_d(l: int, alpha: float, r) -> np.ndarray:
    """d/dr of free_decay."""
    z = 1j * alpha * np.asarray(r, dtype=float)
    return ((1j) ** (l + 1) * 1j * alpha * hhat_plus_d(l, z)).real


def _recur_pair(l: int, x, z0, z1):
    """Return (z_{l-1}, z_l) by upward recurrence from (z_0, z_1)."""
    for m in range(1, l):
        z0, z1 = z1, (2 * m + 1) / x * z1 - z0
    return z0, z1


def jhat_d(l: int, x) -> np.ndarray:
    """d/dx of jhat_l."""
    x = _asarray(x)
    if l == 0:
        return np.cos(x)
    if l == 1:
        small = np.abs(x) < _SMALL
        xs = np.where(small, 1.0, x)
        direct = np.cos(xs) / xs - np.sin(xs) / (xs * xs) + np.sin(xs)
        x2 = x * x
        series = 2.0 * x / 3.0 * (1.0 - x2 / 5.0 * (1.0 - 3.0 * x2 / 56.0))
        return np.where(small, series, direct)
    zp, zl = _recur_pair(l, x, jhat(0, x), jhat(1, x))
    return zp - l / x * zl


def hhat_plus_d(l: int, x) -> np.ndarray:
    """d/dx of hhat_l(+)."""
    x = _asarray(x)
    if l == 0:
        return np.exp(1j * x)
    if l == 1:
        return np.exp(1j * x) * (-1j + 1.0 / x + 1j / (x * x))
    zp, zl = _recur_pair(l, x, hhat_plus(0, x), hhat_plus(1, x))
    return zp - l / x * zl


def double_factorial_odd(l: int) -> float:
    """(2l + 1)!! as a float."""
    out = 1.0
    for m in range(1, 2 * l + 2, 2):
        out *= m
    return out
