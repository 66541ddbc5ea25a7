"""Reference values computed apart from polewave.

Nothing here imports polewave. The square well and the 1D square well
come from their closed-form matching conditions, the exponential well
from the zero of J_nu(2 a sqrt(U0)), and the gaussian well from
shooting with scipy's DOP853 integrator. The gaussian alphas are stored
in reference_values.json; remake and compare them with

    python3 perfbench/reference.py --remake

Units are hbar = 2m = 1 and U(r) = -depth * shape(r / radius), as in the
program. Sturm node counts of the zero-energy regular solution give the
number of bound states by a path that shares no code with the search.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq
from scipy.special import jv

STORED = Path(__file__).with_name("reference_values.json")


def _roots(fn, lo: float, hi: float, n: int = 4000) -> list[float]:
    """All sign changes of fn on [lo, hi], refined by brentq, largest first."""
    xs = np.linspace(lo, hi, n)
    vals = [fn(x) for x in xs]
    out = []
    for x0, x1, f0, f1 in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if f0 * f1 < 0.0:
            out.append(brentq(fn, x0, x1, xtol=1e-15, rtol=1e-15))
    return sorted(out, reverse=True)


# ------------------------------------------------------------ square well


def _jhat1(x):
    return math.sin(x) / x - math.cos(x)


def _jhat1_d(x):
    return math.cos(x) / x - math.sin(x) / (x * x) + math.sin(x)


def _yhat1(x):
    return -math.cos(x) / x - math.sin(x)


def _yhat1_d(x):
    return math.cos(x) / (x * x) + math.sin(x) / x - math.cos(x)


def _decay1(alpha, r):
    return math.exp(-alpha * r) * (1.0 + 1.0 / (alpha * r))


def _decay1_d(alpha, r):
    return -alpha * _decay1(alpha, r) - math.exp(-alpha * r) / (alpha * r * r)


def square_condition(depth: float, radius: float, l: int, alpha: float) -> float:
    """Matching condition at the edge; its zeros are the bound alphas."""
    a = radius
    big = math.sqrt(depth - alpha * alpha)
    if l == 0:
        return big * math.cos(big * a) + alpha * math.sin(big * a)
    return big * _jhat1_d(big * a) * _decay1(alpha, a) - _jhat1(big * a) * _decay1_d(alpha, a)


def square_alphas(depth: float, radius: float, l: int) -> list[float]:
    """Bound-state alphas of the radial square well at l = 0 or 1, deepest first."""
    top = math.sqrt(depth)
    return _roots(lambda x: square_condition(depth, radius, l, x), 1e-9 * top, top * (1 - 1e-12))


def square_norm(depth: float, radius: float, l: int, alpha: float) -> float:
    """Asymptotic coefficient N of the unit-norm state, u -> N exp(-alpha r) (l = 0)
    or N exp(-alpha r)(1 + 1/(alpha r)) (l = 1)."""
    a = radius
    big = math.sqrt(depth - alpha * alpha)
    if l == 0:
        amp = math.exp(-alpha * a) / math.sin(big * a)
        inner = amp * amp * (a / 2.0 - math.sin(2.0 * big * a) / (4.0 * big))
        outer = math.exp(-2.0 * alpha * a) / (2.0 * alpha)
    else:
        amp = _decay1(alpha, a) / _jhat1(big * a)
        inner = quad(lambda r: (amp * _jhat1(big * r)) ** 2, 0.0, a, epsabs=0, epsrel=1e-13)[0]
        outer = math.exp(-2.0 * alpha * a) * (1.0 / (2.0 * alpha) + 1.0 / (alpha * alpha * a))
    return 1.0 / math.sqrt(inner + outer)


def square_phase(depth: float, radius: float, l: int, k) -> np.ndarray:
    """Phase shift delta_l(k) mod pi, from the logarithmic derivative at the edge."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    a = radius
    big = np.sqrt(k * k + depth)
    if l == 0:
        return np.arctan2(k * np.sin(big * a), big * np.cos(big * a)) - k * a
    out = np.empty_like(k)
    for i, (kk, kb) in enumerate(zip(k, big)):
        num = kb * _jhat1_d(kb * a) * _jhat1(kk * a) - kk * _jhat1_d(kk * a) * _jhat1(kb * a)
        den = kb * _jhat1_d(kb * a) * _yhat1(kk * a) - kk * _yhat1_d(kk * a) * _jhat1(kb * a)
        out[i] = math.atan2(num, den)
    return out


def square_wave_l0(depth: float, radius: float, k: float, r) -> np.ndarray:
    """s-wave physical wave, sin(k r + delta)/k outside and matched inside."""
    r = np.asarray(r, dtype=float)
    big = math.sqrt(k * k + depth)
    delta = float(square_phase(depth, radius, 0, k)[0])
    edge = math.sin(k * radius + delta) / k
    inside = edge / math.sin(big * radius) * np.sin(big * r)
    return np.where(r < radius, inside, np.sin(k * r + delta) / k)


def free_wave(l: int, k, r: float, delta) -> np.ndarray:
    """(jhat_l(k r) cos delta - yhat_l(k r) sin delta) / k, the form every
    s- or p-wave physical wave takes where U = 0."""
    x = np.asarray(k) * r
    if l == 0:
        j, y = np.sin(x), -np.cos(x)
    else:
        j, y = np.sin(x) / x - np.cos(x), -np.cos(x) / x - np.sin(x)
    return (j * np.cos(delta) - y * np.sin(delta)) / np.asarray(k)


def line_square_alphas(depth: float, radius: float, parity: str) -> list[float]:
    """Bound alphas of U(x) = -depth for |x| < radius on the line."""
    top = math.sqrt(depth)

    def cond(alpha):
        big = math.sqrt(depth - alpha * alpha)
        if parity == "even":
            return big * math.sin(big * radius) - alpha * math.cos(big * radius)
        return big * math.cos(big * radius) + alpha * math.sin(big * radius)

    return _roots(cond, 1e-9 * top, top * (1 - 1e-12))


def line_square_norm(depth: float, radius: float, parity: str, alpha: float) -> float:
    """N with 2 * integral_0^inf (N u)^2 = 1 for the state with tail e^{-alpha x}."""
    a = radius
    big = math.sqrt(depth - alpha * alpha)
    s = 1.0 if parity == "even" else -1.0
    edge = math.cos(big * a) if parity == "even" else math.sin(big * a)
    amp = math.exp(-alpha * a) / edge
    inner = amp * amp * (a / 2.0 + s * math.sin(2.0 * big * a) / (4.0 * big))
    outer = math.exp(-2.0 * alpha * a) / (2.0 * alpha)
    return 1.0 / math.sqrt(2.0 * (inner + outer))


def line_square_even_phase(depth: float, radius: float, k) -> np.ndarray:
    """Even-channel phase mod pi: cos(K x) inside, cos(k x + delta) outside."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    big = np.sqrt(k * k + depth)
    return np.arctan2(big * np.sin(big * radius), k * np.cos(big * radius)) - k * radius


def phase_gap(a, b) -> np.ndarray:
    """|a - b| reduced mod pi, the distance between two phase shifts."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return np.abs((d + math.pi / 2) % math.pi - math.pi / 2)


# ------------------------------------------------------- exponential well


def exp_alpha(depth: float, radius: float) -> float:
    """Ground-state alpha of -depth exp(-r/radius): the largest nu with
    J_nu(2 a sqrt(U0)) = 0 gives alpha = nu / (2 a)."""
    z0 = 2.0 * radius * math.sqrt(depth)
    nus = _roots(lambda nu: jv(nu, z0), 1e-6, z0)
    return nus[0] / (2.0 * radius)


# ------------------------------------------------------ shooting (any U)


def _shape(kind: str, depth: float, radius: float):
    if kind == "gaussian":
        return lambda r: -depth * math.exp(-((r / radius) ** 2))
    if kind == "exponential":
        return lambda r: -depth * math.exp(-r / radius)
    if kind == "square":
        return lambda r: -depth if r < radius else 0.0
    raise ValueError(kind)


def _shoot(u_fn, l: int, e: float, y0, r0: float, r1: float, breaks=(), t_eval=None):
    """Integrate u'' = (U + l(l+1)/r^2 - e) u from r0 to r1, restarting
    at each break so a jump in U is crossed exactly."""
    def rhs(r, y):
        cf = l * (l + 1) / (r * r) if l else 0.0
        return [y[1], (u_fn(r) + cf - e) * y[0]]

    edges = [r0] + [b for b in breaks if r0 < b < r1] + [r1]
    y = list(y0)
    ts, us = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        pts = None if t_eval is None else t_eval[(t_eval >= a) & (t_eval <= b)]
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-13, atol=1e-16, t_eval=pts)
        if not sol.success:
            raise RuntimeError(sol.message)
        y = [sol.y[0, -1], sol.y[1, -1]]
        if t_eval is not None:
            ts.append(sol.t)
            us.append(sol.y[0])
    return y, (np.concatenate(us) if t_eval is not None else None)


def shooting_alpha(kind: str, depth: float, radius: float, parity: str, r_out: float = 10.0) -> float:
    """Ground-state alpha by shooting from the origin: radial s-wave /
    odd parity start u = 0, u' = 1; even parity starts u = 1, u' = 0.
    The decaying solution satisfies u' + alpha u = 0 where U has died out."""
    u_fn = _shape(kind, depth, radius)
    y0 = (1.0, 0.0) if parity == "even" else (0.0, 1.0)

    def mismatch(alpha):
        (u, du), _ = _shoot(u_fn, 0, -alpha * alpha, y0, 0.0, r_out)
        return (du + alpha * u) * math.exp(-alpha * r_out)

    top = math.sqrt(depth)
    return _roots(mismatch, 1e-3 * top, top * (1 - 1e-9), n=200)[0]


def shooting_phase(kind: str, depth: float, radius: float, k: float, r_out: float = 20.0) -> float:
    """s-wave phase shift at momentum k by shooting u(0) = 0, u'(0) = 1 out
    to r_out, where u = A sin(k r + delta)."""
    (u, du), _ = _shoot(_shape(kind, depth, radius), 0, k * k, (0.0, 1.0), 0.0, r_out)
    return math.atan2(k * u, du) - k * r_out


def sturm_count(kind: str, depth: float, radius: float, l: int, r_max: float) -> int:
    """Bound states at angular momentum l, as the nodes on (0, inf) of the
    zero-energy regular solution (Sturm oscillation). Nodes inside r_max
    are counted on a fine sample; beyond it U is negligible and the
    solution A r^{l+1} + B r^{-l}, which has one more node iff A B < 0
    and its zero (-B/A)^{1/(2l+1)} lies beyond r_max."""
    u_fn = _shape(kind, depth, radius)
    r0 = 1e-4
    y0 = (r0 ** (l + 1), (l + 1) * r0**l)
    pts = np.linspace(r0, r_max, 20001)
    breaks = (radius,) if kind == "square" else ()
    (u, du), us = _shoot(u_fn, l, 0.0, y0, r0, r_max, breaks, pts)
    nodes = int(np.count_nonzero(us[:-1] * us[1:] < 0.0))
    # u = A R^{l+1} + B R^{-l}, du = (l+1) A R^l - l B R^{-l-1}
    big_a = (l * u / r_max + du) / ((2 * l + 1) * r_max**l)
    big_b = (u - big_a * r_max ** (l + 1)) * r_max**l
    if big_a * big_b < 0.0 and (-big_b / big_a) ** (1.0 / (2 * l + 1)) > r_max:
        nodes += 1
    return nodes


# ------------------------------------------------------------ stored set


def remake() -> dict:
    return {
        "remake": "python3 perfbench/reference.py --remake",
        "method": "scipy solve_ivp DOP853, rtol 1e-13, matched to u' + alpha u = 0 at r = 10",
        "gaussian_4_1_radial_l0_alpha": shooting_alpha("gaussian", 4.0, 1.0, "odd"),
        "gaussian_4_1_line_even_alpha": shooting_alpha("gaussian", 4.0, 1.0, "even"),
    }


def stored() -> dict:
    return json.loads(STORED.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--remake"]:
        sys.exit("usage: python3 perfbench/reference.py --remake")
    fresh = remake()
    old = stored() if STORED.exists() else {}
    for key, val in fresh.items():
        if isinstance(val, float) and key in old:
            print(f"{key}: {val!r} (stored {old[key]!r}, gap {abs(val - old[key]):.1e})")
    STORED.write_text(json.dumps(fresh, indent=1) + "\n")
