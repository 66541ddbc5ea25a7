"""Fourth-order kernels: Numerov marching, difference stencils, Simpson
quadrature, and the Taylor step used to carry a solution across a
potential discontinuity.

Everything here works on arrays whose leading axis runs over grid nodes
and whose trailing axis (if any) is a batch of momenta, so one python
loop over nodes serves an entire momentum grid at once.
"""

from __future__ import annotations

import numpy as np

from .errors import GridError


def numerov(u0, u1, w, h: float) -> np.ndarray:
    """March u'' = w u across the nodes of w (leading axis).

    u0 and u1 are the values on the first two nodes, in marching order;
    for an inward sweep pass w reversed and flip the result. The local
    error is O(h^6), the global error O(h^4).
    """
    g = 1.0 - (h * h / 12.0) * w
    c = 12.0 - 10.0 * g
    u = np.empty(w.shape, dtype=np.result_type(u0, u1, w, float))
    u[0] = u0
    u[1] = u1
    for j in range(1, w.shape[0] - 1):
        u[j + 1] = (c[j] * u[j] - g[j - 1] * u[j - 1]) / g[j + 1]
    return u


def deriv_central(u, i: int, h: float):
    """First derivative at node i, five-point central, O(h^4)."""
    return (u[i - 2] - 8.0 * u[i - 1] + 8.0 * u[i + 1] - u[i + 2]) / (12.0 * h)


def deriv_forward(u, i: int, h: float):
    """First derivative at node i using nodes i..i+4, O(h^4)."""
    return (
        -25.0 * u[i] + 48.0 * u[i + 1] - 36.0 * u[i + 2] + 16.0 * u[i + 3] - 3.0 * u[i + 4]
    ) / (12.0 * h)


def deriv_backward(u, i: int, h: float):
    """First derivative at node i using nodes i-4..i, O(h^4)."""
    return (
        25.0 * u[i] - 48.0 * u[i - 1] + 36.0 * u[i - 2] - 16.0 * u[i - 3] + 3.0 * u[i - 4]
    ) / (12.0 * h)


def simpson(y, h: float):
    """Integral of y over uniform nodes of spacing h (leading axis) by
    composite Simpson's rule, O(h^4).

    An even node count leaves one interval over; it is taken by the
    Cartwright correction h/12 (5 y[-1] + 8 y[-2] - y[-3]), the three-node
    quadratic fit that scipy >= 1.11 uses on uniform nodes.
    """
    y = np.asarray(y)
    n = y.shape[0]
    if n < 3:
        raise GridError(f"Simpson's rule needs at least 3 nodes, got {n}")
    m = n if n % 2 else n - 1
    total = (h / 3.0) * np.sum(y[0 : m - 2 : 2] + 4.0 * y[1 : m - 1 : 2] + y[2:m:2], axis=0)
    if m < n:
        total = total + (h / 12.0) * (5.0 * y[-1] + 8.0 * y[-2] - y[-3])
    return total


def taylor_step(u, du, s: float, w0, w1, w2):
    """Value of the solution of u'' = w u at signed distance s from a
    point with data (u, u'), where w has the one-sided expansion
    w0 + w1 x + w2 x^2 / 2 on the side being stepped into.

    Accurate to O(s^5), which a fourth-order sweep tolerates at a
    bounded number of interface crossings.
    """
    s2 = s * s
    cu = 1.0 + w0 * s2 / 2.0 + w1 * s * s2 / 6.0 + (w2 + w0 * w0) * s2 * s2 / 24.0
    cdu = s + w0 * s * s2 / 6.0 + w1 * s2 * s2 / 12.0
    return u * cu + du * cdu
