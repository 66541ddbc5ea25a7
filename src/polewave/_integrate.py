"""Fourth-order kernels: Numerov marching, difference stencils, Simpson
quadrature, and the Taylor step used to carry a solution across a
potential discontinuity.

Everything here works on arrays whose leading axis runs over grid nodes
and whose trailing axis (if any) is a batch of momenta. The columns of a
batch never interact, but a Numerov sweep takes one of three paths by
the batch's width and dtype, and runs in float or complex arithmetic by
its dtypes (see numerov): a column of a batch wider than _WIDE and a
real batch of one momentum round as the node-by-node row loop does, a
column of any other batch as the blocked march does.
"""

from __future__ import annotations

import numpy as np

from .errors import GridError


#: a Numerov batch of at most this many momenta is marched in blocks
_WIDE = 32
#: nodes per block of the blocked march
_BLOCK = 32


def numerov(u0, u1, w, h: float, out=None) -> np.ndarray:
    """March u'' = w u across the nodes of w (leading axis) and return
    the values.

    u0 and u1 are the values on the first two nodes, in marching order;
    for an inward sweep pass w reversed and a reversed view as out. The
    local error is O(h^6), the global error O(h^4). w is consumed: it
    must be a fresh float or complex array, and g = 1 - h^2 w / 12 is
    built in it. The values are written into out, an array of w's shape
    whose first two rows may be u0 and u1 themselves, or else into a new
    array. The march runs in the dtypes of w and of the values: float64
    throughout where w and the seeds are real, as the radial sweeps make
    them wherever every k^2 of a batch is real.

    The recurrence is g[j+1] u[j+1] = c[j] u[j] - g[j-1] u[j-1] with
    c = 12 - 10 g. A batch of more than _WIDE momenta runs it node by
    node, one numpy step per node (_march_rows). A real batch of one
    momentum runs the same operations in the same order on Python floats
    (_march_floats), bit for bit the row loop. Any other batch, where
    the row loop's numpy steps cost far more than their arithmetic, is
    marched in blocks of _BLOCK nodes (_march_blocks): the same
    recurrence, associated differently. Its values differ from the row
    loop's in the last bits, so a column's rounding depends on the
    width and dtype of its batch; within one path, a sweep cut short at
    any node equals the same nodes of the longer sweep bit for bit,
    because the row loops never look ahead and the blocks are anchored
    at node 0.

    Loop / blocked CPU time per call of complex sweeps, median of 21 to
    41 interleaved calls (2 vCPU, numpy 2.4.6). From 1381 nodes up the
    blocked march wins at every width up to 64; it ties at 300 nodes and
    48 momenta and loses at 100 nodes, which cost little either way.
    B = 32 ties B = 64 on long sweeps and beats it on short ones:

        nodes  momenta  loop ms   B = 16   B = 32   B = 64
        6401      1      20.1      7.2x    11.0x    11.4x
        6401      8      19.6      3.8x     4.9x     5.3x
        6401     32      20.9      1.8x     2.4x     2.3x
        6401     64      24.3      1.2x     1.3x     1.4x
        1381      1       4.0      5.5x     5.3x     3.5x
        1381     32       4.3      1.9x     2.0x     1.8x
        1381     64       5.0      1.4x     1.4x     1.3x
         300      1       0.82     2.4x     1.5x     0.8x
         300     48       0.91     1.2x     1.0x     0.6x
         100      1       0.28     1.0x     0.5x     0.3x

    One real momentum, blocked against Python floats, CPU ms per call,
    median of 5 interleaved medians of 40 (2 vCPU, numpy 2.4, Python
    3.11). The blocked march's fixed cost, about 60 numpy calls, is
    most of a short sweep; the two tie at 12800 nodes:

        nodes   blocked   floats
          130     0.34     0.023
          260     0.35     0.042
          520     0.37     0.079
         1300     0.44     0.19
         4000     0.91     0.64
         6400     1.21     0.96
        12800     1.80     1.80

    Python floats cost in proportion to the width, so wider batches stay
    blocked: five momenta of 4000 nodes take 2.9 ms as five float
    marches and 1.1 ms blocked. A complex momentum stays blocked too:
    its column must round as it does in a wider blocked batch (the
    complex step of radial._jost_derivative), and Python complex
    numbers take 3.4 ms at 12800 nodes against 2.0 ms blocked.

    In float64 against complex, ms per call, median of 9 to 15
    interleaved calls (one run; timings on that host vary by tens of
    percent between runs). Float saves 28 to 52 % blocked from 8 momenta
    up, 10 to 54 % in the loop from 32 up. The loop on row views took 11
    to 22 % less than the indexed loop it replaced, on every row:

        nodes  momenta     loop ms          blocked ms
                        complex  float    complex  float
        6401      1       19.9   18.2       1.9    1.6
        6401      8       19.7   18.9       4.3    3.1
        6401     32       21.4   19.3      10.6    5.5
        6401     64       24.4   20.2      18.9    9.1
        6401    300       45.7   33.6
       12801    300      105.9   49.1
        1381      1        4.1    2.8       0.85   0.55
        1381     32        3.1    2.9       1.9    1.2

    Rounding, as the largest error over the column's maximum against a
    long-double run of the same recurrence on the same g and c, over 128
    regular sweeps of five wells (l = 0 and 2, 8 momenta): the row loop
    reaches 2.5e-10 (k = 0.3i, 6145 nodes), the blocked march 2.3e-10.
    Per sweep the blocked error has median 0.94x the loop's and is at
    most 6.5 x max(loop error, n eps). The unit basis (1, 0), (0, 1) in
    place of _march_blocks' (value, difference) basis gave median 4.4x
    and up to 635x the loop's error.
    """
    g = w
    g *= -(h * h / 12.0)
    g += 1.0
    u = np.empty(w.shape, dtype=np.result_type(u0, u1, w, float)) if out is None else out
    u[0] = u0
    u[1] = u1
    if u[0].size > _WIDE:
        _march_rows(u, g)
    elif u[0].size == 1 and u.dtype == float:
        _march_floats(u, g)
    else:
        _march_blocks(u, g)
    return u


def _c_of(g):
    """c = 12 - 10 g of the Numerov recurrence, with no temporary."""
    c = np.multiply(g, -10.0)
    c += 12.0
    return c


def _march_rows(u, g) -> None:
    """Fill u[2:] from u[0], u[1] by the Numerov recurrence, one numpy
    step per node across the batch, written in place through row views."""
    c = _c_of(g)
    for cj, gp, gn, up, uj, un in zip(c[1:-1], g, g[2:], u, u[1:], u[2:]):
        np.divide(cj * uj - gp * up, gn, out=un)


def _march_floats(u, g) -> None:
    """Fill u[2:] of one real momentum from u[0], u[1]: the row loop's
    operations in its order, on Python floats, written back at once.

    Python refuses a division by zero where numpy returns inf or nan; at
    a vanishing g the row loop then runs instead, so the values carry
    numpy's inf and nan and the sweep's finiteness check refuses them.
    """
    gs = g.ravel().tolist()
    us = u[:2].ravel().tolist()
    a, b = us
    try:
        for gp, gj, gn in zip(gs, gs[1:], gs[2:]):
            a, b = b, ((gj * -10.0 + 12.0) * b - gp * a) / gn
            us.append(b)
    except ZeroDivisionError:
        _march_rows(u, g)
        return
    u[2:] = np.reshape(us[2:], u[2:].shape)


def _march_blocks(u, g) -> None:
    """Fill u[2:] from u[0], u[1] by the Numerov recurrence in blocks of
    _BLOCK nodes anchored at node 0, in three passes (the transfer-matrix
    scan of G. Blelloch, "Prefix sums and their applications",
    CMU-CS-90-190):

    1. in every block at once, march the two solutions that start from
       (1, 1) and (0, 1) on the block's first two nodes through the first
       two nodes of the next block;
    2. carry the state (u[p], u[p + 1]) from block to block;
    3. fill every node as a e_1 + d e_2, with a = u[p], d = u[p+1] - u[p].

    The (value, difference) basis keeps the fill free of cancellation:
    e_1 stays near 1 and e_2 near the node offset, where the unit basis
    (1, 0), (0, 1) has e_1 near 1 - i and e_2 near i, which cancel.
    Every array the passes read is a strided view of g or u, and c is
    built one strided row of blocks at a time, so the march holds u, g
    and the two basis solutions, where the row loop holds u, g and c.
    """
    n, B = u.shape[0], _BLOCK
    m = -(-n // B)
    # e[i, s, b] is basis solution s of block b on its node i; rows past
    # the sweep's end stay 0 and feed only states that are never stored
    e = np.zeros((B + 2, 2, m) + u.shape[1:], dtype=g.dtype)
    e[0, 0] = 1.0
    e[1] = 1.0
    for i in range(1, B + 1):
        gn = g[i + 1 :: B]
        k = gn.shape[0]
        if k == 0:
            break
        nxt = e[i + 1, :, :k]
        np.multiply(_c_of(g[i::B][:k]), e[i, :, :k], out=nxt)
        nxt -= g[i - 1 :: B][:k] * e[i - 1, :, :k]
        nxt /= gn
    # state[b] = (u[bB], u[bB + 1]); ends[b, s] = e_s on the next block's
    # first two nodes
    state = np.empty((m, 2) + u.shape[1:], dtype=u.dtype)
    state[0] = u[:2]
    ends = e[B : B + 2].swapaxes(0, 2)
    for b in range(m - 1):
        a = state[b, 0]
        np.multiply(ends[b, 0], a, out=state[b + 1])
        state[b + 1] += ends[b, 1] * (state[b, 1] - a)
    a = state[:, 0]
    d = state[:, 1] - a
    u[B::B] = a[1:]
    u[B + 1 :: B] = state[1 : len(u[1::B]), 1]
    for i in range(2, B):
        dst = u[i::B]
        k = dst.shape[0]
        if k == 0:
            break
        np.multiply(a[:k], e[i, 0, :k], out=dst)
        dst += d[:k] * e[i, 1, :k]


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
