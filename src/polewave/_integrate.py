"""Fourth-order kernels: Numerov marching, difference stencils, Simpson
quadrature, and the Taylor step used to carry a solution across a
potential discontinuity.

Everything here works on arrays whose leading axis runs over grid nodes
and whose trailing axis (if any) is a batch of momenta. The columns of a
batch never interact. A Numerov sweep marches y = g u by the renormalised
recurrence y[j+1] = U[j] y[j] - y[j-1] (B. R. Johnson, J. Chem. Phys. 69,
4678 (1978)) on one of three paths by the batch's width and dtype, in
float or complex arithmetic by its dtypes (see numerov): a column of a
batch wider than _WIDE and a real batch of one momentum round as the
node-by-node row loop does, a column of any other batch as the blocked
march does.
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
    must be a fresh float or complex array, and U is built in it. The
    values are written into out, an array of w's shape whose first two
    rows may be u0 and u1 themselves, or else into a new array; rows 0
    and 1 come back as the seeds bit for bit. The march runs in the
    dtypes of w and of the values: float64 throughout where w and the
    seeds are real, as the radial sweeps make them wherever every k^2 of
    a batch is real.

    Numerov's recurrence g[j+1] u[j+1] = (12 - 10 g[j]) u[j] - g[j-1]
    u[j-1], with g = 1 - h^2 w / 12, is marched in B. R. Johnson's
    renormalised form (J. Chem. Phys. 69, 4678 (1978)): y = g u obeys
    y[j+1] = U[j] y[j] - y[j-1] with U = 2 + h^2 w / g, one multiply and
    one subtract per node, and u = y / g at the end. U is built only on
    nodes 1 to n - 2, the ones the march reads, and as 2 + h^2 w / g:
    the equal 12 / g - 10 rounds U at 12 eps, and on the sweeps of
    tests/test_integrate.py its worst column then erred by 2.0e-10 in
    float against 2.2e-11.

    A batch of more than _WIDE momenta runs the recurrence node by node,
    one numpy step per node (_march_rows). A real batch of one momentum
    runs the same operations in the same order on Python floats
    (_march_floats), bit for bit the row loop. Any other batch, where
    the row loop's numpy steps cost far more than their arithmetic, is
    marched in blocks of _BLOCK nodes (_march_blocks): the same
    recurrence, associated differently. Its values differ from the row
    loop's in the last bits, so a column's rounding depends on the
    width and dtype of its batch; within one path, a sweep cut short at
    any node equals the same nodes of the longer sweep bit for bit,
    because the row loops never look ahead and the blocks are anchored
    at node 0.

    Loop / blocked CPU ms per call, median of 15 interleaved calls
    (2 vCPU, numpy 2.4.6, Python 3.11). The blocked march wins at every
    width up to 32; the loop wins in complex from 64 momenta up and in
    float from about 128 up. Float saves 9 to 64 % against complex on
    either path from 8 momenta up. B = 32 was chosen on complex sweeps of
    the plain recurrence, where it tied B = 64 on long sweeps and beat
    it on short ones:

        nodes  momenta     loop ms          blocked ms
                        complex  float    complex  float
        6401      1        9.1    9.0       1.0    0.94
        6401      8        6.8    6.2       2.5    1.7
        6401     32       10.4    6.8       7.6    3.0
        6401     64       11.8    7.5      13.7    5.0
        6401    128       18.2   11.2      27.1   11.5
        6401    300       39.4   16.8      76.9   29.1
        1381      1        2.0    1.9       0.39   0.37
        1381      8        1.5    1.3       0.79   0.50
        1381     32        2.3    1.6       2.0    0.86
        1381     64        3.0    1.6       3.6    1.3

    One real momentum, blocked against Python floats, CPU ms per call,
    median of 11 interleaved calls (same host). The blocked march's
    fixed cost, two passes of _BLOCK numpy steps, is most of a short
    sweep; the floats stay ahead up to 12800 nodes:

        nodes   blocked   floats
          130     0.23     0.033
          260     0.23     0.040
          520     0.26     0.063
         1300     0.32     0.13
         4000     0.60     0.35
         6400     0.89     0.56
        12800     1.66     1.18

    Python floats cost in proportion to the width, so wider batches stay
    blocked: five momenta of 4000 nodes take 1.8 ms as five float
    marches and 1.0 ms blocked. A complex momentum stays blocked too:
    its column must round as it does in a wider blocked batch (the
    complex step of radial._jost_derivative).

    Rounding, as the largest error over the column's maximum against a
    long-double march of the plain recurrence on g and c built in long
    double from w, over 128 regular sweeps of five wells to the end of
    the grid (l = 0 and 2, 8 momenta): the row loop reaches 1.6e-9 and
    the blocked march 1.7e-9 (0.3i on deep30, 12289 nodes), where the
    plain recurrence in float64 reached 7.5e-9. Per sweep the blocked
    error has median 1.07x the loop's and is at most 20 x max(loop
    error, n eps); on that sweep the loop errs by 2.0e-12 and the plain
    recurrence by 1.6e-9. On the plain recurrence, the unit basis
    (1, 0), (0, 1) in place of _march_blocks' (value, difference) basis
    gave median 4.4x and up to 635x the loop's error.
    """
    g = np.multiply(w, -(h * h / 12.0))
    g += 1.0
    U = w
    U[1:-1] *= h * h
    U[1:-1] /= g[1:-1]
    U[1:-1] += 2.0
    u = np.empty(w.shape, dtype=np.result_type(u0, u1, w, float)) if out is None else out
    u[0] = u0
    u[1] = u1
    # y = g u is marched in u; y / g would round rows 0 and 1, which
    # may be the caller's seeds, so they are put back from a copy
    seeds = u[:2].copy()
    u[:2] *= g[:2]
    if u[0].size > _WIDE:
        _march_rows(u, U)
    elif u[0].size == 1 and u.dtype == float:
        _march_floats(u, U)
    else:
        _march_blocks(u, U)
    u[2:] /= g[2:]
    u[:2] = seeds
    return u


def _march_rows(y, U) -> None:
    """Fill y[2:] from y[0], y[1] by y[j+1] = U[j] y[j] - y[j-1], one
    numpy step per node across the batch, written in place through row
    views."""
    for Uj, yp, yj, yn in zip(U[1:-1], y, y[1:], y[2:]):
        np.multiply(Uj, yj, out=yn)
        yn -= yp


def _march_floats(y, U) -> None:
    """Fill y[2:] of one real momentum from y[0], y[1]: the row loop's
    operations in its order, on Python floats, written back at once."""
    ys = y[:2].ravel().tolist()
    a, b = ys
    for Uj in U[1:-1].ravel().tolist():
        a, b = b, Uj * b - a
        ys.append(b)
    y[2:] = np.reshape(ys[2:], y[2:].shape)


def _march_blocks(y, U) -> None:
    """Fill y[2:] from y[0], y[1] by y[j+1] = U[j] y[j] - y[j-1] in
    blocks of _BLOCK nodes anchored at node 0, in three passes (the
    transfer-matrix scan of G. Blelloch, "Prefix sums and their
    applications", CMU-CS-90-190):

    1. in every block at once, march the two solutions that start from
       (1, 1) and (0, 1) on the block's first two nodes through the first
       two nodes of the next block;
    2. carry the state (y[p], y[p + 1]) from block to block;
    3. fill every node as a e_1 + d e_2, with a = y[p], d = y[p+1] - y[p].

    The (value, difference) basis keeps the fill free of cancellation:
    e_1 stays near 1 and e_2 near the node offset, where the unit basis
    (1, 0), (0, 1) has e_1 near 1 - i and e_2 near i, which cancel.
    Every array the passes read is a strided view of U or y, so the
    march holds y, U and g and the two basis solutions, where the row
    loop holds y, U and g.
    """
    n, B = y.shape[0], _BLOCK
    m = -(-n // B)
    # e[i, s, b] is basis solution s of block b on its node i; rows past
    # the sweep's end stay 0 and feed only states that are never stored
    e = np.zeros((B + 2, 2, m) + y.shape[1:], dtype=U.dtype)
    e[0, 0] = 1.0
    e[1] = 1.0
    for i in range(1, B + 1):
        k = len(y[i + 1 :: B])
        if k == 0:
            break
        nxt = e[i + 1, :, :k]
        np.multiply(U[i::B][:k], e[i, :, :k], out=nxt)
        nxt -= e[i - 1, :, :k]
    # state[b] = (y[bB], y[bB + 1]); ends[b, s] = e_s on the next block's
    # first two nodes
    state = np.empty((m, 2) + y.shape[1:], dtype=y.dtype)
    state[0] = y[:2]
    ends = e[B : B + 2].swapaxes(0, 2)
    for b in range(m - 1):
        a = state[b, 0]
        np.multiply(ends[b, 0], a, out=state[b + 1])
        state[b + 1] += ends[b, 1] * (state[b, 1] - a)
    a = state[:, 0]
    d = state[:, 1] - a
    y[B::B] = a[1:]
    y[B + 1 :: B] = state[1 : len(y[1::B]), 1]
    for i in range(2, B):
        dst = y[i::B]
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
