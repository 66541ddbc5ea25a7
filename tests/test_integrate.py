"""Quadrature on uniform nodes against scipy and against exact integrals,
and the Numerov kernel against its node-by-node recurrence."""

import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson

from polewave._integrate import _BLOCK, _WIDE, numerov, simpson
from polewave.errors import GridError


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 64, 65, 4000, 4001])
def test_simpson_matches_scipy_on_uniform_nodes(n):
    """Odd node counts are composite Simpson; even ones end with the
    Cartwright interval, as scipy >= 1.11 does."""
    h = 2.5 / (n - 1)
    x = 0.3 + h * np.arange(n)
    y = np.exp(-x) * np.sin(3.0 * x) + x**2
    ref = scipy_simpson(y, x=x)
    assert simpson(y, h) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("n", [3, 5, 9, 101])
def test_simpson_is_exact_for_cubics(n):
    h = 1.7 / (n - 1)
    x = -0.4 + h * np.arange(n)
    y = 2.0 - 3.0 * x + 0.5 * x**2 + 4.0 * x**3
    lo, hi = x[0], x[-1]
    exact = np.polyval([1.0, 0.5 / 3.0, -1.5, 2.0, 0.0], hi) - np.polyval(
        [1.0, 0.5 / 3.0, -1.5, 2.0, 0.0], lo
    )
    assert simpson(y, h) == pytest.approx(exact, rel=1e-14, abs=1e-14)


def test_simpson_refuses_two_nodes():
    with pytest.raises(GridError):
        simpson(np.array([1.0, 2.0]), 0.1)


H = 1.0 / 256.0
#: real, imaginary and complex momenta; 6i grows by e^{0.75} per block
K_MIXED = np.array([0.3j, 1j, 3j, 6j, 0.5, 2.0, 8.0, 1.0 + 1.0j])
#: the momenta of K_MIXED on the two axes, where k^2 is real
K_AXES = K_MIXED[:-1]


def _sweep_input(n, k, l=0, dtype=complex):
    """Seeds and w = U + l(l+1)/r^2 - k^2 of a gaussian well on the
    nodes r = h, 2h, ..., nh, as the radial sweeps build them; float
    ones for momenta whose k^2 is real."""
    k2 = np.atleast_1d(k) ** 2
    k2 = k2.real if dtype is float else k2
    r = H * np.arange(1, n + 1)
    w = (-4.0 * np.exp(-r * r) + l * (l + 1) / (r * r))[:, None] - k2
    u0 = np.full(k2.shape, r[0] ** (l + 1), dtype=dtype)
    u1 = np.full(k2.shape, r[1] ** (l + 1), dtype=dtype)
    return u0, u1, w


def _row_loop(u0, u1, w, h):
    """numerov's node-by-node recurrence y[j+1] = U[j] y[j] - y[j-1] on
    y = g u, with g and U built in w's dtype as numerov builds them."""
    g = w * -(h * h / 12.0) + 1.0
    U = (h * h) * w / g + 2.0
    y = np.empty(w.shape, dtype=np.result_type(u0, u1, w))
    y[0] = g[0] * u0
    y[1] = g[1] * u1
    for j in range(1, w.shape[0] - 1):
        y[j + 1] = U[j] * y[j] - y[j - 1]
    u = y / g
    u[0] = u0
    u[1] = u1
    return u


def _plain_loop(u0, u1, w, h):
    """The plain Numerov recurrence g[j+1] u[j+1] = c[j] u[j] - g[j-1]
    u[j-1], c = 12 - 10 g, node by node in the dtype of w and the seeds."""
    g = 1.0 - (h * h / 12.0) * w
    c = 12.0 - 10.0 * g
    u = np.empty(w.shape, dtype=np.result_type(u0, u1, w))
    u[0] = u0
    u[1] = u1
    for j in range(1, w.shape[0] - 1):
        u[j + 1] = (c[j] * u[j] - g[j - 1] * u[j - 1]) / g[j + 1]
    return u


def _long_march(u0, u1, w, h):
    """The plain recurrence in long double, on g and c built in long
    double from w: the reference every float64 march rounds against."""
    ld = np.clongdouble if np.iscomplexobj(w) else np.longdouble
    return _plain_loop(u0.astype(ld), u1.astype(ld), w.astype(ld), np.longdouble(h))


def _errors(u, ref):
    """Each column's largest error against ref, as a share of the
    column's largest value."""
    scale = np.max(np.abs(ref), axis=0)
    return (np.max(np.abs(u - ref), axis=0) / scale).astype(float)


@pytest.mark.parametrize("nk", [_WIDE + 1, 300])
def test_wide_batches_keep_the_row_loop(nk):
    """Above _WIDE momenta numerov is the row loop, bit for bit."""
    k = np.resize(K_MIXED, nk)
    u0, u1, w = _sweep_input(400, k)
    assert np.array_equal(numerov(u0, u1, w.copy(), H), _row_loop(u0, u1, w, H))


@pytest.mark.parametrize("l", [0, 2])
@pytest.mark.parametrize("batch", ["one", "all"])
def test_blocked_march_rounds_like_the_row_loop(l, batch):
    """Against the long-double march, per column as a share of its
    largest value. On these sweeps the blocked error was at most 14 x
    max(loop error, n eps), at k = 0.3i and l = 0, where the row loop
    errs by only 1.2e-12 and the blocked march by 1.6e-11; the plain
    recurrence erred by 4.0e-10 there."""
    n = 3000
    batches = [K_MIXED[i : i + 1] for i in range(K_MIXED.size)] if batch == "one" else [K_MIXED]
    floor = n * np.finfo(float).eps
    for k in batches:
        u0, u1, w = _sweep_input(n, k, l)
        ref = _long_march(u0, u1, w, H)
        loop = _row_loop(u0, u1, w, H)
        blocked = numerov(u0, u1, w.copy(), H)
        err_loop = _errors(loop, ref)
        bound = 16.0 * np.maximum(err_loop, floor)
        assert np.all(_errors(blocked, ref) <= bound)
        gap = np.max(np.abs(blocked - loop), axis=0) / np.max(np.abs(ref), axis=0).astype(float)
        assert np.all(gap <= err_loop + bound)


@pytest.mark.parametrize("l", [0, 2])
@pytest.mark.parametrize("batch", ["one", "all"])
def test_float_paths_round_within_the_complex_bounds(l, batch):
    """Where every k^2 is real, both paths run in float64 on real w and
    real seeds. Against the long-double march, each float path stays
    within the bound the complex test above sets for the blocked march:
    16 x max(complex loop error, n eps)."""
    n = 3000
    batches = [K_AXES[i : i + 1] for i in range(K_AXES.size)] if batch == "one" else [K_AXES]
    floor = n * np.finfo(float).eps
    for k in batches:
        u0, u1, w = _sweep_input(n, k, l)
        err_loop = _errors(_row_loop(u0, u1, w, H), _long_march(u0, u1, w, H))
        bound = 16.0 * np.maximum(err_loop, floor)
        u0, u1, w = _sweep_input(n, k, l, float)
        ref = _long_march(u0, u1, w, H)
        for u in (_row_loop(u0, u1, w, H), numerov(u0, u1, w.copy(), H)):
            assert u.dtype == float
            assert np.all(_errors(u, ref) <= bound)


@pytest.mark.parametrize("l", [0, 2])
@pytest.mark.parametrize(
    "nk, dtype", [(K_MIXED.size, complex), (K_AXES.size, float), (_WIDE + 1, complex), (_WIDE + 1, float)]
)
def test_renormalised_form_rounds_no_worse_than_the_plain_form(l, nk, dtype):
    """Marching y = g u rounds no worse than the plain recurrence in
    float64: against the long-double march, numerov's worst column is at
    most the plain loop's worst, and each column is within 16 x
    max(plain error, n eps). The largest per-column ratio measured here
    was 9.5 (k = 3i, l = 0), where the plain form errs by 1.3e-12."""
    n = 3000
    u0, u1, w = _sweep_input(n, np.resize(K_MIXED if dtype is complex else K_AXES, nk), l, dtype)
    ref = _long_march(u0, u1, w, H)
    err_plain = _errors(_plain_loop(u0, u1, w, H), ref)
    err = _errors(numerov(u0, u1, w.copy(), H), ref)
    assert np.max(err) <= np.max(err_plain)
    assert np.all(err <= 16.0 * np.maximum(err_plain, n * np.finfo(float).eps))


@pytest.mark.parametrize("nk", [1, _WIDE])
def test_blocked_sweeps_are_prefixes_of_longer_ones(nk):
    """A sweep cut at any node equals the same nodes of the longer sweep
    bit for bit, from n = 3 through several whole and partial blocks."""
    k = np.resize(K_MIXED, nk)
    u0, u1, w = _sweep_input(3 * _BLOCK + 5, k)
    full = numerov(u0, u1, w.copy(), H)
    assert np.array_equal(full[0], u0) and np.array_equal(full[1], u1)
    for n in range(3, w.shape[0]):
        assert np.array_equal(numerov(u0, u1, w[:n].copy(), H), full[:n]), n


@pytest.mark.parametrize("nk", [1, _WIDE, _WIDE + 1])
def test_float_sweeps_are_prefixes_of_longer_ones(nk):
    """The prefix identity in float arithmetic, on both paths; above
    _WIDE momenta the float sweep is the row loop bit for bit."""
    u0, u1, w = _sweep_input(3 * _BLOCK + 5, np.resize(K_AXES, nk), dtype=float)
    full = numerov(u0, u1, w.copy(), H)
    assert full.dtype == float
    if nk > _WIDE:
        assert np.array_equal(full, _row_loop(u0, u1, w, H))
    for n in range(3, w.shape[0]):
        assert np.array_equal(numerov(u0, u1, w[:n].copy(), H), full[:n]), n


@pytest.mark.parametrize("nk", [1, _WIDE + 1])
def test_numerov_fills_the_array_it_is_given(nk):
    """With out, numerov writes the values into out and returns it: the
    same bits as a new array, also for an inward sweep into a reversed
    view whose first two rows are the seeds themselves."""
    u0, u1, w = _sweep_input(200, np.resize(K_AXES, nk), dtype=float)
    ref = numerov(u0, u1, w.copy(), H)
    out = np.empty_like(ref)
    assert numerov(u0, u1, w.copy(), H, out=out) is out
    assert np.array_equal(out, ref)
    vals = np.empty_like(ref)
    into = vals[::-1]
    into[0], into[1] = u0, u1
    numerov(into[0], into[1], w.copy(), H, out=into)
    assert np.array_equal(vals[::-1], ref)


@pytest.mark.parametrize("n", [100, 1300, 6400])
def test_single_real_momentum_is_the_row_loop(n):
    """A float batch of one momentum runs the row loop's recurrence on
    Python floats: bit for bit the row loop, and so the same column of
    any float batch wider than _WIDE."""
    u0, u1, w = _sweep_input(n, np.resize(K_AXES, _WIDE + 1), dtype=float)
    wide = numerov(u0, u1, w.copy(), H)
    assert np.array_equal(wide, _row_loop(u0, u1, w, H))
    for j in range(w.shape[1]):
        col = slice(j, j + 1)
        one = numerov(u0[col], u1[col], w[:, col].copy(), H)
        assert one.dtype == float
        assert np.array_equal(one, wide[:, col]), j


def test_single_complex_momentum_stays_blocked():
    """A complex batch of one momentum is marched in blocks: each column
    of the blocked K_MIXED batch, its real momenta included, equals the
    width-1 sweep of that momentum bit for bit."""
    u0, u1, w = _sweep_input(1300, K_MIXED)
    full = numerov(u0, u1, w.copy(), H)
    for j in range(K_MIXED.size):
        col = slice(j, j + 1)
        assert np.array_equal(numerov(u0[col], u1[col], w[:, col].copy(), H), full[:, col]), j


@pytest.mark.parametrize(
    "nk, dtype", [(1, float), (1, complex), (K_AXES.size, float), (_WIDE + 1, float), (_WIDE + 1, complex)]
)
def test_seeds_come_back_bit_for_bit(nk, dtype):
    """numerov marches y = g u from g u0 and g u1, and returns rows 0 and
    1 bit-equal to u0 and u1, also into a reversed view whose first two
    rows are the seeds themselves. At l = 3, g on the first node r = h
    is only h^2 (k^2 - U) / 12."""
    k = np.resize(K_MIXED if dtype is complex else K_AXES, nk)
    u0, u1, w = _sweep_input(200, k, 3, dtype)
    u0, u1 = u0 / 3.0, u1 / 3.0
    assert np.all(np.abs(1.0 - (H * H / 12.0) * w[0]) < 1e-3)
    u = numerov(u0, u1, w.copy(), H)
    assert np.array_equal(u[0], u0) and np.array_equal(u[1], u1)
    vals = np.empty_like(u)
    into = vals[::-1]
    into[0], into[1] = u0, u1
    numerov(into[0], into[1], w.copy(), H, out=into)
    assert np.array_equal(vals[::-1], u)


@pytest.mark.parametrize("nk", [1, K_AXES.size, _WIDE + 1])
def test_vanishing_g_gives_non_finite_values(nk):
    """Where g = 1 - h^2 w / 12 is exactly 0 at one node, every path
    raises nothing and returns inf or nan from that node on, which the
    sweeps' finiteness check refuses; the float march of one momentum
    and the wide row loop return the row loop's values."""
    u0, u1, w = _sweep_input(300, np.resize(K_AXES, nk), dtype=float)
    w[150] = 12.0 / H**2
    assert np.all(1.0 - (H * H / 12.0) * w[150] == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = numerov(u0, u1, w.copy(), H)
        ref = _row_loop(u0, u1, w, H)
    if nk == 1 or nk > _WIDE:
        assert np.array_equal(u, ref, equal_nan=True)
    assert np.all(np.isfinite(u[:150])) and not np.any(np.isfinite(u[150:]))
