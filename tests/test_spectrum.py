"""Bound-state location and normalization against closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from polewave.analytic import (
    SquareWellOracle,
    exp_well_bound_alpha,
    exp_well_bound_u,
    free_decay,
)
from polewave.errors import NoBoundStateError, NumericalError, SpecError
from polewave.potentials import Free, PotentialSpec, make_grid, make_potential
from polewave.spectrum import (
    _MAX_STEPS,
    _ROOT_RTOL,
    _regula_falsi,
    asymptotic_coefficient,
    build_bound_state,
    decay_tail_integral,
    find_bound_states,
    ground_state,
)


def test_square_well_ground_state(sq41_states, sq41_oracle):
    assert len(sq41_states) == 1
    s = sq41_states[0]
    a = sq41_oracle.bound_alphas(0)[0]
    assert s.alpha == pytest.approx(a, abs=1e-8)
    assert s.asymptotic_norm == pytest.approx(sq41_oracle.normalization(0, a), abs=1e-6)
    assert s.energy == -s.alpha**2


def test_deep_well_spectrum(deep30_states):
    """Two s-wave states at depth 30, deepest first, each matching the
    transcendental roots and closed-form norms of the square well."""
    oracle = SquareWellOracle(30.0, 1.0)
    alphas = oracle.bound_alphas(0)
    assert len(deep30_states) == len(alphas) == 2
    assert deep30_states[0].alpha > deep30_states[1].alpha
    for s, a in zip(deep30_states, alphas):
        assert s.alpha == pytest.approx(a, abs=1e-8)
        n = oracle.normalization(0, a)
        assert s.asymptotic_norm == pytest.approx(n, rel=1e-6)


def test_p_wave_state(sq15_l1_states):
    oracle = SquareWellOracle(15.0, 1.0)
    alphas = oracle.bound_alphas(1)
    assert len(sq15_l1_states) == len(alphas) == 1
    s = sq15_l1_states[0]
    assert s.alpha == pytest.approx(alphas[0], abs=1e-8)
    assert s.asymptotic_norm == pytest.approx(
        oracle.normalization(1, alphas[0]), rel=1e-6
    )


def test_exponential_well_against_bessel_form(exp905):
    """The exponential well binds J_nu(z(r)); the computed state must
    match that profile after scaling unit norm to unit tail."""
    pot, grid = exp905
    states = find_bound_states(pot, 0, grid)
    assert len(states) == 1
    s = states[0]
    a = exp_well_bound_alpha(9.0, 0.5)
    assert s.alpha == pytest.approx(a, abs=1e-8)
    ref = s.asymptotic_norm * exp_well_bound_u(9.0, 0.5, a, grid.r())
    assert np.max(np.abs(s.u - ref)) < 1e-8


def test_free_potential_binds_nothing():
    free = Free()
    grid = make_grid(free, h=1 / 64, r_max=10.0)
    assert find_bound_states(free, 0, grid) == []
    with pytest.raises(NoBoundStateError):
        ground_state(free, 0, grid)


def test_states_are_unit_norm_and_tail_positive(deep30_states, sq15_l1_states):
    for s in (*deep30_states, *sq15_l1_states):
        body = float(simpson(s.u**2, x=s.grid.r()))
        tail = s.asymptotic_norm**2 * decay_tail_integral(s.l, s.alpha, s.grid.r_max)
        assert body + tail == pytest.approx(1.0, abs=1e-10)
        # the inward sweep leaves a rounding-level residual at r = 0
        assert abs(s.u[0]) < 1e-8
        assert s.u[-1] > 0


def test_asymptotic_coefficient_reads_back_the_norm(
    sq41_states, deep30_states, sq15_l1_states
):
    """Dividing the tail by the free decay profile recovers N; this is
    the measurement the normalization claims to encode."""
    for s in (*sq41_states, *deep30_states, *sq15_l1_states):
        anc = asymptotic_coefficient(s)
        assert anc == pytest.approx(s.asymptotic_norm, rel=1e-8)


def test_tail_reference_matches_the_state(sq41_states):
    s = sq41_states[0]
    r = s.grid.r()
    sel = r > 4.0
    assert np.max(np.abs(s.u[sel] - s.asymptotic_norm * s.tail_reference()[sel])) < 1e-9


def test_decay_tail_integral_closed_forms():
    cases = [(0, 0.7, 5.0), (1, 1.2, 7.0), (2, 0.9, 6.0), (3, 0.4, 3.0), (4, 1.5, 2.0)]
    for l, alpha, radius in cases:
        ref = quad(
            lambda r: free_decay(l, alpha, r) ** 2, radius, radius + 80.0 / alpha
        )[0]
        assert decay_tail_integral(l, alpha, radius) == pytest.approx(ref, rel=1e-9)


def test_build_rejects_non_eigenvalues(sq41):
    pot, grid = sq41
    with pytest.raises(NumericalError):
        build_bound_state(pot, 0, 0.3, grid)
    with pytest.raises(SpecError):
        build_bound_state(pot, 0, -0.5, grid)


@given(st.floats(1.5, 40.0), st.floats(0.5, 1.5))
@settings(max_examples=10, deadline=None)
def test_square_well_spectrum_is_complete(depth, radius):
    """Every root of the closed-form bound condition is found, none are
    invented, and each alpha agrees to the root-finder tolerance."""
    oracle = SquareWellOracle(depth, radius)
    expected = oracle.bound_alphas(0)
    pot = make_potential(PotentialSpec("square", depth, radius))
    states = find_bound_states(pot, 0)
    assert len(states) == len(expected)
    for s, a in zip(states, expected):
        assert s.alpha == pytest.approx(a, abs=1e-7)


def test_step_halving_converges_at_fourth_order(sq41, sq41_oracle):
    """Halving h from 1/32 to 1/64 must cut the oracle error of both
    alpha and N by at least 8 (fourth order gives 16)."""
    pot, _ = sq41
    a = sq41_oracle.bound_alphas(0)[0]
    n = sq41_oracle.normalization(0, a)
    err = {}
    for h in (1 / 32, 1 / 64):
        s = find_bound_states(pot, 0, make_grid(pot, h=h))[0]
        err[h] = np.array([abs(s.alpha - a), abs(s.asymptotic_norm - n)])
    factors = err[1 / 32] / err[1 / 64]
    assert np.all(factors >= 8.0), f"halving factors (alpha, N): {factors}"


class _Counted:
    """A batched condition that records the points of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, x):
        self.calls.append(np.array(x))
        return self.fn(np.asarray(x))


def test_regula_falsi_refines_a_batch_of_brackets():
    """Three zeros of cos in one batch, each to the relative tolerance,
    in a handful of batched calls."""
    cond = _Counted(np.cos)
    lo, hi = np.array([1.0, 4.0, 7.0]), np.array([2.0, 5.0, 8.0])
    roots = _regula_falsi(cond, lo, hi, np.cos(lo), np.cos(hi))
    exact = np.pi * np.array([0.5, 1.5, 2.5])
    assert np.all(np.abs(roots - exact) <= _ROOT_RTOL * exact)
    assert len(cond.calls) <= 8
    assert all(c.size <= 3 for c in cond.calls)


def test_regula_falsi_keeps_exact_roots():
    """A bracket with lo == hi, or with a zero at either end, is a root
    and is never evaluated again."""
    cond = _Counted(lambda x: (x - 1.0) * (x - 2.0) * (x - 4.5))
    lo = np.array([1.0, 1.5, 2.0, 4.0])
    hi = np.array([1.0, 2.0, 3.0, 5.0])
    flo = np.array([0.0, cond.fn(1.5), 0.0, cond.fn(4.0)])
    fhi = np.array([0.0, 0.0, cond.fn(3.0), cond.fn(5.0)])
    roots = _regula_falsi(cond, lo, hi, flo, fhi)
    assert roots[:3].tolist() == [1.0, 2.0, 2.0]
    assert abs(roots[3] - 4.5) <= _ROOT_RTOL * 4.5
    assert all(c.size == 1 for c in cond.calls)


def test_regula_falsi_root_next_to_a_bracket_end():
    """A zero 1e-13 inside the upper end, where plain false position
    creeps in from the far end, and a convex x^10 - 1 that makes it
    stall."""
    for fn, lo, hi, root in [
        (lambda x: x * x - 4.0, 1.0, 2.0 + 1e-13, 2.0),
        (lambda x: x**10 - 1.0, 0.0, 1.5, 1.0),
    ]:
        cond = _Counted(fn)
        x = _regula_falsi(cond, [lo], [hi], [fn(lo)], [fn(hi)])[0]
        assert lo <= x <= hi
        assert abs(x - root) <= _ROOT_RTOL * root
        assert len(cond.calls) <= 20


def test_regula_falsi_terminates_on_a_noise_floor():
    """A condition whose sign is deterministic noise within 1e-9 of the
    root: the bracket still closes by bisection, inside the step cap,
    and the result stays inside the bracket and the noise band."""
    root = 1.0 / 3.0

    def noisy(x):
        return (x - root) + 1e-9 * np.sign(np.sin(1e12 * x))

    cond = _Counted(noisy)
    x = _regula_falsi(cond, [0.2], [0.5], [noisy(0.2)], [noisy(0.5)])[0]
    assert len(cond.calls) < _MAX_STEPS
    assert 0.2 <= x <= 0.5
    assert abs(x - root) <= 2e-9
