"""Solver checks against free motion and the closed-form square well."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polewave.analytic import SquareWellOracle
from polewave.errors import SpecError, StepSizeError
from polewave.potentials import Free, PotentialSpec, make_grid, make_potential
from polewave.radial import (
    jost_function,
    jost_on_imaginary_axis,
    phase_shift,
    phase_shift_curve,
    physical_wave,
    solve_jost_reduced,
    solve_regular,
    wronskian,
)

KS = np.linspace(0.1, 3.0, 30)


def test_free_jost_is_unity():
    """With no potential the Jost function is 1 for every l and every
    momentum, real or imaginary; the residual is pure stencil error."""
    free = Free()
    grid = make_grid(free, h=1 / 128, r_max=12.0)
    k = np.concatenate([np.linspace(0.1, 3.0, 12), 1j * np.linspace(0.1, 2.0, 5)])
    for l in (0, 1, 2):
        f = jost_function(free, l, k, grid)
        assert np.max(np.abs(f - 1.0)) < 1e-7


def test_phase_shift_matches_square_well(sq41, sq41_oracle):
    pot, grid = sq41
    dev = np.abs(phase_shift(pot, 0, KS, grid) - sq41_oracle.phase_shift(0, KS))
    assert np.max(dev) < 1e-6


def test_jost_l1_matches_square_well(sq15):
    pot, grid = sq15
    oracle = SquareWellOracle(15.0, 1.0)
    f = jost_function(pot, 1, KS, grid)
    ref = oracle.jost(1, KS)
    assert np.max(np.abs(f - ref) / np.abs(ref)) < 1e-6


@given(
    st.sampled_from(["square", "exponential", "gaussian"]),
    st.floats(0.5, 12.0),
    st.floats(0.4, 1.6),
    st.sampled_from([0, 1]),
)
@settings(max_examples=20, deadline=None)
def test_jost_reflection_and_unitarity(kind, depth, radius, l):
    """F(-k) = conj F(k) on the real axis, hence |S| = 1. The solver
    keeps the symmetry to rounding because the k and -k sweeps share
    every intermediate up to conjugation."""
    pot = make_potential(PotentialSpec(kind, depth, radius))
    grid = make_grid(pot, h=1 / 128)
    k = np.linspace(0.15, 2.5, 9)
    fp = jost_function(pot, l, k, grid)
    fm = jost_function(pot, l, -k, grid)
    assert np.max(np.abs(fm - np.conj(fp)) / np.abs(fp)) < 1e-8
    assert np.max(np.abs(np.abs(fm / fp) - 1.0)) < 1e-10


def test_wronskian_is_node_independent(sq41, gauss41):
    """W[ft, phi] is constant in r for solutions of the same equation.
    Nodes are sampled away from the square-well edge so the five-point
    stencil never straddles the discontinuity."""
    k = np.array([0.3, 1.1, 2.7], dtype=complex)
    for (pot, grid), radii in [
        (sq41, (0.25, 0.5, 0.75, 1.25, 2.0, 3.5)),
        (gauss41, (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)),
    ]:
        ft = solve_jost_reduced(pot, 0, k, grid)
        ph = solve_regular(pot, 0, k, grid)
        w = np.array(
            [wronskian(ft.values, ph.values, grid.index_of(x), grid.h) for x in radii]
        )
        assert np.max(np.abs(w - w[0]) / np.abs(w[0])) < 1e-8


def test_step_size_guard():
    pot = make_potential(PotentialSpec("square", 900.0, 1.0))
    grid = make_grid(pot, h=1 / 16)
    with pytest.raises(StepSizeError):
        jost_function(pot, 0, np.array([1.0]), grid)


def test_lower_half_plane_strip_guard():
    """A decaying tail admits Im k < 0 only inside its analyticity
    strip; past it the r_max seed error rides the growing exponential
    and the solver must refuse rather than return noise."""
    pot = make_potential(PotentialSpec("exponential", 4.0, 1.0))
    grid = make_grid(pot, h=1 / 256)
    with pytest.raises(SpecError, match="strip"):
        jost_function(pot, 0, np.array([-1.0j]), grid)
    f = jost_function(pot, 0, np.array([-0.1j]), grid)
    assert np.isfinite(f[0])


def test_tail_jost_does_not_depend_on_rmax():
    """Beyond its cutoff node a decaying tail counts as zero, so F reads
    the same bits on every grid that reaches past that node, in either
    half plane and on the real axis."""
    pot = make_potential(PotentialSpec("gaussian", 4.0, 1.0))
    k = np.array([0.3, 1.1, 2.7, 0.4j, 1.5j, -0.3j, -1.0j, 0.8 - 0.5j])
    f = [jost_function(pot, 0, k, make_grid(pot, h=1 / 256, r_max=x)) for x in (12, 25, 40)]
    assert np.array_equal(f[0], f[1])
    assert np.array_equal(f[0], f[2])


def test_cutoff_potential_has_no_strip_limit(sq41):
    """Beyond a hard cutoff the outer solution is exact, so the square
    well reaches arbitrarily deep momenta in the lower half plane."""
    pot, grid = sq41
    f = jost_function(pot, 0, np.array([-1.2j]), grid)
    assert np.isfinite(f[0])
    assert abs(f[0].imag) < 1e-12


def test_jost_on_imaginary_axis_brackets_the_bound_state(sq41, sq41_oracle):
    pot, grid = sq41
    alpha = sq41_oracle.bound_alphas(0)[0]
    lo, at, hi = jost_on_imaginary_axis(pot, 0, np.array([alpha - 0.01, alpha, alpha + 0.01]), grid)
    assert lo < 0 < hi
    assert abs(at) < 1e-8


def test_physical_wave_s_wave_asymptote(sq41, sq41_oracle):
    """Outside the well the s wave is exactly sin(k r + delta)/k."""
    pot, grid = sq41
    k = 1.3
    pw = physical_wave(pot, 0, np.array([k]), grid)
    r = grid.r()
    sel = r > 1.5
    asym = np.sin(k * r[sel] + pw.delta[0]) / k
    assert np.max(np.abs(pw.values[sel, 0] - asym)) < 1e-8
    ref = sq41_oracle.physical_wave(0, k, r)
    assert np.max(np.abs(pw.values[:, 0] - ref)) < 1e-8


def test_physical_wave_p_wave_matches_oracle(sq41):
    """For l = 1 the sine asymptote carries a slow 1/(k r) correction,
    so the check is against the exact free combination instead."""
    pot, grid = sq41
    oracle = SquareWellOracle(4.0, 1.0)
    pw = physical_wave(pot, 1, np.array([1.3]), grid)
    ref = oracle.physical_wave(1, 1.3, grid.r())
    assert np.max(np.abs(pw.values[:, 0] - ref)) < 1e-8


def test_physical_wave_rejects_nonpositive_momenta(sq41):
    pot, grid = sq41
    with pytest.raises(SpecError):
        physical_wave(pot, 0, np.array([0.0, 1.0]), grid)


def test_phase_shift_curve_is_continuous(deep30):
    """The deep well winds the phase through several pi; unwrapping
    must leave no jump larger than the grid resolution of the curve."""
    pot, grid = deep30
    k = np.linspace(0.05, 3.0, 60)
    curve = phase_shift_curve(pot, 0, k, grid)
    assert np.max(np.abs(np.diff(curve))) < 0.5


def test_phase_shift_curve_rejects_unsorted(sq41):
    pot, grid = sq41
    with pytest.raises(SpecError):
        phase_shift_curve(pot, 0, np.array([1.0, 0.5, 2.0]), grid)
    with pytest.raises(SpecError):
        phase_shift_curve(pot, 0, np.array([1.0]), grid)


def test_jost_solution_rejects_zero_momentum_for_l1(sq41):
    pot, grid = sq41
    with pytest.raises(SpecError):
        solve_jost_reduced(pot, 1, np.array([0.0]), grid)


@given(st.sampled_from([0, 1, 2]), st.floats(0.2, 2.0))
@settings(max_examples=15, deadline=None)
def test_regular_solution_origin_scaling(l, k):
    """phi_l ~ r^{l+1}/(2l+1)!! near the origin, independent of k."""
    pot = make_potential(PotentialSpec("gaussian", 3.0, 1.0))
    grid = make_grid(pot, h=1 / 128)
    ph = solve_regular(pot, l, np.array([k]), grid)
    r0 = grid.r()[4]
    dfac = {0: 1.0, 1: 3.0, 2: 15.0}[l]
    lead = r0 ** (l + 1) / dfac
    assert abs(ph.values[4, 0].real / lead - 1.0) < 1e-2


def test_at_radius_indexes_the_grid(sq41):
    pot, grid = sq41
    ph = solve_regular(pot, 0, np.array([1.0]), grid)
    assert ph.at_radius(2.0) == pytest.approx(ph.values[grid.index_of(2.0), 0])
