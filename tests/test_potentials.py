"""Potential models, grids, and the declarative spec layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from polewave.errors import GridError, SpecError
from polewave.potentials import (
    ExponentialWell,
    Free,
    GaussianWell,
    Grid,
    PotentialSpec,
    SquareWell,
    Tabulated,
    check_integrability,
    make_grid,
    make_potential,
)

wells = st.sampled_from([SquareWell, ExponentialWell, GaussianWell])
depths = st.floats(0.1, 50.0)
radii = st.floats(0.2, 3.0)


def test_square_well_values():
    w = SquareWell(4.0, 1.0)
    r = np.array([0.0, 0.5, 0.999, 1.001, 2.0])
    assert np.allclose(w(r), [-4, -4, -4, 0, 0])
    assert w.cutoff == 1.0
    assert w.breakpoints == (1.0,)
    assert w.tail_integral(0.25) == pytest.approx(3.0)
    assert w.tail_integral(1.0) == 0.0


def test_free_is_zero_everywhere():
    f = Free()
    assert np.all(f(np.linspace(0, 30, 7)) == 0.0)
    assert f.cutoff == 0.0
    assert f.tail_integral(0.0) == 0.0


@given(wells, depths, radii, st.floats(0.0, 20.0))
@settings(max_examples=25, deadline=None)
def test_tail_integral_monotone(cls, depth, radius, r0):
    w = cls(depth=depth, radius=radius)
    t0 = w.tail_integral(r0)
    t1 = w.tail_integral(r0 + 0.5)
    assert t0 >= t1 >= 0.0


@given(st.sampled_from([ExponentialWell, GaussianWell]), depths, radii, st.floats(0.0, 5.0))
@settings(max_examples=25, deadline=None)
def test_tail_integral_bounds_the_tail(cls, depth, radius, r0):
    """For the smooth wells the bound is checkable by quadrature."""
    w = cls(depth=depth, radius=radius)
    r = np.linspace(r0, r0 + 30 * radius, 20001)
    # Simpson, not the trapezoid rule: on the steepest gaussian tails
    # (r0 / radius ~ 12) the trapezoid overshoots by more than the slack
    quadrature = float(simpson(np.abs(w(r)), x=r))
    assert w.tail_integral(r0) >= quadrature * (1.0 - 1e-4)


@given(depths, radii)
@settings(max_examples=25, deadline=None)
def test_taylor_at_zero_matches_finite_differences(depth, radius):
    w = GaussianWell(depth=depth, radius=radius)
    u0, u1, u2 = w.taylor_at_zero()
    eps = 1e-4 * radius
    r = np.array([eps, 2 * eps])
    series = u0 + u1 * r + 0.5 * u2 * r**2
    assert np.allclose(w(r), series, rtol=0, atol=1e-8 * depth + 1e-6 * depth * eps)


def test_make_potential_kinds():
    assert isinstance(make_potential(PotentialSpec("free")), Free)
    assert isinstance(make_potential(PotentialSpec("square", 1, 1)), SquareWell)
    assert isinstance(make_potential(PotentialSpec("Gaussian ", 1, 1)), GaussianWell)
    with pytest.raises(SpecError):
        make_potential(PotentialSpec("yukawa", 1, 1))
    with pytest.raises(SpecError):
        make_potential(PotentialSpec("square", 1, -2))
    with pytest.raises(SpecError):
        make_potential(PotentialSpec("table"))


def test_tabulated_round_trip(tmp_path):
    a, d = 1.3, 2.5
    r = np.linspace(0.0, 12.0, 2401)
    u = -d * np.exp(-((r / a) ** 2))
    path = tmp_path / "well.dat"
    np.savetxt(path, np.column_stack([r, u]))
    tab = Tabulated.from_file(path)
    probe = np.linspace(0.0, 11.5, 301)
    exact = -d * np.exp(-((probe / a) ** 2))
    assert np.max(np.abs(tab(probe) - exact)) < 1e-6
    assert tab(np.array([13.0]))[0] == 0.0
    assert tab.cutoff == pytest.approx(12.0)
    # tail has decayed by r = 12, so no artificial discontinuity
    assert tab.breakpoints == ()


def test_tabulated_validation():
    with pytest.raises(SpecError):
        Tabulated(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(SpecError):
        Tabulated(np.array([0.0, 2.0, 1.0, 3.0]), np.zeros(4))
    with pytest.raises(SpecError):
        Tabulated(np.array([0.5, 1.0, 2.0, 3.0]), np.zeros(4))


def test_grid_basics():
    g = Grid(h=0.25, n=40)
    assert g.r_max == 10.0
    assert g.r()[3] == pytest.approx(0.75)
    assert g.index_of(2.5) == 10
    with pytest.raises(GridError):
        g.index_of(2.6)
    gh = g.halved()
    assert (gh.h, gh.n) == (0.125, 80)
    with pytest.raises(GridError):
        Grid(h=0.1, n=4)
    with pytest.raises(GridError):
        Grid(h=-0.1, n=64)


def test_make_grid_aligns_cutoff():
    w = SquareWell(4.0, 1.0)
    g = make_grid(w, h=1 / 300)
    i = g.index_of(1.0)
    assert abs(i * g.h - 1.0) < 1e-12


def test_make_grid_rejects_tiny_extent():
    w = SquareWell(4.0, 1.0)
    with pytest.raises(GridError):
        make_grid(w, h=1 / 256, r_max=1.005)


def test_check_integrability():
    # plain quadrature diagnostic, so the well edge costs some accuracy
    assert check_integrability(SquareWell(4.0, 1.0)) == pytest.approx(2.0, rel=1e-2)
    with pytest.raises(SpecError):
        Tabulated(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, np.nan, 0.0, 0.0]))
