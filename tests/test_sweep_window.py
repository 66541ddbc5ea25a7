"""The Jost function sweeps only the nodes its Wronskian reads, and the
bound-state searches converge in a few condition calls.

Exactness: Numerov is a forward recurrence and the free solution and w
are evaluated node by node, so the windowed sweeps must reproduce the
full-grid values bit for bit. Work: node x momentum Numerov steps and
condition calls are deterministic, so they are gated here instead of
wall time.
"""

import numpy as np
import pytest

import polewave._integrate as ig
import polewave.spectrum as spectrum
from polewave.onedim import Potential1D, _parity_condition, find_bound_1d, smatrix_1d
from polewave.radial import (
    _wronskian_node,
    jost_function,
    jost_on_imaginary_axis,
    solve_jost_reduced,
    solve_regular,
    wronskian,
)
from polewave.spectrum import find_bound_states

WELLS = [("sq41", 0), ("deep30", 0), ("sq15", 1), ("gauss41", 0), ("exp905", 0)]
SQUARE = {"sq41", "deep30", "sq15"}
K_REAL = np.array([0.3, 1.1, 2.7])
K_UP = 1j * np.array([0.4, 1.5, 3.0])
K_DOWN = -1j * np.array([0.3, 1.2])


def _full_grid_jost(pot, l, k, grid):
    """F_l(k) from the full-grid regular and Jost solutions."""
    ft = solve_jost_reduced(pot, l, k, grid).values
    phi = solve_regular(pot, l, k, grid).values
    return (-1j * k) ** l * wronskian(ft, phi, _wronskian_node(pot, grid), grid.h)


def _full_grid_origin(p, k, grid):
    """f(k, 0) and f'(k, 0) from the full-grid half-line Jost solution."""
    vals = solve_jost_reduced(p.half, 0, k, grid).values
    return vals[0], ig.deriv_forward(vals, 0, grid.h)


@pytest.mark.parametrize("well, l", WELLS)
def test_jost_function_is_bit_identical_to_the_full_sweeps(well, l, request):
    pot, grid = request.getfixturevalue(well)
    momenta = [K_REAL, K_UP] + ([K_DOWN] if well in SQUARE else [])
    for k in momenta:
        assert np.array_equal(jost_function(pot, l, k, grid), _full_grid_jost(pot, l, k, grid))


@pytest.mark.parametrize("well", ["sq41", "gauss41"])
def test_line_channels_are_bit_identical_to_the_full_sweep(well, request):
    pot, grid = request.getfixturevalue(well)
    p = Potential1D(pot)
    kappa = np.array([0.3, 1.0, 1.7])
    f0, fp0 = _full_grid_origin(p, 1j * kappa, grid)
    assert np.array_equal(_parity_condition(p, "even", kappa, grid), fp0.real)
    assert np.array_equal(_parity_condition(p, "odd", kappa, grid), f0.real)
    momenta = [K_REAL] + ([K_UP] if well in SQUARE else [])
    for k in momenta:
        (f0p, fp0p), (f0m, fp0m) = _full_grid_origin(p, k, grid), _full_grid_origin(p, -k, grid)
        assert np.array_equal(smatrix_1d(p, "even", k, grid), -fp0m / fp0p)
        assert np.array_equal(smatrix_1d(p, "odd", k, grid), f0m / f0p)


@pytest.fixture
def numerov_steps(monkeypatch):
    """Node x momentum steps marched by the Numerov kernel."""
    steps = []
    original = ig.numerov

    def counted(u0, u1, w, h):
        steps.append(w.shape[0] * (w.shape[1] if w.ndim > 1 else 1))
        return original(u0, u1, w, h)

    monkeypatch.setattr(ig, "numerov", counted)
    return steps


def test_cutoff_jost_sweeps_to_the_wronskian_window(sq41, numerov_steps):
    """Out to the cutoff and the five-node window beyond it, and no
    inward sweep at all: the window lies in the free region."""
    pot, grid = sq41
    jost_on_imaginary_axis(pot, 0, 1.0, grid)
    assert sum(numerov_steps) <= grid.index_of(pot.cutoff) + 8


def test_tail_jost_sweeps_the_grid_once(gauss41, numerov_steps):
    """Regular solution out to the midpoint window, Jost solution in
    from r_max to it: one grid's worth of steps between them."""
    pot, grid = gauss41
    jost_on_imaginary_axis(pot, 0, 1.0, grid)
    assert sum(numerov_steps) <= grid.n + 8


@pytest.fixture
def refinement_calls(monkeypatch):
    """Condition calls of every root refinement, after the scan."""
    calls = []
    original = spectrum._regula_falsi

    def counted(condition, *brackets):
        calls.append(0)

        def counted_condition(x):
            calls[-1] += 1
            return condition(x)

        return original(counted_condition, *brackets)

    monkeypatch.setattr(spectrum, "_regula_falsi", counted)
    return calls


@pytest.mark.parametrize("well, l", WELLS + [("sq15", 0)])
def test_radial_search_refines_in_few_calls(well, l, request, refinement_calls):
    pot, grid = request.getfixturevalue(well)
    assert find_bound_states(pot, l, grid)
    assert len(refinement_calls) == 1
    assert refinement_calls[0] <= 12


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("well", ["sq41", "deep30", "sq15", "gauss41", "exp905"])
def test_line_search_refines_in_few_calls(well, parity, request, refinement_calls):
    pot, grid = request.getfixturevalue(well)
    assert find_bound_1d(Potential1D(pot), parity, grid)
    assert len(refinement_calls) == 1
    assert refinement_calls[0] <= 12
