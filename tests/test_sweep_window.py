"""The Jost function sweeps only the nodes its Wronskian reads, and the
bound-state searches converge in a few condition calls.

Exactness: Numerov is a forward recurrence and the free solution and w
are evaluated node by node, so the windowed sweeps must reproduce the
full-grid values bit for bit. Work: node x momentum Numerov steps and
condition calls are deterministic, so they are gated here instead of
wall time.
"""

from contextlib import nullcontext

import numpy as np
import pytest

import polewave._integrate as ig
import polewave.spectrum as spectrum
from polewave.errors import ConditioningWarning
from polewave.onedim import (
    _CHANNEL,
    Potential1D,
    build_bound_1d,
    find_bound_1d,
    smatrix_1d,
    solve_parity,
)
from polewave.poletheorem import _LADDER_POINTS, smatrix_residue
from polewave.potentials import PotentialSpec, make_grid, make_potential
from polewave.radial import (
    _condition,
    _jost,
    _jost_from_regular,
    _mesh,
    _sweep_regular,
    _wave,
    jost_function,
    jost_on_imaginary_axis,
    physical_wave,
    solve_jost_reduced,
    solve_regular,
    wronskian,
)
from polewave.spectrum import build_bound_state, find_bound_states

WELLS = [("sq41", 0), ("deep30", 0), ("sq15", 1), ("gauss41", 0), ("exp905", 0)]
K_REAL = np.array([0.3, 1.1, 2.7])
K_UP = 1j * np.array([0.4, 1.5, 3.0])
K_DOWN = -1j * np.array([0.3, 1.2])


def _full_grid_jost(pot, l, k, grid, l_out=None):
    """F_l(k) from the full-grid Jost solution and the full-grid outward
    solution at l_out (default l; -1 is the even solution on the line)."""
    ft = solve_jost_reduced(pot, l, k, grid).values
    mesh = _mesh(pot, grid)
    phi = _sweep_regular(mesh, l if l_out is None else l_out, k)
    return (-1j * k) ** l * wronskian(ft, phi, mesh.window, grid.h)


@pytest.mark.parametrize("well, l", WELLS)
def test_jost_function_is_bit_identical_to_the_full_sweeps(well, l, request):
    pot, grid = request.getfixturevalue(well)
    # exp905's tail e^{-2r} bounds its strip at Im k > -1
    momenta = [K_REAL, K_UP] + ([K_DOWN] if well != "exp905" else [])
    for k in momenta:
        assert np.array_equal(jost_function(pot, l, k, grid), _full_grid_jost(pot, l, k, grid))
        # F(-k) from the same window sweep: -K_UP lies outside exp905's
        # strip, and e^{2 |Im k| r_c} reaches 1e14 there on gauss41
        if well == "exp905" and k is K_UP:
            continue
        with pytest.warns(ConditioningWarning) if well == "gauss41" and k is K_UP else nullcontext():
            mesh = _mesh(pot, grid)
            f_dn = _jost_from_regular(mesh, l, -k, _jost(mesh, l, k)[0])
            assert np.array_equal(f_dn, _full_grid_jost(pot, l, -k, grid))


@pytest.mark.parametrize("well", ["sq41", "gauss41"])
def test_line_channels_read_the_jost_window(well, request):
    """The odd channel is the radial s wave bit for bit, the even
    condition is the closed form on the square well, both S matrices
    are unimodular on the real axis, and the even channel's F(k) and
    F(-k) are the Wronskians of full-grid sweeps bit for bit."""
    pot, grid = request.getfixturevalue(well)
    p = Potential1D(pot)
    kappa = np.array([0.3, 1.0, 1.7])

    def condition(parity):
        l_out, sign = _CHANNEL[parity]
        return _condition(_mesh(p.half, grid), l_out, sign)(kappa)[0]

    odd = condition("odd")
    assert np.array_equal(odd, jost_on_imaginary_axis(pot, 0, kappa, grid))
    if well == "sq41":
        # f'(i kappa, 0) of the half-line Jost solution for U = -4 on x < 1
        bigk = np.sqrt(4.0 - kappa**2)
        even = np.exp(-kappa) * (bigk * np.sin(bigk) - kappa * np.cos(bigk))
        np.testing.assert_allclose(condition("even"), even, rtol=1e-8)
    for k in (K_REAL, K_UP, K_DOWN):
        # S at K_UP needs f at -K_UP, where e^{2 |Im k| r_c} reaches
        # 1e14 on gauss41 (r_c = 5.38)
        deep = well == "gauss41" and k is K_UP
        with pytest.warns(ConditioningWarning) if deep else nullcontext():
            mesh = _mesh(pot, grid)
            phi, f_up = _wave(mesh, 0, k)
            f_dn = _jost_from_regular(mesh, 0, -k, phi)
            s_even, s_odd = smatrix_1d(p, "even", k, grid), smatrix_1d(p, "odd", k, grid)
            y, even_up = _jost(mesh, -1, k)
            even_dn = _jost_from_regular(mesh, -1, -k, y)
            assert np.array_equal(even_up, _full_grid_jost(pot, 0, k, grid, l_out=-1))
            assert np.array_equal(even_dn, _full_grid_jost(pot, 0, -k, grid, l_out=-1))
        assert np.array_equal(s_odd, f_dn / f_up)
        if k is K_REAL:
            assert np.max(np.abs(np.abs([s_even, s_odd]) - 1.0)) <= 1e-14


@pytest.mark.parametrize("well", ["sq41", "gauss41", "exp905"])
def test_jost_sweeps_to_the_wronskian_window(well, request, numerov_steps):
    """Out to the cutoff node and the five-node window beyond it, and no
    inward sweep at all: the window lies in the free region, for a hard
    cutoff and a decaying tail alike."""
    pot, grid = request.getfixturevalue(well)
    jost_on_imaginary_axis(pot, 0, 1.0, grid)
    assert sum(numerov_steps) <= _mesh(pot, grid).cutoff + 8


WHOLE_GRID = {
    "physical_wave": lambda pot, grid, k: physical_wave(pot, 0, k, grid),
    "solve_parity even": lambda pot, grid, k: solve_parity(Potential1D(pot), "even", k, grid),
    "solve_parity odd": lambda pot, grid, k: solve_parity(Potential1D(pot), "odd", k, grid),
    "solve_regular": lambda pot, grid, k: solve_regular(pot, 0, 1j * k, grid),
    "regular_and_jost": lambda pot, grid, k: _wave(_mesh(pot, grid), 1, k),
}


@pytest.mark.parametrize("name", WHOLE_GRID)
@pytest.mark.parametrize("well", ["sq41", "gauss41", "exp905"])
def test_whole_grid_values_march_only_to_the_window(well, name, request, numerov_steps):
    """Values on the whole grid, but a march only to the top of the Jost
    window: the free region beyond is filled in closed form. A piece
    boundary inside the march seeds its piece, so its node counts twice
    (the even channel of sq41, which marches from the origin node)."""
    pot, grid = request.getfixturevalue(well)
    k = np.array([0.4, 0.9, 1.7])
    WHOLE_GRID[name](pot, grid, k)
    assert sum(numerov_steps) <= k.size * ((_mesh(pot, grid).window + 2) + 2)


@pytest.mark.parametrize("well", ["sq41", "deep30", "gauss41"])
def test_imaginary_axis_residue_sweeps_to_the_window(well, request, numerov_steps):
    """The residue ladder reads F(i kappa) and F(-i kappa) on the Jost
    window: one sweep of its _LADDER_POINTS momenta out to the window."""
    pot, grid = request.getfixturevalue(well)
    alpha = find_bound_states(pot, 0, grid)[0].alpha
    numerov_steps.clear()
    smatrix_residue(pot, 0, alpha, grid, "imaginary_axis")
    assert sum(numerov_steps) <= _LADDER_POINTS * (_mesh(pot, grid).cutoff + 8)


@pytest.mark.parametrize("well, l", [("sq41", 0), ("gauss41", 0), ("exp905", 0), ("sq60", 3)])
def test_bound_state_build_sweeps_to_the_match_node(well, l, request, numerov_steps):
    """One build sweeps out to the outer turning point and in from the
    cutoff node to it: about the cutoff node's worth of steps at any l."""
    pot, grid = request.getfixturevalue(well)
    for state in find_bound_states(pot, l, grid):
        numerov_steps.clear()
        build_bound_state(pot, l, state.alpha, grid)
        assert sum(numerov_steps) <= _mesh(pot, grid).cutoff + 8


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("well", ["sq41", "gauss41", "exp905"])
def test_line_build_sweeps_to_the_match_node(well, parity, request, numerov_steps):
    pot, grid = request.getfixturevalue(well)
    p = Potential1D(pot)
    for state in find_bound_1d(p, parity, grid):
        numerov_steps.clear()
        build_bound_1d(p, parity, state.alpha, grid)
        assert sum(numerov_steps) <= _mesh(pot, grid).cutoff + 8


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


@pytest.fixture
def numerov_widths(monkeypatch):
    """Momenta per Numerov batch."""
    widths = []
    original = ig.numerov

    def spy(u0, u1, out, v, k2, h):
        widths.append(out.shape[1])
        return original(u0, u1, out, v, k2, h)

    monkeypatch.setattr(ig, "numerov", spy)
    return widths


def test_numerov_takes_the_values_array_third(exp905, monkeypatch):
    """The kernel's third positional argument is the nodes x momenta
    array it fills, and the call returns it: perfbench's numerov.*
    counters and the numerov_steps fixture read the node x momentum
    steps off args[2]. A wide Jost sweep of exp905 (one smooth piece)
    marches once, from node 1 to the top of the Jost window."""
    pot, grid = exp905
    k = np.linspace(0.05, 4.0, 300)
    calls = []
    original = ig.numerov

    def spy(*args):
        result = original(*args)
        calls.append((args[2], result))
        return result

    monkeypatch.setattr(ig, "numerov", spy)
    jost_function(pot, 0, k, grid)
    nodes = _mesh(pot, grid).window + 2
    assert [a.shape for a, _ in calls] == [(nodes, k.size)]
    assert all(a is result for a, result in calls)
    assert sum(a.shape[0] * a.shape[1] for a, _ in calls) == nodes * k.size


@pytest.mark.parametrize("well", ["sq41", "deep30", "gauss41", "exp905", "square (20000, 1)"])
def test_searches_march_narrow_batches(well, request, numerov_widths):
    """Every sweep of a search, the count sweeps and the refinement,
    marches at most _WIDE momenta, so it stays off the numpy row loop
    (blocked, or one real momentum on Python floats): also on a well
    with 45 s-wave states, more than one batch holds."""
    if well.startswith("square"):
        pot = make_potential(PotentialSpec("square", 20000.0, 1.0))
        grid = make_grid(pot, h=1 / 1024, r_max=4.0)
    else:
        pot, grid = request.getfixturevalue(well)
    states = find_bound_states(pot, 0, grid)
    for parity in ("even", "odd"):
        states += find_bound_1d(Potential1D(pot), parity, grid)
    assert len(states) > (ig._WIDE if well.startswith("square") else 0)
    assert max(numerov_widths) <= ig._WIDE
