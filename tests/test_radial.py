"""Solver checks against free motion and the closed-form square well."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polewave.radial as radial
from polewave._riccati import hhat_plus, hhat_plus_d, jhat, jhat_d
from polewave.analytic import SquareWellOracle
from polewave.errors import GridError, NumericalError, SpecError, StepSizeError
from polewave.onedim import Potential1D, solve_parity
from polewave.potentials import (
    Free,
    Grid,
    Piece,
    Potential,
    PotentialSpec,
    Tabulated,
    make_grid,
    make_potential,
)
from polewave.radial import (
    _FILL_BLOCK,
    _FILL_GROUP,
    _condition,
    _fill_node,
    _free_fill,
    _free_reduced,
    _matched_state,
    _mesh,
    _sweep_jost,
    _sweep_regular,
    jost_function,
    jost_on_imaginary_axis,
    phase_shift,
    phase_shift_curve,
    physical_wave,
    solve_jost_reduced,
    solve_regular,
    wronskian,
)
from polewave.poletheorem import (
    extrapolant_samples,
    extrapolant_samples_near_pole,
    jost_derivative,
    pole_branch_sign,
    smatrix_residue,
)
from polewave.spectrum import build_bound_state, find_bound_states

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


#: the largest relative |F| error at l <= 4 over JOST_K, rounded up:
#: 7.8e-6 on square (60, 1) and 6.1e-5 on square (400, 1), both at l = 4
JOST_BOUND = {60.0: 2e-5, 400.0: 1e-4}
JOST_K = np.array([0.5, 1.5, 3.0, 2j, 0.3j])


#: |F| off by a real factor from l = 5 on
JOST_XFAIL = pytest.mark.xfail(strict=True, reason="|F| off by a real factor (ROADMAP item 13)")


@pytest.mark.parametrize(
    "l", [*range(5), *(pytest.param(l, marks=JOST_XFAIL) for l in range(5, 13))]
)
@pytest.mark.parametrize("depth", [60.0, 400.0])
def test_jost_matches_square_well_at_every_l(depth, l):
    """F_l against the closed form at real and imaginary momenta. From
    l = 5 on |F| is off by a real factor that F(k) and F(-k) share
    (1.3e-3 at l = 5, 0.10 at l = 12 on square (60, 1), alike at
    h = 1/1024), while its phase stays within 2e-9; phases, S, alpha, N
    and the waves do not see it."""
    pot = make_potential(PotentialSpec("square", depth, 1.0))
    f = jost_function(pot, l, JOST_K, make_grid(pot, h=1 / 256))
    ref = SquareWellOracle(depth, 1.0).jost(l, JOST_K)
    assert np.max(np.abs(f - ref) / np.abs(ref)) < JOST_BOUND[depth]


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


@pytest.mark.parametrize("well", ["sq41", "deep30", "gauss41", "exp905", "table", "free"])
def test_mesh_is_the_potential_on_the_nodes(well, request):
    """U on every node is the right-continuous U of the potential, and
    the domains tile the grid, each the values of its own piece on its
    nodes, interface nodes included."""
    if well == "table":
        r = np.linspace(0.0, 2.0, 41)
        pot = Tabulated(r, -3.0 * np.exp(-r))
        assert pot.breakpoints == (2.0,)
        grid = make_grid(pot, h=1 / 256)
    elif well == "free":
        pot = Free()
        grid = make_grid(pot, h=1 / 128, r_max=12.0)
    else:
        pot, grid = request.getfixturevalue(well)
    mesh = _mesh(pot, grid)
    assert np.array_equal(mesh.u, pot(grid.r()))
    starts, ends = [d[0] for d in mesh.domains], [d[1] for d in mesh.domains]
    assert starts == [0] + ends[:-1] and ends[-1] == grid.n
    for i0, i1, u in mesh.domains:
        (piece,) = [p for p in pot.pieces() if p.lo <= i0 * grid.h and i1 * grid.h <= p.hi]
        assert np.array_equal(u, piece.fn(np.arange(i0, i1 + 1) * grid.h))


@pytest.fixture
def u_points(monkeypatch):
    """Points at which U is evaluated: by Potential.__call__ under
    "call", and by the fn of the i-th piece of any potential under i."""
    points = Counter()

    def counted(key, fn):
        def evaluate(*args):
            points[key] += np.size(args[-1])
            return fn(*args)

        return evaluate

    def spied(original):
        def pieces(self):
            return [Piece(p.lo, p.hi, counted(i, p.fn)) for i, p in enumerate(original(self))]

        return pieces

    monkeypatch.setattr(Potential, "__call__", counted("call", Potential.__call__))
    for cls in Potential.__subclasses__():
        monkeypatch.setattr(cls, "pieces", spied(cls.pieces))
    return points


@pytest.mark.parametrize("well", ["sq41", "gauss41"])
def test_sweeps_on_a_mesh_evaluate_no_potential(well, request, u_points):
    """Once the mesh is built, the sweeps and reads on it take U from it:
    neither Potential.__call__ nor a piece is evaluated again. The build
    evaluates every node once and each interface node from both sides."""
    pot, grid = request.getfixturevalue(well)
    alpha = find_bound_states(pot, 0, grid)[0].alpha
    u_points.clear()
    mesh = _mesh(pot, grid)
    assert sum(u_points.values()) == grid.n + len(mesh.domains)
    u_points.clear()
    k = np.array([0.3, 1.5j])
    _sweep_regular(mesh, 0, k)
    _sweep_regular(mesh, 1, k, mesh.window + 2)
    _sweep_jost(mesh, 0, k, 0)
    _matched_state(mesh, 0, alpha)
    _condition(mesh, 0, 1.0)(np.array([0.5, 1.0]))
    assert not u_points


def test_search_evaluates_each_piece_once(sq41, u_points):
    """One mesh serves the bound-state search and every state it builds."""
    pot, grid = sq41
    assert find_bound_states(pot, 0, grid)
    assert dict(u_points) == {0: grid.index_of(1.0) + 1, 1: grid.n - grid.index_of(1.0) + 1}


def test_argument_refusals_come_first(sq41):
    """The refusals of a public function's own arguments come before
    anything its grid could refuse, and r_c is resolved only for F: a
    grid that ends inside the well takes the regular solution, and its
    Jost function is refused by the grid."""
    pot = sq41[0]
    off_node = Grid(h=0.3, n=40)
    k = np.array([0.5])
    with pytest.raises(SpecError, match="non-negative"):
        physical_wave(pot, -1, k, off_node)
    with pytest.raises(SpecError, match="real k > 0"):
        physical_wave(pot, 0, -k, off_node)
    with pytest.raises(SpecError, match="real k > 0"):
        solve_parity(Potential1D(pot), "even", -k, off_node)
    with pytest.raises(SpecError, match="parity must be one of"):
        solve_parity(Potential1D(pot), "up", k, off_node)
    short = Grid(h=sq41[1].h, n=200)
    assert np.all(np.isfinite(solve_regular(pot, 0, k, short).values))
    with pytest.raises(GridError, match="not a node"):
        jost_function(pot, 0, k, short)


NEGATIVE_L = {
    "jost_function": lambda pot, grid, a: jost_function(pot, -1, np.array([0.5]), grid),
    "jost_on_imaginary_axis": lambda pot, grid, a: jost_on_imaginary_axis(pot, -1, 0.5, grid),
    "phase_shift": lambda pot, grid, a: phase_shift(pot, -1, np.array([0.5]), grid),
    "solve_regular": lambda pot, grid, a: solve_regular(pot, -1, np.array([0.5]), grid),
    "physical_wave": lambda pot, grid, a: physical_wave(pot, -1, np.array([0.5]), grid),
    "find_bound_states": lambda pot, grid, a: find_bound_states(pot, -1, grid),
    "build_bound_state": lambda pot, grid, a: build_bound_state(pot, -1, a, grid),
    "pole_branch_sign": lambda pot, grid, a: pole_branch_sign(pot, -1, a, grid),
    "extrapolant_samples": lambda pot, grid, a: extrapolant_samples(pot, -1, a, grid),
    "extrapolant_samples_near_pole": lambda pot, grid, a: extrapolant_samples_near_pole(
        pot, -1, a, grid
    ),
    "smatrix_residue": lambda pot, grid, a: smatrix_residue(pot, -1, a, grid),
    "jost_derivative": lambda pot, grid, a: jost_derivative(pot, -1, 0.5, grid),
}


@pytest.mark.parametrize("name", NEGATIVE_L)
def test_every_public_radial_function_refuses_negative_l(name, sq41, sq41_states):
    """The private sweeps take the line's even channel at l_out = -1, so
    each public function that takes l refuses l < 0 itself."""
    pot, grid = sq41
    with pytest.raises(SpecError, match="non-negative"):
        NEGATIVE_L[name](pot, grid, sq41_states[0].alpha)


def test_origin_seeds_that_do_not_fit_are_refused(sq41):
    """At l = 14 the origin series seeds nodes 1..6: a first smooth piece
    of 5 nodes, or a sweep that stops below node 6, cannot hold them."""
    pot = make_potential(PotentialSpec("square", 400.0, 5 / 256))
    grid = make_grid(pot, h=1 / 256)
    k = np.array([0.5])
    assert _mesh(pot, grid).domains[0][1] == 5
    with pytest.raises(GridError, match="origin series"):
        solve_regular(pot, 14, k, grid)
    mesh = _mesh(*sq41)
    assert _sweep_regular(mesh, 14, k, 6).shape == (7, 1)
    with pytest.raises(GridError, match="origin series"):
        _sweep_regular(mesh, 14, k, 5)


AXES = {
    "real": (np.array([0.3, 1.1, 2.7]), float),
    "imaginary": (np.array([0.4j, 1.5j, -0.3j]), float),
    "mixed": (np.array([0.3, 1.5j, 2.7]), float),
    "off-axis": (np.array([0.3, 1.5j, 1.0 + 0.1j]), complex),
}


@pytest.mark.parametrize("axis", AXES)
def test_sweeps_run_in_float_where_k2_is_real(axis, sq41):
    """The regular sweep is float64 wherever every k^2 is real, and
    complex as soon as one momentum is off both axes; the Jost sweep is
    float64 on the imaginary axis only, where ft is real."""
    pot, grid = sq41
    k, dtype = AXES[axis]
    mesh = _mesh(pot, grid)
    assert _sweep_regular(mesh, 0, k).dtype == dtype
    assert _sweep_regular(mesh, 1, k, 300).dtype == dtype
    jost = float if axis == "imaginary" else complex
    assert _sweep_jost(mesh, 0, k, 0).dtype == jost
    assert solve_jost_reduced(pot, 1, k, grid).values.dtype == jost


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_imaginary_axis_drops_only_exact_zeros(l, gauss41):
    """On the imaginary axis the free reduced solution, its derivative
    and F itself have imaginary parts that are exactly zero, so the
    float sweeps and jost_on_imaginary_axis discard nothing."""
    pot, grid = gauss41
    kappa = np.array([0.05, 0.4, 1.5, 3.0, -0.2, -0.7])
    z = 1j * kappa * grid.r()[1:, None]
    assert np.all(((1j) ** (l + 1) * hhat_plus(l, z)).imag == 0)
    assert np.all(((1j) ** (l + 1) * 1j * kappa * hhat_plus_d(l, z)).imag == 0)
    f = jost_function(pot, l, 1j * kappa, grid)
    assert np.all(f.imag == 0)
    assert np.array_equal(jost_on_imaginary_axis(pot, l, kappa, grid), f.real)


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


@pytest.mark.parametrize("axis", AXES)
@pytest.mark.parametrize("well", ["sq41", "gauss41", "exp905"])
def test_whole_sweep_is_the_window_sweep_up_to_its_top(well, axis, request):
    """The whole-grid sweep marches to the top of the Jost window and
    fills the free region beyond it, so its nodes up to that top are the
    window sweep's bit for bit, at every l and on the line (l = -1)."""
    pot, grid = request.getfixturevalue(well)
    k = AXES[axis][0]
    mesh = _mesh(pot, grid)
    top = mesh.window + 2
    for l in (-1, 0, 1, 2, 3):
        whole = _sweep_regular(mesh, l, k)
        assert whole.shape == (grid.n + 1, k.size)
        assert np.array_equal(whole[: top + 1], _sweep_regular(mesh, l, k, top))


@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize("well, bound", [("sq41", 1e-8), ("deep30", 5e-9)])
def test_square_well_wave_matches_closed_form_on_every_node(well, bound, l, request):
    """k v against the closed form on every node but the origin. Beyond
    the window the wave is the exact free solution, so the phase error a
    march gathers over the free region (k v off by 1.8e-8 on sq41 and
    5.7e-8 on deep30 at l = 0) is gone; the bounds round up the 7.7e-9
    and 3.6e-9 measured with the free region filled."""
    pot, grid = request.getfixturevalue(well)
    oracle = SquareWellOracle(pot.depth, pot.radius)
    k = np.linspace(0.05, 3.0, 60)
    pw = physical_wave(pot, l, k, grid)
    r = grid.r()[1:]
    exact = np.stack([oracle.physical_wave(l, kk, r) for kk in k], axis=1)
    assert np.max(np.abs(k * (pw.values[1:] - exact))) < bound


@pytest.mark.parametrize("l, bound", [(2, 1e-8), (3, 2e-8)])
def test_wide_batch_wave_matches_closed_form(l, bound, sq41, sq41_oracle):
    """A 300-momentum batch, so the march is the row loop and the fill
    runs on real tables, at l = 2 and 3, where the fill sums l + 1 powers
    of 1/r: k v against the closed form on every node but the origin.
    The bounds round up the largest errors measured, 6.2e-9 (l = 2,
    k = 3.22) and 1.18e-8 (l = 3, k = 4)."""
    pot, grid = sq41
    k = np.linspace(0.05, 4.0, 300)
    pw = physical_wave(pot, l, k, grid)
    r = grid.r()[1:]
    exact = np.stack([sq41_oracle.physical_wave(l, kk, r) for kk in k], axis=1)
    assert np.max(np.abs(k * (pw.values[1:] - exact))) < bound


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_fill_tables_are_per_column(l, sq41, gauss41):
    """A real column fills alike in an all-real batch and with an
    imaginary momentum appended, which builds its own tables in the same
    float sweep: the fill may not branch on the batch as a whole. The
    appended |k| is above the smallest real one, so the fill starts on
    the same node."""
    k = np.linspace(0.05, 4.0, 300)
    for pot, grid in (sq41, gauss41):
        mesh = _mesh(pot, grid)
        for kk in (k, k[::60]):
            real = _sweep_regular(mesh, l, kk)
            mixed = _sweep_regular(mesh, l, np.append(kk, 1.5j))
            assert real.dtype == mixed.dtype == float
            scale = np.max(np.abs(real), axis=0)
            assert np.all(np.max(np.abs(mixed[:, :-1] - real), axis=0) <= 1e-14 * scale)


@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize("k", [np.array([0.3, 1.1, 2.7]), 1j * np.array([0.4, 1.5])])
def test_wronskian_is_node_independent_across_the_window_top(k, l, sq41, gauss41):
    """W[ft, phi] stays constant where phi turns from marched to filled:
    on stencils just inside and just past the window top, and far out.
    A stencil across the top itself reads the step between the march and
    the fill, the five-point derivative error of the window (4e-10 of
    phi at k = 2.7 on sq41), magnified by 1/h."""
    for pot, grid in (sq41, gauss41):
        top = _mesh(pot, grid).window + 2
        ft = solve_jost_reduced(pot, l, k, grid).values
        phi = solve_regular(pot, l, k, grid).values
        nodes = [top - 4, top - 2, top + 3, top + 5, top + 70, grid.n - 2]
        w = np.array([wronskian(ft, phi, i, grid.h) for i in nodes])
        assert np.max(np.abs(w - w[0]) / np.abs(w[0])) < 1e-8


def test_zero_momentum_continues_the_zero_energy_pair(sq41):
    """A batch with k = 0 gets no fill and is marched to the end of the
    grid, where at k = 0 the free region takes a r^{l+1} + b r^{-l}, the
    k -> 0 limit of the free pair, also next to other momenta of the
    batch. Inside the well phi = jhat_l(K r) / K^{l+1} with K = 2;
    outside, a and b match value and slope at r = 1."""
    pot, grid = sq41
    r = grid.r()
    for l in (0, 1):
        phi = solve_regular(pot, l, np.array([0.0, 0.7, 0.5j]), grid).values
        assert phi.dtype == float
        v1 = jhat(l, 2.0).real / 2.0 ** (l + 1)
        d1 = jhat_d(l, 2.0).real / 2.0**l
        # a r^{l+1} + b r^{-l}: value v1 and slope d1 at r = 1
        a = (l * v1 + d1) / (2 * l + 1)
        exact = np.where(
            r <= 1.0,
            jhat(l, 2.0 * r).real / 2.0 ** (l + 1),
            a * r ** (l + 1) + (v1 - a) / np.maximum(r, 1.0) ** l,
        )
        assert np.max(np.abs(phi[:, 0] - exact)) < 1e-8 * np.max(np.abs(exact))


@pytest.mark.parametrize("l", [1, 2, 3])
def test_small_momentum_fill_keeps_the_march_accuracy(l, sq41, sq41_oracle):
    """At small |k| r the free pair cancels by (|k| r)^{-(2l+1)}; the fill
    starts where that stays within the march's rounding, so the wave is
    as close to the closed form as a march over the whole grid."""
    pot, grid = sq41
    mesh = _mesh(pot, grid)
    r = grid.r()[1:]
    for kk in (0.3, 0.05, 0.01):
        k = np.array([kk])
        scale = kk**l / np.abs(jost_function(pot, l, k, grid))
        exact = sq41_oracle.physical_wave(l, kk, r)
        err = [
            np.max(np.abs(phi[1:, 0] * scale - exact))
            for phi in (_sweep_regular(mesh, l, k), _sweep_regular(mesh, l, k, grid.n))
        ]
        assert err[0] <= 2.0 * err[1] + 1e-12, (kk, err)


def test_nothing_to_fill_past_the_grid(sq41):
    """A window that reaches the last node, and a grid that ends inside
    the well, leave nothing to fill: the sweep is the march to r_max."""
    gauss = make_potential(PotentialSpec("gaussian", 4.0, 1.0))
    short = make_grid(gauss, h=1 / 256, r_max=5.0)
    assert _mesh(gauss, short).window + 2 >= short.n
    k = np.array([0.3, 1.1])
    for pot, grid in ((gauss, short), (sq41[0], Grid(h=sq41[1].h, n=200))):
        phi = solve_regular(pot, 0, k, grid).values
        assert np.array_equal(phi, _sweep_regular(_mesh(pot, grid), 0, k, grid.n))


def test_fill_overflow_raises(sq41):
    """The free region grows like e^{kappa r}; past the float range the
    sweep refuses, as the march did, though the window itself is fine."""
    pot, grid = sq41
    mesh = _mesh(pot, grid)
    assert np.all(np.isfinite(_sweep_regular(mesh, 0, np.array([40j]), mesh.window + 2)))
    with pytest.raises(NumericalError), np.errstate(over="ignore", invalid="ignore"):
        solve_regular(pot, 0, np.array([40j]), grid)


def _free_pair(mesh, l, k, vals):
    """a f_+ + b f_- on every node from the fill's first one, f_+- =
    ft(+-k, r) e^{-+ik r_i} from _free_reduced node by node, with a and b
    read on the five window nodes around r_i as the fill reads them; and
    |a f_+| + |b f_-|, the size of the two terms there."""
    grid, i, h = mesh.grid, mesh.window, mesh.grid.h
    rw = np.arange(i - 2, i + 3) * h
    up, dn = np.exp(-1j * k * rw[2]), np.exp(1j * k * rw[2])
    a = wronskian(_free_reduced(l, -k, rw) * dn, vals[i - 2 : i + 3], 2, h) / (2j * k)
    b = -wronskian(_free_reduced(l, k, rw) * up, vals[i - 2 : i + 3], 2, h) / (2j * k)
    s = _fill_node(mesh, l, k)
    r = grid.r()[s:]
    f_up, f_dn = a * _free_reduced(l, k, r) * up, b * _free_reduced(l, -k, r) * dn
    return s, f_up + f_dn, np.abs(f_up) + np.abs(f_dn)


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_fill_is_the_free_pair_on_every_node(l, sq15):
    """The fill against the free pair evaluated node by node, on real,
    imaginary and complex momenta, 1 to 300 of them: groups of 256 to 1
    blocks, a last group short of blocks, a tail ending in a part block
    and, at real k, one of whole blocks. Relative to the size of the two
    terms at each node, the per-block loop this fill replaced read at
    most 5.3e-14 (l = 1, 300 imaginary momenta), and so does this fill."""
    pot, stock = sq15
    k = np.linspace(0.05, 4.0, 300)
    shapes = set()
    for kk in (np.array([1.3]), k[::60], k[::9], k):
        for batch in (kk, 1j * kk, kk * np.exp(0.3j)):
            s = _fill_node(_mesh(pot, stock), l, batch)
            cut = s - 1 + _FILL_BLOCK * ((stock.n + 1 - s) // _FILL_BLOCK)
            for grid in (stock, Grid(h=stock.h, n=cut))[: 2 if batch is kk else 1]:
                mesh = _mesh(pot, grid)
                vals = _sweep_regular(mesh, l, batch)
                start, pair, size = _free_pair(mesh, l, batch, vals)
                assert start == s
                assert np.max(np.abs(vals[s:] - pair) / size) < 2e-13
                blocks, rest = divmod(grid.n + 1 - s, _FILL_BLOCK)
                per = max(1, _FILL_GROUP // (_FILL_BLOCK * batch.size))
                shapes.add((rest > 0, blocks % per > 0))
    assert shapes == {(True, True), (True, False), (False, True), (False, False)}


def test_fill_bound_trips_without_refusing_finite_values(sq41, monkeypatch):
    """At k = 28i the fill bounds its values above 1e300 but they stay
    finite (1.7e302 at r_max): the fill's rows are scanned, and the sweep
    returns."""
    pot, grid = sq41
    bounds = []

    def spy(*args):
        bounds.append(_free_fill(*args))
        return bounds[-1]

    monkeypatch.setattr(radial, "_free_fill", spy)
    phi = solve_regular(pot, 0, np.array([28j]), grid).values
    assert bounds[0] >= radial._FILL_LIMIT
    assert 1e300 < np.max(np.abs(phi)) < np.inf


@pytest.mark.parametrize("l", [0, 1, 2])
def test_fill_bound_refuses_as_a_full_scan_does(l, sq41, monkeypatch):
    """Across the edge of the float range (k = 27i to 30i, where the
    largest value passes 1e308) a sweep is refused exactly when a scan of
    every node, which a bound of 0 forces, refuses it."""
    pot, grid = sq41
    mesh = _mesh(pot, grid)

    def refused(kappa):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                _sweep_regular(mesh, l, np.array([1j * kappa]))
        except NumericalError:
            return True
        return False

    ladder = np.arange(27.0, 30.0, 0.125)
    fast = [refused(kappa) for kappa in ladder]
    monkeypatch.setattr(radial, "_FILL_LIMIT", 0.0)
    assert fast == [refused(kappa) for kappa in ladder]
    assert any(fast) and not all(fast)


def test_fill_bound_holds_the_horner_partial_sums(monkeypatch):
    """Far from the origin the fill's Horner partial sums outgrow its
    values by up to r^l: sq41 stretched 1e4 times, at l = 3 and
    k = 1e-3 i (sq41 at k = 10i in stretched units). From r_max = 6.425e5
    they pass 1e300 while the values stay below 1e298; those sweeps are
    scanned and returned. Across the edge of the float range a sweep
    returns the same values, or is refused, as when every node is
    scanned."""
    stretch = 1e4
    pot = make_potential(PotentialSpec("square", 4.0 / stretch**2, stretch))
    k = np.array([10j / stretch])
    bounds = []

    def spy(*args):
        bounds.append(_free_fill(*args))
        return bounds[-1]

    def largest(r_max):
        mesh = _mesh(pot, make_grid(pot, h=stretch / 256, r_max=r_max * stretch))
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return np.max(np.abs(_sweep_regular(mesh, 3, k)))
        except NumericalError:
            return None

    monkeypatch.setattr(radial, "_free_fill", spy)
    ladder = np.arange(63.5, 66.1, 0.25)
    fast = [largest(r_max) for r_max in ladder]
    assert any(b >= radial._FILL_LIMIT and v is not None and v < 1e298 for b, v in zip(bounds, fast))
    monkeypatch.setattr(radial, "_FILL_LIMIT", 0.0)
    assert fast == [largest(r_max) for r_max in ladder]
    assert fast[0] is not None and fast[-1] is None


def test_nan_in_the_window_is_refused(sq41):
    """A NaN on the window reaches the fill's coefficients: its bound is
    then NaN, not below the limit, so the fill's rows are scanned; and a
    sweep whose window carries one (from U there) is refused."""
    pot, grid = sq41
    mesh = _mesh(pot, grid)
    k = np.array([0.3, 1.1, 2.7])
    vals = _sweep_regular(mesh, 0, k)
    vals[mesh.window + 1, 1] = np.nan
    with np.errstate(invalid="ignore"):
        bound = _free_fill(0, k, grid, mesh.window, vals, mesh.window + 3, 1.0)
    assert not bound < radial._FILL_LIMIT
    assert np.isnan(vals[mesh.window + 3 :, 1]).all()
    i0, i1, u = mesh.domains[-1]
    u = u.copy()
    u[mesh.window - i0] = np.nan
    bad = radial._Mesh(pot, grid, mesh.domains[:-1] + ((i0, i1, u),), mesh.u)
    with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
        _sweep_regular(bad, 0, k)


def test_regular_solution_has_no_strip_limit():
    """phi is entire in k^2, so the regular solution takes Im k < 0 far
    outside the strip where the Jost function refuses it, and equals the
    solution at -k."""
    pot = make_potential(PotentialSpec("exponential", 4.0, 1.0))
    grid = make_grid(pot, h=1 / 256)
    with pytest.raises(SpecError, match="strip"):
        jost_function(pot, 0, np.array([-1.0j]), grid)
    down = solve_regular(pot, 0, np.array([-1.0j]), grid).values
    up = solve_regular(pot, 0, np.array([1.0j]), grid).values
    assert np.all(np.isfinite(down))
    assert np.max(np.abs(down - up)) <= 1e-12 * np.max(np.abs(up))
