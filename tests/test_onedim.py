"""Parity channels on the line: spectra, residues, and the pole limit."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from polewave.errors import NumericalError, SpecError
from polewave.onedim import (
    Potential1D,
    build_bound_1d,
    extrapolant_samples_1d,
    find_bound_1d,
    pole_extrapolate_1d,
    pole_residue_1d,
    residue_prediction_1d,
    smatrix_1d,
    solve_parity,
    zero_energy_phase,
)
from polewave.poletheorem import extrapolant_samples_near_pole, extrapolate_to_pole
from polewave.potentials import Free, PotentialSpec, make_grid, make_potential
from polewave.radial import physical_wave
from polewave.spectrum import find_bound_states


def square_line(depth, h=1 / 256):
    p = Potential1D(make_potential(PotentialSpec("square", depth, 1.0)))
    return p, make_grid(p.half, h=h)


def test_even_alpha_is_the_tangent_root(oned41, oned41_even):
    """The even square-well condition is alpha = K tan(K a); bisection
    on the product form K sin(K a) - alpha cos(K a) has no poles."""
    def cond(a):
        k = math.sqrt(4.0 - a * a)
        return k * math.sin(k) - a * math.cos(k)

    root = brentq(cond, 1.0, 1.99, xtol=1e-13)
    assert len(oned41_even) == 1
    assert oned41_even[0].alpha == pytest.approx(root, abs=1e-6)


def test_odd_alpha_is_the_radial_alpha(oned41_odd, sq41_states):
    """The odd channel of U(|x|) is the s-wave radial problem, and its
    search runs the radial condition, so its alpha is the radial one bit
    for bit; the full-line norm constant is the radial one over sqrt(2)."""
    assert len(oned41_odd) == 1
    s1, s3 = oned41_odd[0], sq41_states[0]
    assert s1.alpha == s3.alpha
    assert abs(s1.norm_constant - s3.asymptotic_norm / math.sqrt(2.0)) < 1e-8


def test_even_phase_closed_form(oned41):
    """Inside the square line the even wave is cos(K x), K^2 = k^2 + U0;
    matching value and slope to A cos(k x + delta), A > 0, at x = a
    fixes delta_plus mod 2 pi."""
    p, grid = oned41
    k = np.array([0.3, 1.0, 2.5])
    delta = solve_parity(p, "even", k, grid).delta
    big_k = np.sqrt(4.0 + k * k)
    ref = np.angle(np.cos(big_k) + 1j * (big_k / k) * np.sin(big_k)) - k
    assert np.max(np.abs(np.angle(np.exp(1j * (delta - ref))))) < 1e-6


def test_even_wave_closed_form_on_every_node(oned41):
    """The even wave's values, not only its phase: A cos(q x) inside the
    square line, q^2 = k^2 + U0, and cos(k x + delta_plus) outside, with
    A > 0 and delta_plus from matching value and slope at x = a. Over 300
    momenta, marched inside the window and filled beyond it, the largest
    error was 1.79e-8 (k = 4, x = 0.70); the bound rounds it up."""
    p, grid = oned41
    k = np.linspace(0.05, 4.0, 300)
    y = solve_parity(p, "even", k, grid).values
    x, a = grid.r()[:, None], 1.0
    q = np.sqrt(k * k + 4.0)
    # A cos(q a) = cos(k a + delta_plus), A q sin(q a) = k sin(k a + delta_plus)
    amp = 1.0 / np.sqrt(np.cos(q * a) ** 2 + (q / k * np.sin(q * a)) ** 2)
    phase = np.arctan2(amp * q / k * np.sin(q * a), amp * np.cos(q * a))
    exact = np.where(x < a, amp * np.cos(q * x), np.cos(k * (x - a) + phase))
    assert np.max(np.abs(y - exact)) < 2e-8


def test_even_norm_constant_closed_form(oned41_even):
    """Full-line normalization of cos(K x) matched to e^{-alpha x}."""
    s = oned41_even[0]
    a = s.alpha
    k = math.sqrt(4.0 - a * a)
    amp = math.exp(-a) / math.cos(k)
    inner = amp**2 * (0.5 + math.sin(2.0 * k) / (4.0 * k))
    outer = math.exp(-2.0 * a) / (2.0 * a)
    ref = 1.0 / math.sqrt(2.0 * (inner + outer))
    assert s.norm_constant == pytest.approx(ref, rel=1e-9)
    assert s.energy == -a * a
    total = 2.0 * (inner + outer)
    assert np.trapezoid(s.unit_norm() ** 2, s.grid.r()) == pytest.approx(
        0.5, abs=1e-6
    ), f"unit_norm should carry half the line's probability, total was {total}"


def test_pole_limit_both_parities(oned41, oned41_even, oned41_odd):
    """The extrapolated parity wave lands on +N u for both channels.
    Bounds frozen from converged runs with factor-two headroom."""
    p, grid = oned41
    for state, bound in [(oned41_even[0], 1e-4), (oned41_odd[0], 2e-4)]:
        ext, cmp_ = pole_extrapolate_1d(p, state.parity, state)
        assert np.array_equal(cmp_.expected, state.unit_norm()[np.isin(grid.r(), cmp_.r)])
        assert cmp_.max_residual < bound
        assert ext.samples.d_side == 1.0


def test_branch_probe_signs(oned41, oned41_even, oned41_odd):
    p, grid = oned41
    se = extrapolant_samples_1d(p, "even", oned41_even[0].alpha, grid)
    so = extrapolant_samples_1d(p, "odd", oned41_odd[0].alpha, grid)
    assert se.branch_sign == +1.0
    assert so.branch_sign == -1.0


def test_parity_residues(oned41, oned41_even, oned41_odd):
    """Res S at i alpha is +2i N^2 in the even channel and -2i N^2 in
    the odd one; the sign flip is the parity of the asymptotic form."""
    p, grid = oned41
    for state in (oned41_even[0], oned41_odd[0]):
        est = pole_residue_1d(p, state.parity, state.alpha, grid)
        pred = residue_prediction_1d(state.parity, state.norm_constant)
        assert abs(est.value - pred) / abs(pred) < 1e-6
        assert est.n_estimate == pytest.approx(state.norm_constant, rel=1e-6)
    assert residue_prediction_1d("even", 3.0) == 18j
    assert residue_prediction_1d("odd", 3.0) == -18j


def test_parity_smatrix_unitarity(oned41):
    p, grid = oned41
    k = np.linspace(0.1, 3.0, 15)
    for parity in ("even", "odd"):
        s = smatrix_1d(p, parity, k, grid)
        assert np.max(np.abs(np.abs(s) - 1.0)) < 1e-10


@pytest.mark.parametrize("well", ["sq41", "gauss41", "deep30"])
def test_parity_phase_is_the_smatrix_phase(well, request):
    """delta of the parity wave is the phase of its channel's S matrix,
    S = e^{2 i delta}, to rounding: both are read on the Jost window."""
    pot, grid = request.getfixturevalue(well)
    p, k = Potential1D(pot), np.linspace(0.01, 3.0, 300)
    for parity in ("even", "odd"):
        delta = solve_parity(p, parity, k, grid).delta
        assert np.max(np.abs(smatrix_1d(p, parity, k, grid) - np.exp(2j * delta))) < 1e-13


@pytest.mark.parametrize("well", ["sq41", "gauss41", "deep30"])
def test_odd_parity_wave_is_the_radial_s_wave(well, request):
    """The odd wave -sin(k x + delta) is -k times the radial s wave
    sin(k r + delta) / k, scaled and phased from the same F."""
    pot, grid = request.getfixturevalue(well)
    k = np.linspace(0.01, 3.0, 300)
    odd = solve_parity(Potential1D(pot), "odd", k, grid)
    wave = physical_wave(pot, 0, k, grid)
    assert np.array_equal(odd.delta, wave.delta)
    gap = np.abs(odd.values + k * wave.values).max(axis=0)
    assert np.all(gap <= 1e-15 * np.abs(odd.values).max(axis=0))


@pytest.mark.parametrize("well", ["sq41", "deep30"])
def test_zero_energy_phase_does_not_depend_on_rmax(well, request):
    pot, grid = request.getfixturevalue(well)
    p = Potential1D(pot)
    short = make_grid(pot, h=grid.h, r_max=12.0)
    assert zero_energy_phase(p, grid).delta0 == zero_energy_phase(p, short).delta0


def test_zero_energy_phase_law():
    """delta_plus(0) = pi/2 for a generic attractive well, any depth."""
    for depth, tol in [(4.0, 1e-4), (1.0, 1e-3)]:
        p, grid = square_line(depth)
        zp = zero_energy_phase(p, grid)
        assert zp.threshold_alpha is None
        assert abs(zp.delta0 - math.pi / 2) < tol


def test_zero_energy_threshold_exception():
    """At U0 a^2 = pi^2 a new even state sits exactly at threshold; the
    law does not apply and the detector must say so."""
    p, grid = square_line(math.pi**2)
    zp = zero_energy_phase(p, grid)
    assert zp.threshold_alpha is not None
    assert abs(zp.threshold_alpha) < 1e-6


def test_free_line_is_marginal():
    """No potential: the even channel's constant solution is the
    textbook threshold case, and both parity waves are the free ones."""
    p = Potential1D(Free())
    grid = make_grid(p.half, h=1 / 128, r_max=12.0)
    zp = zero_energy_phase(p, grid)
    assert zp.threshold_alpha == 0.0
    assert abs(zp.delta0) < 1e-6
    x = grid.r()
    even = solve_parity(p, "even", np.array([0.9]), grid)
    odd = solve_parity(p, "odd", np.array([0.9]), grid)
    assert np.max(np.abs(even.values[:, 0] - np.cos(0.9 * x))) < 1e-8
    assert np.max(np.abs(odd.values[:, 0] + np.sin(0.9 * x))) < 1e-8
    assert abs(even.delta[0]) < 1e-8 and abs(odd.delta[0]) < 1e-8
    assert find_bound_1d(p, "even", grid) == []
    assert find_bound_1d(p, "odd", grid) == []


def test_deep_well_parities_interlace():
    """Eigenvalues of the two parities strictly interlace, deepest even
    first; on the energy axis the line problem is a single ladder."""
    p, grid = square_line(30.0, h=1 / 512)
    even = [s.alpha for s in find_bound_1d(p, "even", grid)]
    odd = [s.alpha for s in find_bound_1d(p, "odd", grid)]
    assert len(even) == 2 and len(odd) == 2
    ladder = [even[0], odd[0], even[1], odd[1]]
    assert all(a > b for a, b in zip(ladder, ladder[1:]))


def test_odd_channel_reproduces_radial_pole_limit(oned41, oned41_odd, sq41_states):
    """The same extrapolation run on the line (odd) and radially (s
    wave) must produce the same wave up to the sqrt(2) of full-line
    normalization and the sign conventions of the two channels."""
    p, grid = oned41
    ext1, _ = pole_extrapolate_1d(p, "odd", oned41_odd[0])
    s3 = extrapolant_samples_near_pole(p.half, 0, sq41_states[0].alpha, grid)
    ext3 = extrapolate_to_pole(s3, order=2)
    x = grid.r()
    sel = (x >= 0.5) & (x <= 6.0 / sq41_states[0].alpha)
    assert np.max(np.abs(ext1.g_star[sel] + ext3.g_star[sel] / math.sqrt(2.0))) < 1e-6


def test_parity_validation(oned41, oned41_even):
    p, grid = oned41
    alpha = oned41_even[0].alpha
    with pytest.raises(SpecError):
        solve_parity(p, "both", np.array([1.0]), grid)
    with pytest.raises(SpecError):
        solve_parity(p, "even", np.array([-1.0]), grid)
    with pytest.raises(SpecError):
        extrapolant_samples_1d(p, "even", alpha, grid, mode="diagonal")
    with pytest.raises(SpecError):
        extrapolant_samples_1d(p, "even", alpha, grid, n_samples=6, spacing=0.3)


def test_build_rejects_the_wrong_parity(oned41, oned41_odd):
    """An odd alpha fails the even boundary condition at the origin and
    must be refused rather than normalized into nonsense."""
    p, grid = oned41
    with pytest.raises(NumericalError):
        build_bound_1d(p, "even", oned41_odd[0].alpha, grid)


def test_potential_mirror_symmetry(oned41):
    p, _ = oned41
    x = np.array([-1.7, -0.3, 0.3, 1.7])
    v = p(x)
    assert v[0] == v[3] and v[1] == v[2]
