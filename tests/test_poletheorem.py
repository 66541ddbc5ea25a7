"""The pole limit of the scattering wave against the bound states.

Residual bounds here are frozen from converged runs at the module's
default sampling (six imaginary-axis samples half a percent under the
pole, quadratic fit); each carries roughly a factor two of headroom so
a real regression trips it but grid jitter does not.
"""

import math
import warnings
from contextlib import nullcontext

import numpy as np
import pytest

from polewave.analytic import SquareWellOracle
from polewave.errors import (
    ConditioningWarning,
    ExtrapolationWarning,
    NumericalError,
    SpecError,
)
from polewave.onedim import Potential1D, find_bound_1d, pole_residue_1d, residue_prediction_1d
from polewave.poletheorem import (
    compare_to_bound,
    extrapolant_samples,
    extrapolant_samples_near_pole,
    extrapolate_to_pole,
    gw_extrapolant,
    jost_derivative,
    pole_branch_sign,
    residue_consistency,
    residue_prediction,
    smatrix_residue,
    wronskian_identity,
)
from polewave.radial import jost_on_imaginary_axis, physical_wave, solve_regular
from polewave.spectrum import find_bound_states


def near_pole_comparison(pot, grid, state, order=2):
    samples = extrapolant_samples_near_pole(pot, state.l, state.alpha, grid)
    ext = extrapolate_to_pole(samples, order=order)
    return samples, compare_to_bound(ext, state)


def test_square_well_pole_limit(sq41, sq41_states):
    pot, grid = sq41
    samples, cmp_ = near_pole_comparison(pot, grid, sq41_states[0])
    assert cmp_.signed
    assert cmp_.max_residual < 2e-4
    assert samples.branch_sign == -1.0
    assert samples.d_side == 1.0


def test_exponential_well_pole_limit(exp905):
    pot, grid = exp905
    state = find_bound_states(pot, 0, grid)[0]
    samples, cmp_ = near_pole_comparison(pot, grid, state)
    assert cmp_.max_residual < 6e-4
    assert samples.branch_sign == -1.0


def test_gaussian_well_pole_limit(gauss41):
    pot, grid = gauss41
    state = find_bound_states(pot, 0, grid)[0]
    samples, cmp_ = near_pole_comparison(pot, grid, state)
    assert cmp_.max_residual < 4e-4
    assert samples.branch_sign == -1.0


def test_deep_well_both_states(deep30, deep30_states):
    """Two poles in one well. The branch sign flips between them
    because F crosses zero at the deeper state; with the sign folded in
    both limits land on -u."""
    pot, grid = deep30
    deep, shallow = deep30_states
    s_deep, cmp_deep = near_pole_comparison(pot, grid, deep)
    s_shallow, cmp_shallow = near_pole_comparison(pot, grid, shallow)
    assert cmp_deep.max_residual < 1e-6
    assert cmp_shallow.max_residual < 2e-5
    assert s_deep.branch_sign == -1.0
    assert s_shallow.branch_sign == +1.0


def test_p_wave_pole_limit(sq15, sq15_l1_states):
    """At odd l the continued normalization is imaginary and D < 0 on
    the approach, so the samples carry |g| and the comparison is of
    squares; d_side records the branch."""
    pot, grid = sq15
    samples, cmp_ = near_pole_comparison(pot, grid, sq15_l1_states[0])
    assert not cmp_.signed
    assert samples.d_side == -1.0
    assert cmp_.max_residual < 5e-5


def test_real_axis_window_extrapolates_poorly(sq41, sq41_states):
    """Samples at scattering energies sit an alpha^2 away from the
    pole; the fit must warn, and its wave only tracks -u out to
    r ~ 1.8 before the admixed growing solution takes over. This is
    the behavior the near-pole sampler exists to avoid."""
    pot, grid = sq41
    state = sq41_states[0]
    with pytest.warns(ExtrapolationWarning):
        ext = extrapolate_to_pole(extrapolant_samples(pot, 0, state.alpha, grid))
    inner = compare_to_bound(ext, state, 0.5, 1.8)
    assert inner.max_residual < 5e-3
    full = compare_to_bound(ext, state)
    assert full.max_residual > 1.0


def test_near_pole_window_is_quiet(sq41, sq41_states):
    pot, grid = sq41
    with warnings.catch_warnings():
        warnings.simplefilter("error", ExtrapolationWarning)
        samples = extrapolant_samples_near_pole(pot, 0, sq41_states[0].alpha, grid)
        ext = extrapolate_to_pole(samples, order=2)
    assert ext.condition < 50.0
    assert ext.t_target == -sq41_states[0].alpha ** 2


def test_sampler_validation(sq41, sq41_states):
    pot, grid = sq41
    alpha = sq41_states[0].alpha
    with pytest.raises(SpecError):
        extrapolant_samples(pot, 0, -alpha, grid)
    with pytest.raises(SpecError):
        extrapolant_samples(pot, 0, alpha, grid, n_samples=1)
    with pytest.raises(SpecError):
        extrapolant_samples_near_pole(pot, 0, alpha, grid, n_samples=6, spacing=0.2)
    samples = extrapolant_samples_near_pole(pot, 0, alpha, grid)
    with pytest.raises(SpecError):
        extrapolate_to_pole(samples, order=6)


def test_window_crossing_another_pole_is_refused(deep30, deep30_states):
    """A wide window below the deep state straddles the shallow zero of
    F, where D changes sign; silently mixing branches would corrupt the
    fit, so the sampler raises instead."""
    pot, grid = deep30
    with pytest.raises(NumericalError, match="changes sign"):
        extrapolant_samples_near_pole(
            pot, 0, deep30_states[0].alpha, grid, n_samples=6, spacing=0.15
        )


def test_comparison_guards(sq41, sq41_states, deep30_states):
    pot, grid = sq41
    samples = extrapolant_samples_near_pole(pot, 0, sq41_states[0].alpha, grid)
    ext = extrapolate_to_pole(samples)
    with pytest.raises(SpecError):
        compare_to_bound(ext, deep30_states[0])
    with pytest.raises(SpecError):
        compare_to_bound(ext, sq41_states[0], 30.0, 40.0)


def test_residue_prediction_signs():
    assert residue_prediction(0, 2.0) == -4j
    assert residue_prediction(1, 2.0) == 4j


def test_residue_imaginary_axis(sq41, sq41_states, sq15, sq15_l1_states):
    for (pot, grid), state in [(sq41, sq41_states[0]), (sq15, sq15_l1_states[0])]:
        est = smatrix_residue(pot, state.l, state.alpha, grid, "imaginary_axis")
        pred = residue_prediction(state.l, state.asymptotic_norm)
        assert abs(est.value - pred) / abs(pred) < 1e-6
        assert est.n_estimate == pytest.approx(state.asymptotic_norm, rel=1e-6)


def test_residue_real_axis_fit(sq41, sq41_states):
    """The fit through scattering momenta is the fallback for tails; it
    reaches the s-wave pole three orders coarser than the axis walk."""
    pot, grid = sq41
    state = sq41_states[0]
    est = smatrix_residue(pot, 0, state.alpha, grid, "real_axis_fit")
    pred = residue_prediction(0, state.asymptotic_norm)
    assert abs(est.value - pred) / abs(pred) < 1e-3


def test_residue_methods_agree(sq41, sq41_states):
    pot, grid = sq41
    a, b, disagree = residue_consistency(pot, 0, sq41_states[0].alpha, grid)
    assert not disagree
    assert a.method == "imaginary_axis" and b.method == "real_axis_fit"


def test_residue_method_guards(gauss41, sq41, sq41_states):
    """A decaying tail takes the imaginary-axis residue like a cutoff
    well, radially and in both line channels; an unknown method is
    refused."""
    pot_g, grid_g = gauss41
    state = find_bound_states(pot_g, 0, grid_g)[0]
    est = smatrix_residue(pot_g, 0, state.alpha, grid_g, "imaginary_axis")
    pred = residue_prediction(0, state.asymptotic_norm)
    assert abs(est.value - pred) / abs(pred) < 1e-6
    p = Potential1D(pot_g)
    for parity in ("even", "odd"):
        s1 = find_bound_1d(p, parity, grid_g)[0]
        # the even ladder reaches kappa = 1.54 in the lower half plane,
        # where e^{2 kappa r_c} at r_c = 5.38 is 1.4e7
        with pytest.warns(ConditioningWarning) if parity == "even" else nullcontext():
            est = pole_residue_1d(p, parity, s1.alpha, grid_g)
        pred = residue_prediction_1d(parity, s1.norm_constant)
        assert abs(est.value - pred) / abs(pred) < 1e-2
    pot, grid = sq41
    with pytest.raises(SpecError):
        smatrix_residue(pot, 0, sq41_states[0].alpha, grid, "saddle")


def test_jost_derivative_against_closed_form(sq41, sq41_states):
    pot, grid = sq41
    alpha = sq41_states[0].alpha
    oracle = SquareWellOracle(4.0, 1.0)
    jd = jost_derivative(pot, 0, 1j * alpha, grid)
    h = 1e-5
    ref = (oracle.jost(0, 1j * (alpha + h)) - oracle.jost(0, 1j * (alpha - h))) / (
        2j * h
    )
    assert abs(jd.value - complex(ref)) / abs(ref) < 1e-7
    assert jd.error < 1e-8
    with pytest.raises(SpecError):
        jost_derivative(pot, 0, 0.0, grid)


def test_derivative_prefactor_form_tracks_ours(sq41, sq41_states):
    """Both prefactor forms converge linearly along a geometric ladder
    of pole distances; the derivative form is never better and pays a
    visibly larger constant at the top rung."""
    pot, grid = sq41
    state = sq41_states[0]
    alpha = state.alpha
    frac = 4.0 ** -np.arange(1, 7)
    kappa = alpha * np.sqrt(1.0 - frac)
    dist = alpha**2 * frac
    gw = gw_extrapolant(pot, alpha, 1j * kappa, grid)
    assert np.max(np.abs(gw.values.imag)) == 0.0

    r = grid.r()
    sel = (r >= 0.5) & (r <= 3.0 / alpha)
    expected = -state.u[sel]
    denom = np.maximum(np.abs(expected), 1e-3 * float(np.max(np.abs(state.u))))
    s = pole_branch_sign(pot, 0, alpha, grid)
    f_up = jost_on_imaginary_axis(pot, 0, kappa, grid)
    f_dn = jost_on_imaginary_axis(pot, 0, -kappa, grid)
    phi = solve_regular(pot, 0, 1j * kappa, grid).values.real
    ours = s * math.sqrt(2 * alpha) * np.sqrt(dist) * phi / np.sqrt(f_up * f_dn)
    ours_err = np.array(
        [np.max(np.abs(ours[sel, j] - expected) / denom) for j in range(6)]
    )
    gw_err = np.array(
        [np.max(np.abs(gw.values[sel, j].real - expected) / denom) for j in range(6)]
    )
    assert gw_err[0] > ours_err[0]
    slope_ours = np.polyfit(np.log(dist), np.log(ours_err), 1)[0]
    slope_gw = np.polyfit(np.log(dist), np.log(gw_err), 1)[0]
    assert 0.9 < slope_ours < 1.1
    assert 0.9 < slope_gw < 1.1
    # both aim at the same limit, so the forms agree ever closer
    assert abs(gw_err[-1] - ours_err[-1]) / ours_err[-1] < 1e-2


def test_derivative_form_carries_the_universal_samples(sq41, sq41_states):
    """The universal form gw_extrapolant carries is the near-pole
    sampler's g at the same momenta."""
    pot, grid = sq41
    alpha = sq41_states[0].alpha
    samples = extrapolant_samples_near_pole(pot, 0, alpha, grid)
    kappa = np.sqrt(-samples.t)
    forms = gw_extrapolant(pot, alpha, 1j * kappa, grid)
    ours = forms.universal.g
    assert np.max(np.abs(ours.imag)) == 0.0
    assert forms.universal.branch_sign == samples.branch_sign
    scale = np.max(np.abs(samples.g), axis=0)
    assert np.max(np.abs(ours.real - samples.g) / scale) < 1e-10


def test_cross_wronskian_identity(sq41, sq41_states):
    pot, grid = sq41
    wave = physical_wave(pot, 0, np.array([0.9]), grid)
    for radius in (1.5, 3.0, 5.0):
        ident = wronskian_identity(sq41_states[0], wave, radius)
        assert ident.residual < 1e-6


def test_branch_sign_validation(sq41):
    pot, grid = sq41
    with pytest.raises(SpecError):
        pole_branch_sign(pot, 0, 0.0, grid)


def test_derivative_prefactor_form_is_worse_at_scattering_energies(sq41, sq41_states):
    """At real momenta up to the pole scale both forms miss -u by a lot
    (the pole is an alpha^2 away), and the derivative form misses by
    more at every k tested."""
    pot, grid = sq41
    state = sq41_states[0]
    alpha = state.alpha
    k = alpha * np.array([0.25, 0.5, 1.0])
    r = grid.r()
    sel = (r >= 0.5) & (r <= 3.0 / alpha)
    expected = -state.u[sel]
    denom = np.maximum(np.abs(expected), 1e-3 * float(np.max(np.abs(state.u))))
    s = pole_branch_sign(pot, 0, alpha, grid)
    wave = physical_wave(pot, 0, k, grid)
    ours = s * math.sqrt(2 * alpha) * np.sqrt(alpha**2 + k**2) * wave.values
    gw = gw_extrapolant(pot, alpha, k, grid)
    for j in range(k.size):
        ours_err = np.max(np.abs(ours[sel, j] - expected) / denom)
        gw_err = np.max(np.abs(gw.values[sel, j] - expected) / denom)
        assert gw_err > ours_err, f"k = {k[j]:.4f}: gw {gw_err:.4g}, ours {ours_err:.4g}"
