"""The pole limit of the scattering wave against the bound states.

Residual bounds here are frozen from converged runs at the module's
default sampling (six imaginary-axis samples half a percent under the
pole, quadratic fit); each carries roughly a factor two of headroom so
a real regression trips it but grid jitter does not.
"""

import functools
import math
import warnings
from contextlib import nullcontext

import numpy as np
import pytest

import polewave._integrate as ig
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
    residue_prediction,
    smatrix_residue,
)
from polewave.potentials import PotentialSpec, make_grid, make_potential
from polewave.radial import jost_on_imaginary_axis, physical_wave, solve_regular
from polewave.spectrum import find_bound_states


def near_pole_comparison(pot, grid, state, order=2):
    samples = extrapolant_samples_near_pole(pot, state.l, state.alpha, grid)
    ext = extrapolate_to_pole(samples, order=order)
    return samples, compare_to_bound(ext, state)


def compared_to_minus_u(cmp_, state):
    """The comparison's expected values are -u on its radii, sign included."""
    return np.array_equal(cmp_.expected, -state.u[np.isin(state.grid.r(), cmp_.r)])


def test_square_well_pole_limit(sq41, sq41_states):
    pot, grid = sq41
    samples, cmp_ = near_pole_comparison(pot, grid, sq41_states[0])
    assert compared_to_minus_u(cmp_, sq41_states[0])
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
    """At odd l, D carries t^l < 0 on the approach, so d_side reads -1
    and g takes the root of -D; with the branch sign folded in, the
    limit is -u, compared with its sign."""
    pot, grid = sq15
    samples, cmp_ = near_pole_comparison(pot, grid, sq15_l1_states[0])
    assert compared_to_minus_u(cmp_, sq15_l1_states[0])
    assert samples.d_side == -1.0
    assert cmp_.max_residual < 5e-5


@functools.cache
def square_states(depth, l):
    pot = make_potential(PotentialSpec("square", depth, 1.0))
    grid = make_grid(pot, h=1 / 256)
    return pot, grid, find_bound_states(pot, l, grid)


@pytest.mark.parametrize(
    "depth, l, index",
    [
        (15.0, 1, 0),
        (30.0, 1, 0),
        (60.0, 2, 0),
        pytest.param(
            60.0, 2, 1,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the shallow l = 2 state (alpha = 0.44) needs a sample window "
                "sized to the state; ROADMAP item 5",
            ),
        ),
        (60.0, 3, 0),
        (100.0, 2, 0),
        (100.0, 2, 1),
        (100.0, 4, 0),
    ],
)
def test_signed_pole_limit_at_higher_l(depth, l, index):
    """The pole limit is -u with its sign at every l: D has the sign
    (-1)^l of its factor t^l on the approach, and g is built on
    d_side D. The bound is the acceptance tolerance, 1e-3."""
    pot, grid, states = square_states(depth, l)
    state = states[index]
    # F(-i kappa) near the pole amplifies rounding by e^{2 alpha} at the
    # well edge r = 1; past 1e6 (the deep l = 2 state of depth 100) it warns
    with pytest.warns(ConditioningWarning) if math.exp(2 * state.alpha) > 1e6 else nullcontext():
        samples, cmp_ = near_pole_comparison(pot, grid, state)
    assert samples.d_side == (-1.0) ** l
    assert cmp_.max_residual < 1e-3


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


def test_clipped_comparison_window_warns(gauss41):
    """The default window [0.5, 6/alpha] ends at r = 15.45 on the
    gaussian: clipped at r_max = 12 the residuals depend on r_max, and a
    warning says so; the default grid reaches past the window."""
    pot, grid = gauss41

    def compare(g):
        state = find_bound_states(pot, 0, g)[0]
        samples = extrapolant_samples_near_pole(pot, 0, state.alpha, g)
        return compare_to_bound(extrapolate_to_pole(samples), state)

    with warnings.catch_warnings():
        warnings.simplefilter("error", ExtrapolationWarning)
        compare(grid)
    with pytest.warns(ExtrapolationWarning, match="r = 15.45, beyond r_max = 12"):
        compare(make_grid(pot, h=grid.h, r_max=12.0))


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
    a, b = (
        smatrix_residue(pot, 0, sq41_states[0].alpha, grid, method)
        for method in ("imaginary_axis", "real_axis_fit")
    )
    assert abs(a.value - b.value) / max(abs(a.value), abs(b.value)) <= 1e-2
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


def test_unconverged_residue_ladder_is_refused():
    """Where e^{2 alpha r_c} lets rounding swamp S(i kappa), the ladder's
    Richardson gauge passes a tenth of the residue, and the residue is
    refused, not returned: radially at the deepest state of square
    (100, 2), alpha = 9.89, and on the line at the deepest even state of
    square (100, 1), alpha = 9.90."""
    pot = make_potential(PotentialSpec("square", 100.0, 2.0))
    grid = make_grid(pot, h=1 / 256)
    alpha = SquareWellOracle(100.0, 2.0).bound_alphas(0)[0]
    with pytest.raises(NumericalError, match="not converged"), pytest.warns(ConditioningWarning):
        smatrix_residue(pot, 0, alpha, grid)
    p = Potential1D(make_potential(PotentialSpec("square", 100.0, 1.0)))
    grid = make_grid(p.half, h=1 / 256)
    state = find_bound_1d(p, "even", grid)[0]
    with pytest.raises(NumericalError, match="not converged"), pytest.warns(ConditioningWarning):
        pole_residue_1d(p, "even", state.alpha, grid)


def test_jost_derivative_error_covers_both_kernel_paths(request, monkeypatch):
    """The error of dF/dk covers its rounding: the two Numerov paths
    round differently, and on sq41, gauss41 and exp905 at l = 0 and 1
    they differ by at most the error either path reports, 60 momenta on
    each axis."""
    ks = np.concatenate([np.linspace(0.1, 3.0, 60), 1j * np.linspace(0.1, 3.0, 60)])
    wide = ig._WIDE
    for well in ("sq41", "gauss41", "exp905"):
        pot, grid = request.getfixturevalue(well)
        for l in (0, 1):
            monkeypatch.setattr(ig, "_WIDE", wide)
            blocked = [jost_derivative(pot, l, k, grid) for k in ks]
            monkeypatch.setattr(ig, "_WIDE", 0)
            loop = [jost_derivative(pot, l, k, grid) for k in ks]
            for k, a, b in zip(ks, blocked, loop):
                assert abs(a.value - b.value) <= min(a.error, b.error), (well, l, k)


def _oracle_derivative(oracle, l, k):
    """dF/dk of the square-well oracle along the axis k lies on, by
    central differences at steps 0.01 |k| 2^-j, j = 0..3, extrapolated
    by Richardson, and the gap between its last two levels."""
    step = (1.0 if k.imag == 0 else 1j) * 0.01 * abs(k) * 0.5 ** np.arange(4)
    table = [(oracle.jost(l, k + step) - oracle.jost(l, k - step)) / (2 * step)]
    while table[-1].size > 1:
        fac = 4.0 ** len(table)
        table.append((fac * table[-1][1:] - table[-1][:-1]) / (fac - 1.0))
    return complex(table[-1][0]), abs(table[-1][0] - table[-2][-1])


@pytest.mark.parametrize("l", [0, 1, 2])
@pytest.mark.parametrize("k", [0.3, 1.3, 2.9, 0.5j, 1.5j])
def test_jost_derivative_converges_to_the_closed_form(k, l, sq41_oracle):
    """dF/dk against the square-well oracle's, itself converged to
    1e-12: within 1e-9 at h = 1/1024, where only the O(h^4) Numerov
    truncation is left; a finite difference in k stalls at rounding
    long before that."""
    pot = make_potential(PotentialSpec("square", 4.0, 1.0))
    ref, gap = _oracle_derivative(sq41_oracle, l, complex(k))
    assert gap < 1e-12 * abs(ref)
    jd = jost_derivative(pot, l, k, make_grid(pot, h=1 / 1024))
    assert abs(jd.value - ref) < 1e-9 * abs(ref)


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
    # k = 0, and k off both axes, where E = k^2 is complex and the
    # complex step does not apply, are refused
    for k in (0.0, 1.0 + 0.5j, -0.3 + 0.2j):
        with pytest.raises(SpecError):
            jost_derivative(pot, 0, k, grid)


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


def test_cross_wronskian_identity(sq41, sq41_states, cross_wronskian):
    pot, grid = sq41
    wave = physical_wave(pot, 0, np.array([0.9]), grid)
    for radius in (1.5, 3.0, 5.0):
        assert cross_wronskian(sq41_states[0], wave, radius) < 1e-6


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
