"""Acceptance gate: the nine headline claims at their stated bounds.

Each criterion is one test with one printed pass line (run with -v for
the per-criterion verdict, -s to see the margins). Tolerances here are
contractual and must not be loosened; module tests carry the tighter
frozen bounds.
"""

import math
from contextlib import nullcontext

import numpy as np
import pytest
from scipy.optimize import brentq

from polewave.analytic import SquareWellOracle
from polewave.errors import ConditioningWarning
from polewave.onedim import Potential1D, pole_extrapolate_1d, zero_energy_phase
from polewave.poletheorem import (
    compare_to_bound,
    extrapolant_samples_near_pole,
    extrapolate_to_pole,
    residue_prediction,
    smatrix_residue,
)
from polewave.potentials import PotentialSpec, make_grid, make_potential
from polewave.radial import (
    jost_function,
    phase_shift,
    physical_wave,
    solve_jost_reduced,
    solve_regular,
    wronskian,
)
from polewave.separable import sep_compare_forms, sep_ratio
from polewave.spectrum import find_bound_states

K30 = np.linspace(0.1, 3.0, 30)


def _passed(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def _pole_residual(pot, grid, state):
    samples = extrapolant_samples_near_pole(pot, state.l, state.alpha, grid)
    ext = extrapolate_to_pole(samples, order=2)
    return compare_to_bound(ext, state).max_residual


def test_criterion_1_oracle_agreement(sq41, sq41_states, sq41_oracle):
    pot, grid = sq41
    delta_dev = float(
        np.max(np.abs(phase_shift(pot, 0, K30, grid) - sq41_oracle.phase_shift(0, K30)))
    )
    assert delta_dev < 1e-6
    alpha_ref = sq41_oracle.bound_alphas(0)[0]
    s = sq41_states[0]
    assert abs(s.alpha - alpha_ref) < 1e-8
    n_ref = sq41_oracle.normalization(0, alpha_ref)
    assert abs(s.asymptotic_norm - n_ref) < 1e-6
    _passed(1, f"max delta dev {delta_dev:.2e}, alpha dev {abs(s.alpha - alpha_ref):.2e}")


def test_criterion_2_pole_theorem_three_wells(sq41, sq41_states, exp905, gauss41):
    """One sampling configuration, three potential shapes, no retuning:
    the extrapolated scattering wave equals -u_alpha below 1e-3."""
    worst = {}
    pot, grid = sq41
    worst["square"] = _pole_residual(pot, grid, sq41_states[0])
    for name, (pot, grid) in (("exponential", exp905), ("gaussian", gauss41)):
        state = find_bound_states(pot, 0, grid)[0]
        worst[name] = _pole_residual(pot, grid, state)
    for name, res in worst.items():
        assert res < 1e-3, f"{name} residual {res}"
    _passed(2, ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def test_criterion_3_residue_identity(sq41, sq41_states, sq15, sq15_l1_states):
    rels = {}
    for (pot, grid), state in [(sq41, sq41_states[0]), (sq15, sq15_l1_states[0])]:
        est = smatrix_residue(pot, state.l, state.alpha, grid, "imaginary_axis")
        pred = residue_prediction(state.l, state.asymptotic_norm)
        rels[state.l] = abs(est.value - pred) / abs(pred)
        assert rels[state.l] < 1e-3
    _passed(3, f"l=0 rel {rels[0]:.2e}, l=1 rel {rels[1]:.2e}")


def test_criterion_4_every_pole_of_a_deep_well(deep30, deep30_states):
    pot, grid = deep30
    deep, shallow = deep30_states
    res_deep = _pole_residual(pot, grid, deep)
    res_shallow = _pole_residual(pot, grid, shallow)
    assert res_deep < 1e-2
    assert res_shallow < 1e-3
    _passed(4, f"deep {res_deep:.2e}, shallow {res_shallow:.2e}")


def test_criterion_5_p_wave_squared_form(sq15, sq15_l1_states):
    pot, grid = sq15
    res = _pole_residual(pot, grid, sq15_l1_states[0])
    assert res < 1e-2
    _passed(5, f"l=1 signed residual {res:.2e}")


def test_criterion_6_separable_model_comparison(sep15):
    k = np.linspace(0.1, 2.0, 20)
    ours, gw = sep_compare_forms(sep15, k)
    z = sep15.z(k)
    low = k <= sep15.alpha
    series_dev = float(np.max(np.abs(ours[low] / (1.5 * z[low]) - 1.0)))
    assert series_dev < 0.10
    assert np.all(gw > ours)
    ours_pole, gw_pole = sep_compare_forms(sep15, 1j * (1.0 - 1e-8))
    assert ours_pole < 1e-6 and gw_pole < 1e-6
    spot = float(sep_ratio(sep15, 0.0) * math.sqrt(2.0 * sep15.alpha**3))
    assert abs(spot - 1.01246) < 1e-5 + 5e-6  # quoted to 5 decimals
    assert spot == pytest.approx(1.0124568487216707, abs=1e-12)
    _passed(
        6,
        f"series dev {series_dev:.1%}, gw worse 20/20, pole {max(ours_pole, gw_pole):.1e}",
    )


def test_criterion_7_one_dimension(oned41, oned41_even, oned41_odd):
    p, grid = oned41

    def even_cond(a):
        kk = math.sqrt(4.0 - a * a)
        return kk * math.sin(kk) - a * math.cos(kk)

    def odd_cond(a):
        kk = math.sqrt(4.0 - a * a)
        return kk * math.cos(kk) + a * math.sin(kk)

    root_even = brentq(even_cond, 1.0, 1.99, xtol=1e-13)
    root_odd = brentq(odd_cond, 0.1, 1.0, xtol=1e-13)
    assert abs(oned41_even[0].alpha - root_even) < 1e-6
    assert abs(oned41_odd[0].alpha - root_odd) < 1e-6
    res = {}
    for state in (oned41_even[0], oned41_odd[0]):
        _, cmp_ = pole_extrapolate_1d(p, state.parity, state)
        res[state.parity] = cmp_.max_residual
        assert cmp_.max_residual < 1e-3
    for depth in (4.0, 1.0):
        pd = Potential1D(make_potential(PotentialSpec("square", depth, 1.0)))
        zp = zero_energy_phase(pd, make_grid(pd.half, h=1 / 256))
        assert abs(zp.delta0 - math.pi / 2) < 1e-2
    _passed(7, f"even res {res['even']:.2e}, odd res {res['odd']:.2e}")


def test_criterion_8_structural_invariants(
    sq41, sq41_states, sq41_oracle, gauss41, cross_wronskian
):
    pot, grid = sq41
    f_plus = jost_function(pot, 0, K30, grid)
    f_minus = jost_function(pot, 0, -K30, grid)
    sym = float(np.max(np.abs(f_minus - np.conj(f_plus)) / np.abs(f_plus)))
    assert sym < 1e-8
    uni = float(np.max(np.abs(np.abs(f_minus / f_plus) - 1.0)))
    assert uni < 1e-10

    k = np.array([0.4, 1.2, 2.6], dtype=complex)
    gpot, ggrid = gauss41
    ft = solve_jost_reduced(gpot, 0, k, ggrid)
    ph = solve_regular(gpot, 0, k, ggrid)
    w = np.array(
        [
            wronskian(ft.values, ph.values, ggrid.index_of(x), ggrid.h)
            for x in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
        ]
    )
    w_spread = float(np.max(np.abs(w - w[0]) / np.abs(w[0])))
    assert w_spread < 1e-8

    wave = physical_wave(pot, 0, np.array([0.9]), grid)
    identity = cross_wronskian(sq41_states[0], wave, 3.0)
    assert identity < 1e-6

    # fourth-order sweep: halving the step must cut the oracle error by
    # far more than 8 while truncation still dominates rounding
    ks = np.array([0.5, 1.0, 2.0])
    err = {}
    for h in (1 / 32, 1 / 64):
        g = make_grid(pot, h=h)
        err[h] = np.abs(phase_shift(pot, 0, ks, g) - sq41_oracle.phase_shift(0, ks))
    factors = err[1 / 32] / err[1 / 64]
    assert np.min(factors) >= 8.0
    _passed(
        8,
        f"symmetry {sym:.1e}, unitarity {uni:.1e}, wronskian {w_spread:.1e}, "
        f"identity {identity:.1e}, halving factor {np.min(factors):.1f}",
    )


@pytest.mark.parametrize("depth, l", [(30.0, 2), (60.0, 2), (60.0, 3), (100.0, 2), (100.0, 4)])
def test_criterion_9_higher_partial_waves(depth, l):
    """Every bound state of square (depth, 1) at l >= 2, against the
    spherical-Bessel closed forms, and the residue identity with it."""
    pot = make_potential(PotentialSpec("square", depth, 1.0))
    grid = make_grid(pot, h=1 / 1024)
    oracle = SquareWellOracle(depth, 1.0)
    states, alphas = find_bound_states(pot, l, grid), oracle.bound_alphas(l)
    assert len(states) == len(alphas)
    worst = 0.0
    for s, a in zip(states, alphas):
        assert abs(s.alpha - a) < 1e-8
        assert s.asymptotic_norm == pytest.approx(oracle.normalization(l, a), rel=1e-6)
        # the residue reads F at -i alpha, rounding-amplified by
        # e^{2 alpha r_c}, which passes 1e6 for the deep state at depth 100
        deep = math.exp(2.0 * s.alpha) > 1e6
        with pytest.warns(ConditioningWarning) if deep else nullcontext():
            est = smatrix_residue(pot, l, s.alpha, grid, "imaginary_axis")
        pred = residue_prediction(l, s.asymptotic_norm)
        worst = max(worst, abs(est.value - pred) / abs(pred))
        assert worst < 1e-3
    _passed(9, f"l={l}, {len(states)} states, residue rel {worst:.2e}")

