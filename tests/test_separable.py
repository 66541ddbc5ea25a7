"""Exact rank-one model: rational Jost function and prefactor errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polewave.errors import SpecError
from polewave.separable import (
    SeparableModel,
    sep_compare_forms,
    sep_jost,
    sep_jost_derivative,
    sep_prefactors,
    sep_ratio,
    winding_number,
)

K_GRID = np.linspace(0.05, 2.0, 20)


def smatrix(m, k):
    """S(k) = F(-k) / F(k) of the model."""
    return sep_jost(m, -k) / sep_jost(m, k)


def test_jost_value_at_zero_momentum(sep15):
    """F(0) = -11/61 for (alpha, beta) = (1, 5), by plain arithmetic on
    the rational form; the sign records the single bound state."""
    assert sep_jost(sep15, 0.0) == pytest.approx(-11.0 / 61.0, abs=1e-15)


def test_model_validation():
    with pytest.raises(SpecError):
        SeparableModel(5.0, 1.0)
    with pytest.raises(SpecError):
        SeparableModel(-1.0, 5.0)
    with pytest.raises(SpecError):
        SeparableModel(0.0, 5.0)


def test_pole_guard(sep15):
    with pytest.raises(SpecError):
        sep_jost(sep15, -5.0j)


def test_smatrix_unitarity(sep15):
    s = smatrix(sep15, np.linspace(0.1, 4.0, 25))
    assert np.max(np.abs(np.abs(s) - 1.0)) < 1e-12


def test_smatrix_pole_and_zero(sep15):
    """Simple pole at i alpha, zero at -i alpha, related by S-matrix
    symmetry; both sit inside the rational representative's good
    region."""
    near = 1e-6
    assert abs(smatrix(sep15, 1j * (1.0 - near))) > 1e4
    assert abs(smatrix(sep15, -1j * (1.0 - near))) < 1e-4


def test_winding_counts_what_the_rectangle_holds(sep15):
    """The representative carries a cancelling zero-pole pair above the
    bound state (zero at i beta, pole at i sqrt((a+b)^2 + b^2)). A low
    rectangle sees only the bound zero, a middle one picks up the extra
    zero, and the default tall one nets out to 1 again."""
    assert winding_number(sep15, height=2.0) == 1
    assert winding_number(sep15, height=6.0) == 2
    assert winding_number(sep15) == 1


def test_derivative_matches_difference_quotient(sep15):
    for k in (0.7, 1.9, 0.3 + 0.4j):
        h = 1e-6
        fd = (sep_jost(sep15, k + h) - sep_jost(sep15, k - h)) / (2 * h)
        assert abs(sep_jost_derivative(sep15, k) - fd) / abs(fd) < 1e-8


def test_origin_ratio_spot_value(sep15):
    """R(0) times the universal prefactor is (1 + 2z)/sqrt(1 + z) at
    z = 1/120, a number worth pinning to all digits."""
    spot = sep_ratio(sep15, 0.0) * np.sqrt(2.0 * (0.0**2 + 1.0))
    assert spot == pytest.approx(1.0124568487216707, abs=1e-12)


def test_universal_form_error_is_three_halves_z(sep15):
    """Below the pole scale the universal prefactor's deviation is the
    leading Taylor term 3z/2 to better than one percent."""
    ours, _ = sep_compare_forms(sep15, K_GRID)
    z = sep15.z(K_GRID)
    low = K_GRID <= sep15.alpha
    assert np.max(np.abs(ours[low] / (1.5 * z[low]) - 1.0)) < 0.1


def test_derivative_form_loses_at_low_momentum(sep15):
    ours, gw = sep_compare_forms(sep15, K_GRID)
    assert np.all(gw > ours)


def test_both_forms_vanish_at_the_pole(sep15):
    ours, gw = sep_compare_forms(sep15, 1j * (1.0 - 1e-8))
    assert ours < 1e-6
    assert gw < 1e-6
    # and the prefactors themselves coincide there
    o, g = sep_prefactors(sep15, 1j * (1.0 - 1e-8))
    assert abs(o - g) / abs(o) < 1e-3


def test_prefactor_reality(sep15):
    """On the real axis the universal prefactor is real while the
    derivative form picks up a phase; on the imaginary axis below the
    pole both are real positive."""
    o, g = sep_prefactors(sep15, 0.8)
    assert abs(o.imag) == 0.0
    assert abs(g.imag) > 1e-3
    o, g = sep_prefactors(sep15, 0.6j)
    assert abs(o.imag) < 1e-12 and o.real > 0
    assert abs(g.imag) / abs(g) < 1e-12 and g.real > 0


@given(
    st.floats(0.2, 2.0),
    st.floats(2.5, 20.0),
    st.floats(0.01, 1.5),
    st.floats(0.01, 1.5),
)
@settings(max_examples=40, deadline=None)
def test_universal_error_grows_with_momentum(alpha, beta, k1, k2):
    """z is monotone in k^2 and the deviation is monotone in z, so the
    universal form's error ranks real momenta by magnitude."""
    m = SeparableModel(alpha, beta)
    lo, hi = sorted((k1 * alpha, k2 * alpha))
    e_lo, _ = sep_compare_forms(m, lo)
    e_hi, _ = sep_compare_forms(m, hi)
    assert e_lo <= e_hi * (1.0 + 1e-12) + 1e-15
