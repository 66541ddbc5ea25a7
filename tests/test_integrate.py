"""Quadrature on uniform nodes against scipy and against exact integrals."""

import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson

from polewave._integrate import simpson
from polewave.errors import GridError


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 64, 65, 4000, 4001])
def test_simpson_matches_scipy_on_uniform_nodes(n):
    """Odd node counts are composite Simpson; even ones end with the
    Cartwright interval, as scipy >= 1.11 does."""
    h = 2.5 / (n - 1)
    x = 0.3 + h * np.arange(n)
    y = np.exp(-x) * np.sin(3.0 * x) + x**2
    ref = scipy_simpson(y, x=x)
    assert simpson(y, h) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("n", [3, 5, 9, 101])
def test_simpson_is_exact_for_cubics(n):
    h = 1.7 / (n - 1)
    x = -0.4 + h * np.arange(n)
    y = 2.0 - 3.0 * x + 0.5 * x**2 + 4.0 * x**3
    lo, hi = x[0], x[-1]
    exact = np.polyval([1.0, 0.5 / 3.0, -1.5, 2.0, 0.0], hi) - np.polyval(
        [1.0, 0.5 / 3.0, -1.5, 2.0, 0.0], lo
    )
    assert simpson(y, h) == pytest.approx(exact, rel=1e-14, abs=1e-14)


def test_simpson_refuses_two_nodes():
    with pytest.raises(GridError):
        simpson(np.array([1.0, 2.0]), 0.1)
