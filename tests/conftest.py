"""Shared fixtures: the stock wells and their spectra, computed once."""

import os
from pathlib import Path

import pytest

import polewave
import polewave._integrate as ig
from polewave.analytic import SquareWellOracle
from polewave.onedim import Potential1D, find_bound_1d
from polewave.potentials import PotentialSpec, make_grid, make_potential
from polewave.separable import SeparableModel
from polewave.spectrum import find_bound_states

# a test that runs `python -m polewave.cli` in a child process needs the
# package on the child's path as well, also where only pytest's own
# pythonpath setting put src/ on this one
_SRC = str(Path(polewave.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def sq41():
    pot = make_potential(PotentialSpec("square", 4.0, 1.0))
    grid = make_grid(pot, h=1 / 256)
    return pot, grid


@pytest.fixture(scope="session")
def sq41_states(sq41):
    pot, grid = sq41
    return find_bound_states(pot, 0, grid)


@pytest.fixture(scope="session")
def sq41_oracle():
    return SquareWellOracle(4.0, 1.0)


@pytest.fixture(scope="session")
def exp905():
    pot = make_potential(PotentialSpec("exponential", 9.0, 0.5))
    grid = make_grid(pot, h=1 / 256)
    return pot, grid


@pytest.fixture(scope="session")
def gauss41():
    pot = make_potential(PotentialSpec("gaussian", 4.0, 1.0))
    grid = make_grid(pot, h=1 / 256)
    return pot, grid


@pytest.fixture(scope="session")
def deep30():
    pot = make_potential(PotentialSpec("square", 30.0, 1.0))
    grid = make_grid(pot, h=1 / 512)
    return pot, grid


@pytest.fixture(scope="session")
def deep30_states(deep30):
    pot, grid = deep30
    return find_bound_states(pot, 0, grid)


@pytest.fixture(scope="session")
def sq60():
    pot = make_potential(PotentialSpec("square", 60.0, 1.0))
    grid = make_grid(pot, h=1 / 256)
    return pot, grid


@pytest.fixture(scope="session")
def sq15():
    pot = make_potential(PotentialSpec("square", 15.0, 1.0))
    grid = make_grid(pot, h=1 / 256)
    return pot, grid


@pytest.fixture(scope="session")
def sq15_l1_states(sq15):
    pot, grid = sq15
    return find_bound_states(pot, 1, grid)


@pytest.fixture(scope="session")
def oned41():
    pot = Potential1D(make_potential(PotentialSpec("square", 4.0, 1.0)))
    grid = make_grid(pot.half, h=1 / 256)
    return pot, grid


@pytest.fixture(scope="session")
def oned41_even(oned41):
    pot, grid = oned41
    return find_bound_1d(pot, "even", grid)


@pytest.fixture(scope="session")
def oned41_odd(oned41):
    pot, grid = oned41
    return find_bound_1d(pot, "odd", grid)


@pytest.fixture(scope="session")
def sep15():
    return SeparableModel(1.0, 5.0)


@pytest.fixture
def numerov_steps(monkeypatch):
    """Node x momentum steps marched by the Numerov kernel."""
    steps = []
    original = ig.numerov

    def counted(*args, **kwargs):
        out = args[2]
        steps.append(out.shape[0] * (out.shape[1] if out.ndim > 1 else 1))
        return original(*args, **kwargs)

    monkeypatch.setattr(ig, "numerov", counted)
    return steps


@pytest.fixture(scope="session")
def cross_wronskian():
    """The paper's cross-Wronskian identity between a bound state u and
    the first momentum k of a physical wave v,

        u'v - u v' = (alpha^2 + k^2) integral_0^r u v dr',

    as a function of (state, wave, radius) returning the relative
    residual of its two sides at the grid node nearest radius."""

    def residual(state, wave, radius):
        h = state.grid.h
        i = int(round(radius / h))
        u = state.u
        v = wave.values[:, 0].real
        k = float(wave.k[0].real)
        du = float(ig.deriv_central(u, i, h))
        dv = float(ig.deriv_central(v, i, h))
        lhs = du * v[i] - u[i] * dv
        rhs = (state.alpha**2 + k**2) * float(ig.simpson(u[: i + 1] * v[: i + 1], h))
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)

    return residual
