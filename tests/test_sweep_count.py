"""Work counts: every momentum set gets exactly one regular sweep.

The regular solution depends on k only through k^2, so one sweep serves
the Jost function at k and at -k and the wave built from it.
"""

import json
import sys
from collections import Counter

import numpy as np
import pytest

import polewave.poletheorem as poletheorem
import polewave.radial as radial
from polewave.cli import main
from polewave.onedim import extrapolant_samples_1d, zero_energy_phase
from polewave.poletheorem import (
    extrapolant_samples,
    extrapolant_samples_near_pole,
    gw_extrapolant,
    jost_derivative,
    smatrix_residue,
)
from polewave.potentials import PotentialSpec, make_grid, make_potential
from polewave.radial import _mesh, _wave, physical_wave
from polewave.spectrum import find_bound_states


@pytest.fixture
def sweeps(monkeypatch):
    """Regular sweeps per momentum set, keyed by the k^2 values, counted
    at _sweep_regular in every polewave module namespace that binds it
    (radial, whose solve_regular and jost_function call it, and onedim)."""
    counts = Counter()
    original = radial._sweep_regular

    def counted(mesh, l, k, *args, **kwargs):
        k = np.atleast_1d(np.asarray(k, dtype=complex))
        counts[tuple((k * k).tolist())] += 1
        return original(mesh, l, k, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("polewave") and getattr(mod, "_sweep_regular", None) is original:
            monkeypatch.setattr(mod, "_sweep_regular", counted)
    return counts


RUNS = {
    "physical_wave": lambda pot, grid, a: physical_wave(pot, 0, np.array([0.4, 0.9, 1.7]), grid),
    "extrapolant_samples": lambda pot, grid, a: extrapolant_samples(pot, 0, a, grid),
    "extrapolant_samples_near_pole": lambda pot, grid, a: extrapolant_samples_near_pole(
        pot, 0, a, grid
    ),
    "smatrix_residue": lambda pot, grid, a: smatrix_residue(pot, 0, a, grid),
    "gw_extrapolant": lambda pot, grid, a: gw_extrapolant(pot, a, np.array([0.3, 0.6]), grid),
}


@pytest.mark.parametrize("name", RUNS)
def test_one_regular_sweep_per_momentum_set(name, sq41, sq41_states, sweeps):
    pot, grid = sq41
    RUNS[name](pot, grid, sq41_states[0].alpha)
    assert sweeps, f"{name} ran no regular sweep"
    assert max(sweeps.values()) == 1, f"{name}: sweeps per set {sorted(sweeps.values())}"


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("mode", ["near", "real"])
def test_line_sampler_sweeps_once(mode, parity, oned41, oned41_even, oned41_odd, sweeps):
    """The line sampler reads y, f(k) and f(-k) from one sweep of its
    momenta, as the radial samplers do; the branch probe sweeps its own."""
    p, grid = oned41
    state = (oned41_even if parity == "even" else oned41_odd)[0]
    extrapolant_samples_1d(p, parity, state.alpha, grid, mode=mode)
    assert len(sweeps) == 2 and max(sweeps.values()) == 1, sorted(sweeps.values())


def test_zero_energy_phase_sweeps_once(oned41, sweeps):
    """The threshold probes and the three phases share one sweep."""
    zero_energy_phase(*oned41)
    assert list(sweeps.values()) == [1]


def test_phases_subcommand_sweeps_once(tmp_path, capsys, sweeps):
    spec = tmp_path / "square.json"
    spec.write_text(json.dumps({"kind": "square", "depth": 4.0, "radius": 1.0}))
    assert main(["phases", "--potential", str(spec), "--ksteps", "5", "--rmax", "12"]) == 0
    capsys.readouterr()
    assert list(sweeps.values()) == [1]


def test_jost_derivative_sweeps_once(sq41, sq41_states, sweeps):
    """dF/dk takes one sweep of one momentum, its complex step."""
    pot, grid = sq41
    jost_derivative(pot, 0, 1j * sq41_states[0].alpha, grid)
    assert sum(sweeps.values()) == 1
    assert [len(k2) for k2 in sweeps] == [1]


@pytest.mark.parametrize("mode", ["near", "real"])
def test_gw_compare_sweeps_once(mode, tmp_path, capsys, monkeypatch, sweeps):
    """gw-compare sweeps its momenta once and probes the branch once:
    the universal form comes from the sweep of the derivative form.

    k^2 = -alpha^2 alone is swept twice: the root finder returns a
    momentum it has evaluated, and the bound state is built there."""
    probes = []
    original = poletheorem._branch_sign

    def counted(*args):
        probes.append(args)
        return original(*args)

    monkeypatch.setattr(poletheorem, "_branch_sign", counted)
    spec = tmp_path / "square.json"
    spec.write_text(json.dumps({"kind": "square", "depth": 4.0, "radius": 1.0}))
    argv = ["gw-compare", "--potential", str(spec), "--rmax", "12", "--sample-mode", mode]
    assert main(argv + ["--ksteps", "5"]) == 0
    capsys.readouterr()
    counts = dict(sweeps)
    pot = make_potential(PotentialSpec("square", 4.0, 1.0))
    k = np.array([1j * find_bound_states(pot, 0, make_grid(pot, r_max=12.0))[0].alpha])
    assert counts.pop(tuple((k * k).tolist())) == 2
    assert max(counts.values()) == 1, sorted(counts.values())
    assert len(probes) == 1


@pytest.mark.parametrize("nk", [1, 5, 30])
def test_gw_extrapolant_sweeps_three_sets(nk, sq41, sq41_states, sweeps):
    """The wave and F take one sweep of the nk momenta, the branch probe
    one of one momentum, and the derivative one more of nk momenta, their
    complex steps."""
    pot, grid = sq41
    gw_extrapolant(pot, sq41_states[0].alpha, np.linspace(0.2, 2.5, nk), grid)
    assert len(sweeps) == 3 and sum(sweeps.values()) == 3, sorted(sweeps.values())
    assert sorted(len(k2) for k2 in sweeps) == sorted([nk, nk, 1])


def test_gw_extrapolant_builds_one_mesh(sq41, sq41_states, monkeypatch):
    """The wave, F(k), F(-k), F' and the branch probe all read the one
    mesh gw_extrapolant builds."""
    meshes = []
    original = poletheorem._mesh

    def counted(*args):
        meshes.append(args)
        return original(*args)

    monkeypatch.setattr(poletheorem, "_mesh", counted)
    pot, grid = sq41
    gw_extrapolant(pot, sq41_states[0].alpha, np.linspace(0.2, 2.5, 5), grid)
    assert len(meshes) == 1


@pytest.mark.parametrize("well", ["sq41", "gauss41"])
@pytest.mark.parametrize("axis", ["real", "imaginary"])
def test_gw_prefactor_is_the_per_momentum_form(well, axis, request):
    """Batching the derivative's complex steps changes no bit of the
    prefactor sqrt(4 i alpha^2 F(k) / F'(k)) against one jost_derivative
    per k."""
    pot, grid = request.getfixturevalue(well)
    alpha = find_bound_states(pot, 0, grid)[0].alpha
    k = np.linspace(0.2, 2.5, 5) if axis == "real" else 1j * alpha * np.linspace(0.5, 0.95, 5)
    gw = gw_extrapolant(pot, alpha, k, grid)
    _, f = _wave(_mesh(pot, grid), 0, np.asarray(k, dtype=complex))
    fdot = np.array([jost_derivative(pot, 0, kk, grid).value for kk in k])
    assert np.array_equal(gw.prefactor, np.sqrt(4j * alpha**2 * f / fdot))
