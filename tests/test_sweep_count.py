"""Work counts: every momentum set gets exactly one regular sweep.

The regular solution depends on k only through k^2, so one sweep serves
the Jost function at k and at -k and the wave built from it.
"""

import json
import sys
from collections import Counter

import numpy as np
import pytest

import polewave.radial as radial
from polewave.cli import main
from polewave.poletheorem import (
    extrapolant_samples,
    extrapolant_samples_near_pole,
    gw_extrapolant,
    smatrix_residue,
)
from polewave.radial import physical_wave


@pytest.fixture
def sweeps(monkeypatch):
    """Regular sweeps per momentum set, keyed by the k^2 values, counted
    in every polewave module namespace that binds solve_regular."""
    counts = Counter()
    original = radial.solve_regular

    def counted(potential, l, k, grid):
        k = np.atleast_1d(np.asarray(k, dtype=complex))
        counts[tuple((k * k).tolist())] += 1
        return original(potential, l, k, grid)

    for name, mod in list(sys.modules.items()):
        if name.startswith("polewave") and getattr(mod, "solve_regular", None) is original:
            monkeypatch.setattr(mod, "solve_regular", counted)
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


def test_phases_subcommand_sweeps_once(tmp_path, capsys, sweeps):
    spec = tmp_path / "square.json"
    spec.write_text(json.dumps({"kind": "square", "depth": 4.0, "radius": 1.0}))
    assert main(["phases", "--potential", str(spec), "--ksteps", "5", "--rmax", "12"]) == 0
    capsys.readouterr()
    assert list(sweeps.values()) == [1]
