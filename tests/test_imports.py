"""Import hygiene: the solver and the CLI run on numpy alone, so scipy
must not load on importing polewave nor on running a subcommand on a
built-in potential, at l = 0 or at l = 2."""

import json
import subprocess
import sys

import pytest

_CHILD = """
import contextlib, io, json, sys
seen = {}
import polewave
seen["import polewave"] = ["scipy" in sys.modules, 0]
import polewave.cli
seen["import polewave.cli"] = ["scipy" in sys.modules, 0]
spec = ["--potential", sys.argv[1], "--rmax", "12"]
deep = ["--potential", sys.argv[2], "--rmax", "12", "--ell", "2"]
for argv in (
    ["phases", *spec], ["bound", *spec], ["verify-pole", *spec], ["residue", *spec],
    ["gw-compare", *spec], ["oned", *spec], ["separable"],
    ["bound", *deep], ["verify-pole", *deep], ["residue", *deep],
):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = polewave.cli.main(argv)
    seen[argv[0] + (" --ell 2" if "--ell" in argv else "")] = ["scipy" in sys.modules, rc]
print(json.dumps(seen))
"""

STEPS = ["import polewave", "import polewave.cli", "phases", "bound", "verify-pole",
         "residue", "gw-compare", "oned", "separable",
         "bound --ell 2", "verify-pole --ell 2", "residue --ell 2"]


@pytest.fixture(scope="module")
def seen(tmp_path_factory):
    specs = tmp_path_factory.mktemp("imports")
    spec, deep = specs / "square.json", specs / "deep.json"
    spec.write_text(json.dumps({"kind": "square", "depth": 4.0, "radius": 1.0}))
    deep.write_text(json.dumps({"kind": "square", "depth": 60.0, "radius": 1.0}))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(spec), str(deep)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("step", STEPS)
def test_scipy_stays_unloaded(seen, step):
    loaded, rc = seen[step]
    assert rc == 0, f"{step} exited {rc}"
    assert not loaded, f"scipy was loaded by the time {step} finished"
