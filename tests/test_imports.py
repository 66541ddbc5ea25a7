"""Import hygiene: the solver and the CLI run on numpy alone, so scipy
must not load on importing polewave nor on running a subcommand on a
built-in potential, at l = 0 or at l = 2. Nor must numpy.ma, which
costs about 23 ms of CPU per process and which np.median, among
others, imports on first use. A bare `import polewave` loads none of
its modules, and `import polewave.cli` loads no numpy: each subcommand
imports what it runs."""

import json
import subprocess
import sys

import pytest

_CHILD = """
import contextlib, io, json, sys
seen = {}
loaded = lambda: ["scipy" in sys.modules, "numpy.ma" in sys.modules]
import polewave
seen["import polewave"] = loaded() + [0]
submodules = sorted(m for m in sys.modules if m.startswith("polewave."))
seen["submodules after import polewave"] = submodules
import polewave.cli
seen["import polewave.cli"] = loaded() + [0]
seen["numpy after import polewave.cli"] = "numpy" in sys.modules
spec = ["--potential", sys.argv[1], "--rmax", "12"]
deep = ["--potential", sys.argv[2], "--rmax", "12", "--ell", "2"]
for argv in (
    ["phases", *spec], ["bound", *spec], ["verify-pole", *spec], ["residue", *spec],
    ["gw-compare", *spec], ["oned", *spec], ["separable"],
    ["bound", *deep], ["verify-pole", *deep], ["residue", *deep],
):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = polewave.cli.main(argv)
    seen[argv[0] + (" --ell 2" if "--ell" in argv else "")] = loaded() + [rc]
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
    loaded, _, rc = seen[step]
    assert rc == 0, f"{step} exited {rc}"
    assert not loaded, f"scipy was loaded by the time {step} finished"


@pytest.mark.parametrize("step", STEPS)
def test_numpy_ma_stays_unloaded(seen, step):
    _, loaded, _ = seen[step]
    assert not loaded, f"numpy.ma was loaded by the time {step} finished"


def test_bare_import_loads_no_submodule(seen):
    assert seen["submodules after import polewave"] == []


def test_cli_import_loads_no_numpy(seen):
    assert not seen["numpy after import polewave.cli"]
