"""Command-line interface: formats, determinism, exit codes."""

import filecmp
import json
import math
import subprocess
import sys

import pytest

from polewave.cli import main
from polewave.errors import ConditioningWarning


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    files = {}
    for name, payload in {
        "square": {"kind": "square", "depth": 4.0, "radius": 1.0},
        "free": {"kind": "free"},
        "gauss": {"kind": "gaussian", "depth": 4.0, "radius": 1.0},
    }.items():
        path = d / f"{name}.json"
        path.write_text(json.dumps(payload))
        files[name] = str(path)
    bad = d / "broken.json"
    bad.write_text("{kind: square")
    files["broken"] = str(bad)
    extra = d / "extra.json"
    extra.write_text(json.dumps({"kind": "square", "depth": 4.0, "mass": 2.0}))
    files["extra"] = str(extra)
    return files


def run(args, capsys):
    rc = main(args)
    return rc, capsys.readouterr()


def csv_verdicts(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("# verdict."):
            key, _, val = line[len("# verdict.") :].partition(" = ")
            out[key] = val
    return out


def test_phases_csv_layout(specs, capsys):
    rc, cap = run(["phases", "--potential", specs["square"]], capsys)
    assert rc == 0
    lines = cap.out.splitlines()
    assert lines[0] == "# polewave 0.1.0"
    assert lines[1] == "# units: hbar=2m=1"
    assert lines[2].startswith("# config: sha256:")
    assert "k,delta,s_unitarity_deviation" in lines
    data = [l for l in lines if l and not l.startswith("#")]
    assert len(data) == 31  # header + 30 momenta
    first = data[1].split(",")
    assert float(first[0]) == 0.1
    assert float(first[1]) == pytest.approx(2.9336151173103713, abs=1e-12)
    assert float(first[2]) < 1e-12


def test_bound_reports_the_state(specs, capsys):
    rc, cap = run(["bound", "--potential", specs["square"]], capsys)
    assert rc == 0
    v = csv_verdicts(cap.out)
    assert v["n_states"] == "1"
    assert float(v["deepest_alpha"]) == pytest.approx(0.6380450481163584, abs=1e-10)
    row = [l for l in cap.out.splitlines() if l.startswith("0,")][0].split(",")
    alpha, energy, n = float(row[1]), float(row[2]), float(row[3])
    assert energy == pytest.approx(-alpha * alpha, abs=1e-15)
    assert n == pytest.approx(1.5833235508654866, abs=1e-10)


def test_verify_pole_verdict(specs, capsys):
    rc, cap = run(["verify-pole", "--potential", specs["square"]], capsys)
    assert rc == 0
    v = csv_verdicts(cap.out)
    assert float(v["max_relative_residual"]) < 1e-3
    assert v["state0_signed_match"] == "true"


def test_residue_both_methods(specs, capsys):
    rc, cap = run(["residue", "--potential", specs["square"]], capsys)
    assert rc == 0
    rows = [
        l.split(",")
        for l in cap.out.splitlines()
        if l and not l.startswith("#") and not l[0].isalpha()
    ]
    assert len(rows) == 2
    # method column: 0 = imaginary-axis walk, 1 = real-axis fit
    rel = {r[1]: float(r[6]) for r in rows}
    assert rel["0"] < 1e-6
    assert rel["1"] < 1e-3


def test_tail_potential_residues(specs, capsys):
    """A decaying tail takes the imaginary-axis residue like a cutoff
    well, radially and on the line."""
    rc, cap = run(["residue", "--potential", specs["gauss"]], capsys)
    assert rc == 0
    assert float(csv_verdicts(cap.out)["max_rel_error_imaginary_axis"]) < 1e-6
    # the even state's samples reach kappa = 1.54 in the lower half
    # plane, where e^{2 kappa r_c} at r_c = 5.38 is 1.6e7
    with pytest.warns(ConditioningWarning):
        rc, cap = run(["oned", "--potential", specs["gauss"]], capsys)
    assert rc == 0
    assert float(csv_verdicts(cap.out)["max_residue_rel_error"]) < 1e-6


def test_gw_compare_defaults_to_real_axis(specs, capsys):
    rc, cap = run(
        ["gw-compare", "--potential", specs["square"], "--ksteps", "12"], capsys
    )
    assert rc == 0
    v = csv_verdicts(cap.out)
    assert v["gw_worse_nearest_pole"] == "true"
    assert float(v["gw_err_nearest"]) > float(v["ours_err_nearest"])


def test_gw_compare_near_ladder(specs, capsys):
    rc, cap = run(
        ["gw-compare", "--potential", specs["square"], "--sample-mode", "near"],
        capsys,
    )
    assert rc == 0
    v = csv_verdicts(cap.out)
    assert v["gw_worse_at_largest_distance"] == "true"
    assert 0.9 < float(v["slope_ours"]) < 1.1
    assert 0.9 < float(v["slope_gw"]) < 1.1


def test_separable_verdict(capsys):
    rc, cap = run(["separable", "--format", "json"], capsys)
    assert rc == 0
    body, _, tail = cap.out.rpartition("verdict:")
    assert tail.strip().startswith("winding_number = 1")
    data = json.loads(body)
    assert set(data) == {"columns", "meta", "rows", "verdict"}
    v = data["verdict"]
    assert v["winding_number"] == 1
    assert v["jost_at_zero"] == pytest.approx(-11.0 / 61.0, abs=1e-14)
    assert v["prefactor_ratio_at_zero"] == pytest.approx(1.0124568487216707, abs=1e-5)
    assert v["ours_err_at_pole"] < 1e-6
    assert v["gw_err_at_pole"] < 1e-6


def test_oned_even_channel(specs, capsys):
    rc, cap = run(["oned", "--potential", specs["square"]], capsys)
    assert rc == 0
    v = csv_verdicts(cap.out)
    assert v["parity"] == "even"
    assert float(v["max_extrapolation_residual"]) < 1e-3
    assert float(v["max_residue_rel_error"]) < 1e-6
    assert float(v["delta_even_at_zero"]) == pytest.approx(math.pi / 2, abs=1e-4)
    assert v["zero_energy_threshold"] == "none"


def test_oned_odd_channel(specs, capsys):
    rc, cap = run(
        ["oned", "--potential", specs["square"], "--parity", "odd"], capsys
    )
    assert rc == 0
    v = csv_verdicts(cap.out)
    assert float(v["max_extrapolation_residual"]) < 1e-3


def test_output_is_byte_identical(specs, tmp_path, capsys):
    """Same configuration, same bytes: the promise the config digest
    makes. Exercised across both renderers and the plot sidecar."""
    outs = []
    for i in (1, 2):
        out = tmp_path / f"run{i}.csv"
        plot = tmp_path / f"run{i}.dat"
        rc, _ = run(
            [
                "verify-pole",
                "--potential", specs["square"],
                "--out", str(out),
                "--plot-data", str(plot),
            ],
            capsys,
        )
        assert rc == 0
        outs.append((out, plot))
    assert filecmp.cmp(outs[0][0], outs[1][0], shallow=False)
    assert filecmp.cmp(outs[0][1], outs[1][1], shallow=False)
    for i in (1, 2):
        out = tmp_path / f"run{i}.json"
        rc, _ = run(
            ["phases", "--potential", specs["gauss"], "--format", "json",
             "--ksteps", "5", "--out", str(out)],
            capsys,
        )
        assert rc == 0
    assert filecmp.cmp(tmp_path / "run1.json", tmp_path / "run2.json", shallow=False)


def test_out_prints_only_the_verdict(specs, tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc, cap = run(
        ["bound", "--potential", specs["square"], "--out", str(out)], capsys
    )
    assert rc == 0
    assert cap.out.strip() == "verdict: n_states = 1"
    assert out.read_text().startswith("# polewave")


def test_plot_data_is_gnuplot_friendly(specs, tmp_path, capsys):
    plot = tmp_path / "curve.dat"
    rc, _ = run(
        ["phases", "--potential", specs["square"], "--ksteps", "4",
         "--plot-data", str(plot)],
        capsys,
    )
    assert rc == 0
    lines = plot.read_text().splitlines()
    assert lines[0].startswith("# polewave")
    assert lines[1].startswith("# columns: k delta")
    assert len(lines) == 6
    assert all(len(l.split()) == 3 for l in lines[2:])


def test_no_bound_state_exit_code(specs, capsys):
    for args in (
        ["bound", "--potential", specs["free"]],
        ["verify-pole", "--potential", specs["free"]],
        ["oned", "--potential", specs["free"]],
    ):
        rc, cap = run(args, capsys)
        assert rc == 2
        assert "no bound state" in cap.err


def test_validation_exit_codes(specs, capsys):
    cases = [
        ["phases"],  # missing --potential
        ["phases", "--potential", specs["broken"]],
        ["phases", "--potential", specs["extra"]],
        ["phases", "--potential", specs["square"], "--kmin", "2.0", "--kmax", "1.0"],
        ["gw-compare", "--potential", specs["square"], "--ell", "1"],
        ["bound", "--potential", specs["square"], "--h", "-0.1"],
        ["nonsense"],
    ]
    for args in cases:
        rc, cap = run(args, capsys)
        assert rc == 3, f"{args} should be a usage error"
        assert "error" in cap.err.lower()


@pytest.mark.parametrize(
    "args",
    [
        ["phases", "--kmax", "inf"],
        ["verify-pole", "--sample-mode", "real", "--sample-spacing", "nan"],
        ["oned", "--sample-mode", "real", "--sample-spacing", "nan"],
    ],
)
def test_non_finite_options_are_usage_errors(args, specs, capsys):
    rc, cap = run([*args, "--potential", specs["square"]], capsys)
    assert rc == 3
    assert "finite" in cap.err


def test_console_entry_point(specs, tmp_path):
    """One subprocess pass through the installed module path, checking
    the same bytes come out of a fresh interpreter."""
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        proc = subprocess.run(
            [sys.executable, "-m", "polewave.cli", "bound",
             "--potential", specs["square"], "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "verdict: n_states = 1"
    assert filecmp.cmp(out1, out2, shallow=False)
