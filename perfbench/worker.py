"""Runs one workload in a fresh interpreter; started by run.py.

Protocol on stdout: the line "READY <cpu seconds>" once polewave is
imported and the workload's potentials and grids are built, then one
JSON line with the results.

Every time here is CPU time of the process that does the work (user +
system), not wall time: on a shared virtual machine the CPU is taken away
for up to hundreds of milliseconds at a time (steal), and wall time
counts those stalls while the work done does not change.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))


class CliRunner:
    """Runs CLI calls one at a time, keeping each child's CPU seconds and
    the largest child's peak RSS. When traced, each child runs under
    traced_cli.py and writes its spans next to its output."""

    def __init__(self):
        self.traced = False
        self.peak_kib = 0
        self.cpu: dict[str, float] = {}
        self.span_files: list[Path] = []

    def __call__(self, label: str, argv: list[str], out_path: Path) -> int:
        if self.traced:
            spans = out_path.with_suffix(".spans.json")
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *argv]
            self.span_files.append(spans)
        else:
            cmd = [sys.executable, "-m", "polewave.cli", *argv]
        with open(out_path, "w") as out, open(out_path.with_suffix(".err"), "w") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu[label] = usage.ru_utime + usage.ru_stime
        self.peak_kib = max(self.peak_kib, usage.ru_maxrss)
        return proc.returncode


class Runner:
    def __init__(self, wl, kernel, clock):
        #: CPU seconds consumed so far by whatever runs the operations
        self.clock = clock
        self.wl = wl
        self.kernel = kernel
        self.passes = wl.passes()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.kernel_s: list[float] = []

    def calibrate(self) -> list[float]:
        times = self.kernel.measure()
        self.kernel_s.extend(times)
        return times

    def run_op(self, op, outputs: dict, count: bool = True) -> float:
        """Run one operation, check its output, and return its seconds.
        Only operations of whole rounds count as attempted."""
        self.attempted += count
        t0 = self.clock()
        try:
            out = op.run()
        except Exception as exc:  # counted, reported, and the run goes on
            self.failed += count
            print(f"failed: {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return self.clock() - t0
        dt = self.clock() - t0
        self._check(op.name, lambda: op.check(out))
        outputs[op.name] = op.keep(out)
        return dt

    def warm_up(self) -> None:
        """The first operation of each pass, checked but neither timed
        nor counted: it pays the first-call costs (heap growth, lazy
        set-up in numpy) that every later call is spared."""
        for ops in self.passes.values():
            self.run_op(ops[0], {}, count=False)

    def round(self) -> dict:
        """One pass over each class, with the calibration kernel timed
        before every operation and after the last, so that its samples
        spread over the same stretch of time as the passes."""
        outputs, result, kernel = {}, {"op_s": []}, []
        for cls, ops in self.passes.items():
            raw = 0.0
            for op in ops:
                kernel += self.calibrate()
                dt = self.run_op(op, outputs)
                raw += dt
                result["op_s"].append(dt)
            result[cls] = raw
        kernel += self.calibrate()
        result["kernel_s"] = _median(kernel)
        if len(outputs) == len(self.wl.ops):
            for cross in self.wl.cross:
                self._check("cross", lambda: cross(outputs))
        return result

    def _check(self, name, fn) -> None:
        try:
            fn()
        except Exception as exc:  # a check that cannot run is a failed check
            self.problems.append(f"{name}: {type(exc).__name__}: {exc}")


def _median(xs):
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    OUT.mkdir(exist_ok=True)
    cli = CliRunner() if args.workload == "cli-session" else None
    import workloads

    wl = workloads.build(args.workload, args.seed, BENCH, OUT, cli)
    print(f"READY {time.process_time()!r}", flush=True)

    import calib

    wl.prepare()
    if cli is None:
        clock = time.process_time
    else:
        def clock():
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime
    runner = Runner(wl, calib.Kernel(), clock)
    if cli is None:
        runner.warm_up()
    deadline = time.perf_counter() + args.seconds
    rounds = []
    while True:
        t0 = time.perf_counter()
        rounds.append(runner.round())
        if args.trace or time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break

    # pass seconds over the median kernel time of the whole run
    calib_s = _median(runner.kernel_s)
    res = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "cutoff_pass_ref": _median([r["cutoff"] for r in rounds]) / calib_s,
        "tail_pass_ref": _median([r["tail"] for r in rounds]) / calib_s,
    }
    print(f"rounds {len(rounds)}, kernel {calib_s:.5f} s, passes "
          f"{_median([r['cutoff'] for r in rounds]):.3f} s and {_median([r['tail'] for r in rounds]):.3f} s",
          file=sys.stderr)
    if cli is not None:
        res["peak_rss_mib"] = cli.peak_kib / 1024.0
    else:
        res["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        res["layers"] = traced_round(runner, rounds[0], cli, args, calib_s)
    print(json.dumps(res), flush=True)
    return 0


def traced_round(runner, plain, cli, args, calib_s) -> dict:
    """Repeat the round with every public polewave function wrapped, and
    turn the spans into per-layer metrics."""
    import tracing

    cli_cpu = dict(cli.cpu) if cli is not None else {}
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.on = True
    if cli is not None:
        cli.traced = True
    traced = runner.round()
    tracer.on = False
    spans = tracer.spans
    for path in (cli.span_files if cli is not None else []):
        child = json.loads(path.read_text())
        base = len(spans)
        spans.extend([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4]] for s in child)
    (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(spans))

    m = tracing.layer_metrics(spans)
    import workloads

    for sub, spec in workloads.CLI_CALLS:
        label = workloads.cli_label(sub, spec)
        m[f"cli.{label}_s"] = cli_cpu.get(label, 0.0)
    what = "import polewave.cli" if cli is not None else "import polewave"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", what],
                          capture_output=True, text=True, cwd=ROOT, check=True)
    m["import.polewave_s"], m["import.scipy_s"] = tracing.import_times(proc.stderr, "polewave")
    op_s = plain["op_s"]
    m["import.share"] = m["import.polewave_s"] / (sum(op_s) / len(op_s))
    m["calib.s"] = calib_s
    m["pass.cutoff_s"] = plain["cutoff"]
    m["pass.tail_s"] = plain["tail"]
    # each round in units of its own kernel time, so that a drift in
    # machine speed between the two rounds does not read as overhead
    extra_ref = ((traced["cutoff"] + traced["tail"]) / traced["kernel_s"]
                 - (plain["cutoff"] + plain["tail"]) / plain["kernel_s"])
    m["trace.overhead_s"] = extra_ref * calib_s
    return m


if __name__ == "__main__":
    sys.exit(main())
