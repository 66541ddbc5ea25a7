"""Shows that every check of the benchmark can fail.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs each operation of every workload once, checks the real output
(which must pass), then feeds each check outputs with one value
perturbed just beyond its tolerance and counts how many are caught. Any
perturbation that slips through, or a real output that fails, makes the
exit code 1. Takes about a minute and a half.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402
from worker import OUT, CliRunner  # noqa: E402


def perturb(name: str, out):
    """Yield (label, output with one value pushed past its tolerance)."""
    kind = name.split()[0]
    if kind in ("bound", "bound1d"):
        norm = "asymptotic_norm" if kind == "bound" else "norm_constant"
        yield "alpha", [dataclasses.replace(out[0], alpha=out[0].alpha + 1e-7)] + out[1:]
        if "sq" in name or "deep" in name:  # N has a closed form on square wells
            yield "N", [dataclasses.replace(out[0], **{norm: getattr(out[0], norm) + 1e-5})] + out[1:]
        yield "count", out[:-1]
    elif kind == "phases":
        bad = out.copy()
        bad[0] += 1e-5  # the tails are shot at the first, middle and last momentum
        yield "phase", bad
        bad = out.copy()
        bad[len(bad) // 2:] += 2.0
        yield "jump", bad
    elif kind == "wave":
        bad = copy.deepcopy(out)
        bad.values[-1, 0] += 1e-4
        yield "asymptote", bad
        if "sq" in name or "deep" in name:
            bad = copy.deepcopy(out)
            bad.delta[0] += 1e-5
            yield "delta", bad
        if "sq41" in name or "deep30" in name:
            bad = copy.deepcopy(out)
            bad.values[10, 0] += 1e-4
            yield "inner value", bad
    elif kind == "parity" and "sq41 even" in name:
        bad = copy.deepcopy(out)
        bad.delta[0] += 1e-5
        yield "even phase", bad
    elif kind == "smatrix1d":
        bad = out.copy()
        bad[0] *= 1.0 + 1e-9
        yield "unitarity", bad
        if "sq41" in name:
            bad = out.copy()
            bad[0] *= np.exp(1e-5j)
            yield "vs closed form", bad
    elif kind == "pole":
        state, cmp_, residues, ladder = out
        yield "residual", (state, dataclasses.replace(cmp_, max_residual=2e-2), residues, ladder)
        if "sq" in name or "deep" in name:
            yield "N", (dataclasses.replace(state, asymptotic_norm=state.asymptotic_norm + 1e-5),
                        cmp_, residues, ladder)
        for method in residues:
            bad = dict(residues)
            bad[method] *= 1.02
            yield f"residue {method}", (state, cmp_, bad, ladder)
        if ladder is not None:
            bad = {k: list(v) for k, v in ladder.items()}
            bad["gw"][-1] = bad["gw"][0]
            yield "ladder", (state, cmp_, residues, bad)
    elif kind == "pole1d":
        state, cmp_, est = out
        yield "N", (dataclasses.replace(state, norm_constant=state.norm_constant + 1e-5), cmp_, est)
        yield "residual", (state, dataclasses.replace(cmp_, max_residual=2e-3), est)
        yield "residue", (state, cmp_, dataclasses.replace(est, value=est.value * 1.02))
    elif kind == "threshold":
        yield "delta0", dataclasses.replace(out, delta0=out.delta0 + 0.02)
        yield "state at threshold", dataclasses.replace(out, threshold_alpha=0.0)
    elif kind == "cli":
        verdict, rows = out
        sub = name.split()[1].split(".")[0]
        if sub in ("bound", "phases", "oned"):
            bad = rows.copy()
            bad[0, 1 if sub != "oned" else 0] += 1e-5
            yield "first value", (verdict, bad)
        if sub in ("bound", "oned") and "gaussian" not in name:
            bad = rows.copy()
            bad[0, 3 if sub == "bound" else 2] += 1e-5
            yield "N", (verdict, bad)
        if sub == "bound":
            yield "count", (verdict, np.vstack([rows, rows]))
        for key, value in (("max_relative_residual", "2e-3"), ("max_extrapolation_residual", "2e-3"),
                           ("max_residue_rel_error", "2e-2"), ("delta_even_at_zero", "1.6"),
                           ("state0_alpha", None), ("alpha", None), ("winding_number", "2"),
                           ("prefactor_ratio_at_zero", None), ("ours_err_at_pole", "1e-5")):
            if key in verdict:
                v = dict(verdict)
                v[key] = value if value is not None else repr(float(verdict[key]) + 1e-7)
                yield key, (v, rows)
        if sub == "residue":
            bad = rows.copy()
            bad[:, 3] *= 1.02
            yield "residue", (verdict, bad)
        if sub == "gw-compare":
            yield "ladder", (verdict, rows[::-1].copy())
        if sub == "separable":
            bad = rows.copy()
            bad[0, 2] += 1e-9
            yield "ours_err", (verdict, bad)
            bad = rows.copy()
            bad[0, 3] = 0.0
            yield "gw not worse", (verdict, bad)


def cross_perturb(wl_name: str, kept: dict):
    if wl_name == "bound-search":
        bad = dict(kept)
        bad["bound1d sq41 odd"] = [a + 1e-7 for a in kept["bound1d sq41 odd"]]
        yield "odd 1d alpha vs radial", bad
    if wl_name == "scattering-sweep":
        # the odd phases against the radial ones, every parity phase against S
        for name in ("sq41", "gauss41"):
            for parity in ("odd", "even"):
                bad = dict(kept)
                bad[f"parity {name} {parity}"] = kept[f"parity {name} {parity}"] + 1e-5
                yield f"{name} {parity} phase", bad


def main() -> int:
    OUT.mkdir(exist_ok=True)
    missed = caught = 0
    for wl_name in W.WORKLOADS:
        wl = W.build(wl_name, 1, BENCH, OUT, CliRunner())
        wl.prepare()
        kept = {}
        for op in wl.ops:
            try:
                out = op.run()
            except W.CliFailed as exc:
                print(f"{wl_name:17s} {op.name:28s} fails as counted: {exc}")
                continue
            op.check(out)  # the real output must pass
            kept[op.name] = op.keep(out)
            labels = []
            for label, bad in perturb(op.name, out):
                try:
                    op.check(bad)
                except W.CheckFailed:
                    caught += 1
                    labels.append(label)
                else:
                    missed += 1
                    labels.append(f"MISSED {label}")
            print(f"{wl_name:17s} {op.name:28s} {', '.join(labels) or 'checked by the cross checks'}")
        for cross in wl.cross:
            cross(kept)
            for label, bad in cross_perturb(wl_name, kept):
                try:
                    cross(bad)
                except W.CheckFailed:
                    caught += 1
                    print(f"{wl_name:17s} {'cross':28s} {label}")
                else:
                    missed += 1
                    print(f"{wl_name:17s} {'cross':28s} MISSED {label}")
    print(f"{caught} perturbations caught, {missed} missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
