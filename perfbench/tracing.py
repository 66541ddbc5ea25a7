"""Spans around polewave's public functions, and the per-layer metrics
computed from them.

``install`` wraps every public function of every polewave module, in
every polewave module namespace that binds it (``from .radial import
solve_regular`` makes a second binding in poletheorem and onedim), plus
``Potential.__call__``. A wrapper records a span (name, start, end,
parent, attributes) while the tracer is on, and costs one attribute test
while it is off. Spans stay in memory and are written out at the end.
Nothing inside src/ is changed on disk.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("_integrate", "_riccati", "potentials", "radial", "spectrum",
           "poletheorem", "onedim", "separable", "analytic", "cli")

#: a Numerov call with at most this many momenta counts as narrow
NARROW_WIDTH = 8


def _size(x) -> int:
    return int(np.size(x))


def _numerov(args, kwargs, result):
    w = args[2]
    width = w.shape[1] if w.ndim > 1 else 1
    # bytes the kernel computes with: w in, g and c built from it, u out
    return {"steps": w.shape[0] * width, "width": width, "bytes": 3 * w.nbytes + result.nbytes}


def _momenta(args, kwargs, result):
    return {"momenta": _size(args[2])}


def _regular(args, kwargs, result):
    pot, l, _, grid = args[:4]
    k = np.atleast_1d(np.asarray(args[2], dtype=complex))
    k2 = k * k
    return {"momenta": k.size, "key": [repr(pot), l, grid.h, grid.n],
            "k2": np.stack([k2.real, k2.imag], axis=1).tolist()}


def _roots(args, kwargs, result):
    return {"roots": len(result)}


def _residue(args, kwargs, result):
    return {"method": result.method}


def _points(args, kwargs, result):
    return {"points": _size(args[1])}


#: span name -> attributes taken from (args, kwargs, result)
HOOKS = {
    "_integrate.numerov": _numerov,
    "radial.solve_regular": _regular,
    "radial.solve_jost_reduced": _momenta,
    "radial.jost_function": _momenta,
    "radial.jost_on_imaginary_axis": _momenta,
    "spectrum.find_bound_states": _roots,
    "onedim.find_bound_1d": _roots,
    "poletheorem.smatrix_residue": _residue,
    "potentials.Potential.__call__": _points,
}
for _fn in ("jhat", "yhat", "hhat_plus", "jhat_d", "yhat_d", "hhat_plus_d"):
    HOOKS[f"_riccati.{_fn}"] = _points


class Tracer:
    def __init__(self):
        self.on = False
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, time.process_time(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    span[4] = hook(args, kwargs, result)
                return result
            finally:
                span[2] = time.process_time()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of polewave in every loaded module that
    binds them, the benchmark's own modules included."""
    from polewave.potentials import Potential

    mods = {name: importlib.import_module(f"polewave.{name}") for name in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                wrapped[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
    for mod in list(sys.modules.values()):
        for attr, obj in list(getattr(mod, "__dict__", {}).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    Potential.__call__ = tracer.wrap("potentials.Potential.__call__", Potential.__call__)


# ------------------------------------------------------------------ metrics


class SpanTable:
    """Spans with parent links, for self times and sums over subtrees."""

    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for i, s in enumerate(spans):
            self.children[s[3]].append(i)

    def dur(self, i) -> float:
        s = self.spans[i]
        return s[2] - s[1]

    def self_time(self, i) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def named(self, *names):
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def outermost(self, *names):
        """Spans of these names not nested in another span of these names."""
        out = []
        for i in self.named(*names):
            p = self.spans[i][3]
            while p != -1 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p == -1:
                out.append(i)
        return out

    def total(self, *names) -> float:
        return sum(self.dur(i) for i in self.outermost(*names))

    def self_sum(self, *names) -> float:
        return sum(self.self_time(i) for i in self.named(*names))

    def attr(self, idx, key) -> float:
        return sum((self.spans[i][4] or {}).get(key, 0) for i in idx)

    def under(self, i, *names, skip=()):
        """Descendants of span i with one of these names, not below a span named in skip."""
        out, todo = [], list(self.children[i])
        while todo:
            j = todo.pop()
            name = self.spans[j][0]
            if name in skip:
                continue
            if name in names:
                out.append(j)
            todo.extend(self.children[j])
        return out


def layer_metrics(spans) -> dict[str, float]:
    t = SpanTable(spans)
    m: dict[str, float] = {}

    num = t.named("_integrate.numerov")
    steps = t.attr(num, "steps")
    narrow = t.attr([i for i in num if (t.spans[i][4] or {}).get("width", 0) <= NARROW_WIDTH], "steps")
    m["numerov.calls"] = len(num)
    m["numerov.node_steps"] = steps
    m["numerov.self_s"] = t.self_sum("_integrate.numerov")
    m["numerov.ns_per_node_step"] = 1e9 * m["numerov.self_s"] / steps if steps else 0.0
    m["numerov.narrow_share"] = narrow / steps if steps else 0.0
    m["numerov.computed_bytes"] = t.attr(num, "bytes")

    ric = [f"_riccati.{f}" for f in ("jhat", "yhat", "hhat_plus", "jhat_d", "yhat_d", "hhat_plus_d")]
    m["riccati.points"] = t.attr(t.outermost(*ric), "points")
    m["riccati.self_s"] = t.self_sum(*ric)

    m["potential.points"] = t.attr(t.named("potentials.Potential.__call__"), "points")
    m["potential.self_s"] = t.self_sum("potentials.Potential.__call__")
    m["make_grid.calls"] = len(t.named("potentials.make_grid"))

    reg = t.named("radial.solve_regular")
    m["regular.sweeps"] = len(reg)
    m["regular.node_steps"] = sum(t.attr(t.under(i, "_integrate.numerov"), "steps") for i in reg)
    m["regular.self_s"] = t.self_sum("radial.solve_regular")
    seen, repeats, total = defaultdict(set), 0, 0
    for i in reg:
        a = t.spans[i][4]
        key = tuple(a["key"])
        for k2 in map(tuple, a["k2"]):
            total += 1
            repeats += k2 in seen[key]
            seen[key].add(k2)
    m["regular.repeat_share"] = repeats / total if total else 0.0
    jr = t.named("radial.solve_jost_reduced")
    m["jost_reduced.node_steps"] = sum(t.attr(t.under(i, "_integrate.numerov"), "steps") for i in jr)
    m["jost_reduced.self_s"] = t.self_sum("radial.solve_jost_reduced")
    m["jost.momenta"] = t.attr(t.named("radial.jost_function"), "momenta")
    m["jost.self_s"] = t.self_sum("radial.jost_function")

    search = t.outermost("spectrum.find_bound_states")
    roots = t.attr(search, "roots")
    evals = sum(t.attr(t.under(i, "radial.jost_on_imaginary_axis", skip=("spectrum.build_bound_state",)),
                       "momenta") for i in search)
    m["search.self_s"] = t.self_sum("spectrum.find_bound_states")
    m["search.jost_evals_per_root"] = evals / roots if roots else 0.0
    m["bound_build.self_s"] = t.self_sum("spectrum.build_bound_state")

    m["pole.samples_s"] = t.total("poletheorem.extrapolant_samples", "poletheorem.extrapolant_samples_near_pole")
    m["pole.fit_s"] = t.total("poletheorem.extrapolate_to_pole")
    m["pole.compare_s"] = t.total("poletheorem.compare_to_bound")
    m["pole.branch_probes"] = len(t.named("poletheorem.pole_branch_sign"))
    res = t.outermost("poletheorem.smatrix_residue")
    for method in ("imaginary_axis", "real_axis_fit"):
        m[f"residue.{method}_s"] = sum(t.dur(i) for i in res if (t.spans[i][4] or {}).get("method") == method)
    m["gw.self_s"] = t.self_sum("poletheorem.gw_extrapolant")
    m["gw.jost_derivative_calls"] = len(t.named("poletheorem.jost_derivative"))

    search1d = t.outermost("onedim.find_bound_1d")
    roots1d = t.attr(search1d, "roots")
    evals1d = sum(t.attr(t.under(i, "radial.solve_jost_reduced", skip=("onedim.build_bound_1d",)),
                         "momenta") for i in search1d)
    m["oned.search_s"] = t.total("onedim.find_bound_1d")
    m["oned.condition_evals_per_root"] = evals1d / roots1d if roots1d else 0.0
    m["oned.pole_s"] = t.total("onedim.pole_extrapolate_1d")
    m["oned.residue_s"] = t.total("onedim.pole_residue_1d")
    m["oned.threshold_s"] = t.total("onedim.zero_energy_phase")
    m["oned.parity_solve_s"] = t.total("onedim.solve_parity")

    m["separable.self_s"] = sum(t.self_time(i) for i, s in enumerate(spans) if s[0].startswith("separable."))
    return m


def import_times(text: str, top: str) -> tuple[float, float]:
    """(seconds to import the polewave modules, seconds spent in scipy
    modules), from the stderr of ``python -X importtime``. The scipy
    figure sums the cumulative time of every scipy module not imported
    by another scipy module."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line[12:]:
            continue
        parts = line[12:].split("|")
        if not parts[0].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((int(parts[1]), name.strip(), depth))
    polewave = sum(c for c, n, d in rows if d == 0 and n.split(".")[0] == top)
    # the output is in post-order; reversed, every row follows its parent
    scipy, stack = 0, []
    for cum, name, depth in reversed(rows):
        del stack[depth:]
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for n in stack):
            scipy += cum
        stack.append(name)
    return polewave * 1e-6, scipy * 1e-6
