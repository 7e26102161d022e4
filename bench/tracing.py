"""Per-layer tracing of one pushsim CLI call, done from outside the package.

Run as a program, this file is the traced stand-in for ``python -m
pushsim.cli``:

    python3 bench/tracing.py SPANS_FILE SUBCOMMAND [CLI ARGS...]

It imports the package, wraps every public function of each module (the
names in ``__all__``) plus a few hot methods in timing spans, then runs
``pushsim.cli.main`` unchanged.  A wrapper replaces the function both in
its defining module and at every ``from .x import name`` binding, so calls
between modules are seen.  Spans stay in memory and go to SPANS_FILE when
the call ends.  Nothing under ``src/`` is modified.

Imported, the module turns span files into the benchmark's per-layer
metrics (``layer_metrics``).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("graphs", "weights", "pushsum", "subgradient", "bounds", "harness", "svgplot", "cli")

# Hot methods wrapped on top of each module's ``__all__`` functions.
METHODS = {
    "graphs": ("Digraph.out_neighbors", "Digraph.in_neighbors"),
    "subgradient": ("ObjectiveSpec.agent_subgradients", "ObjectiveSpec.contains"),
}


class Tracer:
    """Spans (name, start, end, parent) in flat arrays, plus counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.open: list[int] = []
        self.counters: dict[str, float] = {}

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, qualname: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(qualname)
        clock = time.perf_counter_ns
        opened = self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(opened[-1] if opened else -1)
            self.end.append(0)
            opened.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                opened.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            counters=np.array(json.dumps(self.counters)),
        )


# Counters that need a call's arguments or result; all are exact functions
# of the inputs, so they repeat from run to run.

def _count_arcs(tr: Tracer, args, seq) -> None:
    tr.count("graphs.arcs", sum(len(g.arcs) for g in seq.graphs))


def _count_products(tr: Tracer, args, result) -> None:
    mats, tau, t = args[:3]
    matmuls = max(t - tau - 1, 0)
    n = mats[0].n if len(mats) else 0
    tr.count("pushsum.product_matmuls", matmuls)
    tr.count("pushsum.product_flop", matmuls * 2 * n ** 3)


def _trace_nbytes(trace) -> int:
    total = sum(v.nbytes for v in vars(trace).values() if isinstance(v, np.ndarray))
    total += trace.final_state.x.nbytes + trace.final_state.y.nbytes
    if trace.smatrices is not None:
        total += sum(s.entries.nbytes for s in trace.smatrices)
    return total


def _count_run(tr: Tracer, args, trace) -> None:
    tr.count("subgradient.steps", trace.steps)
    # The largest single trace is what a run holds at once.
    mb = _trace_nbytes(trace) / 2 ** 20
    tr.counters["subgradient.trace_mb"] = max(tr.counters.get("subgradient.trace_mb", 0.0), mb)


def _count_chart(tr: Tracer, args, result) -> None:
    tr.count("svgplot.charts", 1)
    tr.count("svgplot.points", sum(len(s.xs) for s in args[1]))


HOOKS = {
    "graphs.generate_sequence": _count_arcs,
    "pushsum.transition_product_w": _count_products,
    "pushsum.transition_product_s": _count_products,
    "subgradient.run_push_subgradient": _count_run,
    "svgplot.line_chart": _count_chart,
}


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and hot methods in place."""
    import pushsim  # noqa: F401  (imports every layer but the CLI)
    import pushsim.cli  # noqa: F401

    wrapped: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"pushsim.{layer}"]
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                qual = f"{layer}.{name}"
                wrapped[id(fn)] = tracer.wrap(qual, fn, HOOKS.get(qual))
        for dotted in METHODS.get(layer, ()):
            cls_name, meth = dotted.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(f"{layer}.{dotted}", getattr(cls, meth)))
    # Rebind every module-level reference, including ``from .x import name``
    # copies in other modules and the package namespace.
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "pushsim" or mod_name.startswith("pushsim."):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from pushsim.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.save(spans_file)


# --------------------------------------------------------------------------
# aggregation (benchmark side)
# --------------------------------------------------------------------------

class Spans:
    """Per-name totals over one or more span files."""

    def __init__(self) -> None:
        self.incl: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}

    def add_file(self, path: str) -> None:
        with np.load(path) as z:
            names = [str(s) for s in z["names"]]
            name, start, end, parent = z["name"], z["start"], z["end"], z["parent"]
            counters = json.loads(str(z["counters"]))
        dur = end - start
        # Spans of one call never overlap their siblings (single thread), so
        # the part of a span its children cover is the sum of their durations.
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_dur = dur - covered
        k = len(names)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_dur, minlength=k)
        calls = np.bincount(name, minlength=k)
        for nid, qual in enumerate(names):
            self.incl[qual] = self.incl.get(qual, 0) + int(incl[nid])
            self.self_ns[qual] = self.self_ns.get(qual, 0) + int(own[nid])
            self.calls[qual] = self.calls.get(qual, 0) + int(calls[nid])
        for key, value in counters.items():
            if key == "subgradient.trace_mb":
                self.counters[key] = max(self.counters.get(key, 0.0), value)
            else:
                self.counters[key] = self.counters.get(key, 0) + value

    def seconds(self, *quals: str) -> float:
        return sum(self.incl.get(q, 0) for q in quals) / 1e9

    def self_seconds(self, *quals: str) -> float:
        return sum(self.self_ns.get(q, 0) for q in quals) / 1e9

    def count(self, *quals: str) -> int:
        return sum(self.calls.get(q, 0) for q in quals)

    def layer_self_seconds(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for qual, ns in self.self_ns.items():
            out[qual.split(".")[0]] += ns / 1e9
        return out


_OBJECTIVES = tuple(
    f"subgradient.{k}_objective" for k in ("quadratic", "l1", "hinge", "zero")
)
_CONFIG = ("harness.load_config", "harness.apply_overrides")
_NOT_HARNESS_SELF = _CONFIG + ("harness.parse_config", "harness.export_trace", "harness.import_trace")


def layer_metrics(sp: Spans) -> dict[str, tuple[float, str]]:
    """The benchmark's per-layer metrics (name -> (value, unit)) from spans.

    Times are inclusive span time unless named ``self``; counts are calls
    of the wrapped function or exact counters from the hooks above.
    ``harness.self_s`` is the self time of every harness span (the drivers,
    plotting and report code) other than config loading and trace I/O,
    which have their own metrics.
    """
    c = sp.counters
    harness_spans = [q for q in sp.self_ns if q.startswith("harness.") and q not in _NOT_HARNESS_SELF]
    return {
        "graphs.generate_s": (sp.seconds("graphs.generate_sequence"), "s"),
        "graphs.window_s": (sp.seconds("graphs.uniform_connectivity_window"), "s"),
        "graphs.scc_checks": (sp.count("graphs.is_strongly_connected"), "count"),
        "graphs.neighbor_scans": (
            sp.count("graphs.Digraph.out_neighbors", "graphs.Digraph.in_neighbors"), "count"),
        "graphs.arcs": (int(c.get("graphs.arcs", 0)), "count"),
        "weights.build_s": (sp.seconds("weights.build_weights"), "s"),
        "weights.build_calls": (sp.count("weights.build_weights"), "count"),
        "subgradient.run_s": (sp.seconds("subgradient.run_push_subgradient"), "s"),
        "subgradient.run_self_s": (sp.self_seconds("subgradient.run_push_subgradient"), "s"),
        "subgradient.subgrad_s": (sp.seconds("subgradient.ObjectiveSpec.agent_subgradients"), "s"),
        "subgradient.step_s": (sp.seconds("subgradient.pushsub_step"), "s"),
        "subgradient.gap_s": (sp.seconds("subgradient.optimality_gap"), "s"),
        "subgradient.box_checks": (sp.count("subgradient.ObjectiveSpec.contains"), "count"),
        "subgradient.steps": (int(c.get("subgradient.steps", 0)), "count"),
        "subgradient.certify_s": (sp.seconds(*_OBJECTIVES), "s"),
        "subgradient.trace_mb": (float(c.get("subgradient.trace_mb", 0.0)), "MiB"),
        "pushsum.companion_s": (sp.seconds("pushsum.build_s_matrix"), "s"),
        "pushsum.companion_calls": (sp.count("pushsum.build_s_matrix"), "count"),
        "pushsum.identity_s": (sp.seconds("pushsum.verify_product_identity"), "s"),
        "pushsum.identity_calls": (sp.count("pushsum.verify_product_identity"), "count"),
        "pushsum.product_matmuls": (int(c.get("pushsum.product_matmuls", 0)), "count"),
        "pushsum.product_gflop": (c.get("pushsum.product_flop", 0) / 1e9, "GFLOP-computed"),
        "bounds.series_s": (sp.seconds("bounds.timevarying_series"), "s"),
        "bounds.series_calls": (sp.count("bounds.timevarying_series"), "count"),
        "bounds.envelope_s": (sp.seconds("bounds.contraction_series"), "s"),
        "bounds.fit_s": (sp.seconds("bounds.fit_rate", "bounds.fit_geometric_rate"), "s"),
        "harness.config_s": (sp.seconds(*_CONFIG), "s"),
        "harness.self_s": (sp.self_seconds(*harness_spans), "s"),
        "harness.export_s": (sp.seconds("harness.export_trace"), "s"),
        "harness.import_s": (sp.seconds("harness.import_trace"), "s"),
        "svgplot.chart_s": (sp.seconds("svgplot.line_chart"), "s"),
        "svgplot.charts": (int(c.get("svgplot.charts", 0)), "count"),
        "svgplot.points": (int(c.get("svgplot.points", 0)), "count"),
        "cli.self_s": (sp.self_seconds("cli.main"), "s"),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
