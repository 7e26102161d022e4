"""The public surface: bench/tracing.py wraps every ``__all__`` name and a
few methods by name, so a stale entry must fail here first."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import pushsim
from pushsim.graphs import generate_sequence
from pushsim.subgradient import StepsizeSchedule, quadratic_objective, run_push_subgradient
from pushsim.weights import build_weight_stack

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def modules():
    return {layer: importlib.import_module(f"pushsim.{layer}") for layer in tracing.LAYERS}


def test_every_all_name_resolves():
    for layer, mod in modules().items():
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (layer, missing)


def test_package_exports_only_public_names():
    public = {name for mod in modules().values() for name in mod.__all__}
    exported = {
        name for name, value in vars(pushsim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported <= public, sorted(exported - public)


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``__all__`` entries count
    as reads; ``from __future__`` imports are not names)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    src = Path(pushsim.__file__).parent
    assert unused_imports("import os\nfrom typing import Iterator\nos.sep\n") == ["Iterator (line 2)"]
    for path in sorted(src.glob("*.py")):
        if path.name != "__init__.py":
            unused = unused_imports(path.read_text(encoding="utf-8"))
            assert not unused, (path.name, unused)


def test_traced_methods_exist():
    mods = modules()
    for layer, dotted in tracing.METHODS.items():
        for name in dotted:
            cls_name, meth = name.split(".")
            assert callable(getattr(getattr(mods[layer], cls_name), meth)), name


def test_tracer_hooks_read_the_records():
    # The hooks read GraphSequence, Digraph, RunTrace and SMatrix fields by
    # name, so a record change that breaks them fails here.
    seq = generate_sequence("random-walkable", 11, 7, seed=3)
    tr = tracing.Tracer()
    tracing._count_arcs(tr, (), seq)
    assert tr.counters["graphs.arcs"] == int(np.unpackbits(seq.bits).sum())
    x0 = np.linspace(-1.0, 1.0, 22).reshape(11, 2)
    objective = quadratic_objective(x0[::-1])
    trace = run_push_subgradient(build_weight_stack(seq), x0, objective, StepsizeSchedule.harmonic())
    arrays = trace.zs.nbytes + trace.ys.nbytes + trace.final_state.x.nbytes
    assert tracing._trace_nbytes(trace) >= arrays + trace.steps * 11 * 11 * 8  # the companions
