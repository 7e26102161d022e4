"""The public surface: bench/tracing.py wraps every ``__all__`` name and a
few methods by name, so a stale entry must fail here first."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pushsim

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


def test_traced_methods_exist():
    mods = modules()
    for layer, dotted in tracing.METHODS.items():
        for name in dotted:
            cls_name, meth = name.split(".")
            assert callable(getattr(getattr(mods[layer], cls_name), meth)), name
