"""The benchmark tools reach package functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = _load("tracer")
    for module_name, dotted, _ in tracer.TRACED:
        owner, attr = tracer._resolve(importlib.import_module(module_name), dotted)
        assert callable(getattr(owner, attr, None)), (module_name, dotted)


def test_reference_tool_imports():
    # loading runs only its imports (main() is behind __main__), so a renamed
    # _sfs_replicate, _clonal_replicate or e_zcl_pow_r fails here
    reference = _load("make_reference")
    assert callable(reference.main)
