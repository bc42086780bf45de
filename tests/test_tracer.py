"""The benchmark tracer wraps package functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, dotted, _ in tracer.TRACED:
        owner, attr = tracer._resolve(importlib.import_module(module_name), dotted)
        assert callable(getattr(owner, attr, None)), (module_name, dotted)
