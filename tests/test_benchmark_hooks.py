"""The benchmark's traced run (``benchmarks/tracing.py``) wraps library
functions and methods by name, so a rename in the library would break
``--trace 1`` silently.  This reads the tracer's tables and checks that
every name still resolves."""

import importlib
import importlib.util
from pathlib import Path

from fourcover import classifier

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_resolve():
    tracing = _tracing()
    for module, fn, _, _ in tracing.SPANS:
        target = getattr(importlib.import_module("fourcover." + module), fn, None)
        assert callable(target), "fourcover.%s.%s" % (module, fn)
    for cls, method, _ in tracing.COUNTED:
        assert method in cls.__dict__, "%s.%s" % (cls.__name__, method)
    routes = {sub or rtype for rtype, sub in classifier._BUILDERS}
    assert set(tracing.ROUTES) == routes
