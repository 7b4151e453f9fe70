"""The names the benchmark's tracer looks up in heronian still exist.

perfbench/tracer.py wraps module attributes from outside the package, so
renaming or deleting one of them breaks `perfbench/run.py --trace 1`
without failing any other test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import heronian.catalog as catalog
import heronian.core as core
import heronian.cycles as cycles

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, attr) for module, attr, *_ in tracer.SPANS + tracer.COUNTED]
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_traced_caches_and_build_signature():
    for cached in (core.heron_area, cycles._cycle_core):
        assert callable(cached.cache_info) and callable(cached.cache_clear)
    inspect.signature(catalog.build).bind(2000, workers=2)
