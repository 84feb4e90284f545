"""The benchmark's tracer wraps simulator call sites by name
(``bench/tracing.py``).  A target that a refactor renames is silently left
out of the traced run, so every target must resolve."""

import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), "..", "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name, module, path", tracing.TARGETS,
                         ids=[t[0] for t in tracing.TARGETS])
def test_tracer_target_resolves(name, module, path):
    assert tracing._resolve(module, path) is not None, (name, module, path)
