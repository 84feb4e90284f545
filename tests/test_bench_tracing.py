"""The benchmark's tracer wraps simulator call sites by name
(``bench/tracing.py``).  A target that a refactor renames is silently left
out of the traced run, so every target must resolve; and an observer that a
change of call shape starves reads 0 without failing, so a traced run must
feed the observers' counters."""

import importlib.util
import os

import pytest
import yaml

from ransim import config as cfgmod
from ransim.runtime import Runtime

TRACING = os.path.join(os.path.dirname(__file__), "..", "bench", "tracing.py")
SMOKE = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                     "smoke.yaml")


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


def test_traced_run_feeds_the_observers():
    """``smoke.yaml``, cut to 200 ms, run under the tracer: every target is
    found, stage 2's observer counts grants, and the transport-block
    observer reads each grant's bytes (never fewer than the blocks
    carry)."""
    with open(SMOKE) as fh:
        raw = yaml.safe_load(fh)
    raw["duration_us"] = 200_000
    with tracing.Tracer() as tracer:
        report = Runtime(cfgmod.validate_scenario(raw)).run()
    assert tracer.absent == []
    counters = tracer.counters
    assert counters.get("sched.stage2.grants", 0) > 0
    assert counters.get("stack.grant_bytes", 0) \
        >= counters.get("stack.tb_bytes", 0) > 0
    assert report["tb_transmitted"] > 0
