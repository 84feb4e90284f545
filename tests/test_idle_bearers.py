"""An idle deployed bearer costs its counters, not its machinery.

``latency-budgets``, cut to 0.1 s, runs alone and with ``IDLE`` more
bearers on its UE whose sources start after the end, over both slices and
every traffic pattern.  The bearers that never send must not change the
work of the TTI path, counted exactly as the bytecodes run in
``Runtime._tti_for_ranf`` and ``sched.stage2_allocate``.  Nor may each of
them hold more than ``BYTES_PER_IDLE_BEARER`` of traced memory once the run
is over: no RNG stream (none draws), no RLC retransmission or
drop-indication queue, no transmit queue and no set of skipped SNs.
"""

import gc
import sys
import tracemalloc

from ransim import sched
from ransim.runtime import Runtime
from test_acceptance import build
from test_golden import _latency_budgets_raw

DURATION_US = 100_000
IDLE = 300

# Measured 1,853 B per idle bearer on CPython 3.11: its ``Bearer``,
# ``BearerCtx``, source, buffer, RLC and receiver state, metrics and queued
# start event.  An empty deque created eagerly would add 760 B.
BYTES_PER_IDLE_BEARER = 2_048

PATTERNS = (
    {"pattern": "ConstantBitRate", "rate_bytes_per_s": 100_000},
    {"pattern": "Poisson", "rate_bytes_per_s": 100_000},
    {"pattern": "PeriodicBurst", "burst_period_us": 20_000,
     "burst_bytes": 3_000},
    {"pattern": "XrFrame", "fps": 60.0, "frame_bytes": 20_000,
     "frame_jitter": 0.1},
)
# (latency_req_us, reliability_req) of a slice-I and a slice-II bearer.
REQUIREMENTS = ((5_000, 0.9999999), (100_000, 0.999))


def scenario(idle):
    raw = _latency_budgets_raw(DURATION_US)
    for i in range(idle):
        latency, reliability = REQUIREMENTS[i % len(REQUIREMENTS)]
        traffic = dict(PATTERNS[i % len(PATTERNS)], start_us=DURATION_US + 1)
        raw["bearers"].append({
            "id": f"idle-{i}", "ue": "ue1", "latency_req_us": latency,
            "reliability_req": reliability, "traffic": traffic})
    return build(raw)


def tti_path_opcodes(cfg):
    """Bytecodes run in each function of the TTI path over a whole run."""
    counts = {sched.stage2_allocate.__code__: 0,
              Runtime._tti_for_ranf.__code__: 0}

    def count(frame, event, _arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return count

    def on_call(frame, _event, _arg):
        if frame.f_code in counts:
            frame.f_trace_opcodes = True
            return count
        return None

    rt = Runtime(cfg)
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        rt.run()
    finally:
        sys.settrace(previous)
    return {code.co_name: n for code, n in counts.items()}


def test_idle_bearers_leave_the_tti_path_work_unchanged():
    busy = tti_path_opcodes(scenario(0))
    assert all(busy.values())
    assert tti_path_opcodes(scenario(IDLE)) == busy


def traced_bytes_after_run(cfg):
    gc.collect()
    tracemalloc.start()
    try:
        rt = Runtime(cfg)
        rt.run()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_an_idle_bearer_costs_its_counters_not_its_machinery():
    base, with_idle = scenario(0), scenario(IDLE)
    traced_bytes_after_run(base)  # once, so that no first-run cache counts
    added = traced_bytes_after_run(with_idle) - traced_bytes_after_run(base)
    assert added / IDLE <= BYTES_PER_IDLE_BEARER
