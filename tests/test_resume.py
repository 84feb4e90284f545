"""A run pickled mid-run and unpickled resumes to the full run's report.

The cut falls inside a microsecond: the run goes to just before the cut,
then runs by hand the events queued ahead of it, one at a time, until it has
run one of two or more events queued for the same time.  The pickle then
holds the rest of them, so a resumed run must keep their FIFO order.  Each
report, of the unpickled copy and of the original run after the pickle, must
equal the full run's byte for byte: every golden pin's hash, and
``latency-budgets`` cut to 0.2 s against its own full run.
"""

import pickle
from heapq import heappop

import pytest

from ransim.runtime import Runtime, run_scenario
from test_acceptance import build
from test_golden import CASES, _latency_budgets_raw, fingerprint


def run_into_same_time_events(sim, t):
    """Run to just before ``t``, then event by event past the first event
    of a time with two or more queued; returns that time."""
    sim.run_until(t - 1)
    q = sim._queue
    while True:
        fire_at, _, fn, _, _ = heappop(q)
        sim.now = fire_at
        fn()
        sim.events_processed += 1
        if q and q[0][0] == fire_at:
            return fire_at


def resumed_fingerprints(cfg):
    """Fingerprints of the unpickled copy's report and the original's, cut
    at half the run."""
    rt = Runtime(cfg)
    at = run_into_same_time_events(rt.sim, cfg["duration_us"] // 2)
    blob = pickle.dumps(rt)
    copy = pickle.loads(blob)
    assert copy.sim.now == at and copy.sim._queue[0][0] == at
    return fingerprint(copy.run()), fingerprint(rt.run())


# ``latency-budgets`` runs 10 s; it is resumed below at 0.2 s instead.
PINS = sorted(name for name in CASES if name != "latency-budgets")


@pytest.mark.parametrize("name", PINS)
def test_pin_resumes_from_a_pickle_to_its_hash(name):
    make_cfg, expected = CASES[name]
    assert resumed_fingerprints(make_cfg()) == (expected, expected)


def test_latency_budgets_resumes_from_a_pickle():
    full = fingerprint(run_scenario(build(_latency_budgets_raw(200_000))))
    assert resumed_fingerprints(build(_latency_budgets_raw(200_000))) \
        == (full, full)
