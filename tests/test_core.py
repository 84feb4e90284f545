import hashlib
import pickle
import random
from functools import partial

import pytest
from hypothesis import given, strategies as st

from ransim.core import (ConfigError, ModelError, RngRegistry, RngStream,
                         Simulator)


def test_event_order_by_time_then_fifo():
    sim = Simulator()
    log = []
    sim.schedule(20, "b", "x", lambda: log.append("b"))
    sim.schedule(10, "a", "x", lambda: log.append("a"))
    sim.schedule(10, "a2", "x", lambda: log.append("a2"))
    sim.schedule(10, "a3", "x", lambda: log.append("a3"))
    sim.run_until(100)
    assert log == ["a", "a2", "a3", "b"]


def test_run_until_advances_clock_to_t_end():
    sim = Simulator()
    sim.schedule(10, "a", "x", lambda: None)
    sim.run_until(50)
    assert sim.now == 50
    # Empty queue: the clock still lands on t_end.
    sim.run_until(80)
    assert sim.now == 80


def test_events_scheduled_during_run_fire_in_order():
    sim = Simulator()
    log = []

    def first():
        log.append("first")
        sim.schedule(sim.now, "nested", "x", lambda: log.append("nested"))

    sim.schedule(5, "first", "x", first)
    sim.schedule(5, "second", "x", lambda: log.append("second"))
    sim.run_until(10)
    assert log == ["first", "second", "nested"]


def test_schedule_into_past_rejected():
    sim = Simulator()
    sim.schedule(10, "a", "x", lambda: None)
    sim.run_until(10)
    with pytest.raises(ConfigError):
        sim.schedule(5, "late", "x", lambda: None)


def test_handler_exception_wrapped_with_context():
    sim = Simulator()

    def boom():
        raise ValueError("inner")

    sim.schedule(3, "exploder", "tgt", boom)
    with pytest.raises(ModelError) as exc:
        sim.run_until(10)
    assert "exploder" in str(exc.value)
    assert "t=3us" in str(exc.value)


def test_rng_streams_independent():
    reg = RngRegistry(42)
    a1 = [reg.stream("a").draw() for _ in range(5)]
    # Drawing on another stream must not perturb "a".
    reg2 = RngRegistry(42)
    reg2.stream("b").draw()
    a2 = [reg2.stream("a").draw() for _ in range(5)]
    assert a1 == a2


# Frozen golden draws: platform-stable because random.Random is MT19937 with
# a documented seeding scheme.  Regenerate only if the fan-out rule changes.
GOLDEN_SEED42_LINK_UE1 = [
    0.8350735196219271,
    0.7156807152757605,
    0.6858846201507536,
]


def test_rng_golden_draws_seed42():
    st_ = RngStream(42, "link:ue1")
    draws = [st_.draw() for _ in range(3)]
    assert draws == pytest.approx(GOLDEN_SEED42_LINK_UE1, abs=0)


def test_rng_stream_draws_as_random_random_and_pickles_mid_gauss_pair():
    digest = hashlib.sha256(b"42:traffic:b1").digest()
    ref = random.Random(int.from_bytes(digest[:8], "big"))
    st_ = RngStream(42, "traffic:b1")
    # An odd number of gauss draws leaves the pair's second in gauss_next.
    draws = [(st_.draw(), st_.expovariate(0.5), st_.gauss(3.0, 2.0))
             for _ in range(5)]
    assert draws == [(ref.random(), ref.expovariate(0.5), ref.gauss(3.0, 2.0))
                     for _ in range(5)]
    resumed = pickle.loads(pickle.dumps(st_))
    assert [resumed.gauss(0.0, 1.0), resumed.draw()] \
        == [ref.gauss(0.0, 1.0), ref.random()]


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=8))
def test_rng_stream_reproducible(seed, name):
    s1 = RngStream(seed, name)
    s2 = RngStream(seed, name)
    assert [s1.draw() for _ in range(3)] == [s2.draw() for _ in range(3)]


def test_same_seed_same_event_trace():
    def build():
        sim = Simulator()
        rng = RngRegistry(7)
        trace = []

        def tick(i):
            trace.append((sim.now, round(rng.stream("s").draw(), 12)))
            if i < 20:
                sim.schedule(sim.now + 10, "tick", "x", lambda: tick(i + 1))

        sim.schedule(0, "tick", "x", lambda: tick(0))
        sim.run_until(1000)
        return trace

    assert build() == build()


def test_same_time_unorderable_handlers_run_fifo():
    # partial objects cannot be compared, so the heap must never reach them.
    sim = Simulator()
    log = []
    for i in range(300):
        sim.schedule(7 if i % 3 else 5, "p", i, partial(log.append, i))
    assert sim.schedule(9, "p", "x", partial(log.append, "last")) is None
    sim.run_until(10)
    assert log == ([i for i in range(300) if i % 3 == 0]
                   + [i for i in range(300) if i % 3] + ["last"])
    assert sim.events_processed == 301


def test_events_processed_counts_handlers_that_returned():
    sim = Simulator()

    def boom():
        raise KeyError("inner")

    def model_error():
        raise ModelError("bad plan")

    for t in (1, 2, 3):
        sim.schedule(t, "ok", "x", lambda: None)
    sim.schedule(4, "exploder", "tgt", boom)
    sim.schedule(5, "ok", "x", lambda: None)
    sim.schedule(6, "model", "x", model_error)
    sim.schedule(7, "ok", "x", lambda: None)
    with pytest.raises(ModelError):
        sim.run_until(100)
    assert sim.events_processed == 3 and sim.now == 4
    with pytest.raises(ModelError, match="bad plan"):
        sim.run_until(100)
    assert sim.events_processed == 4 and sim.now == 6
    sim.run_until(100)
    assert sim.events_processed == 5 and sim.now == 100


def test_handler_error_names_kind_time_and_target():
    sim = Simulator()
    sim.schedule(2, "ok", "x", lambda: None)
    sim.schedule(42, "harq-feedback", "ue-7", partial(int, "not a number"))
    with pytest.raises(ModelError) as exc:
        sim.run_until(100)
    msg = str(exc.value)
    assert "kind=harq-feedback" in msg and "t=42us" in msg \
        and "target=ue-7" in msg
    assert isinstance(exc.value.__cause__, ValueError)


# ---------------------------------------------------------------- every

def test_every_fires_after_the_same_time_events_its_handler_scheduled():
    sim = Simulator()
    log = []

    def tick():
        log.append(("tick", sim.now))
        sim.schedule(sim.now + 10, "child", "x",
                     partial(log.append, ("child", sim.now + 10)))

    sim.every(0, 10, "tick", "x", tick, until=30)
    sim.run_until(100)
    assert log == [("tick", 0), ("child", 10), ("tick", 10), ("child", 20),
                   ("tick", 20), ("child", 30), ("tick", 30), ("child", 40)]


def test_every_until_is_inclusive_and_nothing_fires_after_it():
    sim = Simulator()
    times = []
    sim.every(5, 10, "tick", "x", lambda: times.append(sim.now), until=35)
    sim.run_until(1000)
    assert times == [5, 15, 25, 35]
    assert sim._queue == []
    # An ``until`` between two firings stops at the one before it.
    sim = Simulator()
    times = []
    sim.every(5, 10, "tick", "x", lambda: times.append(sim.now), until=34)
    sim.run_until(1000)
    assert times == [5, 15, 25]


def test_every_runs_its_first_call_even_past_until():
    sim = Simulator()
    times = []
    sim.every(50, 10, "tick", "x", lambda: times.append(sim.now), until=40)
    sim.run_until(1000)
    assert times == [50]


def test_every_names_kind_and_target_in_handler_errors():
    sim = Simulator()
    calls = []

    def tick():
        calls.append(sim.now)
        if len(calls) == 3:
            raise ValueError("third")

    sim.every(1, 2, "rlc-status", "b7", tick, until=100)
    with pytest.raises(ModelError) as exc:
        sim.run_until(100)
    assert "kind=rlc-status" in str(exc.value) and "t=5us" in str(exc.value) \
        and "target=b7" in str(exc.value)
