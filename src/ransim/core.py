"""Deterministic discrete-event engine: virtual clock, event queue, seeded RNG streams.

All simulation time is integer microseconds.  Ordering of simultaneous
events is FIFO by a global scheduling counter, which makes every run a
pure function of (scenario, master seed).  The queue is a heap of plain
``(fire_at, seq, fn, kind, target)`` tuples: scheduling allocates no event
object, and a handler is any zero-argument callable (bound methods and
``functools.partial`` of them in the runtime).  Handlers, ``Simulator.every``
ticks and RNG streams all pickle, so a run pickled between two events
resumes to the same report.
"""

import _random
import hashlib
from heapq import heappop, heappush
from math import cos, log, sin, sqrt, tau

US_PER_MS = 1_000
US_PER_S = 1_000_000


class SimulationError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SimulationError):
    """Bad scenario input or an operation parameterized outside its contract."""


class ModelError(SimulationError):
    """A model invariant was violated at run time (indicates a bug or a bad plan)."""


class RngStream(_random.Random):
    """A named pseudo-random stream derived from a master seed.

    Seeding hashes (master_seed, name), so streams are independent and
    adding a new stream never perturbs draws on existing ones.  Mersenne
    Twister, which is stable across platforms: the C generator under
    ``random.Random``, slotted, so a stream is its generator state and one
    slot.  ``expovariate`` and ``gauss`` are ``random.Random``'s, and a
    stream draws exactly what ``random.Random`` seeded alike would.
    """

    __slots__ = ("gauss_next",)

    def __init__(self, master_seed, name):
        digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
        super().__init__(int.from_bytes(digest[:8], "big"))
        self.gauss_next = None

    def __reduce__(self):
        return _restore_stream, (self.getstate(), self.gauss_next)

    # Uniform float in [0, 1); advances the state exactly once.
    draw = _random.Random.random

    def expovariate(self, lambd):
        return -log(1.0 - self.random()) / lambd

    def gauss(self, mu, sigma):
        random = self.random
        z = self.gauss_next
        self.gauss_next = None
        if z is None:
            x2pi = random() * tau
            g2rad = sqrt(-2.0 * log(1.0 - random()))
            z = cos(x2pi) * g2rad
            self.gauss_next = sin(x2pi) * g2rad
        return mu + z * sigma


def _restore_stream(state, gauss_next):
    """Unpickle an ``RngStream``: its generator state, then ``gauss_next``."""
    stream = RngStream.__new__(RngStream)
    stream.setstate(state)
    stream.gauss_next = gauss_next
    return stream


class RngRegistry:
    """Fans one master seed out to named per-entity streams."""

    def __init__(self, master_seed):
        self.master_seed = master_seed
        self._streams = {}

    def stream(self, name):
        st = self._streams.get(name)
        if st is None:
            st = RngStream(self.master_seed, name)
            self._streams[name] = st
        return st


class Simulator:
    """Single-threaded event loop over a heap of (fire_at, seq, fn, kind, target).

    ``seq`` is unique, so heap ordering compares two integers (FIFO among
    events at the same time) and never reaches ``fn``, which may be any
    callable.  ``kind`` and ``target`` only name a failing handler.

    There is no event cancellation; handlers that may be superseded carry a
    generation counter and no-op when stale.
    """

    def __init__(self):
        self.now = 0
        self._queue = []
        self._seq = 0
        self.events_processed = 0

    def schedule(self, fire_at, kind, target, fn):
        """Enqueue ``fn()`` to run at ``fire_at``; rejects scheduling into the past."""
        if fire_at < self.now:
            raise ConfigError(
                f"cannot schedule event '{kind}' at t={fire_at}us before current "
                f"clock t={self.now}us"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (fire_at, seq, fn, kind, target))

    def every(self, first, period, kind, target, fn, until):
        """Run ``fn()`` at ``first``, then every ``period`` us while the next
        time is ``<= until``.  Each next call is scheduled once ``fn``
        returns, so it comes after the same-time events that ``fn``
        scheduled."""
        self.schedule(first, kind, target,
                      _Every(self, period, kind, target, fn, until))

    def run_until(self, t_end):
        """Process every event with fire_at <= t_end; leave the clock at t_end.
        ``events_processed`` counts the handlers that returned."""
        q = self._queue
        pop = heappop
        done = 0
        try:
            while q and q[0][0] <= t_end:
                fire_at, _, fn, kind, target = pop(q)
                self.now = fire_at
                fn()
                done += 1
        except SimulationError:
            raise
        except Exception as exc:
            raise ModelError(
                f"event handler failed: kind={kind} t={fire_at}us "
                f"target={target}: {exc}"
            ) from exc
        finally:
            self.events_processed += done
        if t_end > self.now:
            self.now = t_end
        return self.now


class _Every:
    """One tick of ``Simulator.every``: a plain object, so that a queued
    tick pickles with its simulator."""

    __slots__ = ("sim", "period", "kind", "target", "fn", "until")

    def __init__(self, sim, period, kind, target, fn, until):
        self.sim = sim
        self.period = period
        self.kind = kind
        self.target = target
        self.fn = fn
        self.until = until

    def __call__(self):
        self.fn()
        sim = self.sim
        nxt = sim.now + self.period
        if nxt <= self.until:
            sim.schedule(nxt, self.kind, self.target, self)
