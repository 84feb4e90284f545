"""Deterministic discrete-event engine: virtual clock, event queue, seeded RNG streams.

All simulation time is integer microseconds.  Ordering of simultaneous
events is FIFO by a global scheduling counter, which makes every run a
pure function of (scenario, master seed).
"""

import hashlib
import heapq
import random

US_PER_MS = 1_000
US_PER_S = 1_000_000


class SimulationError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SimulationError):
    """Bad scenario input or an operation parameterized outside its contract."""


class ModelError(SimulationError):
    """A model invariant was violated at run time (indicates a bug or a bad plan)."""


class RngStream:
    """A named pseudo-random stream derived from a master seed.

    Seeding hashes (master_seed, stream_id), so streams are independent and
    adding a new stream never perturbs draws on existing ones.  Backed by
    ``random.Random`` (Mersenne Twister), which is stable across platforms.
    """

    def __init__(self, master_seed, stream_id):
        self.stream_id = stream_id
        self.seed = master_seed
        digest = hashlib.sha256(f"{master_seed}:{stream_id}".encode()).digest()
        self._rand = random.Random(int.from_bytes(digest[:8], "big"))

    def draw(self):
        """Uniform float in [0, 1); advances the state exactly once."""
        return self._rand.random()

    def randint(self, a, b):
        return self._rand.randint(a, b)

    def expovariate(self, lambd):
        return self._rand.expovariate(lambd)

    def gauss(self, mu, sigma):
        return self._rand.gauss(mu, sigma)


class RngRegistry:
    """Fans one master seed out to named per-entity streams."""

    def __init__(self, master_seed):
        self.master_seed = master_seed
        self._streams = {}

    def stream(self, stream_id):
        st = self._streams.get(stream_id)
        if st is None:
            st = RngStream(self.master_seed, stream_id)
            self._streams[stream_id] = st
        return st


class Event:
    __slots__ = ("fire_at", "sequence", "kind", "target", "fn", "generation")

    def __init__(self, fire_at, sequence, kind, target, fn, generation=0):
        self.fire_at = fire_at
        self.sequence = sequence
        self.kind = kind
        self.target = target
        self.fn = fn
        self.generation = generation

    def __repr__(self):
        return f"Event({self.kind} @ {self.fire_at}us -> {self.target})"


class Simulator:
    """Single-threaded event loop over a heap of (fire_at, sequence, event).

    The sequence number is unique, so heap ordering compares plain integers
    and never reaches the ``Event`` itself.

    There is no event cancellation; handlers that may be superseded carry a
    generation counter and no-op when stale.
    """

    def __init__(self, rng=None):
        self.now = 0
        self._queue = []
        self._seq = 0
        self.rng = rng if rng is not None else RngRegistry(0)
        self.events_processed = 0

    def schedule(self, fire_at, kind, target, fn, generation=0):
        """Enqueue ``fn()`` to run at ``fire_at``; rejects scheduling into the past."""
        if fire_at < self.now:
            raise ConfigError(
                f"cannot schedule event '{kind}' at t={fire_at}us before current "
                f"clock t={self.now}us"
            )
        seq = self._seq
        ev = Event(fire_at, seq, kind, target, fn, generation)
        self._seq = seq + 1
        heapq.heappush(self._queue, (fire_at, seq, ev))
        return ev

    def schedule_in(self, delay, kind, target, fn, generation=0):
        return self.schedule(self.now + delay, kind, target, fn, generation)

    def run_until(self, t_end):
        """Process every event with fire_at <= t_end; leave the clock at t_end."""
        q = self._queue
        while q and q[0][0] <= t_end:
            fire_at, _, ev = heapq.heappop(q)
            self.now = fire_at
            try:
                ev.fn()
            except SimulationError:
                raise
            except Exception as exc:
                raise ModelError(
                    f"event handler failed: kind={ev.kind} t={ev.fire_at}us "
                    f"target={ev.target}: {exc}"
                ) from exc
            self.events_processed += 1
        if t_end > self.now:
            self.now = t_end
        return self.now

    def peek_next_time(self):
        return self._queue[0][0] if self._queue else None
