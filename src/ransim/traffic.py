"""Traffic sources and their congestion reaction.

Sources stand in for the transport endpoints.  A congestion signal cuts
the rate by half its fraction, at most once per RTT window: an L4S source
signals its window's CE-mark fraction, a Classic one 1.0 on a drop echo.
Recovery is additive, back toward the nominal rate, at each window without
a CE mark (every window for Classic).
"""

from dataclasses import dataclass, field

from .core import US_PER_S

CBR = "ConstantBitRate"
POISSON = "Poisson"
PERIODIC_BURST = "PeriodicBurst"
XR_FRAME = "XrFrame"

L4S = "L4S"
CLASSIC = "Classic"
NO_REACTION = "None"


@dataclass(slots=True)
class TrafficSource:
    bearer_id: str
    pattern: str = CBR
    nominal_rate: float = 1_000_000.0  # bytes/s offered at pattern level
    sdu_bytes: int = 1500
    burst_period: int = 100_000  # us, PeriodicBurst
    burst_bytes: int = 15_000  # PeriodicBurst
    fps: float = 90.0  # XrFrame
    frame_bytes: int = 50_000  # XrFrame mean
    frame_jitter: float = 0.0  # XrFrame stddev fraction of frame_bytes
    congestion_law: str = NO_REACTION
    recovery_step: float = 0.05  # fraction of nominal added back per RTT
    rate: float = field(init=False)
    _last_reaction: int = field(init=False, default=-(10**12))
    rtt_window: int = 50_000  # us, at most one multiplicative reaction per window
    # Whether ``next_emission`` draws from its rng: only Poisson gaps and
    # jittered XR frame sizes do, and the others are passed None.
    draws: bool = field(init=False)

    def __post_init__(self):
        self.rate = self.nominal_rate
        self.draws = self.pattern == POISSON or (
            self.pattern == XR_FRAME and self.frame_jitter > 0)

    def next_emission(self, now, rng):
        """Return (next_time_us, [sdu sizes]) for the emission after ``now``."""
        if self.rate <= 0:
            return None, []
        if self.pattern == CBR:
            gap = int(self.sdu_bytes * US_PER_S / self.rate)
            return now + max(1, gap), [self.sdu_bytes]
        if self.pattern == POISSON:
            mean_gap = self.sdu_bytes * US_PER_S / self.rate
            gap = rng.expovariate(1.0 / mean_gap)
            return now + max(1, int(gap)), [self.sdu_bytes]
        if self.pattern == PERIODIC_BURST:
            return now + self.burst_period, self._sdus(self.burst_bytes)
        # XR_FRAME
        size = self.frame_bytes
        if self.frame_jitter > 0:
            size = max(1, int(rng.gauss(size, self.frame_jitter * size)))
        return now + int(US_PER_S / self.fps), self._sdus(size)

    def _sdus(self, nbytes):
        """SDU sizes carrying ``nbytes``: full SDUs, then the remainder."""
        sizes = []
        while nbytes > 0:
            sizes.append(min(nbytes, self.sdu_bytes))
            nbytes -= self.sdu_bytes
        return sizes


def on_congestion_signal(source, fraction, now):
    """Cut the rate by ``fraction / 2``, at most once per RTT window;
    returns the new rate.  A fraction of 1.0 halves it exactly."""
    if now - source._last_reaction >= source.rtt_window:
        source.rate *= 1.0 - fraction / 2.0
        source._last_reaction = now
    return source.rate


def recover_rate(source):
    """Additive recovery, once per RTT window, up to the nominal rate."""
    source.rate = min(
        source.nominal_rate,
        source.rate + source.recovery_step * source.nominal_rate,
    )
    return source.rate
