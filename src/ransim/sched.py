"""QoS classification, slice mapping, and the two-stage air-interface scheduler.

Stage 1 runs per slice at the slice's UP site and turns buffer state into
prioritized requests (priority = class weight x head sojourn / latency
budget).  Stage 2 runs centrally at the OnPrem RRM each TTI and greedily
allocates PRBs over all (RU, carrier) pools of the RANF, which is what
gives carrier aggregation across distributed RUs.  Uplink is anchored to a
single RANF; inter-RANF resource use is a bug by construction.
"""

from dataclasses import dataclass, field

from .core import ConfigError, ModelError, US_PER_MS

MISSION_CRITICAL = "MissionCritical"
MODERATE = "Moderate"

SLICE_I = "I"
SLICE_II = "II"

# Requirement ranges per class (latency in us, reliability as probability).
MC_LATENCY_MIN = 100  # 0.1 ms
MC_LATENCY_MAX = 10_000  # 10 ms
MC_RELIABILITY_MAX = 1 - 1e-10
MOD_LATENCY_MAX = 1_100_000  # 1100 ms

# Latency budget used for urgency normalization (class upper bound).
CLASS_LATENCY_BUDGET = {MISSION_CRITICAL: MC_LATENCY_MAX, MODERATE: MOD_LATENCY_MAX}

DEFAULT_CLASS_WEIGHTS = {MISSION_CRITICAL: 100.0, MODERATE: 1.0}


class QosUnsatisfiable(ConfigError):
    """Requirements stricter than the mission-critical class bounds."""


def classify_qos(latency_req, reliability_req):
    """Map (latency, reliability) requirements to a (class, slice) pair.

    Anything needing latency below 20 ms or reliability above 1-1e-7 is
    mission critical and lands in slice I; the rest is moderate, slice II.
    The unassigned 10-20 ms band resolves to the stricter class.
    """
    if latency_req <= 0 or not (0 < reliability_req < 1):
        raise ConfigError(
            f"invalid QoS requirement: latency={latency_req}us "
            f"reliability={reliability_req}"
        )
    if latency_req < MC_LATENCY_MIN:
        raise QosUnsatisfiable(
            f"latency requirement {latency_req}us below the {MC_LATENCY_MIN}us floor"
        )
    if reliability_req > MC_RELIABILITY_MAX:
        raise QosUnsatisfiable(
            f"reliability requirement {reliability_req} above {MC_RELIABILITY_MAX}"
        )
    if latency_req > MOD_LATENCY_MAX:
        raise QosUnsatisfiable(
            f"latency requirement {latency_req}us beyond the supported "
            f"{MOD_LATENCY_MAX}us ceiling"
        )
    if latency_req < 20 * US_PER_MS or reliability_req > 1 - 1e-7:
        return MISSION_CRITICAL, SLICE_I
    return MODERATE, SLICE_II


@dataclass
class SliceProfile:
    id: str
    admitted_classes: set
    placement_policy: dict = field(default_factory=dict)  # fn kind -> site kind

    def admits(self, qos_class):
        return qos_class in self.admitted_classes


def default_slice_profiles():
    return {
        SLICE_I: SliceProfile(SLICE_I, {MISSION_CRITICAL, MODERATE}),
        SLICE_II: SliceProfile(SLICE_II, {MODERATE}),
    }


class SchedulingRequest:
    __slots__ = ("bearer_id", "ue", "slice", "buffered_bytes", "head_sojourn",
                 "priority", "is_retx")

    def __init__(self, bearer_id, ue, slice_id, buffered_bytes, head_sojourn,
                 priority):
        self.bearer_id = bearer_id
        self.ue = ue
        self.slice = slice_id
        self.buffered_bytes = buffered_bytes
        self.head_sojourn = head_sojourn
        self.priority = priority
        self.is_retx = False


class Grant:
    __slots__ = ("ue", "bearer_id", "ru", "carrier", "prbs", "bytes", "tti",
                 "direction")

    def __init__(self, ue, bearer_id, ru, carrier, prbs, nbytes, tti, direction="DL"):
        self.ue = ue
        self.bearer_id = bearer_id
        self.ru = ru
        self.carrier = carrier
        self.prbs = prbs
        self.bytes = nbytes
        self.tti = tti
        self.direction = direction

    def __repr__(self):
        return (f"Grant({self.direction} ue={self.ue} b={self.bearer_id} "
                f"ru={self.ru}/{self.carrier} prbs={self.prbs} tti={self.tti})")


def stage1_preprocess(bearers_with_buffers, now, class_weights=None):
    """Per-slice pre-processing: one request per non-empty bearer buffer.

    ``bearers_with_buffers`` is an iterable of (Bearer, TransmitBuffer).
    """
    weights = class_weights or DEFAULT_CLASS_WEIGHTS
    requests = []
    for bearer, buffer in bearers_with_buffers:
        if not buffer.queue:
            continue
        sojourn = buffer.head_sojourn(now)
        urgency = sojourn / bearer.latency_budget
        w = weights.get(bearer.qos_class, 1.0)
        requests.append(
            SchedulingRequest(
                bearer.id, bearer.ue, bearer.slice, buffer.bytes, sojourn,
                w * urgency,
            )
        )
    return requests


class PrbPools:
    """Per-(RU, carrier) PRB budgets for one TTI."""

    def __init__(self, pools):
        # pools: dict (ru, carrier) -> (prbs, bytes_per_prb)
        self.free = {k: v[0] for k, v in pools.items()}
        self.bytes_per_prb = {k: v[1] for k, v in pools.items()}
        self.total = dict(self.free)

    def take(self, key, prbs):
        avail = self.free.get(key, 0)
        got = min(avail, prbs)
        self.free[key] = avail - got
        return got

    def used(self):
        return {k: self.total[k] - self.free[k] for k in self.total}


def stage2_allocate(requests, tti, pools, resources_for, min_share=None,
                    demand_overhead=16):
    """Greedy central allocation by descending priority, ties by bearer id.

    ``resources_for(request)`` yields the (ru, carrier) keys the request's UE
    may use, in deterministic order (its serving set within one RANF).  A
    request may be filled from several pools in one TTI (carrier aggregation).
    ``min_share`` optionally maps slice id -> fraction of total PRBs reserved
    while that slice has demand.  Leftover PRBs go to the requester with the
    best spectral efficiency among those that can use them.
    """
    grants = []
    order = sorted(requests, key=lambda r: (-r.priority, r.bearer_id))

    reserved = {}
    if min_share:
        total_prbs = sum(pools.total.values())
        demand_slices = {r.slice for r in requests}
        for sl, frac in min_share.items():
            if sl in demand_slices:
                reserved[sl] = int(total_prbs * frac)

    keys_of = {req: list(resources_for(req)) for req in order}
    remaining = {}  # request -> unmet byte demand
    for req in order:
        demand = req.buffered_bytes + demand_overhead
        # Honor reservations of other slices: hold back PRBs still owed to them.
        for key in keys_of[req]:
            if demand <= 0:
                break
            bpp = pools.bytes_per_prb[key]
            want = -(-demand // bpp)  # ceil
            avail = pools.free.get(key, 0)
            holdback = sum(v for sl, v in reserved.items() if sl != req.slice)
            if holdback:
                total_free = sum(pools.free.values())
                avail = max(0, min(avail, total_free - holdback))
            got = pools.take(key, min(want, avail))
            if got == 0:
                continue
            nbytes = got * bpp
            grants.append(Grant(req.ue, req.bearer_id, key[0], key[1], got,
                                nbytes, tti))
            demand -= nbytes
            if req.slice in reserved:
                reserved[req.slice] = max(0, reserved[req.slice] - got)
        remaining[req] = max(0, demand)

    # Leftovers to the best-spectral-efficiency requester that can use them.
    for key in sorted(pools.free, key=lambda k: (-pools.bytes_per_prb[k], k)):
        free = pools.free[key]
        if free <= 0:
            continue
        takers = [r for r in order if key in keys_of[r]]
        if not takers:
            continue
        unmet = [r for r in takers if remaining.get(r, 0) > 0]
        req = min(unmet or takers, key=lambda r: (-r.priority, r.bearer_id))
        got = pools.take(key, free)
        grants.append(Grant(req.ue, req.bearer_id, key[0], key[1], got,
                            got * pools.bytes_per_prb[key], tti))
        remaining[req] = max(0, remaining.get(req, 0) - got * pools.bytes_per_prb[key])

    # Work conservation: an unmet request alongside a free compatible PRB is a bug.
    for req, unmet in remaining.items():
        if unmet > 0:
            for key in keys_of[req]:
                if pools.free.get(key, 0) > 0:
                    raise ModelError(
                        f"work conservation violated: request {req.bearer_id} "
                        f"unmet with {key} free"
                    )
    return grants


class UlAnchorViolation(ModelError):
    """A grant crossed RANF boundaries (scheduler bug in 6G mode)."""


def ul_anchor_check(ue, grants, ru_to_ranf, serving_ranf, strict=True):
    """Verify UL grants target one RANF and DL never leaves the serving RANF."""
    violations = []
    ul_ranfs = set()
    for g in grants:
        if g.ue != ue:
            continue
        ranf = ru_to_ranf.get(g.ru)
        if ranf != serving_ranf:
            violations.append(
                f"{g.direction} grant for {ue} targets RU {g.ru} of RANF {ranf}, "
                f"serving RANF is {serving_ranf}"
            )
        if g.direction == "UL":
            ul_ranfs.add(ranf)
    if len(ul_ranfs) > 1:
        violations.append(f"UL grants for {ue} span RANFs {sorted(ul_ranfs)}")
    if violations and strict:
        raise UlAnchorViolation("; ".join(violations))
    return violations
