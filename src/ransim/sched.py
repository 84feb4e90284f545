"""QoS classification, slice mapping, and the two-stage air-interface scheduler.

Stage 1 (``runtime.stage1_with_extras``) runs per slice at the slice's UP
site and turns buffer state into prioritized requests (priority = class
weight x head sojourn / latency budget).  Stage 2 runs centrally at the
OnPrem RRM each TTI and greedily allocates PRBs over all (RU, carrier)
pools of the RANF, which is what gives carrier aggregation across
distributed RUs.  Stage 2 issues downlink grants only; no uplink grants
are simulated.  Uplink is anchored to a single RANF by keeping every UE's
serving set inside its RANF (checked at set-up and handover), and the
runtime checks each RANF-TTI's grants with ``ul_anchor_check`` so that
none leaves the UE's RANF; either check firing is a bug, never a result.

Requests and grants are plain tuples: a stage-1 request is ``(-priority,
bearer_id, ue, slice, buffered_bytes)``, so sorting orders requests by
descending priority, ties by bearer id; a grant is ``(ue, bearer_id, ru,
carrier, prbs, bytes)``.  Stage 2 counts the free PRBs as it grants them
and stops once none is left.
"""

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

# Bytes stage 2 adds to each request's buffered bytes for headers.
DEMAND_OVERHEAD = 16


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


class PrbPools:
    """Per-(RU, carrier) PRB budgets for one TTI."""

    def __init__(self, pools):
        # pools: dict (ru, carrier) -> (prbs, bytes_per_prb)
        self.free = {k: v[0] for k, v in pools.items()}
        self.bytes_per_prb = {k: v[1] for k, v in pools.items()}
        self.total = dict(self.free)
        self.total_prbs = sum(self.total.values())
        # Leftover order: best spectral efficiency first, ties by key.
        self.by_efficiency = sorted(self.free,
                                    key=lambda k: (-self.bytes_per_prb[k], k))

    def fresh(self):
        """Full pools of the same shape; the read-only parts are shared."""
        pools = PrbPools.__new__(PrbPools)
        pools.free = dict(self.total)
        pools.bytes_per_prb = self.bytes_per_prb
        pools.total = self.total
        pools.total_prbs = self.total_prbs
        pools.by_efficiency = self.by_efficiency
        return pools

    def take(self, key, prbs):
        avail = self.free.get(key, 0)
        got = min(avail, prbs)
        self.free[key] = avail - got
        return got


def stage2_allocate(requests, pools, resources_for, min_share=None):
    """Greedy central allocation by descending priority, ties by bearer id.

    ``requests`` are stage-1 request tuples; bearer ids are unique within
    one call, so plain tuple order is the priority order.  Returns grant
    tuples.  ``resources_for(request)`` returns the (ru, carrier) keys the
    request's UE may use, in deterministic order (its serving set within
    one RANF); the sequence is only read.  A request may be filled from
    several pools in one TTI (carrier aggregation).  ``min_share``
    optionally maps slice id -> fraction of total PRBs reserved while that
    slice has demand.

    Once no PRB is free, the requests still to come stay unmet without a
    ``resources_for`` call, and the leftover pass and the work-conservation
    check are skipped: neither can act on empty pools.

    Leftover rule: each pool still free afterwards, best bytes per PRB first
    (ties by key), goes whole to the first request in priority order that
    can use it and still has unmet demand, or else to the first that can
    use it at all.
    """
    grants = []
    order = sorted(requests)
    free = pools.free
    left = sum(free.values())  # free PRBs over all pools
    bytes_per_prb = pools.bytes_per_prb

    reserved = {}
    if min_share:
        total_prbs = pools.total_prbs
        demand_slices = {r[3] for r in requests}
        for sl, frac in min_share.items():
            if sl in demand_slices:
                reserved[sl] = int(total_prbs * frac)

    keys_of = []  # parallel to ``order``
    remaining = []  # unmet byte demand, parallel to ``order``
    for req in order:
        if not left:
            return grants
        _, bearer_id, ue, slice_id, buffered = req
        keys = resources_for(req)
        keys_of.append(keys)
        demand = buffered + DEMAND_OVERHEAD
        # Honor reservations of other slices: hold back PRBs still owed to
        # them.  Only this request's own slice entry changes below.
        holdback = reserved and sum(v for sl, v in reserved.items()
                                    if sl != slice_id)
        for key in keys:
            if demand <= 0:
                break
            bpp = bytes_per_prb[key]
            want = -(-demand // bpp)  # ceil
            avail = free[key]
            if holdback:
                avail = max(0, min(avail, left - holdback))
            got = min(want, avail)
            if got == 0:
                continue
            free[key] -= got
            left -= got
            nbytes = got * bpp
            grants.append((ue, bearer_id, key[0], key[1], got, nbytes))
            demand -= nbytes
            if slice_id in reserved:
                reserved[slice_id] = max(0, reserved[slice_id] - got)
        remaining.append(max(0, demand))
    if not left:
        return grants

    # Leftovers, by the rule in the docstring.
    for key in pools.by_efficiency:
        got = free[key]
        if got <= 0:
            continue
        pick = None
        for i, keys in enumerate(keys_of):
            if key in keys:
                if remaining[i] > 0:
                    pick = i
                    break
                if pick is None:
                    pick = i
        if pick is None:
            continue
        req = order[pick]
        free[key] = 0
        nbytes = got * bytes_per_prb[key]
        grants.append((req[2], req[1], key[0], key[1], got, nbytes))
        remaining[pick] = max(0, remaining[pick] - nbytes)

    # Work conservation: an unmet request alongside a free compatible PRB is a bug.
    for req, keys, unmet in zip(order, keys_of, remaining):
        if unmet > 0:
            for key in keys:
                if free.get(key, 0) > 0:
                    raise ModelError(
                        f"work conservation violated: request {req[1]} "
                        f"unmet with {key} free"
                    )
    return grants


class UlAnchorViolation(ModelError):
    """A grant crossed RANF boundaries (scheduler bug in 6G mode)."""


def ul_anchor_check(grants, ru_to_ranf, ues):
    """Raise if a grant targets an RU outside its UE's RANF.  ``ues`` maps
    UE ids to contexts with a ``ranf``; ``ru_to_ranf`` maps RUs to RANFs."""
    for ue, _bearer_id, ru, _carrier, _prbs, _bytes in grants:
        ranf = ru_to_ranf.get(ru)
        own = ues[ue].ranf
        if ranf != own:
            raise UlAnchorViolation(
                f"grant for UE {ue} targets RU {ru} of RANF {ranf}, "
                f"but the UE is anchored to RANF {own}")
