from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ransim import sched, stack
from ransim.core import ModelError
from ransim.runtime import stage1_with_extras


# ---------------------------------------------------------------- QoS table

def test_qos_class_boundaries():
    # Inside mission-critical band.
    assert sched.classify_qos(5_000, 1 - 1e-9) == (sched.MISSION_CRITICAL, "I")
    # Moderate band.
    assert sched.classify_qos(100_000, 1 - 1e-5) == (sched.MODERATE, "II")
    # High reliability forces mission critical even at relaxed latency.
    assert sched.classify_qos(500_000, 1 - 1e-8) == (sched.MISSION_CRITICAL, "I")
    # 10-20 ms gap resolves to the stricter class.
    assert sched.classify_qos(15_000, 1 - 1e-5)[0] == sched.MISSION_CRITICAL


def test_qos_unsatisfiable():
    with pytest.raises(sched.QosUnsatisfiable):
        sched.classify_qos(50, 1 - 1e-9)  # below 0.1 ms floor
    with pytest.raises(sched.QosUnsatisfiable):
        sched.classify_qos(5_000, 1 - 1e-11)  # beyond reliability ceiling
    with pytest.raises(sched.QosUnsatisfiable):
        sched.classify_qos(2_000_000, 1 - 1e-5)  # beyond 1100 ms


# ---------------------------------------------------------------- stage 1

def test_stage1_priority_formula():
    mc = stack.Bearer("mc", "u", "I", 10_000, qos_class=sched.MISSION_CRITICAL)
    mod = stack.Bearer("mod", "u", "II", 1_100_000, qos_class=sched.MODERATE)
    weights = {sched.MISSION_CRITICAL: 100.0, sched.MODERATE: 1.0}
    # Each buffer holds one 100-byte PDU that arrived 1 ms ago.
    reqs = stage1_with_extras([(mc, 100, 1_000, 0), (mod, 100, 1_000, 0)],
                              weights)
    by_id = {bid: (-neg_prio, ue, sl, nbytes)
             for neg_prio, bid, ue, sl, nbytes in reqs}
    assert by_id["mc"][0] == pytest.approx(100.0 * 1_000 / 10_000)
    assert by_id["mod"][0] == pytest.approx(1.0 * 1_000 / 1_100_000)
    assert by_id["mc"][1:] == ("u", "I", 100)
    # Pending control or retransmission bytes add to the demand and make the
    # request urgent: +1.0 before weighting.  (The runtime skips bearers with
    # nothing to send before stage 1; test_runtime checks that filter.)
    [urgent] = stage1_with_extras([(mc, 100, 1_000, 30)], weights)
    assert urgent[4] == 130
    assert -urgent[0] == pytest.approx(100.0 * (1_000 / 10_000 + 1.0))


# ---------------------------------------------------------------- stage 2

def req(bid, ue, sl, nbytes, prio):
    return (-prio, bid, ue, sl, nbytes)


def grant_fields(g):
    ue, bid, ru, carrier, prbs, nbytes = g
    return SimpleNamespace(ue=ue, bearer_id=bid, ru=ru, carrier=carrier,
                           prbs=prbs, bytes=nbytes)


def test_stage2_priority_order_and_ca():
    pools = sched.PrbPools({("ru1", "c1"): (10, 100), ("ru2", "c2"): (10, 100)})
    reqs = [req("lo", "u1", "II", 1500, 1.0), req("hi", "u2", "I", 1500, 9.0)]
    grants = [grant_fields(g) for g in sched.stage2_allocate(
        reqs, pools, lambda r: [("ru1", "c1"), ("ru2", "c2")])]
    # High priority served first; demand spills across both pools (CA).
    first = [g for g in grants if g.bearer_id == "hi"]
    assert first and first[0].ru == "ru1"
    hi_bytes = sum(g.bytes for g in first)
    assert hi_bytes >= 1500
    assert sum(pools.free.values()) == 0  # leftovers all assigned


def test_stage2_deterministic_tiebreak():
    pools = sched.PrbPools({("ru1", "c1"): (10, 100)})
    reqs = [req("b", "u1", "I", 400, 5.0), req("a", "u2", "I", 400, 5.0)]
    grants = sched.stage2_allocate(reqs, pools, lambda r: [("ru1", "c1")])
    assert grants[0][1] == "a"


def test_stage2_min_slice_share_reservation():
    pools = sched.PrbPools({("ru1", "c1"): (10, 100)})
    reqs = [req("big", "u1", "II", 5_000, 9.0), req("mc", "u2", "I", 200, 1.0)]
    grants = sched.stage2_allocate(
        reqs, pools, lambda r: [("ru1", "c1")], min_share={"I": 0.2})
    mc_prbs = sum(prbs for _, bid, _, _, prbs, _ in grants if bid == "mc")
    assert mc_prbs >= 2  # reservation honored despite lower priority


def test_stage2_leftover_goes_to_best_spectral_efficiency():
    pools = sched.PrbPools({("ru1", "hi"): (10, 200), ("ru1", "lo"): (10, 50)})
    reqs = [req("only", "u1", "II", 100, 1.0)]
    grants = sched.stage2_allocate(reqs, pools,
                                   lambda r: [("ru1", "hi"), ("ru1", "lo")])
    # Entire capacity ends up granted (work conservation with one requester).
    assert sum(pools.free.values()) == 0
    assert grants[0][3] == "hi"


def reference_stage2_allocate(requests, pools, resources_for,
                              min_share=None, demand_overhead=16):
    """Test-only reference allocator: the plain form of ``stage2_allocate``,
    with dicts keyed by request and a min() over the takers of each leftover
    pool."""
    grants = []
    order = sorted(requests, key=lambda r: (r[0], r[1]))

    reserved = {}
    if min_share:
        total_prbs = sum(pools.total.values())
        demand_slices = {r[3] for r in requests}
        for sl, frac in min_share.items():
            if sl in demand_slices:
                reserved[sl] = int(total_prbs * frac)

    keys_of = {req: list(resources_for(req)) for req in order}
    remaining = {}  # request -> unmet byte demand
    for req in order:
        demand = req[4] + demand_overhead
        for key in keys_of[req]:
            if demand <= 0:
                break
            bpp = pools.bytes_per_prb[key]
            want = -(-demand // bpp)  # ceil
            avail = pools.free.get(key, 0)
            holdback = sum(v for sl, v in reserved.items() if sl != req[3])
            if holdback:
                total_free = sum(pools.free.values())
                avail = max(0, min(avail, total_free - holdback))
            got = pools.take(key, min(want, avail))
            if got == 0:
                continue
            nbytes = got * bpp
            grants.append((req[2], req[1], key[0], key[1], got, nbytes))
            demand -= nbytes
            if req[3] in reserved:
                reserved[req[3]] = max(0, reserved[req[3]] - got)
        remaining[req] = max(0, demand)

    for key in sorted(pools.free, key=lambda k: (-pools.bytes_per_prb[k], k)):
        free = pools.free[key]
        if free <= 0:
            continue
        takers = [r for r in order if key in keys_of[r]]
        if not takers:
            continue
        unmet = [r for r in takers if remaining.get(r, 0) > 0]
        req = min(unmet or takers, key=lambda r: (r[0], r[1]))
        got = pools.take(key, free)
        grants.append((req[2], req[1], key[0], key[1], got,
                       got * pools.bytes_per_prb[key]))
        remaining[req] = max(0, remaining.get(req, 0)
                             - got * pools.bytes_per_prb[key])

    for req, unmet in remaining.items():
        if unmet > 0:
            for key in keys_of[req]:
                if pools.free.get(key, 0) > 0:
                    raise ModelError(
                        f"work conservation violated: request {req[1]} "
                        f"unmet with {key} free"
                    )
    return grants


POOL_KEYS = [(ru, c) for ru in ("ru1", "ru2") for c in ("a", "b")]


@st.composite
def stage2_inputs(draw):
    keys = draw(st.lists(st.sampled_from(POOL_KEYS), min_size=1,
                         unique=True))
    pool_map = {k: (draw(st.integers(0, 30)), draw(st.integers(1, 300)))
                for k in keys}
    n = draw(st.integers(0, 6))
    requests, keys_of = [], {}
    for i in draw(st.permutations(range(n))):
        bid = f"b{i}"
        requests.append(req(bid, f"u{draw(st.integers(0, 3))}",
                            draw(st.sampled_from(["I", "II"])),
                            draw(st.integers(0, 4_000)),
                            draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))))
        # Some requests may use no pool at all (UE not resumed yet).
        keys_of[bid] = draw(st.lists(st.sampled_from(keys), unique=True))
    min_share = draw(st.none() | st.dictionaries(
        st.sampled_from(["I", "II", "III"]),
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0])))
    return pool_map, requests, keys_of, min_share


def outcome(allocate, pool_map, requests, keys_of, min_share):
    pools = sched.PrbPools(pool_map)
    try:
        grants = allocate(list(requests), pools,
                          lambda r: keys_of[r[1]], min_share=min_share)
    except ModelError as exc:
        return "error", str(exc), pools.free
    return grants, pools.free


EXAMPLE_KEYS = [("ru1", "a"), ("ru2", "a")]


@settings(max_examples=300, deadline=None)
@given(stage2_inputs())
# Every pool starts empty: stage 2 stops before the first request.
@example(({("ru1", "a"): (0, 100), ("ru2", "a"): (0, 50)},
          [req("b0", "u0", "I", 500, 3.0), req("b1", "u1", "II", 0, 0.0)],
          {"b0": EXAMPLE_KEYS, "b1": EXAMPLE_KEYS[1:]}, None))
# The pools run out part-way: b1 and b2 empty them, b0 and b3 come after.
@example(({("ru1", "a"): (4, 100), ("ru2", "a"): (3, 50)},
          [req("b0", "u0", "I", 900, 0.5), req("b1", "u1", "II", 300, 3.0),
           req("b2", "u2", "I", 2_000, 1.0), req("b3", "u3", "II", 10, 0.0)],
          {"b0": EXAMPLE_KEYS, "b1": EXAMPLE_KEYS[:1], "b2": EXAMPLE_KEYS,
           "b3": EXAMPLE_KEYS[1:]}, {"II": 0.25}))
def test_stage2_matches_reference_allocator(inputs):
    """Same grants, same free PRBs and the same error as the reference, on
    random pools, requests with priority ties, key lists (some empty) and
    slice shares, and on pools that are empty from the start or run out
    before the last request."""
    assert outcome(sched.stage2_allocate, *inputs) \
        == outcome(reference_stage2_allocate, *inputs)


def test_ul_anchor_check_detects_cross_ranf():
    """One call checks a whole TTI's grants, each against its own UE."""
    ru_to_ranf = {"ru1": "A", "ru2": "B"}
    ues = {"u1": SimpleNamespace(ranf="A"), "u2": SimpleNamespace(ranf="B")}
    ok = [("u1", "b", "ru1", "c", 1, 0), ("u2", "b2", "ru2", "c", 1, 0)]
    assert sched.ul_anchor_check(ok, ru_to_ranf, ues) is None
    bad = ok + [("u2", "b2", "ru1", "c", 1, 0)]
    with pytest.raises(sched.UlAnchorViolation,
                       match="UE u2 targets RU ru1 of RANF A.*RANF B"):
        sched.ul_anchor_check(bad, ru_to_ranf, ues)
