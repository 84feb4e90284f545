import pytest

from ransim import sched, stack
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
    bmc = stack.TransmitBuffer("mc")
    bmod = stack.TransmitBuffer("mod")
    bmc.push(stack.PdcpPdu(0, 100, 0))
    bmod.push(stack.PdcpPdu(0, 100, 0))
    weights = {sched.MISSION_CRITICAL: 100.0, sched.MODERATE: 1.0}
    reqs = stage1_with_extras([(mc, bmc, 0), (mod, bmod, 0)], 1_000, weights)
    by_id = {r.bearer_id: r for r in reqs}
    assert by_id["mc"].priority == pytest.approx(100.0 * 1_000 / 10_000)
    assert by_id["mod"].priority == pytest.approx(1.0 * 1_000 / 1_100_000)
    assert by_id["mc"].buffered_bytes == 100
    # Pending control or retransmission bytes add to the demand and make the
    # request urgent: +1.0 before weighting.  (The runtime skips bearers with
    # nothing to send before stage 1; test_runtime checks that filter.)
    [urgent] = stage1_with_extras([(mc, bmc, 30)], 1_000, weights)
    assert urgent.buffered_bytes == 130
    assert urgent.priority == pytest.approx(100.0 * (1_000 / 10_000 + 1.0))


# ---------------------------------------------------------------- stage 2

def req(bid, ue, sl, nbytes, prio):
    return sched.SchedulingRequest(bid, ue, sl, nbytes, 0, prio)


def test_stage2_priority_order_and_ca():
    pools = sched.PrbPools({("ru1", "c1"): (10, 100), ("ru2", "c2"): (10, 100)})
    reqs = [req("lo", "u1", "II", 1500, 1.0), req("hi", "u2", "I", 1500, 9.0)]
    grants = sched.stage2_allocate(
        reqs, 1, pools, lambda r: [("ru1", "c1"), ("ru2", "c2")])
    # High priority served first; demand spills across both pools (CA).
    first = [g for g in grants if g.bearer_id == "hi"]
    assert first and first[0].ru == "ru1"
    hi_bytes = sum(g.bytes for g in first)
    assert hi_bytes >= 1500
    assert sum(pools.free.values()) == 0  # leftovers all assigned


def test_stage2_deterministic_tiebreak():
    pools = sched.PrbPools({("ru1", "c1"): (10, 100)})
    reqs = [req("b", "u1", "I", 400, 5.0), req("a", "u2", "I", 400, 5.0)]
    grants = sched.stage2_allocate(reqs, 1, pools, lambda r: [("ru1", "c1")])
    assert grants[0].bearer_id == "a"


def test_stage2_min_slice_share_reservation():
    pools = sched.PrbPools({("ru1", "c1"): (10, 100)})
    reqs = [req("big", "u1", "II", 5_000, 9.0), req("mc", "u2", "I", 200, 1.0)]
    grants = sched.stage2_allocate(
        reqs, 1, pools, lambda r: [("ru1", "c1")], min_share={"I": 0.2})
    mc_prbs = sum(g.prbs for g in grants if g.bearer_id == "mc")
    assert mc_prbs >= 2  # reservation honored despite lower priority


def test_stage2_leftover_goes_to_best_spectral_efficiency():
    pools = sched.PrbPools({("ru1", "hi"): (10, 200), ("ru1", "lo"): (10, 50)})
    reqs = [req("only", "u1", "II", 100, 1.0)]
    grants = sched.stage2_allocate(reqs, 1, pools,
                                   lambda r: [("ru1", "hi"), ("ru1", "lo")])
    # Entire capacity ends up granted (work conservation with one requester).
    assert sum(pools.free.values()) == 0
    assert grants[0].carrier == "hi"


def test_ul_anchor_check_detects_cross_ranf():
    ru_to_ranf = {"ru1": "A", "ru2": "B"}
    ok = [sched.Grant("u1", "b", "ru1", "c", 1, 0, 1, "UL")]
    assert sched.ul_anchor_check("u1", ok, ru_to_ranf, "A") == []
    bad = ok + [sched.Grant("u1", "b", "ru2", "c", 1, 0, 1, "UL")]
    with pytest.raises(sched.UlAnchorViolation):
        sched.ul_anchor_check("u1", bad, ru_to_ranf, "A")
    # Non-strict mode reports instead of raising.
    v = sched.ul_anchor_check("u1", bad, ru_to_ranf, "A", strict=False)
    assert len(v) >= 1
