"""Acceptance suite: one test per shipped acceptance criterion.

Each test prints a single ``PASS  criterion NN`` line once its assertions
hold, so `pytest -v -s tests/test_acceptance.py` reads as a checklist.
Tolerances are pinned inline next to the assertion they guard.
"""

import collections
import copy
import json
import math
import os
import time

import pytest

from ransim import config as cfgmod
from ransim import orchestrate as orch
from ransim import radio, sched, stack
from ransim import topology as topo
from ransim.core import RngRegistry
from ransim.runtime import Runtime, run_scenario
from energy_oracle import record_transitions, replay_energy

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
TTI = 500


def _ok(n, text):
    print(f"PASS  criterion {n:>2}: {text}")


def load_scenario(name):
    import yaml
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        return cfgmod.validate_scenario(yaml.safe_load(fh))


def build(raw):
    return cfgmod.validate_scenario(copy.deepcopy(raw))


# --------------------------------------------------------------------------
# Shared scenario builders
# --------------------------------------------------------------------------

def single_cell_raw(**top):
    raw = {
        "seed": 5,
        "duration_us": 1_000_000,
        "tti_us": TTI,
        "sites": [{"id": "cell-a", "kind": "OnPrem", "cpu_capacity": 100}],
        "carriers": [{"id": "c1", "prbs_per_tti": 50, "bytes_per_prb": 100}],
        "rus": [{"id": "ru1", "site": "cell-a", "carriers": ["c1"],
                 "fronthaul_latency_us": 50}],
        "ranfs": [{"id": "rf-a", "site": "cell-a", "rus": ["ru1"],
                   "neighbors": []}],
        "slices": [{"id": "II"}],
        "placement": [
            {"id": "rrm", "kind": "RRM", "site": "cell-a"},
            {"id": "fhm1", "kind": "FHM", "site": "cell-a", "bound_ru": "ru1"},
            {"id": "rrc2", "kind": "RRC", "site": "cell-a", "slice": "II"},
            {"id": "up2", "kind": "UP", "site": "cell-a", "slice": "II"},
            {"id": "phy2", "kind": "PHY", "site": "cell-a", "slice": "II"},
        ],
        "ues": [{"id": "u1", "ranf": "rf-a"}],
        "bearers": [{
            "id": "b1", "ue": "u1", "latency_req_us": 100_000,
            "reliability_req": 0.999,
            "traffic": {"pattern": "ConstantBitRate",
                        "rate_bytes_per_s": 1_000_000, "sdu_bytes": 500},
        }],
    }
    raw.update(top)
    return raw


# --------------------------------------------------------------------------
# 1. QoS / slice mapping table
# --------------------------------------------------------------------------

def test_criterion_01_qos_slice_mapping_table():
    t0 = time.monotonic()
    # Anchor points called out explicitly by the criterion (0 tolerance).
    assert sched.classify_qos(5_000, 1 - 1e-9) == ("MissionCritical", "I")
    assert sched.classify_qos(100_000, 1 - 1e-5) == ("Moderate", "II")
    with pytest.raises(sched.QosUnsatisfiable):
        sched.classify_qos(50, 1 - 1e-5)  # 0.05 ms: below feasible latency
    # Full rule table: latency below 20 ms or reliability above 1-1e-7 is
    # mission critical; the 10-20 ms band resolves strict; everything else
    # is moderate; infeasible corners reject.
    table = [
        (19_999, 1 - 1e-5, ("MissionCritical", "I")),
        (20_000, 1 - 1e-5, ("Moderate", "II")),
        (500_000, 1 - 1e-8, ("MissionCritical", "I")),
        (500_000, 1 - 1e-7, ("Moderate", "II")),
        (10_000, 0.9, ("MissionCritical", "I")),
        (1_100_000, 0.9, ("Moderate", "II")),
    ]
    for lat, rel, want in table:
        assert sched.classify_qos(lat, rel) == want, (lat, rel)
    for lat, rel in [(99, 0.9), (1_100_001, 0.9), (500_000, 1 - 1e-11)]:
        with pytest.raises(sched.QosUnsatisfiable):
            sched.classify_qos(lat, rel)
    assert time.monotonic() - t0 < 1.0
    _ok(1, "QoS rule table exact, runtime < 1 s")


# --------------------------------------------------------------------------
# 2. Placement rules
# --------------------------------------------------------------------------

def _placement_fixture():
    cell = topo.Site("cell-a", topo.ONPREM)
    edge = topo.Site("edge-1", topo.FAREDGE)
    cell.link_latency_to["edge-1"] = 2000
    edge.link_latency_to["cell-a"] = 2000
    ru = topo.RadioUnit("ru1", "cell-a", ["c1"], fronthaul_latency=50)
    ranf = topo.Ranf("rf-a", "cell-a", {"ru1"})
    return topo.Topology([cell, edge], [ru], [ranf])


def _valid_instances():
    return [
        topo.FunctionInstance("rrm", topo.RRM, "cell-a"),
        topo.FunctionInstance("fhm1", topo.FHM, "cell-a", bound_ru="ru1"),
        topo.FunctionInstance("cpr", topo.CP_ROUTING, "edge-1"),
        topo.FunctionInstance("rrc", topo.RRC, "cell-a", slice="I"),
        topo.FunctionInstance("up", topo.UP, "cell-a", slice="I"),
        topo.FunctionInstance("phy", topo.PHY, "cell-a", slice="I"),
    ]


def test_criterion_02_placement_rules():
    t = _placement_fixture()
    assert topo.validate_placement(topo.PlacementPlan(_valid_instances()),
                                   t) == []
    # One case per function kind at the wrong site kind, plus the two
    # cardinality rules the figure encodes.
    cases = [
        ("rrm", dict(site="edge-1"), "RRM"),
        ("cpr", dict(site="cell-a"), "CpRouting"),
        ("fhm1", dict(site="edge-1"), "FHM"),
        ("rrc", dict(site=None), "exactly one RRC"),      # removed
        ("up", dict(site=None), "missing UP"),            # removed
        ("phy", dict(site=None), "PHY"),                  # removed
    ]
    for inst_id, change, needle in cases:
        insts = _valid_instances()
        if change["site"] is None:
            insts = [i for i in insts if i.id != inst_id]
        else:
            for i in insts:
                if i.id == inst_id:
                    i.site = change["site"]
        v = topo.validate_placement(topo.PlacementPlan(insts), t)
        assert v, f"{inst_id}: expected a violation"
        assert any(needle in x for x in v), (inst_id, v)
    # The shipped two-slice example validates cleanly end to end.
    rt = Runtime(load_scenario("smoke.yaml"))
    assert topo.validate_placement(rt.plan, rt.topology) == []
    _ok(2, "six wrong-site cases flagged; shipped scenario validates clean")


# --------------------------------------------------------------------------
# 3. Latency budgets in the shipped scenario
# --------------------------------------------------------------------------

LATENCY_REPORT = {}


def test_criterion_03_latency_budgets():
    cfg = load_scenario("latency-budgets.yaml")
    t0 = time.monotonic()
    report = run_scenario(cfg)
    wall = time.monotonic() - t0
    LATENCY_REPORT.update(report)
    sdus = sum(b["packets_in"] for b in report["bearers"].values())
    assert sdus >= 100_000, sdus
    p100_i = report["bearers"]["b-slice-i"]["latency_us"]["p100"]
    p100_ii = report["bearers"]["b-slice-ii"]["latency_us"]["p100"]
    assert p100_i <= 10_000, p100_i          # Slice I budget 10 ms
    assert p100_ii <= 1_100_000, p100_ii     # Slice II budget 1100 ms
    assert wall < 60.0, wall
    _ok(3, f"{sdus} SDUs: Slice I p100={p100_i} us <= 10 ms, "
           f"Slice II p100={p100_ii} us <= 1100 ms, wall {wall:.1f}s < 60s")


# --------------------------------------------------------------------------
# 4. HARQ residual failure rate
# --------------------------------------------------------------------------

def test_criterion_04_harq_residual_rate():
    n, bler, max_tx = 100_000, 0.5, 4
    expected = bler ** max_tx                      # analytic oracle: 0.0625
    sigma = math.sqrt(expected * (1 - expected) / n)
    rng = RngRegistry(99).stream("harq-accept")
    bmap = radio.BlerMap(default=bler)
    failures = 0
    for _ in range(n):
        proc = stack.HarqProcess(object(), 0, ("ru1", "c1"), 1, None)
        while True:
            success = radio.transmit("u1", ["ru1"], "c1", bmap, rng)
            outcome = stack.harq_on_feedback(proc, success, max_tx)
            if outcome == stack.HARQ_ACKED:
                break
            if outcome == stack.HARQ_FAILED:
                failures += 1
                break
            assert outcome == stack.HARQ_RETRANSMIT
    rate = failures / n
    assert abs(rate - expected) < 3 * sigma, (rate, expected, sigma)
    _ok(4, f"TB failure rate {rate:.5f} vs p^max_tx={expected} "
           f"(3 sigma = {3 * sigma:.5f})")


# --------------------------------------------------------------------------
# 5. Drop-indication benefit
# --------------------------------------------------------------------------

def _overload_raw(drop_indication):
    raw = single_cell_raw(seed=21, duration_us=700_000,
                          drop_indication=drop_indication,
                          t_reordering_us=20_000)
    raw["carriers"] = [{"id": "c1", "prbs_per_tti": 10, "bytes_per_prb": 100}]
    raw["bler"] = {"default": 0.0}
    raw["bearers"][0]["traffic"] = {
        "pattern": "ConstantBitRate", "rate_bytes_per_s": 3_000_000,
        "sdu_bytes": 1000, "stop_us": 200_000,
    }
    return raw


def test_criterion_05_drop_indication_benefit():
    with_ind = run_scenario(build(_overload_raw(True)))
    without = run_scenario(build(_overload_raw(False)))
    b_on = with_ind["bearers"]["b1"]
    b_off = without["bearers"]["b1"]
    assert b_on["aqm_drops"] > 0 and b_off["aqm_drops"] > 0
    # With indication every gap closes as soon as the next TB lands.
    stalls_on = [s for _, s in b_on["reorder_stalls"]]
    assert all(s <= TTI for s in stalls_on), stalls_on
    # Without indication the receiver sits on t_reordering for the first
    # stashed successor of each drop burst.
    stalls_off = [s for _, s in b_off["reorder_stalls"]]
    assert stalls_off, "expected reorder stalls without indications"
    assert abs(max(stalls_off) - 20_000) <= TTI, max(stalls_off)
    # Congestion signal reaches the source earlier with the indication.
    echo_on = with_ind["drop_echo_times"]["b1"]
    echo_off = without["drop_echo_times"]["b1"]
    gain = echo_off - echo_on
    assert gain >= 20_000 - 2 * TTI, gain
    _ok(5, f"stall with ind <= 1 TTI, without = {max(stalls_off)} us "
           f"(~20 ms), signal earlier by {gain} us >= {20_000 - 2 * TTI}")


# --------------------------------------------------------------------------
# 6. Split-baseline overhead
# --------------------------------------------------------------------------

def test_criterion_06_split_baseline_overhead():
    base = single_cell_raw(seed=31)
    rt6 = Runtime(build(base))
    rt6.run()
    lat6 = rt6.metrics.bearers["b1"].latencies  # ascending

    p99s = []
    for d_f1 in (0, 1000, 2000):
        raw = single_cell_raw(seed=31, mode="split_baseline",
                              split={"d_f1_us": d_f1, "credit_bytes": None})
        rts = Runtime(build(raw))
        report = rts.run()
        p99s.append(report["bearers"]["b1"]["latency_us"]["p99"])
        if d_f1 == 0:
            lat_split = rts.metrics.bearers["b1"].latencies
            assert len(lat_split) == len(lat6)
            worst = max(abs(a - b) for a, b in zip(lat6, lat_split))
            assert worst <= TTI, worst   # d_f1=0 matches 6G within 1 TTI
    assert p99s[0] < p99s[1] < p99s[2], p99s
    _ok(6, f"d_f1=0 matches 6G per-packet within 1 TTI; "
           f"p99 strictly increases with d_f1: {p99s}")


# --------------------------------------------------------------------------
# 7. Conservation & in-order duplicate-free delivery
# --------------------------------------------------------------------------

def test_criterion_07_conservation_and_delivery():
    # finalize_conservation raises on any imbalance, so a completed run is
    # itself the conservation check; assert the recorded ledgers anyway.
    reports = [run_scenario(load_scenario("smoke.yaml"))]
    if LATENCY_REPORT:
        reports.append(LATENCY_REPORT)
    for report in reports:
        for bid, c in report["conservation"].items():
            assert c["holds"], (bid, c)
            assert c["packets_in"] == (c["delivered"] + c["aqm_drops"]
                                       + c["residual"]
                                       + c["in_flight_at_end"]), (bid, c)
        for bid, b in report["bearers"].items():
            assert b["duplicates"] == 0, bid
            # Reliable mode with unlimited RLC retx leaves nothing behind.
            assert b["residual"] == 0, bid
    _ok(7, "packets_in == delivered + aqm_drops + residual + in_flight; "
           "duplicate-free; reliable-mode residual == 0")


# --------------------------------------------------------------------------
# 8. D-MIMO product model and monotonicity
# --------------------------------------------------------------------------

def test_criterion_08_dmimo_product_and_monotonicity():
    n = 1_000_000
    bmap = radio.BlerMap(default=0.1)
    rng = RngRegistry(123).stream("dmimo-accept")
    expected = 0.1 * 0.1
    sigma = math.sqrt(expected * (1 - expected) / n)
    fails = 0
    for _ in range(n):
        ok = radio.transmit("u1", ["ru1", "ru2"], "c1", bmap, rng)
        fails += not ok
    rate2 = fails / n
    assert abs(rate2 - expected) < 3 * sigma, (rate2, sigma)

    # Adding an RU never increases the measured failure rate (3 sigma).
    m = 200_000
    rates = []
    for rus in (["ru1"], ["ru1", "ru2"], ["ru1", "ru2", "ru3"]):
        f = 0
        for _ in range(m):
            ok = radio.transmit("u1", rus, "c1", bmap, rng)
            f += not ok
        rates.append(f / m)
    guard = 3 * math.sqrt(0.1 * 0.9 / m)
    assert rates[1] <= rates[0] + guard and rates[2] <= rates[1] + guard, rates
    _ok(8, f"joint {{0.1,0.1}} failure {rate2:.5f} ~ 0.01 "
           f"(3 sigma {3 * sigma:.5f}); monotone rates {rates}")


# --------------------------------------------------------------------------
# 9. CA / UL anchoring
# --------------------------------------------------------------------------

def test_criterion_09_ul_anchor():
    # Positive: the anchor checks cannot be turned off, so the per-TTI check
    # of the grants, or the serving-set check at set-up and handover,
    # raising would have failed every run in this suite.  No key disables
    # them.
    with pytest.raises(cfgmod.SchemaErrors, match="strict_anchor"):
        build(single_cell_raw(strict_anchor=False))
    ues = {"u1": Runtime(build(single_cell_raw())).ues["u1"]}
    ru_to_ranf = {"ru1": "rf-a", "ru-b": "rf-b"}
    own = ("u1", "b1", "ru1", "c1", 2, 200)  # (ue, bearer, ru, carrier, ...)
    sched.ul_anchor_check([own], ru_to_ranf, ues)
    # Negative: a corrupted scheduler output with a grant on another RANF's
    # RU trips the assertion.
    foreign = ("u1", "b1", "ru-b", "c1", 2, 200)
    with pytest.raises(sched.UlAnchorViolation,
                       match="UE u1 targets RU ru-b of RANF rf-b.*RANF rf-a"):
        sched.ul_anchor_check([own, foreign], ru_to_ranf, ues)
    _ok(9, "anchor checks always on; a grant on a foreign RANF's RU raises")


# --------------------------------------------------------------------------
# 10. Handover losslessness
# --------------------------------------------------------------------------

def _handover_raw():
    return {
        "seed": 9,
        "duration_us": 300_000,
        "tti_us": TTI,
        "handover_interruption_us": 5_000,
        "cn_entry_site": "cell-a",
        "sites": [
            {"id": "cell-a", "kind": "OnPrem", "cpu_capacity": 100},
            {"id": "cell-b", "kind": "OnPrem", "cpu_capacity": 100},
        ],
        "links": [{"a": "cell-a", "b": "cell-b", "latency_us": 3000}],
        # wide enough that the forwarded un-ACKed window plus fresh data fit
        # in the first post-resume TTI
        "carriers": [{"id": "c1", "prbs_per_tti": 30, "bytes_per_prb": 100}],
        "rus": [
            {"id": "ru-a", "site": "cell-a", "carriers": ["c1"],
             "fronthaul_latency_us": 50},
            {"id": "ru-b", "site": "cell-b", "carriers": ["c1"],
             "fronthaul_latency_us": 50},
        ],
        "ranfs": [
            {"id": "rf-a", "site": "cell-a", "rus": ["ru-a"],
             "neighbors": ["rf-b"]},
            {"id": "rf-b", "site": "cell-b", "rus": ["ru-b"],
             "neighbors": ["rf-a"]},
        ],
        "slices": [{"id": "I"}],
        "placement": [
            {"id": "rrm-a", "kind": "RRM", "site": "cell-a"},
            {"id": "rrm-b", "kind": "RRM", "site": "cell-b"},
            # both FHMs at cell-a so the user-plane path length is the same
            # before and after the handover and the gap isolates the
            # interruption window
            {"id": "fhm-a", "kind": "FHM", "site": "cell-a",
             "bound_ru": "ru-a"},
            {"id": "fhm-b", "kind": "FHM", "site": "cell-a",
             "bound_ru": "ru-b"},
            {"id": "rrc1", "kind": "RRC", "site": "cell-a", "slice": "I"},
            {"id": "up1", "kind": "UP", "site": "cell-a", "slice": "I"},
            # phy1 first so it stays the slice's user-plane PHY; phy-b only
            # satisfies the per-site sync/broadcast requirement at cell-b
            {"id": "phy1", "kind": "PHY", "site": "cell-a", "slice": "I"},
            {"id": "phy-b", "kind": "PHY", "site": "cell-b", "slice": "I"},
        ],
        "ues": [{"id": "u1", "ranf": "rf-a"}],
        "bearers": [{
            "id": "b1", "ue": "u1", "latency_req_us": 5_000,
            "reliability_req": 1 - 1e-8,
            "traffic": {"pattern": "ConstantBitRate",
                        "rate_bytes_per_s": 1_000_000, "sdu_bytes": 500,
                        "start_us": 100, "stop_us": 200_000},
        }],
        "script": [{"at_us": 100_250, "action": "handover", "ue": "u1",
                    "dst": "rf-b"}],
    }


def test_criterion_10_handover_lossless():
    rt = Runtime(build(_handover_raw()))
    times = []  # the delivery time of each SDU
    deliver = rt._deliver_sdus

    def recording(ctx, sns, now):
        before = ctx.metrics.delivered
        deliver(ctx, sns, now)
        times.extend([now] * (ctx.metrics.delivered - before))

    rt._deliver_sdus = recording
    report = rt.run()
    hos = report["handovers"]
    assert len(hos) == 1 and hos[0]["accepted"], hos
    assert hos[0]["forwarded_pdus"] == 5, hos[0]
    b = report["bearers"]["b1"]
    assert b["residual"] == 0 and b["duplicates"] == 0
    assert b["delivered"] == b["packets_in"]   # gap-free: every SDU arrives
    assert len(times) == b["delivered"]
    near = [t for t in times if 95_000 <= t <= 125_000]
    gap = max(b - a for a, b in zip(near, near[1:]))
    assert abs(gap - 5_000) <= TTI, gap
    _ok(10, f"5 un-ACKed PDUs forwarded, all {b['packets_in']} SDUs "
            f"delivered, interruption {gap} us = 5000 +/- 1 TTI")


# --------------------------------------------------------------------------
# 11. Sub-network autonomy
# --------------------------------------------------------------------------

def _subnet_raw(detach_at=None):
    raw = single_cell_raw(seed=13, duration_us=1_000_000)
    raw["ues"] = []
    raw["bearers"] = []
    raw["subnetworks"] = [{
        "id": "sn1", "parent_ranf": "rf-a", "parent_ru": "ru1",
        "autonomous_prbs": 4, "grant_prbs": 4, "grant_period_us": 100_000,
        "local_bytes_per_prb": 100, "nonlocal_ttl_us": 50_000,
        "parent_latency_us": 2_000, "devices": ["d1", "d2"],
        "local_traffic": [{"src": "d1", "dst": "d2", "size": 200,
                           "period_us": 1_000, "start_us": 0}],
        "nonlocal_traffic": [{"src": "d1", "size": 300,
                              "period_us": 5_000, "start_us": 0}],
    }]
    if detach_at is not None:
        raw["script"] = [{"at_us": detach_at, "action": "detach_subnet",
                          "subnet": "sn1"}]
    return raw


def test_criterion_11_subnetwork_autonomy():
    detach_at = 500_000
    control = run_scenario(build(_subnet_raw()))["subnetworks"]["sn1"]
    detached = run_scenario(build(_subnet_raw(detach_at)))["subnetworks"]["sn1"]
    post_ctrl = [t for t in control["local_delivered_times"] if t >= detach_at]
    post_det = [t for t in detached["local_delivered_times"] if t >= detach_at]
    assert len(post_det) == len(post_ctrl) and post_ctrl, \
        (len(post_ctrl), len(post_det))
    # Non-local relay traffic queues while detached and ages out on TTL.
    assert control["nonlocal_delivered"] > 0
    assert control["nonlocal_ttl_dropped"] == 0
    assert detached["nonlocal_ttl_dropped"] > 0
    assert detached["nonlocal_delivered"] < control["nonlocal_delivered"]
    _ok(11, f"post-detach local deliveries identical "
            f"({len(post_det)}); non-local TTL-dropped "
            f"{detached['nonlocal_ttl_dropped']} while detached")


# --------------------------------------------------------------------------
# 12. Energy saving
# --------------------------------------------------------------------------

def _energy_raw(energy):
    raw = single_cell_raw(seed=17, energy=energy)
    raw["bler"] = {"default": 0.0}
    raw["bearers"][0]["traffic"] = {
        "pattern": "ConstantBitRate", "rate_bytes_per_s": 20_000,
        "sdu_bytes": 1000,
    }
    return raw


def _run_recording_latencies(rt, bearer_id):
    """Run ``rt``; returns the report and the latency of each SDU of
    ``bearer_id`` in delivery order, which the histogram does not keep."""
    latencies = []
    deliver = rt._deliver_sdus

    def recording(ctx, delivered, now):
        if ctx.bearer.id == bearer_id:
            latencies.extend(now - ctx.live[sn].arrival_time
                             for sn, _ in delivered if sn in ctx.live)
        deliver(ctx, delivered, now)

    rt._deliver_sdus = recording
    report = rt.run()
    assert collections.Counter(latencies) \
        == rt.metrics.bearers[bearer_id].latency_counts
    return report, latencies


def test_criterion_12_energy_saving(monkeypatch):
    logs = record_transitions(monkeypatch)
    rt_on = Runtime(build(_energy_raw(True)))
    rep_on, lat_on = _run_recording_latencies(rt_on, "b1")
    rt_off = Runtime(build(_energy_raw(False)))
    rep_off, lat_off = _run_recording_latencies(rt_off, "b1")
    e_on = sum(rep_on["energy_j"].values())
    e_off = sum(rep_off["energy_j"].values())
    assert e_on < e_off, (e_on, e_off)
    # Independent replay of the recorded transitions matches the
    # accumulated joules exactly (identical term order per entity).
    replayed = replay_energy(logs[rt_on.meter], rt_on.duration)
    assert replayed == rt_on.meter.energy_j
    # First-TB wake delays: saving may defer each delivery by at most the
    # RU wake latency, never accelerate it.
    wake = orch.DEFAULT_POWER_PROFILES["RU"].wake_latency
    assert len(lat_on) == len(lat_off)
    diffs = [a - b for a, b in zip(lat_on, lat_off)]
    assert all(0 <= d <= wake for d in diffs), (min(diffs), max(diffs))
    assert rep_on["wake_delays"] > 0
    _ok(12, f"energy on {e_on:.3f} J < off {e_off:.3f} J; replay exact; "
            f"wake delay <= {wake} us on {rep_on['wake_delays']} wakes")


# --------------------------------------------------------------------------
# 13. Zero trust admission
# --------------------------------------------------------------------------

def _trust_raw():
    raw = single_cell_raw(seed=23, duration_us=800_000)
    raw["trust"] = {"weights": [0.5, 0.3, 0.2], "threshold": 0.6,
                    "reassess_interval_us": 100_000}
    raw["ues"] = [
        # score 0.70 clean (admitted), 0.51 once the anomaly hits (released)
        {"id": "ue-good", "ranf": "rf-a",
         "trust": {"auth": 0.7, "history": 0.5, "anomaly": 0.0}},
        {"id": "ue-bad", "ranf": "rf-a",
         "trust": {"auth": 0.1, "history": 0.1, "anomaly": 0.9}},
    ]
    raw["bearers"] = [
        {"id": "b-good", "ue": "ue-good", "latency_req_us": 100_000,
         "reliability_req": 0.999,
         "traffic": {"pattern": "ConstantBitRate",
                     "rate_bytes_per_s": 200_000, "sdu_bytes": 500}},
        {"id": "b-bad", "ue": "ue-bad", "latency_req_us": 100_000,
         "reliability_req": 0.999,
         "traffic": {"pattern": "ConstantBitRate",
                     "rate_bytes_per_s": 200_000, "sdu_bytes": 500}},
    ]
    raw["script"] = [{"at_us": 300_000, "action": "anomaly",
                      "ue": "ue-good", "anomaly_score": 0.95}]
    return raw


def record_grants(rt, monkeypatch):
    """(time, UE) of every grant stage 2 issues to ``rt``, in order."""
    grants = []
    allocate = sched.stage2_allocate

    def recording(*args, **kwargs):
        issued = allocate(*args, **kwargs)
        grants.extend((rt.sim.now, g[0]) for g in issued)
        return issued

    monkeypatch.setattr(sched, "stage2_allocate", recording)
    return grants


def test_criterion_13_zero_trust(monkeypatch):
    rt = Runtime(build(_trust_raw()))
    grants = record_grants(rt, monkeypatch)
    report = rt.run()
    audit = report["audit_log"]
    # Below-threshold UE rejected at attach, with an audit entry; it never
    # receives a grant and all its traffic is refused at ingress.
    rejects = [e for e in audit if e["ue"] == "ue-bad"
               and e["event"] == "Reject"]
    assert rejects and rejects[0]["at"] == 0, rejects
    assert all(ue != "ue-bad" for _, ue in grants)
    bad = report["bearers"]["b-bad"]
    assert bad["delivered"] == 0
    assert bad["ingress_dropped"] > 0 and bad["packets_in"] == 0
    # Mid-run anomaly: released within one reassessment tick of injection.
    releases = [e for e in audit if e["ue"] == "ue-good"
                and e["event"] == "Release"]
    assert releases, audit
    assert 300_000 <= releases[0]["at"] <= 400_000, releases[0]
    # No grant without a prior Admit and no intervening Release.
    admits = {e["ue"]: e["at"] for e in audit if e["event"] == "Admit"}
    assert grants
    for t, ue in grants:
        assert ue in admits and admits[ue] <= t, (t, ue)
        assert not any(e["ue"] == ue and e["event"] == "Release"
                       and e["at"] < t for e in audit), (t, ue)
    _ok(13, f"reject audited at t=0, zero grants to rejected UE; anomaly "
            f"release at t={releases[0]['at']} us (within one tick); "
            f"no grant without Admit over {len(grants)} grants")


# --------------------------------------------------------------------------
# 14. Determinism
# --------------------------------------------------------------------------

def test_criterion_14_determinism():
    cfg = load_scenario("smoke.yaml")
    a = run_scenario(copy.deepcopy(cfg))
    b = run_scenario(copy.deepcopy(cfg))
    ja = json.dumps(a, sort_keys=True)
    jb = json.dumps(b, sort_keys=True)
    assert ja == jb                      # byte-identical reports
    cfg2 = copy.deepcopy(cfg)
    cfg2["seed"] = cfg["seed"] + 1
    c = run_scenario(cfg2)
    assert json.dumps(c, sort_keys=True) != ja   # seed changes outcomes
    for bid, cons in c["conservation"].items():  # invariants still hold
        assert cons["holds"], (bid, cons)
    _ok(14, "same seed -> byte-identical report; new seed differs but "
            "conserves")
