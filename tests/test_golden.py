"""Golden report fingerprints.

Each case pins the SHA-256 of ``json.dumps(report, sort_keys=True)`` for
one run.  A refactor or speed-up must leave every hash unchanged; a change
that moves one is a behaviour change and must say why next to the new hash.
"""

import argparse
import collections
import functools
import hashlib
import importlib.util
import json
import os
import sys
import tempfile

import pytest
import yaml

if __name__ == "__main__":  # run as a script: find ransim beside tests/
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ransim.metrics import write_latency_cdf  # noqa: E402
from ransim.runtime import Runtime, run_scenario  # noqa: E402
from test_acceptance import (SCENARIO_DIR, _handover_raw,  # noqa: E402
                             _subnet_raw, _trust_raw, build, load_scenario,
                             single_cell_raw)


def _split_lossy_raw():
    """CU/DU split with lossy HARQ feedback, F1 credit, RLC retx and AQM
    drops (so drop indications and the retx queue are both exercised)."""
    raw = single_cell_raw(
        seed=13, duration_us=400_000, mode="split_baseline",
        reliable_harq=False,
        split={"d_f1_us": 1_000, "credit_bytes": 20_000},
        harq={"feedback_error_rate": 0.05},
        rlc={"max_retx": 2},
        bler={"default": 0.2},
        aqm={"drop_threshold_us": 20_000},
    )
    raw["bearers"][0]["traffic"]["rate_bytes_per_s"] = 4_500_000
    return raw


def _ecn_overload_raw():
    """``smoke.yaml`` with ``b-mod`` ECN-capable at 30 MB/s: the only run
    through ingress discards at the SN window.  ``b-mod`` is CE-marked, but
    its source has no congestion law, so no rate law runs."""
    with open(os.path.join(SCENARIO_DIR, "smoke.yaml")) as fh:
        raw = yaml.safe_load(fh)
    raw["bearers"][1]["ecn_capable"] = True
    raw["bearers"][1]["traffic"]["rate_bytes_per_s"] = 30_000_000
    return raw


def _reactive_sources_raw():
    """``_ecn_overload_raw`` whose ``b-mod`` runs the L4S rate law, plus a
    UE ``ue2`` with a 30 MB/s Classic bearer: ``b-mod`` is CE-marked and
    its source re-rates at each RTT window, and the Classic bearer's AQM
    drops are echoed to its source."""
    raw = _ecn_overload_raw()
    raw["bearers"][1]["traffic"]["congestion_law"] = "L4S"
    raw["ues"].append({"id": "ue2", "ranf": "ranf-a"})
    raw["bearers"].append({
        "id": "b-classic", "ue": "ue2", "latency_req_us": 100_000,
        "reliability_req": 0.999,
        "traffic": {"pattern": "ConstantBitRate",
                    "rate_bytes_per_s": 30_000_000,
                    "congestion_law": "Classic"}})
    return raw


def _split_uncredited_raw():
    """Criterion 06's split run with F1 delay and no F1 credit: each PDU
    is forwarded to the DU on its own."""
    return single_cell_raw(seed=31, mode="split_baseline",
                           split={"d_f1_us": 1_000, "credit_bytes": None})


def _set_bler_raw():
    """``test_runtime.base_raw`` whose link degrades mid-run (reliable
    HARQ, so the reorder timer re-arms while a PDU is still held)."""
    from test_runtime import base_raw
    return base_raw(script=[{"at_us": 250_000, "action": "set_bler",
                             "ue": "u1", "ru": "ru1", "carrier": "c1",
                             "bler": 0.9}])


def _min_share_raw():
    """``smoke.yaml`` with two ``MinSliceShare`` policies for slice I: the
    later one decides the reservation stage 2 makes.  Slice I is served
    first anyway, so the reservation never binds here and the report
    equals ``smoke``'s apart from config_hash."""
    with open(os.path.join(SCENARIO_DIR, "smoke.yaml")) as fh:
        raw = yaml.safe_load(fh)
    raw["script"] = [
        {"at_us": at, "action": "policy",
         "policy": {"id": f"share-{at}", "directive": "MinSliceShare",
                    "params": {"slice": "I", "fraction": fraction}}}
        for at, fraction in ((200_000, 0.3), (600_000, 0.1))]
    return raw


def _device_handover_raw():
    """``_subnet_raw(500_000)`` plus a second sub-network, on its own
    autonomous pool, that ``d1`` moves to; ``d2`` then moves to the parent.
    ``sn2``'s local traffic names ``d1`` before it arrives."""
    raw = _subnet_raw(500_000)
    raw["subnetworks"].append({
        "id": "sn2", "autonomous_prbs": 3, "local_bytes_per_prb": 100,
        "devices": ["d3"],
        "local_traffic": [{"src": "d3", "dst": "d1", "size": 200,
                           "period_us": 2_000, "start_us": 1_000}]})
    raw["script"] += [
        {"at_us": 300_000, "action": "device_handover", "device": "d1",
         "src": "sn1", "dst": "sn2"},
        {"at_us": 700_000, "action": "device_handover", "device": "d2",
         "src": "sn1", "dst": None}]
    return raw


def _dmimo_ranfs_raw():
    """Two RANFs of two RUs each, D-MIMO, 16 UEs with a Poisson slice-I
    bearer and a bursty slice-II bearer, and one handover (``ue-3`` to
    ``rf-0``).  Slice II reports over a 2 ms control path, so its requests
    are stale: about a quarter of the RANF-TTIs run out of PRBs before the
    last request, others hand leftover pools to drained bearers, and most
    grants carry only padding, some of them wasted for want of a free HARQ
    process (4 per UE)."""
    cells = ["cell-0", "cell-1"]
    raw = {
        "seed": 17, "duration_us": 200_000, "tti_us": 500, "dmimo": True,
        "cn_entry_site": "cell-0", "handover_interruption_us": 2_000,
        "harq": {"processes": 4, "rtt_ttis": 4, "max_tx": 4},
        "bler": {"default": 0.05},
        "sites": [{"id": c, "kind": "OnPrem", "cpu_capacity": 100}
                  for c in cells]
        + [{"id": "edge", "kind": "FarEdge", "cpu_capacity": 200}],
        "links": [{"a": "cell-0", "b": "cell-1", "latency_us": 1_000},
                  {"a": "cell-0", "b": "edge", "latency_us": 2_000},
                  {"a": "cell-1", "b": "edge", "latency_us": 2_000}],
        "carriers": [{"id": "c1", "prbs_per_tti": 30, "bytes_per_prb": 100}],
        "rus": [{"id": f"ru-{i}-{j}", "site": c, "carriers": ["c1"],
                 "fronthaul_latency_us": 50}
                for i, c in enumerate(cells) for j in range(2)],
        "ranfs": [{"id": f"rf-{i}", "site": c,
                   "rus": [f"ru-{i}-0", f"ru-{i}-1"],
                   "neighbors": [f"rf-{1 - i}"]} for i, c in enumerate(cells)],
        "slices": [{"id": "I"}, {"id": "II"}],
        "placement": [
            {"id": "cpr", "kind": "CpRouting", "site": "edge"},
            {"id": "rrc-i", "kind": "RRC", "site": "cell-0", "slice": "I"},
            {"id": "up-i", "kind": "UP", "site": "cell-0", "slice": "I"},
            {"id": "phy-i", "kind": "PHY", "site": "cell-0", "slice": "I"},
            {"id": "rrc-ii", "kind": "RRC", "site": "edge", "slice": "II"},
            {"id": "up-ii", "kind": "UP", "site": "edge", "slice": "II"},
            {"id": "phy-ii", "kind": "PHY", "site": "cell-0", "slice": "II"},
            {"id": "phy-cell-1", "kind": "PHY", "site": "cell-1",
             "slice": "I"},
        ] + [{"id": f"rrm-{i}", "kind": "RRM", "site": c}
             for i, c in enumerate(cells)]
        + [{"id": f"fhm-ru-{i}-{j}", "kind": "FHM", "site": c,
            "bound_ru": f"ru-{i}-{j}"}
           for i, c in enumerate(cells) for j in range(2)],
        "ues": [{"id": f"ue-{k}", "ranf": f"rf-{k % 2}"} for k in range(16)],
        "bearers": [],
        "script": [{"at_us": 80_250, "action": "handover", "ue": "ue-3",
                    "dst": "rf-0"}],
    }
    for k in range(16):
        raw["bearers"] += [
            {"id": f"mc-{k}", "ue": f"ue-{k}", "latency_req_us": 5_000,
             "reliability_req": 0.99999,
             "traffic": {"pattern": "Poisson", "rate_bytes_per_s": 40_000,
                         "sdu_bytes": 200}},
            {"id": f"mod-{k}", "ue": f"ue-{k}", "latency_req_us": 100_000,
             "reliability_req": 0.999,
             "traffic": {"pattern": "PeriodicBurst",
                         "burst_period_us": 20_000, "burst_bytes": 3_600,
                         "sdu_bytes": 1_200, "start_us": 1_000 * k}}]
    return raw


def _harq_churn_raw():
    """``_handover_raw`` with a lossy link, 4 HARQ processes of up to 3
    transmissions and 1.5 MB/s, handed over three times while TBs are in
    flight: pins which slot a new TB takes and the order in which a
    handover flushes the slots' TBs back to RLC."""
    raw = _handover_raw()
    raw["bler"] = {"default": 0.3}
    raw["harq"] = {"processes": 4, "rtt_ttis": 4, "max_tx": 3}
    raw["bearers"][0]["traffic"]["rate_bytes_per_s"] = 1_500_000
    raw["script"] = [
        {"at_us": at, "action": "handover", "ue": "u1", "dst": dst}
        for at, dst in ((60_250, "rf-b"), (140_250, "rf-a"),
                        (220_250, "rf-b"))]
    return raw


def _split_handover_raw():
    """``_handover_raw`` in the split baseline with F1 credit and lossy HARQ
    feedback, plus a UE ``u2`` whose 5 MB/s slice-I bearer backs up at the
    CU.  The handover at 100.25 ms finds CU backlogs of 1 and 92 PDUs, and
    an anomaly releases ``u2`` at the 200 ms reassessment with 26 PDUs
    still held at the CU: the only run in which a handover's re-homing of
    active sets, the CU backlog and a release meet."""
    raw = _handover_raw()
    raw.update(mode="split_baseline", reliable_harq=False,
               split={"d_f1_us": 1_000, "credit_bytes": 20_000},
               harq={"feedback_error_rate": 0.05}, bler={"default": 0.1},
               trust={"reassess_interval_us": 100_000})
    raw["ues"].append({"id": "u2", "ranf": "rf-a",
                       "trust": {"auth": 0.6, "history": 0.6, "anomaly": 0.0}})
    raw["bearers"].append({
        "id": "b2", "ue": "u2", "latency_req_us": 5_000,
        "reliability_req": 1 - 1e-8,
        "traffic": {"pattern": "ConstantBitRate",
                    "rate_bytes_per_s": 5_000_000, "sdu_bytes": 1_000}})
    raw["script"].append({"at_us": 150_000, "action": "anomaly", "ue": "u2",
                          "anomaly_score": 1.0})
    return raw


def _split_ranfs_raw():
    """``_dmimo_ranfs_raw`` in the split baseline with F1 credit, lossy HARQ
    feedback, RLC retx and AQM drops: 32 bearers over two slices and four
    RUs whose uplink delays differ, so a status tick sends reports at
    several delays, and each F1 message carries many bearers."""
    raw = _dmimo_ranfs_raw()
    raw.update(mode="split_baseline", reliable_harq=False,
               split={"d_f1_us": 1_000, "credit_bytes": 2_400},
               harq={"processes": 4, "rtt_ttis": 4, "max_tx": 2,
                     "feedback_error_rate": 0.05},
               rlc={"max_retx": 2}, bler={"default": 0.3},
               aqm={"drop_threshold_us": 20_000})
    return raw


def _energy_policy_raw():
    """``test_runtime.dmimo_handover_raw`` (D-MIMO, energy saving on) with
    a lossy link that still qualifies both RUs of a cell for joint
    transmission, so HARQ retransmissions wake sleeping RUs, a 20 ms
    orchestrator tick, and an ``EnergySaving`` policy that turns saving off
    at 70 ms and back on at 130 ms, so RUs and functions go from Sleep to
    Idle and back."""
    from test_runtime import dmimo_handover_raw
    raw = dmimo_handover_raw()
    raw["bler"] = {"default": 0.2}
    raw["serving"] = {"quality_threshold": 0.2}
    raw["orchestrator"] = {"tick_us": 20_000}
    raw["script"] += [
        {"at_us": at, "action": "policy",
         "policy": {"id": f"es-{at}", "directive": "EnergySaving",
                    "params": {"on": on}}}
        for at, on in ((70_000, False), (130_000, True))]
    return raw


def _control_plane_raw():
    """``test_runtime.base_raw`` whose slice II is auto-placed within a
    100 ms budget, then migrated twice: its UP to the far edge at 200 ms
    (accepted, 10 ms of downtime, paths recomputed) and the RRM at 300 ms
    (rejected: its placement is fixed)."""
    from test_runtime import base_raw
    raw = base_raw()
    raw["slices"] = [{"id": "II", "auto_place": True,
                      "latency_budget_us": 100_000}]
    raw["placement"] = [p for p in raw["placement"]
                        if p["id"] in ("rrm", "fhm1", "cpr")]
    raw["script"] = [
        {"at_us": 200_000, "action": "migrate", "instance": "slice-II-up",
         "site": "edge-1"},
        {"at_us": 300_000, "action": "migrate", "instance": "rrm",
         "site": "edge-1"}]
    return raw


def _subnet_reattach_raw():
    """``test_config._subnet_knob_raw``: a sub-network out of parent
    coverage from 100 to 200 ms, then attached again by the script."""
    from test_config import _subnet_knob_raw
    return _subnet_knob_raw()


def _ru_local_bf_raw():
    """``_dmimo_ranfs_raw`` with RU-local beamforming: each RU that carries
    a TB is charged the TB once plus the coefficient-update cost."""
    raw = _dmimo_ranfs_raw()
    raw["fronthaul"] = {"mode": "RuLocalBf"}
    return raw


def _two_ru_aggregation_raw():
    """``test_runtime.base_raw`` with a second RU ``ru2`` on ``c1`` and
    serving sets of up to two RUs without D-MIMO, so ``b1`` (16 MB/s) is
    granted PRBs on both RUs; ``ru2`` loses half its TBs."""
    from test_runtime import base_raw
    raw = base_raw(serving={"max_set_size": 2, "quality_threshold": 1.0},
                   bler={"entries": [{"ue": "u1", "ru": "ru2",
                                      "carrier": "c1", "bler": 0.5}]})
    raw["rus"].append({"id": "ru2", "site": "cell-a", "carriers": ["c1"],
                       "fronthaul_latency_us": 50})
    raw["ranfs"][0]["rus"].append("ru2")
    raw["placement"].append({"id": "fhm2", "kind": "FHM", "site": "cell-a",
                             "bound_ru": "ru2"})
    raw["bearers"][0]["traffic"]["rate_bytes_per_s"] = 16_000_000
    return raw


def _segmented_harq_raw(bler=0.1):
    """``smoke.yaml`` with only ``b-mod``, 5,000-byte SDUs at 200 kB/s over
    480 bytes per TTI, BLER ``bler`` and no HARQ retransmission, for 2 s:
    each PDU is pulled over about ten TTIs, more than one HARQ RTT, so the
    TBs carrying its first segments are ACKed or given up before its last
    byte is pulled."""
    with open(os.path.join(SCENARIO_DIR, "smoke.yaml")) as fh:
        raw = yaml.safe_load(fh)
    raw["duration_us"] = 2_000_000
    raw["carriers"][0]["prbs_per_tti"] = 4
    raw["bearers"] = [raw["bearers"][1]]
    raw["bearers"][0]["traffic"].update(rate_bytes_per_s=200_000,
                                        sdu_bytes=5_000)
    raw["bler"] = {"default": bler}
    raw["harq"] = {"max_tx": 1}
    return raw


def _reliable_giveup_raw():
    """``_segmented_harq_raw`` with ``rlc.max_retx: 0``: HARQ as the RLC
    ACK gives up an SN at its first failed TB, mostly while its PDU is
    still being pulled from the buffer head."""
    raw = _segmented_harq_raw()
    raw["rlc"] = {"max_retx": 0}
    return raw


# Each hash below moved only when the never-raised harq_protocol_errors
# left the report: ``python tests/test_golden.py --without
# harq_protocol_errors`` prints the same fingerprints before and after.
CASES = {
    "smoke": (
        lambda: load_scenario("smoke.yaml"),
        # Moved only by harq_protocol_errors.
        "04e5845a7c0138f77e00d9b41f90a203da9c0629d907bf2d7b6110c68c66940c"),
    "latency-budgets": (
        lambda: load_scenario("latency-budgets.yaml"),
        # Moved only by harq_protocol_errors.
        "18897d3e7ac7410ecf88833988a5b8c0d38e912fcdb12859269a82e4c408ce58"),
    "split-lossy": (
        lambda: build(_split_lossy_raw()),
        # Moved only by harq_protocol_errors.
        "42773a0a80ea6f2d9fb705280b123b260fbfb5a6e1dc74193e5cbc8d16eb0f40"),
    "handover": (
        lambda: build(_handover_raw()),
        # Moved only by harq_protocol_errors.
        "14bd1e76694f8054a068426d2380fecfaed3b684317ce32b57a2809d445b8721"),
    "ecn-overload": (
        lambda: build(_ecn_overload_raw()),
        # Moved only by harq_protocol_errors.
        "4266dc82d1c6df34b7c8d1d33e799194d1c1d32727936f54d8e2e6996094c6e3"),
    # The four below pin the paths that Simulator.every and the merged
    # event paths rewired; recorded before that change.
    "split-uncredited": (
        lambda: build(_split_uncredited_raw()),
        # Moved only by harq_protocol_errors.
        "8e205e611cd1aafdbde4fc1776d70320c9eadf1d6bc332c530b931551a8c39a4"),
    "subnet": (
        lambda: build(_subnet_raw(500_000)),
        # Moved only by harq_protocol_errors.
        "39a6d16c22b3e304db5372ddff77a4fb60215a6d050a5dd04bd9ec81a34e621a"),
    "trust": (
        lambda: build(_trust_raw()),
        # Moved only by harq_protocol_errors.
        "b125c87e8e7c024f255f4c8d7dd0aa1d5d71cd91c8e68e31f2c3f992f842b9b6"),
    "set-bler": (
        lambda: build(_set_bler_raw()),
        # Moved only by harq_protocol_errors, then (from
        # f3bac59e0e9e42bd09b9a44204e5a1084a9ae138557b26bb9de7c94e34f6bc8b)
        # when a PDU entered the RLC window at its first pulled byte: once
        # the link degrades, the ACKs of a PDU's early segments no longer
        # miss its entry and its given-up early segments are resent, so
        # ``b1`` delivers 913 SDUs, not 879, and its window ends with no
        # dead entry (6 before).  Moved: ``b1``'s ``delivered``, p99,
        # ``reorder_stalls`` (23 more) and ``in_flight_at_end`` (122 -> 88),
        # ``tb_transmitted`` (755 -> 754), ``tb_failed_final`` (162 -> 163),
        # ``ru1``'s fronthaul bytes and energy.
        "8b5412c0f7f9e44d8ead439c854cd10eb01cf9aa57536aae1ac3055f9d363760"),
    # The two below pin the policy and sub-network paths whose rules were
    # merged; recorded before that change.
    "min-share": (
        lambda: build(_min_share_raw()),
        # Moved only by harq_protocol_errors.
        "8f48d10db62a091177e658712e123e1a0f58811538755525b4cbbe68548a6cf3"),
    "device-handover": (
        lambda: build(_device_handover_raw()),
        # Moved only by harq_protocol_errors.
        "c064e25f6c8d86ea5d924f8309f4d8bb1a3f08b2254e6519046a8f476613df53"),
    # Pins the RANF-TTI scheduler path: several RANFs in TTI order, carrier
    # aggregation over two RUs, pools that run out, leftover and wasted
    # padding grants, and a handover's stale requests.  Recorded before
    # requests and grants became plain tuples, stage 2 stopped at empty
    # pools and padding grants stopped entering the serve path.
    "dmimo-ranfs": (
        lambda: build(_dmimo_ranfs_raw()),
        # Moved only by harq_protocol_errors.
        "34a833c1a83016a67816f96051f2d503b6b5aeaf18215416cf2d97695b2dda63"),
    # Pins the HARQ slot order: which free slot a new TB takes, and the
    # order in which each of three handovers flushes the in-flight TBs
    # back to RLC (loading into the last free slot or flushing in reverse
    # moves it; no other pin sees either).  Recorded before a HARQ process
    # became one TB in flight.
    "harq-churn": (
        lambda: build(_harq_churn_raw()),
        # Moved only by harq_protocol_errors, then (from
        # 9a84d546bb5dfd5abaf01a04d108e56ee5d9a4fbab3118125dec248e014dee6b)
        # when a PDU entered the RLC window at its first pulled byte: the
        # second and third handovers forward 12 and 0 PDUs, not 13 and 2
        # (dead window entries were counted), and each handover resends
        # the in-flight segments of a partly pulled head, which moves
        # ``ru-a``'s fronthaul bytes (+3,328), its ``granted_prbs`` and
        # ``utilization`` and slice I's PRBs (5 fewer each).  Without that
        # resend only the two ``forwarded_pdus`` move (13 -> 12, 2 -> 1).
        "c0a39f92e86c8d9e9c66f552f65c31071d5ffcc1647ff744bcf082f0e401eb76"),
    # Pins a handover's move of its UE's bearers between active sets, the
    # DU's poll of the bearers with a CU backlog and a release of a UE with
    # PDUs held at the CU.  Recorded before a handover stopped rebuilding
    # every RANF's active sets, the DU stopped polling every bearer and a
    # release started emptying the CU queue.
    "split-handover": (
        lambda: build(_split_handover_raw()),
        # Moved when a released UE's SDUs stopped counting as duplicates on
        # delivery (``_release_ue`` counts them residual): ``b2``'s
        # duplicates 3 -> 0, the three delivered at 200,050 us after
        # ``u2``'s release at 200,000 us; no other byte moved.  Moved again
        # (from 96e8c61484a14b6b5082673f0436121b327ae837e368a718e9139a05f2c5f9d7)
        # when a PDU entered the RLC window at its first pulled byte: the
        # handover resends the in-flight segments of ``b1``'s partly pulled
        # head at once, not after a status report names it, so one of
        # ``b1``'s reorder stalls is 8,500 us, not 9,000, and ``ru-b``'s
        # fronthaul bytes change; nothing else moved.
        "8148b0c3e434ddbcb5f4c4bca738649b8712a165e2012e086ce8c8582754dcd9"),
    # Pins the batches of many bearers in the split baseline: the RLC
    # status reports of a tick, sent at each uplink delay, and the
    # F1 status and data messages of a TTI.  Recorded before each of those
    # became one event for all its bearers; evaluating the credit at the CU
    # instead of at the DU's TTI moves it.
    "split-ranfs": (
        lambda: build(_split_ranfs_raw()),
        "b458e59e76c561f0e0092a9e844193901bac9de5d64c9e8bef39de43eca9f384"),
    # Pins the power states with energy saving on: RUs that sleep, are woken
    # by new TBs (some sent jointly over two RUs) and by HARQ
    # retransmissions and go back to rest, RRC functions that sleep, and a
    # policy that moves every resting entity from Sleep to Idle and back.
    # No other pin runs with ``energy: true``.  Recorded before the energy
    # meter became the one owner of the Idle-or-Sleep choice and stopped
    # keeping a transition log.
    "energy": (
        lambda: build(_energy_policy_raw()),
        "f0a632c32cc75a3d7681e3c15a39f76a51b2ce98289b809dc33d94f26fdd0bc1"),
    # The four below were recorded before the carrying RUs, the
    # sub-network pool and the slice list each got one rule.
    # Pins auto-placement (``admit_slice``), an accepted migration with
    # downtime, which pauses the slice and recomputes its paths, and a
    # rejected one; no other pin places or migrates a function.
    "control-plane": (
        lambda: build(_control_plane_raw()),
        "90bc7450c3ff67f9b9136224582e20f1beec30762ae4c19ad76498ec28870c66"),
    # Pins a sub-network that detaches and attaches again: the autonomous
    # pool and the relay TTL while detached, the grant requested at the
    # attach and the renewals (5) while attached.
    "subnet-reattach": (
        lambda: build(_subnet_reattach_raw()),
        "2f2cc6fe04632d7602d202f765707cd779796f81d768590a8e826e2ab97425e4"),
    # Pins the fronthaul charge of RU-local beamforming on joint
    # transmissions; every other pin runs centralized beamforming.
    "ru-local-bf": (
        lambda: build(_ru_local_bf_raw()),
        "293bc9af53f60a17c593cf89b3dc2666eaffb3a2900264b061dc63945664d1cb"),
    # Pins carrier aggregation without D-MIMO: a TB granted on ``ru2``
    # is carried by ``ru2`` alone.  Recorded before that change as
    # 2dfe7b28425a0e8b42c42ae1489fcf4433d1eeae52fecda001493cab2da400ce;
    # moved by the fix when a TB on a UE's second RU stopped drawing the
    # first RU's BLER (0): ``ru2``'s 1,000 transmissions now fail half the
    # time, HARQ retransmissions take half its PRBs, and ``b1`` gets 1,533
    # TBs instead of 2,000 (26 fail after 4 tries), so its queue grows and
    # its p50 goes from 2,788 to 51,217 us.
    "carrier-aggregation": (
        lambda: build(_two_ru_aggregation_raw()),
        "9396aed3b5e6bc9b19cf17ee55c9f017bddd7dea11db6ba88725a82ecf06a3d6"),
    # Pins the reactive sources: 40 ``cc-window`` events re-rate ``b-mod``
    # under the L4S law (1,235 CE marks), and 4,014 ``drop-echo`` events
    # tell the Classic source of ``b-classic`` of its 4,014 AQM drops; no
    # other pin runs a congestion law.  Recorded before the scenario keys
    # were merged into one schema table, as
    # 4d5d6251a4b7d5b17848c267a0dd01b48c0e77317ad369e02462e1e1dcecf39e.
    # Moved when a PDU entered the RLC window at its first pulled byte:
    # the windows of ``b-mod`` and ``b-classic`` no longer fill with dead
    # entries (16 and 43 at the end before), so both moderate bearers pull
    # new SNs again.  Moved: every count, latency and ``reorder_stalls``
    # entry of ``b-mod`` and ``b-classic`` (``b-classic`` delivers 5,754
    # SDUs, not 4,206, and ``b-mod`` 9,734, not 10,753, under 1,235 CE
    # marks, not 1,347), ``b-mc``'s p100 (3,050 -> 1,050 us),
    # ``tb_transmitted``, ``ru1``'s PRBs, fronthaul bytes and energy, and
    # slice II's PRBs.
    "reactive-sources": (
        lambda: build(_reactive_sources_raw()),
        "fe7a4004e87db3af1d00201ad822855461e148ba5c8093cebffa9fafa2d020e2"),
    # Pins PDUs whose segments span more than one HARQ RTT with HARQ as the
    # RLC ACK: TBs carrying a PDU's first segments are ACKed or given up
    # (BLER 0.1, one transmission) while the rest is still being pulled.
    # Recorded before the RLC window got one rule as
    # 577e7ab7b4fedecb57009dd3bf23193886397c112fbd2ff5e155b367df9485f2, with
    # ``b-mod`` delivering 1 of 81 SDUs: a PDU entered the window only at
    # its last byte, so ACKs of its earlier segments were lost and its
    # given-up early segments never resent.  Moved by that fix: ``b-mod``
    # delivers 80 of 81 SDUs with no AQM drop (14 before), so its
    # ``delivered``, latencies, ``aqm_drops`` and ``in_flight_at_end``
    # (66 -> 1), its drop echo, ``tb_transmitted`` (748 -> 974),
    # ``tb_failed_final`` (72 -> 94), ``ru1``'s PRBs, fronthaul bytes and
    # energy, and slice II's PRBs moved.
    "segmented-harq": (
        lambda: build(_segmented_harq_raw()),
        "aedf15067c2b99c865f7ca5b57b458b170984f5c2fe10c7ee05e130475910dbb"),
    # Pins the give-up of a partly pulled head with HARQ as the RLC ACK; no
    # other pin sets ``max_retx`` in reliable mode.  Recorded before an SN
    # left the transmitter through one exit as
    # 664e4fcabb8626f2e9b1f422847376fb21cb39e873ae12e8548752259f4e19bb,
    # with ``b-mod`` delivering 21 of 81 SDUs and 59 residual: a given-up
    # head stayed in the buffer and 183 segments (77,754 bytes) of given-up
    # SNs were sent.  Moved by that fix: the head leaves the buffer with its
    # unsent bytes, so ``b-mod`` delivers 20 and 60 are residual, and
    # ``tb_transmitted`` (880 -> 686), ``tb_failed_final`` (83 -> 69),
    # ``b-mod``'s ``reorder_stalls`` and drop echo, ``ru1``'s PRBs (4,800
    # -> 4,024), fronthaul bytes and energy, and slice II's PRBs moved.
    "reliable-giveup": (
        lambda: build(_reliable_giveup_raw()),
        "186ba894fc75224f62b5c9c862e73c355eb3e9e11be7e4a19a3e8ecc516a103e"),
}


def fingerprint(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_fingerprint(name):
    make_cfg, expected = CASES[name]
    assert fingerprint(run_scenario(make_cfg())) == expected


# ``smoke.yaml``'s per-RANF TTI series (time, PRB utilization, largest
# head-of-line sojourn), which only a run with ``record_series`` keeps and
# no report holds.  Pins the record-only sojourn and utilization that
# stage 1 and ``MetricsCollector.on_tti`` compute.  Recorded before the
# scheduler path was rewritten.
TTI_SERIES = "6ca0dd9dcf989705c623439ef5dd3681f9b302f59f802029a98e8ae64aad1855"


def tti_series_fingerprint():
    rt = Runtime(load_scenario("smoke.yaml"), record_series=True)
    rt.run()
    return fingerprint(rt.metrics.tti_series)


def test_golden_tti_series():
    assert tti_series_fingerprint() == TTI_SERIES


# The benchmark's generated workloads at seed 7, built and set up as
# ``bench/run.py`` builds them (its ``WORKLOADS`` and ``setup``).  Kept out
# of ``CASES``, which also feeds the per-event transmitter oracle and
# ``test_resume``: on ``dmimo-cells``' 640 bearers those would take far too
# long.  The ``latency-budgets`` workload at seed 7 is the
# ``latency-budgets`` pin.
WORKLOAD_SEED = 7
WORKLOADS = {
    "dmimo-cells":
        "da6720241bf7b5560c15cec194dfc30dcf539f2a22f42561d4c681923466984c",
    "split-lossy":
        "3167a9134e83666ccc40b6866a3faa0dca37a9f75340eaef5f92e2c63c38cacf",
}
BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "bench")


@functools.cache
def bench_run():
    """``bench/run.py`` as a module, loaded once."""
    sys.path.insert(0, BENCH_DIR)  # it imports scengen and tracing from there
    spec = importlib.util.spec_from_file_location(
        "bench_run", os.path.join(BENCH_DIR, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_report(name):
    bench = bench_run()
    rt, _ = bench.setup(json.dumps(bench.WORKLOADS[name](WORKLOAD_SEED)))
    return rt.run()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_workload(name):
    assert fingerprint(workload_report(name)) == WORKLOADS[name]


def _latency_budgets_raw(duration_us):
    with open(os.path.join(SCENARIO_DIR, "latency-budgets.yaml")) as fh:
        raw = yaml.safe_load(fh)
    raw["duration_us"] = duration_us
    return raw


# The bytes of ``latency-cdf.csv`` (one row per delivered SDU), which no
# report holds.  Recorded while each bearer still kept a list of every
# latency, before the histogram replaced it.
LATENCY_CDF = {
    "smoke": (
        lambda: load_scenario("smoke.yaml"),
        "e51a8b6a5fe3711e7a3688f2be015c94563b4d505984a476332d54bda7dcd912"),
    "latency-budgets-2s": (
        lambda: build(_latency_budgets_raw(2_000_000)),
        "8e38ee20949a0c581ee38939aa2503187868b0db3f169ffe532334373d65b0b9"),
}


def latency_cdf_fingerprint(cfg, path):
    rt = Runtime(cfg)
    rt.run()
    write_latency_cdf(rt.metrics, path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(LATENCY_CDF))
def test_golden_latency_cdf(name, tmp_path):
    make_cfg, expected = LATENCY_CDF[name]
    assert latency_cdf_fingerprint(make_cfg(), tmp_path / "cdf.csv") \
        == expected


def wrap_each_event(rt, wrap):
    """Replace each handler ``fn`` of kind ``kind``, queued now or scheduled
    later, with ``wrap(kind, fn)``."""
    # Heap entries are (fire_at, seq, fn, kind, target); replacing ``fn``
    # keeps the (fire_at, seq) order, so the heap stays valid.
    q = rt.sim._queue
    q[:] = [entry[:2] + (wrap(entry[3], entry[2]),) + entry[3:]
            for entry in q]
    schedule = rt.sim.schedule
    rt.sim.schedule = lambda fire_at, kind, target, fn: schedule(
        fire_at, kind, target, wrap(kind, fn))


def event_counts(cfg):
    """Run ``cfg``; returns the number of handlers run, by event kind."""
    counts = collections.Counter()

    def counted(kind, fn):
        def handler():
            fn()
            counts[kind] += 1
        return handler

    rt = Runtime(cfg)
    wrap_each_event(rt, counted)
    rt.run()
    assert sum(counts.values()) == rt.sim.events_processed
    return counts


def main(argv):
    """Print every pin's fingerprint, the workload pins included.
    ``--without KEY`` (repeatable) drops the top-level report key ``KEY``
    first, so that two trees whose reports differ only by that key print the
    same lines.  ``--events`` prints each case's count of events run, in
    total and by kind, instead."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--without", action="append", default=[],
                        metavar="KEY")
    parser.add_argument("--events", action="store_true")
    args = parser.parse_args(argv)
    for name in sorted(CASES):
        if args.events:
            counts = event_counts(CASES[name][0]())
            print(name, sum(counts.values()), " ".join(
                f"{kind}={n}" for kind, n in sorted(counts.items())))
            continue
        report = run_scenario(CASES[name][0]())
        for key in args.without:
            report.pop(key, None)
        print(name, fingerprint(report))
    if not args.events:
        for name in sorted(WORKLOADS):
            report = workload_report(name)
            for key in args.without:
                report.pop(key, None)
            print(f"workload {name}", fingerprint(report))
        print("tti-series", tti_series_fingerprint())
        with tempfile.TemporaryDirectory() as tmp:
            for name in sorted(LATENCY_CDF):
                print(f"latency-cdf {name}", latency_cdf_fingerprint(
                    LATENCY_CDF[name][0](), os.path.join(tmp, "cdf.csv")))


if __name__ == "__main__":
    main(sys.argv[1:])
