"""Golden report fingerprints.

Each case pins the SHA-256 of ``json.dumps(report, sort_keys=True)`` for
one run.  A refactor or speed-up must leave every hash unchanged; a change
that moves one is a behaviour change and must say why next to the new hash.
"""

import argparse
import collections
import hashlib
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
    through ingress discards at the SN window and the L4S rate law."""
    with open(os.path.join(SCENARIO_DIR, "smoke.yaml")) as fh:
        raw = yaml.safe_load(fh)
    raw["bearers"][1]["ecn_capable"] = True
    raw["bearers"][1]["traffic"]["rate_bytes_per_s"] = 30_000_000
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
        # Moved only by harq_protocol_errors.
        "f3bac59e0e9e42bd09b9a44204e5a1084a9ae138557b26bb9de7c94e34f6bc8b"),
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
        # Moved only by harq_protocol_errors.
        "9a84d546bb5dfd5abaf01a04d108e56ee5d9a4fbab3118125dec248e014dee6b"),
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
        # ``u2``'s release at 200,000 us; no other byte moved.
        "96e8c61484a14b6b5082673f0436121b327ae837e368a718e9139a05f2c5f9d7"),
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
    """Print every pin's fingerprint.  ``--without KEY`` (repeatable) drops
    the top-level report key ``KEY`` first, so that two trees whose reports
    differ only by that key print the same lines.  ``--events`` prints each
    pin's count of events run, in total and by kind, instead."""
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
        print("tti-series", tti_series_fingerprint())
        with tempfile.TemporaryDirectory() as tmp:
            for name in sorted(LATENCY_CDF):
                print(f"latency-cdf {name}", latency_cdf_fingerprint(
                    LATENCY_CDF[name][0](), os.path.join(tmp, "cdf.csv")))


if __name__ == "__main__":
    main(sys.argv[1:])
