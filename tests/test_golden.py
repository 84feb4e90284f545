"""Golden report fingerprints.

Each case pins the SHA-256 of ``json.dumps(report, sort_keys=True)`` for
one run.  A refactor or speed-up must leave every hash unchanged; a change
that moves one is a behaviour change and must say why next to the new hash.
"""

import hashlib
import json
import os
import sys

import pytest
import yaml

if __name__ == "__main__":  # run as a script: find ransim beside tests/
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

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


# Each hash below moved only by config_hash when orchestrator.scale_hi and
# scale_lo left the resolved config: every report minus config_hash is
# byte-identical to the one recorded before.
CASES = {
    "smoke": (
        lambda: load_scenario("smoke.yaml"),
        # Moved only by config_hash.
        "389ee26e963884c3bb06f3decb24fb00c500ebc7830c2d7cce4246e46f688f7f"),
    "latency-budgets": (
        lambda: load_scenario("latency-budgets.yaml"),
        # Moved only by config_hash.
        "880c49ab7e4229d09c71ff0bdf134fbe43ca23de952f5636dfd4972ed5c22ced"),
    "split-lossy": (
        lambda: build(_split_lossy_raw()),
        # Moved only by config_hash.
        "6279e5f265b26c6e58ca10a78f79401aed777b36c21e8f5c880bb3680c8d1404"),
    "handover": (
        lambda: build(_handover_raw()),
        # Moved only by config_hash.
        "e6fbe0138ce7d4d6bbef6819eb4ac478820d9a0a7d742d686992d093b2c8f582"),
    "ecn-overload": (
        lambda: build(_ecn_overload_raw()),
        # Moved only by config_hash.
        "eb2d8279d65df1d0bad199cd801caef3833e6bdb537fa3481cef77b19a3f7d64"),
    # The four below pin the paths that Simulator.every and the merged
    # event paths rewired; recorded before that change.
    "split-uncredited": (
        lambda: build(_split_uncredited_raw()),
        # Moved only by config_hash.
        "eb198cf976ddbd1c041169300387521d80a30d0cbc351ee6850d4637aefc42f7"),
    "subnet": (
        lambda: build(_subnet_raw(500_000)),
        # Moved only by config_hash.
        "be9c9c96cb5e171ea698091261da28319dfaa71f3e1b9685216b96b104d90fa0"),
    "trust": (
        lambda: build(_trust_raw()),
        # Moved only by config_hash.
        "0d8d50afee6de0fe70fd31778996534dfa8b633d4f601d09098ad4fb034cfb19"),
    "set-bler": (
        lambda: build(_set_bler_raw()),
        # Moved only by config_hash.
        "b0145cf6e70243ea8c96819850e89f538cbbdaa935bfd705660b88b119a23598"),
    # The two below pin the policy and sub-network paths whose rules were
    # merged; recorded before that change.
    "min-share": (
        lambda: build(_min_share_raw()),
        # Moved only by config_hash.
        "40a10ce505a6e063de8a64d4288719b78537fc88a12887170077d114b255e870"),
    "device-handover": (
        lambda: build(_device_handover_raw()),
        # Moved only by config_hash.
        "2c019d0059a8f503b1fdd3c51b932e2d327bee3ba95c2779ea8807ecaa21eadf"),
    # Pins the RANF-TTI scheduler path: several RANFs in TTI order, carrier
    # aggregation over two RUs, pools that run out, leftover and wasted
    # padding grants, and a handover's stale requests.  Recorded before
    # requests and grants became plain tuples, stage 2 stopped at empty
    # pools and padding grants stopped entering the serve path.
    "dmimo-ranfs": (
        lambda: build(_dmimo_ranfs_raw()),
        "290c4722d13e2286b031ee077e68c92501fea3ed5dc738aaaa58f011069896c6"),
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


if __name__ == "__main__":
    for name in sorted(CASES):
        print(name, fingerprint(run_scenario(CASES[name][0]())))
    print("tti-series", tti_series_fingerprint())
