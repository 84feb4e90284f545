import copy
import json
import os

import pytest

from ransim import config as cfgmod
from ransim import cli, runtime, stack
from ransim.runtime import Runtime, run_scenario


def base_raw(**overrides):
    raw = {
        "seed": 11,
        "duration_us": 500_000,
        "tti_us": 500,
        "sites": [
            {"id": "cell-a", "kind": "OnPrem", "cpu_capacity": 100},
            {"id": "edge-1", "kind": "FarEdge", "cpu_capacity": 100},
        ],
        "links": [{"a": "cell-a", "b": "edge-1", "latency_us": 2000}],
        "carriers": [{"id": "c1", "prbs_per_tti": 50, "bytes_per_prb": 100}],
        "rus": [{"id": "ru1", "site": "cell-a", "carriers": ["c1"],
                 "fronthaul_latency_us": 50}],
        "ranfs": [{"id": "rf-a", "site": "cell-a", "rus": ["ru1"],
                   "neighbors": []}],
        "slices": [{"id": "II"}],
        "placement": [
            {"id": "rrm", "kind": "RRM", "site": "cell-a"},
            {"id": "fhm1", "kind": "FHM", "site": "cell-a", "bound_ru": "ru1"},
            {"id": "cpr", "kind": "CpRouting", "site": "edge-1"},
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
    raw.update(overrides)
    return raw


def run_raw(raw):
    return run_scenario(cfgmod.validate_scenario(copy.deepcopy(raw)))


def test_basic_run_delivers_and_conserves():
    report = run_raw(base_raw())
    b = report["bearers"]["b1"]
    assert b["delivered"] > 900
    assert b["residual"] == 0 and b["duplicates"] == 0
    assert report["conservation"]["b1"]["holds"]


def test_auto_placed_slice():
    raw = base_raw()
    raw["slices"] = [{"id": "II", "auto_place": True,
                      "latency_budget_us": 100_000}]
    raw["placement"] = [p for p in raw["placement"]
                        if p["id"] in ("rrm", "fhm1", "cpr")]
    # Auto placement still needs the mandatory OnPrem PHY; it places one per
    # slice at the chosen site, so give the budget room for the far edge.
    report = run_raw(raw)
    assert report["bearers"]["b1"]["delivered"] > 0


def test_split_mode_with_finite_credit():
    raw = base_raw()
    raw["mode"] = "split_baseline"
    raw["split"] = {"d_f1_us": 1000, "credit_bytes": 2000}
    report = run_raw(raw)
    b = report["bearers"]["b1"]
    assert b["delivered"] > 500
    assert report["conservation"]["b1"]["holds"]
    # The F1 hop and credit round trip add visible latency over 6G mode.
    base = run_raw(base_raw())
    assert b["latency_us"]["p50"] > base["bearers"]["b1"]["latency_us"]["p50"]


def test_nonreliable_mode_recovers_via_status_reports():
    raw = base_raw()
    raw["reliable_harq"] = False
    raw["harq"] = {"max_tx": 2}
    raw["bler"] = {"default": 0.3}
    report = run_raw(raw)
    b = report["bearers"]["b1"]
    assert report["tb_failed_final"] > 0  # HARQ gave up on some TBs
    assert b["delivered"] > 0
    assert report["conservation"]["b1"]["holds"]


def test_ecn_bearer_marks_instead_of_dropping():
    raw = base_raw()
    # Offered load ~3x capacity: 50 prbs * 100 B / 500 us = 10 MB/s.
    raw["bearers"][0]["ecn_capable"] = True
    raw["bearers"][0]["traffic"] = {
        "pattern": "ConstantBitRate", "rate_bytes_per_s": 30_000_000,
        "sdu_bytes": 1500, "congestion_law": "L4S", "rtt_window_us": 20_000,
    }
    report = run_raw(raw)
    b = report["bearers"]["b1"]
    assert b["ce_marks"] > 0 and b["aqm_drops"] == 0
    assert report["ce_signal_times"].get("b1") is not None


def test_classic_bearer_front_drops_under_overload():
    raw = base_raw()
    raw["bearers"][0]["traffic"] = {
        "pattern": "ConstantBitRate", "rate_bytes_per_s": 30_000_000,
        "sdu_bytes": 1500, "congestion_law": "Classic",
        "rtt_window_us": 20_000,
    }
    report = run_raw(raw)
    b = report["bearers"]["b1"]
    assert b["aqm_drops"] > 0 and b["ce_marks"] == 0
    assert report["drop_echo_times"].get("b1") is not None
    assert report["conservation"]["b1"]["holds"]


def test_migration_script_changes_path_and_pauses():
    raw = base_raw(duration_us=400_000)
    raw["script"] = [{"at_us": 200_000, "action": "migrate",
                      "instance": "up2", "site": "edge-1"}]
    report = run_raw(raw)
    migs = report["migrations"]
    assert len(migs) == 1 and migs[0]["accepted"]
    # Path through the far edge raises per-packet latency afterwards.
    assert report["bearers"]["b1"]["latency_us"]["p100"] >= 4000


def test_energy_policy_injection_mid_run():
    raw = base_raw()
    raw["script"] = [{"at_us": 100_000, "action": "policy",
                      "policy": {"id": "pol-1", "scope": "global",
                                 "directive": "EnergySaving",
                                 "params": {"on": True}}}]
    report = run_raw(raw)
    assert report["bearers"]["b1"]["delivered"] > 0


def test_set_bler_script_degrades_link():
    raw = base_raw()
    raw["script"] = [{"at_us": 250_000, "action": "set_bler", "ue": "u1",
                      "ru": "ru1", "carrier": "c1", "bler": 0.9}]
    report = run_raw(raw)
    assert report["tb_transmitted"] > 0
    # Heavy retransmission kicks in after the degradation.
    assert report["bearers"]["b1"]["latency_us"]["p100"] > \
        report["bearers"]["b1"]["latency_us"]["p50"]


# ---------------------------------------------------------------- CLI

def test_cli_validate_run_sweep_emit(tmp_path, capsys):
    scen = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                        "smoke.yaml")
    assert cli.main(["validate", scen]) == 0
    out_dir = str(tmp_path / "run")
    assert cli.main(["run", scen, "--out-dir", out_dir, "--duration",
                     "200000"]) == 0
    assert os.path.exists(os.path.join(out_dir, "summary.json"))
    assert os.path.exists(os.path.join(out_dir, "resolved-config.yaml"))
    assert os.path.exists(os.path.join(out_dir, "tti-series.csv"))
    assert cli.main(["emit", os.path.join(out_dir, "summary.json")]) == 0
    capsys.readouterr()
    assert cli.main(["sweep", scen, "--axis", "split.d_f1_us=0,1000",
                     "--mode", "split_baseline"]) == 0
    out = capsys.readouterr().out
    assert "p99_us" in out


def test_cli_validate_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("duration_us: -5\nsites: []\n")
    assert cli.main(["validate", str(bad)]) == 1
    assert "invalid scenario" in capsys.readouterr().out


def test_summary_numbers_reproducible_from_series(tmp_path):
    raw = base_raw()
    raw["record"] = {"grants": False, "tti_series": True, "series_stride": 1}
    cfg = cfgmod.validate_scenario(raw)
    rt = Runtime(cfg)
    report = rt.run()
    # PRB utilization in the summary equals the aggregate of the series.
    utils = [u for _, u, _ in rt.metrics.tti_series]
    key = "ru1/c1"
    offered = report["prb_utilization"][key]["offered_prbs"]
    granted = report["prb_utilization"][key]["granted_prbs"]
    assert offered == 50 * len(utils)
    assert granted == pytest.approx(sum(u * 50 for u in utils))


def three_cell_raw():
    """Three fully meshed cells, four UEs with one bearer per slice each,
    and handovers that move UEs away, between and back."""
    cells = ("a", "b", "c")
    raw = {
        "seed": 17,
        "duration_us": 200_000,
        "tti_us": 500,
        "handover_interruption_us": 2_000,
        "cn_entry_site": "cell-a",
        "sites": [{"id": f"cell-{c}", "kind": "OnPrem", "cpu_capacity": 100}
                  for c in cells],
        "links": [{"a": "cell-a", "b": "cell-b", "latency_us": 1000},
                  {"a": "cell-a", "b": "cell-c", "latency_us": 1000},
                  {"a": "cell-b", "b": "cell-c", "latency_us": 1000}],
        "carriers": [{"id": "c1", "prbs_per_tti": 20, "bytes_per_prb": 100}],
        "rus": [{"id": f"ru-{c}", "site": f"cell-{c}", "carriers": ["c1"]}
                for c in cells],
        "ranfs": [{"id": f"rf-{c}", "site": f"cell-{c}", "rus": [f"ru-{c}"],
                   "neighbors": [f"rf-{o}" for o in cells if o != c]}
                  for c in cells],
        "slices": [{"id": "I"}, {"id": "II"}],
        "placement": (
            [{"id": f"rrm-{c}", "kind": "RRM", "site": f"cell-{c}"}
             for c in cells]
            + [{"id": f"fhm-{c}", "kind": "FHM", "site": f"cell-{c}",
                "bound_ru": f"ru-{c}"} for c in cells]
            + [{"id": f"phy-{c}", "kind": "PHY", "site": f"cell-{c}",
                "slice": "I"} for c in cells]
            + [{"id": "rrc1", "kind": "RRC", "site": "cell-a", "slice": "I"},
               {"id": "up1", "kind": "UP", "site": "cell-a", "slice": "I"},
               {"id": "rrc2", "kind": "RRC", "site": "cell-a", "slice": "II"},
               {"id": "up2", "kind": "UP", "site": "cell-a", "slice": "II"},
               {"id": "phy2", "kind": "PHY", "site": "cell-a",
                "slice": "II"}]),
        "ues": [{"id": "u1", "ranf": "rf-a"}, {"id": "u2", "ranf": "rf-a"},
                {"id": "u3", "ranf": "rf-b"}, {"id": "u4", "ranf": "rf-c"}],
        "bearers": [],
        "script": [
            {"at_us": 40_000, "action": "handover", "ue": "u1", "dst": "rf-b"},
            {"at_us": 60_000, "action": "handover", "ue": "u3", "dst": "rf-c"},
            {"at_us": 90_000, "action": "handover", "ue": "u1", "dst": "rf-c"},
            {"at_us": 120_000, "action": "handover", "ue": "u4",
             "dst": "rf-a"},
            {"at_us": 150_000, "action": "handover", "ue": "u1",
             "dst": "rf-a"},
        ],
    }
    # Interleave the UEs in config order so that an index that merely
    # appends on handover would get the order wrong.
    for kind, latency, reliability in (("mc", 5_000, 1 - 1e-8),
                                       ("mod", 100_000, 0.999)):
        for ue in ("u2", "u1", "u4", "u3"):
            raw["bearers"].append({
                "id": f"b-{kind}-{ue}", "ue": ue, "latency_req_us": latency,
                "reliability_req": reliability,
                "traffic": {"pattern": "Poisson", "rate_bytes_per_s": 100_000,
                            "sdu_bytes": 500},
            })
    return raw


def assert_ranf_index_matches_scan(rt):
    for rf_id in rt.topology.ranfs:
        assert rt.ues_by_ranf[rf_id] == sorted(
            u for u in rt.ues if rt.ues[u].ranf == rf_id)
        indexed = rt.bearers_by_ranf[rf_id]
        for sl in set(rt.slice_ids) | set(indexed):
            assert indexed.get(sl, []) == [
                c for c in rt.bearers.values()
                if rt.ues[c.ue].ranf == rf_id and c.slice == sl], (rf_id, sl)


def test_ranf_index_follows_handovers():
    rt = Runtime(cfgmod.validate_scenario(three_cell_raw()))
    assert_ranf_index_matches_scan(rt)
    for t in (50_000, 100_000, 130_000, 160_000):
        rt.sim.run_until(t)
        assert_ranf_index_matches_scan(rt)
    report = rt.run()
    assert_ranf_index_matches_scan(rt)
    assert [h["accepted"] for h in report["handovers"]] == [True] * 5
    assert rt.ues_by_ranf == {"rf-a": ["u1", "u2", "u4"], "rf-b": [],
                              "rf-c": ["u3"]}
    assert sum(b["delivered"] for b in report["bearers"].values()) > 0


def test_empty_buffer_with_retx_or_drop_indication_still_requests(
        monkeypatch):
    original = runtime.stage1_with_extras
    requests = []

    def recording(items, now, class_weights):
        reqs = original(items, now, class_weights)
        requests.append({r.bearer_id: r for r in reqs})
        return reqs

    monkeypatch.setattr(runtime, "stage1_with_extras", recording)
    raw = base_raw()
    raw["bearers"][0]["traffic"]["start_us"] = 400_000
    rt = Runtime(cfgmod.validate_scenario(raw))
    ranf = rt.topology.ranfs["rf-a"]
    ctx = rt.bearers["b1"]
    assert not ctx.buffer.queue

    rt._tti_for_ranf(ranf, 500)
    assert requests[-1] == {}

    ctx.rlc.retx_queue.append(stack.Segment(0, 0, 300, is_retx=True))
    rt._tti_for_ranf(ranf, 1000)
    assert requests[-1]["b1"].buffered_bytes == 300 + stack.SEG_HEADER_BYTES
    ctx.rlc.retx_queue.clear()

    ctx.rlc.pending_drop_indications.append(0)
    rt._tti_for_ranf(ranf, 1500)
    assert requests[-1]["b1"].buffered_bytes == stack.DROP_IND_BYTES
