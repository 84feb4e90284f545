import copy
import csv
import json
import os
import subprocess
import sys

import pytest
import yaml

from ransim import config as cfgmod
from ransim import cli, radio, runtime, sched, stack
from ransim import topology as topo
from ransim.core import ModelError, RngRegistry, Simulator
from ransim.metrics import BearerMetrics, write_tti_series_csv
from ransim.runtime import Runtime, run_scenario
from energy_oracle import record_transitions, replay_energy
from test_acceptance import _handover_raw, _subnet_raw
from test_golden import (_ecn_overload_raw, _energy_policy_raw, _set_bler_raw,
                         _split_handover_raw, _split_lossy_raw,
                         _split_ranfs_raw, event_counts, wrap_each_event)

SMOKE = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                     "smoke.yaml")


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


def test_migration_of_an_auto_placed_instance():
    raw = base_raw()
    raw["slices"] = [{"id": "II", "auto_place": True,
                      "latency_budget_us": 100_000}]
    raw["placement"] = [p for p in raw["placement"]
                        if p["id"] in ("rrm", "fhm1", "cpr")]
    raw["script"] = [{"at_us": 200_000, "action": "migrate",
                      "instance": "slice-II-up", "site": "edge-1"}]
    [mig] = run_raw(raw)["migrations"]
    assert (mig["instance"], mig["src"], mig["dst"], mig["accepted"]) \
        == ("slice-II-up", "cell-a", "edge-1", True)


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


def smoke_raw():
    with open(SMOKE) as fh:
        return yaml.safe_load(fh)


def test_ecn_overload_discards_at_ingress():
    # b-mod offered 30 MB/s against 12 kB per 500 us TTI: without AQM drops
    # the in-flight count reaches half the SN space.
    report = run_raw(_ecn_overload_raw())
    assert report["bearers"]["b-mod"]["ingress_dropped"] > 0
    cons = report["conservation"]["b-mod"]
    assert cons["holds"] and cons["in_flight_at_end"] <= stack.SN_WINDOW


def test_dead_link_discards_at_ingress_before_sn_wraps():
    # Every transmission fails and RLC retries forever, so the oldest PDUs
    # stay live while AQM front-drops the rest: few PDUs are live, but the
    # SN span from the oldest one reaches half the SN space.
    raw = smoke_raw()
    raw["duration_us"] = 2_000_000
    raw["bler"] = {"default": 1.0}
    rt = Runtime(cfgmod.validate_scenario(raw))
    report = rt.run()
    assert report["bearers"]["b-mod"]["ingress_dropped"] > 0
    assert report["bearers"]["b-mod"]["aqm_drops"] > 0
    assert all(c["holds"] for c in report["conservation"].values())
    ctx = rt.bearers["b-mod"]
    assert all(1 <= stack.sn_delta(sn, ctx.bearer.tx_sn_next)
               <= stack.SN_WINDOW for sn in ctx.live)


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
                      "policy": {"id": "pol-1", "directive": "EnergySaving",
                                 "params": {"on": True}}}]
    report = run_raw(raw)
    assert report["bearers"]["b1"]["delivered"] > 0


def test_set_bler_script_degrades_link():
    report = run_raw(_set_bler_raw())
    assert report["tb_transmitted"] > 0
    # Heavy retransmission kicks in after the degradation.
    assert report["bearers"]["b1"]["latency_us"]["p100"] > \
        report["bearers"]["b1"]["latency_us"]["p50"]


def test_zero_rate_bearer_schedules_one_traffic_event(monkeypatch):
    """A source of rate 0 stays at 0 (no congestion law raises a rate above
    its nominal one), so its first ``traffic`` event is its last."""
    kinds = []
    schedule = Simulator.schedule

    def counting(sim, fire_at, kind, target, fn):
        kinds.append(kind)
        schedule(sim, fire_at, kind, target, fn)

    monkeypatch.setattr(Simulator, "schedule", counting)
    raw = base_raw()
    raw["bearers"][0]["traffic"].update(rate_bytes_per_s=0,
                                        congestion_law="Classic")
    report = run_raw(raw)
    assert kinds.count("traffic") == 1
    assert report["bearers"]["b1"]["packets_in"] == 0
    assert kinds.count("cc-window") == 500_000 // 50_000


def test_subnet_traffic_stops_before_stop_us():
    """A sub-network source sends at ``start_us + k * period_us`` while
    that time is before ``stop_us``."""
    for stop, sent in ((10_000, 10), (10_001, 11)):
        raw = _subnet_raw()
        raw["subnetworks"][0]["local_traffic"][0]["stop_us"] = stop
        raw["subnetworks"][0]["nonlocal_traffic"] = []
        assert run_raw(raw)["subnetworks"]["sn1"]["local_delivered"] == sent


def _carrier_aggregation_raw():
    """One RU with two 10-PRB carriers, overloaded by a 6 MB/s bearer, so
    that the bearer often gets a grant on each carrier in one TTI."""
    raw = base_raw(duration_us=300_000)
    raw["carriers"] = [{"id": c, "prbs_per_tti": 10, "bytes_per_prb": 100}
                       for c in ("c1", "c2")]
    raw["rus"][0]["carriers"] = ["c1", "c2"]
    raw["bearers"][0]["traffic"]["rate_bytes_per_s"] = 6_000_000
    return raw


def test_each_grant_runs_aqm_on_the_head_it_finds():
    """The first grant of a TTI sends the head that stage 1's AQM pass saw;
    the AQM pass of the second grant acts on the new head.  Without that
    pass the same runs read 597 marks and 53 drops."""
    raw = _carrier_aggregation_raw()
    raw["bearers"][0]["ecn_capable"] = True
    ecn = run_raw(raw)["bearers"]["b1"]
    raw = _carrier_aggregation_raw()
    raw["aqm"] = {"drop_threshold_us": 2_000}
    dropping = run_raw(raw)["bearers"]["b1"]
    assert (ecn["ce_marks"], ecn["delivered"]) == (1193, 2358)
    assert (dropping["aqm_drops"], dropping["delivered"]) == (112, 2358)


def test_cli_does_not_import_numpy():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, ransim.cli; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True).stdout
    assert out.strip() == "False"


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
    with open(os.path.join(out_dir, "tti-series.csv")) as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["t_us", "ranf", "prb_utilization",
                      "max_head_sojourn_us"]
    with open(scen) as fh:
        ranfs = sorted(rf["id"] for rf in yaml.safe_load(fh)["ranfs"])
    # Every TTI has one row per RANF, in time order, then RANF order.
    assert [(int(t), rf) for t, rf, _, _ in rows] == [
        (t, rf) for t in range(500, 200_001, 500) for rf in ranfs]
    assert cli.main(["emit", os.path.join(out_dir, "summary.json")]) == 0
    capsys.readouterr()
    assert cli.main(["sweep", scen, "--axis", "split.d_f1_us=0,1000",
                     "--mode", "split_baseline"]) == 0
    out = capsys.readouterr().out
    assert "p99_us" in out
    sweep_dir = tmp_path / "sweep"
    assert cli.main(["sweep", scen, "--axis", "seed=1,2",
                     "--out-dir", str(sweep_dir)]) == 0
    for seed in (1, 2):
        with open(sweep_dir / f"seed={seed}" / "tti-series.csv") as fh:
            assert len(list(csv.reader(fh))) == 1 + 2000 * len(ranfs)


def test_run_without_output_keeps_no_tti_series():
    rt = Runtime(cfgmod.validate_scenario(base_raw()))
    rt.run()
    assert rt.metrics.tti_series == {}


def test_latencies_are_kept_as_a_histogram():
    """Each bearer's histogram counts every delivered SDU once, and no
    container in its metrics holds an entry per delivered SDU."""
    rt = Runtime(cfgmod.parse_scenario(SMOKE))
    rt.run()
    for bm in rt.metrics.bearers.values():
        assert bm.delivered > 100
        assert sum(bm.latency_counts.values()) == bm.delivered
        assert len(bm.latencies) == bm.delivered
        for name in BearerMetrics.__slots__:
            value = getattr(bm, name)
            if hasattr(value, "__len__"):
                assert len(value) < bm.delivered / 10, name


def test_sdus_of_a_released_ue_are_residual_not_duplicates():
    """``u2``'s release counts its live SDUs residual; those still on the
    air are delivered afterwards and are not counted again."""
    rt = Runtime(cfgmod.validate_scenario(_split_handover_raw()))
    late = []
    deliver = rt._deliver_sdus

    def recording(ctx, delivered, now):
        if ctx.ue_ctx.released:
            late.extend(sn for sn, _ in delivered)
        deliver(ctx, delivered, now)

    rt._deliver_sdus = recording
    report = rt.run()
    assert late and rt.ues["u2"].released
    assert report["bearers"]["b2"]["duplicates"] == 0
    assert report["bearers"]["b2"]["residual"] > 0


def test_run_scenario_writes_nothing_to_stdout_or_stderr(capfd):
    capfd.readouterr()
    run_scenario(cfgmod.parse_scenario(SMOKE))
    assert capfd.readouterr() == ("", "")


def test_cli_validate_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("duration_us: -5\nsites: []\n")
    assert cli.main(["validate", str(bad)]) == 1
    assert "invalid scenario" in capsys.readouterr().out


def test_cli_run_exit_codes(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("duration_us: 1000\nsites: [{id: cell-a}]\n")
    assert cli.main(["run", str(bad)]) == 1
    assert "kind" in capsys.readouterr().err

    def model_error(cfg, out_dir):
        raise ModelError("invariant broken")

    monkeypatch.setattr(cli, "_run_one", model_error)
    assert cli.main(["run", SMOKE]) == 2


def run_cli_on(raw, tmp_path):
    """``ransim run`` on ``raw`` written to a file, after ``validate``
    accepts it; the exit code."""
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert cli.main(["validate", str(path)]) == 0
    return cli.main(["run", str(path)])


def test_missing_site_link_at_set_up_is_a_config_error(tmp_path, capsys):
    """``smoke.yaml`` without links: slice II's UP at edge-1 needs the link
    to cell-a for its path and its stage-1 latency."""
    with open(SMOKE) as fh:
        raw = yaml.safe_load(fh)
    raw["links"] = []
    assert run_cli_on(raw, tmp_path) == 1
    assert "no link between sites cell-a and edge-1" in capsys.readouterr().err


def test_missing_site_link_at_a_handover_is_a_config_error(tmp_path,
                                                          capsys):
    """``three_cell_raw`` without the cell-b <-> cell-c link: set-up needs
    only the links to cell-a, but u3's handover from rf-b to its neighbour
    rf-c at 60 ms needs that one."""
    raw = three_cell_raw()
    raw["links"] = [link for link in raw["links"]
                    if {link["a"], link["b"]} != {"cell-b", "cell-c"}]
    Runtime(cfgmod.validate_scenario(copy.deepcopy(raw)))  # set-up passes
    assert run_cli_on(raw, tmp_path) == 1
    assert "no link between sites cell-b and cell-c" in capsys.readouterr().err


def test_cli_injected_policy_validated_before_run(tmp_path, monkeypatch,
                                                  capsys):
    policy = tmp_path / "prefer.yaml"
    policy.write_text("{id: p1, directive: PreferSite, "
                      "params: {kind: UP, site_kind: OnPrem}}\n")

    def no_run(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "Runtime", no_run)
    assert cli.main(["run", SMOKE, "--policy", f"{policy}@1000"]) == 1
    assert "PreferSite" in capsys.readouterr().err


def test_summary_numbers_reproducible_from_series(tmp_path):
    # One RANF, then three RANFs with handovers between them.
    for raw in (base_raw(), three_cell_raw()):
        cfg = cfgmod.validate_scenario(raw)
        rt = Runtime(cfg, record_series=True)
        report = rt.run()
        prbs = {c["id"]: c["prbs_per_tti"] for c in cfg["carriers"]}
        ru_carriers = {r["id"]: r["carriers"] for r in cfg["rus"]}
        pools_of = {rf["id"]: [f"{ru}/{c}" for ru in rf["rus"]
                               for c in ru_carriers[ru]]
                    for rf in cfg["ranfs"]}
        series = rt.metrics.tti_series
        assert sorted(series) == sorted(pools_of)
        rows_of = {rf_id: [(t, u) for t, u, _ in rows]
                   for rf_id, rows in series.items()}
        # One row per RANF per TTI, each filed under its RANF.
        times = [t for t, _ in rows_of["rf-a"]]
        assert len(times) == cfg["duration_us"] // cfg["tti_us"]
        for rf_id, rows in rows_of.items():
            assert [t for t, _ in rows] == times
        # Each RANF's PRB utilization in the summary equals the aggregate of
        # that RANF's rows over that RANF's pools.
        util_report = report["prb_utilization"]
        for rf_id, keys in pools_of.items():
            per_tti = sum(prbs[k.split("/")[1]] for k in keys)
            utils = [u for _, u in rows_of[rf_id]]
            for k in keys:
                assert util_report[k]["offered_prbs"] \
                    == prbs[k.split("/")[1]] * len(utils)
            granted = sum(util_report[k]["granted_prbs"] for k in keys)
            assert granted == pytest.approx(sum(u * per_tti for u in utils))
        # The CSV interleaves the RANFs' rows by time, each labelled.
        path = tmp_path / "tti-series.csv"
        write_tti_series_csv(series, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))[1:]
        util_at = {rf_id: dict(pairs) for rf_id, pairs in rows_of.items()}
        assert [(int(t), rf, float(u)) for t, rf, u, _ in rows] == [
            (t, rf, pytest.approx(util_at[rf][t], abs=1e-6))
            for t in times for rf in sorted(rows_of)]


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


def has_data(ctx):
    return bool(ctx.buffer.queue or ctx.rlc.retx_queue
                or ctx.rlc.pending_drop_indications)


def assert_active_sets_match_scan(rt):
    """Every live-UE bearer with data is in its RANF's active set for its
    slice, and every member of a set belongs there (brute-force scan).
    Likewise every queue in ``cu_backlog`` holds PDUs, and no released UE's
    bearer holds any, at the CU or in its DU buffer."""
    assert all(rt.cu_backlog.values()), rt.sim.now
    assert not any(rt.ues[ctx.ue].released for ctx in rt.cu_backlog), \
        rt.sim.now
    assert not any(ctx.buffer.queue for ctx in rt.bearers.values()
                   if rt.ues[ctx.ue].released), rt.sim.now
    for rf_id, by_slice in rt.active_sets.items():
        for sl, members in by_slice.items():
            for ctx in members:
                assert rt.ues[ctx.ue].ranf == rf_id and ctx.slice == sl, \
                    (ctx.bearer.id, rf_id, sl)
                assert ctx.in_active_set and ctx.active_set is members
    for ctx in rt.bearers.values():
        ue = rt.ues[ctx.ue]
        home = rt.active_sets[ue.ranf].get(ctx.slice, {})
        assert ctx.active_set is home, ctx.bearer.id
        assert ctx.in_active_set == (ctx in home), ctx.bearer.id
        if not ue.released and has_data(ctx):
            assert ctx in home, (rt.sim.now, ctx.bearer.id)


def run_checking_each_event(rt, check):
    """Run to the end, calling ``check(rt)`` after every event handler."""
    def checked(_kind, fn):
        def handler():
            fn()
            check(rt)
        return handler

    wrap_each_event(rt, checked)
    return rt.run()


def lossy_reliable_raw():
    """Reliable HARQ that gives up at max_tx, so TBs go back to RLC."""
    raw = base_raw(harq={"max_tx": 2}, bler={"default": 0.5})
    raw["bearers"][0]["traffic"] = {"pattern": "Poisson",
                                    "rate_bytes_per_s": 400_000,
                                    "sdu_bytes": 500}
    return raw


def test_ranf_index_follows_handovers():
    rt = Runtime(cfgmod.validate_scenario(three_cell_raw()))
    assert_active_sets_match_scan(rt)
    report = run_checking_each_event(rt, assert_active_sets_match_scan)
    assert [h["accepted"] for h in report["handovers"]] == [True] * 5
    assert {u: ue.ranf for u, ue in rt.ues.items()} == {
        "u1": "rf-a", "u2": "rf-a", "u3": "rf-c", "u4": "rf-a"}
    assert sum(b["delivered"] for b in report["bearers"].values()) > 0


def test_handover_moves_only_its_ues_bearers():
    """A handover leaves every active-set dict in place, and each one's
    members other than the UE's own bearers, in their order."""
    rt = Runtime(cfgmod.validate_scenario(three_cell_raw()))
    moved = []
    do_handover = rt._do_handover

    def handover(ue_id, dst_id, now):
        def others():
            return {(rf, sl): (members, [c for c in members if c.ue != ue_id])
                    for rf, by_slice in rt.active_sets.items()
                    for sl, members in by_slice.items()}

        before = others()
        do_handover(ue_id, dst_id, now)
        after = others()
        assert set(before) <= set(after)
        for key, (members, rest) in before.items():
            assert after[key][0] is members and after[key][1] == rest, key
        moved.append(sum(c.in_active_set for c in rt.ues[ue_id].bearers))

    rt._do_handover = handover
    run_checking_each_event(rt, assert_active_sets_match_scan)
    assert len(moved) == 5 and any(moved), moved


@pytest.mark.parametrize("make_raw", [_split_lossy_raw, lossy_reliable_raw,
                                      _split_handover_raw],
                         ids=["split-lossy", "reliable-lossy",
                              "split-handover"])
def test_active_sets_hold_every_bearer_with_data_after_each_event(make_raw):
    rt = Runtime(cfgmod.validate_scenario(make_raw()))
    report = run_checking_each_event(rt, assert_active_sets_match_scan)
    assert all(c["holds"] for c in report["conservation"].values())
    assert sum(b["delivered"] for b in report["bearers"].values()) > 0


def test_receiver_holds_no_partial_pdu_of_a_passed_or_stashed_sn():
    """Segments of SNs already delivered, stashed or given up at
    t-reordering do not stay in reassembly."""
    rt = Runtime(cfgmod.validate_scenario(_split_lossy_raw()))
    rt.run()
    stale = {}
    for bid, ctx in rt.bearers.items():
        reorder = ctx.reorder
        stale[bid] = [sn for sn in reorder.reassembly.partial
                      if stack.sn_lt(sn, reorder.expected_sn)
                      or sn in reorder.stash]
    assert stale == dict.fromkeys(rt.bearers, [])


def test_only_a_status_report_that_can_act_is_sent(monkeypatch):
    """Each report sent names a missing SN or finds an SN of the RLC window
    before its ack point when it is built; the others are not sent."""
    built = []
    status_report = stack.ReorderState.status_report

    def counting(reorder, *args):
        built.append(reorder)
        return status_report(reorder, *args)

    monkeypatch.setattr(stack.ReorderState, "status_report", counting)
    rt = Runtime(cfgmod.validate_scenario(_split_lossy_raw()))
    sent = []
    schedule = rt.sim.schedule

    def checked(fire_at, kind, target, fn):
        if kind == "rlc-status-rx":
            for ctx, ack_point, missing in fn.args[0]:
                assert missing or any(stack.sn_lt(sn, ack_point)
                                      for sn in ctx.rlc.window), rt.sim.now
                sent.append(bool(missing))
        schedule(fire_at, kind, target, fn)

    rt.sim.schedule = checked
    rt.run()
    assert 0 < len(sent) < len(built), (len(sent), len(built))
    assert True in sent and False in sent


def test_status_tick_and_f1_messages_are_one_event_for_all_bearers():
    """32 bearers: one RLC status event per interval, not one per bearer;
    at most one F1 status per TTI and one F1 data per status; one status
    arrival per tick and uplink latency at most."""
    cfg = cfgmod.validate_scenario(_split_ranfs_raw())
    delays = set(Runtime(cfg).path_lat.values())
    assert len(delays) > 1
    counts = event_counts(cfgmod.validate_scenario(_split_ranfs_raw()))
    ticks = cfg["duration_us"] // cfg["rlc"]["status_interval_us"]
    assert counts["rlc-status"] == ticks == 40
    assert 0 < counts["f1-status"] <= counts["tti"]
    assert 0 < counts["f1-data"] <= counts["f1-status"]
    assert 0 < counts["rlc-status-rx"] <= ticks * len(delays)


def test_empty_buffer_with_retx_or_drop_indication_still_requests(
        monkeypatch):
    original = runtime.stage1_with_extras
    requests = []

    def recording(items, class_weights):
        reqs = original(items, class_weights)
        requests.append({r[1]: r for r in reqs})
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

    # One PDU goes out whole and waits in the RLC window; the next TTI finds
    # the bearer idle.  A status report that misses the PDU queues its
    # retransmission while the buffer stays empty.
    rt._ingress(ctx, 300, 1000)
    rt._tti_for_ranf(ranf, 1000)
    rt._tti_for_ranf(ranf, 1500)
    assert requests[-1] == {} and not ctx.buffer.queue
    assert list(ctx.rlc.window) == [0]
    rt._apply_status([(ctx, 0, [0])])
    rt._tti_for_ranf(ranf, 2000)
    assert requests[-1]["b1"][4] == 300 + stack.SEG_HEADER_BYTES
    assert not ctx.rlc.retx_queue

    # A head PDU past the AQM drop threshold is front-dropped; its drop
    # indication alone makes the request.
    rt._ingress(ctx, 300, 2500)
    rt._tti_for_ranf(ranf, 2500 + rt.cfg["aqm"]["drop_threshold_us"] + 500)
    assert ctx.metrics.aqm_drops == 1 and not ctx.buffer.queue
    assert requests[-1]["b1"][4] == stack.DROP_IND_BYTES


def test_serving_set_outside_the_ranf_is_an_anchor_violation(monkeypatch):
    def foreign(rt, ue_id, ranf_id):
        return radio.ServingSet(ue_id, ["ru-b" if ranf_id == "rf-a"
                                        else "ru-a"])

    cfg = cfgmod.validate_scenario(three_cell_raw())
    with monkeypatch.context() as m:
        m.setattr(Runtime, "_select_serving", foreign)
        with pytest.raises(sched.UlAnchorViolation, match="u1"):
            Runtime(cfg)

    # At handover: u1 moves to rf-b at 40 ms and is given rf-a's RU.
    rt = Runtime(cfgmod.validate_scenario(three_cell_raw()))
    rt._select_serving = lambda ue_id, ranf_id: foreign(rt, ue_id, ranf_id)
    with pytest.raises(sched.UlAnchorViolation, match="RANF rf-b"):
        rt.run()
    assert rt.sim.now == 40_000


def test_last_energy_saving_policy_applied_decides_ru_states():
    raw = base_raw()
    raw["bearers"][0]["traffic"]["stop_us"] = 50_000
    raw["script"] = [
        {"at_us": 100_000, "action": "policy",
         "policy": {"id": "es-on", "directive": "EnergySaving",
                    "params": {"on": True}}},
        {"at_us": 200_000, "action": "policy",
         "policy": {"id": "es-off", "directive": "EnergySaving",
                    "params": {"on": False}}},
    ]
    rt = Runtime(cfgmod.validate_scenario(raw))
    rt.sim.run_until(150_000)
    assert rt.meter.state("ru:ru1") == "Sleep"
    rt.sim.run_until(250_000)
    assert rt.meter.state("ru:ru1") == "Idle"


def test_last_min_slice_share_policy_decides(monkeypatch):
    """Stage 2 reserves the fraction of the last ``MinSliceShare`` policy
    applied for a slice, whatever came before it."""
    with open(SMOKE) as fh:
        raw = yaml.safe_load(fh)
    raw["duration_us"] = 400_000
    raw["script"] = [
        {"at_us": at, "action": "policy",
         "policy": {"id": pid, "directive": "MinSliceShare",
                    "params": {"slice": "I", "fraction": fraction}}}
        for at, pid, fraction in ((100_000, "p1", 0.3), (200_000, "p2", 0.1),
                                  (300_000, "p3", 0.5))]
    rt = Runtime(cfgmod.validate_scenario(raw))
    seen = {}  # fraction reserved for slice I -> first time stage 2 saw it
    allocate = sched.stage2_allocate

    def recording(requests, pools, resources_for, min_share=None):
        seen.setdefault((min_share or {}).get("I"), rt.sim.now)
        return allocate(requests, pools, resources_for, min_share=min_share)

    monkeypatch.setattr(sched, "stage2_allocate", recording)
    rt.run()
    assert seen == {None: 500, 0.3: 100_000, 0.1: 200_000, 0.5: 300_000}


def test_attach_by_script_gets_the_grant_at_once():
    """A sub-network attached by script gets its parent grant when it
    attaches and renews it each grant period, as one attached at set-up
    does.  Its packets need 2 PRBs or more: the 1-PRB autonomous pool
    alone delivers none of them."""
    raw = _subnet_raw()
    sn = raw["subnetworks"][0]
    sn.update(parent_ranf=None, parent_ru=None, autonomous_prbs=1)
    raw["script"] = [{"at_us": 100_000, "action": "attach_subnet",
                      "subnet": "sn1", "ranf": "rf-a", "ru": "ru1"}]
    report = run_raw(raw)["subnetworks"]["sn1"]
    assert report["grant_renewals"] == 10  # at 100 ms, then each 100 ms
    assert report["local_delivered"] == 1_000


def test_tti_loop_does_no_work_for_idle_bearers(monkeypatch):
    """Call counts, not timings: no grants besides the ones the report
    accounts, no transport block built for a bearer with nothing to send,
    and stage 1 never touches a bearer that never had data."""
    grants = []
    allocate = sched.stage2_allocate

    def counting(*args, **kwargs):
        result = allocate(*args, **kwargs)
        grants.extend(result)
        return result

    built = []
    build = stack.build_transport_block

    def checked_build(buffer, rlc, grant_bytes):
        assert buffer.queue or rlc.retx_queue or rlc.pending_drop_indications
        tb = build(buffer, rlc, grant_bytes)
        built.append(tb)
        return tb

    monkeypatch.setattr(sched, "stage2_allocate", counting)
    monkeypatch.setattr(stack, "build_transport_block", checked_build)

    raw = three_cell_raw()
    raw["script"] = []
    for ue in ("u1", "u3", "u4"):
        raw["bearers"].append({
            "id": f"b-idle-{ue}", "ue": ue, "latency_req_us": 100_000,
            "reliability_req": 0.999,
            "traffic": {"pattern": "Poisson", "rate_bytes_per_s": 100_000,
                        "sdu_bytes": 500, "start_us": 10_000_000}})
    rt = Runtime(cfgmod.validate_scenario(raw))

    class TouchCounter:
        def __init__(self, inner):
            self.inner = inner
            self.touches = 0

        def __getattr__(self, name):
            self.touches += 1
            return getattr(self.inner, name)

    idle = [rt.bearers[f"b-idle-{ue}"] for ue in ("u1", "u3", "u4")]
    for ctx in idle:
        ctx.buffer = TouchCounter(ctx.buffer)
    report = rt.run()

    assert grants and sum(g[4] for g in grants) == sum(
        u["granted_prbs"] for u in report["prb_utilization"].values())
    assert len(built) == report["tb_transmitted"] > 0
    assert all(not tb.empty for tb in built)
    assert [ctx.buffer.touches for ctx in idle] == [0, 0, 0]


def test_link_and_traffic_streams_are_fetched_lazily_and_once(monkeypatch):
    """Counts, not timings: set-up creates no ``link:``/``traffic:`` stream
    (creating them eagerly made set-up slower), and a run asks the registry
    for each of them once, then keeps the handle."""
    per_entity = ("link:", "traffic:")
    rt = Runtime(cfgmod.validate_scenario(three_cell_raw()))
    assert not [n for n in rt.rng._streams if n.startswith(per_entity)]

    asked = {}
    stream = RngRegistry.stream

    def counting(registry, name):
        asked[name] = asked.get(name, 0) + 1
        return stream(registry, name)

    monkeypatch.setattr(RngRegistry, "stream", counting)
    report = rt.run()
    fetched = {n: k for n, k in asked.items() if n.startswith(per_entity)}
    assert {n.split(":")[0] for n in fetched} == {"link", "traffic"}
    assert set(fetched.values()) == {1}
    assert len(fetched) == len(rt.bearers) + len(rt.ues)
    assert report["tb_transmitted"] > 0


def test_stale_request_in_old_ranf_pipe_gets_no_grant(monkeypatch):
    """A handover while the old RANF's stage-1 pipe still holds the UE's
    requests: once the UE resumes, the old RANF sees them, but the UE has no
    pool there, so it grants them nothing; the new RANF serves the UE."""
    raw = three_cell_raw()
    # The UP functions sit at cell-a, 3 ms from cell-b, so rf-b's requests
    # arrive 6 TTIs late; cell-b to cell-c is 0.5 ms, so the UE resumes
    # first.
    raw["links"] = [{"a": "cell-a", "b": "cell-b", "latency_us": 3000},
                    {"a": "cell-a", "b": "cell-c", "latency_us": 3000},
                    {"a": "cell-b", "b": "cell-c", "latency_us": 500}]
    raw["handover_interruption_us"] = 0
    raw["script"] = [{"at_us": 60_000, "action": "handover", "ue": "u3",
                      "dst": "rf-c"}]
    for b in raw["bearers"]:
        if b["ue"] == "u3":  # an SDU every TTI, so every request has data
            b["traffic"] = {"pattern": "ConstantBitRate",
                            "rate_bytes_per_s": 1_000_000, "sdu_bytes": 500}
    rt = Runtime(cfgmod.validate_scenario(raw))
    assert rt.ctrl_lat["rf-b"]["I"] == 3000

    stale_seen = []
    served_after = set()
    allocate = sched.stage2_allocate

    def checked(requests, pools, resources_for, **kwargs):
        grants = allocate(requests, pools, resources_for, **kwargs)
        [pool_ranf] = {rt.ru_to_ranf[ru] for ru, _ in pools.total}
        for r in requests:
            _, bearer_id, ue_id, _, _ = r
            ue = rt.ues[ue_id]
            if ue.ranf != pool_ranf and rt.sim.now >= ue.resume_at:
                stale_seen.append((rt.sim.now, bearer_id, pool_ranf))
                assert list(resources_for(r)) == []
                assert bearer_id not in {g[1] for g in grants}
        if rt.sim.now > 60_000:
            served_after.update((pool_ranf, g[1]) for g in grants)
        return grants

    monkeypatch.setattr(sched, "stage2_allocate", checked)
    report = rt.run()
    assert report["handovers"][0]["accepted"]
    assert {b for _, b, rf in stale_seen if rf == "rf-b"} \
        == {"b-mc-u3", "b-mod-u3"}
    assert {("rf-c", "b-mc-u3"), ("rf-c", "b-mod-u3")} <= served_after
    assert not [b for rf, b in served_after if rf == "rf-b" and "u3" in b]


def dmimo_handover_raw():
    """``three_cell_raw`` with two RUs per cell served jointly (D-MIMO)
    and energy saving on, so RUs sleep, wake and move with the UEs."""
    raw = three_cell_raw()
    raw.update(dmimo=True, energy=True)
    for c in ("a", "b", "c"):
        raw["rus"].append({"id": f"ru-{c}2", "site": f"cell-{c}",
                           "carriers": ["c1"]})
        raw["placement"].append({"id": f"fhm-{c}2", "kind": "FHM",
                                 "site": f"cell-{c}", "bound_ru": f"ru-{c}2"})
    for rf in raw["ranfs"]:
        rf["rus"].append(rf["rus"][0] + "2")
    return raw


def latency_budgets_short_raw():
    with open(os.path.join(os.path.dirname(SMOKE), "latency-budgets.yaml")) as fh:
        raw = yaml.safe_load(fh)
    raw["duration_us"] = 500_000
    return raw


@pytest.mark.parametrize("make_raw", [latency_budgets_short_raw,
                                      dmimo_handover_raw, _energy_policy_raw],
                         ids=["latency-budgets", "dmimo-handover", "energy"])
def test_energy_meter_is_called_only_on_transitions(make_raw, monkeypatch):
    """The recording wrapper asserts that each ``set_state`` call changes
    the state; the replayed joules equal the meter's.  Only RUs and UP, RRC
    and PHY functions ever sleep."""
    logs = record_transitions(monkeypatch)
    rt = Runtime(cfgmod.validate_scenario(make_raw()))
    report = rt.run()
    log = logs[rt.meter]
    assert len(log.transitions) > len(log.profiles)
    if make_raw is not latency_budgets_short_raw:
        assert all(h["accepted"] for h in report["handovers"])
        assert report["wake_delays"] > 0
        assert any(len(ue.serving_set.rus) == 2 for ue in rt.ues.values())
    sleepers = set(rt.ru_entity.values()) | {
        f"fn:{inst.id}" for inst in rt.plan.instances
        if inst.kind in (topo.UP, topo.RRC, topo.PHY)}
    slept = {entity for _t, entity, state in log.transitions
             if state == "Sleep"}
    assert slept <= sleepers
    assert bool(slept) == rt.cfg["energy"]
    assert replay_energy(log, rt.duration) == rt.meter.energy_j


def released_mid_run_raw():
    """``smoke.yaml`` with ue1 released at the 300 ms reassessment.  Slice
    II's UP is 2 ms from the RRM, so stage-1 requests sent before the
    release reach stage 2 after it."""
    with open(SMOKE) as fh:
        raw = yaml.safe_load(fh)
    raw["ues"][0]["trust"] = {"auth": 0.5, "history": 0.5, "anomaly": 0.0}
    raw["trust"] = {"reassess_interval_us": 100_000}
    raw["script"] = [{"at_us": 250_000, "action": "anomaly", "ue": "ue1",
                      "anomaly_score": 1.0}]
    return raw


def test_released_ue_in_flight_requests_get_no_grant(monkeypatch):
    granted = []  # (time, UE, released) of every grant
    allocate = sched.stage2_allocate

    def spy(*args, **kwargs):
        grants = allocate(*args, **kwargs)
        granted.extend((rt.sim.now, g[0], rt.ues[g[0]].released)
                       for g in grants)
        return grants

    monkeypatch.setattr(sched, "stage2_allocate", spy)
    rt = Runtime(cfgmod.validate_scenario(released_mid_run_raw()))
    assert rt.ctrl_lat["ranf-a"]["II"] == 2000
    report = rt.run()
    [release] = [e for e in report["audit_log"]
                 if e["ue"] == "ue1" and e["event"] == "Release"]
    assert release["at"] == 300_000
    assert granted and all(t <= release["at"] and not released
                           for t, _, released in granted)
    assert all(c["holds"] for c in report["conservation"].values())


def test_request_of_an_unadmitted_ue_not_released_raises():
    """Every path that clears admission also releases the UE, and stage 2
    grants a released UE nothing, so stage 2 checks admission only for the
    requests of UEs not released.  A UE unadmitted behind the runtime's
    back, while its CBR bearer has data every TTI, trips that check at the
    next TTI."""
    rt = Runtime(cfgmod.validate_scenario(base_raw()))
    assert rt.ctrl_lat["rf-a"]["II"] == 0  # requests reach stage 2 at once
    rt.sim.run_until(50_000)
    assert rt.metrics.tb_transmitted > 0
    rt.trust_engine.records["u1"].admitted = False
    with pytest.raises(ModelError, match="unadmitted UE u1"):
        rt.sim.run_until(60_000)
    assert rt.sim.now == 50_500 and not rt.ues["u1"].released


def counters(rt):
    """Every counter of the run: the collector's and each bearer's."""
    m = rt.metrics
    return ({k: v for k, v in vars(m).items() if isinstance(v, int)},
            {b: [getattr(bm, k) if isinstance(getattr(bm, k), int)
                 else len(getattr(bm, k)) for k in bm.__slots__]
             for b, bm in m.bearers.items()})


def test_stale_feedback_after_handover_is_ignored():
    """The target RANF loads a new TB into a slot before the feedback of
    the TB that the handover flushed from it fires (interruption and link
    both 0.5 ms, below the 2 ms HARQ RTT).  That feedback must change no
    counter, leave the new process alone and queue no retransmission, and
    no flushed process may be sent again."""
    raw = _handover_raw()
    raw["links"][0]["latency_us"] = 500
    raw["handover_interruption_us"] = 500
    raw["bler"] = {"default": 0.3}  # NACKs too, which would queue a retx
    raw["harq"] = {"processes": 4}
    # At this time the last two flushed slots are refilled before their
    # feedback fires, one ACK and one NACK.
    raw["script"][0]["at_us"] = 55_250
    rt = Runtime(cfgmod.validate_scenario(raw))
    assert rt.harq_rtt == 2_000
    ue = rt.ues["u1"]
    flushed = []  # the processes in flight at the handover
    stale = []  # (slot held a new process, ACK) of each stale feedback

    do_handover = rt._do_handover

    def handover(*args):
        flushed.extend(p for p in ue.harq if p is not None)
        do_handover(*args)

    on_feedback = rt._on_feedback

    def feedback(ue_, proc, success):
        if not any(proc is p for p in flushed):
            return on_feedback(ue_, proc, success)
        slots = list(ue.harq)
        tx = [p.tx_count for p in slots if p is not None]
        pending = {rf: list(q) for rf, q in rt.pending_retx.items()}
        before = counters(rt)
        on_feedback(ue_, proc, success)
        assert all(a is b for a, b in zip(ue.harq, slots))
        assert [p.tx_count for p in ue.harq if p is not None] == tx
        assert {rf: list(q) for rf, q in rt.pending_retx.items()} == pending
        assert counters(rt) == before
        stale.append((slots[proc.slot] is not None, success))

    transmit = rt._transmit

    def checked_transmit(proc, now):
        assert not any(proc is p for p in flushed), now
        transmit(proc, now)

    rt._do_handover = handover
    rt._on_feedback = feedback
    rt._transmit = checked_transmit
    report = rt.run()
    assert report["handovers"][0]["accepted"] and flushed
    assert len(stale) == len(flushed)
    assert (True, True) in stale and (True, False) in stale, stale
    assert all(c["holds"] for c in report["conservation"].values())


def test_harq_retransmission_that_does_not_fit_its_pool_raises():
    """The retransmissions due at a TTI were all sent one HARQ RTT earlier
    from fresh pools of the same size, so each one fits.  One that does not
    is a model error naming the UE and the pool, not a deferral."""
    rt = Runtime(cfgmod.validate_scenario(base_raw()))
    ue = rt.ues["u1"]
    key = ("ru1", "c1")
    oversized = rt.pool_templates["rf-a"].total[key] + 1
    proc = ue.harq[0] = stack.HarqProcess(
        stack.TransportBlock(), 0, key, oversized, rt.bearers["b1"])
    rt._on_feedback(ue, proc, False)  # a NACK queues the retransmission
    with pytest.raises(ModelError, match=r"UE u1 .* \('ru1', 'c1'\)"):
        rt._tti_for_ranf(rt.topology.ranfs["rf-a"], 0)


def test_retransmission_queued_before_a_release_is_not_sent():
    """Reassessment every 1 ms runs after the feedback of the 2 ms HARQ RTT
    and before the TTI at the same time, so the release at 104 ms comes
    while two NACKed TBs wait in the retransmission queue.  The release
    empties their slots, and neither is sent."""
    raw = base_raw(bler={"default": 0.5}, duration_us=150_000,
                   trust={"reassess_interval_us": 1_000})
    raw["ues"][0]["trust"] = {"auth": 0.5, "history": 0.5, "anomaly": 0.0}
    raw["script"] = [{"at_us": 103_250, "action": "anomaly", "ue": "u1",
                      "anomaly_score": 1.0}]
    rt = Runtime(cfgmod.validate_scenario(raw))
    queued = []  # the time of each retransmission queued at the release
    release_ue = rt._release_ue

    def release(ue, now):
        queued.extend(now for _ in rt.pending_retx.get("rf-a", ()))
        release_ue(ue, now)

    sent = []  # the time of each transmission
    transmit = rt._transmit

    def recording(proc, now):
        sent.append(now)
        transmit(proc, now)

    rt._release_ue = release
    rt._transmit = recording
    rt.run()
    assert queued == [104_000, 104_000]
    assert max(sent) < 104_000


def handover_branch_run(raw):
    """Run ``raw`` with u1's one handover at 40 ms; its record and ``rt``."""
    raw["script"] = [s for s in raw["script"]
                     if s["action"] != "handover" or s["at_us"] == 40_000]
    rt = Runtime(cfgmod.validate_scenario(raw))
    report = rt.run()
    assert all(c["holds"] for c in report["conservation"].values())
    [record] = report["handovers"]
    assert (record["ue"], record["src"], record["at"]) \
        == ("u1", "rf-a", 40_000)
    return record, rt


def test_handover_to_a_non_neighbor_is_refused():
    raw = three_cell_raw()
    # Neighbor relations are symmetric: drop rf-a <-> rf-b on both sides.
    raw["ranfs"][0]["neighbors"] = ["rf-c"]
    raw["ranfs"][1]["neighbors"] = ["rf-c"]
    record, rt = handover_branch_run(raw)
    assert not record["accepted"] and record["reason"] == "not a neighbor"
    assert rt.ues["u1"].ranf == "rf-a" and not rt.ues["u1"].released
    assert rt.metrics.bearers["b-mc-u1"].latencies


def test_handover_rejected_by_admission_releases_the_ue():
    raw = three_cell_raw()
    # Admitted at set-up (score 0.6); 0.4 once the anomaly hits, so the
    # target RANF's admission check rejects it.
    raw["ues"][0]["trust"] = {"auth": 0.5, "history": 0.5, "anomaly": 0.0}
    raw["script"].append({"at_us": 30_000, "action": "anomaly", "ue": "u1",
                          "anomaly_score": 1.0})
    record, rt = handover_branch_run(raw)
    assert not record["accepted"] and record["reason"] == "admission rejected"
    assert rt.ues["u1"].released and rt.ues["u1"].ranf == "rf-a"
    assert [(e.at, e.event, e.ranf) for e in rt.trust_engine.audit_log
            if e.ue == "u1"] == [(0, "Admit", "rf-a"), (40_000, "Reject", "rf-b")]


def test_handover_of_a_released_ue_is_refused():
    """u1 is released by the rejected handover at 40 ms; its anomaly score
    is then reset, but the handovers at 90 and 150 ms are refused before
    any admission check and leave no audit entry."""
    raw = three_cell_raw()
    raw["ues"][0]["trust"] = {"auth": 0.5, "history": 0.5, "anomaly": 0.0}
    raw["script"] += [{"at_us": 30_000, "action": "anomaly", "ue": "u1",
                       "anomaly_score": 1.0},
                      {"at_us": 60_000, "action": "anomaly", "ue": "u1",
                       "anomaly_score": 0.0}]
    rt = Runtime(cfgmod.validate_scenario(raw))
    report = rt.run()
    assert [(h["at"], h["accepted"], h["reason"])
            for h in report["handovers"] if h["ue"] == "u1"] \
        == [(40_000, False, "admission rejected"),
            (90_000, False, "UE released"), (150_000, False, "UE released")]
    assert [(e.at, e.event, e.ranf) for e in rt.trust_engine.audit_log
            if e.ue == "u1"] == [(0, "Admit", "rf-a"), (40_000, "Reject", "rf-b")]
    assert rt.ues["u1"].released and rt.ues["u1"].ranf == "rf-a"
    assert all(c["holds"] for c in report["conservation"].values())
