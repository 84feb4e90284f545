import copy
import glob
import hashlib
import json
import os
import re

import pytest
import yaml

from ransim import config as cfgmod
from ransim.runtime import run_scenario
from test_acceptance import SCENARIO_DIR, _subnet_raw
from test_golden import (_control_plane_raw, _ru_local_bf_raw,
                         _split_lossy_raw)


def minimal_raw():
    return {
        "duration_us": 10_000,
        "sites": [{"id": "cell-a", "kind": "OnPrem"}],
        "carriers": [{"id": "c1", "prbs_per_tti": 10, "bytes_per_prb": 100}],
        "rus": [{"id": "ru1", "site": "cell-a", "carriers": ["c1"]}],
        "ranfs": [{"id": "rf", "site": "cell-a", "rus": ["ru1"]}],
    }


def test_defaults_filled_in():
    cfg = cfgmod.validate_scenario(minimal_raw())
    assert cfg["tti_us"] == 500
    assert cfg["mode"] == cfgmod.MODE_SIXG
    assert cfg["harq"]["max_tx"] == 4
    assert cfg["aqm"]["drop_threshold_us"] == 50_000


def test_resolved_configs_do_not_share_mutable_defaults():
    fresh = cfgmod.validate_scenario(minimal_raw())
    expected = copy.deepcopy(fresh)
    edited = cfgmod.validate_scenario(minimal_raw())
    for value in edited.values():
        if isinstance(value, list):  # script, links, ues, bearers, ...
            value.append({"id": "leaked"})
    edited["trust"]["weights"][0] = 0.9
    edited["bler"]["entries"].append(
        {"ue": "u1", "ru": "ru1", "carrier": "c1", "bler": 0.5})
    assert cfgmod.validate_scenario(minimal_raw()) == expected
    assert fresh == expected


def test_all_errors_collected_not_just_first():
    raw = minimal_raw()
    del raw["duration_us"]
    raw["mode"] = "7g"
    raw["typo_key"] = 1
    raw["rus"][0]["site"] = "nowhere"
    with pytest.raises(cfgmod.SchemaErrors) as exc:
        cfgmod.validate_scenario(raw)
    msgs = "\n".join(exc.value.errors)
    assert len(exc.value.errors) >= 4
    assert "duration_us" in msgs and "mode" in msgs
    assert "typo_key" in msgs and "nowhere" in msgs


def test_duplicate_ids_reported_with_both_locations():
    raw = minimal_raw()
    raw["sites"].append({"id": "cell-a", "kind": "OnPrem"})
    with pytest.raises(cfgmod.SchemaErrors) as exc:
        cfgmod.validate_scenario(raw)
    assert any("duplicate id" in e and "sites[0]" in e for e in exc.value.errors)


def test_cross_references_checked():
    raw = minimal_raw()
    raw["ues"] = [{"id": "u1", "ranf": "ghost"}]
    raw["bearers"] = [{"id": "b1", "ue": "nobody", "latency_req_us": 1000,
                       "reliability_req": 0.99}]
    with pytest.raises(cfgmod.SchemaErrors) as exc:
        cfgmod.validate_scenario(raw)
    msgs = "\n".join(exc.value.errors)
    assert "ghost" in msgs and "nobody" in msgs


def test_resolved_dump_is_fixed_point(tmp_path):
    cfg = cfgmod.validate_scenario(minimal_raw())
    path = tmp_path / "resolved.yaml"
    cfgmod.dump_resolved(cfg, path)
    with open(path) as fh:
        reparsed = cfgmod.validate_scenario(yaml.safe_load(fh))
    assert reparsed == cfg
    assert cfgmod.config_hash(reparsed) == cfgmod.config_hash(cfg)


def test_config_hash_sensitive_to_values():
    cfg1 = cfgmod.validate_scenario(minimal_raw())
    raw2 = minimal_raw()
    raw2["seed"] = 99
    cfg2 = cfgmod.validate_scenario(raw2)
    assert cfgmod.config_hash(cfg1) != cfgmod.config_hash(cfg2)


def test_script_actions_validated():
    raw = minimal_raw()
    raw["script"] = [{"at_us": 10, "action": "teleport"},
                     {"at_us": -5, "action": "handover", "ue": "ghost",
                      "dst": "rf"}]
    with pytest.raises(cfgmod.SchemaErrors) as exc:
        cfgmod.validate_scenario(raw)
    msgs = "\n".join(exc.value.errors)
    assert "teleport" in msgs and "at_us" in msgs and "ghost" in msgs


def test_shipped_scenarios_validate():
    import glob
    import os
    here = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    files = glob.glob(os.path.join(here, "*.yaml"))
    assert files, "no shipped scenarios found"
    for f in files:
        cfgmod.parse_scenario(f)


def test_trust_query_latency_rejected():
    """Keys that changed nothing a run reports have left the schema; each
    is now an unknown key, named in the error (a ``record`` key by its
    section, which is gone as a whole)."""
    for extra, name in (({"trust": {"query_latency_us": 10_000_000}},
                         "query_latency_us"),
                        ({"strict_anchor": False}, "strict_anchor"),
                        ({"record": {"grants": True}}, "record"),
                        ({"record": {"tti_series": False}}, "record"),
                        ({"record": {"series_stride": 10}}, "record")):
        raw = minimal_raw()
        raw.update(extra)
        with pytest.raises(cfgmod.SchemaErrors) as exc:
            cfgmod.validate_scenario(raw)
        assert f"unknown key {name!r}" in str(exc.value), extra


@pytest.mark.parametrize("policy, fragment", [
    ({"id": "p1", "params": {"on": True}}, "'directive'"),
    ({"id": "p1", "directive": "PreferSite",
      "params": {"kind": "UP", "site_kind": "OnPrem"}}, "PreferSite"),
    ({"id": "p1", "directive": "MinSliceShare",
      "params": {"slice": "I", "fraction": 1.5}}, "fraction"),
    ({"id": "p1", "directive": "MinSliceShare",
      "params": {"slice": "IX", "fraction": 0.5}}, "'IX'"),
    ({"id": "p1", "directive": "EnergySaving", "params": {"of": True}},
     "'of'"),
    # Once validated, and turned energy saving on.
    ({"id": "p1", "directive": "EnergySaving", "params": {"on": "false"}},
     "script[0].policy.params.on: must be true or false"),
])
def test_bad_policy_rejected_at_validation(policy, fragment):
    raw = minimal_raw()
    raw["slices"] = [{"id": "I"}]
    raw["script"] = [{"at_us": 0, "action": "policy", "policy": policy}]
    with pytest.raises(cfgmod.SchemaErrors) as exc:
        cfgmod.validate_scenario(raw)
    assert fragment in str(exc.value)


def test_energy_saving_is_off_without_params():
    raw = minimal_raw()
    raw["script"] = [{"at_us": 0, "action": "policy",
                      "policy": {"id": "p1", "directive": "EnergySaving"}}]
    cfg = cfgmod.validate_scenario(raw)
    assert cfg["script"][0]["policy"]["params"] == {"on": False}


def test_every_default_key_is_read_by_the_simulator():
    """A key with a default but no reader is a knob that does nothing."""
    src = os.path.join(os.path.dirname(__file__), "..", "src", "ransim")
    text = "".join(open(path).read()
                   for path in sorted(glob.glob(os.path.join(src, "*.py")))
                   if os.path.basename(path) != "config.py")
    free_form = {"class_weights"}
    keys = set(cfgmod._SCENARIO)
    for section, (default, _) in cfgmod._SCENARIO.items():
        if isinstance(default, dict) and section not in free_form:
            keys |= set(default)
    unread = sorted(k for k in keys
                    if not re.search(r'\[\s*"%s"\s*\]' % re.escape(k), text))
    assert unread == []


# ---------------------------------------------------------------- one gate

def full_raw():
    """``minimal_raw`` with an entry of every kind and every script action.
    It validates; it is not meant to run."""
    raw = minimal_raw()
    raw["sites"].append({"id": "edge-1", "kind": "FarEdge"})
    raw["links"] = [{"a": "cell-a", "b": "edge-1", "latency_us": 2000}]
    raw["slices"] = [{"id": "I"}, {"id": "II", "auto_place": True,
                                   "latency_budget_us": 100_000}]
    raw["placement"] = [{"id": "up-i", "kind": "UP", "site": "cell-a",
                         "slice": "I"}]
    raw["ues"] = [{"id": "u1", "ranf": "rf"}]
    raw["bearers"] = [{"id": "b1", "ue": "u1", "latency_req_us": 5_000,
                       "reliability_req": 0.999,
                       "traffic": {"pattern": "XrFrame"}}]
    raw["bler"] = {"entries": [{"ue": "u1", "ru": "ru1", "carrier": "c1",
                                "bler": 0.1}]}
    raw["subnetworks"] = [
        {"id": "sn1", "parent_ranf": "rf", "parent_ru": "ru1",
         "devices": ["d1", "d2"],
         "local_traffic": [{"src": "d1", "dst": "d2", "size": 100,
                            "period_us": 1_000}],
         "nonlocal_traffic": [{"src": "d1", "size": 100,
                               "period_us": 1_000}]},
        {"id": "sn2"}]
    raw["script"] = [
        {"at_us": 1, "action": "handover", "ue": "u1", "dst": "rf"},
        {"at_us": 1, "action": "migrate", "instance": "slice-II-up",
         "site": "cell-a"},
        {"at_us": 1, "action": "anomaly", "ue": "u1", "anomaly_score": 0.5},
        {"at_us": 1, "action": "policy",
         "policy": {"id": "p", "directive": "EnergySaving",
                    "params": {"on": True}}},
        {"at_us": 1, "action": "detach_subnet", "subnet": "sn1"},
        {"at_us": 1, "action": "attach_subnet", "subnet": "sn1",
         "ranf": "rf", "ru": "ru1"},
        {"at_us": 1, "action": "device_handover", "device": "d1",
         "src": "sn1", "dst": "sn2"},
        {"at_us": 1, "action": "set_bler", "ue": "u1", "ru": "ru1",
         "carrier": "c1", "bler": 0.2},
    ]
    return raw


def edited(edits, raw=None):
    """``full_raw`` (or ``raw``) with each value at a path of keys set; an
    index one past the end of a list appends."""
    raw = full_raw() if raw is None else raw
    for path, value in edits:
        node = raw
        for key in path[:-1]:
            node = node[key]
        if isinstance(node, list) and path[-1] == len(node):
            node.append(value)
        else:
            node[path[-1]] = value
    return raw


def assert_rejected(raw, path):
    """Validation fails with an error at ``path``."""
    with pytest.raises(cfgmod.SchemaErrors) as exc:
        cfgmod.validate_scenario(raw)
    assert any(e.startswith(path) for e in exc.value.errors), exc.value.errors


def test_full_raw_validates():
    cfg = cfgmod.validate_scenario(full_raw())
    assert cfg["script"][6]["dst"] == "sn2"


# The resolved ``full_raw``: every default that validation fills in, for
# an entry of every kind and every script action.  Recorded before the
# scenario keys were merged into one schema table.
FULL_RAW_RESOLVED = \
    "2f662fd9dc83c682a0d4bc19fafce34ca04acbb742fc15ee89843b1f2045b0b3"


def test_full_raw_resolves_to_its_pin():
    blob = json.dumps(cfgmod.validate_scenario(full_raw()), sort_keys=True,
                      default=str)
    assert hashlib.sha256(blob.encode()).hexdigest() == FULL_RAW_RESOLVED


def test_migration_to_an_auto_placed_instance_validates():
    """``full_raw`` migrates ``slice-II-up``, placed only at the build."""
    assert full_raw()["script"][1]["instance"] == "slice-II-up"
    raw = full_raw()
    raw["slices"][1]["auto_place"] = False
    assert_rejected(raw, "script[1].instance")


TRAFFIC = ("bearers", 0, "traffic")
SUBNET = ("subnetworks", 0)


@pytest.mark.parametrize("edits, path", [
    ([(("sites", 0, "cpu_capacity"), 0)], "sites[0].cpu_capacity"),
    ([(("ranfs", 1), {"id": "rf2", "site": "cell-a"})], "ranfs[1].rus"),
    ([(("placement", 0, "kind"), "Cache")], "placement[0].kind"),
    ([(("cn_entry_site",), "nowhere")], "scenario.cn_entry_site"),
    ([(("fronthaul",), {"mode": "Hybrid"})], "scenario.fronthaul.mode"),
    ([(TRAFFIC + ("pattern",), "Bursty")], "bearers[0].traffic.pattern"),
    ([(TRAFFIC + ("congestion_law",), "Bogus")],
     "bearers[0].traffic.congestion_law"),
    ([(TRAFFIC + ("rate_bytes_per_s",), -1.0)],
     "bearers[0].traffic.rate_bytes_per_s"),
    ([(("aqm",), {"mark_threshold_us": 5_000, "drop_threshold_us": 1_000})],
     "scenario.aqm.drop_threshold_us"),
    ([(("rlc",), {"status_interval_us": 0})],
     "scenario.rlc.status_interval_us"),
    ([(("orchestrator",), {"tick_us": 0})], "scenario.orchestrator.tick_us"),
    ([(("trust",), {"reassess_interval_us": 0})],
     "scenario.trust.reassess_interval_us"),
    ([(("t_reordering_us",), 0)], "scenario.t_reordering_us"),
    ([(TRAFFIC + ("sdu_bytes",), 0)], "bearers[0].traffic.sdu_bytes"),
    ([(TRAFFIC + ("burst_period_us",), 0)],
     "bearers[0].traffic.burst_period_us"),
    ([(TRAFFIC + ("rtt_window_us",), 0)], "bearers[0].traffic.rtt_window_us"),
    ([(TRAFFIC + ("fps",), 2e6)], "bearers[0].traffic.fps"),
    ([(TRAFFIC + ("fps",), 0)], "bearers[0].traffic.fps"),
    ([(TRAFFIC + ("start_us",), -1)], "bearers[0].traffic.start_us"),
    ([(SUBNET + ("grant_period_us",), 0)], "subnetworks[0].grant_period_us"),
    ([(SUBNET + ("local_traffic", 0, "period_us"), 0)],
     "subnetworks[0].local_traffic[0].period_us"),
    ([(SUBNET + ("nonlocal_traffic", 0, "size"), None)],
     "subnetworks[0].nonlocal_traffic[0]: missing required key 'size'"),
    ([(SUBNET + ("parent_ranf",), "ghost")], "subnetworks[0].parent_ranf"),
    ([(("script", 0, "dst"), "ghost")], "script[0].dst"),
    ([(("script", 1, "instance"), "ghost")], "script[1].instance"),
    ([(("script", 1, "site"), "ghost")], "script[1].site"),
    ([(("script", 2, "ue"), "ghost")], "script[2].ue"),
    ([(("script", 2, "anomaly_score"), 1.5)], "script[2].anomaly_score"),
    ([(("script", 5, "ranf"), "ghost")], "script[5].ranf"),
    ([(("script", 5, "ru"), "ghost")], "script[5].ru"),
    ([(("script", 6, "device"), "ghost")], "script[6].device"),
    ([(("script", 6, "src"), "ghost")], "script[6].src"),
    ([(("script", 6, "dst"), "ghost")], "script[6].dst"),
    ([(("script", 7, "ue"), "ghost")], "script[7].ue"),
    ([(("script", 7, "ru"), "ghost")], "script[7].ru"),
    ([(("script", 7, "carrier"), "ghost")], "script[7].carrier"),
    ([(("script", 7, "bler"), 2.0)], "script[7].bler"),
    # Times are integer us (null only where the default is null).
    ([(("tti_us",), 250.5)], "scenario.tti_us"),
    ([(("t_reordering_us",), 0.5)], "scenario.t_reordering_us"),
    ([(("handover_interruption_us",), 1.5)],
     "scenario.handover_interruption_us"),
    ([(("migration_downtime_us",), "x")], "scenario.migration_downtime_us"),
    ([(("aqm",), {"mark_threshold_us": 1.5})],
     "scenario.aqm.mark_threshold_us"),
    ([(("aqm",), {"drop_threshold_us": None})],
     "scenario.aqm.drop_threshold_us"),
    ([(("rlc",), {"status_interval_us": 2.5})],
     "scenario.rlc.status_interval_us"),
    ([(("split",), {"d_f1_us": 0.5})], "scenario.split.d_f1_us"),
    ([(("trust",), {"reassess_interval_us": 1e5})],
     "scenario.trust.reassess_interval_us"),
    ([(("orchestrator",), {"tick_us": 1.5})], "scenario.orchestrator.tick_us"),
    ([(("orchestrator",), {"idle_sleep_interval_us": None})],
     "scenario.orchestrator.idle_sleep_interval_us"),
    ([(("rus", 0, "fronthaul_latency_us"), 1.5)],
     "rus[0].fronthaul_latency_us"),
    ([(("slices", 1, "latency_budget_us"), 1e5)],
     "slices[1].latency_budget_us"),
    ([(TRAFFIC + ("burst_period_us",), 1.5)],
     "bearers[0].traffic.burst_period_us"),
    ([(TRAFFIC + ("rtt_window_us",), 1.5)],
     "bearers[0].traffic.rtt_window_us"),
    ([(TRAFFIC + ("start_us",), 0.5)], "bearers[0].traffic.start_us"),
    ([(TRAFFIC + ("stop_us",), "x")], "bearers[0].traffic.stop_us"),
    ([(TRAFFIC + ("stop_us",), -1)], "bearers[0].traffic.stop_us"),
    ([(SUBNET + ("grant_period_us",), 1.5)], "subnetworks[0].grant_period_us"),
    ([(SUBNET + ("nonlocal_ttl_us",), 1.5)], "subnetworks[0].nonlocal_ttl_us"),
    ([(SUBNET + ("parent_latency_us",), -1)],
     "subnetworks[0].parent_latency_us"),
    ([(SUBNET + ("local_traffic", 0, "stop_us"), 1.5)],
     "subnetworks[0].local_traffic[0].stop_us"),
    ([(SUBNET + ("nonlocal_traffic", 0, "stop_us"), -1)],
     "subnetworks[0].nonlocal_traffic[0].stop_us"),
    ([(SUBNET + ("nonlocal_traffic", 0, "start_us"), 0.5)],
     "subnetworks[0].nonlocal_traffic[0].start_us"),
    # Counts are positive integers.
    ([(("harq",), {"processes": 0})], "scenario.harq.processes"),
    ([(("harq",), {"rtt_ttis": 0})], "scenario.harq.rtt_ttis"),
    ([(("harq",), {"max_tx": 1.5})], "scenario.harq.max_tx"),
    ([(("rlc",), {"window": 0})], "scenario.rlc.window"),
    ([(("rlc",), {"max_retx": -1})], "scenario.rlc.max_retx"),
    ([(("split",), {"credit_bytes": -5})], "scenario.split.credit_bytes"),
    ([(("serving",), {"max_set_size": 0})], "scenario.serving.max_set_size"),
    ([(("orchestrator",), {"hysteresis": 0})],
     "scenario.orchestrator.hysteresis"),
    # Probabilities and thresholds are in [0,1].
    ([(("harq",), {"feedback_error_rate": 1.5})],
     "scenario.harq.feedback_error_rate"),
    ([(("serving",), {"quality_threshold": -0.1})],
     "scenario.serving.quality_threshold"),
    ([(("trust",), {"threshold": 2})], "scenario.trust.threshold"),
    ([(("ues", 0, "trust_threshold"), 1.5)], "ues[0].trust_threshold"),
    # Keys that no run reads are unknown.
    ([(("script", 0), {"at_us": 0, "action": "policy",
                       "policy": {"id": "p", "scope": "global",
                                  "directive": "EnergySaving"}})],
     "script[0].policy: unknown key 'scope'"),
    ([(("orchestrator",), {"scale_hi": 0.8})],
     "scenario.orchestrator: unknown key 'scale_hi'"),
    ([(("orchestrator",), {"scale_lo": 0.2})],
     "scenario.orchestrator: unknown key 'scale_lo'"),
    ([(("class_weights",), {"Moderate": "x"})],
     "scenario.class_weights.Moderate"),
    ([(("class_weights",), {"MissionCritical": -1})],
     "scenario.class_weights.MissionCritical"),
    ([(TRAFFIC + ("burst_bytes",), 0)], "bearers[0].traffic.burst_bytes"),
    ([(TRAFFIC + ("frame_bytes",), -1)], "bearers[0].traffic.frame_bytes"),
    ([(TRAFFIC + ("frame_jitter",), -0.1)], "bearers[0].traffic.frame_jitter"),
    ([(TRAFFIC + ("recovery_step",), -0.05)],
     "bearers[0].traffic.recovery_step"),
    ([(("seed",), 1.5)], "scenario.seed"),
    ([(("reliable_harq",), "yes")], "scenario.reliable_harq"),
    ([(("drop_indication",), 1)], "scenario.drop_indication"),
    ([(("dmimo",), 0)], "scenario.dmimo"),
    ([(("energy",), "false")], "scenario.energy"),
    ([(("slices", 1, "auto_place"), 1)], "slices[1].auto_place"),
    ([(("bearers", 0, "ecn_capable"), "yes")], "bearers[0].ecn_capable"),
    # Sub-network PRB counts and bytes per PRB.
    ([(SUBNET + ("local_bytes_per_prb",), 0)],
     "subnetworks[0].local_bytes_per_prb"),
    ([(SUBNET + ("local_bytes_per_prb",), 1.5)],
     "subnetworks[0].local_bytes_per_prb"),
    ([(SUBNET + ("grant_prbs",), -1)], "subnetworks[0].grant_prbs"),
    ([(SUBNET + ("grant_prbs",), 2.5)], "subnetworks[0].grant_prbs"),
    ([(SUBNET + ("autonomous_prbs",), -3)], "subnetworks[0].autonomous_prbs"),
    # Fronthaul charges, the default BLER and CPU loads: once without a rule,
    # a value of the wrong type or sign failed in the first TTI or gave a
    # negative figure.
    ([(("fronthaul",), {"expansion_factor": "x"})],
     "scenario.fronthaul.expansion_factor"),
    ([(("fronthaul",), {"expansion_factor": -4})],
     "scenario.fronthaul.expansion_factor"),
    ([(("fronthaul",), {"expansion_factor": 0})],
     "scenario.fronthaul.expansion_factor"),
    ([(("fronthaul",), {"update_cost_bytes": -1})],
     "scenario.fronthaul.update_cost_bytes"),
    ([(("fronthaul",), {"update_cost_bytes": 1.5})],
     "scenario.fronthaul.update_cost_bytes"),
    ([(("bler",), {"default": 1.5})], "scenario.bler.default"),
    ([(("bler",), {"default": "low"})], "scenario.bler.default"),
    ([(("placement", 0, "cpu_load"), -1)], "placement[0].cpu_load"),
    ([(("placement", 0, "cpu_load"), "heavy")], "placement[0].cpu_load"),
    # SDU sizes are whole bytes, so segment bounds and the RLC window's
    # count of un-ACKed bytes stay integers.
    ([(TRAFFIC + ("sdu_bytes",), 1500.3)], "bearers[0].traffic.sdu_bytes"),
    ([(TRAFFIC + ("burst_bytes",), 3600.5)],
     "bearers[0].traffic.burst_bytes"),
    ([(TRAFFIC + ("frame_bytes",), 16_000.5)],
     "bearers[0].traffic.frame_bytes"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_rule_rejected_at_validation(edits, path):
    assert_rejected(edited(edits), path)


def schema_tables():
    """(name, table) of every table of the schema: the scenario's, each
    script action's and policy directive's, and, within those, each nested
    mapping's and each list of entries'."""
    todo = [("scenario", cfgmod._SCENARIO)]
    todo += [(f"script:{action}", table)
             for action, table in cfgmod._SCRIPT.items()]
    todo += [(f"policy:{directive}", table)
             for directive, table in cfgmod._POLICIES.items()]
    for name, table in todo:  # grows as nested tables are found
        yield name, table
        for key, (default, rule) in table.items():
            if isinstance(default, dict):
                todo.append((f"{name}.{key}", default))
            elif isinstance(rule, dict):
                todo.append((f"{name}.{key}[]", rule))


def test_defaults_pass_their_checks():
    """Validation does not check a value that is its default again, so
    each default must pass its own rule.  Only ``duration_us``'s null, which
    stands for no default, fails it, and so is checked."""
    failing = []
    for name, table in schema_tables():
        for key, (default, rule) in table.items():
            if isinstance(rule, tuple) and not isinstance(default, tuple) \
                    and not rule[0](default):
                failing.append(f"{name}.{key}")
    assert failing == ["scenario.duration_us"]


def test_device_handover_to_the_parent_validates():
    raw = full_raw()
    del raw["script"][6]["dst"]
    assert cfgmod.validate_scenario(raw)["script"][6]["dst"] is None


def _at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


def _entry_table(path, entry):
    """The schema table of the entry at ``path`` in ``full_raw``."""
    if path[-1] == "policy":
        return cfgmod._POLICIES[entry["directive"]]
    if path[0] == "script":
        return cfgmod._SCRIPT[entry["action"]]
    if path[0] == "bler":
        return cfgmod._SCENARIO["bler"][0]["entries"][1]
    if len(path) > 2:  # a sub-network's traffic
        return cfgmod._ENTRIES["subnetworks"][path[2]][1]
    return cfgmod._ENTRIES[path[0]]


def _entry_paths():
    raw = full_raw()
    paths = [(section, 0) for section in cfgmod._ENTRIES]
    paths += [("bler", "entries", 0), SUBNET + ("local_traffic", 0),
              SUBNET + ("nonlocal_traffic", 0)]
    paths += [("script", i) for i in range(len(raw["script"]))]
    paths += [("script", i, "policy") for i, ev in enumerate(raw["script"])
              if ev["action"] == "policy"]
    return paths


def _outcome(raw):
    """None when ``raw`` validates, else the errors; any other exception
    fails the test."""
    try:
        cfgmod.validate_scenario(raw)
    except cfgmod.SchemaErrors as exc:
        return exc.errors
    return None


@pytest.mark.parametrize("path", _entry_paths(), ids=str)
def test_bad_entry_is_a_schema_error_never_a_crash(path):
    """For an entry of each kind: dropping each required key, replacing the
    entry by a non-mapping, and giving any key a list or a mapping as its
    value give SchemaErrors (or a valid scenario), never another
    exception."""
    entry = _at(full_raw(), path)
    table = _entry_table(path, entry)
    required = [k for k, (default, _) in table.items()
                if isinstance(default, tuple)]
    assert required
    for key in required:
        raw = full_raw()
        del _at(raw, path)[key]
        errors = _outcome(raw)
        assert errors and f"missing required key {key!r}" in "\n".join(errors)
    for value in (7, "x", [1, 2], None):
        assert _outcome(edited([(path, value)])), value
    for key in entry:
        for value in ([1], {"x": 1}):
            _outcome(edited([((*path, key), value)]))


NESTED = sorted(key for key, (default, _) in cfgmod._SCENARIO.items()
                if isinstance(default, dict))
NESTED += [f"{what}/{key}" for what, table in cfgmod._ENTRIES.items()
           for key, (default, _) in table.items() if isinstance(default, dict)]


@pytest.mark.parametrize("section", NESTED)
def test_bad_nested_mapping_is_a_schema_error(section):
    for value in (7, "x", [1, 2]):
        if "/" in section:
            what, key = section.split("/")
            raw = edited([((what, 0, key), value)])
        else:
            raw = edited([((section,), value)])
        assert _outcome(raw), (section, value)


HANG_CASES = {
    "rlc-status": {"reliable_harq": False, "rlc": {"status_interval_us": 0}},
    "orchestrator-tick": {"orchestrator": {"tick_us": 0}},
    "trust-reassess": {"trust": {"reassess_interval_us": 0}},
    "t-reordering": {"t_reordering_us": 0},
    "rtt-window": {"traffic": {"rtt_window_us": 0, "congestion_law": "L4S"}},
    "burst-period": {"traffic": {"pattern": "PeriodicBurst",
                                 "burst_period_us": 0}},
    "sdu-bytes": {"traffic": {"pattern": "PeriodicBurst", "sdu_bytes": 0}},
    "xr-fps": {"traffic": {"pattern": "XrFrame", "fps": 2e6}},
}


@pytest.mark.parametrize("case", sorted(HANG_CASES))
def test_cli_rejects_inputs_that_would_hang_the_run(case, tmp_path,
                                                   monkeypatch, capsys):
    """Each input re-schedules an event at the same time forever; ``ransim
    validate`` and ``ransim run`` exit 1 without building a run."""
    from ransim import cli
    here = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    with open(os.path.join(here, "smoke.yaml")) as fh:
        raw = yaml.safe_load(fh)
    edit = dict(HANG_CASES[case])
    raw["bearers"][0]["traffic"].update(edit.pop("traffic", {}))
    raw.update(edit)
    path = tmp_path / "hang.yaml"
    path.write_text(yaml.safe_dump(raw))

    def no_run(*args, **kwargs):
        raise AssertionError("a run was started")

    monkeypatch.setattr(cli, "Runtime", no_run)
    assert cli.main(["validate", str(path)]) == 1
    assert cli.main(["run", str(path)]) == 1
    assert "must be" in capsys.readouterr().out


# Every ConfigError (or subclass) and ValueError raised in src/ransim/
# outside config.py: (module, function, exception).  Each comes from a model
# rule, not from the scenario schema, or guards the program itself.
ALLOWED_RAISES = sorted([
    # A bearer's QoS needs that no class can meet.
    ("sched.py", "classify_qos", "ConfigError"),
    ("sched.py", "classify_qos", "QosUnsatisfiable"),
    ("sched.py", "classify_qos", "QosUnsatisfiable"),
    ("sched.py", "classify_qos", "QosUnsatisfiable"),
    # Auto-placement rejects a slice, or the placement breaks a rule.
    ("runtime.py", "Runtime._build_placement", "ConfigError"),
    ("runtime.py", "Runtime._build_placement", "ConfigError"),
    # A bearer classified into a slice the scenario does not declare.
    ("runtime.py", "Runtime._build_bearers", "ConfigError"),
    # Two sites that a path, a stage-1 report or a handover joins have no
    # link; which pairs a run needs depends on placement, migrations and
    # handovers, so the lookup is the check.
    ("topology.py", "Topology.latency", "ConfigError"),
    # The module's own power profiles.
    ("orchestrate.py", "PowerProfile.__post_init__", "ConfigError"),
    ("orchestrate.py", "PowerProfile.__post_init__", "ConfigError"),
    # The event core refuses to schedule into the past (a program bug).
    ("core.py", "Simulator.schedule", "ConfigError"),
    # A ``ransim sweep --axis`` key that the scenario does not have.
    ("cli.py", "_apply_axis", "SchemaErrors"),
])


def _raises_outside_config():
    import ast
    import builtins
    import importlib
    from ransim.core import ConfigError
    src = os.path.join(os.path.dirname(__file__), "..", "src", "ransim")
    found = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        name = os.path.basename(path)
        if name == "config.py":
            continue
        module = importlib.import_module(f"ransim.{name[:-3]}")
        tree = ast.parse(open(path).read())

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                if isinstance(child, ast.Raise) and child.exc is not None:
                    exc = child.exc.func if isinstance(child.exc, ast.Call) \
                        else child.exc
                    first, *rest = ast.unparse(exc).split(".")
                    cls = getattr(module, first, getattr(builtins, first, None))
                    for part in rest:
                        cls = getattr(cls, part, None)
                    if isinstance(cls, type) \
                            and issubclass(cls, (ConfigError, ValueError)):
                        found.append((name, ".".join(scope), cls.__name__))
                visit(child, scope)

        visit(tree, [])
    return sorted(found)


def test_scenario_input_is_checked_only_in_config():
    """A new ConfigError or ValueError outside config.py is a second check
    of scenario input: move it into ``validate_scenario``, or add it here
    if it comes from a model rule."""
    assert _raises_outside_config() == ALLOWED_RAISES


# ---------------------------------------------------------------- knobs

def _orchestrator_knob_raw():
    """``smoke.yaml`` whose traffic stops at 400 ms, so the slices' UP and
    PHY functions go idle and scale down after it."""
    with open(os.path.join(SCENARIO_DIR, "smoke.yaml")) as fh:
        raw = yaml.safe_load(fh)
    raw["duration_us"] = 800_000
    for b in raw["bearers"]:
        b["traffic"]["stop_us"] = 400_000
    return raw


def _subnet_knob_raw():
    """``_subnet_raw`` for 300 ms, out of parent coverage from 100 to
    200 ms: autonomous pool and relay TTL while detached, a grant on the
    way back, and relays in flight at the end."""
    raw = _subnet_raw(100_000)
    raw["duration_us"] = 300_000
    raw["script"].append({"at_us": 200_000, "action": "attach_subnet",
                          "subnet": "sn1", "ranf": "rf-a", "ru": "ru1"})
    return raw


def _ecn_knob_raw():
    """``_split_lossy_raw`` with its bearer ECN-capable, so that the AQM
    CE-marks heads instead of dropping them."""
    raw = _split_lossy_raw()
    raw["bearers"][0]["ecn_capable"] = True
    return raw


# The run in which each knob shows, and a changed value of it.
KNOB_CHANGES = {
    ("orchestrator", "hysteresis"): ("orchestrator", 2),
    ("orchestrator", "tick_us"): ("orchestrator", 50_000),
    ("orchestrator", "idle_sleep_interval_us"): ("orchestrator", 150_000),
    ("subnetworks", "autonomous_prbs"): ("subnetworks", 2),
    ("subnetworks", "grant_prbs"): ("subnetworks", 2),
    ("subnetworks", "grant_period_us"): ("subnetworks", 30_000),
    ("subnetworks", "local_bytes_per_prb"): ("subnetworks", 50),
    ("subnetworks", "nonlocal_ttl_us"): ("subnetworks", 20_000),
    # Relays take effect on arrival: only the ones in flight at the end of
    # the run show a longer latency.
    ("subnetworks", "parent_latency_us"): ("subnetworks", 20_000),
    ("harq", "processes"): ("stack", 2),
    ("harq", "rtt_ttis"): ("stack", 8),
    ("harq", "max_tx"): ("stack", 2),
    ("harq", "feedback_error_rate"): ("stack", 0.2),
    ("aqm", "drop_threshold_us"): ("stack", 10_000),
    # Only an ECN-capable bearer is marked.
    ("aqm", "mark_threshold_us"): ("ecn", 2_000),
    ("rlc", "window"): ("stack", 16),
    # Any limit from 1 up gives this run's report: no SN in it is queued
    # for retransmission twice.
    ("rlc", "max_retx"): ("stack", 0),
    ("rlc", "status_interval_us"): ("stack", 10_000),
    ("scenario", "t_reordering_us"): ("stack", 5_000),
    ("scenario", "drop_indication"): ("stack", False),
    ("scenario", "reliable_harq"): ("stack", True),
    # Read only in RU-local mode.
    ("fronthaul", "update_cost_bytes"): ("ru-local-bf", 128),
    ("fronthaul", "expansion_factor"): ("control-plane", 8),
    ("fronthaul", "mode"): ("control-plane", "RuLocalBf"),
    ("scenario", "migration_downtime_us"): ("control-plane", 30_000),
}
KNOB_RUNS = {"orchestrator": _orchestrator_knob_raw,
             "subnetworks": _subnet_knob_raw,
             "stack": _split_lossy_raw,
             "ecn": _ecn_knob_raw,
             "ru-local-bf": _ru_local_bf_raw,
             "control-plane": _control_plane_raw}
SECTIONS = ("orchestrator", "fronthaul", "harq", "aqm", "rlc")
SCENARIO_KEYS = ("t_reordering_us", "drop_indication", "reliable_harq",
                 "migration_downtime_us")


def test_knob_changes_the_report():
    """Each orchestrator, fronthaul, sub-network and user-plane stack knob,
    and the migration downtime, changes the report of a run where it
    matters.  A knob that is read but ignored fails here, and so does a new
    knob of these sections until it has a value above."""
    knobs = {(section, k) for section in SECTIONS
             for k in cfgmod._SCENARIO[section][0]}
    knobs |= {("subnetworks", k)
              for k, (default, _) in cfgmod._ENTRIES["subnetworks"].items()
              if type(default) in (int, float)}
    knobs |= {("scenario", k) for k in SCENARIO_KEYS}
    assert knobs == set(KNOB_CHANGES)

    def report(run, section=None, key=None, value=None):
        raw = KNOB_RUNS[run]()
        if section == "scenario":
            raw[key] = value
        elif section == "subnetworks":
            raw[section][0][key] = value
        elif section is not None:
            raw.setdefault(section, {})[key] = value
        out = run_scenario(cfgmod.validate_scenario(raw))
        del out["config_hash"]
        return out

    base = {run: report(run) for run in KNOB_RUNS}
    unchanged = [(section, key) for (section, key), (run, value)
                 in sorted(KNOB_CHANGES.items())
                 if report(run, section, key, value) == base[run]]
    assert unchanged == []
