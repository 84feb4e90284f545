import copy
import glob
import os
import re

import pytest
import yaml

from ransim import config as cfgmod


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
])
def test_bad_policy_rejected_at_validation(policy, fragment):
    raw = minimal_raw()
    raw["slices"] = [{"id": "I"}]
    raw["script"] = [{"at_us": 0, "action": "policy", "policy": policy}]
    with pytest.raises(cfgmod.SchemaErrors) as exc:
        cfgmod.validate_scenario(raw)
    assert fragment in str(exc.value)


def test_every_default_key_is_read_by_the_simulator():
    """A key with a default but no reader is a knob that does nothing."""
    src = os.path.join(os.path.dirname(__file__), "..", "src", "ransim")
    text = "".join(open(path).read()
                   for path in sorted(glob.glob(os.path.join(src, "*.py")))
                   if os.path.basename(path) != "config.py")
    free_form = {"class_weights", "min_slice_share"}
    keys = set(cfgmod._TOP_DEFAULTS)
    for section, defaults in cfgmod._NESTED_DEFAULTS.items():
        keys.add(section)
        if section not in free_form:
            keys |= set(defaults)
    unread = sorted(k for k in keys
                    if not re.search(r'\[\s*"%s"\s*\]' % re.escape(k), text))
    assert unread == []
