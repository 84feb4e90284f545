"""Scenario files: strict YAML schema, exhaustive error reporting, defaults.

The resolved config (defaults filled in) is itself a valid scenario: dumping
and re-parsing it is a fixed point.  Every output artifact embeds the seed
and a hash of the resolved config for provenance.
"""

import hashlib
import json

import yaml

from . import orchestrate as orch
from .core import ConfigError

MODE_SIXG = "sixg"
MODE_SPLIT = "split_baseline"

_TOP_DEFAULTS = {
    "seed": 1,
    "mode": MODE_SIXG,
    "tti_us": 500,
    "reliable_harq": True,
    "drop_indication": True,
    "dmimo": False,
    "energy": False,
    "cn_entry_site": None,
    "t_reordering_us": 20_000,
    "handover_interruption_us": 5_000,
    "migration_downtime_us": 10_000,
    "links": [],
    "ranfs": [],
    "ues": [],
    "bearers": [],
    "placement": [],
    "slices": [],
    "subnetworks": [],
    "script": [],
}

_NESTED_DEFAULTS = {
    "harq": {"processes": 8, "rtt_ttis": 4, "max_tx": 4,
             "feedback_error_rate": 0.0},
    "aqm": {"mark_threshold_us": 1_000, "drop_threshold_us": 50_000},
    "rlc": {"window": 64, "max_retx": None, "status_interval_us": 5_000},
    "fronthaul": {"mode": "CentralizedBf", "expansion_factor": 4,
                  "update_cost_bytes": 64},
    "split": {"d_f1_us": 0, "credit_bytes": None},
    "class_weights": {"MissionCritical": 100.0, "Moderate": 1.0},
    "min_slice_share": {},
    "serving": {"quality_threshold": 0.1, "max_set_size": 1},
    "trust": {"weights": [0.5, 0.3, 0.2], "threshold": 0.6,
              "reassess_interval_us": 1_000_000},
    "orchestrator": {"scale_hi": 0.8, "scale_lo": 0.2, "hysteresis": 3,
                     "tick_us": 100_000, "idle_sleep_interval_us": 10_000},
    "bler": {"default": 0.0, "entries": []},
}

# The list-valued keys of each section, which validate_scenario copies.
_NESTED_LIST_KEYS = {
    section: [k for k, v in defaults.items() if isinstance(v, list)]
    for section, defaults in _NESTED_DEFAULTS.items()
}

_TRAFFIC_DEFAULTS = {
    "pattern": "ConstantBitRate",
    "rate_bytes_per_s": 1_000_000.0,
    "sdu_bytes": 1500,
    "burst_period_us": 100_000,
    "burst_bytes": 15_000,
    "fps": 90.0,
    "frame_bytes": 50_000,
    "frame_jitter": 0.0,
    "congestion_law": "None",
    "recovery_step": 0.05,
    "rtt_window_us": 50_000,
    "start_us": 0,
    "stop_us": None,
}

_SCRIPT_ACTIONS = {
    "handover": {"ue", "dst"},
    "migrate": {"instance", "site"},
    "anomaly": {"ue", "anomaly_score"},
    "policy": {"policy"},
    "detach_subnet": {"subnet"},
    "attach_subnet": {"subnet", "ranf", "ru"},
    "device_handover": {"device", "src", "dst"},
    "set_bler": {"ue", "ru", "carrier", "bler"},
}


class SchemaErrors(ConfigError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("scenario schema errors:\n  " + "\n  ".join(self.errors))


def _check_keys(obj, allowed, path, errors):
    if not isinstance(obj, dict):
        errors.append(f"{path}: expected a mapping, got {type(obj).__name__}")
        return False
    for key in obj:
        if key not in allowed:
            errors.append(f"{path}: unknown key {key!r}")
    return True


def _require(obj, key, path, errors, types=None):
    if key not in obj or obj[key] is None:
        errors.append(f"{path}: missing required key {key!r}")
        return None
    val = obj[key]
    if types and not isinstance(val, types):
        errors.append(f"{path}.{key}: expected {types}, got {type(val).__name__}")
        return None
    return val


def _unique_ids(items, what, errors):
    seen = {}
    for idx, item in enumerate(items):
        iid = item.get("id") if isinstance(item, dict) else None
        if iid is None:
            continue
        if iid in seen:
            errors.append(
                f"{what}[{idx}]: duplicate id {iid!r} (first at {what}[{seen[iid]}])"
            )
        else:
            seen[iid] = idx
    return set(seen)


def parse_scenario(path):
    """Load and validate a scenario file; raises SchemaErrors listing every problem."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    return validate_scenario(raw)


def validate_scenario(raw):
    """Validate a raw scenario mapping; returns the resolved config dict."""
    errors = []
    if not isinstance(raw, dict):
        raise SchemaErrors(["scenario must be a mapping at the top level"])

    allowed = (set(_TOP_DEFAULTS) | set(_NESTED_DEFAULTS)
               | {"duration_us", "sites", "carriers", "rus"})
    _check_keys(raw, allowed, "scenario", errors)

    # Every config gets its own copy of the mutable (list) defaults, so that
    # editing one resolved config in place cannot change the next one.
    cfg = dict(_TOP_DEFAULTS)
    for key, default in _TOP_DEFAULTS.items():
        value = raw.get(key)
        if value is not None:
            cfg[key] = value
        elif isinstance(default, list):
            cfg[key] = list(default)
    for section, defaults in _NESTED_DEFAULTS.items():
        merged = dict(defaults)
        for key in _NESTED_LIST_KEYS.get(section, ()):
            merged[key] = list(defaults[key])
        sub = raw.get(section)
        if sub is not None:
            if _check_keys(sub, set(defaults), section, errors):
                merged.update({k: v for k, v in sub.items() if k in defaults})
        cfg[section] = merged

    duration = _require(raw, "duration_us", "scenario", errors, (int,))
    cfg["duration_us"] = duration if duration is not None else 0
    if duration is not None and duration <= 0:
        errors.append("scenario.duration_us: must be positive")
    if cfg["mode"] not in (MODE_SIXG, MODE_SPLIT):
        errors.append(f"scenario.mode: must be '{MODE_SIXG}' or '{MODE_SPLIT}'")
    if not 125 <= cfg["tti_us"] <= 1000:
        errors.append("scenario.tti_us: must be within [125, 1000]")

    # --- topology ---
    sites = raw.get("sites") or []
    site_ids = _unique_ids(sites, "sites", errors)
    if not sites:
        errors.append("scenario.sites: at least one site is required")
    for idx, s in enumerate(sites):
        if _check_keys(s, {"id", "kind", "cpu_capacity"}, f"sites[{idx}]", errors):
            _require(s, "id", f"sites[{idx}]", errors, (str,))
            kind = _require(s, "kind", f"sites[{idx}]", errors, (str,))
            if kind not in (None, "OnPrem", "FarEdge"):
                errors.append(f"sites[{idx}].kind: must be OnPrem or FarEdge")
            s.setdefault("cpu_capacity", 100.0)
    cfg["sites"] = sites

    for idx, link in enumerate(cfg["links"]):
        if _check_keys(link, {"a", "b", "latency_us"}, f"links[{idx}]", errors):
            for end in ("a", "b"):
                sid = _require(link, end, f"links[{idx}]", errors, (str,))
                if sid is not None and sid not in site_ids:
                    errors.append(f"links[{idx}].{end}: unknown site {sid!r}")
            lat = _require(link, "latency_us", f"links[{idx}]", errors, (int,))
            if lat is not None and lat < 0:
                errors.append(f"links[{idx}].latency_us: must be non-negative")

    carriers = raw.get("carriers") or []
    carrier_ids = _unique_ids(carriers, "carriers", errors)
    if not carriers:
        errors.append("scenario.carriers: at least one carrier is required")
    for idx, c in enumerate(carriers):
        if _check_keys(c, {"id", "prbs_per_tti", "bytes_per_prb"},
                       f"carriers[{idx}]", errors):
            _require(c, "id", f"carriers[{idx}]", errors, (str,))
            for k in ("prbs_per_tti", "bytes_per_prb"):
                v = _require(c, k, f"carriers[{idx}]", errors, (int,))
                if v is not None and v <= 0:
                    errors.append(f"carriers[{idx}].{k}: must be positive")
    cfg["carriers"] = carriers

    rus = raw.get("rus") or []
    ru_ids = _unique_ids(rus, "rus", errors)
    if not rus:
        errors.append("scenario.rus: at least one RU is required")
    for idx, r in enumerate(rus):
        if _check_keys(r, {"id", "site", "carriers", "fronthaul_latency_us"},
                       f"rus[{idx}]", errors):
            _require(r, "id", f"rus[{idx}]", errors, (str,))
            site = _require(r, "site", f"rus[{idx}]", errors, (str,))
            if site is not None and site not in site_ids:
                errors.append(f"rus[{idx}].site: unknown site {site!r}")
            for c in r.get("carriers") or []:
                if c not in carrier_ids:
                    errors.append(f"rus[{idx}].carriers: unknown carrier {c!r}")
            if not r.get("carriers"):
                errors.append(f"rus[{idx}].carriers: at least one carrier required")
            r.setdefault("fronthaul_latency_us", 50)
    cfg["rus"] = rus

    ranf_ids = _unique_ids(cfg["ranfs"], "ranfs", errors)
    if not cfg["ranfs"]:
        errors.append("scenario.ranfs: at least one RANF is required")
    for idx, rf in enumerate(cfg["ranfs"]):
        if _check_keys(rf, {"id", "site", "rus", "neighbors"},
                       f"ranfs[{idx}]", errors):
            _require(rf, "id", f"ranfs[{idx}]", errors, (str,))
            site = _require(rf, "site", f"ranfs[{idx}]", errors, (str,))
            if site is not None and site not in site_ids:
                errors.append(f"ranfs[{idx}].site: unknown site {site!r}")
            for ru in rf.get("rus") or []:
                if ru not in ru_ids:
                    errors.append(f"ranfs[{idx}].rus: unknown RU {ru!r}")
            for nb in rf.get("neighbors") or []:
                if nb not in {x.get("id") for x in cfg["ranfs"]}:
                    errors.append(f"ranfs[{idx}].neighbors: unknown RANF {nb!r}")
            rf.setdefault("rus", [])
            rf.setdefault("neighbors", [])

    # --- slices / placement ---
    slice_ids = _unique_ids(cfg["slices"], "slices", errors)
    for idx, sl in enumerate(cfg["slices"]):
        if _check_keys(sl, {"id", "latency_budget_us", "auto_place"},
                       f"slices[{idx}]", errors):
            _require(sl, "id", f"slices[{idx}]", errors, (str,))
            sl.setdefault("auto_place", False)
            sl.setdefault("latency_budget_us", None)
            if sl["auto_place"] and sl["latency_budget_us"] is None:
                errors.append(
                    f"slices[{idx}]: auto_place requires latency_budget_us")

    _unique_ids(cfg["placement"], "placement", errors)
    for idx, inst in enumerate(cfg["placement"]):
        if _check_keys(inst, {"id", "kind", "site", "slice", "bound_ru",
                              "cpu_load"}, f"placement[{idx}]", errors):
            _require(inst, "id", f"placement[{idx}]", errors, (str,))
            _require(inst, "kind", f"placement[{idx}]", errors, (str,))
            site = _require(inst, "site", f"placement[{idx}]", errors, (str,))
            if site is not None and site not in site_ids:
                errors.append(f"placement[{idx}].site: unknown site {site!r}")
            if inst.get("slice") is not None and inst["slice"] not in slice_ids:
                errors.append(
                    f"placement[{idx}].slice: unknown slice {inst['slice']!r}")
            if inst.get("bound_ru") is not None and inst["bound_ru"] not in ru_ids:
                errors.append(
                    f"placement[{idx}].bound_ru: unknown RU {inst['bound_ru']!r}")
            inst.setdefault("slice", None)
            inst.setdefault("bound_ru", None)
            inst.setdefault("cpu_load", 1.0)

    # --- ues / bearers ---
    ue_ids = _unique_ids(cfg["ues"], "ues", errors)
    for idx, ue in enumerate(cfg["ues"]):
        if _check_keys(ue, {"id", "ranf", "trust", "trust_threshold"},
                       f"ues[{idx}]", errors):
            _require(ue, "id", f"ues[{idx}]", errors, (str,))
            rf = _require(ue, "ranf", f"ues[{idx}]", errors, (str,))
            if rf is not None and rf not in ranf_ids:
                errors.append(f"ues[{idx}].ranf: unknown RANF {rf!r}")
            tr = ue.setdefault("trust", {"auth": 1.0, "history": 1.0,
                                         "anomaly": 0.0})
            _check_keys(tr, {"auth", "history", "anomaly"},
                        f"ues[{idx}].trust", errors)
            tr.setdefault("auth", 1.0)
            tr.setdefault("history", 1.0)
            tr.setdefault("anomaly", 0.0)
            ue.setdefault("trust_threshold", None)

    _unique_ids(cfg["bearers"], "bearers", errors)
    for idx, b in enumerate(cfg["bearers"]):
        if _check_keys(b, {"id", "ue", "latency_req_us", "reliability_req",
                           "ecn_capable", "traffic"}, f"bearers[{idx}]", errors):
            _require(b, "id", f"bearers[{idx}]", errors, (str,))
            ue = _require(b, "ue", f"bearers[{idx}]", errors, (str,))
            if ue is not None and ue not in ue_ids:
                errors.append(f"bearers[{idx}].ue: unknown UE {ue!r}")
            _require(b, "latency_req_us", f"bearers[{idx}]", errors, (int,))
            _require(b, "reliability_req", f"bearers[{idx}]", errors, (float,))
            b.setdefault("ecn_capable", False)
            traffic = dict(_TRAFFIC_DEFAULTS)
            sub = b.get("traffic")
            if sub is not None:
                if _check_keys(sub, set(_TRAFFIC_DEFAULTS),
                               f"bearers[{idx}].traffic", errors):
                    traffic.update({k: v for k, v in sub.items()
                                    if k in _TRAFFIC_DEFAULTS})
            b["traffic"] = traffic

    for idx, e in enumerate(cfg["bler"]["entries"]):
        if _check_keys(e, {"ue", "ru", "carrier", "bler"},
                       f"bler.entries[{idx}]", errors):
            for key, pool in (("ue", ue_ids), ("ru", ru_ids),
                              ("carrier", carrier_ids)):
                v = _require(e, key, f"bler.entries[{idx}]", errors, (str,))
                if v is not None and v not in pool:
                    errors.append(f"bler.entries[{idx}].{key}: unknown id {v!r}")
            bler = _require(e, "bler", f"bler.entries[{idx}]", errors,
                            (int, float))
            if bler is not None and not 0 <= bler <= 1:
                errors.append(f"bler.entries[{idx}].bler: must be in [0,1]")

    # --- sub-networks ---
    subnet_keys = {"id", "parent_ranf", "parent_ru", "autonomous_prbs",
                   "grant_prbs", "grant_period_us", "local_bytes_per_prb",
                   "nonlocal_ttl_us", "parent_latency_us", "devices",
                   "local_traffic", "nonlocal_traffic"}
    subnet_ids = _unique_ids(cfg["subnetworks"], "subnetworks", errors)
    device_ids = set()
    for idx, sn in enumerate(cfg["subnetworks"]):
        if _check_keys(sn, subnet_keys, f"subnetworks[{idx}]", errors):
            _require(sn, "id", f"subnetworks[{idx}]", errors, (str,))
            sn.setdefault("parent_ranf", None)
            sn.setdefault("parent_ru", None)
            sn.setdefault("autonomous_prbs", 0)
            sn.setdefault("grant_prbs", 10)
            sn.setdefault("grant_period_us", 100_000)
            sn.setdefault("local_bytes_per_prb", 64)
            sn.setdefault("nonlocal_ttl_us", 1_000_000)
            sn.setdefault("parent_latency_us", 2_000)
            sn.setdefault("devices", [])
            sn.setdefault("local_traffic", [])
            sn.setdefault("nonlocal_traffic", [])
            device_ids.update(sn["devices"])
            for t_idx, t in enumerate(sn["local_traffic"]):
                _check_keys(t, {"src", "dst", "size", "period_us", "start_us",
                                "stop_us"},
                            f"subnetworks[{idx}].local_traffic[{t_idx}]", errors)
                t.setdefault("start_us", 0)
                t.setdefault("stop_us", None)
            for t_idx, t in enumerate(sn["nonlocal_traffic"]):
                _check_keys(t, {"src", "size", "period_us", "start_us",
                                "stop_us"},
                            f"subnetworks[{idx}].nonlocal_traffic[{t_idx}]",
                            errors)
                t.setdefault("start_us", 0)
                t.setdefault("stop_us", None)

    # --- script ---
    for idx, ev in enumerate(cfg["script"]):
        path = f"script[{idx}]"
        if not isinstance(ev, dict):
            errors.append(f"{path}: expected a mapping")
            continue
        at = _require(ev, "at_us", path, errors, (int,))
        if at is not None and at < 0:
            errors.append(f"{path}.at_us: must be non-negative")
        action = _require(ev, "action", path, errors, (str,))
        if action is not None:
            if action not in _SCRIPT_ACTIONS:
                errors.append(f"{path}.action: unknown action {action!r}")
            else:
                allowed_keys = _SCRIPT_ACTIONS[action] | {"at_us", "action"}
                _check_keys(ev, allowed_keys, path, errors)
                if action == "handover" and ev.get("ue") not in ue_ids:
                    errors.append(f"{path}.ue: unknown UE {ev.get('ue')!r}")
                if action in ("detach_subnet", "attach_subnet") \
                        and ev.get("subnet") not in subnet_ids:
                    errors.append(f"{path}.subnet: unknown {ev.get('subnet')!r}")
                if action == "policy":
                    _check_policy(ev.get("policy"), f"{path}.policy",
                                  slice_ids, errors)

    if errors:
        raise SchemaErrors(errors)
    return cfg


def _check_policy(policy, path, slice_ids, errors):
    if not _check_keys(policy, {"id", "scope", "directive", "params"}, path,
                       errors):
        return
    _require(policy, "id", path, errors, (str,))
    directive = _require(policy, "directive", path, errors, (str,))
    if directive is None:
        return
    if directive not in orch.POLICY_PARAMS:
        errors.append(f"{path}.directive: unknown directive {directive!r}, "
                      f"expected one of {sorted(orch.POLICY_PARAMS)}")
        return
    params = policy.get("params", {})
    if not _check_keys(params, orch.POLICY_PARAMS[directive],
                       f"{path}.params", errors):
        return
    if directive == orch.MIN_SLICE_SHARE:
        sl = _require(params, "slice", f"{path}.params", errors, (str,))
        if sl is not None and sl not in slice_ids:
            errors.append(f"{path}.params.slice: unknown slice {sl!r}")
        frac = _require(params, "fraction", f"{path}.params", errors,
                        (int, float))
        if frac is not None and not 0 <= frac <= 1:
            errors.append(f"{path}.params.fraction: must be in [0,1]")


def config_hash(cfg):
    """Stable hash of the resolved config for provenance."""
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def dump_resolved(cfg, path):
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)
