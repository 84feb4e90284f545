"""Scenario files: strict YAML schema, exhaustive error reporting, defaults.

``validate_scenario`` is the one check of scenario input: the build and the
run trust what it returns.  Only model rules stay at the build (QoS
classification, the slice of a bearer, auto-placement and the placement
rules), each failing with a ``ConfigError`` that names its cause.

The resolved config (defaults filled in) is itself a valid scenario: dumping
and re-parsing it is a fixed point.  Every output artifact embeds the seed
and a hash of the resolved config for provenance.
"""

import hashlib
import json

import yaml

from . import orchestrate as orch
from . import radio
from . import topology as topo
from . import traffic as tra
from .core import ConfigError, US_PER_S

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
    "sites": [],
    "links": [],
    "carriers": [],
    "rus": [],
    "ranfs": [],
    "ues": [],
    "bearers": [],
    "placement": [],
    "slices": [],
    "subnetworks": [],
    "script": [],
}

# Specs: each allowed key maps to its default, or to a tuple of types for a
# required key.  A dict default is the spec of a nested mapping; a list
# default also requires a list.
_NESTED_DEFAULTS = {
    "harq": {"processes": 8, "rtt_ttis": 4, "max_tx": 4,
             "feedback_error_rate": 0.0},
    "aqm": {"mark_threshold_us": 1_000, "drop_threshold_us": 50_000},
    "rlc": {"window": 64, "max_retx": None, "status_interval_us": 5_000},
    "fronthaul": {"mode": radio.CENTRALIZED_BF, "expansion_factor": 4,
                  "update_cost_bytes": 64},
    "split": {"d_f1_us": 0, "credit_bytes": None},
    "class_weights": {"MissionCritical": 100.0, "Moderate": 1.0},
    "serving": {"quality_threshold": 0.1, "max_set_size": 1},
    "trust": {"weights": [0.5, 0.3, 0.2], "threshold": 0.6,
              "reassess_interval_us": 1_000_000},
    "orchestrator": {"hysteresis": 3, "tick_us": 100_000,
                     "idle_sleep_interval_us": 10_000},
    "bler": {"default": 0.0, "entries": []},
}

_TRAFFIC_DEFAULTS = {
    "pattern": tra.CBR,
    "rate_bytes_per_s": 1_000_000.0,
    "sdu_bytes": 1500,
    "burst_period_us": 100_000,
    "burst_bytes": 15_000,
    "fps": 90.0,
    "frame_bytes": 50_000,
    "frame_jitter": 0.0,
    "congestion_law": tra.NO_REACTION,
    "recovery_step": 0.05,
    "rtt_window_us": 50_000,
    "start_us": 0,
    "stop_us": None,
}

_NONLOCAL_TRAFFIC = {"src": (str,), "size": (int,), "period_us": (int,),
                     "start_us": 0, "stop_us": None}
_UE_TRUST = {"auth": 1.0, "history": 1.0, "anomaly": 0.0}
_BLER_ENTRY = {"ue": (str,), "ru": (str,), "carrier": (str,),
               "bler": (int, float)}

# The list sections of a scenario, with the spec of their entries.
_ENTRIES = {
    "sites": {"id": (str,), "kind": (str,), "cpu_capacity": 100.0},
    "links": {"a": (str,), "b": (str,), "latency_us": (int,)},
    "carriers": {"id": (str,), "prbs_per_tti": (int,),
                 "bytes_per_prb": (int,)},
    "rus": {"id": (str,), "site": (str,), "carriers": (list,),
            "fronthaul_latency_us": 50},
    "ranfs": {"id": (str,), "site": (str,), "rus": [], "neighbors": []},
    "slices": {"id": (str,), "latency_budget_us": None, "auto_place": False},
    "placement": {"id": (str,), "kind": (str,), "site": (str,),
                  "slice": None, "bound_ru": None, "cpu_load": 1.0},
    "ues": {"id": (str,), "ranf": (str,), "trust": _UE_TRUST,
            "trust_threshold": None},
    "bearers": {"id": (str,), "ue": (str,), "latency_req_us": (int,),
                "reliability_req": (float,), "ecn_capable": False,
                "traffic": _TRAFFIC_DEFAULTS},
    "subnetworks": {"id": (str,), "parent_ranf": None, "parent_ru": None,
                    "autonomous_prbs": 0, "grant_prbs": 10,
                    "grant_period_us": 100_000, "local_bytes_per_prb": 64,
                    "nonlocal_ttl_us": 1_000_000, "parent_latency_us": 2_000,
                    "devices": [], "local_traffic": [],
                    "nonlocal_traffic": []},
}
_SUBNET_TRAFFIC = {"local_traffic": {**_NONLOCAL_TRAFFIC, "dst": (str,)},
                   "nonlocal_traffic": _NONLOCAL_TRAFFIC}
_SCRIPT_ACTIONS = {
    "handover": {"ue": (str,), "dst": (str,)},
    "migrate": {"instance": (str,), "site": (str,)},
    "anomaly": {"ue": (str,), "anomaly_score": (int, float)},
    "policy": {"policy": (dict,)},
    "detach_subnet": {"subnet": (str,)},
    "attach_subnet": {"subnet": (str,), "ranf": (str,), "ru": (str,)},
    "device_handover": {"device": (str,), "src": (str,), "dst": None},
    "set_bler": _BLER_ENTRY,
}
_SCRIPT_SPECS = {action: {"at_us": (int,), "action": (str,), **spec}
                 for action, spec in _SCRIPT_ACTIONS.items()}

_NUMBER = (int, float)
_POSITIVE = (lambda v: type(v) in _NUMBER and v > 0, "must be positive")
_NON_NEGATIVE = (lambda v: type(v) in _NUMBER and v >= 0,
                 "must be non-negative")
_FRACTION = (lambda v: type(v) in _NUMBER and 0 <= v <= 1, "must be in [0,1]")
_INT = (lambda v: type(v) is int, "must be an integer")
_POSITIVE_INT = (lambda v: type(v) is int and v > 0,
                 "must be a positive integer")
_NON_NEGATIVE_INT = (lambda v: type(v) is int and v >= 0,
                     "must be a non-negative integer")
_BOOL = (lambda v: type(v) is bool, "must be true or false")


def _or_null(rule):
    return (lambda v: v is None or rule[0](v), rule[1] + " or null")


_TIME_OR_NULL = _or_null(_NON_NEGATIVE_INT)


def _one_of(*values):
    return (lambda v: v in values, f"must be one of {list(values)}")


# The checks of each entry kind (and of the scenario's top level), by key:
# the kind of id the value names (each item of a list; None names nothing),
# a (test, message) pair for the value, or the checks of a nested mapping.
# Every value the run reschedules by or divides by must be positive, and
# every time (a ``*_us`` key) is an integer, or null where its default is.
_BLER_CHECKS = {"ue": "ues", "ru": "rus", "carrier": "carriers",
                "bler": _FRACTION}
_SUBNET_TRAFFIC_CHECKS = {"period_us": _POSITIVE_INT,
                          "start_us": _NON_NEGATIVE_INT,
                          "stop_us": _TIME_OR_NULL}
_CHECKS = {
    "scenario": {
        "seed": _INT, "duration_us": _POSITIVE_INT,
        "mode": _one_of(MODE_SIXG, MODE_SPLIT),
        "tti_us": (lambda v: type(v) is int and 125 <= v <= 1000,
                   "must be an integer within [125, 1000]"),
        **dict.fromkeys(("reliable_harq", "drop_indication", "dmimo",
                         "energy"), _BOOL),
        "t_reordering_us": _POSITIVE_INT,
        "handover_interruption_us": _NON_NEGATIVE_INT,
        "migration_downtime_us": _NON_NEGATIVE_INT,
        "cn_entry_site": "sites",
        "harq": {**dict.fromkeys(("processes", "rtt_ttis", "max_tx"),
                                 _POSITIVE_INT),
                 "feedback_error_rate": _FRACTION},
        "aqm": dict.fromkeys(("mark_threshold_us", "drop_threshold_us"),
                             _NON_NEGATIVE_INT),
        "rlc": {"window": _POSITIVE_INT,
                "max_retx": _or_null(_NON_NEGATIVE_INT),
                "status_interval_us": _POSITIVE_INT},
        "split": {"d_f1_us": _NON_NEGATIVE_INT,
                  "credit_bytes": _or_null(_POSITIVE_INT)},
        "class_weights": dict.fromkeys(_NESTED_DEFAULTS["class_weights"],
                                       _NON_NEGATIVE),
        "serving": {"quality_threshold": _FRACTION,
                    "max_set_size": _POSITIVE_INT},
        "orchestrator": {"hysteresis": _POSITIVE_INT, "tick_us": _POSITIVE_INT,
                         "idle_sleep_interval_us": _NON_NEGATIVE_INT},
        "trust": {"reassess_interval_us": _POSITIVE_INT, "weights": (
            lambda w: len(w) == 3 and all(type(x) in _NUMBER and x >= 0
                                          for x in w)
            and abs(sum(w) - 1.0) <= 1e-9,
            "must be three non-negative weights that sum to 1"),
            "threshold": _FRACTION},
        "fronthaul": {"mode": _one_of(radio.CENTRALIZED_BF,
                                      radio.RU_LOCAL_BF)},
    },
    "sites": {"kind": _one_of(topo.ONPREM, topo.FAREDGE),
              "cpu_capacity": _POSITIVE},
    "links": {"a": "sites", "b": "sites", "latency_us": _NON_NEGATIVE},
    "carriers": {"prbs_per_tti": _POSITIVE, "bytes_per_prb": _POSITIVE},
    "rus": {"site": "sites", "carriers": "carriers",
            "fronthaul_latency_us": _NON_NEGATIVE_INT},
    "ranfs": {"site": "sites", "rus": "rus", "neighbors": "ranfs"},
    "slices": {"latency_budget_us": _TIME_OR_NULL, "auto_place": _BOOL},
    "placement": {"kind": _one_of(*topo.FUNCTION_KINDS), "site": "sites",
                  "slice": "slices", "bound_ru": "rus"},
    "ues": {"ranf": "ranfs", "trust": dict.fromkeys(_UE_TRUST, _FRACTION),
            "trust_threshold": _or_null(_FRACTION)},
    "bearers": {"ue": "ues", "ecn_capable": _BOOL, "traffic": {
        "pattern": _one_of(tra.CBR, tra.POISSON, tra.PERIODIC_BURST,
                           tra.XR_FRAME),
        "congestion_law": _one_of(tra.NO_REACTION, tra.L4S, tra.CLASSIC),
        "rate_bytes_per_s": _NON_NEGATIVE, "sdu_bytes": _POSITIVE,
        "burst_bytes": _POSITIVE, "frame_bytes": _POSITIVE,
        "frame_jitter": _NON_NEGATIVE, "recovery_step": _NON_NEGATIVE,
        "burst_period_us": _POSITIVE_INT, "rtt_window_us": _POSITIVE_INT,
        # XrFrame frames are int(1e6 / fps) us apart: at least 1 us.
        "fps": (lambda v: type(v) in _NUMBER and 0 < v <= US_PER_S,
                f"must be in (0, {US_PER_S}]"),
        "start_us": _NON_NEGATIVE_INT, "stop_us": _TIME_OR_NULL}},
    "subnetworks": {
        "parent_ranf": "ranfs", "parent_ru": "rus",
        **dict.fromkeys(("grant_period_us", "local_bytes_per_prb"),
                        _POSITIVE_INT),
        **dict.fromkeys(("autonomous_prbs", "grant_prbs", "nonlocal_ttl_us",
                         "parent_latency_us"), _NON_NEGATIVE_INT)},
    "local_traffic": _SUBNET_TRAFFIC_CHECKS,
    "nonlocal_traffic": _SUBNET_TRAFFIC_CHECKS,
    "bler.entries": _BLER_CHECKS,
}
_SCRIPT_CHECKS = {
    "handover": {"ue": "ues", "dst": "ranfs"},
    "migrate": {"instance": "instances", "site": "sites"},
    "anomaly": {"ue": "ues", "anomaly_score": _FRACTION},
    "policy": {},
    "detach_subnet": {"subnet": "subnetworks"},
    "attach_subnet": {"subnet": "subnetworks", "ranf": "ranfs", "ru": "rus"},
    "device_handover": {"device": "devices", "src": "subnetworks",
                        "dst": "subnetworks"},
    "set_bler": _BLER_CHECKS,
}
_CHECKS.update((action, {"at_us": _NON_NEGATIVE, **checks})
               for action, checks in _SCRIPT_CHECKS.items())
# The spec of each entry kind in _CHECKS; the scenario's is its allowed keys.
_SPECS = {"scenario": {**_TOP_DEFAULTS, **_NESTED_DEFAULTS,
                       "duration_us": (int,)},
          **_ENTRIES, **_SUBNET_TRAFFIC, **_SCRIPT_SPECS,
          "bler.entries": _BLER_ENTRY}


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


def _fill(obj, spec, path, errors):
    """Check ``obj`` against ``spec`` and fill in its defaults in place;
    True when every key of ``spec`` can be read (``obj`` is a mapping, and
    each required key, nested mapping and list has a value of its type)."""
    if not _check_keys(obj, spec, path, errors):
        return False
    ok = True
    for key, rule in spec.items():
        kind = type(rule)
        if kind is tuple:
            val = obj.get(key)
            if val is None:
                errors.append(f"{path}: missing required key {key!r}")
                ok = False
            elif not isinstance(val, rule):
                errors.append(f"{path}.{key}: expected {rule}, "
                              f"got {type(val).__name__}")
                ok = False
        elif kind is dict:  # a nested mapping of defaults only
            sub = obj.get(key)
            if sub is None:
                obj[key] = rule.copy()
            elif _check_keys(sub, rule, f"{path}.{key}", errors):
                obj[key] = {**rule, **sub}
            else:
                ok = False
        elif key not in obj:
            obj[key] = rule.copy() if kind is list else rule
        elif kind is list and not isinstance(obj[key], list):
            errors.append(f"{path}.{key}: expected a list, "
                          f"got {type(obj[key]).__name__}")
            ok = False
    return ok


def _check(obj, spec, path, checks, ids, errors):
    """Apply ``checks`` (see ``_CHECKS``) to a mapping that meets ``spec``;
    a value that is its spec default is valid."""
    for key, rule in checks.items():
        value = obj[key]
        if value is spec[key]:
            continue
        if type(rule) is str:
            if value is None:
                continue
            for v in value if type(value) is list else (value,):
                if type(v) is not str or v not in ids[rule]:
                    errors.append(f"{path}.{key}: {v!r} is not in {rule}")
        elif type(rule) is dict:
            _check(value, spec[key], f"{path}.{key}", rule, ids, errors)
        elif not rule[0](value):
            errors.append(f"{path}.{key}: {rule[1]}")


def parse_scenario(path):
    """Load and validate a scenario file; raises SchemaErrors listing every problem."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    return validate_scenario(raw)


def validate_scenario(raw):
    """Validate a raw scenario mapping; returns the resolved config dict.

    Raises SchemaErrors listing every problem.  The entries of the list
    sections are completed in place.
    """
    errors = []
    if not isinstance(raw, dict):
        raise SchemaErrors(["scenario must be a mapping at the top level"])

    _check_keys(raw, _SPECS["scenario"], "scenario", errors)

    # Every config gets its own copy of the mutable (list) defaults, so that
    # editing one resolved config in place cannot change the next one.
    cfg = {}
    for key, default in _TOP_DEFAULTS.items():
        value = raw.get(key)
        if value is None:
            value = list(default) if isinstance(default, list) else default
        elif isinstance(default, list) and not isinstance(value, list):
            errors.append(f"scenario.{key}: expected a list")
            value = []
        cfg[key] = value
    for section, spec in _NESTED_DEFAULTS.items():
        sub = raw.get(section)
        if sub is None or not _fill(sub, spec, section, errors):
            sub = {k: v.copy() if type(v) is list else v
                   for k, v in spec.items()}
        cfg[section] = sub

    cfg["duration_us"] = raw.get("duration_us")
    lo, hi = cfg["aqm"]["mark_threshold_us"], cfg["aqm"]["drop_threshold_us"]
    if not (type(lo) in _NUMBER and type(hi) in _NUMBER and lo <= hi):
        errors.append("aqm.drop_threshold_us: must be at least "
                      "mark_threshold_us")

    # Each entry that meets its spec, as (path, entry), by entry kind; the
    # ids of each kind.
    entries = {"scenario": [("scenario", cfg)]}
    ids = {}
    for what, spec in _ENTRIES.items():
        items = cfg[what]
        if what in ("sites", "carriers", "rus", "ranfs") and not items:
            errors.append(f"scenario.{what}: at least one entry is required")
        entries[what] = _entries(items, spec, what, errors, ids)
    entries["bler.entries"] = _entries(cfg["bler"]["entries"], _BLER_ENTRY,
                                       "bler.entries", errors)
    ids["devices"] = set()
    for path, sn in entries["subnetworks"]:
        ids["devices"].update(d for d in sn["devices"] if type(d) is str)
        for what, spec in _SUBNET_TRAFFIC.items():
            entries.setdefault(what, []).extend(
                _entries(sn[what], spec, f"{path}.{what}", errors))
    ids["instances"] = set(ids["placement"])
    for path, sl in entries["slices"]:
        if sl["auto_place"]:
            ids["instances"].update(orch.auto_instance_ids(sl["id"]))
            if sl["latency_budget_us"] is None:
                errors.append(f"{path}: auto_place requires latency_budget_us")
    for idx, ev in enumerate(cfg["script"]):
        path = f"script[{idx}]"
        action = ev.get("action") if isinstance(ev, dict) else None
        if isinstance(action, str) and action in _SCRIPT_SPECS:
            if _fill(ev, _SCRIPT_SPECS[action], path, errors):
                entries.setdefault(action, []).append((path, ev))
        elif action is not None:
            errors.append(f"{path}.action: unknown action {action!r}")
        else:
            _fill(ev, {"at_us": (int,), "action": (str,)}, path, errors)

    for what, good in entries.items():
        spec, checks = _SPECS[what], _CHECKS[what]
        for path, entry in good:
            _check(entry, spec, path, checks, ids, errors)

    # Rules between entries.
    site_kind = {s["id"]: s["kind"] for _, s in entries["sites"]}
    for path, r in entries["rus"]:
        if not r["carriers"]:
            errors.append(f"{path}.carriers: at least one carrier required")
        if site_kind.get(r["site"]) == topo.FAREDGE:
            errors.append(f"{path}.site: an RU attaches to an OnPrem site")
    served_by = {}
    for path, rf in entries["ranfs"]:
        if not rf["rus"]:
            errors.append(f"{path}.rus: a RANF serves at least one RU")
        for ru in rf["rus"]:
            if type(ru) is str and served_by.setdefault(ru, path) != path:
                errors.append(f"{path}.rus: RU {ru!r} is already served by "
                              f"{served_by[ru]}")
    first_link = {}  # (a, b) with a <= b -> (path, latency) of its first link
    for path, link in entries["links"]:
        a, b, lat = link["a"], link["b"], link["latency_us"]
        first, first_lat = first_link.setdefault((min(a, b), max(a, b)),
                                                  (path, lat))
        if first_lat != lat:
            errors.append(f"{path}.latency_us: {lat} differs from the "
                          f"{first_lat} of {first}, between the same sites")
    for path, ev in entries.get("policy", ()):
        _check_policy(ev["policy"], f"{path}.policy", ids["slices"], errors)

    if errors:
        raise SchemaErrors(errors)
    return cfg


def _entries(items, spec, what, errors, ids=None):
    """(path, entry) of each entry of ``items`` that meets ``spec``; the
    ids of all its entries go into ``ids[what]``."""
    good = []
    first = {}  # id -> the path of its first entry
    for idx, item in enumerate(items):
        path = f"{what}[{idx}]"
        iid = item.get("id") if isinstance(item, dict) else None
        if type(iid) is str:  # else the spec check reports it
            if iid in first:
                errors.append(f"{path}: duplicate id {iid!r} (first at "
                              f"{first[iid]})")
            first.setdefault(iid, path)
        if _fill(item, spec, path, errors):
            good.append((path, item))
    if ids is not None:
        ids[what] = set(first)
    return good


def _check_policy(policy, path, slice_ids, errors):
    if not _check_keys(policy, {"id", "directive", "params"}, path, errors):
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
