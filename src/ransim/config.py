"""Scenario files: strict YAML schema, exhaustive error reporting, defaults.

``validate_scenario`` is the one check of scenario input: the build and the
run trust what it returns.  Only model rules stay at the build (QoS
classification, the slice of a bearer, auto-placement and the placement
rules), each failing with a ``ConfigError`` that names its cause.

Each key of the schema is declared once, in the table of its entry kind:
its default (or its required types) and its rule (or the kind of id it
names).  Filling in the defaults and checking the values both read that
table; a script event's table is chosen by its action, and a policy's by
its directive.

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

_NUMBER = (int, float)
_STR = (str,)
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


def _one_of(*values):
    return (lambda v: v in values, f"must be one of {list(values)}")


# The schema.  A table maps each key of an entry kind to (default, rule):
# - the default is the value of an omitted key; a tuple of types marks a
#   required key, a table that of a nested mapping, and a list default
#   also requires a list;
# - the rule is None, the kind of id the value names (each item of a list;
#   null names nothing), a (test, message) pair, or, for a list of entries,
#   the table of its entries.
# A value that is its default passes, unless the default fails its rule
# (null ``duration_us``, which has no default).  Every value the
# run reschedules by or divides by must be positive, and every time (a
# ``*_us`` key) is an integer, or null where its default is.
class _Table(dict):
    """A table of the schema; its attributes sort the keys for ``_fill``
    and ``_check``."""

    def __init__(self, table):
        super().__init__(table)
        self.defaults = {k: d for k, (d, _) in table.items()
                         if type(d) not in (tuple, list, _Table)}
        # A nested mapping of plain defaults only is filled in by a merge.
        self.plain = len(self.defaults) == len(table)
        # (key, the value that passes unchecked, rule) of each value rule:
        # the default, unless it fails its rule.
        self.rules = [(k, d if type(r) is str or r[0](d) else object(), r)
                      for k, (d, r) in table.items()
                      if type(r) in (str, tuple)]
        # The nested mappings that have rules.
        self.nested = [(k, d) for k, (d, _) in table.items()
                       if type(d) is _Table and (d.rules or d.nested)]


def _mapping(**table):
    """The spec of a nested mapping: its table, and no rule of its own."""
    return _Table(table), None


_NAME = (_STR, None)  # a required string
_TIME_OR_NULL = _or_null(_NON_NEGATIVE_INT)
_WINDOW = {"start_us": (0, _NON_NEGATIVE_INT),
           "stop_us": (None, _TIME_OR_NULL)}
_SUBNET_TRAFFIC = {"src": _NAME, "size": ((int,), None),
                   "period_us": ((int,), _POSITIVE_INT), **_WINDOW}
_BLER_ENTRY = _Table({"ue": (_STR, "ues"), "ru": (_STR, "rus"),
                      "carrier": (_STR, "carriers"),
                      "bler": (_NUMBER, _FRACTION)})

# The list sections of a scenario, with the table of their entries.
_ENTRIES = {what: _Table(table) for what, table in {
    "sites": {"id": _NAME, "kind": (_STR, _one_of(topo.ONPREM, topo.FAREDGE)),
              "cpu_capacity": (100.0, _POSITIVE)},
    "links": {"a": (_STR, "sites"), "b": (_STR, "sites"),
              "latency_us": ((int,), _NON_NEGATIVE)},
    "carriers": {"id": _NAME, "prbs_per_tti": ((int,), _POSITIVE),
                 "bytes_per_prb": ((int,), _POSITIVE)},
    "rus": {"id": _NAME, "site": (_STR, "sites"),
            "carriers": ((list,), "carriers"),
            "fronthaul_latency_us": (50, _NON_NEGATIVE_INT)},
    "ranfs": {"id": _NAME, "site": (_STR, "sites"), "rus": ([], "rus"),
              "neighbors": ([], "ranfs")},
    "slices": {"id": _NAME, "latency_budget_us": (None, _TIME_OR_NULL),
               "auto_place": (False, _BOOL)},
    "placement": {"id": _NAME, "kind": (_STR, _one_of(*topo.FUNCTION_KINDS)),
                  "site": (_STR, "sites"), "slice": (None, "slices"),
                  "bound_ru": (None, "rus"), "cpu_load": (1.0, _NON_NEGATIVE)},
    "ues": {"id": _NAME, "ranf": (_STR, "ranfs"),
            "trust": _mapping(auth=(1.0, _FRACTION), history=(1.0, _FRACTION),
                              anomaly=(0.0, _FRACTION)),
            "trust_threshold": (None, _or_null(_FRACTION))},
    "bearers": {
        "id": _NAME, "ue": (_STR, "ues"), "latency_req_us": ((int,), None),
        "reliability_req": ((float,), None), "ecn_capable": (False, _BOOL),
        "traffic": _mapping(
            pattern=(tra.CBR, _one_of(tra.CBR, tra.POISSON,
                                      tra.PERIODIC_BURST, tra.XR_FRAME)),
            rate_bytes_per_s=(1_000_000.0, _NON_NEGATIVE),
            sdu_bytes=(1500, _POSITIVE_INT),
            burst_period_us=(100_000, _POSITIVE_INT),
            burst_bytes=(15_000, _POSITIVE_INT),
            # XrFrame frames are int(1e6 / fps) us apart: at least 1 us.
            fps=(90.0, (lambda v: type(v) in _NUMBER and 0 < v <= US_PER_S,
                        f"must be in (0, {US_PER_S}]")),
            frame_bytes=(50_000, _POSITIVE_INT),
            frame_jitter=(0.0, _NON_NEGATIVE),
            congestion_law=(tra.NO_REACTION, _one_of(
                tra.NO_REACTION, tra.L4S, tra.CLASSIC)),
            recovery_step=(0.05, _NON_NEGATIVE),
            rtt_window_us=(50_000, _POSITIVE_INT), **_WINDOW)},
    "subnetworks": {
        "id": _NAME, "parent_ranf": (None, "ranfs"),
        "parent_ru": (None, "rus"),
        "autonomous_prbs": (0, _NON_NEGATIVE_INT),
        "grant_prbs": (10, _NON_NEGATIVE_INT),
        "grant_period_us": (100_000, _POSITIVE_INT),
        "local_bytes_per_prb": (64, _POSITIVE_INT),
        "nonlocal_ttl_us": (1_000_000, _NON_NEGATIVE_INT),
        "parent_latency_us": (2_000, _NON_NEGATIVE_INT), "devices": ([], None),
        "local_traffic": ([], _Table({**_SUBNET_TRAFFIC, "dst": _NAME})),
        "nonlocal_traffic": ([], _Table(_SUBNET_TRAFFIC))},
}.items()}

_SCENARIO = _Table({
    "seed": (1, _INT),
    # The one key without a default: null, which its rule rejects.
    "duration_us": (None, _POSITIVE_INT),
    "mode": (MODE_SIXG, _one_of(MODE_SIXG, MODE_SPLIT)),
    "tti_us": (500, (lambda v: type(v) is int and 125 <= v <= 1000,
                     "must be an integer within [125, 1000]")),
    "reliable_harq": (True, _BOOL),
    "drop_indication": (True, _BOOL),
    "dmimo": (False, _BOOL),
    "energy": (False, _BOOL),
    "cn_entry_site": (None, "sites"),
    "t_reordering_us": (20_000, _POSITIVE_INT),
    "handover_interruption_us": (5_000, _NON_NEGATIVE_INT),
    "migration_downtime_us": (10_000, _NON_NEGATIVE_INT),
    "harq": _mapping(processes=(8, _POSITIVE_INT), rtt_ttis=(4, _POSITIVE_INT),
                     max_tx=(4, _POSITIVE_INT),
                     feedback_error_rate=(0.0, _FRACTION)),
    "aqm": _mapping(mark_threshold_us=(1_000, _NON_NEGATIVE_INT),
                    drop_threshold_us=(50_000, _NON_NEGATIVE_INT)),
    "rlc": _mapping(window=(64, _POSITIVE_INT),
                    max_retx=(None, _or_null(_NON_NEGATIVE_INT)),
                    status_interval_us=(5_000, _POSITIVE_INT)),
    "fronthaul": _mapping(
        mode=(radio.CENTRALIZED_BF,
              _one_of(radio.CENTRALIZED_BF, radio.RU_LOCAL_BF)),
        expansion_factor=(4, _POSITIVE),
        update_cost_bytes=(64, _NON_NEGATIVE_INT)),
    "split": _mapping(d_f1_us=(0, _NON_NEGATIVE_INT),
                      credit_bytes=(None, _or_null(_POSITIVE_INT))),
    "class_weights": _mapping(MissionCritical=(100.0, _NON_NEGATIVE),
                              Moderate=(1.0, _NON_NEGATIVE)),
    "serving": _mapping(quality_threshold=(0.1, _FRACTION),
                        max_set_size=(1, _POSITIVE_INT)),
    "trust": _mapping(
        weights=([0.5, 0.3, 0.2], (
            lambda w: len(w) == 3 and all(type(x) in _NUMBER and x >= 0
                                          for x in w)
            and abs(sum(w) - 1.0) <= 1e-9,
            "must be three non-negative weights that sum to 1")),
        threshold=(0.6, _FRACTION),
        reassess_interval_us=(1_000_000, _POSITIVE_INT)),
    "orchestrator": _mapping(
        hysteresis=(3, _POSITIVE_INT), tick_us=(100_000, _POSITIVE_INT),
        idle_sleep_interval_us=(10_000, _NON_NEGATIVE_INT)),
    "bler": _mapping(default=(0.0, _FRACTION), entries=([], _BLER_ENTRY)),
    **{what: ([], table) for what, table in _ENTRIES.items()},
    "script": ([], None),  # each event's table is chosen by its action
})

_SCRIPT = {action: _Table({"at_us": ((int,), _NON_NEGATIVE), "action": _NAME,
                           **table}) for action, table in {
    "handover": {"ue": (_STR, "ues"), "dst": (_STR, "ranfs")},
    "migrate": {"instance": (_STR, "instances"), "site": (_STR, "sites")},
    "anomaly": {"ue": (_STR, "ues"), "anomaly_score": (_NUMBER, _FRACTION)},
    "policy": {"policy": ((dict,), None)},  # its table is chosen by directive
    "detach_subnet": {"subnet": (_STR, "subnetworks")},
    "attach_subnet": {"subnet": (_STR, "subnetworks"), "ranf": (_STR, "ranfs"),
                      "ru": (_STR, "rus")},
    "device_handover": {"device": (_STR, "devices"),
                        "src": (_STR, "subnetworks"),
                        "dst": (None, "subnetworks")},
    "set_bler": _BLER_ENTRY,
}.items()}
_POLICIES = {directive: _Table({"id": _NAME, "directive": _NAME,
                                "params": params})
             for directive, params in {
    orch.ENERGY_SAVING: _mapping(on=(False, _BOOL)),
    orch.MIN_SLICE_SHARE: _mapping(slice=(_STR, "slices"),
                                   fraction=(_NUMBER, _FRACTION)),
}.items()}


class SchemaErrors(ConfigError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("scenario schema errors:\n  " + "\n  ".join(self.errors))


def _fill(obj, table, path, errors):
    """Check ``obj`` against ``table`` and fill in its defaults in place;
    True when every key of ``table`` can be read (``obj`` is a mapping, and
    each required key, nested mapping and list has a value of its type).
    A nested mapping or a list that fails is replaced by its default."""
    if not isinstance(obj, dict):
        errors.append(f"{path}: expected a mapping, got {type(obj).__name__}")
        return False
    if not obj.keys() <= table.keys():
        errors += [f"{path}: unknown key {key!r}" for key in obj
                   if key not in table]
    ok = True
    for key, (default, _) in table.items():
        kind = type(default)
        if kind is tuple:  # a required key, by its types
            val = obj.get(key)
            if val is None:
                errors.append(f"{path}: missing required key {key!r}")
                ok = False
            elif not isinstance(val, default):
                errors.append(f"{path}.{key}: expected {default}, "
                              f"got {type(val).__name__}")
                ok = False
        elif kind is _Table:  # a nested mapping; null means its defaults
            sub = obj.get(key)
            if default.plain and sub is None:
                obj[key] = default.defaults.copy()
            elif default.plain and type(sub) is dict \
                    and sub.keys() <= default.keys():
                obj[key] = {**default.defaults, **sub}
            else:
                obj[key] = sub = {} if sub is None else sub
                if not _fill(sub, default, f"{path}.{key}", errors):
                    obj[key] = {}
                    _fill(obj[key], default, path, [])
                    ok = False
        elif key not in obj:
            obj[key] = default.copy() if kind is list else default
        elif kind is list and not isinstance(obj[key], list):
            errors.append(f"{path}.{key}: expected a list, "
                          f"got {type(obj[key]).__name__}")
            obj[key] = []
            ok = False
    return ok


def _check(entries, table, ids, errors, keys=()):
    """Apply the rules of ``table`` to the mapping at ``keys`` in each
    (path, mapping) of ``entries``, mappings that ``_fill`` completed."""
    rules = table.rules
    for path, obj in entries:
        for key in keys:
            obj = obj[key]
        for key, unchecked, rule in rules:
            value = obj[key]
            if value is unchecked:
                continue
            if type(rule) is tuple:
                if not rule[0](value):
                    errors.append(f"{'.'.join((path, *keys, key))}: "
                                  f"{rule[1]}")
            elif value is not None:
                for v in value if type(value) is list else (value,):
                    if type(v) is not str or v not in ids[rule]:
                        errors.append(f"{'.'.join((path, *keys, key))}: "
                                      f"{v!r} is not in {rule}")
    for key, sub in table.nested:
        _check(entries, sub, ids, errors, keys + (key,))


def _table_of(obj, tables, key, path, errors):
    """The table of ``obj`` in ``tables``, named by ``obj[key]``; None after
    an error."""
    if not isinstance(obj, dict):
        errors.append(f"{path}: expected a mapping, got {type(obj).__name__}")
        return None
    name = obj.get(key)
    if name is None:
        errors.append(f"{path}: missing required key {key!r}")
    elif type(name) is not str or name not in tables:
        errors.append(f"{path}.{key}: unknown {key} {name!r}, "
                      f"expected one of {sorted(tables)}")
    else:
        return tables[name]
    return None


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

    # A top-level null means the default.  Every config gets its own copy
    # of the mutable (list) defaults, so that editing one resolved config in
    # place cannot change the next one.
    cfg = {key: value for key, value in raw.items() if value is not None}
    _fill(cfg, _SCENARIO, "scenario", errors)
    lo, hi = cfg["aqm"]["mark_threshold_us"], cfg["aqm"]["drop_threshold_us"]
    if not (type(lo) in _NUMBER and type(hi) in _NUMBER and lo <= hi):
        errors.append("scenario.aqm.drop_threshold_us: must be at least "
                      "mark_threshold_us")

    # First pass: fill in every entry and collect the ids of each kind.
    # ``checked`` holds (table, [(path, entry), ...]) of the entries that
    # meet their table; ``entries`` those of each list section.
    checked = [(_SCENARIO, [("scenario", cfg)])]
    entries = {}
    ids = {}
    for what, table in _ENTRIES.items():
        if what in ("sites", "carriers", "rus", "ranfs") and not cfg[what]:
            errors.append(f"scenario.{what}: at least one entry is required")
        entries[what] = _entries(cfg[what], table, what, errors, checked, ids)
    _entries(cfg["bler"]["entries"], _BLER_ENTRY, "scenario.bler.entries",
             errors, checked)
    ids["devices"] = set()
    for path, sn in entries["subnetworks"]:
        ids["devices"].update(d for d in sn["devices"] if type(d) is str)
        for what in ("local_traffic", "nonlocal_traffic"):
            _entries(sn[what], _ENTRIES["subnetworks"][what][1],
                     f"{path}.{what}", errors, checked)
    ids["instances"] = set(ids["placement"])
    for path, sl in entries["slices"]:
        if sl["auto_place"]:
            ids["instances"].update(orch.auto_instance_ids(sl["id"]))
            if sl["latency_budget_us"] is None:
                errors.append(f"{path}: auto_place requires latency_budget_us")
    for idx, ev in enumerate(cfg["script"]):
        path = f"script[{idx}]"
        table = _table_of(ev, _SCRIPT, "action", path, errors)
        if table is None or not _fill(ev, table, path, errors):
            continue
        checked.append((table, [(path, ev)]))
        if ev["action"] == "policy":
            path, ev = f"{path}.policy", ev["policy"]
            table = _table_of(ev, _POLICIES, "directive", path, errors)
            if table is not None and _fill(ev, table, path, errors):
                checked.append((table, [(path, ev)]))

    # Second pass: the values and the ids they name.
    for table, good in checked:
        _check(good, table, ids, errors)

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
    if errors:
        raise SchemaErrors(errors)
    return cfg


def _entries(items, table, what, errors, checked, ids=None):
    """(path, entry) of each entry of ``items`` that meets ``table``, also
    added to ``checked``; the ids of all its entries go into
    ``ids[what]``."""
    good = []
    first = {}  # id -> the path of its first entry
    for idx, item in enumerate(items):
        path = f"{what}[{idx}]"
        iid = item.get("id") if isinstance(item, dict) else None
        if type(iid) is str:  # else _fill reports it
            if iid in first:
                errors.append(f"{path}: duplicate id {iid!r} (first at "
                              f"{first[iid]})")
            else:
                first[iid] = path
        if _fill(item, table, path, errors):
            good.append((path, item))
    if good:
        checked.append((table, good))
    if ids is not None:
        ids[what] = set(first)
    return good


def config_hash(cfg):
    """Stable hash of the resolved config for provenance."""
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def dump_resolved(cfg, path):
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)
