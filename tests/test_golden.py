"""Golden report fingerprints.

Each case pins the SHA-256 of ``json.dumps(report, sort_keys=True)`` for
one run.  A refactor or speed-up must leave every hash unchanged; a change
that moves one is a behaviour change and must say why next to the new hash.
"""

import hashlib
import json
import os

import pytest
import yaml

from ransim.runtime import run_scenario
from test_acceptance import (SCENARIO_DIR, _handover_raw, build,
                             load_scenario, single_cell_raw)


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


CASES = {
    "smoke": (
        lambda: load_scenario("smoke.yaml"),
        # Moved only by config_hash: strict_anchor and record left the
        # schema; the report minus config_hash is byte-identical.
        "6589a99f2d3b915e14d3bf1048394e4db7d0d0804db4d5e8890a77e17fb8c55c"),
    "latency-budgets": (
        lambda: load_scenario("latency-budgets.yaml"),
        # Moved only by config_hash: strict_anchor and record left the
        # schema; the report minus config_hash is byte-identical.
        "d743eba8c62326324e1a068ec282dce96725d636a03067cd67e32f84565764c4"),
    "split-lossy": (
        lambda: build(_split_lossy_raw()),
        # Moved only by config_hash: strict_anchor and record left the
        # schema; the report minus config_hash is byte-identical.
        "b34cee2ac36358f8f54cbba97bdd34acfe797b05ab40d51694e99d28c51d8b44"),
    "handover": (
        lambda: build(_handover_raw()),
        # Moved only by config_hash: strict_anchor and record left the
        # schema; the report minus config_hash is byte-identical.
        "b989e5a684f8558c7aae184398abf37bf35bbb4d555ce22dfa9a962d12961441"),
    "ecn-overload": (
        lambda: build(_ecn_overload_raw()),
        # Moved only by config_hash: strict_anchor and record left the
        # schema; the report minus config_hash is byte-identical.
        "3318109b7a85a5bbab20eaa4fcaf9afd21c55bdd0689acf043903959dc85cc98"),
}


def fingerprint(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_fingerprint(name):
    make_cfg, expected = CASES[name]
    assert fingerprint(run_scenario(make_cfg())) == expected
