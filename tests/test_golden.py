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
        # Moved only by config_hash: trust.query_latency_us left the schema.
        "ef2c88dec9fc56ca88f4b2e0596332118a594b34e94acca8237a0eca7a0bb0db"),
    "latency-budgets": (
        lambda: load_scenario("latency-budgets.yaml"),
        # Moved only by config_hash: trust.query_latency_us left the schema.
        "ac11d7362e1f26144d1cdfb61973ab600b2ae497c789aa46460271f794b9a3f4"),
    "split-lossy": (
        lambda: build(_split_lossy_raw()),
        # Moved only by config_hash: trust.query_latency_us left the schema.
        "4ed09f150f5815db93bfc464104c4f95aab53fae87931b6839d8532cb1b012cd"),
    "handover": (
        lambda: build(_handover_raw()),
        # Moved only by config_hash: trust.query_latency_us left the schema.
        "4e7db2a2aea815fa67e3b015c98182d87b7db611b883a869e686c46ef3baa590"),
    "ecn-overload": (
        lambda: build(_ecn_overload_raw()),
        # Recorded on the code before the tuple event heap and the
        # whole-PDU fast paths, and unchanged by them.
        "b39bda435463267f7d07f49ee43b061cdcb9317c5bfb34ac785e2f3a443031c5"),
}


def fingerprint(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_fingerprint(name):
    make_cfg, expected = CASES[name]
    assert fingerprint(run_scenario(make_cfg())) == expected
