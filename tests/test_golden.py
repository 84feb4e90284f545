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

from ransim.runtime import run_scenario  # noqa: E402
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


CASES = {
    "smoke": (
        lambda: load_scenario("smoke.yaml"),
        # Moved only by config_hash: min_slice_share left the resolved
        # config; the report minus config_hash is byte-identical.
        "c93643be2c16291ba4858c5ed874ef4befb7e8cec5e9e5b2786272b0522488ab"),
    "latency-budgets": (
        lambda: load_scenario("latency-budgets.yaml"),
        # Moved only by config_hash: min_slice_share left the resolved
        # config; the report minus config_hash is byte-identical.
        "b9be48dccf4c52d70136e937a416e93ab789dc13133fd17bab2c1031823ac266"),
    "split-lossy": (
        lambda: build(_split_lossy_raw()),
        # Moved only by config_hash: min_slice_share left the resolved
        # config; the report minus config_hash is byte-identical.
        "8b27b9ec5f98b7f8a51d4c363282608b5dbc55184209dfbb8845debde00fbf4a"),
    "handover": (
        lambda: build(_handover_raw()),
        # Moved only by config_hash: min_slice_share left the resolved
        # config; the report minus config_hash is byte-identical.
        "c3bae9140858fbba2da49f3dec2e6aa1169b73ad394b044ae427313951793a39"),
    "ecn-overload": (
        lambda: build(_ecn_overload_raw()),
        # Moved only by config_hash: min_slice_share left the resolved
        # config; the report minus config_hash is byte-identical.
        "9754480a5c5e042bb0f7d44774055d63d176edf27616b06b68f68d8155bf4ccf"),
    # The four below pin the paths that Simulator.every and the merged
    # event paths rewired; recorded before that change.
    "split-uncredited": (
        lambda: build(_split_uncredited_raw()),
        "f0eb0dc9a01c0c165b5c30d25ee1cef4fecb03171e3c9f6836570f3cee5aaf03"),
    "subnet": (
        lambda: build(_subnet_raw(500_000)),
        "94a0f371b0b77235eaa107eb641d78f6a35478aad399db28bdfd62d1d5865ade"),
    "trust": (
        lambda: build(_trust_raw()),
        "b57b9b8d47f024b90fd1604b695e8de8ac09475068918609f538ec2a5d24eb92"),
    "set-bler": (
        lambda: build(_set_bler_raw()),
        "31631a7c68537b15601e94bf704413252c0c3d69c665ca84ce68bb9b3da7c740"),
}


def fingerprint(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_fingerprint(name):
    make_cfg, expected = CASES[name]
    assert fingerprint(run_scenario(make_cfg())) == expected


if __name__ == "__main__":
    for name in sorted(CASES):
        print(name, fingerprint(run_scenario(CASES[name][0]())))
