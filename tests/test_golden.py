"""Golden report fingerprints.

Each case pins the SHA-256 of ``json.dumps(report, sort_keys=True)`` for
one run.  A refactor or speed-up must leave every hash unchanged; a change
that moves one is a behaviour change and must say why next to the new hash.
"""

import hashlib
import json

import pytest

from ransim.runtime import run_scenario
from test_acceptance import (_handover_raw, build, load_scenario,
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


CASES = {
    "smoke": (
        lambda: load_scenario("smoke.yaml"),
        "c0b62b620a05571935064f3fff6ed93b3ab69e44154dec9298d0b34fee8fccf4"),
    "latency-budgets": (
        lambda: load_scenario("latency-budgets.yaml"),
        "8d008bab4f9959f3d66facb0d46d19047241d48f56937f044166953577e47a99"),
    "split-lossy": (
        lambda: build(_split_lossy_raw()),
        "e4df837e4609d0e3e1c2e157411cbc1d194a8740bef4759fd16a2fcc91240367"),
    "handover": (
        lambda: build(_handover_raw()),
        "49f5ce406fcebb2f11f43346a7fbbc84545bd2c61b8fc3a2f92249b7ac1b4e70"),
}


def fingerprint(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_fingerprint(name):
    make_cfg, expected = CASES[name]
    assert fingerprint(run_scenario(make_cfg())) == expected
