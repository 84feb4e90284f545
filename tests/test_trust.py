import pytest

from ransim import trust as tru
from test_config import assert_rejected, edited


def test_score_is_weighted_sum_with_inverted_anomaly():
    f = tru.TrustFeatures(auth_strength=1.0, history_score=0.5, anomaly_score=0.2)
    assert tru.lotaf_score(f) == pytest.approx(0.5 * 1.0 + 0.3 * 0.5 + 0.2 * 0.8)


# Weights and features come from the scenario; validate_scenario checks
# them, and the engine trusts them.

def test_bad_weights_rejected():
    for weights in ([0.5, 0.5, 0.5], [1.2, -0.2, 0.0], [0.5, 0.5],
                    ["a", 0.5, 0.5]):
        assert_rejected(edited([(("trust",), {"weights": weights})]),
                        "scenario.trust.weights")


def test_features_validated():
    for key in ("auth", "history", "anomaly"):
        assert_rejected(edited([(("ues", 0, "trust"), {key: 1.5})]),
                        f"ues[0].trust.{key}")


def test_default_deny_for_unknown_ue():
    eng = tru.TrustEngine()
    assert eng.admission_check("ghost", 0) == tru.REJECT
    entry = eng.audit_log[-1]
    assert entry.ue == "ghost" and entry.event == tru.REJECT and entry.score == 0.0


def test_admit_and_release_flow():
    eng = tru.TrustEngine(threshold=0.6)
    eng.register("u1", tru.TrustFeatures(1.0, 1.0, 0.0))
    assert eng.admission_check("u1", 10, ranf="A") == tru.ADMIT
    assert eng.records["u1"].admitted
    # Anomaly raises; next reassessment releases.
    eng.records["u1"].features.anomaly_score = 1.0
    eng.records["u1"].features.auth_strength = 0.2
    eng.records["u1"].features.history_score = 0.2
    assert eng.reassess("u1", 20, ranf="A") == tru.RELEASE
    assert not eng.records["u1"].admitted
    events = [e.event for e in eng.audit_log]
    assert events == [tru.ADMIT, tru.RELEASE]


def test_below_threshold_rejected():
    eng = tru.TrustEngine(threshold=0.9)
    eng.register("u1", tru.TrustFeatures(0.5, 0.5, 0.5))
    assert eng.admission_check("u1", 0) == tru.REJECT
    assert not eng.records["u1"].admitted


def test_audit_log_append_only_ordering():
    eng = tru.TrustEngine()
    eng.register("u1", tru.TrustFeatures(1.0, 1.0, 0.0))
    eng.admission_check("u1", 5)
    eng.reassess("u1", 10)
    eng.reassess("u1", 15)
    times = [e.at for e in eng.audit_log]
    assert times == sorted(times) and len(times) == 3
