"""Zero-trust admission: weighted trust scoring gating radio admission,
continuous reassessment, and an append-only audit log.

Trust is never inherited: a UE admitted at one RANF is re-checked on
handover, and a missing record means score zero (default deny).
"""

from dataclasses import dataclass

ADMIT = "Admit"
REJECT = "Reject"
KEEP = "Keep"
RELEASE = "Release"


@dataclass
class TrustFeatures:
    auth_strength: float = 0.0
    history_score: float = 0.0
    anomaly_score: float = 1.0  # 1 = most anomalous


def lotaf_score(features, weights=(0.5, 0.3, 0.2)):
    """Weighted trust score in [0,1]; anomaly contributes inverted."""
    w1, w2, w3 = weights
    score = (
        w1 * features.auth_strength
        + w2 * features.history_score
        + w3 * (1.0 - features.anomaly_score)
    )
    return min(1.0, max(0.0, score))


@dataclass
class AuditEntry:
    at: int
    ue: str
    event: str  # admit | reject | keep | release
    score: float
    ranf: str = None


@dataclass
class TrustRecord:
    ue: str
    features: TrustFeatures
    threshold: float = 0.6
    admitted: bool = False


class TrustEngine:
    """One logical trust-assessment service reachable from every RRM."""

    def __init__(self, weights=(0.5, 0.3, 0.2), threshold=0.6):
        self.weights = tuple(weights)
        self.default_threshold = threshold
        self.records = {}  # ue -> TrustRecord
        self.audit_log = []

    def register(self, ue, features, threshold=None):
        """Add ``ue``'s record, not admitted; returns it."""
        record = self.records[ue] = TrustRecord(
            ue, features,
            self.default_threshold if threshold is None else threshold,
        )
        return record

    def _log(self, now, ue, event, score, ranf):
        self.audit_log.append(AuditEntry(now, ue, event, score, ranf))

    def admission_check(self, ue, now, ranf=None):
        """Gate radio admission; absent records are score 0 (default deny)."""
        record = self.records.get(ue)
        if record is None:
            self._log(now, ue, REJECT, 0.0, ranf)
            return REJECT
        score = lotaf_score(record.features, self.weights)
        if score >= record.threshold:
            record.admitted = True
            self._log(now, ue, ADMIT, score, ranf)
            return ADMIT
        record.admitted = False
        self._log(now, ue, REJECT, score, ranf)
        return REJECT

    def reassess(self, ue, now, ranf=None):
        """Reassess an admitted UE; a score below threshold releases it."""
        record = self.records[ue]
        score = lotaf_score(record.features, self.weights)
        if score < record.threshold:
            record.admitted = False
            self._log(now, ue, RELEASE, score, ranf)
            return RELEASE
        self._log(now, ue, KEEP, score, ranf)
        return KEEP
