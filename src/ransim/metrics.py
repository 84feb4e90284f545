"""Run metrics: per-bearer latency percentiles, conservation counters, PRB
utilization, fronthaul load, energy, and the event logs (handover,
migration, admission audit).  All times are microseconds, energy joules.
"""

import bisect
import csv
import itertools
import json

from .core import ModelError


class BearerMetrics:
    __slots__ = ("packets_in", "ingress_dropped", "delivered",
                 "latency_counts", "aqm_drops", "residual", "duplicates",
                 "ce_marks", "reorder_stalls")

    def __init__(self):
        self.packets_in = 0
        self.ingress_dropped = 0
        self.delivered = 0
        # latency (us) -> SDUs delivered with it: an exact histogram, whose
        # size follows the distinct latencies, not the SDUs delivered.
        self.latency_counts = {}
        self.aqm_drops = 0
        self.residual = 0
        self.duplicates = 0
        self.ce_marks = 0
        self.reorder_stalls = []  # (sn, stall_us)

    @property
    def latencies(self):
        """Every delivered SDU's latency, ascending (a new list)."""
        counts = self.latency_counts
        return [v for v in sorted(counts) for _ in range(counts[v])]


class MetricsCollector:
    def __init__(self, record_series=False):
        self.bearers = {}
        # Per-TTI rows are kept only for an output that writes them.
        self.record_series = record_series
        self.prb_granted = {}  # (ru, carrier) -> prbs, added by the runtime
        # (ru, carrier) -> PRBs offered each TTI, set at build: every RANF
        # offers its full pools every TTI, so ``ttis`` times this is offered.
        self.prbs_per_tti = {}
        self.ttis = 0
        self.slice_prbs = {}  # slice -> prbs
        self.tti_series = {}  # ranf -> [(t, util, max_head_sojourn)]
        self.fronthaul_bytes = {}  # ru -> bytes
        self.energy_j = {}
        self.wake_delays = 0
        self.wasted_grants = 0
        self.tb_transmitted = 0
        self.tb_failed_final = 0
        self.handovers = []
        self.migrations = []
        self.scale_events = []
        self.audit_log = []
        self.drop_echo_times = {}  # bearer -> first drop echo arrival at source
        self.ce_signal_times = {}  # bearer -> first CE signal arrival
        self.subnets = {}
        self.conservation = {}

    def bearer(self, bearer_id):
        bm = self.bearers.get(bearer_id)
        if bm is None:
            bm = BearerMetrics()
            self.bearers[bearer_id] = bm
        return bm

    def on_tti(self, t, ranf, pools, max_head_sojourn):
        """Record one RANF-TTI row of the TTI series: the share of ``pools``
        (a ``sched.PrbPools``) taken, and the largest head sojourn."""
        total = pools.total_prbs
        # A key outside ``pools.total`` in ``free`` only ever holds 0.
        used = total - sum(pools.free.values())
        util = used / total if total else 0.0
        self.tti_series.setdefault(ranf, []).append((t, util, max_head_sojourn))

    def on_fronthaul(self, ru, nbytes):
        self.fronthaul_bytes[ru] = self.fronthaul_bytes.get(ru, 0) + nbytes

    def finalize_conservation(self, bearer_id, in_flight):
        bm = self.bearer(bearer_id)
        lhs = bm.packets_in
        rhs = bm.delivered + bm.aqm_drops + bm.residual + in_flight
        ok = lhs == rhs
        self.conservation[bearer_id] = {
            "packets_in": lhs, "delivered": bm.delivered,
            "aqm_drops": bm.aqm_drops, "residual": bm.residual,
            "in_flight_at_end": in_flight, "holds": ok,
        }
        if not ok:
            raise ModelError(
                f"conservation violated for bearer {bearer_id}: "
                f"in={lhs} delivered={bm.delivered} aqm={bm.aqm_drops} "
                f"residual={bm.residual} in_flight={in_flight}"
            )

    def to_report(self, seed, cfg_hash, duration_us):
        bearers = {}
        for bid in sorted(self.bearers):
            bm = self.bearers[bid]
            if bm.latency_counts:
                p50, p99, p100 = latency_percentiles(bm.latency_counts)
            else:
                p50 = p99 = p100 = None
            bearers[bid] = {
                "packets_in": bm.packets_in,
                "ingress_dropped": bm.ingress_dropped,
                "delivered": bm.delivered,
                "aqm_drops": bm.aqm_drops,
                "residual": bm.residual,
                "duplicates": bm.duplicates,
                "ce_marks": bm.ce_marks,
                "latency_us": {"p50": p50, "p99": p99, "p100": p100},
                "reorder_stalls": bm.reorder_stalls,
            }
        util = {}
        # A run shorter than one TTI offers no PRBs.
        for key in sorted(self.prbs_per_tti) if self.ttis else ():
            offered = self.prbs_per_tti[key] * self.ttis
            granted = self.prb_granted.get(key, 0)
            util["/".join(key)] = {
                "offered_prbs": offered,
                "granted_prbs": granted,
                "utilization": round(granted / offered, 6) if offered else 0.0,
            }
        return {
            "seed": seed,
            "config_hash": cfg_hash,
            "duration_us": duration_us,
            "bearers": bearers,
            "conservation": self.conservation,
            "prb_utilization": util,
            "slice_prbs": {k: v for k, v in sorted(self.slice_prbs.items())
                           if v},
            "fronthaul_bytes": dict(sorted(self.fronthaul_bytes.items())),
            "energy_j": {k: round(v, 9) for k, v in
                         sorted(self.energy_j.items())},
            "wake_delays": self.wake_delays,
            "wasted_grants": self.wasted_grants,
            "tb_transmitted": self.tb_transmitted,
            "tb_failed_final": self.tb_failed_final,
            "handovers": [vars(h) for h in self.handovers],
            "migrations": [vars(m) for m in self.migrations],
            "scale_events": self.scale_events,
            "audit_log": [
                {"at": e.at, "ue": e.ue, "event": e.event,
                 "score": round(e.score, 6), "ranf": e.ranf}
                for e in self.audit_log
            ],
            "drop_echo_times": dict(sorted(self.drop_echo_times.items())),
            "ce_signal_times": dict(sorted(self.ce_signal_times.items())),
            "subnetworks": self.subnets,
        }


def latency_percentiles(counts):
    """(p50, p99, p100) of the values that a non-empty histogram ``counts``
    (value -> count) holds, equal to numpy's ``np.percentile(values, [50,
    99]).astype(int)`` and ``max``: its "linear" method on the sorted
    values.  The value at rank ``r`` of that sorted list is the first one
    whose cumulative count exceeds ``r``, so no list is built."""
    lat = sorted(counts)
    cum = list(itertools.accumulate(counts[v] for v in lat))
    last = cum[-1] - 1
    out = []
    for q in (0.5, 0.99):
        v = last * q
        i = int(v)
        g = v - i
        a = lat[bisect.bisect_right(cum, i)]
        b = lat[bisect.bisect_right(cum, min(i + 1, last))]
        out.append(int(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)))
    return out + [lat[-1]]


def write_summary(report, path):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_tti_series_csv(series, path):
    """One row per RANF per TTI, by time, then RANF id."""
    rows = sorted((t, ranf, util, sojourn) for ranf, ranf_rows in series.items()
                  for t, util, sojourn in ranf_rows)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_us", "ranf", "prb_utilization", "max_head_sojourn_us"])
        for t, ranf, util, sojourn in rows:
            w.writerow([t, ranf, f"{util:.6f}", sojourn])


def _cdf_cells(counts):
    """``(latency, cdf)`` per SDU of a histogram, by ascending latency."""
    n = sum(counts.values())
    rank = 0
    for v in sorted(counts):
        for _ in range(counts[v]):
            rank += 1
            yield v, f"{rank / n:.8f}"


def write_latency_cdf(collector, path):
    """Columnar plot data: one (latency, cdf) column pair per bearer and
    one row per delivered SDU, streamed from the histograms."""
    cols = {bid: bm.latency_counts
            for bid, bm in sorted(collector.bearers.items())
            if bm.latency_counts}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = []
        for bid in cols:
            header += [f"{bid}_latency_us", f"{bid}_cdf"]
        w.writerow(header)
        for cells in itertools.zip_longest(*map(_cdf_cells, cols.values()),
                                           fillvalue=("", "")):
            w.writerow([x for cell in cells for x in cell])
