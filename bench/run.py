"""ransim benchmark: host time to simulate fixed scenarios, end to end and
per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation runs one workload in this single-threaded process.  A
workload is a batch job: a fixed scenario shape and simulated duration,
with the seed as its only input (see bench/README.md for why each exists).
The simulator is used as a library from ``src/`` of this checkout.

``--trace 0`` repeats set-up (``validate_scenario`` + ``Runtime(cfg)``) and
whole runs (set-up + ``Runtime.run()``) for about ``--seconds`` and prints
the end-to-end metrics; times are the fastest repetition.  ``--trace 1``
alternates untraced and traced runs (see bench/tracing.py) and prints the
per-layer metrics.  Every run is checked: no exception, conservation holds
in the report, and the report fingerprint (SHA-256 of
``json.dumps(report, sort_keys=True)``) is identical across all runs of the
process, traced or not.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

try:
    from ransim import config as cfgmod
    from ransim import runtime as rtmod
except ImportError as exc:
    sys.exit(f"bench/run.py: cannot import ransim from {ROOT}/src: {exc}")

import scengen  # noqa: E402
from tracing import EVENT_PREFIX, TTI_SPAN, Tracer, event_span  # noqa: E402

# Share of the run spent on set-up alone, interleaved with whole runs so
# that set-up samples are spread over the whole run.
SETUP_SHARE = 0.2
MIN_SETUPS = 5
# Whole runs per process at least: two, so the fingerprint is compared.
MIN_RUNS = 2

EVENT_KINDS = ("tti", "traffic", "deliver", "harq-feedback", "t-reordering",
               "rlc-status", "rlc-status-rx", "f1-status", "f1-data",
               "cc-window", "drop-echo", "orchestrator-tick", "trust-reassess",
               "script-handover")
CALL_SPANS = ("sched.stage1", "sched.stage2", "sched.ul_anchor_check",
              "stack.pdcp_preprocess", "stack.aqm_inspect",
              "stack.build_transport_block", "stack.harq_on_feedback",
              "stack.reorder_receive", "stack.reorder_timer_expired",
              "stack.reassembly_add", "radio.transmit",
              "traffic.next_emission", "traffic.on_congestion_signal",
              "metrics.on_tti", "orchestrate.set_state",
              "topology.validate_placement", "topology.path_latency")


def _latency_budgets(seed):
    with open(os.path.join(ROOT, "scenarios", "latency-budgets.yaml")) as fh:
        raw = yaml.safe_load(fh)
    raw["seed"] = seed
    return raw


def _generated(name):
    def make(seed):
        return yaml.safe_load(scengen.to_yaml(scengen.generate(name, seed)))
    return make


WORKLOADS = {
    "latency-budgets": _latency_budgets,
    "dmimo-cells": _generated("dmimo-cells"),
    "split-lossy": _generated("split-lossy"),
}


# ---------------------------------------------------------------- one run

def fingerprint(report):
    blob = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def check_report(report):
    """Problems with a report, independent of the simulator's own checks."""
    problems = []
    for bid, b in sorted(report["bearers"].items()):
        c = report["conservation"].get(bid)
        if c is None:
            problems.append(f"{bid}: no conservation ledger")
            continue
        rhs = b["delivered"] + b["aqm_drops"] + b["residual"] \
            + c["in_flight_at_end"]
        if not c["holds"] or b["packets_in"] != rhs \
                or c["packets_in"] != b["packets_in"]:
            problems.append(f"{bid}: conservation fails: in={b['packets_in']} "
                            f"delivered+aqm+residual+in_flight={rhs}")
    if delivered_sdus(report) <= 0:
        problems.append("no SDU delivered")
    return problems


def delivered_sdus(report):
    return sum(b["delivered"] for b in report["bearers"].values())


def report_totals(report):
    """Workload properties from the report: per-bearer sums and wake-ups."""
    bearers = report["bearers"].values()
    totals = {k: sum(b[k] for b in bearers)
              for k in ("aqm_drops", "ce_marks", "residual")}
    totals["reorder_stalls"] = sum(len(b["reorder_stalls"]) for b in bearers)
    totals["wake_delays"] = report["wake_delays"]
    totals["handovers"] = len(report["handovers"])
    return totals


def slice_p99(rt):
    """p99 latency (us) of every slice over all its SDUs, or None."""
    try:
        pooled = {}
        for bid, ctx in rt.bearers.items():
            pooled.setdefault(ctx.slice, []).extend(
                rt.metrics.bearers[bid].latencies)
    except AttributeError:
        return None
    return {sl: int(np.percentile(lat, 99)) if lat else None
            for sl, lat in sorted(pooled.items())}


def setup(raw_json):
    """validate_scenario + Runtime(cfg) on a fresh copy of the input."""
    raw = json.loads(raw_json)
    t0 = time.perf_counter()
    cfg = cfgmod.validate_scenario(raw)
    rt = rtmod.Runtime(cfg)
    return rt, time.perf_counter() - t0


class Runs:
    """Outcome of every whole run in this process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.setup_s = []
        self.run_s = []
        self.traced_s = []
        self.fingerprint = None
        self.delivered = None
        self.p99 = None
        self.totals = None

    def setup_only(self, raw_json):
        """Set-up alone, timed; returns False when it failed."""
        gc.collect()
        try:
            rt, setup_s = setup(raw_json)
        except Exception:  # any failure of the program counts against it
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return False
        del rt
        self.setup_s.append(setup_s)
        return True

    def run(self, raw_json, traced=False):
        """One whole run; returns False when it failed."""
        gc.collect()
        self.attempted += 1
        try:
            rt, _ = setup(raw_json)
            t0 = time.perf_counter()
            report = rt.run()
            run_s = time.perf_counter() - t0
            problems = check_report(report)
            fp = fingerprint(report)
            if self.fingerprint is None:
                self.fingerprint = fp
                self.delivered = delivered_sdus(report)
                self.p99 = slice_p99(rt)
                self.totals = report_totals(report)
            elif fp != self.fingerprint:
                problems.append(f"fingerprint {fp} differs from the first "
                                f"run's {self.fingerprint}")
        except Exception:  # any failure of the program counts against it
            traceback.print_exc()
            self.failed += 1
            return False
        if problems:
            print("run failed checks: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
            return False
        if traced:
            self.traced_s.append(run_s)
        else:
            self.run_s.append(run_s)
        return True

    def more(self, deadline, traced=False):
        """Whether another run (and a traced one) fits before ``deadline``."""
        if self.failed:
            return False
        if len(self.run_s) + len(self.traced_s) < MIN_RUNS:
            return True
        need = statistics.median(self.run_s)
        if traced:
            need += statistics.median(self.traced_s)
        return time.perf_counter() + need <= deadline

    def summary(self, workload, seed, sim_s):
        print(f"workload {workload} seed {seed}: simulated {sim_s:g} s, "
              f"{self.attempted} runs attempted, {self.failed} failed")
        print(f"fingerprint {self.fingerprint}")
        print(f"delivered_sdus {self.delivered} p99_us_by_slice "
              f"{json.dumps(self.p99, sort_keys=True)}")
        print(f"report_totals {json.dumps(self.totals, sort_keys=True)}")
        print("run_s " + " ".join(f"{s:.4f}" for s in self.run_s))
        if self.traced_s:
            print("traced_run_s "
                  + " ".join(f"{s:.4f}" for s in self.traced_s))


# ---------------------------------------------------------------- modes

def measure_end_to_end(runs, raw_json, sim_s, seconds):
    """Whole runs for ``seconds`` with set-up alone in between."""
    start = time.perf_counter()
    deadline = start + seconds
    setup_wall = 0.0
    while runs.more(deadline):
        runs.run(raw_json)
        while not runs.failed and (
                setup_wall < SETUP_SHARE * (time.perf_counter() - start)
                or len(runs.setup_s) < MIN_SETUPS):
            t0 = time.perf_counter()
            runs.setup_only(raw_json)
            setup_wall += time.perf_counter() - t0
    if not runs.run_s:
        return {}
    # Times are the fastest repetition.  On a shared host, slow phases last
    # from seconds to minutes and move a median by up to 50% between
    # processes; the fastest repetition is less affected (see Known gaps
    # in bench/README.md).  Medians are printed for reference.
    run_s = min(runs.run_s)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"setup_s samples {len(runs.setup_s)} min {min(runs.setup_s):.6f}"
          f" median {statistics.median(runs.setup_s):.6f}")
    print(f"run_s samples {len(runs.run_s)} min {run_s:.4f}"
          f" median {statistics.median(runs.run_s):.4f}")
    return {
        "wall_s_per_sim_s": (run_s / sim_s, "s/s"),
        "sdus_per_s": (runs.delivered / run_s, "1/s"),
        "setup_s": (min(runs.setup_s), "s"),
        "peak_rss_mb": (rss_kib / 1024, "MiB"),
    }


def measure_layers(runs, raw_json, seconds):
    """Alternate untraced and traced runs; per-layer metrics per traced run."""
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while runs.more(deadline, traced=True):
        if runs.run(raw_json):
            with tracer:
                runs.run(raw_json, traced=True)
    if runs.failed or not runs.traced_s:
        return {}
    layers = LayerMetrics(tracer, len(runs.traced_s),
                          n_bearers=len(json.loads(raw_json)["bearers"]))
    metrics = layers.build(statistics.median(runs.run_s),
                           statistics.median(runs.traced_s))
    layers.print_spans()
    if tracer.absent:
        print("absent (target not found): " + ", ".join(tracer.absent))
    return metrics


class LayerMetrics:
    """Per-layer metrics from a tracer, averaged per traced run."""

    def __init__(self, tracer, reps, n_bearers):
        self.t = tracer
        self.reps = reps
        self.n_bearers = n_bearers
        self.out = {}

    def _span(self, name):
        if name in self.t.absent:
            return None
        return self.t.spans.get(name, [0, 0.0, 0.0])

    def _put(self, name, value, unit):
        if value is not None:
            self.out[name] = (value, unit)

    def _event(self, kind):
        if "core.schedule" in self.t.absent:
            return None
        return self.t.spans.get(event_span(kind), [0, 0.0, 0.0])

    def build(self, untraced_s, traced_s):
        t, reps, put = self.t, self.reps, self._put
        has_events = "core.schedule" not in t.absent
        events = sum(st[0] for name, st in t.spans.items()
                     if name.startswith(EVENT_PREFIX))
        put("core.events", events / reps if has_events else None, "count")
        put("core.events_per_s",
            events / reps / untraced_s if has_events else None, "1/s")
        sched_span = self._span("core.schedule")
        put("core.schedule_s", sched_span and sched_span[1] / reps, "s")
        loop = self._span("core.run_until")
        put("core.dispatch_self_s", loop and (loop[1] - loop[2]) / reps, "s")
        put("core.peak_queue_len", t.peak_queue_len, "count")

        for kind in EVENT_KINDS:
            st = self._event(kind)
            name = "runtime." + kind
            put(name + ".n", st and st[0] / reps, "count")
            put(name + ".self_s", st and (st[1] - st[2]) / reps, "s")
        tti = self._event("tti")
        run = self._span("runtime.run")
        put("runtime.tti.s", tti and tti[1] / reps, "s")
        if tti and t.tti_samples:
            p50, p99 = np.percentile(t.tti_samples, [50, 99]) * 1e6
            put("runtime.tti.p50_us", float(p50), "us")
            put("runtime.tti.p99_us", float(p99), "us")
        if tti and run and run[1]:
            put("runtime.tti.share_of_run", tti[1] / run[1], "ratio")
        put("runtime.run.s", run and run[1] / reps, "s")

        for name in CALL_SPANS:
            st = self._span(name)
            put(name + ".n", st and st[0] / reps, "count")
            put(name + ".s", st and st[1] / reps, "s")
        report = self._span("metrics.to_report")
        put("metrics.to_report.s", report and report[1] / reps, "s")
        validate = self._span("config.validate_scenario")
        put("config.validate_scenario.s", validate and validate[1] / reps,
            "s")

        stage1 = self._span("sched.stage1")
        stage2 = self._span("sched.stage2")
        c = t.counters
        if stage2 and stage2[0]:
            put("sched.stage2.requests_per_call",
                c.get("sched.stage2.requests", 0) / stage2[0], "count")
            put("sched.stage2.grants_per_call",
                c.get("sched.stage2.grants", 0) / stage2[0], "count")
        if tti and tti[0]:
            if stage1 and self.n_bearers:
                put("sched.stage1.request_share",
                    c.get("sched.stage1.requests", 0)
                    / (self.n_bearers * tti[0]), "ratio")
            if stage2 and self._span("radio.transmit"):
                put("sched.idle_tti_share",
                    1 - len(t.busy_ttis) / tti[0], "ratio")
        if self._span("stack.build_transport_block") and \
                c.get("stack.grant_bytes"):
            put("stack.tb_fill_ratio",
                c.get("stack.tb_bytes", 0) / c["stack.grant_bytes"], "ratio")
        harq = self._span("stack.harq_on_feedback")
        if harq and harq[0] and "stack.harq_retx_ratio" not in t.absent:
            put("stack.harq_retx_ratio",
                c.get("stack.harq_retransmit", 0) / harq[0], "ratio")
        put("trace.overhead_ratio", traced_s / untraced_s, "ratio")
        return self.out

    def print_spans(self):
        """Every span, per traced run: count, total and self seconds."""
        print(f"spans per traced run ({self.reps} traced runs): "
              "name count total_s self_s")
        reps = self.reps
        for name, (n, total, child) in sorted(
                self.t.spans.items(), key=lambda kv: kv[1][2] - kv[1][1]):
            print(f"  {name:<34} {n / reps:>10.0f} {total / reps:>10.4f} "
                  f"{(total - child) / reps:>10.4f}")
        tti = self.t.spans[TTI_SPAN]
        if tti and tti[0]:
            print(f"tti span {tti[1] / self.reps:.4f} s = self "
                  f"{(tti[1] - tti[2]) / self.reps:.4f} s + children "
                  f"{tti[2] / self.reps:.4f} s")


# ---------------------------------------------------------------- main

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    raw = WORKLOADS[args.workload](args.seed)
    sim_s = raw["duration_us"] / 1e6
    raw_json = json.dumps(raw)
    runs = Runs()
    if args.trace:
        metrics = measure_layers(runs, raw_json, args.seconds)
    else:
        metrics = measure_end_to_end(runs, raw_json, sim_s, args.seconds)
    runs.summary(args.workload, args.seed, sim_s)
    correct = runs.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
