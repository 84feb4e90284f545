"""Outside-in tracing for the benchmark's traced runs.

The tracer wraps public calls into each ransim module from here, without
touching the simulator's code, and records per call site the count, the
total time and the self time (total minus the time of wrapped calls made
inside it).  ``Simulator.schedule`` is wrapped so that every scheduled
handler gets a span keyed by its event kind.  Spans are aggregated in
memory; nothing is written until the benchmark prints its result.

A target that no longer exists (renamed or merged by a refactor) is listed
in ``Tracer.absent`` and its metrics are left out; the run goes on.
"""

import importlib
import time

# (span name, module, attribute path) for every wrapped call site.
TARGETS = (
    ("core.schedule", "ransim.core", "Simulator.schedule"),
    ("core.run_until", "ransim.core", "Simulator.run_until"),
    ("sched.stage1", "ransim.runtime", "stage1_with_extras"),
    ("sched.stage2", "ransim.sched", "stage2_allocate"),
    ("sched.ul_anchor_check", "ransim.sched", "ul_anchor_check"),
    ("stack.pdcp_preprocess", "ransim.stack", "pdcp_preprocess"),
    ("stack.aqm_inspect", "ransim.stack", "aqm_inspect"),
    ("stack.build_transport_block", "ransim.stack", "build_transport_block"),
    ("stack.harq_on_feedback", "ransim.stack", "harq_on_feedback"),
    ("stack.reorder_receive", "ransim.stack", "ReorderState.receive"),
    ("stack.reorder_timer_expired", "ransim.stack",
     "ReorderState.timer_expired"),
    ("stack.reassembly_add", "ransim.stack", "RxReassembly.add"),
    ("radio.transmit", "ransim.radio", "transmit"),
    ("traffic.next_emission", "ransim.traffic", "TrafficSource.next_emission"),
    ("traffic.on_congestion_signal", "ransim.traffic", "on_congestion_signal"),
    ("metrics.on_tti", "ransim.metrics", "MetricsCollector.on_tti"),
    ("metrics.to_report", "ransim.metrics", "MetricsCollector.to_report"),
    ("orchestrate.set_state", "ransim.orchestrate", "EnergyMeter.set_state"),
    ("topology.validate_placement", "ransim.topology", "validate_placement"),
    ("topology.path_latency", "ransim.topology", "path_latency"),
    ("config.validate_scenario", "ransim.config", "validate_scenario"),
    ("runtime.init", "ransim.runtime", "Runtime.__init__"),
    ("runtime.run", "ransim.runtime", "Runtime.run"),
)

EVENT_PREFIX = "event."


def event_span(kind):
    """Span name of a handler scheduled with ``kind`` (':' becomes '-')."""
    return EVENT_PREFIX + kind.replace(":", "-")


TTI_SPAN = event_span("tti")


class Tracer:
    """Span and counter store plus the patches that feed it.

    ``spans`` maps a span name to ``[count, total_s, child_s]``; self time
    is ``total_s - child_s``.  ``tti_samples`` keeps the duration of every
    TTI handler call.  Use as a context manager: entering installs the
    wrappers, leaving restores the originals.
    """

    def __init__(self):
        self.spans = {TTI_SPAN: [0, 0.0, 0.0]}
        self.tti_samples = []
        self.counters = {}
        self.busy_ttis = set()
        self.peak_queue_len = None
        self.absent = []
        self._stack = []
        self._patches = []

    # ------------------------------------------------------------ spans

    def wrap(self, name, fn, observe=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        samples = self.tti_samples if name == TTI_SPAN else None
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += child[0]
                if stack:
                    stack[-1][0] += dt
                if samples is not None:
                    samples.append(dt)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------ observers

    def _on_schedule(self, args, _result):
        queue = getattr(args[0], "_queue", None)
        if queue is not None:
            self.peak_queue_len = max(self.peak_queue_len or 0, len(queue))

    def _on_stage1(self, _args, requests):
        self.count("sched.stage1.requests", len(requests))

    def _mark_busy_tti(self):
        # Completed TTI spans so far identify the TTI in progress.
        self.busy_ttis.add(self.spans[TTI_SPAN][0])

    def _on_stage2(self, args, grants):
        self.count("sched.stage2.requests", len(args[0]))
        self.count("sched.stage2.grants", len(grants))
        if grants:
            self._mark_busy_tti()

    def _on_transmit(self, _args, _result):
        # HARQ retransmissions use PRBs without a stage-2 grant.
        self._mark_busy_tti()

    def _on_tb(self, args, tb):
        grant_bytes = args[2] if len(args) > 2 else 0
        self.count("stack.grant_bytes", grant_bytes)
        self.count("stack.tb_bytes", tb.bytes)

    def _on_harq(self, _args, outcome):
        if outcome == self._harq_retransmit:
            self.count("stack.harq_retransmit")

    # ------------------------------------------------------------ patching

    def __enter__(self):
        observers = {"sched.stage1": self._on_stage1,
                     "sched.stage2": self._on_stage2,
                     "stack.build_transport_block": self._on_tb,
                     "stack.harq_on_feedback": self._on_harq,
                     "radio.transmit": self._on_transmit}
        self._harq_retransmit = getattr(
            importlib.import_module("ransim.stack"), "HARQ_RETRANSMIT", None)
        if self._harq_retransmit is None:
            self._mark_absent("stack.harq_retx_ratio")
        for name, module, path in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self._mark_absent(name)
                continue
            owner, attr, original = found
            if name == "core.schedule":
                wrapped = self._schedule_wrapper(original)
            else:
                wrapped = self.wrap(name, original, observers.get(name))
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def _mark_absent(self, name):
        if name not in self.absent:
            self.absent.append(name)

    def _schedule_wrapper(self, original):
        timed = self.wrap("core.schedule", original, self._on_schedule)
        wrap = self.wrap

        def schedule(sim, fire_at, kind, target, fn, *args, **kwargs):
            return timed(sim, fire_at, kind, target,
                         wrap(event_span(kind), fn), *args, **kwargs)

        return schedule


def _resolve(module, path):
    """(owner, attribute, value) for ``module:path``, or None.

    Only an attribute the owner defines itself counts, so that restoring
    the original value leaves the owner exactly as it was.
    """
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = vars(owner).get(attr)
    if not callable(value):
        return None
    return owner, attr, value
