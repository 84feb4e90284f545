"""End-to-end simulation wiring: builds entities from a resolved scenario
config and drives them through the event loop.

The downlink data path is simulated packet by packet (PDCP ingress -> the
bearer's one RLC transmitter -> TTI scheduling -> HARQ transmission ->
receiver reassembly and reordering).  Uplink data is out of scope; the
single-RANF UL anchor is an invariant of the serving set, checked wherever a
UE's RANF or serving set is chosen (set-up and handover).

Each TTI visits only the bearers that have something to send: a bearer
joins its (RANF, slice) active set when data, a retransmission or a drop
indication is queued for it, and stage 1 drops it once it finds it idle.
A handover moves only its UE's bearers.  One event serves all the bearers
of an RLC status tick, an F1 status (those with a CU backlog) or an F1 data
message; a status report is sent only if it can act.
"""

from collections import deque
from functools import partial

from . import config as cfgmod
from . import orchestrate as orch
from . import radio
from . import sched
from . import stack
from . import subnet
from . import topology as topo
from . import traffic as tra
from . import trust as tru
from .core import ConfigError, ModelError, RngRegistry, Simulator
from .metrics import MetricsCollector


class BearerCtx:
    __slots__ = ("bearer", "rlc", "reorder", "source",
                 "live", "metrics", "slice", "window_marked",
                 "window_delivered", "active_set", "in_active_set",
                 "traffic_rng", "ue_ctx", "emit")

    def __init__(self, bearer, rlc, reorder, source, metrics, ue_ctx):
        self.bearer = bearer
        self.rlc = rlc  # its one transmitter
        self.reorder = reorder
        self.source = source
        self.live = {}  # sn -> PdcpPdu, every non-terminal PDU in the system
        self.metrics = metrics
        self.slice = bearer.slice
        self.window_marked = 0
        self.window_delivered = 0
        self.active_set = None  # its RANF's stage-1 set for its slice
        self.in_active_set = False
        self.traffic_rng = None  # its ``traffic:`` stream, from the first draw
        self.ue_ctx = ue_ctx
        self.emit = None  # the handler of its next ``traffic`` event


class UeCtx:
    __slots__ = ("id", "ranf", "serving_set", "pool_keys", "harq", "resume_at",
                 "released", "bearers", "link_rng", "fb_rng")

    def __init__(self, ue_id, ranf_id, serving_set, n_harq):
        self.id = ue_id
        self.ranf = ranf_id
        self.serving_set = serving_set  # its RUs, best first
        self.pool_keys = None  # its stage-2 (ru, carrier) keys, on first use
        self.harq = [None] * n_harq  # HARQ slots: the process in flight
        self.resume_at = 0
        self.released = False
        self.bearers = []
        self.link_rng = None  # its ``link:`` stream, fetched on first use
        self.fb_rng = None  # its ``fb:`` stream, fetched on first use


class Runtime:
    def __init__(self, cfg, record_series=False):
        self.cfg = cfg
        self.seed = cfg["seed"]
        self.split_mode = cfg["mode"] == cfgmod.MODE_SPLIT
        self.tti = cfg["tti_us"]
        self.duration = cfg["duration_us"]
        self.reliable = cfg["reliable_harq"]
        self.drop_indication = cfg["drop_indication"]
        self.dmimo = cfg["dmimo"]
        self.harq_rtt = cfg["harq"]["rtt_ttis"] * self.tti
        self.max_tx = cfg["harq"]["max_tx"]
        self.fb_error = cfg["harq"]["feedback_error_rate"]
        self.t_reordering = cfg["t_reordering_us"]
        self.rlc_window = cfg["rlc"]["window"]
        self.aqm = stack.AqmState(cfg["aqm"]["mark_threshold_us"],
                                  cfg["aqm"]["drop_threshold_us"])
        self.d_f1 = cfg["split"]["d_f1_us"]
        self.credit_bytes = cfg["split"]["credit_bytes"]
        self.class_weights = cfg["class_weights"]
        fh = cfg["fronthaul"]
        self.fh_params = (fh["mode"], fh["expansion_factor"],
                          fh["update_cost_bytes"])

        self.metrics = MetricsCollector(record_series)
        self.rng = RngRegistry(self.seed)
        self.sim = Simulator()
        self.pending_retx = {}

        self._build_topology()
        self._build_placement()
        # (ready_at, requests) per RANF and slice, in the order sent.
        self.stage1_pipes = {rf_id: {sl: deque() for sl in self.slice_ids}
                             for rf_id in self.topology.ranfs}
        self.min_slice_share = {}  # slice -> reserved fraction, by policy
        self._build_trust()
        self._build_ues()
        self.active_sets = {rf_id: {} for rf_id in self.topology.ranfs}
        # Split mode with F1 credit: each context with PDUs held at the CU
        # -> its deque of them, never empty.
        self.cu_backlog = {}
        self._build_bearers()
        self._build_subnets()
        self._build_energy()
        self._schedule_script()
        every, end = self.sim.every, self.duration
        every(self.tti, self.tti, "tti", "scheduler", self._on_tti, end)
        if self.trust_engine.records:
            iv = cfg["trust"]["reassess_interval_us"]
            every(iv, iv, "trust-reassess", "lotaf", self._on_reassess, end)
        self.scaler = orch.Scaler(cfg["orchestrator"]["hysteresis"])
        tick = cfg["orchestrator"]["tick_us"]
        every(tick, tick, "orchestrator-tick", "orchestrator",
              self._on_orchestrator_tick, end)

    # ------------------------------------------------------------ build

    def _build_topology(self):
        cfg = self.cfg
        sites = [topo.Site(s["id"], s["kind"], s["cpu_capacity"])
                 for s in cfg["sites"]]
        site_by_id = {s.id: s for s in sites}
        for link in cfg["links"]:  # Topology adds the other direction
            site_by_id[link["a"]].link_latency_to[link["b"]] = link["latency_us"]
        carriers = {c["id"]: (c["prbs_per_tti"], c["bytes_per_prb"])
                    for c in cfg["carriers"]}
        rus = [topo.RadioUnit(r["id"], r["site"], list(r["carriers"]),
                              r["fronthaul_latency_us"]) for r in cfg["rus"]]
        ranfs = [topo.Ranf(rf["id"], rf["site"], set(rf["rus"]),
                           set(rf["neighbors"])) for rf in cfg["ranfs"]]
        self.topology = topo.Topology(sites, rus, ranfs)
        self.ranf_order = sorted(ranfs, key=lambda rf: rf.id)  # TTI order
        self.ru_to_ranf = {}
        for rf in ranfs:
            for ru in rf.serving_rus:
                self.ru_to_ranf[ru] = rf.id
        # Per-RANF PRB pool template, copied by ``fresh()`` each TTI.
        self.pool_templates = {}
        offered = self.metrics.prbs_per_tti
        for rf in ranfs:
            pools = self.pool_templates[rf.id] = sched.PrbPools({
                (ru_id, c_id): carriers[c_id]
                for ru_id in sorted(rf.serving_rus)
                for c_id in self.topology.rus[ru_id].carriers
            })
            for key, prbs in pools.total.items():
                offered[key] = offered.get(key, 0) + prbs
        entries = {}
        for e in cfg["bler"]["entries"]:
            entries[(e["ue"], e["ru"], e["carrier"])] = e["bler"]
        self.bler = radio.BlerMap(entries, cfg["bler"]["default"])

    def _build_placement(self):
        cfg = self.cfg
        instances = [
            topo.FunctionInstance(i["id"], i["kind"], i["site"],
                                  slice=i["slice"], bound_ru=i["bound_ru"],
                                  cpu_load=i["cpu_load"])
            for i in cfg["placement"]
        ]
        self.plan = topo.PlacementPlan(instances)
        self.slice_ids = [sl["id"] for sl in cfg["slices"]]
        for sl in cfg["slices"]:
            if sl["auto_place"]:
                sla = orch.SlaSpec(sl["id"], sl["latency_budget_us"])
                result = orch.admit_slice(
                    sla, self.topology, self.plan, tti=self.tti,
                    harq_max_tx=self.max_tx, harq_rtt=self.harq_rtt)
                if isinstance(result, orch.Reject):
                    raise ConfigError(
                        f"slice {sl['id']} rejected ({result.reason}): "
                        f"{result.detail}"
                    )
        violations = topo.validate_placement(self.plan, self.topology,
                                             slices=self.slice_ids)
        if violations:
            raise ConfigError("invalid placement:\n  " + "\n  ".join(violations))
        self.slice_paused_until = {sl: 0 for sl in self.slice_ids}
        self._recompute_paths()

    def _recompute_paths(self):
        self.path_lat = {}
        cn = self.cfg["cn_entry_site"]
        for sl in self.slice_ids:
            for ru_id in self.topology.rus:
                self.path_lat[(sl, ru_id)] = topo.path_latency(
                    self.plan, self.topology, sl, ru_id, cn_entry_site=cn)
        # Stage-1 control latency: UP site -> the RANF's RRM site.
        self.ctrl_lat = {rf_id: {} for rf_id in self.topology.ranfs}
        for sl in self.slice_ids:
            ups = self.plan.of_kind(topo.UP, sl)
            for rf in self.topology.ranfs.values():
                self.ctrl_lat[rf.id][sl] = self.topology.latency(
                    ups[0].site, rf.site) if ups else 0

    def _build_trust(self):
        t = self.cfg["trust"]
        self.trust_engine = tru.TrustEngine(tuple(t["weights"]), t["threshold"])
        self.metrics.audit_log = self.trust_engine.audit_log

    def _build_ues(self):
        self.ues = {}
        for u in self.cfg["ues"]:
            tr = u["trust"]
            self.trust_engine.register(
                u["id"],
                tru.TrustFeatures(tr["auth"], tr["history"], tr["anomaly"]),
                u["trust_threshold"],
            )
            serving = self._select_serving(u["id"], u["ranf"])
            ue = UeCtx(u["id"], u["ranf"], serving,
                       self.cfg["harq"]["processes"])
            self._check_ul_anchor(ue)
            self.ues[u["id"]] = ue
            if self.trust_engine.admission_check(u["id"], 0, ranf=u["ranf"]) \
                    == tru.REJECT:
                ue.released = True

    def _check_ul_anchor(self, ue):
        """UL is anchored to the UE's RANF: its serving RUs must all belong
        to that RANF.  Checked wherever ``ue.ranf`` or ``ue.serving_set`` is
        set; ``_select_serving`` makes it hold, so raising means a bug."""
        own = self.topology.ranfs[ue.ranf].serving_rus
        if not own.issuperset(ue.serving_set):
            foreign = [ru for ru in ue.serving_set if ru not in own]
            raise sched.UlAnchorViolation(
                f"UE {ue.id} anchored to RANF {ue.ranf} is served by "
                f"foreign RUs {foreign}")

    def _select_serving(self, ue_id, ranf_id):
        scfg = self.cfg["serving"]
        ranf = self.topology.ranfs[ranf_id]
        candidates = sorted(ranf.serving_rus)

        def bler_of(ru):
            carrier = self.topology.rus[ru].carriers[0]
            return self.bler.get(ue_id, ru, carrier)

        max_set = scfg["max_set_size"]
        if self.dmimo and max_set <= 1:
            max_set = len(candidates)
        return radio.select_serving_set(
            candidates, bler_of, scfg["quality_threshold"], max_set)

    def _build_bearers(self):
        self.bearers = {}
        declared = set(self.slice_ids)
        for b in self.cfg["bearers"]:
            qos_class, slice_id = sched.classify_qos(
                b["latency_req_us"], b["reliability_req"])
            if slice_id not in declared:
                raise ConfigError(
                    f"bearer {b['id']}: classified into slice {slice_id} "
                    f"which is not declared in the scenario"
                )
            bearer = stack.Bearer(
                b["id"], b["ue"], slice_id,
                sched.CLASS_LATENCY_BUDGET[qos_class], qos_class,
                ecn_capable=b["ecn_capable"],
            )
            rlc = stack.RlcTxState(self.cfg["rlc"]["max_retx"])
            reorder = stack.ReorderState(self.t_reordering)
            t = b["traffic"]
            source = tra.TrafficSource(
                b["id"], t["pattern"], t["rate_bytes_per_s"], t["sdu_bytes"],
                t["burst_period_us"], t["burst_bytes"], t["fps"],
                t["frame_bytes"], t["frame_jitter"], t["congestion_law"],
                t["recovery_step"],
            )
            source.rtt_window = t["rtt_window_us"]
            ue = self.ues[bearer.ue]
            ctx = BearerCtx(bearer, rlc, reorder, source,
                            self.metrics.bearer(b["id"]), ue)
            ctx.active_set = self.active_sets[ue.ranf].setdefault(slice_id, {})
            self.bearers[b["id"]] = ctx
            ue.bearers.append(ctx)
            ctx.emit = partial(self._on_traffic, ctx, t["stop_us"])
            self.sim.schedule(t["start_us"], "traffic", b["id"], ctx.emit)
            if source.congestion_law != tra.NO_REACTION:
                rtt = source.rtt_window
                self.sim.every(rtt, rtt, "cc-window", b["id"],
                               partial(self._on_cc_window, ctx), self.duration)
        if not self.reliable:  # after every bearer's own set-up events
            iv = self.cfg["rlc"]["status_interval_us"]
            self.sim.every(iv, iv, "rlc-status", "rlc", self._on_rlc_status,
                           self.duration)

    def _activate(self, ctx):
        """Put a bearer that has something to send into its active set,
        ``active_sets[ranf][slice]``, a dict used as an ordered set; stage 1
        drops it once idle or released.  The flag keeps the common case, a
        bearer already in it, to one attribute read."""
        if not ctx.in_active_set:
            ctx.in_active_set = True
            ctx.active_set[ctx] = None

    def _build_subnets(self):
        self.subnets = {}
        every, end = self.sim.every, self.duration
        for sn in self.cfg["subnetworks"]:
            period = sn["grant_period_us"]
            ctrl = subnet.SubnetworkController(
                sn["id"], autonomous_prbs=sn["autonomous_prbs"],
                grant_prbs=sn["grant_prbs"],
                local_bytes_per_prb=sn["local_bytes_per_prb"],
                nonlocal_ttl=sn["nonlocal_ttl_us"],
                parent_latency=sn["parent_latency_us"])
            if sn["parent_ranf"] is not None:
                ctrl.attach()
            for dev_id in sn["devices"]:
                ctrl.add_device(subnet.SubnetworkDevice(dev_id))
            self.subnets[sn["id"]] = ctrl
            every(period, period, "subnet-grant", sn["id"],
                  ctrl.renew_grant, end)
            for key, local in (("local_traffic", True),
                               ("nonlocal_traffic", False)):
                for t in sn[key]:  # the last packet goes before ``stop_us``
                    stop = t["stop_us"]
                    until = end if stop is None else min(end, stop - 1)
                    emit = partial(self._on_subnet_traffic, ctrl, t, local)
                    every(t["start_us"], t["period_us"], "subnet-traffic",
                          sn["id"], emit, until)

    def _build_energy(self):
        self.meter = orch.EnergyMeter(saving=self.cfg["energy"])
        self.slice_woken_at = {}  # slice -> TTI its UP and PHY were woken
        self.ru_entity = {ru: f"ru:{ru}" for ru in sorted(self.topology.rus)}
        for entity in self.ru_entity.values():
            self.meter.register(entity, orch.DEFAULT_POWER_PROFILES["RU"],
                                may_sleep=True)
        for inst in self.plan.instances:
            self.meter.register(
                f"fn:{inst.id}", orch.DEFAULT_POWER_PROFILES[inst.kind],
                may_sleep=inst.kind in (topo.UP, topo.RRC, topo.PHY))
        self.ranf_ru_entities = {  # RUs in id order, with entity names
            rf.id: [(ru_id, self.ru_entity[ru_id])
                    for ru_id in sorted(rf.serving_rus)]
            for rf in self.topology.ranfs.values()}
        # A slice's UP and PHY instances are fixed after placement (migration
        # moves only their site): UP first, then PHY, each in plan order.
        self.user_plane_instances = {
            sl: [f"fn:{i.id}" for kind in (topo.UP, topo.PHY)
                 for i in self.plan.of_kind(kind, sl)]
            for sl in self.slice_ids}

    def _schedule_script(self):
        for ev in self.cfg["script"]:
            at = ev["at_us"]
            action = ev["action"]
            self.sim.schedule(at, f"script:{action}", str(ev.get("ue", "")),
                              partial(self._on_script, ev))

    # ------------------------------------------------------------ traffic

    def _on_traffic(self, ctx, stop):
        now = self.sim.now
        rng = ctx.traffic_rng
        if rng is None and ctx.source.draws:
            rng = ctx.traffic_rng = self.rng.stream(f"traffic:{ctx.bearer.id}")
        next_t, sizes = ctx.source.next_emission(now, rng)
        for size in sizes:
            self._ingress(ctx, size, now)
        # ``next_t`` is None only for a source of rate 0, which stays at 0.
        if next_t is not None and next_t <= self.duration \
                and (stop is None or next_t < stop):
            self.sim.schedule(next_t, "traffic", ctx.bearer.id, ctx.emit)

    def _ingress(self, ctx, size, now):
        bearer = ctx.bearer
        # At most SN_WINDOW (half the SN space) SNs may be in flight, counted
        # from the oldest live one: past that a new SN could collide with a
        # live PDU and would fall outside the receiver's window.  Refusing a
        # new SN while the one exactly SN_WINDOW behind is live keeps every
        # live SN within the window, so that one lookup is the whole check.
        full = (bearer.tx_sn_next - stack.SN_WINDOW) % stack.SN_SPACE \
            in ctx.live
        if ctx.ue_ctx.released or full:
            ctx.metrics.ingress_dropped += 1
            return
        ctx.metrics.packets_in += 1
        pdu = stack.pdcp_preprocess(size, bearer, now)
        ctx.live[pdu.sn] = pdu
        if not self.split_mode:
            ctx.rlc.push(pdu)
            if not ctx.in_active_set:
                self._activate(ctx)
        elif self.credit_bytes is None:  # each PDU reaches the DU after d_f1
            self.sim.schedule(now + self.d_f1, "split-forward", bearer.id,
                              partial(self._du_arrival, [(ctx, pdu)]))
        else:  # held at the CU until the DU grants credit
            queue = self.cu_backlog.get(ctx)
            if queue is None:
                queue = self.cu_backlog[ctx] = deque()
            queue.append(pdu)

    def _du_arrival(self, pdus):
        for ctx, pdu in pdus:  # a released UE's were counted residual
            if not ctx.ue_ctx.released:
                ctx.rlc.push(pdu)
                self._activate(ctx)

    def _on_cc_window(self, ctx):
        """Per-RTT window of a reactive source: cut if L4S and CE-marked."""
        delivered, marked = ctx.window_delivered, ctx.window_marked
        ctx.window_delivered = ctx.window_marked = 0
        src = ctx.source
        # A marked SDU is also counted delivered, so ``delivered`` > 0 here.
        if marked and src.congestion_law == tra.L4S:
            tra.on_congestion_signal(src, marked / delivered, self.sim.now)
        else:
            tra.recover_rate(src)

    # ------------------------------------------------------------ TTI loop

    def _on_tti(self):
        now = self.sim.now
        self.metrics.ttis += 1
        for ranf in self.ranf_order:
            self._tti_for_ranf(ranf, now)
        for ctrl in self.subnets.values():
            self._tti_for_subnet(ctrl, now)
        if self.cu_backlog:  # one F1 status: each bearer's desired fill
            credits = [(ctx, desired) for ctx in self.cu_backlog if (
                desired := self.credit_bytes - ctx.rlc.bytes) > 0]
            if credits:
                self.sim.schedule(now + self.d_f1, "f1-status", "cu",
                                  partial(self._cu_release, credits))

    def _tti_for_ranf(self, ranf, now):
        pools = self.pool_templates[ranf.id].fresh()
        ues = self.ues
        active_rus = set()

        # HARQ retransmissions take resources first; each fits, as all were
        # sent one HARQ RTT ago from fresh pools of the same size.
        for proc in self.pending_retx.pop(ranf.id, ()):
            ue = proc.ctx.ue_ctx
            if ue.harq[proc.slot] is not proc:
                continue  # flushed by handover or release
            if pools.take(proc.pool, proc.prbs) < proc.prbs:
                raise ModelError(f"HARQ retransmission of UE {ue.id} does "
                                 f"not fit pool {proc.pool}")
            self._transmit(proc, now)

        # Stage 1 per slice at the UP site, over the bearers with something
        # to send; requests reach the RRM after the control-plane latency and
        # are used as-is (stale) once visible.
        metrics = self.metrics
        series = metrics.record_series
        max_sojourn = 0  # kept only for the TTI series
        requests = []
        active_sets = self.active_sets[ranf.id]
        pipes = self.stage1_pipes[ranf.id]
        ctrl_lat = self.ctrl_lat[ranf.id]
        for sl in self.slice_ids:
            items = []
            active = active_sets.get(sl)
            if active and now >= self.slice_paused_until.get(sl, 0):
                idle = []
                for ctx in active:
                    # Transmitters live at the UP function, which keeps
                    # reporting through a handover interruption; only the radio
                    # grant waits for the UE to resume (see resources_for).
                    tx = ctx.rlc
                    if ctx.ue_ctx.released or not tx.has_data():
                        idle.append(ctx)
                        continue
                    queue = tx.queue
                    if queue:
                        self._apply_aqm(ctx, now)
                    extra = tx.control_bytes()
                    sojourn = now - queue[0].arrival_time if queue else 0
                    if series and sojourn > max_sojourn:
                        max_sojourn = sojourn
                    if queue or extra:
                        items.append((ctx.bearer, tx.bytes, sojourn, extra))
                for ctx in idle:
                    del active[ctx]
                    ctx.in_active_set = False
            reqs = stage1_with_extras(items, self.class_weights)
            pipe = pipes[sl]
            pipe.append((now + ctrl_lat[sl], reqs))
            visible = None
            while pipe and pipe[0][0] <= now:
                visible = pipe.popleft()[1]
            if visible:
                requests.extend(visible)

        records = self.trust_engine.records

        def resources_for(req):
            ue = ues[req[2]]
            # Released with requests still in the pipe, not yet resumed, or
            # a stale request from before a handover out of this RANF (the
            # UE's serving set lies within its own RANF, the one caching it).
            if ue.released or now < ue.resume_at or ue.ranf != ranf.id:
                return ()
            # Every path that clears admission also releases the UE, so
            # this never fires on a working run.
            if not records[ue.id].admitted:
                raise ModelError(f"request of unadmitted UE {ue.id} "
                                 f"reached stage 2")
            keys = ue.pool_keys
            if keys is None:
                keys = ue.pool_keys = [
                    (ru_id, c_id) for ru_id in ue.serving_set
                    for c_id in self.topology.rus[ru_id].carriers]
            return keys

        grants = sched.stage2_allocate(
            requests, pools, resources_for,
            min_share=self.min_slice_share)
        if grants:
            bearers = self.bearers
            prb_granted = metrics.prb_granted
            slice_prbs = metrics.slice_prbs
            for _ue, bearer_id, ru, carrier, prbs, nbytes in grants:
                ctx = bearers[bearer_id]
                key = (ru, carrier)
                prb_granted[key] = prb_granted.get(key, 0) + prbs
                slice_prbs[ctx.slice] = slice_prbs.get(ctx.slice, 0) + prbs
                active_rus.add(ru)
                self._serve_grant(ctx, key, prbs, nbytes, now)
            sched.ul_anchor_check(grants, self.ru_to_ranf, ues)

        self._energy_tti(ranf, active_rus, now)
        if series:
            metrics.on_tti(now, ranf.id, pools, max_sojourn)

    def _apply_aqm(self, ctx, now):
        """AQM on the head of a bearer's non-empty queue."""
        ecn = ctx.bearer.ecn_capable
        acted = stack.aqm_inspect(ctx.rlc, self.aqm, now, ecn)
        if ecn:
            if acted:  # it CE-marked the head
                ctx.metrics.ce_marks += 1
        elif acted:  # the SNs it front-dropped
            for sn in acted:
                ctx.live.pop(sn, None)
            ctx.metrics.aqm_drops += len(acted)
            if self.drop_indication:
                ctx.rlc.queue_drop_indications(acted)

    def _serve_grant(self, ctx, key, prbs, nbytes, now):
        """Serve a grant on pool ``key``.  A grant to a UE with every HARQ
        slot busy is wasted, and counted here alone; a padding grant, to a
        bearer with nothing to send (a stale request, the stage-2 leftover
        pass), is not counted."""
        tx = ctx.rlc
        if tx.queue:
            # Stage 1 ran AQM at this ``now`` too, but an earlier grant in
            # this TTI (another carrier) may have sent the head it saw.
            self._apply_aqm(ctx, now)
        harq = ctx.ue_ctx.harq
        if None not in harq:
            self.metrics.wasted_grants += 1
            return
        if not tx.has_data():
            return  # nothing to send, or AQM dropped all it had: padding
        tb = stack.build_transport_block(tx, self.rlc_window, nbytes)
        if tb.empty:
            return
        slot = harq.index(None)  # the first free slot
        proc = harq[slot] = stack.HarqProcess(tb, slot, key, prbs, ctx)
        self.metrics.tb_transmitted += 1
        self._mark_instance_active(ctx.slice, now)
        self._transmit(proc, now)

    def _transmit(self, proc, now):
        tb = proc.tb
        ctx = proc.ctx
        ue = ctx.ue_ctx
        ru_id, carrier_id = proc.pool
        wake_delay = self.meter.wake(self.ru_entity[ru_id], now)
        rng = ue.link_rng
        if rng is None:
            rng = ue.link_rng = self.rng.stream(f"link:{ue.id}")
        # The RUs that carry the TB: the whole serving set in a D-MIMO joint
        # transmission, else the grant's RU.
        rus = ue.serving_set
        if not (self.dmimo and len(rus) > 1):
            rus = (ru_id,)
        success = radio.transmit(ue.id, rus, carrier_id, self.bler, rng)
        fh_mode, expansion, update_cost = self.fh_params
        charged = radio.fronthaul_load(fh_mode, tb.bytes, expansion,
                                       update_cost)
        for ru in rus:
            self.metrics.on_fronthaul(ru, charged)
        if success:
            path = self.path_lat[(ctx.slice, ru_id)]
            arrive = now + self.tti + path + wake_delay
            live = ctx.live
            payload = [(s.sn, s.start, s.end,
                        live[s.sn].size if s.sn in live else s.end)
                       for s in tb.segments]
            # The TB's lists are never changed after it is built.
            self.sim.schedule(arrive, "deliver", ctx.bearer.id,
                              partial(self._on_deliver, ctx, payload,
                                      tb.drop_indications))
        self.sim.schedule(now + self.harq_rtt, "harq-feedback", ue.id,
                          partial(self._on_feedback, ue, proc, success))

    def _on_feedback(self, ue, proc, success):
        if ue.harq[proc.slot] is not proc:
            return  # stale: a handover or release emptied the slot
        ack = success
        if not self.reliable and not success and self.fb_error > 0:
            rng = ue.fb_rng
            if rng is None:
                rng = ue.fb_rng = self.rng.stream(f"fb:{ue.id}")
            if rng.draw() < self.fb_error:
                ack = True  # corrupted NACK read as ACK
        result = stack.harq_on_feedback(proc, ack, self.max_tx)
        if result == stack.HARQ_RETRANSMIT:
            self.pending_retx.setdefault(ue.ranf, []).append(proc)
            return
        ue.harq[proc.slot] = None
        ctx = proc.ctx
        if result == stack.HARQ_ACKED:
            if self.reliable:
                ack = ctx.rlc.ack_segment
                for seg in proc.tb.segments:
                    ack(seg.sn, seg.start, seg.end)
        else:
            self.metrics.tb_failed_final += 1
            if self.reliable:  # the segments go straight to RLC retx
                self._abandon(ctx, ctx.rlc.queue_retx(proc.tb.segments))
                self._activate(ctx)

    def _abandon(self, ctx, sns):
        """The one loss exit: remove each SN, counting a live one residual."""
        for sn in sns:
            ctx.rlc.remove(sn)
            if ctx.live.pop(sn, None) is not None:
                ctx.metrics.residual += 1

    # ------------------------------------------------------------ receiver

    def _on_deliver(self, ctx, payload, drops):
        now = self.sim.now
        reorder = ctx.reorder
        for sn, start, end, size in payload:
            self._receive(ctx, reorder.segment(sn, start, end, size, now), now)
        for sn in drops:
            self._receive(ctx, reorder.receive_drop_indication(sn, now), now)
            self._echo_drop(ctx, now)

    def _receive(self, ctx, received, now):
        """Act on a receive's ``(delivered, timer_started)``."""
        delivered, timer_started = received
        if delivered:
            self._deliver_sdus(ctx, delivered, now)
        if timer_started:
            self._schedule_reorder_timer(ctx)

    def _deliver_sdus(self, ctx, delivered, now):
        """Hand the receiver's ``(sn, stashed_at)`` pairs to the application."""
        live = ctx.live
        m = ctx.metrics
        counts = m.latency_counts
        for sn, stashed_at in delivered:
            pdu = live.pop(sn, None)
            if pdu is None:
                # A released UE's SNs were counted residual at the release.
                if not ctx.ue_ctx.released:
                    m.duplicates += 1
                continue
            m.delivered += 1
            latency = now - pdu.arrival_time
            counts[latency] = counts.get(latency, 0) + 1
            ctx.window_delivered += 1
            if stashed_at is not None:
                m.reorder_stalls.append((sn, now - stashed_at))
            if pdu.ce_marked:
                ctx.window_marked += 1
                self.metrics.ce_signal_times.setdefault(
                    ctx.bearer.id, now + self._uplink_latency(ctx))

    def _uplink_latency(self, ctx):
        """Receiver-to-source latency: the path of the UE's first RU."""
        return self.path_lat[(ctx.slice, ctx.ue_ctx.serving_set[0])]

    def _echo_drop(self, ctx, now):
        """Echo a loss to the bearer's source after the uplink latency."""
        bid = ctx.bearer.id
        echo_at = now + self._uplink_latency(ctx)
        self.metrics.drop_echo_times.setdefault(bid, echo_at)
        if ctx.source.congestion_law == tra.CLASSIC:
            # Fires at echo_at, the clock the handler would read; halves.
            self.sim.schedule(echo_at, "drop-echo", bid,
                              partial(tra.on_congestion_signal, ctx.source,
                                      1.0, echo_at))

    def _schedule_reorder_timer(self, ctx):
        reorder = ctx.reorder
        self.sim.schedule(reorder.timer_deadline, "t-reordering", ctx.bearer.id,
                          partial(self._on_reorder_timer, ctx,
                                  reorder.timer_generation))

    def _on_reorder_timer(self, ctx, gen):
        reorder = ctx.reorder
        if reorder.timer_generation != gen:
            return  # stopped or re-armed since
        now = self.sim.now
        if self.reliable and reorder.expected_sn in ctx.live:
            # With reliable feedback cross-wired into RLC, anything still held
            # by the transmitter will arrive; re-arm instead of skipping it.
            reorder.restart_timer(now)
            self._schedule_reorder_timer(ctx)
            return
        delivered, lost = reorder.timer_expired(now)
        self._abandon(ctx, lost)
        for _ in lost:
            self._echo_drop(ctx, now)
        self._deliver_sdus(ctx, delivered, now)

    # A status tick or F1 message is one event that runs its bearers' steps
    # in their per-bearer order, so no report moves: one handler's events for
    # one time are adjacent in the FIFO heap, and a step touches only its own
    # bearer's reorder, RLC, CU and DU state and the orders of ``cu_backlog``
    # and the active sets, which the batch keeps.
    def _on_rlc_status(self):
        """Each bearer's status report in the non-reliable baseline, in config
        order, sent only if it names a missing SN or an RLC window SN lies
        before ``ack_point``.  It acts only by removing window SNs before
        ``ack_point`` (``RlcTxState.remove``) and queueing the missing ones
        (``_abandon``, ``_activate`` follow from the latter).  An SN behind
        ``ack_point`` when applied was in the window when built: a PDU enters
        it when its first byte is pulled, and the receiver passes an SN only on
        receipt (pulled whole before), by drop indication (AQM drops only
        unsent heads) or by t-reordering (FIFO: every SN below a stashed one
        was pulled whole first; ``_abandon`` removes the loss).  No SN
        re-enters the window.  So a partly pulled head is never behind
        ``ack_point``, nor missing (below a stashed SN): each SN queued is
        resent whole, and a status ACK never removes the head.  A bearer with
        nothing stashed names no missing SN and one with an empty window has no
        SN before ``ack_point``, so a bearer with both empty is skipped before
        a report is built: the reports sent are the same."""
        by_delay = {}  # uplink latency -> the reports that arrive after it
        for ctx in self.bearers.values():
            if not ctx.reorder.stash and not ctx.rlc.window:
                continue
            ack_point, missing = ctx.reorder.status_report()
            if missing or any(stack.sn_lt(sn, ack_point)
                              for sn in ctx.rlc.window):
                by_delay.setdefault(self._uplink_latency(ctx), []).append(
                    (ctx, ack_point, missing))
        for delay, reports in by_delay.items():
            self.sim.schedule(self.sim.now + delay, "rlc-status-rx", "rlc",
                              partial(self._apply_status, reports))

    def _apply_status(self, reports):
        for ctx, ack_point, missing in reports:
            self._abandon(ctx, ctx.rlc.apply_status(ack_point, missing))
            if ctx.rlc.retx_queue:
                self._activate(ctx)

    # ------------------------------------------------------------ split mode

    def _cu_release(self, credits):
        moved = []  # sent to the DU in one F1 data message
        backlog = self.cu_backlog
        for ctx, credit in credits:
            queue = backlog.get(ctx)
            if queue is None:  # drained by an earlier status, or released
                continue
            while queue and credit > 0:
                pdu = queue.popleft()
                moved.append((ctx, pdu))
                credit -= pdu.size
            if not queue:
                del backlog[ctx]
        if moved:
            self.sim.schedule(self.sim.now + self.d_f1, "f1-data", "du",
                              partial(self._du_arrival, moved))

    # ------------------------------------------------------------ energy

    def _energy_tti(self, ranf, active_rus, now):
        """Put each RU granted no PRBs this TTI at rest.  A granted RU keeps
        its state, awake only if a TB woke it: a grant that carried only
        padding wakes nothing."""
        rest = self.meter.rest
        for ru_id, entity in self.ranf_ru_entities[ranf.id]:
            if ru_id not in active_rus:
                rest(entity, now)

    def _mark_instance_active(self, slice_id, now):
        """Wake the slice's user-plane instances, once per TTI: only the
        TTI event serves grants, so a second call in it changes nothing."""
        if self.slice_woken_at.get(slice_id) == now:
            return
        self.slice_woken_at[slice_id] = now
        wake = self.meter.wake
        for entity in self.user_plane_instances[slice_id]:
            wake(entity, now)

    def _on_orchestrator_tick(self):
        now = self.sim.now
        ocfg = self.cfg["orchestrator"]
        woken = self.slice_woken_at
        # A UP or PHY instance was last active when its slice's were last
        # woken; no other instance is ever woken.
        for inst in self.plan.instances:
            last = woken.get(inst.slice, 0) \
                if inst.kind in (topo.UP, topo.PHY) else 0
            if now - last >= ocfg["idle_sleep_interval_us"]:
                self.meter.rest(f"fn:{inst.id}", now)
        # Scaling of UP instances: busy if it carried data in the last tick.
        for inst in self.plan.of_kind(topo.UP):
            busy = now - woken.get(inst.slice, 0) < ocfg["tick_us"]
            action = self.scaler.evaluate(inst.id, busy)
            if action != orch.SCALE_NONE:
                self.metrics.scale_events.append((now, inst.id, action))

    # ------------------------------------------------------------ trust

    def _on_reassess(self):
        now = self.sim.now
        for ue_id in sorted(self.ues):
            ue = self.ues[ue_id]
            if ue.released:
                continue
            if self.trust_engine.reassess(ue_id, now, ranf=ue.ranf) \
                    == tru.RELEASE:
                self._release_ue(ue, now)

    def _release_ue(self, ue, now):
        ue.released = True
        for ctx in ue.bearers:
            ctx.metrics.residual += len(ctx.live)
            ctx.live.clear()
            ctx.rlc.release()
            self.cu_backlog.pop(ctx, None)
        ue.harq = [None] * len(ue.harq)

    # ------------------------------------------------------------ script

    def _on_script(self, ev):
        now = self.sim.now
        action = ev["action"]
        if action == "handover":
            self._do_handover(ev["ue"], ev["dst"], now)
        elif action == "migrate":
            self._do_migration(ev["instance"], ev["site"], now)
        elif action == "anomaly":
            self.trust_engine.records[ev["ue"]].features.anomaly_score = \
                ev["anomaly_score"]
        elif action == "policy":
            # The last policy applied decides.
            params = ev["policy"]["params"]
            if ev["policy"]["directive"] == orch.ENERGY_SAVING:
                self.meter.saving = params["on"]
            else:
                self.min_slice_share[params["slice"]] = params["fraction"]
        elif action == "detach_subnet":
            self.subnets[ev["subnet"]].detach()
        elif action == "attach_subnet":
            self.subnets[ev["subnet"]].attach()
        elif action == "device_handover":
            src = self.subnets[ev["src"]]
            dst = self.subnets[ev["dst"]] if ev["dst"] else None
            dev = src.devices.get(ev["device"])
            if dev is not None:
                subnet.device_handover(dev, src, dst)
        elif action == "set_bler":
            self.bler.set(ev["ue"], ev["ru"], ev["carrier"], ev["bler"])

    def _do_handover(self, ue_id, dst_id, now):
        ue = self.ues[ue_id]
        src = self.topology.ranfs[ue.ranf]
        dst = self.topology.ranfs[dst_id]
        if ue.released or dst_id not in src.neighbor_ranfs:
            # A released UE stays released: no admission check, no audit.
            reason = "UE released" if ue.released else "not a neighbor"
            self.metrics.handovers.append(radio.HandoverRecord(
                ue_id, src.id, dst_id, now, 0, 0, False, reason))
            return
        # Zero trust: re-check at the target RANF, no inherited admission.
        if self.trust_engine.admission_check(ue_id, now, ranf=dst_id) \
                == tru.REJECT:
            self._release_ue(ue, now)
            self.metrics.handovers.append(radio.HandoverRecord(
                ue_id, src.id, dst_id, now, 0, 0, False, "admission rejected"))
            return
        # In-flight TBs are treated as lost and their segments of window SNs
        # re-queued for RLC retx at the target; what each transmitter holds
        # is forwarded as-is.
        for proc in ue.harq:
            if proc is not None:
                self._abandon(proc.ctx,
                              proc.ctx.rlc.queue_retx(proc.tb.segments))
        ue.harq = [None] * len(ue.harq)
        forwarded = sum(ctx.rlc.held() for ctx in ue.bearers)
        link = self.topology.latency(src.site, dst.site)
        interruption = self.cfg["handover_interruption_us"]
        ue.ranf = dst_id
        ue.serving_set = self._select_serving(ue_id, dst_id)
        ue.pool_keys = None
        self._check_ul_anchor(ue)
        # Moves the UE's bearers, with the retransmissions just queued, into
        # the target RANF's active sets.
        target = self.active_sets[dst_id]
        for ctx in ue.bearers:
            ctx.active_set.pop(ctx, None)
            ctx.in_active_set = False
            ctx.active_set = target.setdefault(ctx.slice, {})
            if ctx.rlc.has_data():
                self._activate(ctx)
        ue.resume_at = now + max(interruption, link)
        self.metrics.handovers.append(radio.HandoverRecord(
            ue_id, src.id, dst_id, now, interruption, forwarded, True))

    def _do_migration(self, instance_id, site_id, now):
        inst = self.plan.by_id[instance_id]
        site = self.topology.sites[site_id]
        outcome = topo.migrate_function(
            self.plan, self.topology, inst, site, now,
            self.cfg["migration_downtime_us"])
        self.metrics.migrations.append(outcome)
        if outcome.accepted and outcome.downtime > 0 and inst.slice:
            self.slice_paused_until[inst.slice] = now + outcome.downtime
            self._recompute_paths()

    # ------------------------------------------------------------ subnet

    def _on_subnet_traffic(self, ctrl, t, local):
        ctrl.offer(subnet.SubnetPacket(t["src"], t.get("dst"), t["size"],
                                       self.sim.now, local))

    def _tti_for_subnet(self, ctrl, now):
        ctrl.schedule_local(now)
        sent = ctrl.relay_tick(now)
        if sent:
            arrive = now + ctrl.parent_latency
            self.sim.schedule(arrive, "subnet-relay", ctrl.id,
                              partial(ctrl.relay_delivered, sent))

    # ------------------------------------------------------------ run

    def run(self):
        self.sim.run_until(self.duration)
        self.meter.finalize(self.duration)
        self.metrics.energy_j = dict(self.meter.energy_j)
        self.metrics.wake_delays = self.meter.wake_delays
        for bid in sorted(self.bearers):
            ctx = self.bearers[bid]
            self.metrics.finalize_conservation(bid, len(ctx.live))
        for sn_id in sorted(self.subnets):
            c = self.subnets[sn_id]
            self.metrics.subnets[sn_id] = {
                "local_delivered": c.local_delivered,
                "local_delivered_times": c.local_delivered_times,
                "nonlocal_in": c.nonlocal_in,
                "nonlocal_out": c.nonlocal_out,
                "nonlocal_delivered": c.nonlocal_delivered,
                "nonlocal_ttl_dropped": c.nonlocal_ttl_dropped,
                "nonlocal_queued": len(c.relay_queue),
                "unknown_dropped": c.unknown_dropped,
                "grant_renewals": c.grant_renewals,
            }
        cfg_hash = cfgmod.config_hash(self.cfg)
        return self.metrics.to_report(self.seed, cfg_hash, self.duration)


def stage1_with_extras(items, class_weights):
    """Stage-1 requests including control/retransmission demand.

    ``items`` holds (bearer, buffered_bytes, head_sojourn, extra_bytes)
    tuples; a non-zero extra forces a request even for an empty buffer and
    bumps its urgency.  Each request is ``(-priority, bearer_id, ue, slice,
    buffered_bytes + extra_bytes)`` (see ``sched``).
    """
    requests = []
    for bearer, buffered, sojourn, extra in items:
        urgency = sojourn / bearer.latency_budget
        if extra:
            urgency += 1.0  # control PDUs and retransmissions are urgent
        w = class_weights.get(bearer.qos_class, 1.0)
        requests.append((-(w * urgency), bearer.id, bearer.ue, bearer.slice,
                         buffered + extra))
    return requests


def run_scenario(cfg):
    """Build and run one scenario; returns the report dict."""
    return Runtime(cfg).run()
