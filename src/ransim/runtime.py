"""End-to-end simulation wiring: builds entities from a resolved scenario
config and drives them through the event loop.

The downlink data path is simulated packet by packet (PDCP ingress ->
single RLC buffer -> TTI scheduling -> HARQ transmission -> receiver
reassembly and reordering).  Uplink is represented by per-TTI anchor
grants only, enough to enforce and audit the single-RANF UL rule.
"""

from collections import deque

from . import config as cfgmod
from . import orchestrate as orch
from . import radio
from . import sched
from . import stack
from . import topology as topo
from . import traffic as tra
from . import trust as tru
from .core import ConfigError, ModelError, RngRegistry, Simulator
from .metrics import MetricsCollector


class BearerCtx:
    __slots__ = ("bearer", "buffer", "cu_queue", "rlc", "reorder", "reassembly",
                 "source", "live", "stashed_at", "metrics", "ue", "slice",
                 "path_echo", "window_marked", "window_delivered",
                 "highest_completed")

    def __init__(self, bearer, buffer, rlc, reorder, source, metrics):
        self.bearer = bearer
        self.buffer = buffer
        self.cu_queue = deque()  # split-baseline PDCP-side queue at the CU
        self.rlc = rlc
        self.reorder = reorder
        self.reassembly = stack.RxReassembly()
        self.source = source
        self.live = {}  # sn -> PdcpPdu, every non-terminal PDU in the system
        self.stashed_at = {}  # sn -> receiver stash time, for stall metrics
        self.metrics = metrics
        self.ue = bearer.ue
        self.slice = bearer.slice
        self.window_marked = 0
        self.window_delivered = 0


class UeCtx:
    __slots__ = ("id", "ranf", "serving_set", "harq", "resume_at", "released",
                 "bearers")

    def __init__(self, ue_id, ranf_id, serving_set, n_harq, max_tx):
        self.id = ue_id
        self.ranf = ranf_id
        self.serving_set = serving_set
        self.harq = [stack.HarqProcess(i, max_tx) for i in range(n_harq)]
        self.resume_at = 0
        self.released = False
        self.bearers = []

    def free_process(self):
        for p in self.harq:
            if p.state == stack.FREE:
                return p
        return None


class SubnetCtx:
    __slots__ = ("controller", "nonlocal_delivered")

    def __init__(self, controller):
        self.controller = controller
        self.nonlocal_delivered = 0


class Runtime:
    def __init__(self, cfg):
        self.cfg = cfg
        self.seed = cfg["seed"]
        self.mode = cfg["mode"]
        self.split_mode = self.mode == cfgmod.MODE_SPLIT
        self.tti = cfg["tti_us"]
        self.duration = cfg["duration_us"]
        self.reliable = cfg["reliable_harq"]
        self.drop_indication = cfg["drop_indication"]
        self.dmimo = cfg["dmimo"]
        self.energy_enabled = cfg["energy"]
        self.strict_anchor = cfg["strict_anchor"]
        self.harq_rtt = cfg["harq"]["rtt_ttis"] * self.tti
        self.max_tx = cfg["harq"]["max_tx"]
        self.fb_error = cfg["harq"]["feedback_error_rate"]
        self.t_reordering = cfg["t_reordering_us"]
        self.d_f1 = cfg["split"]["d_f1_us"]
        self.credit_bytes = cfg["split"]["credit_bytes"]
        self.class_weights = cfg["class_weights"]

        rec = cfg["record"]
        self.metrics = MetricsCollector(rec["grants"], rec["tti_series"],
                                        rec["series_stride"])
        self.rng = RngRegistry(self.seed)
        self.sim = Simulator(self.rng)
        self.pending_retx = {}
        self.stage1_pipe = {}

        self._build_topology()
        self._build_placement()
        self._build_policies()
        self._build_trust()
        self._build_ues()
        self._build_bearers()
        self._build_ranf_index()
        self._build_subnets()
        self._build_energy()
        self._schedule_script()
        self.tti_index = 0
        self.sim.schedule(self.tti, "tti", "scheduler", self._on_tti)
        if self.trust_engine.records:
            iv = cfg["trust"]["reassess_interval_us"]
            self.sim.schedule(iv, "trust-reassess", "lotaf", self._on_reassess)
        self.scaler = orch.Scaler(cfg["orchestrator"]["scale_hi"],
                                  cfg["orchestrator"]["scale_lo"],
                                  cfg["orchestrator"]["hysteresis"])
        self.sim.schedule(cfg["orchestrator"]["tick_us"], "orchestrator-tick",
                          "orchestrator", self._on_orchestrator_tick)

    # ------------------------------------------------------------ build

    def _build_topology(self):
        cfg = self.cfg
        sites = []
        for s in cfg["sites"]:
            sites.append(topo.Site(s["id"], s["kind"], s["cpu_capacity"]))
        site_by_id = {s.id: s for s in sites}
        for link in cfg["links"]:
            site_by_id[link["a"]].link_latency_to[link["b"]] = link["latency_us"]
            site_by_id[link["b"]].link_latency_to[link["a"]] = link["latency_us"]
        self.carriers = {c["id"]: radio.Carrier(c["id"], c["prbs_per_tti"],
                                                c["bytes_per_prb"])
                         for c in cfg["carriers"]}
        rus = [topo.RadioUnit(r["id"], r["site"], list(r["carriers"]),
                              r["fronthaul_latency_us"]) for r in cfg["rus"]]
        ranfs = [topo.Ranf(rf["id"], rf["site"], set(rf["rus"]),
                           set(rf["neighbors"])) for rf in cfg["ranfs"]]
        self.topology = topo.Topology(sites, rus, ranfs)
        self.ru_to_ranf = {}
        for rf in ranfs:
            for ru in rf.serving_rus:
                self.ru_to_ranf[ru] = rf.id
        # Per-RANF PRB pool template: (ru, carrier) -> (prbs, bytes_per_prb).
        self.pool_maps = {}
        for rf in ranfs:
            self.pool_maps[rf.id] = {
                (ru_id, c_id): (self.carriers[c_id].prbs_per_tti,
                                self.carriers[c_id].bytes_per_prb)
                for ru_id in sorted(rf.serving_rus)
                for c_id in self.topology.rus[ru_id].carriers
            }
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
        declared = [sl["id"] for sl in cfg["slices"]]
        for sl in cfg["slices"]:
            if sl["auto_place"]:
                sla = orch.SlaSpec(sl["id"], sl["latency_budget_us"])
                result = orch.admit_slice(
                    sla, self.topology, self.plan, tti=self.tti,
                    harq_max_tx=self.max_tx, harq_rtt=self.harq_rtt,
                    prefer_site=self.cfg.get("_prefer_site"),
                )
                if isinstance(result, orch.Reject):
                    raise ConfigError(
                        f"slice {sl['id']} rejected ({result.reason}): "
                        f"{result.detail}"
                    )
        violations = topo.validate_placement(self.plan, self.topology,
                                             slices=declared or None)
        if violations:
            raise ConfigError("invalid placement:\n  " + "\n  ".join(violations))
        self.slice_ids = declared or self.plan.slices()
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
        self.ctrl_lat = {}
        for sl in self.slice_ids:
            ups = self.plan.of_kind(topo.UP, sl)
            for rf in self.topology.ranfs.values():
                self.ctrl_lat[(sl, rf.id)] = self.topology.latency(
                    ups[0].site, rf.site) if ups else 0

    def _build_policies(self):
        self.policies = orch.PolicyStore()

    def _build_trust(self):
        t = self.cfg["trust"]
        self.trust_engine = tru.TrustEngine(tuple(t["weights"]), t["threshold"],
                                            t["query_latency_us"])
        self.metrics.audit_log = self.trust_engine.audit_log

    def _build_ues(self):
        self.ues = {}
        serving_cfg = self.cfg["serving"]
        for u in self.cfg["ues"]:
            tr = u["trust"]
            self.trust_engine.register(
                u["id"],
                tru.TrustFeatures(tr["auth"], tr["history"], tr["anomaly"]),
                u["trust_threshold"],
            )
            serving = self._select_serving(u["id"], u["ranf"])
            ue = UeCtx(u["id"], u["ranf"], serving,
                       self.cfg["harq"]["processes"], self.max_tx)
            self.ues[u["id"]] = ue
            self.trust_engine.admission_check(u["id"], 0, ranf=u["ranf"])
            if not self.trust_engine.is_admitted(u["id"]):
                ue.released = True

    def _select_serving(self, ue_id, ranf_id):
        scfg = self.cfg["serving"]
        ranf = self.topology.ranfs[ranf_id]
        candidates = sorted(ranf.serving_rus)
        mode = radio.DMIMO_JOINT if self.dmimo else radio.SINGLE_RU

        def bler_of(ru):
            carrier = self.topology.rus[ru].carriers[0]
            return self.bler.get(ue_id, ru, carrier)

        max_set = scfg["max_set_size"]
        if self.dmimo and max_set <= 1:
            max_set = len(candidates)
        return radio.select_serving_set(
            ue_id, candidates, bler_of, scfg["quality_threshold"], max_set, mode)

    def _build_bearers(self):
        self.bearers = {}
        declared = set(self.slice_ids)
        for b in self.cfg["bearers"]:
            qos_class, slice_id = sched.classify_qos(
                b["latency_req_us"], b["reliability_req"])
            if declared and slice_id not in declared:
                raise ConfigError(
                    f"bearer {b['id']}: classified into slice {slice_id} "
                    f"which is not declared in the scenario"
                )
            bearer = stack.Bearer(
                b["id"], b["ue"], slice_id,
                sched.CLASS_LATENCY_BUDGET[qos_class], qos_class,
                ecn_capable=b["ecn_capable"],
            )
            aqm = stack.AqmState(self.cfg["aqm"]["mark_threshold_us"],
                                 self.cfg["aqm"]["drop_threshold_us"])
            buffer = stack.TransmitBuffer(b["id"], aqm)
            rlc = stack.RlcTxState(self.cfg["rlc"]["window"],
                                   self.cfg["rlc"]["max_retx"])
            reorder = stack.ReorderState(self.t_reordering)
            t = b["traffic"]
            source = tra.TrafficSource(
                b["id"], t["pattern"], t["rate_bytes_per_s"], t["sdu_bytes"],
                t["burst_period_us"], t["burst_bytes"], t["fps"],
                t["frame_bytes"], t["frame_jitter"], t["congestion_law"],
                t["recovery_step"],
            )
            source.rtt_window = t["rtt_window_us"]
            ctx = BearerCtx(bearer, buffer, rlc, reorder, source,
                            self.metrics.bearer(b["id"]))
            self.bearers[b["id"]] = ctx
            self.ues[bearer.ue].bearers.append(ctx)
            start = t["start_us"]
            stop = t["stop_us"]
            self.sim.schedule(start, "traffic", b["id"],
                              lambda c=ctx, s=stop: self._on_traffic(c, s))
            if source.congestion_law != tra.NO_REACTION:
                self.sim.schedule(source.rtt_window, "cc-window", b["id"],
                                  lambda c=ctx: self._on_cc_window(c))
            if not self.reliable:
                iv = self.cfg["rlc"]["status_interval_us"]
                self.sim.schedule(iv, "rlc-status", b["id"],
                                  lambda c=ctx: self._on_rlc_status(c))

    def _build_ranf_index(self):
        """Index the UEs and bearers each RANF serves.

        ``ues_by_ranf[ranf]`` lists UE ids in sorted order and
        ``bearers_by_ranf[ranf][slice]`` lists bearer contexts in config
        order, which is the order the TTI loop visits them in.  Only
        ``_do_handover`` changes a UE's RANF, and it rebuilds the index
        (O(UEs + bearers) per handover instead of per TTI).
        """
        self.ues_by_ranf = {rf_id: [] for rf_id in self.topology.ranfs}
        self.bearers_by_ranf = {rf_id: {} for rf_id in self.topology.ranfs}
        for ue_id in sorted(self.ues):
            self.ues_by_ranf[self.ues[ue_id].ranf].append(ue_id)
        for ctx in self.bearers.values():
            by_slice = self.bearers_by_ranf[self.ues[ctx.ue].ranf]
            by_slice.setdefault(ctx.slice, []).append(ctx)

    def _build_subnets(self):
        self.subnets = {}
        for sn in self.cfg["subnetworks"]:
            ctrl = subnet_controller_from_cfg(sn)
            ctx = SubnetCtx(ctrl)
            self.subnets[sn["id"]] = ctx
            if ctrl.attached:
                ctrl.request_grant(sn["grant_prbs"], 0, sn["grant_period_us"] * 2)
                self.sim.schedule(sn["grant_period_us"], "subnet-grant", sn["id"],
                                  lambda c=ctx, s=sn: self._on_subnet_grant(c, s))
            for t in sn["local_traffic"]:
                self.sim.schedule(t["start_us"], "subnet-traffic", sn["id"],
                                  lambda c=ctx, t=t: self._on_subnet_traffic(
                                      c, t, local=True))
            for t in sn["nonlocal_traffic"]:
                self.sim.schedule(t["start_us"], "subnet-traffic", sn["id"],
                                  lambda c=ctx, t=t: self._on_subnet_traffic(
                                      c, t, local=False))

    def _build_energy(self):
        self.meter = orch.EnergyMeter()
        self.energy_saving = self.energy_enabled
        self.instance_activity = {}
        for ru_id in sorted(self.topology.rus):
            self.meter.register(f"ru:{ru_id}",
                                orch.DEFAULT_POWER_PROFILES["RU"], "Idle")
        for inst in self.plan.instances:
            self.meter.register(f"fn:{inst.id}",
                                orch.DEFAULT_POWER_PROFILES[inst.kind], "Idle")
            self.instance_activity[inst.id] = 0

    def _schedule_script(self):
        for ev in self.cfg["script"]:
            at = ev["at_us"]
            action = ev["action"]
            self.sim.schedule(at, f"script:{action}", str(ev.get("ue", "")),
                              lambda e=ev: self._on_script(e))

    # ------------------------------------------------------------ traffic

    def _on_traffic(self, ctx, stop):
        now = self.sim.now
        rng = self.rng.stream(f"traffic:{ctx.bearer.id}")
        next_t, sizes = ctx.source.next_emission(now, rng)
        for size in sizes:
            self._ingress(ctx, size, now)
        if next_t is not None and next_t <= self.duration \
                and (stop is None or next_t < stop):
            self.sim.schedule(next_t, "traffic", ctx.bearer.id,
                              lambda: self._on_traffic(ctx, stop))
        elif ctx.source.rate <= 0 and (stop is None or now < stop):
            # A throttled source re-checks after a recovery window.
            retry = now + ctx.source.rtt_window
            if retry <= self.duration:
                self.sim.schedule(retry, "traffic", ctx.bearer.id,
                                  lambda: self._on_traffic(ctx, stop))

    def _ingress(self, ctx, size, now):
        ctx.metrics.packets_in += 1
        ue = self.ues[ctx.ue]
        if ue.released or not ctx.bearer.active:
            ctx.metrics.ingress_dropped += 1
            ctx.metrics.packets_in -= 1
            return
        target = None if self.split_mode else ctx.buffer
        pdu = stack.pdcp_preprocess(size, ctx.bearer, now, buffer=target)
        if pdu.sn in ctx.live:
            raise ModelError(
                f"bearer {ctx.bearer.id}: SN space overrun at sn={pdu.sn}")
        ctx.live[pdu.sn] = pdu
        if self.split_mode:
            ctx.cu_queue.append(pdu)
            if self.credit_bytes is None:
                self.sim.schedule(now + self.d_f1, "split-forward",
                                  ctx.bearer.id,
                                  lambda: self._du_arrival(ctx, [ctx.cu_queue.popleft()])
                                  if ctx.cu_queue else None)

    def _du_arrival(self, ctx, pdus):
        for pdu in pdus:
            ctx.buffer.push(pdu)

    def _on_cc_window(self, ctx):
        """Per-RTT congestion window for reactive sources."""
        now = self.sim.now
        delivered = ctx.window_delivered
        marked = ctx.window_marked
        ctx.window_delivered = 0
        ctx.window_marked = 0
        src = ctx.source
        if src.congestion_law == tra.L4S:
            fraction = marked / delivered if delivered else 0.0
            if fraction > 0:
                tra.on_congestion_signal(src, tra.CeMarkFraction(fraction), now)
            else:
                tra.recover_rate(src)
        elif src.congestion_law == tra.CLASSIC:
            tra.recover_rate(src)
        nxt = now + src.rtt_window
        if nxt <= self.duration:
            self.sim.schedule(nxt, "cc-window", ctx.bearer.id,
                              lambda: self._on_cc_window(ctx))

    # ------------------------------------------------------------ TTI loop

    def _on_tti(self):
        now = self.sim.now
        self.tti_index += 1
        max_sojourn = 0
        for rf_id in sorted(self.topology.ranfs):
            sojourn = self._tti_for_ranf(self.topology.ranfs[rf_id], now)
            max_sojourn = max(max_sojourn, sojourn)
        for ctx in self.subnets.values():
            self._tti_for_subnet(ctx, now)
        if self.split_mode and self.credit_bytes is not None:
            for ctx in self.bearers.values():
                self._du_status(ctx, now)
        nxt = now + self.tti
        if nxt <= self.duration:
            self.sim.schedule(nxt, "tti", "scheduler", self._on_tti)

    def _tti_for_ranf(self, ranf, now):
        pools_map = self.pool_maps[ranf.id]
        if not pools_map:
            return 0
        pools = sched.PrbPools(pools_map)
        grants_by_ue = {}  # ue id -> its grants this TTI, in grant order
        active_rus = set()

        # HARQ retransmissions take resources first.
        pending = self.pending_retx.get(ranf.id)
        if pending:
            still = deque()
            while pending:
                proc, ue_id = pending.popleft()
                ue = self.ues[ue_id]
                if proc.state != stack.AWAITING_FEEDBACK or proc.meta is None \
                        or ue.released or ue.ranf != ranf.id:
                    continue  # flushed by handover or release
                key = proc.meta["pool"]
                got = pools.take(key, proc.meta["prbs"])
                if got < proc.meta["prbs"]:
                    pools.free[key] = pools.free.get(key, 0) + got
                    still.append((proc, ue_id))
                    continue
                self._transmit(proc.tb, proc, ue, key, now,
                               retransmission=True)
            self.pending_retx[ranf.id] = still

        # Stage 1 per slice at the UP site; requests reach the RRM after the
        # control-plane latency and are used as-is (stale) once visible.
        max_sojourn = 0
        requests = []
        by_slice = self.bearers_by_ranf[ranf.id]
        for sl in self.slice_ids:
            items = []
            paused = now < self.slice_paused_until.get(sl, 0)
            for ctx in () if paused else by_slice.get(sl, ()):
                # Buffers live at the UP function, which keeps reporting
                # through a handover interruption; only the radio grant
                # waits for the UE to resume (see resources_for below).
                if self.ues[ctx.ue].released:
                    continue
                rlc = ctx.rlc
                if not (ctx.buffer.queue or rlc.retx_queue
                        or rlc.pending_drop_indications):
                    continue  # idle: AQM is a no-op and no request is due
                self._apply_aqm(ctx, now)
                extra = (len(rlc.pending_drop_indications)
                         * stack.DROP_IND_BYTES)
                extra += sum(s.end - s.start + stack.SEG_HEADER_BYTES
                             for s in rlc.retx_queue)
                max_sojourn = max(max_sojourn, ctx.buffer.head_sojourn(now))
                if ctx.buffer.queue or extra:
                    items.append((ctx.bearer, ctx.buffer, extra))
            reqs = stage1_with_extras(items, now, self.class_weights)
            pipe = self.stage1_pipe.setdefault((ranf.id, sl), deque())
            pipe.append((now + self.ctrl_lat.get((sl, ranf.id), 0), reqs))
            visible = None
            while pipe and pipe[0][0] <= now:
                visible = pipe.popleft()[1]
            if visible:
                requests.extend(visible)

        def resources_for(req):
            ue = self.ues[req.ue]
            if now < ue.resume_at:
                return
            for ru_id in ue.serving_set.rus:
                if ru_id in ranf.serving_rus:
                    for c_id in self.topology.rus[ru_id].carriers:
                        yield (ru_id, c_id)

        min_share = self.policies.min_slice_shares() or \
            {k: v for k, v in self.cfg["min_slice_share"].items()}
        grants = sched.stage2_allocate(requests, self.tti_index, pools,
                                       resources_for,
                                       min_share=min_share or None)
        for g in grants:
            ctx = self.bearers[g.bearer_id]
            if not self.trust_engine.is_admitted(ctx.ue) \
                    and self.trust_engine.records:
                raise ModelError(f"grant issued to unadmitted UE {ctx.ue}")
            self.metrics.on_grant(g, now)
            self.metrics.add_slice_prbs(ctx.slice, g.prbs)
            grants_by_ue.setdefault(g.ue, []).append(g)
            active_rus.add(g.ru)
            self._serve_grant(ctx, g, now)

        # Uplink anchor grants (bookkeeping only; UL data is out of scope).
        for ue_id in self.ues_by_ranf[ranf.id]:
            ue = self.ues[ue_id]
            if ue.released or now < ue.resume_at:
                continue
            ru = ue.serving_set.rus[0]
            carrier = self.topology.rus[ru].carriers[0]
            ul = sched.Grant(ue_id, "", ru, carrier, 1, 0, self.tti_index, "UL")
            grants_by_ue.setdefault(ue_id, []).append(ul)
            if self.metrics.record_grants:
                self.metrics.grant_log.append(
                    (now, ue_id, "", ru, carrier, 1, "UL"))

        for ue_id in sorted(grants_by_ue):
            sched.ul_anchor_check(ue_id, grants_by_ue[ue_id], self.ru_to_ranf,
                                  self.ues[ue_id].ranf,
                                  strict=self.strict_anchor)

        self._energy_tti(ranf, active_rus, now)
        self.metrics.on_tti(now, pools.total, pools.used(), max_sojourn,
                            self.tti_index)
        return max_sojourn

    def _apply_aqm(self, ctx, now):
        actions = stack.aqm_inspect(ctx.buffer, now, ctx.bearer.ecn_capable)
        for act in actions:
            if isinstance(act, stack.FrontDrop):
                ctx.live.pop(act.sn, None)
                ctx.metrics.aqm_drops += 1
                if self.drop_indication:
                    ctx.rlc.pending_drop_indications.append(act.sn)
            else:
                ctx.metrics.ce_marks += 1

    def _serve_grant(self, ctx, grant, now):
        ue = self.ues[ctx.ue]
        self._apply_aqm(ctx, now)
        proc = ue.free_process()
        if proc is None:
            self.metrics.wasted_grants += 1
            return
        tb = stack.build_transport_block(ctx.buffer, ctx.rlc, grant.bytes)
        if tb.empty:
            self.metrics.padding_bytes += grant.bytes
            return
        self.metrics.padding_bytes += tb.padding
        key = (grant.ru, grant.carrier)
        proc.load(tb, meta={"pool": key, "prbs": grant.prbs, "bearer": ctx})
        self.metrics.tb_transmitted += 1
        self._mark_instance_active(ctx.slice, now)
        self._transmit(tb, proc, ue, key, now, retransmission=False)

    def _transmit(self, tb, proc, ue, key, now, retransmission):
        ru_id, carrier_id = key
        ctx = proc.meta["bearer"]
        wake_delay = self._wake_ru(ru_id, now)
        rng = self.rng.stream(f"link:{ue.id}")
        sset = ue.serving_set
        success, attempted = radio.transmit(sset, carrier_id, self.bler, rng)
        fh_mode = self.cfg["fronthaul"]["mode"]
        charged = radio.fronthaul_load(
            fh_mode, tb.bytes, self.cfg["fronthaul"]["expansion_factor"],
            self.cfg["fronthaul"]["update_cost_bytes"])
        targets = sset.rus if sset.mode == radio.DMIMO_JOINT else [ru_id]
        for target in targets:
            self.metrics.on_fronthaul(target, charged)
        if success:
            path = self.path_lat[(ctx.slice, ru_id)]
            arrive = now + self.tti + path + wake_delay
            payload = [(s.sn, s.start, s.end,
                        ctx.live[s.sn].size if s.sn in ctx.live else s.end)
                       for s in tb.segments]
            drops = list(tb.drop_indications)
            self.sim.schedule(arrive, "deliver", ctx.bearer.id,
                              lambda: self._on_deliver(ctx, payload, drops))
        fb_at = now + self.harq_rtt
        tx_count = proc.tx_count
        self.sim.schedule(fb_at, "harq-feedback", ue.id,
                          lambda: self._on_feedback(ue, proc, tb, tx_count,
                                                    success))

    def _on_feedback(self, ue, proc, tb, tx_count, success):
        if proc.tb is not tb or proc.tx_count != tx_count \
                or proc.state != stack.AWAITING_FEEDBACK:
            return  # stale (flushed by handover or release)
        ack = success
        if not self.reliable and not success and self.fb_error > 0:
            if self.rng.stream(f"fb:{ue.id}").draw() < self.fb_error:
                ack = True  # corrupted NACK read as ACK
        result = stack.harq_on_feedback(proc, ack, self.reliable)
        ctx = proc.meta["bearer"]
        if result == stack.HARQ_ACKED:
            proc.free()
            if self.reliable:
                for seg in tb.segments:
                    ctx.rlc.ack_segment(seg.sn, seg.start, seg.end)
        elif result == stack.HARQ_RETRANSMIT:
            ranf_id = self.ues[ue.id].ranf
            self.pending_retx.setdefault(ranf_id, deque()).append((proc, ue.id))
        elif result == stack.HARQ_FAILED_TO_RLC:
            proc.free()
            self.metrics.tb_failed_final += 1
            abandoned = ctx.rlc.queue_retx(tb.segments)
            for sn in abandoned:
                if ctx.live.pop(sn, None) is not None:
                    ctx.metrics.residual += 1
        elif result == stack.HARQ_FAILED:
            proc.free()
            self.metrics.tb_failed_final += 1
        else:
            self.metrics.harq_protocol_errors += 1

    # ------------------------------------------------------------ receiver

    def _on_deliver(self, ctx, payload, drops):
        now = self.sim.now
        for sn, start, end, size in payload:
            if ctx.reassembly.add(sn, start, end, size):
                delivered, gap_closed, timer = ctx.reorder.receive(sn, now)
                if not delivered and sn in ctx.reorder.stash:
                    ctx.stashed_at.setdefault(sn, now)
                self._deliver_sdus(ctx, delivered, now)
                self._timer_action(ctx, timer, now)
        for sn in drops:
            delivered, gap_closed, timer = \
                ctx.reorder.receive_drop_indication(sn, now)
            self._deliver_sdus(ctx, delivered, now)
            self._timer_action(ctx, timer, now)
            self._signal_source(ctx, tra.DropEcho(), now)

    def _deliver_sdus(self, ctx, sns, now):
        for sn in sns:
            pdu = ctx.live.pop(sn, None)
            if pdu is None:
                ctx.metrics.duplicates += 1
                continue
            latency = now - pdu.arrival_time
            ctx.metrics.delivered += 1
            ctx.metrics.latencies.append(latency)
            ctx.metrics.delivered_times.append(now)
            ctx.window_delivered += 1
            if sn in ctx.stashed_at:
                ctx.metrics.reorder_stalls.append((sn, now - ctx.stashed_at.pop(sn)))
            if pdu.ce_marked:
                ctx.window_marked += 1
                self._signal_source(ctx, "ce", now)

    def _signal_source(self, ctx, signal, now):
        bid = ctx.bearer.id
        ru = self.ues[ctx.ue].serving_set.rus[0]
        echo_at = now + self.path_lat[(ctx.slice, ru)]
        if isinstance(signal, tra.DropEcho):
            if bid not in self.metrics.drop_echo_times:
                self.metrics.drop_echo_times[bid] = echo_at
            if ctx.source.congestion_law == tra.CLASSIC:
                self.sim.schedule(echo_at, "drop-echo", bid,
                                  lambda: tra.on_congestion_signal(
                                      ctx.source, tra.DropEcho(), self.sim.now))
        else:
            if bid not in self.metrics.ce_signal_times:
                self.metrics.ce_signal_times[bid] = echo_at

    def _timer_action(self, ctx, action, now):
        if action == "start":
            gen = ctx.reorder.timer_generation
            deadline = ctx.reorder.timer_deadline
            self.sim.schedule(deadline, "t-reordering", ctx.bearer.id,
                              lambda: self._on_reorder_timer(ctx, gen))
        # cancel: the generation bump already invalidates the pending event

    def _on_reorder_timer(self, ctx, gen):
        if ctx.reorder.timer_generation != gen \
                or ctx.reorder.timer_deadline is None:
            return
        now = self.sim.now
        if self.reliable:
            # With reliable feedback cross-wired into RLC, anything still held
            # by the transmitter will arrive; re-arm instead of skipping it.
            sn = ctx.reorder.expected_sn
            if sn in ctx.live:
                ctx.reorder.timer_deadline = now + ctx.reorder.t_reordering
                ctx.reorder.timer_generation += 1
                gen = ctx.reorder.timer_generation
                self.sim.schedule(ctx.reorder.timer_deadline, "t-reordering",
                                  ctx.bearer.id,
                                  lambda: self._on_reorder_timer(ctx, gen))
                return
        delivered, lost, _ = ctx.reorder.timer_expired(now)
        for sn in lost:
            if ctx.live.pop(sn, None) is not None:
                ctx.metrics.residual += 1
            ctx.rlc.discard(sn)
            self._signal_source(ctx, tra.DropEcho(), now)
        self._deliver_sdus(ctx, delivered, now)

    def _on_rlc_status(self, ctx):
        """Receiver status report in the non-reliable baseline."""
        now = self.sim.now
        expected = ctx.reorder.expected_sn
        missing = []
        if ctx.reorder.stash:
            sn = expected
            horizon = max(ctx.reorder.stash,
                          key=lambda s: stack.sn_delta(expected, s))
            while sn != horizon and len(missing) < 16:
                if sn not in ctx.reorder.stash \
                        and sn not in ctx.reassembly.partial \
                        and sn not in ctx.reorder.skipped:
                    missing.append(sn)
                sn = (sn + 1) % stack.SN_SPACE
        ru = self.ues[ctx.ue].serving_set.rus[0]
        delay = self.path_lat[(ctx.slice, ru)]
        self.sim.schedule(now + delay, "rlc-status-rx", ctx.bearer.id,
                          lambda: self._apply_status(ctx, expected, missing))
        nxt = now + self.cfg["rlc"]["status_interval_us"]
        if nxt <= self.duration:
            self.sim.schedule(nxt, "rlc-status", ctx.bearer.id,
                              lambda: self._on_rlc_status(ctx))

    def _apply_status(self, ctx, ack_point, missing):
        rlc = ctx.rlc
        for sn in list(rlc.window):
            if stack.sn_lt(sn, ack_point):
                del rlc.window[sn]
        queued = set(s.sn for s in rlc.retx_queue)
        segs = []
        for sn in missing:
            entry = rlc.window.get(sn)
            if entry is None or sn in queued:
                continue
            for s, e in entry.pending:
                segs.append(stack.Segment(sn, s, e, is_retx=True))
        abandoned = rlc.queue_retx(segs)
        for sn in abandoned:
            if ctx.live.pop(sn, None) is not None:
                ctx.metrics.residual += 1

    # ------------------------------------------------------------ split mode

    def _du_status(self, ctx, now):
        """DU advertises its desired buffer fill; CU sends down to the credit."""
        desired = max(0, self.credit_bytes - ctx.buffer.bytes)
        if desired <= 0 or not ctx.cu_queue:
            return
        self.sim.schedule(now + self.d_f1, "f1-status", ctx.bearer.id,
                          lambda: self._cu_release(ctx, desired))

    def _cu_release(self, ctx, credit):
        batch = []
        while ctx.cu_queue and credit > 0:
            pdu = ctx.cu_queue.popleft()
            batch.append(pdu)
            credit -= pdu.size
        if batch:
            self.sim.schedule(self.sim.now + self.d_f1, "f1-data",
                              ctx.bearer.id,
                              lambda: self._du_arrival(ctx, batch))

    # ------------------------------------------------------------ energy

    def _wake_ru(self, ru_id, now):
        entity = f"ru:{ru_id}"
        state = self.meter.state(entity)
        delay = 0
        if state == "Sleep":
            delay = self.meter.profile(entity).wake_latency
            self.meter.wake_delays += 1
        self.meter.set_state(entity, "Active", now)
        return delay

    def _energy_tti(self, ranf, active_rus, now):
        for ru_id in sorted(ranf.serving_rus):
            entity = f"ru:{ru_id}"
            if ru_id in active_rus:
                continue  # set Active by _wake_ru
            target = "Sleep" if self.energy_saving else "Idle"
            self.meter.set_state(entity, target, now)

    def _mark_instance_active(self, slice_id, now):
        for kind in (topo.UP, topo.PHY):
            for inst in self.plan.of_kind(kind, slice_id):
                entity = f"fn:{inst.id}"
                if self.meter.state(entity) == "Sleep":
                    self.meter.wake_delays += 1
                self.meter.set_state(entity, "Active", now)
                self.instance_activity[inst.id] = now

    def _on_orchestrator_tick(self):
        now = self.sim.now
        idle_after = self.cfg["orchestrator"]["idle_sleep_interval_us"]
        for inst in self.plan.instances:
            entity = f"fn:{inst.id}"
            last = self.instance_activity.get(inst.id, 0)
            if now - last >= idle_after:
                target = "Sleep" if (self.energy_saving and inst.kind in
                                     (topo.UP, topo.RRC, topo.PHY)) else "Idle"
                self.meter.set_state(entity, target, now)
        # Load-driven scaling of UP instances (PRB utilization proxy).
        for inst in self.plan.of_kind(topo.UP):
            load = 1.0 if now - self.instance_activity.get(inst.id, 0) \
                < self.cfg["orchestrator"]["tick_us"] else 0.0
            action = self.scaler.evaluate(inst.id, load)
            if action != orch.SCALE_NONE:
                self.metrics.scale_events.append((now, inst.id, action))
        nxt = now + self.cfg["orchestrator"]["tick_us"]
        if nxt <= self.duration:
            self.sim.schedule(nxt, "orchestrator-tick", "orchestrator",
                              self._on_orchestrator_tick)

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
        nxt = now + self.cfg["trust"]["reassess_interval_us"]
        if nxt <= self.duration:
            self.sim.schedule(nxt, "trust-reassess", "lotaf", self._on_reassess)

    def _release_ue(self, ue, now):
        ue.released = True
        for ctx in ue.bearers:
            ctx.bearer.active = False
            for sn in list(ctx.live):
                ctx.live.pop(sn)
                ctx.metrics.residual += 1
            ctx.buffer.queue.clear()
            ctx.buffer.bytes = 0
            ctx.rlc.window.clear()
            ctx.rlc.retx_queue.clear()
        for proc in ue.harq:
            if proc.state != stack.FREE:
                proc.free()

    # ------------------------------------------------------------ script

    def _on_script(self, ev):
        now = self.sim.now
        action = ev["action"]
        if action == "handover":
            self._do_handover(ev["ue"], ev["dst"], now)
        elif action == "migrate":
            self._do_migration(ev["instance"], ev["site"], now)
        elif action == "anomaly":
            rec = self.trust_engine.records.get(ev["ue"])
            if rec is not None:
                rec.features.anomaly_score = ev["anomaly_score"]
        elif action == "policy":
            p = ev["policy"]
            policy = orch.Policy(p["id"], p.get("scope", "global"),
                                 p["directive"], p.get("params", {}))
            self.policies.apply(policy, now)
            if policy.directive == orch.ENERGY_SAVING:
                self.energy_saving = bool(policy.params.get("on", False))
        elif action == "detach_subnet":
            self.subnets[ev["subnet"]].controller.detach()
        elif action == "attach_subnet":
            ctrl = self.subnets[ev["subnet"]].controller
            ctrl.attach(ev["ranf"], ev["ru"])
        elif action == "device_handover":
            src = self.subnets[ev["src"]].controller
            dst = self.subnets[ev["dst"]].controller if ev["dst"] else None
            dev = src.devices.get(ev["device"])
            if dev is not None:
                from .subnet import device_handover
                device_handover(dev, src, dst, now)
        elif action == "set_bler":
            self.bler.set(ev["ue"], ev["ru"], ev["carrier"], ev["bler"])

    def _do_handover(self, ue_id, dst_id, now):
        ue = self.ues[ue_id]
        src = self.topology.ranfs[ue.ranf]
        dst = self.topology.ranfs[dst_id]
        if dst_id not in src.neighbor_ranfs:
            self.metrics.handovers.append(radio.HandoverRecord(
                ue_id, src.id, dst_id, now, 0, 0, False, "not a neighbor"))
            return
        # Zero trust: re-check at the target RANF, no inherited admission.
        if self.trust_engine.admission_check(ue_id, now, ranf=dst_id) \
                == tru.REJECT:
            self._release_ue(ue, now)
            self.metrics.handovers.append(radio.HandoverRecord(
                ue_id, src.id, dst_id, now, 0, 0, False, "admission rejected"))
            return
        # In-flight TBs are treated as lost and re-queued for RLC retx at the
        # target; the un-ACKed window and buffer are forwarded as-is.
        for proc in ue.harq:
            if proc.state == stack.FREE:
                continue
            bctx = proc.meta["bearer"]
            tb = proc.free()
            abandoned = bctx.rlc.queue_retx(
                [s for s in tb.segments if s.sn in bctx.rlc.window])
            for sn in abandoned:
                if bctx.live.pop(sn, None) is not None:
                    bctx.metrics.residual += 1
        forwarded = sum(len(ctx.rlc.window) + len(ctx.buffer.queue)
                        for ctx in ue.bearers)
        link = self.topology.latency(src.site, dst.site)
        interruption = self.cfg["handover_interruption_us"]
        ue.ranf = dst_id
        self._build_ranf_index()
        ue.serving_set = self._select_serving(ue_id, dst_id)
        ue.resume_at = now + max(interruption, link)
        self.metrics.handovers.append(radio.HandoverRecord(
            ue_id, src.id, dst_id, now, interruption, forwarded, True))

    def _do_migration(self, instance_id, site_id, now):
        inst = self.plan.by_id.get(instance_id)
        if inst is None:
            raise ConfigError(f"migration: unknown instance {instance_id!r}")
        site = self.topology.sites[site_id]
        outcome = topo.migrate_function(
            self.plan, self.topology, inst, site, now,
            self.cfg["migration_downtime_us"])
        self.metrics.migrations.append(outcome)
        if outcome.accepted and outcome.downtime > 0 and inst.slice:
            self.slice_paused_until[inst.slice] = now + outcome.downtime
            self._recompute_paths()

    # ------------------------------------------------------------ subnet

    def _on_subnet_traffic(self, ctx, t, local):
        now = self.sim.now
        from .subnet import SubnetPacket
        pkt = SubnetPacket(t["src"], t.get("dst"), t["size"], now, local)
        ctx.controller.offer(pkt, now)
        nxt = now + t["period_us"]
        if nxt <= self.duration and (t["stop_us"] is None or nxt < t["stop_us"]):
            self.sim.schedule(nxt, "subnet-traffic", ctx.controller.id,
                              lambda: self._on_subnet_traffic(ctx, t, local))

    def _on_subnet_grant(self, ctx, sn_cfg):
        now = self.sim.now
        if ctx.controller.attached:
            ctx.controller.request_grant(sn_cfg["grant_prbs"], now,
                                         sn_cfg["grant_period_us"] * 2)
        nxt = now + sn_cfg["grant_period_us"]
        if nxt <= self.duration:
            self.sim.schedule(nxt, "subnet-grant", ctx.controller.id,
                              lambda: self._on_subnet_grant(ctx, sn_cfg))

    def _tti_for_subnet(self, ctx, now):
        ctrl = ctx.controller
        ctrl.schedule_local(now)
        sent = ctrl.relay_tick(now)
        if sent:
            arrive = now + ctrl.parent_latency
            self.sim.schedule(arrive, "subnet-relay", ctrl.id,
                              lambda n=len(sent): self._subnet_delivered(ctx, n))

    def _subnet_delivered(self, ctx, n):
        ctx.nonlocal_delivered += n

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
            ctx = self.subnets[sn_id]
            c = ctx.controller
            self.metrics.subnets[sn_id] = {
                "local_delivered": c.local_delivered,
                "local_delivered_times": c.local_delivered_times,
                "nonlocal_in": c.nonlocal_in,
                "nonlocal_out": c.nonlocal_out,
                "nonlocal_delivered": ctx.nonlocal_delivered,
                "nonlocal_ttl_dropped": c.nonlocal_ttl_dropped,
                "nonlocal_queued": len(c.relay_queue),
                "unknown_dropped": c.unknown_dropped,
                "grant_renewals": c.grant_renewals,
            }
        cfg_hash = cfgmod.config_hash(self.cfg)
        return self.metrics.to_report(self.seed, cfg_hash, self.duration)


def stage1_with_extras(items, now, class_weights):
    """Stage-1 requests including control/retransmission demand.

    ``items`` holds (bearer, buffer, extra_bytes) triples; a non-zero extra
    forces a request even for an empty buffer and bumps its urgency.
    """
    requests = []
    for bearer, buffer, extra in items:
        sojourn = buffer.head_sojourn(now)
        urgency = sojourn / bearer.latency_budget
        if extra:
            urgency += 1.0  # control PDUs and retransmissions are urgent
        w = class_weights.get(bearer.qos_class, 1.0)
        req = sched.SchedulingRequest(
            bearer.id, bearer.ue, bearer.slice, buffer.bytes + extra,
            sojourn, w * urgency)
        requests.append(req)
    return requests


def subnet_controller_from_cfg(sn):
    from .subnet import SubnetworkController, SubnetworkDevice
    ctrl = SubnetworkController(
        sn["id"],
        autonomous_prbs=sn["autonomous_prbs"],
        local_bytes_per_prb=sn["local_bytes_per_prb"],
        nonlocal_ttl=sn["nonlocal_ttl_us"],
        parent_latency=sn["parent_latency_us"],
    )
    if sn["parent_ranf"] is not None:
        ctrl.attach(sn["parent_ranf"], sn["parent_ru"])
    for dev_id in sn["devices"]:
        ctrl.add_device(SubnetworkDevice(dev_id, sn["id"]))
    return ctrl


def run_scenario(cfg):
    """Build and run one scenario; returns the report dict."""
    return Runtime(cfg).run()
