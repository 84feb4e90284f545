"""Orchestration: slice admission with automatic placement, hysteresis-based
scaling and power-state metering.  The policies a controller may apply
(``POLICY_PARAMS``) are carried out by the runtime: the last one applied
decides.
"""

from dataclasses import dataclass

from . import topology as topo
from .core import ConfigError

SCALE_UP = "ScaleUp"
SCALE_DOWN = "ScaleDown"
SCALE_NONE = "None"

ENERGY_SAVING = "EnergySaving"
MIN_SLICE_SHARE = "MinSliceShare"

# Policy directive -> the params keys it reads.
POLICY_PARAMS = {
    ENERGY_SAVING: {"on"},
    MIN_SLICE_SHARE: {"slice", "fraction"},
}


@dataclass
class SlaSpec:
    slice_id: str
    latency_budget: int  # tightest latency requirement, us
    cpu_load_per_instance: float = 1.0


def auto_instance_ids(slice_id):
    """Ids of the RRC, UP and PHY instances that ``admit_slice`` places."""
    return [f"slice-{slice_id}-{part}" for part in ("rrc", "up", "phy")]


@dataclass
class Reject:
    reason: str  # "placement", else "capacity", else "latency"
    detail: str = ""


def admit_slice(sla, topology, plan, *, tti=500, harq_max_tx=4, harq_rtt=2_000):
    """Place a new slice's RRC/UP/PHY, cheapest-first (FarEdge preferred).

    The conservative latency bound is path latency + one TTI of scheduling
    delay + worst-case HARQ (max_tx x RTT).  If the FarEdge placement misses
    the slice's tightest budget, functions escalate to OnPrem; if even
    all-OnPrem misses it (or capacity runs out) the slice is rejected and
    the plan is left unchanged.  Returns the new FunctionInstances or the
    last site's Reject: a broken rule, else capacity, else latency.
    """
    ids = auto_instance_ids(sla.slice_id)
    faredge = sorted(
        (s for s in topology.sites.values() if s.kind == topo.FAREDGE),
        key=lambda s: s.id,
    )
    # Every RU attaches to an OnPrem site, so there is at least one.
    onprem = sorted(
        (s for s in topology.sites.values() if s.kind == topo.ONPREM),
        key=lambda s: s.id,
    )
    candidates = []  # site choices for (RRC, UP, PHY), cheapest first
    if faredge:
        candidates.append(faredge[0])
    candidates.append(onprem[0])

    overhead = tti + harq_max_tx * harq_rtt
    for site in candidates:
        instances = [
            topo.FunctionInstance(iid, kind, site.id, slice=sla.slice_id,
                                  cpu_load=sla.cpu_load_per_instance)
            for iid, kind in zip(ids, (topo.RRC, topo.UP, topo.PHY))
        ]
        trial = topo.PlacementPlan(plan.instances + instances)
        rules = topo.rule_violations(trial, topology)
        over = topo.capacity_violations(trial, topology)
        if rules or over:
            reject = Reject("placement" if rules else "capacity",
                            "; ".join(rules + over))
            continue
        worst = 0
        for ru_id in topology.rus:
            lat = topo.path_latency(trial, topology, sla.slice_id, ru_id)
            worst = max(worst, lat + overhead)
        if worst <= sla.latency_budget:
            plan.instances.extend(instances)
            plan.by_id.update({i.id: i for i in instances})
            return instances
        reject = Reject("latency", f"worst-case latency {worst}us at "
                        f"{site.kind} exceeds budget {sla.latency_budget}us")
    return reject


class Scaler:
    """Replica scaling with consecutive-tick hysteresis: ``hysteresis`` busy
    ticks in a row add a replica, as many idle ticks remove one, and an
    instance never drops below one replica."""

    def __init__(self, hysteresis=3):
        self.hysteresis = hysteresis
        self._runs = {}  # instance -> (busy, ticks in a row of that kind)
        self.replicas = {}

    def evaluate(self, instance_id, busy):
        """One periodic tick; returns ScaleUp / ScaleDown / None."""
        replicas = self.replicas.setdefault(instance_id, 1)
        last, run = self._runs.get(instance_id, (busy, 0))
        run = run + 1 if last == busy else 1
        action = SCALE_NONE
        if run >= self.hysteresis and (busy or replicas > 1):
            run = 0
            self.replicas[instance_id] = replicas + (1 if busy else -1)
            action = SCALE_UP if busy else SCALE_DOWN
        self._runs[instance_id] = (busy, run)
        return action


@dataclass
class PowerProfile:
    active_w: float
    idle_w: float
    sleep_w: float
    wake_latency: int = 100  # us

    def __post_init__(self):
        if not (self.sleep_w < self.idle_w < self.active_w):
            raise ConfigError("power profile must satisfy sleep < idle < active")
        if self.wake_latency < 0:
            raise ConfigError("wake latency must be non-negative")

    def power(self, state):
        return {"Active": self.active_w, "Idle": self.idle_w,
                "Sleep": self.sleep_w}[state]


DEFAULT_POWER_PROFILES = {
    "RU": PowerProfile(20.0, 8.0, 1.0, wake_latency=100),
    topo.PHY: PowerProfile(15.0, 6.0, 1.0, wake_latency=100),
    topo.UP: PowerProfile(10.0, 4.0, 0.5, wake_latency=500),
    topo.RRC: PowerProfile(5.0, 2.0, 0.3, wake_latency=500),
    topo.RRM: PowerProfile(5.0, 2.0, 0.3, wake_latency=500),
    topo.CP_ROUTING: PowerProfile(3.0, 1.5, 0.2, wake_latency=500),
    topo.FHM: PowerProfile(4.0, 1.8, 0.2, wake_latency=100),
}


class EnergyMeter:
    """Integrates power x time per entity over its power states, and owns
    the choice of an entity's rest state: Sleep if energy saving is on and
    the entity may sleep, else Idle.  ``saving`` is set at build and by the
    ``EnergySaving`` policy.

    ``set_state`` is called only when the state changes, so the calls the
    benchmark traces as ``orchestrate.set_state`` count state changes.
    """

    def __init__(self, saving=False):
        self.saving = saving
        self._profile = {}
        self._state = {}
        self._since = {}
        self._sleepers = set()  # the entities that may sleep
        self.energy_j = {}
        self.wake_delays = 0

    def register(self, entity, profile, may_sleep):
        """Add ``entity``, Idle from time 0."""
        self._profile[entity] = profile
        self._state[entity] = "Idle"
        self._since[entity] = 0
        if may_sleep:
            self._sleepers.add(entity)
        self.energy_j[entity] = 0.0

    def state(self, entity):
        return self._state[entity]

    def wake(self, entity, now):
        """Set ``entity`` Active; returns its wake latency if it was asleep,
        counted in ``wake_delays``, else 0."""
        state = self._state[entity]
        if state == "Active":
            return 0
        self.set_state(entity, "Active", now)
        if state != "Sleep":
            return 0
        self.wake_delays += 1
        return self._profile[entity].wake_latency

    def rest(self, entity, now):
        """Put ``entity`` at rest: Sleep if saving is on and it may sleep,
        else Idle."""
        state = "Sleep" if self.saving and entity in self._sleepers \
            else "Idle"
        if self._state[entity] != state:
            self.set_state(entity, state, now)

    def set_state(self, entity, state, now):
        """One transition: every caller checks that ``state`` differs."""
        self._accumulate(entity, now)
        self._state[entity] = state

    def _accumulate(self, entity, now):
        dt = now - self._since[entity]
        if dt > 0:
            power = self._profile[entity].power(self._state[entity])
            self.energy_j[entity] += power * dt / 1e6
        self._since[entity] = now

    def finalize(self, now):
        for entity in self._state:
            self._accumulate(entity, now)
