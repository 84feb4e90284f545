"""Sites, radio units, RANFs and per-function placement rules.

Function kinds and where they may run:

    RRM        OnPrem only, one per OnPrem site with RUs (site ~ cell area)
    RRC        OnPrem or FarEdge, exactly one per slice
    CpRouting  FarEdge only
    UP         OnPrem or FarEdge, at least one per slice
    PHY        OnPrem or FarEdge per slice, plus one mandatory OnPrem PHY
               per site with RUs (sync / broadcast / access work)
    FHM        OnPrem only, exactly one per RU
"""

from dataclasses import dataclass, field

from .core import ConfigError

ONPREM = "OnPrem"
FAREDGE = "FarEdge"

RRM = "RRM"
RRC = "RRC"
CP_ROUTING = "CpRouting"
UP = "UP"
PHY = "PHY"
FHM = "FHM"

FUNCTION_KINDS = (RRM, RRC, CP_ROUTING, UP, PHY, FHM)

# Which kinds carry a slice binding.
SLICED_KINDS = (RRC, UP, PHY)
UNSLICED_KINDS = (RRM, CP_ROUTING, FHM)

# Placement rule table: kind -> set of allowed site kinds.  Total by design.
ALLOWED_SITE_KINDS = {
    RRM: {ONPREM},
    RRC: {ONPREM, FAREDGE},
    CP_ROUTING: {FAREDGE},
    UP: {ONPREM, FAREDGE},
    PHY: {ONPREM, FAREDGE},
    FHM: {ONPREM},
}


@dataclass
class Site:
    id: str
    kind: str  # OnPrem | FarEdge
    cpu_capacity: float = 100.0
    link_latency_to: dict = field(default_factory=dict)  # site id -> one-way us


@dataclass
class RadioUnit:
    id: str
    attached_site: str  # must be an OnPrem site
    carriers: list = field(default_factory=list)
    fronthaul_latency: int = 50  # us


@dataclass
class Ranf:
    id: str
    site: str  # OnPrem site hosting this RANF
    serving_rus: set = field(default_factory=set)
    neighbor_ranfs: set = field(default_factory=set)


@dataclass
class FunctionInstance:
    id: str
    kind: str
    site: str
    slice: str = None
    bound_ru: str = None  # FHM only
    cpu_load: float = 0.0


class Topology:
    """Site/RU/RANF graph with symmetric one-way link latencies; links and
    neighbour relations given one way are added the other way."""

    def __init__(self, sites, rus, ranfs):
        self.sites = {s.id: s for s in sites}
        self.rus = {r.id: r for r in rus}
        self.ranfs = {r.id: r for r in ranfs}
        for s in self.sites.values():
            for other, lat in s.link_latency_to.items():
                self.sites[other].link_latency_to[s.id] = lat
        for rf in self.ranfs.values():
            for nb in rf.neighbor_ranfs:
                self.ranfs[nb].neighbor_ranfs.add(rf.id)

    def latency(self, a, b):
        """One-way latency in us between two sites; zero within a site.  The
        pairs a run joins depend on placement, migrations and handovers, so
        this lookup is the check that a link exists."""
        if a == b:
            return 0
        lat = self.sites[a].link_latency_to.get(b)
        if lat is None:
            raise ConfigError(f"no link between sites {a} and {b}: "
                              f"add one to scenario.links")
        return lat


class PlacementPlan:
    """A set of placed function instances for the whole deployment."""

    def __init__(self, instances):
        self.instances = list(instances)
        self.by_id = {i.id: i for i in self.instances}

    def of_kind(self, kind, slice_id=None):
        return [
            i
            for i in self.instances
            if i.kind == kind and (slice_id is None or i.slice == slice_id)
        ]

    def slices(self):
        return sorted({i.slice for i in self.instances if i.slice is not None})

    def fhm_for_ru(self, ru_id):
        for i in self.instances:
            if i.kind == FHM and i.bound_ru == ru_id:
                return i
        return None


def validate_placement(plan, topology, slices=None):
    """Every placement-rule and capacity violation (empty means valid)."""
    return (rule_violations(plan, topology, slices)
            + capacity_violations(plan, topology))


def rule_violations(plan, topology, slices=None):
    """Every violation of the placement rules in the module docstring.
    Every instance's site and kind must exist (``validate_scenario`` checks
    them for a scenario)."""
    violations = []
    if slices is None:
        slices = plan.slices()

    for inst in plan.instances:
        site = topology.sites[inst.site]
        if site.kind not in ALLOWED_SITE_KINDS[inst.kind]:
            allowed = "/".join(sorted(ALLOWED_SITE_KINDS[inst.kind]))
            violations.append(
                f"{inst.id}: {inst.kind} must be {allowed}, found at "
                f"{site.kind} site {site.id}"
            )
        if inst.kind in SLICED_KINDS and inst.slice is None:
            violations.append(f"{inst.id}: {inst.kind} requires a slice binding")
        if inst.kind in UNSLICED_KINDS and inst.slice is not None:
            violations.append(f"{inst.id}: {inst.kind} must not be slice-bound")
        if inst.kind == FHM and inst.bound_ru is None:
            violations.append(f"{inst.id}: FHM must bind exactly one RU")

    # One FHM per RU.
    for ru_id in topology.rus:
        fhms = [i for i in plan.instances if i.kind == FHM and i.bound_ru == ru_id]
        if len(fhms) == 0:
            violations.append(f"RU {ru_id}: missing FHM instance")
        elif len(fhms) > 1:
            violations.append(f"RU {ru_id}: {len(fhms)} FHM instances, expected 1")

    # Per cell (OnPrem site with RUs): one RRM and one OnPrem PHY for
    # sync/broadcast/access.
    sites_with_rus = {topology.rus[r].attached_site for r in topology.rus}
    for site_id in sorted(sites_with_rus):
        rrms = [i for i in plan.instances if i.kind == RRM and i.site == site_id]
        if not rrms:
            violations.append(f"site {site_id}: missing RRM instance")
        phys = [i for i in plan.instances if i.kind == PHY and i.site == site_id]
        if not phys:
            violations.append(
                f"site {site_id}: missing mandatory OnPrem PHY (sync/broadcast/access)"
            )

    # Per slice: exactly one RRC, >=1 UP, >=1 PHY.
    for sl in slices:
        rrcs = plan.of_kind(RRC, sl)
        if len(rrcs) != 1:
            violations.append(f"slice {sl}: needs exactly one RRC, found {len(rrcs)}")
        if not plan.of_kind(UP, sl):
            violations.append(f"slice {sl}: missing UP instance")
        if not plan.of_kind(PHY, sl):
            violations.append(f"slice {sl}: missing PHY instance")

    # CP-Routing must exist when the deployment has a FarEdge cloud.
    if any(s.kind == FAREDGE for s in topology.sites.values()):
        if not plan.of_kind(CP_ROUTING):
            violations.append("deployment: missing CpRouting instance on FarEdge")
    return violations


def capacity_violations(plan, topology):
    """Every site whose summed ``cpu_load`` exceeds its capacity."""
    violations = []
    load = {}
    for inst in plan.instances:
        load[inst.site] = load.get(inst.site, 0.0) + inst.cpu_load
    for site_id, total in sorted(load.items()):
        cap = topology.sites[site_id].cpu_capacity
        if total > cap:
            violations.append(
                f"site {site_id}: cpu load {total} exceeds capacity {cap}"
            )
    return violations


def path_latency(plan, topology, slice_id, ru_id, cn_entry_site=None):
    """One-way user-plane latency along CN-entry -> UP -> PHY -> FHM -> RU.

    UL traverses the same chain in reverse; links are symmetric so the value
    is identical.  Fronthaul latency of the RU is always included.
    ``ru_id`` must be an RU of ``topology`` and ``plan`` one that
    ``validate_placement`` accepts, so every hop exists.
    """
    ru = topology.rus[ru_id]
    up = plan.of_kind(UP, slice_id)[0]
    phy = plan.of_kind(PHY, slice_id)[0]
    if cn_entry_site is None:
        cn_entry_site = ru.attached_site
    hops = [(cn_entry_site, up.site), (up.site, phy.site),
            (phy.site, plan.fhm_for_ru(ru_id).site)]
    return sum(topology.latency(a, b) for a, b in hops) + ru.fronthaul_latency


MIGRATABLE_KINDS = (RRC, UP, PHY, CP_ROUTING)


@dataclass
class MigrationOutcome:
    instance: str
    src: str
    dst: str
    at: int
    downtime: int
    accepted: bool
    reason: str = ""


def migrate_function(plan, topology, instance, target_site, now, downtime=10_000):
    """Move an instance to another site if the plan still validates.

    Returns a MigrationOutcome; on rejection the plan is unchanged.  The
    caller is responsible for honoring the downtime window (ingress queues
    during it).  Migrating to the current site is a zero-downtime no-op.
    """
    if instance.kind not in MIGRATABLE_KINDS:
        return MigrationOutcome(
            instance.id, instance.site, target_site.id, now, 0, False,
            f"{instance.kind} placement is fixed",
        )
    if instance.site == target_site.id:
        return MigrationOutcome(
            instance.id, instance.site, target_site.id, now, 0, True, "no-op"
        )
    old_site = instance.site
    instance.site = target_site.id
    violations = validate_placement(plan, topology)
    if violations:
        instance.site = old_site
        return MigrationOutcome(
            instance.id, old_site, target_site.id, now, 0, False,
            "; ".join(violations),
        )
    return MigrationOutcome(instance.id, old_site, target_site.id, now, downtime, True)
