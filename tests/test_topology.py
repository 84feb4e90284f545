import pytest

from ransim import topology as topo
from test_config import assert_rejected, edited


def two_site_topology():
    cell = topo.Site("cell-a", topo.ONPREM)
    edge = topo.Site("edge-1", topo.FAREDGE)
    cell.link_latency_to["edge-1"] = 2000
    ru = topo.RadioUnit("ru1", "cell-a", ["c1"], fronthaul_latency=50)
    ranf = topo.Ranf("ranf-a", "cell-a", {"ru1"})
    return topo.Topology([cell, edge], [ru], [ranf])


def valid_plan():
    return topo.PlacementPlan([
        topo.FunctionInstance("rrm", topo.RRM, "cell-a"),
        topo.FunctionInstance("fhm", topo.FHM, "cell-a", bound_ru="ru1"),
        topo.FunctionInstance("cpr", topo.CP_ROUTING, "edge-1"),
        topo.FunctionInstance("rrc-i", topo.RRC, "cell-a", slice="I"),
        topo.FunctionInstance("up-i", topo.UP, "cell-a", slice="I"),
        topo.FunctionInstance("phy-i", topo.PHY, "cell-a", slice="I"),
    ])


def test_valid_plan_has_no_violations():
    assert topo.validate_placement(valid_plan(), two_site_topology()) == []


@pytest.mark.parametrize("kind,site,extra", [
    (topo.RRM, "edge-1", {}),               # RRM is OnPrem-only
    (topo.CP_ROUTING, "cell-a", {}),        # CpRouting is FarEdge-only
    (topo.FHM, "edge-1", {"bound_ru": "ru1"}),  # FHM is OnPrem-only
])
def test_wrong_site_kind_rejected(kind, site, extra):
    plan = valid_plan()
    plan.instances.append(
        topo.FunctionInstance("bad", kind, site, **extra))
    violations = topo.validate_placement(plan, two_site_topology())
    assert any("bad" in v for v in violations)


def test_sliced_kinds_need_slice_binding():
    plan = valid_plan()
    plan.instances.append(topo.FunctionInstance("bad-up", topo.UP, "cell-a"))
    violations = topo.validate_placement(plan, two_site_topology())
    assert any("bad-up" in v and "slice" in v for v in violations)


def test_missing_fhm_and_duplicate_fhm():
    plan = valid_plan()
    plan.instances = [i for i in plan.instances if i.kind != topo.FHM]
    violations = topo.validate_placement(plan, two_site_topology())
    assert any("missing FHM" in v for v in violations)

    plan2 = valid_plan()
    plan2.instances.append(
        topo.FunctionInstance("fhm2", topo.FHM, "cell-a", bound_ru="ru1"))
    violations = topo.validate_placement(plan2, two_site_topology())
    assert any("FHM instances" in v for v in violations)


def test_mandatory_onprem_phy_per_ru_site():
    plan = valid_plan()
    # Move the only PHY to the far edge: the RU site loses its mandatory PHY.
    plan.by_id["phy-i"].site = "edge-1"
    violations = topo.validate_placement(plan, two_site_topology())
    assert any("mandatory OnPrem PHY" in v for v in violations)


def test_slice_cardinalities():
    plan = valid_plan()
    plan.instances.append(
        topo.FunctionInstance("rrc-i-2", topo.RRC, "cell-a", slice="I"))
    violations = topo.validate_placement(plan, two_site_topology())
    assert any("exactly one RRC" in v for v in violations)

    plan2 = valid_plan()
    plan2.instances = [i for i in plan2.instances if i.id != "up-i"]
    violations = topo.validate_placement(plan2, two_site_topology())
    assert any("missing UP" in v for v in violations)


def test_capacity_check():
    t = two_site_topology()
    plan = valid_plan()
    plan.by_id["up-i"].cpu_load = 1000.0
    violations = topo.validate_placement(plan, t)
    assert any("exceeds capacity" in v for v in violations)


# The references and the topology rules of a scenario are checked by
# validate_scenario; Topology only makes links and neighbours symmetric.

def test_unknown_site_raises_config_error():
    assert_rejected(edited([(("placement", 0, "site"), "nowhere")]),
                    "placement[0].site")


def test_path_latency_oracle():
    t = two_site_topology()
    plan = valid_plan()
    # All functions on cell-a: only the fronthaul hop remains.
    assert topo.path_latency(plan, t, "I", "ru1") == 50
    # Move UP to the far edge: CN entry (cell-a) -> UP (edge) -> PHY (cell-a)
    # crosses the 2 ms link twice, plus fronthaul.
    plan.by_id["up-i"].site = "edge-1"
    assert topo.path_latency(plan, t, "I", "ru1") == 2000 + 2000 + 50


def test_asymmetric_link_rejected():
    """Two links between the same sites, in either order, must agree."""
    assert_rejected(edited([(("links", 1), {"a": "edge-1", "b": "cell-a",
                                            "latency_us": 1000})]),
                    "links[1].latency_us")


def test_ru_must_attach_onprem():
    assert_rejected(edited([(("rus", 0, "site"), "edge-1")]), "rus[0].site")


def test_ru_single_serving_ranf():
    assert_rejected(edited([(("ranfs", 1), {"id": "rf2", "site": "cell-a",
                                            "rus": ["ru1"]})]),
                    "ranfs[1].rus")


def test_links_and_neighbours_made_symmetric():
    t = two_site_topology()
    assert t.latency("edge-1", "cell-a") == 2000
    ranfs = [topo.Ranf("f1", "cell-a", {"ru1"}, {"f2"}),
             topo.Ranf("f2", "cell-a", set())]
    t = topo.Topology(list(t.sites.values()), list(t.rus.values()), ranfs)
    assert t.ranfs["f2"].neighbor_ranfs == {"f1"}


def test_migration_rejects_fixed_kinds_and_reverts_on_violation():
    t = two_site_topology()
    plan = valid_plan()
    out = topo.migrate_function(plan, t, plan.by_id["rrm"], t.sites["edge-1"], 0)
    assert not out.accepted

    # Moving the only PHY off the RU site violates the mandatory-PHY rule and
    # must leave the plan unchanged.
    out = topo.migrate_function(plan, t, plan.by_id["phy-i"], t.sites["edge-1"], 0)
    assert not out.accepted
    assert plan.by_id["phy-i"].site == "cell-a"

    out = topo.migrate_function(plan, t, plan.by_id["up-i"], t.sites["edge-1"], 0)
    assert out.accepted and out.downtime > 0
    assert plan.by_id["up-i"].site == "edge-1"

    # Same-site migration is a zero-downtime no-op.
    out = topo.migrate_function(plan, t, plan.by_id["up-i"], t.sites["edge-1"], 0)
    assert out.accepted and out.downtime == 0
