import pytest

from ransim import config as cfgmod
from ransim import orchestrate as orch
from ransim import topology as topo
from ransim.core import ConfigError
from ransim.runtime import Runtime
from test_runtime import base_raw


def topo_with_edge(edge_latency=2_000):
    cell = topo.Site("cell-a", topo.ONPREM, cpu_capacity=100)
    edge = topo.Site("edge-1", topo.FAREDGE, cpu_capacity=100)
    cell.link_latency_to["edge-1"] = edge_latency
    ru = topo.RadioUnit("ru1", "cell-a", ["c1"], fronthaul_latency=50)
    return topo.Topology([cell, edge], [ru], [topo.Ranf("rf", "cell-a", {"ru1"})])


def base_plan():
    return topo.PlacementPlan([
        topo.FunctionInstance("rrm", topo.RRM, "cell-a"),
        topo.FunctionInstance("fhm", topo.FHM, "cell-a", bound_ru="ru1"),
        topo.FunctionInstance("cpr", topo.CP_ROUTING, "edge-1"),
        topo.FunctionInstance("phy0", topo.PHY, "cell-a", slice="base"),
        topo.FunctionInstance("rrc0", topo.RRC, "cell-a", slice="base"),
        topo.FunctionInstance("up0", topo.UP, "cell-a", slice="base"),
    ])


def test_admit_prefers_faredge_when_budget_allows():
    # Worst case: path (2ms*2 + 50) + TTI 500 + 4x2ms HARQ = 12.55 ms.
    plan = base_plan()
    out = orch.admit_slice(orch.SlaSpec("s1", 50_000), topo_with_edge(), plan)
    assert not isinstance(out, orch.Reject)
    assert all(i.site == "edge-1" for i in out if i.kind == topo.UP)


def test_admit_escalates_to_onprem_for_tight_budget():
    plan = base_plan()
    out = orch.admit_slice(orch.SlaSpec("s1", 10_000), topo_with_edge(), plan)
    assert not isinstance(out, orch.Reject)
    assert all(i.site == "cell-a" for i in out)


def test_admit_rejects_infeasible_budget_and_leaves_plan_unchanged():
    plan = base_plan()
    n = len(plan.instances)
    out = orch.admit_slice(orch.SlaSpec("s1", 1_000), topo_with_edge(), plan)
    assert isinstance(out, orch.Reject) and out.reason == "latency"
    assert len(plan.instances) == n


def test_admit_rejects_on_capacity():
    plan = base_plan()
    for inst in plan.instances:
        inst.cpu_load = 33.0
    t = topo_with_edge()
    t.sites["edge-1"].cpu_capacity = 1.0
    out = orch.admit_slice(
        orch.SlaSpec("s1", 50_000, cpu_load_per_instance=50.0), t, plan)
    assert isinstance(out, orch.Reject) and out.reason == "capacity"


def test_admit_rejects_a_placement_rule_violation_as_placement():
    """A plan without the cell's RRM breaks a placement rule at every
    candidate site: the slice is rejected for that, not for its budget."""
    raw = base_raw()
    raw["slices"] = [{"id": "II", "auto_place": True,
                      "latency_budget_us": 100_000}]
    raw["placement"] = [p for p in raw["placement"]
                        if p["id"] in ("fhm1", "cpr")]
    with pytest.raises(ConfigError, match=r"^slice II rejected \(placement\): "
                       r"site cell-a: missing RRM instance$"):
        Runtime(cfgmod.validate_scenario(raw))


def test_scaler_hysteresis():
    s = orch.Scaler(hysteresis=3)
    assert s.evaluate("up", True) == orch.SCALE_NONE
    assert s.evaluate("up", True) == orch.SCALE_NONE
    assert s.evaluate("up", True) == orch.SCALE_UP
    assert s.replicas["up"] == 2
    # An idle tick resets the count of busy ones.
    assert s.evaluate("up", True) == orch.SCALE_NONE
    assert s.evaluate("up", False) == orch.SCALE_NONE
    assert s.evaluate("up", True) == orch.SCALE_NONE
    # Scale down needs hysteresis too and never drops below one replica.
    for _ in range(3):
        action = s.evaluate("up", False)
    assert action == orch.SCALE_DOWN and s.replicas["up"] == 1
    for _ in range(6):
        assert s.evaluate("up", False) == orch.SCALE_NONE


def test_power_profile_ordering_enforced():
    with pytest.raises(ConfigError):
        orch.PowerProfile(active_w=1.0, idle_w=2.0, sleep_w=0.5)


def test_energy_meter_and_replay_oracle_agree():
    profile = orch.PowerProfile(10.0, 4.0, 1.0)
    meter = orch.EnergyMeter()
    meter.register("ru:x", profile, "Idle")
    meter.set_state("ru:x", "Active", 1_000_000)
    meter.set_state("ru:x", "Sleep", 3_000_000)
    meter.finalize(5_000_000)
    # 1s idle + 2s active + 2s sleep.
    assert meter.energy_j["ru:x"] == pytest.approx(4.0 + 20.0 + 2.0)
    replay = orch.replay_energy(meter.transitions, {"ru:x": profile}, 5_000_000)
    assert replay == meter.energy_j

