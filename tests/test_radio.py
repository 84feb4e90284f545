from ransim import radio
from ransim.core import RngRegistry


def test_single_ru_uses_primary_only():
    bler = radio.BlerMap({("u", "r1", "c"): 1.0, ("u", "r2", "c"): 0.0})
    sset = radio.ServingSet("u", ["r1", "r2"], radio.SINGLE_RU)
    rng = RngRegistry(1).stream("link:u")
    assert not radio.transmit(sset, "c", bler, rng)


def test_joint_mode_succeeds_if_any_ru_succeeds():
    bler = radio.BlerMap({("u", "r1", "c"): 1.0, ("u", "r2", "c"): 0.0})
    sset = radio.ServingSet("u", ["r1", "r2"], radio.DMIMO_JOINT)
    rng = RngRegistry(1).stream("link:u")
    assert radio.transmit(sset, "c", bler, rng)


def test_joint_failure_is_product_of_blers():
    bler = radio.BlerMap(default=0.3)
    sset = radio.ServingSet("u", ["r1", "r2"], radio.DMIMO_JOINT)
    rng = RngRegistry(5).stream("link:u")
    n = 200_000
    fails = sum(1 for _ in range(n)
                if not radio.transmit(sset, "c", bler, rng))
    p = 0.3 * 0.3
    sigma = (p * (1 - p) / n) ** 0.5
    assert abs(fails / n - p) < 3 * sigma


def test_select_serving_set_filters_and_caps():
    blers = {"r1": 0.01, "r2": 0.05, "r3": 0.5}
    sset = radio.select_serving_set("u", ["r3", "r1", "r2"], blers.get, 0.1, 2,
                                    radio.DMIMO_JOINT)
    assert sset.rus == ["r1", "r2"] and sset.mode == radio.DMIMO_JOINT


def test_select_serving_set_falls_back_to_best_single():
    blers = {"r1": 0.4, "r2": 0.6}
    sset = radio.select_serving_set("u", ["r1", "r2"], blers.get, 0.1, 2)
    assert sset.rus == ["r1"] and sset.mode == radio.SINGLE_RU


def test_fronthaul_load_models():
    assert radio.fronthaul_load(radio.CENTRALIZED_BF, 1000) == 4000
    assert radio.fronthaul_load(radio.RU_LOCAL_BF, 1000) == 1064
    # Centralized beamforming costs more for large TBs, less for tiny ones.
    assert radio.fronthaul_load(radio.CENTRALIZED_BF, 10) < \
        radio.fronthaul_load(radio.RU_LOCAL_BF, 10)
