from ransim import radio
from ransim.core import RngRegistry


def test_a_tb_draws_only_its_carrying_rus():
    bler = radio.BlerMap({("u", "r1", "c"): 1.0, ("u", "r2", "c"): 0.0})
    rng = RngRegistry(1).stream("link:u")
    assert not radio.transmit("u", ["r1"], "c", bler, rng)
    assert radio.transmit("u", ["r2"], "c", bler, rng)


def test_joint_mode_succeeds_if_any_ru_succeeds():
    bler = radio.BlerMap({("u", "r1", "c"): 1.0, ("u", "r2", "c"): 0.0})
    rng = RngRegistry(1).stream("link:u")
    assert radio.transmit("u", ["r1", "r2"], "c", bler, rng)


def test_joint_failure_is_product_of_blers():
    bler = radio.BlerMap(default=0.3)
    rng = RngRegistry(5).stream("link:u")
    n = 200_000
    fails = sum(1 for _ in range(n)
                if not radio.transmit("u", ["r1", "r2"], "c", bler, rng))
    p = 0.3 * 0.3
    sigma = (p * (1 - p) / n) ** 0.5
    assert abs(fails / n - p) < 3 * sigma


def test_select_serving_set_filters_and_caps():
    blers = {"r1": 0.01, "r2": 0.05, "r3": 0.5}
    assert radio.select_serving_set(["r3", "r1", "r2"], blers.get, 0.1, 2) \
        == ["r1", "r2"]


def test_select_serving_set_falls_back_to_best_single():
    blers = {"r1": 0.4, "r2": 0.6}
    assert radio.select_serving_set(["r1", "r2"], blers.get, 0.1, 2) == ["r1"]


def test_fronthaul_load_models():
    assert radio.fronthaul_load(radio.CENTRALIZED_BF, 1000) == 4000
    assert radio.fronthaul_load(radio.RU_LOCAL_BF, 1000) == 1064
    # Centralized beamforming costs more for large TBs, less for tiny ones.
    assert radio.fronthaul_load(radio.CENTRALIZED_BF, 10) < \
        radio.fronthaul_load(radio.RU_LOCAL_BF, 10)
