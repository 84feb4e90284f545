import pytest

from ransim import traffic as tra
from ransim.core import RngRegistry, US_PER_S


def make(**kw):
    defaults = dict(bearer_id="b")
    defaults.update(kw)
    return tra.TrafficSource(**defaults)


def rng():
    return RngRegistry(3).stream("traffic:b")


def test_cbr_gap_matches_rate():
    src = make(pattern=tra.CBR, nominal_rate=1_500_000, sdu_bytes=1500)
    t, sizes = src.next_emission(0, rng())
    assert sizes == [1500]
    assert t == 1500 * US_PER_S // 1_500_000  # 1000 us


def test_poisson_mean_gap():
    src = make(pattern=tra.POISSON, nominal_rate=1_000_000, sdu_bytes=1000)
    r = rng()
    gaps = []
    now = 0
    for _ in range(5000):
        t, _ = src.next_emission(now, r)
        gaps.append(t - now)
        now = t
    mean = sum(gaps) / len(gaps)
    assert mean == pytest.approx(1000, rel=0.1)


def test_periodic_burst_splits_into_sdus():
    src = make(pattern=tra.PERIODIC_BURST, burst_period=100_000,
               burst_bytes=3500, sdu_bytes=1500)
    t, sizes = src.next_emission(0, rng())
    assert t == 100_000 and sizes == [1500, 1500, 500]


def test_xr_frame_jitter_deterministic_per_seed():
    src1 = make(pattern=tra.XR_FRAME, fps=100, frame_bytes=3000,
                frame_jitter=0.1, sdu_bytes=1500)
    src2 = make(pattern=tra.XR_FRAME, fps=100, frame_bytes=3000,
                frame_jitter=0.1, sdu_bytes=1500)
    assert src1.next_emission(0, rng()) == src2.next_emission(0, rng())


def test_l4s_scales_with_mark_fraction():
    src = make(congestion_law=tra.L4S, nominal_rate=1000.0)
    tra.on_congestion_signal(src, 0.5, 100)
    assert src.rate == pytest.approx(750.0)  # rate * (1 - f/2)
    # Second signal inside the same RTT window is ignored.
    tra.on_congestion_signal(src, 1.0, 200)
    assert src.rate == pytest.approx(750.0)


def test_classic_halves_on_drop_echo():
    """A drop echo is a signal of fraction 1.0, which halves the rate to
    the bit, as dividing by two does."""
    src = make(congestion_law=tra.CLASSIC, nominal_rate=1000.0)
    tra.on_congestion_signal(src, 1.0, 100)
    assert src.rate == 500.0
    for rate in (1e6 / 3, 2.0 ** -1074, 1.7976931348623157e308, 123.456):
        src.rate, src._last_reaction = rate, -(10**12)
        assert tra.on_congestion_signal(src, 1.0, 100) == rate / 2.0


def test_recovery_additive_capped_at_nominal():
    src = make(congestion_law=tra.CLASSIC, nominal_rate=1000.0,
               recovery_step=0.3)
    src.rate = 500.0
    assert tra.recover_rate(src) == pytest.approx(800.0)
    assert tra.recover_rate(src) == pytest.approx(1000.0)
    assert tra.recover_rate(src) == pytest.approx(1000.0)

