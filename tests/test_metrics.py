import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ransim.metrics import latency_percentiles


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 10_000_000), min_size=1, max_size=300))
def test_latency_percentiles_match_numpy(latencies):
    arr = np.asarray(latencies, dtype=np.int64)
    expected = np.percentile(arr, [50, 99]).astype(int).tolist() \
        + [int(arr.max())]
    assert latency_percentiles(latencies) == expected


def test_latency_percentiles_interpolate_between_neighbours():
    # numpy "linear": p50 of [10, 20] is 15; p99 of 0..100 step 1 is 99.
    assert latency_percentiles([20, 10]) == [15, 19, 20]
    assert latency_percentiles(list(range(101))) == [50, 99, 100]
    assert latency_percentiles([7]) == [7, 7, 7]
    # With gamma >= 0.5 numpy interpolates down from the upper neighbour:
    # 225 - 225 * (1 - 0.92) is 207.0, while 0 + 225 * 0.92 truncates to 206.
    assert latency_percentiles([0] * 8 + [225]) == [0, 207, 225]
