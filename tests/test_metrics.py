import collections

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ransim.metrics import latency_percentiles

LATENCIES = st.lists(st.integers(0, 10_000_000), min_size=1, max_size=300)
# Few distinct values, so that most histogram entries count several SDUs.
REPEATED = st.lists(st.integers(0, 20), min_size=1, max_size=300)


def numpy_percentiles(latencies):
    arr = np.asarray(latencies, dtype=np.int64)
    return np.percentile(arr, [50, 99]).astype(int).tolist() \
        + [int(arr.max())]


def sorted_list_percentiles(latencies):
    """The reading of a sorted list of every latency, as each bearer kept
    it before the histogram: numpy's "linear" method by index."""
    lat = sorted(latencies)
    last = len(lat) - 1
    out = []
    for q in (0.5, 0.99):
        v = last * q
        i = int(v)
        g = v - i
        a, b = lat[i], lat[min(i + 1, last)]
        out.append(int(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)))
    return out + [lat[last]]


@settings(max_examples=300, deadline=None)
@given(LATENCIES)
def test_latency_percentiles_match_numpy(latencies):
    counts = collections.Counter(latencies)
    assert latency_percentiles(counts) == sorted_list_percentiles(latencies) \
        == numpy_percentiles(latencies)


@settings(max_examples=300, deadline=None)
@given(REPEATED)
def test_histogram_percentiles_with_repeated_latencies(latencies):
    counts = collections.Counter(latencies)
    assert latency_percentiles(counts) == sorted_list_percentiles(latencies) \
        == numpy_percentiles(latencies)


def test_latency_percentiles_interpolate_between_neighbours():
    def pct(latencies):
        return latency_percentiles(collections.Counter(latencies))
    # numpy "linear": p50 of [10, 20] is 15; p99 of 0..100 step 1 is 99.
    assert pct([20, 10]) == [15, 19, 20]
    assert pct(list(range(101))) == [50, 99, 100]
    assert pct([7]) == [7, 7, 7]
    # With gamma >= 0.5 numpy interpolates down from the upper neighbour:
    # 225 - 225 * (1 - 0.92) is 207.0, while 0 + 225 * 0.92 truncates to 206.
    assert pct([0] * 8 + [225]) == [0, 207, 225]
