"""Perf benches: the "large video databases" query-path claim.

The sorted (columnar) index answers Eq. 7-8 queries in O(log n +
band); the table scan is O(n).  Measured at 100k indexed shots — roughly a thousand
feature films' worth — plus the key-frame histogram baseline's cost on
the same corpus size, substantiating the paper's cost-effectiveness
argument (2 floats/shot vs 3*bins floats/shot).
"""

import numpy as np
import pytest

from repro.features.vector import FeatureVector
from repro.index.columnar import ColumnarVarianceIndex
from repro.index.query import VarianceQuery, search
from repro.index.table import IndexEntry, IndexTable

N_SHOTS = 100_000


@pytest.fixture(scope="module")
def big_entries():
    rng = np.random.default_rng(42)
    var_ba = rng.uniform(0, 500, N_SHOTS)
    var_oa = rng.uniform(0, 500, N_SHOTS)
    return [
        IndexEntry(
            video_id=f"movie-{k % 997}",
            shot_number=k,
            start_frame=1,
            end_frame=10,
            features=FeatureVector(var_ba=float(ba), var_oa=float(oa)),
        )
        for k, (ba, oa) in enumerate(zip(var_ba, var_oa))
    ]


@pytest.fixture(scope="module")
def big_sorted_index(big_entries):
    return ColumnarVarianceIndex(big_entries)


@pytest.fixture(scope="module")
def big_table(big_entries):
    return IndexTable(big_entries)


_QUERY = VarianceQuery(var_ba=144.0, var_oa=64.0)


def bench_sorted_index_query_100k(benchmark, big_sorted_index):
    matches = benchmark(big_sorted_index.search, _QUERY)
    assert len(matches) > 0


def bench_table_scan_query_100k(benchmark, big_table):
    matches = benchmark(search, big_table, _QUERY)
    assert len(matches) > 0


def bench_sorted_vs_scan_agree(benchmark, big_sorted_index, big_table):
    """Correctness under load: both paths return the same shot set."""

    def both():
        fast = big_sorted_index.search(_QUERY)
        slow = search(big_table, _QUERY)
        return fast, slow

    fast, slow = benchmark.pedantic(both, rounds=1, iterations=1)
    assert [(e.video_id, e.shot_number) for e in fast] == [
        (e.video_id, e.shot_number) for e in slow
    ]


def bench_index_build_100k(benchmark, big_entries):
    index = benchmark.pedantic(
        ColumnarVarianceIndex, args=(big_entries,), rounds=1, iterations=1
    )
    assert len(index) == N_SHOTS


def bench_feature_storage_cost(benchmark):
    """Bytes per shot: variance index vs key-frame histograms."""
    from repro.baselines.keyframe import KeyframeHistogramIndex

    def measure():
        variance_floats = 2
        histogram_floats = KeyframeHistogramIndex(bins=16).floats_per_shot
        return variance_floats, histogram_floats

    variance_floats, histogram_floats = benchmark(measure)
    assert histogram_floats / variance_floats == 24.0
    benchmark.extra_info["floats_per_shot"] = {
        "variance_index": variance_floats,
        "keyframe_histogram": histogram_floats,
    }


def bench_grid_index_query_100k(benchmark, big_entries):
    """The paper's quantized-data alternative at the same corpus size."""
    from repro.index.grid import QuantizedGridIndex

    grid = QuantizedGridIndex(big_entries)
    matches = benchmark(grid.search, _QUERY)
    assert len(matches) > 0
    benchmark.extra_info["occupied_cells"] = grid.n_cells


def bench_grid_vs_sorted_agree(benchmark, big_entries, big_sorted_index):
    """All three query paths return the same shot set at scale."""
    from repro.index.grid import QuantizedGridIndex

    grid = QuantizedGridIndex(big_entries)

    def both():
        return grid.search(_QUERY), big_sorted_index.search(_QUERY)

    via_grid, via_sorted = benchmark.pedantic(both, rounds=1, iterations=1)
    assert [(e.video_id, e.shot_number) for e in via_grid] == [
        (e.video_id, e.shot_number) for e in via_sorted
    ]
