"""Hash-free integer dedup: ``sorted_unique`` / ``unique_edge_rows``.

Both helpers replace ``np.unique`` on the ingest and peeling paths, so
they must return exactly what ``np.unique`` returned: same values, same
order, same dtype.  The PWC cascade's mark-array candidate set is
checked against the ``unique(...)[alive]`` formula it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.winduced import _touched_alive_edges
from repro.graph import gnm_random_directed
from repro.store import sorted_unique, unique_edge_rows
from repro.store.csr import _COMBINED_KEY_MAX_VERTICES

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32, np.uint64]


class TestSortedUnique:
    @settings(max_examples=150, deadline=None)
    @given(
        hnp.arrays(
            dtype=st.sampled_from(INT_DTYPES),
            shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40),
        )
    )
    def test_matches_np_unique(self, values):
        got = sorted_unique(values)
        expected = np.unique(values)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-5, 5), min_size=0, max_size=300),
        st.sampled_from([np.int32, np.int64]),
    )
    def test_duplicate_heavy_and_negative(self, values, dtype):
        arr = np.asarray(values, dtype=dtype)
        got = sorted_unique(arr)
        assert got.dtype == dtype
        assert got.tolist() == sorted(set(values))

    def test_empty_keeps_dtype(self):
        for dtype in (np.int32, np.int64):
            got = sorted_unique(np.empty(0, dtype=dtype))
            assert got.dtype == dtype and got.size == 0

    def test_int32_narrowed_input(self):
        arr = np.array([2**31 - 1, -(2**31), 0, 2**31 - 1], dtype=np.int32)
        assert sorted_unique(arr).tolist() == [-(2**31), 0, 2**31 - 1]

    def test_input_not_mutated(self):
        arr = np.array([3, 1, 3, 2])
        sorted_unique(arr)
        assert arr.tolist() == [3, 1, 3, 2]

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            sorted_unique(np.array([1.0, np.nan]))


class TestUniqueEdgeRows:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 30).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    max_size=120,
                ),
            )
        )
    )
    def test_matches_np_unique_axis0(self, case):
        n, pairs = case
        rows = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        got = unique_edge_rows(rows[:, 0], rows[:, 1], n)
        expected = np.unique(rows, axis=0)
        assert got.dtype == np.int64 and got.shape[1] == 2
        np.testing.assert_array_equal(got, expected)

    def test_empty(self):
        got = unique_edge_rows(np.empty(0, np.int64), np.empty(0, np.int64), 0)
        assert got.shape == (0, 2) and got.dtype == np.int64

    def test_fallback_above_combined_key_guard(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 50, size=(200, 2))
        n = _COMBINED_KEY_MAX_VERTICES + 1
        got = unique_edge_rows(rows[:, 0], rows[:, 1], n)
        expected = np.unique(rows, axis=0)
        np.testing.assert_array_equal(got, expected)


def _touched_reference(graph, alive, touched_src, touched_dst):
    """The formula ``_touched_alive_edges`` replaced: unique, then filter."""
    out_ids = [
        graph.out_edge_ids[graph.out_indptr[u]:graph.out_indptr[u + 1]]
        for u in touched_src
    ]
    in_ids = [
        graph.in_edge_ids[graph.in_indptr[v]:graph.in_indptr[v + 1]]
        for v in touched_dst
    ]
    ids = np.concatenate(out_ids + in_ids + [np.empty(0, dtype=np.int64)])
    candidates = np.unique(ids.astype(np.int64))
    return candidates[alive[candidates]]


class TestTouchedAliveEdges:
    @pytest.mark.parametrize("seed", range(8))
    def test_mark_array_equals_unique_filter(self, seed):
        rng = np.random.default_rng(seed)
        graph = gnm_random_directed(80, 600, seed=seed)
        alive = rng.random(graph.num_edges) < 0.6
        dead = np.flatnonzero(~alive)[: rng.integers(1, 40)]
        touched_src = sorted_unique(graph.edge_src[dead])
        touched_dst = sorted_unique(graph.edge_dst[dead])
        got = _touched_alive_edges(graph, alive, touched_src, touched_dst)
        expected = _touched_reference(graph, alive, touched_src, touched_dst)
        np.testing.assert_array_equal(got, expected)

    def test_nothing_touched(self):
        graph = gnm_random_directed(20, 60, seed=1)
        alive = np.ones(graph.num_edges, dtype=bool)
        empty = np.empty(0, dtype=np.int64)
        assert _touched_alive_edges(graph, alive, empty, empty).size == 0
