"""Unit tests for the random-graph generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    chung_lu_directed,
    chung_lu_undirected,
    gnm_random_directed,
    gnm_random_undirected,
    planted_dense_subgraph,
    planted_st_subgraph,
    powerlaw_weights,
)
from repro.graph.stats import powerlaw_exponent_estimate


class TestPowerlawWeights:
    def test_bounds_respected(self):
        weights = powerlaw_weights(5000, exponent=2.2, w_min=1.0, w_max=50.0, seed=0)
        assert weights.min() >= 1.0
        assert weights.max() <= 50.0

    def test_deterministic(self):
        a = powerlaw_weights(100, seed=3)
        b = powerlaw_weights(100, seed=3)
        assert np.array_equal(a, b)

    def test_empty(self):
        assert powerlaw_weights(0).size == 0

    def test_heavy_tail(self):
        weights = powerlaw_weights(20000, exponent=2.1, seed=1)
        # A power law has max far above the mean.
        assert weights.max() > 10 * weights.mean()


class TestGnm:
    def test_edge_count_close(self):
        g = gnm_random_undirected(100, 300, seed=0)
        assert g.num_edges == 300

    def test_deterministic(self):
        a = gnm_random_undirected(50, 100, seed=9)
        b = gnm_random_undirected(50, 100, seed=9)
        assert a == b

    def test_zero_edges(self):
        assert gnm_random_undirected(10, 0, seed=0).num_edges == 0

    def test_negative_rejected(self):
        with pytest.raises(GraphError):
            gnm_random_undirected(-1, 5)

    def test_directed_counts(self):
        d = gnm_random_directed(100, 400, seed=0)
        assert d.num_edges == 400
        assert d.num_vertices == 100


class TestChungLu:
    def test_undirected_target_edges(self):
        g = chung_lu_undirected(2000, 10000, seed=4)
        assert g.num_edges == 10000

    def test_degrees_heavy_tailed(self):
        g = chung_lu_undirected(5000, 30000, exponent=2.1, seed=5)
        alpha = powerlaw_exponent_estimate(g.degrees(), d_min=3)
        assert 1.4 < alpha < 3.5  # plausibly power-law

    def test_max_weight_caps_hubs(self):
        capped = chung_lu_undirected(5000, 30000, max_weight=30.0, seed=6)
        free = chung_lu_undirected(5000, 30000, max_weight=2000.0, seed=6)
        assert capped.max_degree() < free.max_degree()

    def test_directed_in_hub_heavier(self):
        d = chung_lu_directed(5000, 30000, out_exponent=2.6, in_exponent=2.0, seed=7)
        assert d.max_in_degree() > d.max_out_degree()


class TestPlanted:
    def test_planted_core_is_dense(self):
        graph, core = planted_dense_subgraph(
            500, 2000, core_size=20, core_probability=1.0, seed=8
        )
        sub, _ = graph.induced_subgraph(core)
        assert sub.num_edges == 20 * 19 // 2  # full clique at p=1.0

    def test_core_size_validation(self):
        with pytest.raises(GraphError):
            planted_dense_subgraph(10, 20, core_size=11)

    def test_planted_st_block_edges(self):
        graph, s, t = planted_st_subgraph(
            400, 1500, s_size=10, t_size=12, block_probability=1.0, seed=9
        )
        assert s.size == 10 and t.size == 12
        block = graph.st_induced_subgraph(s, t)
        assert block.num_edges >= 10 * 12  # all block pairs present

    def test_planted_st_validation(self):
        with pytest.raises(GraphError):
            planted_st_subgraph(10, 20, s_size=6, t_size=6)

    def test_planted_deterministic(self):
        a, sa = planted_dense_subgraph(300, 900, core_size=15, seed=10)
        b, sb = planted_dense_subgraph(300, 900, core_size=15, seed=10)
        assert a == b
        assert np.array_equal(sa, sb)


class TestPinnedFingerprints:
    """Generator output is pinned bit-for-bit at fixed seeds.

    The fingerprints were recorded while the generators deduplicated with
    ``np.unique(rows, axis=0)``; the combined-key ``unique_edge_rows``
    must yield the same lexicographic rows, so the ``rng.shuffle`` that
    follows draws the same permutation and the graphs stay identical.
    """

    PINS = {
        (chung_lu_undirected, 50, 120, 0): "dd95d2171cfb5c101b7468dfdfd42357",
        (chung_lu_undirected, 2000, 9000, 7): "8b9f573427454deb967092e13037787d",
        (chung_lu_undirected, 60000, 360000, 0): "50ef76693f83d06af32fae024cdfcd1f",
        (chung_lu_directed, 50, 120, 0): "a612ff204a255254c8520c65945c90f1",
        (chung_lu_directed, 2000, 9000, 7): "506bdc88c42a457fa67a0c20a567f03c",
        (chung_lu_directed, 60000, 360000, 0): "142bdf7020195c035f94114846643dfd",
        (gnm_random_undirected, 50, 120, 0): "1b4848f1671f8d51d44d295f4c0cc142",
        (gnm_random_undirected, 2000, 9000, 7): "9c1a92fd2bc79bedc7d3afdd71cc1274",
        (gnm_random_directed, 50, 120, 0): "7e776094d5255a3a5786890300df8fc4",
        (gnm_random_directed, 2000, 9000, 7): "5b3c01aa37a068db63ef346baef5bfe1",
    }

    @pytest.mark.parametrize(
        ("generator", "n", "m", "seed"), list(PINS), ids=lambda v: getattr(v, "__name__", str(v))
    )
    def test_fingerprint_unchanged(self, generator, n, m, seed):
        graph = generator(n, m, seed=seed)
        assert graph.fingerprint() == self.PINS[(generator, n, m, seed)]
