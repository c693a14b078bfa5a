"""DsdServer behaviour: coalescing, batching, admission, caching, reports.

Everything here runs on tiny explicit graph tables (no registry loads)
and, where timing matters, a fake injectable clock — so the suite is
fast and fully deterministic under any backend.
"""

import numpy as np
import pytest

from repro.engine import ExecutionContext, resolve_solver
from repro.engine import run as engine_run
from repro.errors import AlgorithmError, DatasetError, ServeRejected
from repro.graph import chung_lu_undirected
from repro.serve import DsdServer, Query, TenantQuotas, build_query_mix
from repro.store.memo import enable_default_cache, disable_default_cache


class FakeClock:
    """Monotonic clock advanced explicitly by the test."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def graphs():
    return {
        "alpha": chung_lu_undirected(200, 600, seed=21),
        "beta": chung_lu_undirected(250, 800, seed=22),
    }


def make_server(graphs, **kwargs):
    kwargs.setdefault("clock", FakeClock())
    return DsdServer(graphs=graphs, **kwargs)


def assert_bit_identical(result, expected):
    assert np.array_equal(result.vertices, expected.vertices)
    assert result.density == expected.density  # repro-lint: disable=R004 (bit-identity is the contract under test)
    assert result.iterations == expected.iterations


class TestSingleFlight:
    def test_n_identical_queries_one_solver_run(self, graphs):
        server = make_server(graphs)
        responses = server.serve([Query("alpha", "pkmc")] * 5)
        assert server.stats.solver_runs == 1
        assert server.stats.coalesced_queries == 4
        assert len(responses) == 5
        expected = engine_run("pkmc", graphs["alpha"], ExecutionContext())
        for response in responses:
            assert response.ok
            assert response.coalesced == 5
            assert_bit_identical(response.result, expected)

    def test_followers_get_independent_clones(self, graphs):
        server = make_server(graphs)
        first, second = server.serve([Query("alpha", "pkmc")] * 2)
        assert first.result is not second.result
        second.result.vertices[0] = -1
        assert first.result.vertices[0] != -1

    def test_different_params_never_coalesce(self, graphs):
        server = make_server(graphs)
        server.serve(
            [
                Query("alpha", "greedypp", params={"num_rounds": 2}),
                Query("alpha", "greedypp", params={"num_rounds": 3}),
            ]
        )
        assert server.stats.solver_runs == 2
        assert server.stats.coalesced_queries == 0

    def test_different_tenants_same_work_coalesce(self, graphs):
        server = make_server(graphs)
        responses = server.serve(
            [Query("alpha", "pkmc", tenant="a"), Query("alpha", "pkmc", tenant="b")]
        )
        assert server.stats.solver_runs == 1
        assert all(r.coalesced == 2 for r in responses)

    def test_uncacheable_params_get_unique_flight_keys(self, graphs):
        server = make_server(graphs)
        spec = resolve_solver("greedypp", graphs["alpha"])
        query = Query("alpha", "greedypp", params={"num_rounds": {"odd": 2}})
        first = server._flight_key(graphs["alpha"], spec, query, 0)
        second = server._flight_key(graphs["alpha"], spec, query, 1)
        assert first[0] == "__uncacheable__"
        assert first != second


class TestBatching:
    def test_flights_batched_per_graph(self, graphs):
        server = make_server(graphs, num_workers=2)
        responses = server.serve(
            [
                Query("alpha", "pkmc"),
                Query("beta", "pkmc"),
                Query("alpha", "charikar"),
                Query("beta", "pkmc"),
            ]
        )
        assert server.stats.batches == 2
        alpha = [r for r in responses if r.query.dataset == "alpha"]
        beta = [r for r in responses if r.query.dataset == "beta"]
        # Batch size counts queries (not flights) sharing the graph.
        assert all(r.batch_size == 2 for r in alpha)
        assert all(r.batch_size == 2 for r in beta)
        # One simulated worker per batch, round-robin.
        assert {r.worker_id for r in alpha} == {0}
        assert {r.worker_id for r in beta} == {1}

    def test_empty_drain_is_a_noop(self, graphs):
        server = make_server(graphs)
        assert server.drain() == []
        assert server.stats.batches == 0


class TestAdmissionControl:
    def test_queue_full_sheds_later_submissions(self, graphs):
        server = make_server(graphs, max_queue_depth=2)
        server.submit(Query("alpha", "pkmc"))
        server.submit(Query("alpha", "charikar"))
        with pytest.raises(ServeRejected) as exc_info:
            server.submit(Query("beta", "pkmc"))
        assert exc_info.value.reason == "queue_full"
        assert exc_info.value.retry_after_s == 0.0
        # FIFO shedding: the earlier submissions keep their slots.
        responses = server.drain()
        assert [r.query.solver for r in responses] == ["pkmc", "charikar"]
        assert server.stats.rejected_queue_full == 1
        assert server.stats.accepted == 2

    def test_queue_frees_after_drain(self, graphs):
        server = make_server(graphs, max_queue_depth=1)
        server.submit(Query("alpha", "pkmc"))
        server.drain()
        server.submit(Query("alpha", "pkmc"))  # must not raise
        assert server.queue_depth == 1

    def test_quota_exhaustion_has_retry_after(self, graphs):
        clock = FakeClock()
        server = make_server(
            graphs, clock=clock, quotas=TenantQuotas(rate=1.0, burst=2)
        )
        server.submit(Query("alpha", "pkmc"))
        server.submit(Query("alpha", "pkmc"))
        with pytest.raises(ServeRejected) as exc_info:
            server.submit(Query("alpha", "pkmc"))
        assert exc_info.value.reason == "quota"
        assert exc_info.value.retry_after_s == pytest.approx(1.0)
        assert server.stats.rejected_quota == 1
        # The advertised retry-after is honest: admission succeeds then.
        clock.advance(1.0)
        server.submit(Query("alpha", "pkmc"))
        assert server.stats.accepted == 3

    def test_quotas_are_per_tenant(self, graphs):
        server = make_server(graphs, quotas=TenantQuotas(rate=1.0, burst=1))
        server.submit(Query("alpha", "pkmc", tenant="a"))
        with pytest.raises(ServeRejected):
            server.submit(Query("alpha", "pkmc", tenant="a"))
        server.submit(Query("alpha", "pkmc", tenant="b"))  # unaffected

    def test_shed_queries_never_spend_quota_tokens(self, graphs):
        server = make_server(
            graphs, max_queue_depth=1, quotas=TenantQuotas(rate=1.0, burst=1)
        )
        server.submit(Query("alpha", "pkmc"))
        # Queue is full: this rejection must not charge the bucket.
        with pytest.raises(ServeRejected, match="queue_full"):
            server.submit(Query("alpha", "pkmc"))
        server.drain()
        with pytest.raises(ServeRejected, match="quota"):
            server.submit(Query("alpha", "pkmc"))

    def test_peak_queue_depth_is_tracked(self, graphs):
        server = make_server(graphs, max_queue_depth=8)
        for _ in range(3):
            server.submit(Query("alpha", "pkmc"))
        server.drain()
        server.submit(Query("alpha", "pkmc"))
        assert server.stats.peak_queue_depth == 3

    def test_serve_turns_rejections_into_responses_in_order(self, graphs):
        server = make_server(graphs, max_queue_depth=2)
        queries = [Query("alpha", "pkmc")] * 4
        responses = server.serve(queries)
        assert [r.ok for r in responses] == [True, True, False, False]
        shed = responses[2]
        assert shed.status == "rejected"
        assert shed.reason == "queue_full"
        assert shed.retry_after_s == 0.0
        assert shed.result is None


class TestValidation:
    def test_unknown_dataset_is_a_dataset_error(self, graphs):
        server = make_server(graphs)
        with pytest.raises(DatasetError):
            server.submit(Query("no-such-graph", "pkmc"))

    def test_unknown_solver_is_an_algorithm_error(self, graphs):
        server = make_server(graphs)
        with pytest.raises(AlgorithmError):
            server.submit(Query("alpha", "definitely-not-a-solver"))

    def test_registry_datasets_resolve_by_abbreviation(self):
        server = make_server(None)
        response, = server.serve([Query("PT", "charikar")])
        assert response.ok
        assert response.result.density > 0

    def test_invalid_construction(self, graphs):
        with pytest.raises(ValueError):
            DsdServer(graphs=graphs, num_workers=0)
        with pytest.raises(ValueError):
            DsdServer(graphs=graphs, max_queue_depth=0)


class TestReports:
    def test_serve_fields_on_report_and_response(self, graphs):
        clock = FakeClock()
        server = make_server(graphs, clock=clock)
        server.submit(Query("alpha", "pkmc"))
        server.submit(Query("alpha", "pkmc"))
        clock.advance(5.0)
        first, second = server.drain()
        for response in (first, second):
            report = response.result.report
            assert report.queue_wait_s == pytest.approx(5.0)
            assert response.queue_wait_s == pytest.approx(5.0)
            assert report.batch_size == 2 == response.batch_size
            assert report.coalesced == 2 == response.coalesced
            assert response.latency_s == pytest.approx(5.0)

    def test_direct_engine_runs_have_zero_serve_fields(self, graphs):
        result = engine_run("pkmc", graphs["alpha"], ExecutionContext())
        assert result.report.queue_wait_s == 0.0
        assert result.report.batch_size == 0
        assert result.report.coalesced == 0

    def test_report_as_dict_round_trips_serve_fields(self, graphs):
        server = make_server(graphs)
        response, = server.serve([Query("alpha", "pkmc")])
        payload = response.result.report.as_dict()
        assert payload["batch_size"] == 1
        assert payload["coalesced"] == 1
        assert payload["queue_wait_s"] >= 0.0


class TestCaching:
    def test_repeat_across_drains_hits_cache(self, graphs):
        server = make_server(graphs)
        first, = server.serve([Query("alpha", "pkmc")])
        second, = server.serve([Query("alpha", "pkmc")])
        assert server.stats.solver_runs == 1
        assert server.stats.cache_hits == 1
        assert second.result.report.cache_hit
        assert_bit_identical(second.result, first.result)

    def test_ttl_expiry_forces_recompute(self, graphs):
        clock = FakeClock()
        server = make_server(graphs, clock=clock, cache_ttl=10.0)
        server.serve([Query("alpha", "pkmc")])
        clock.advance(11.0)
        server.serve([Query("alpha", "pkmc")])
        assert server.stats.solver_runs == 2
        assert server.cache_stats()["expired"] == 1

    def test_within_ttl_still_served_from_cache(self, graphs):
        clock = FakeClock()
        server = make_server(graphs, clock=clock, cache_ttl=10.0)
        server.serve([Query("alpha", "pkmc")])
        clock.advance(9.0)
        server.serve([Query("alpha", "pkmc")])
        assert server.stats.solver_runs == 1
        assert server.stats.cache_hits == 1

    def test_cache_disabled_reruns_but_still_coalesces(self, graphs):
        server = make_server(graphs, cache_entries=0)
        server.serve([Query("alpha", "pkmc")] * 2)
        server.serve([Query("alpha", "pkmc")])
        assert server.stats.solver_runs == 2  # one per drain
        assert server.stats.coalesced_queries == 1
        assert server.cache_stats() == {
            "hits": 0, "misses": 0, "expired": 0, "entries": 0,
        }

    def test_private_cache_does_not_touch_default_cache(self, graphs):
        disable_default_cache()
        shared = enable_default_cache(max_entries=4)
        try:
            server = make_server(graphs)
            server.serve([Query("alpha", "pkmc")])
            assert len(shared) == 0
            assert server.cache_stats()["entries"] == 1
        finally:
            disable_default_cache()


class TestReplayEquivalence:
    def test_served_mix_is_bit_identical_to_direct_runs(self, graphs):
        solvers = ["pkmc", "charikar"]
        queries = build_query_mix(
            "hot-graph", list(graphs), solvers, 30, seed=5, tenants=("a", "b")
        )
        server = make_server(graphs, max_queue_depth=64)
        reference = {
            (dataset, solver): engine_run(
                solver, graphs[dataset], ExecutionContext()
            )
            for dataset in graphs
            for solver in solvers
        }
        for offset in range(0, len(queries), 10):
            for response in server.serve(queries[offset:offset + 10]):
                assert response.ok
                expected = reference[
                    response.query.dataset, response.query.solver
                ]
                assert_bit_identical(response.result, expected)
        stats = server.stats
        assert stats.completed == 30
        assert stats.solver_runs + stats.cache_hits + stats.coalesced_queries == 30


class TestLifecycle:
    def test_close_drops_queue_and_graphs(self, graphs):
        server = make_server(dict(graphs))
        server.submit(Query("alpha", "pkmc"))
        server.close()
        assert server.queue_depth == 0
        assert server.drain() == []
        # Still usable afterwards (registry datasets re-resolve).
        response, = server.serve([Query("PT", "charikar")])
        assert response.ok


class TestFaultIsolation:
    """One raising flight fails its own members and nobody else's."""

    @staticmethod
    def failing_solver():
        from repro.engine import temporary_solver

        def explode(graph, **kwargs):
            raise RuntimeError("solver blew up")

        return temporary_solver(
            name="explodes", kind="uds", guarantee="heuristic", cost="serial"
        )(explode)

    def test_other_flights_still_answer(self, graphs):
        server = make_server(graphs)
        with self.failing_solver():
            responses = server.serve([
                Query("alpha", "pkmc"),
                Query("alpha", "explodes"),
                Query("alpha", "charikar"),
            ])
        assert [r.status for r in responses] == ["ok", "error", "ok"]
        failed = responses[1]
        assert failed.result is None
        assert failed.reason == "RuntimeError: solver blew up"
        expected = engine_run("pkmc", graphs["alpha"], ExecutionContext())
        assert_bit_identical(responses[0].result, expected)
        assert responses[2].result.density > 0
        stats = server.stats
        assert (stats.accepted, stats.completed, stats.errored) == (3, 2, 1)
        assert server.queue_depth == 0

    def test_coalesced_followers_share_the_failure(self, graphs):
        server = make_server(graphs)
        with self.failing_solver():
            responses = server.serve(
                [Query("alpha", "explodes")] * 3 + [Query("beta", "pkmc")]
            )
        assert [r.status for r in responses] == ["error"] * 3 + ["ok"]
        assert all(r.coalesced == 3 for r in responses[:3])
        assert server.stats.errored == 3
        assert server.stats.coalesced_queries == 0

    def test_accepted_equals_completed_plus_errored(self, graphs):
        server = make_server(graphs)
        with self.failing_solver():
            for wave in (
                [Query("alpha", "explodes"), Query("beta", "pkc")],
                [Query("beta", "pkc"), Query("alpha", "local")] * 2,
                [Query("beta", "explodes")],
            ):
                server.serve(wave)
                stats = server.stats
                assert stats.accepted == stats.completed + stats.errored
        assert server.stats.as_dict()["errored"] == 2

    def test_server_keeps_serving_after_a_failure(self, graphs):
        server = make_server(graphs)
        with self.failing_solver():
            server.serve([Query("alpha", "explodes")])
        response, = server.serve([Query("alpha", "pkmc")])
        assert response.ok
