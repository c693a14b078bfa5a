"""Answer checks: a planted wrong answer counts as a failed operation."""

import dataclasses
import time

import numpy as np

from perfbench.batch_file import check_answer
from perfbench.common import Ops, uds_mismatch
from perfbench.loadgen import Sent, run_open_loop
from perfbench.serve_zipf import Served, account
from perfbench.stream_bursty import Batch, Setup, stream_mismatch
from repro.datasets import sliding_window_stream
from repro.engine import ExecutionContext
from repro.engine import run as engine_run
from repro.graph import UndirectedGraph, planted_dense_subgraph
from repro.serve import DsdServer, Query
from repro.stream import StreamSession


def _graph():
    graph, _ = planted_dense_subgraph(200, 600, 12, seed=3)
    return graph


def test_ops_counts_failures_with_reasons():
    ops = Ops()
    ops.record(None)
    ops.record("wrong density")
    assert (ops.attempted, ops.failed, ops.reasons) == (2, 1, ["wrong density"])


def test_uds_mismatch_sees_each_planted_difference():
    graph = _graph()
    reference = engine_run("pkmc", graph, ExecutionContext())
    answer = engine_run("pkmc", graph, ExecutionContext())
    assert uds_mismatch(answer, reference) is None
    for change in (
        {"vertices": reference.vertices[1:]},
        {"density": reference.density + 1e-12},
        {"iterations": reference.iterations + 1},
    ):
        planted = dataclasses.replace(reference, **change)
        assert uds_mismatch(answer, planted) is not None


def test_text_answer_is_mapped_back_through_the_reader_labels():
    graph = _graph()
    reference = engine_run("pkmc", graph, ExecutionContext())
    permutation = np.random.default_rng(0).permutation(graph.num_vertices)
    renamed = UndirectedGraph.from_edges(graph.num_vertices, permutation[graph.edges()])
    answer = engine_run("pkmc", renamed, ExecutionContext())
    labels = [str(v) for v in np.argsort(permutation)]  # renamed id -> original
    assert check_answer("uds-text", answer, labels, reference) is None
    wrong_labels = labels[1:] + labels[:1]
    assert check_answer("uds-text", answer, wrong_labels, reference) is not None


def test_planted_wrong_serve_reference_fails_exactly_its_queries():
    graph = _graph()
    server = DsdServer({"g": graph}, clock=time.perf_counter)
    queries = [Query("g", "pkmc"), Query("g", "pkc"), Query("g", "pkmc")]
    references = {("g", s): engine_run(s, graph, ExecutionContext()) for s in ("pkmc", "pkc")}
    references["g", "pkc"] = dataclasses.replace(references["g", "pkc"], density=-1.0)
    served = {}

    def submit(index):
        server.submit(queries[index])
        return True

    def drain(indices):
        for index, response in zip(indices, server.drain()):
            served[index] = Served(None, response)

    _, sent = run_open_loop(len(queries), 1000.0, submit, drain, time.perf_counter, time.sleep)
    for record in sent:
        served[record.index].sent = record
    ops = Ops()
    account([served[i] for i in range(3)], queries, references, ops)
    assert (ops.attempted, ops.failed) == (3, 1)


def test_lost_and_rejected_queries_count_as_failed():
    ops = Ops()
    items = [
        Served(Sent(0, 0.0, 0.0, 0.0), problem="lost: drain raised RuntimeError()"),
        Served(Sent(1, 0.0, 0.0, 0.0), problem="rejected: queue_full"),
    ]
    account(items, [], {}, ops)
    assert (ops.attempted, ops.failed) == (2, 2)


def test_stream_mismatch_against_a_fresh_solve():
    graph = _graph()
    session = StreamSession.from_graph(graph)
    answer = session.query()
    fresh = engine_run("pkmc", session.graph(), ExecutionContext())
    assert stream_mismatch(answer, fresh) is None
    assert stream_mismatch(answer, dataclasses.replace(fresh, k_star=fresh.k_star + 1)) is not None
    assert stream_mismatch(answer, dataclasses.replace(fresh, vertices=fresh.vertices[:-1])) is not None


def test_expected_window_matches_the_session_after_every_step():
    graph = _graph()
    initial, steps = sliding_window_stream(graph, window_fraction=0.7, batch_size=8, seed=1)
    setup = Setup(
        graph.num_vertices, initial, [], np.concatenate([initial] + [s.insertions for s in steps])
    )
    session = setup.new_session()
    for done, step in enumerate(steps, 1):
        session.apply(step.insertions, step.deletions)
        batch = Batch("small", step.insertions, step.deletions, done)
        assert np.array_equal(setup.expected_graph(batch).edges(), session.graph().edges())
