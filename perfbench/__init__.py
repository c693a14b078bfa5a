"""End-to-end wall-clock benchmark for the densest-subgraph system.

Three workloads drive the public entry points a user's request passes
through (store, graph, engine, solvers, serve, stream) and check every
answer.  ``perfbench/run.py`` is the entry point; ``perfbench/README.md``
describes the workloads, metrics and tracing.
"""
