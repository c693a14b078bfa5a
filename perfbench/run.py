"""Run one workload of the end-to-end benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch-file --seed 0 --seconds 20 --trace 0

Workloads: ``batch-file``, ``serve-zipf``, ``stream-bursty``; ``all``
runs each of them, untraced and traced, each in a process of its own.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it records spans and prints the per-layer metrics, each layer's share of
self time, the reconciliation of spans against end-to-end times, and the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 after a completed run, 2 when the program's sources are
missing, 3 when the run did not reach a steady state; any other failure
raises and exits non-zero without a result line.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import importlib  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("batch-file", "serve-zipf", "stream-bursty")
#: The default seed; ``HELDOUT_SEED`` is kept out of tuning, for later claims.
DEFAULT_SEED = 0
HELDOUT_SEED = 7919


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the benchmark's command line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; {HELDOUT_SEED} is held out for confirming claims)",
    )
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_trace_summary(spans, report) -> list[str]:
    """Print layer shares and reconciliation; return reconciliation problems."""
    from perfbench.spans import (
        RECONCILE_FLOOR_S,
        RECONCILE_SHARE,
        layer_self_times,
        reconcile,
        unattributed,
    )

    roots = unattributed(spans)
    total = sum(duration for duration, _ in roots.values())
    print(f"layer self time over {len(roots)} traced operations ({total:.3f} s):")
    names = layer_self_times(spans, by_name=True)
    for layer, seconds in sorted(layer_self_times(spans).items(), key=lambda kv: -kv[1]):
        label = "unattributed" if layer == "bench" else layer
        print(f"  {label:<28} {seconds:10.4f} s  {seconds / total:7.2%}")
        if layer == "bench":
            continue
        for name, own in sorted(names.items(), key=lambda kv: -kv[1]):
            if name.split(".", 1)[0] == layer and name != layer:
                print(f"    {name:<26} {own:10.4f} s  {own / total:7.2%}")
    problems = reconcile(spans)
    worst = max((gap / duration for duration, gap in roots.values()), default=0.0)
    print(
        f"reconciliation: {len(roots) - len(problems)}/{len(roots)} operations' layer "
        f"spans add up to their end-to-end time (tolerance {RECONCILE_SHARE:.0%} or "
        f"{RECONCILE_FLOOR_S * 1e6:.0f} us; worst gap {worst:.3%})"
    )
    for problem in problems[:10]:
        print(f"  {problem}", file=sys.stderr)
    report.set("bench.unattributed_s", statistics.median(gap for _, gap in roots.values()))
    overhead = report.values.get("bench.trace_overhead_s", 0.0)
    print(f"tracing overhead: traced minus untraced operation time = {overhead * 1e3:+.3f} ms")
    return problems


def run_all(args: argparse.Namespace) -> int:
    """Run every workload untraced then traced, one child process per run."""
    failures = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            sys.stdout.flush()
            if subprocess.run(command, check=False).returncode != 0:
                failures += 1
    print(f"perfbench all: {2 * len(WORKLOADS) - failures}/{2 * len(WORKLOADS)} runs completed")
    return 1 if failures else 0


def main(argv=None) -> int:
    """Run one workload, or all of them; return the process exit code."""
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import InvalidRun, Ops, RunArgs
    from perfbench.metrics import Report
    from perfbench.spans import Tracer

    workload = importlib.import_module("perfbench." + args.workload.replace("-", "_"))
    import_s = time.perf_counter() - _STARTED

    tracer = Tracer(enabled=args.trace == 1)
    report = Report(trace=args.trace == 1)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    ops = Ops()
    # A terminated run still removes its input files (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    try:
        workload.run(RunArgs(args.seed, args.seconds, tracer, report, workdir, import_s), ops)
    except InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer.enabled:
            tracer.dump(ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl")

    correct = ops.failed == 0
    if tracer.enabled:
        correct = not _print_trace_summary(tracer.spans, report) and correct
    print(f"operations: {ops.attempted} attempted, {ops.failed} failed")
    print("\n".join(report.lines()))
    print(report.result_line(correct, ops.attempted, ops.failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
