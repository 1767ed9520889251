"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload tpch-olap --seed 1 --seconds 10 --trace 0

One process, one client, closed loop: each statement is sent through
``IgniteCalciteCluster.try_sql`` only after the previous one returned.
A run generates the data and loads the cluster(s) ``SETUP_REPEATS``
times, runs the cold pass after the last set-up(s), then a fixed number
of warm passes, and checks every outcome against the workload's oracle.
Times are read on the process CPU clock and reported at the reference
host speed (``yardstick.py`` explains both).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced warm passes and prints the per-layer metrics (see
``spans.py``).  The last line of standard output is the result object.
Without the engine sources next to this directory the run exits non-zero
and prints nothing on standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from stats import RAW_EXCEPTION, error_frac, judge, median, tail_percentile
from yardstick import SETUP_CHUNKS, Yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
#: Failures echoed to standard error (all are counted).
SHOWN_FAILURES = 5


def _import_engine() -> None:
    """Put the checkout's ``src/`` first on the path and insist on it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no engine sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


@dataclass
class Record:
    op: object
    status: str
    result: object
    latency_s: float
    error: str


@dataclass
class PassRun:
    records: List[Record]
    #: Summed statement latency (yardstick chunks excluded).
    busy_s: float
    #: Reference host speed over the speed seen during this pass.
    speed: float

    def __post_init__(self) -> None:
        self.ops = len(self.records)
        #: Statement latencies at the reference host speed.
        self.latencies = [r.latency_s * self.speed for r in self.records]
        # fsum: the same makespans in another order give the same total.
        self.sim_makespan_s = math.fsum(
            r.result.simulated_seconds for r in self.records if r.result is not None
        )

    @property
    def scaled_s(self) -> float:
        return self.busy_s * self.speed

    def release(self) -> None:
        """Drop the results (rows, plans, fragment trees) once checked."""
        self.records = []


class Checker:
    """Judges each outcome; keeps its own time out of every metric."""

    def __init__(self, oracle, clock) -> None:
        self.oracle = oracle
        self.clock = clock
        self.attempted = 0
        self.failures: List[str] = []
        self.check_s = 0.0

    def check(self, run: PassRun) -> None:
        """Judge every outcome of ``run``, then drop its results."""
        from repro.verify.differential import compare_results

        start = self.clock()
        for rec in run.records:
            diff = ""
            if rec.status == "ok" and rec.op.expected_status == "ok":
                diff = compare_results(
                    rec.result.rows,
                    self.oracle.rows(rec.op),
                    self.oracle.logical(rec.op),
                )
            why = judge(rec.op.expected_status, rec.status, diff)
            self.attempted += 1
            if why is not None:
                detail = f" ({rec.error})" if rec.error else ""
                self.failures.append(
                    f"{rec.op.system} {rec.op.sql[:60]!r}: {why}{detail}"
                )
        self.check_s += self.clock() - start
        run.release()


def run_pass(clusters: Dict[str, object], ops, clock, yard) -> PassRun:
    records: List[Record] = []
    busy = 0.0
    first = yard.mark()
    yard.measure()
    for op in ops:
        yard.tick()
        cluster = clusters[op.system]
        t0 = clock()
        try:
            outcome = cluster.try_sql(op.sql)
        except Exception as exc:  # counted as a wrong outcome, never fatal
            status, result, error = RAW_EXCEPTION, None, repr(exc)
        else:
            status, result, error = outcome.status.value, outcome.result, ""
        latency = clock() - t0
        records.append(Record(op, status, result, latency, error))
        busy += latency
    return PassRun(records, busy, yard.factor(first))


def timed_setup(workload, clock, yard) -> Tuple[Dict[str, object], float, float]:
    """One set-up: the clusters, its time and the host speed factor from
    yardstick chunks taken just before and after it."""
    gc.collect()  # outside the timed region
    first = yard.mark()
    yard.measure(SETUP_CHUNKS)
    start = clock()
    clusters = workload.setup()
    elapsed = clock() - start
    yard.measure(SETUP_CHUNKS)
    return clusters, elapsed, yard.factor(first)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed: int, seconds: float, clock, yard) -> Tuple[dict, Checker, List[str]]:
    setups: List[float] = []
    colds: List[PassRun] = []
    checker = passes = None
    for repeat in range(SETUP_REPEATS):
        clusters = None  # release the previous copy before loading the next
        clusters, elapsed, speed = timed_setup(workload, clock, yard)
        setups.append(elapsed * speed)
        if checker is None:
            checker = Checker(workload.oracle(clusters), clock)
            passes = workload.passes(seed, 1 + workload.warm_passes(seconds))
        if repeat >= SETUP_REPEATS - workload.cold_passes:
            colds.append(run_pass(clusters, passes[0], clock, yard))
            checker.check(colds[-1])
    warm: List[PassRun] = []
    for ops in passes[1:]:
        warm.append(run_pass(clusters, ops, clock, yard))
        checker.check(warm[-1])
    latencies = [t for run in warm for t in run.latencies]
    tail = tail_percentile(latencies)
    ok_frac = 1.0 - error_frac(len(checker.failures), checker.attempted)
    warm_scaled = sum(w.scaled_s for w in warm)
    warm_raw = sum(w.busy_s for w in warm)
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "cold_pass_s": metric(median([c.scaled_s for c in colds]), "s"),
        "warm_qps": metric(len(latencies) / warm_scaled, "1/s"),
        "latency_ms.p50": metric(median(latencies) * 1e3, "ms"),
        "latency_ms.tail": metric(tail.value * 1e3, "ms"),
        "sim_makespan_s": metric(colds[0].sim_makespan_s, "sim_s"),
        "ok_frac": metric(ok_frac, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    notes = [
        f"setup_s runs (scaled): {', '.join(f'{t:.3f}' for t in setups)}",
        f"cold_pass_s runs (raw): {', '.join(f'{c.busy_s:.3f}' for c in colds)}",
        "sim_makespan_s per cold pass (must repeat exactly): "
        + ", ".join(repr(c.sim_makespan_s) for c in colds),
        f"warm phase: {len(warm)} passes, {len(latencies)} ops, raw "
        f"{warm_raw:.3f} s, raw qps {len(latencies) / warm_raw:.3f}, "
        f"host speed factor {warm_scaled / warm_raw:.3f}",
        f"latency_ms.tail is p{tail.pct} over {tail.samples} warm samples "
        f"({tail.beyond} beyond it)",
        f"error_frac = {1.0 - ok_frac:.6f} "
        f"({len(checker.failures)} of {checker.attempted})",
        f"verify.check_ms total {checker.check_s * 1e3:.1f} (not in any metric)",
    ]
    return metrics, checker, notes


def per_layer(workload, seed: int, seconds: float, clock, yard) -> Tuple[dict, Checker, List[str]]:
    from repro.obs.metrics import get_registry
    from spans import LAYER_NAMES, LayerProbes, SpanRecorder

    recorder = SpanRecorder(clock)
    probes = LayerProbes(recorder)
    probes.install()
    try:
        clusters, elapsed, setup_speed = timed_setup(workload, clock, yard)
    finally:
        probes.uninstall()
    load_ms = recorder.self_s["storage.load"] * 1e3 * setup_speed
    load_calls = recorder.calls["storage.load"]
    recorder.reset()

    checker = Checker(workload.oracle(clusters), clock)
    warm = workload.warm_passes(seconds)
    warm += warm % 2  # as many traced as untraced passes
    passes = workload.passes(seed, 1 + warm)
    registry = get_registry()
    before = registry.snapshot()
    cold = run_pass(clusters, passes[0], clock, yard)
    counts = registry.delta_since(before)
    checker.check(cold)

    plain: List[PassRun] = []
    traced: List[PassRun] = []
    for index, ops in enumerate(passes[1:]):
        is_traced = index % 2 == 1
        if is_traced:
            probes.install()
        try:
            run = run_pass(clusters, ops, clock, yard)
        finally:
            probes.uninstall()
        checker.check(run)
        (traced if is_traced else plain).append(run)

    traced_ops = sum(r.ops for r in traced)
    traced_raw = sum(r.busy_s for r in traced)
    traced_scaled = sum(r.scaled_s for r in traced)
    # Spans are read raw; scale them by the traced passes' host speed.
    per_op_ms = traced_scaled / traced_raw * 1e3 / traced_ops
    metrics = {}
    for name in LAYER_NAMES:
        if name == "storage.load":
            metrics["storage.load.self_ms"] = metric(load_ms, "ms")
            metrics["storage.load.calls"] = metric(float(load_calls), "count")
            continue
        metrics[f"{name}.self_ms"] = metric(
            recorder.self_s.get(name, 0.0) * per_op_ms, "ms"
        )
        metrics[f"{name}.calls"] = metric(
            recorder.calls.get(name, 0) / traced_ops, "count"
        )
    metrics.update(registry_counts(counts))
    metrics["bench.unattributed_ms"] = metric(
        (traced_raw - recorder.covered_s) * per_op_ms, "ms"
    )
    metrics["verify.check_ms"] = metric(
        checker.check_s * 1e3 / checker.attempted, "ms"
    )
    plain_ops = sum(r.ops for r in plain)
    plain_qps = plain_ops / sum(r.scaled_s for r in plain)
    traced_qps = traced_ops / traced_scaled
    metrics["trace.overhead_frac"] = metric(1.0 - traced_qps / plain_qps, "ratio")
    notes = [
        f"traced {traced_ops} ops at {traced_qps:.3f}/s, untraced "
        f"{plain_ops} ops at {plain_qps:.3f}/s (scaled)",
        f"setup (traced, once, scaled): {elapsed * setup_speed:.3f} s",
        "registry counts cover the cold pass; *.self_ms and *.calls are "
        "per traced operation; storage.load.* per setup",
    ]
    return metrics, checker, notes


def registry_counts(delta: Dict[str, float]) -> dict:
    """Exact engine counters of one pass, from a registry delta."""

    def total(prefix: str) -> float:
        return float(
            sum(
                v for k, v in delta.items()
                if k == prefix or k.startswith(prefix + "{")
            )
        )

    hits = total("plan_cache.hits")
    lookups = hits + total("plan_cache.misses")
    return {
        "planner.rules_fired": metric(total("planner.rule_fired"), "count"),
        "planner.join_orders_enumerated": metric(
            total("planner.join_orders_enumerated"), "count"
        ),
        "planner.budget_spent": metric(total("planner.budget_spent_sum"), "count"),
        "adaptive.plan_cache.hit_ratio": metric(
            hits / lookups if lookups else 0.0, "ratio"
        ),
        "adaptive.plan_cache.lookups": metric(lookups, "count"),
        "adaptive.plan_cache.evictions": metric(
            total("plan_cache.evictions"), "count"
        ),
        "exec.rows_shipped": metric(total("exec.rows_shipped"), "count"),
        "exec.work_units": metric(total("exec.work_units"), "count"),
        "exec.network_units": metric(total("exec.network_units"), "count"),
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 64
    _import_engine()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 64
    clock = time.process_time
    measure = per_layer if args.trace else end_to_end
    metrics, checker, notes = measure(
        workload, args.seed, args.seconds, clock, Yardstick(clock)
    )
    print(f"workload {workload.name}: {json.dumps(workload.describe())}")
    for note in notes:
        print(note)
    for failure in checker.failures[:SHOWN_FAILURES]:
        print(f"WRONG: {failure}", file=sys.stderr)
    failed = len(checker.failures)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": checker.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
