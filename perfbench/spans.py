"""Wall-clock spans recorded around each layer's public entry point.

The traced run does not set ``config.tracing``: that flag bypasses the
plan cache, cardinality feedback and partial harvest, so it would
measure a different program.  Instead :class:`LayerProbes` swaps each
entry point below for a thin wrapper that opens a span, calls the
original and closes the span.  Uninstalling restores the originals, so
one process can alternate traced and untraced passes.

Self time is a span's duration minus the time its child spans cover.
Recursive entry points (``JoinOrderEnumerator.reorder``, row-backend
``execute_node``) nest same-name spans; each level's self time excludes
the levels below it, so a name's summed self time counts every instant
once.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Row-backend physical operator types reported as ``exec.op.<type>``.
#: Exchanges are fragment seams, never interpreted, and no workload
#: plans a VALUES node, so those two types are left out.
PHYS_TYPES: Tuple[str, ...] = (
    "PhysTableScan",
    "PhysIndexScan",
    "PhysFilter",
    "PhysProject",
    "PhysNestedLoopJoin",
    "PhysMergeJoin",
    "PhysHashJoin",
    "PhysSort",
    "PhysLimit",
    "PhysHashAggregate",
    "PhysSortAggregate",
    "PhysReceiver",
)

#: (span name, module, attribute path) of every wrapped entry point.
#: Functions are patched where the caller looks them up: the engine
#: imports ``fragment_plan`` / ``simulate_makespan`` / ``execute_node``
#: by name, the cluster facade imports ``parse`` by name.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("sql.parse", "repro.core.cluster", "parse"),
    ("rel.sql2rel", "repro.rel.sql2rel", "SqlToRelConverter.convert"),
    ("planner.plan", "repro.planner.volcano", "QueryPlanner.plan"),
    ("planner.hep", "repro.planner.hep", "HepPlanner.optimize"),
    (
        "planner.volcano_logical",
        "repro.planner.volcano",
        "JoinOrderEnumerator.reorder",
    ),
    (
        "planner.volcano_physical",
        "repro.planner.physical",
        "PhysicalPlanner.plan",
    ),
    ("adaptive.lookup", "repro.adaptive.controller", "AdaptiveController.lookup"),
    ("exec.execute", "repro.exec.engine", "ExecutionEngine.execute"),
    ("exec.fragment", "repro.exec.engine", "fragment_plan"),
    ("cluster.schedule", "repro.exec.engine", "simulate_makespan"),
    ("exec.run_fragment", "repro.exec.columnar", "execute_columnar"),
    ("storage.load", "repro.core.cluster", "IgniteCalciteCluster.create_table"),
    ("storage.load", "repro.core.cluster", "IgniteCalciteCluster.create_index"),
)

#: Every span name the probes can record, in report order.
LAYER_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(
        [name for name, _, _ in ENTRY_POINTS]
        + [f"exec.op.{t}" for t in PHYS_TYPES]
    )
)


class SpanRecorder:
    """Accumulates self time and call counts per span name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Open spans: [name, start, time covered by children].
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Summed duration of outermost spans (no open parent).
        self.covered_s = 0.0

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered_s += duration

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.self_s.clear()
        self.calls.clear()
        self.covered_s = 0.0

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def wrap_op(self, fn: Callable) -> Callable:
        """Row-backend ``execute_node(node, site, ctx)``: name by node type."""

        @functools.wraps(fn)
        def wrapper(node, *args, **kwargs):
            self.enter("exec.op." + type(node).__name__)
            try:
                return fn(node, *args, **kwargs)
            finally:
                self.exit()

        return wrapper


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class LayerProbes:
    """Installs and removes the span wrappers around the entry points."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        # Class attributes are read from __dict__ so a staticmethod or
        # plain function is restored exactly as it was.
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("probes already installed")
        rec = self.recorder
        for name, module_name, path in ENTRY_POINTS:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, rec.wrap(name, getattr(owner, attr)))
        # Row backend: the operator interpreter recurses through the
        # operators module's global, the engine calls its own imported
        # name once per fragment and site.
        operators, _ = _resolve("repro.exec.operators", "execute_node")
        engine, _ = _resolve("repro.exec.engine", "execute_node")
        op_probe = rec.wrap_op(operators.execute_node)
        self._patch(operators, "execute_node", op_probe)
        self._patch(
            engine, "execute_node", rec.wrap("exec.run_fragment", op_probe)
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
