"""The public facade: a simulated Ignite+Calcite cluster.

:class:`IgniteCalciteCluster` wires the whole composable stack together —
SQL parser, SQL-to-rel conversion, the two-stage planner, fragmentation and
the simulated distributed execution engine — behind the same surface a
user of the real system sees: DDL + load, then SQL in, rows out.

Three factory presets mirror the paper's systems under test::

    cluster = IgniteCalciteCluster.ic_plus(sites=8)
    cluster.create_table(schema, rows)
    result = cluster.sql("SELECT ...")
    result.rows, result.simulated_seconds

``try_sql`` never raises for the failure modes the paper catalogues; it
returns a :class:`QueryOutcome` whose status records *how* a query failed
(planning, timeout, unsupported), which is what the benchmark harness
consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.adaptive.controller import AdaptiveController
from repro.common.config import SystemConfig
from repro.common.errors import (
    ExecutionTimeoutError,
    FaultError,
    PlannerDefectError,
    PlanningTimeoutError,
    ReproError,
    UnsupportedSqlError,
)
from repro.faults.injector import FaultInjector
from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.exec.engine import ExecutionEngine, ExecutionResult
from repro.exec.physical import PhysNode
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_TRACER, Tracer, activate, get_tracer
from repro.planner.volcano import QueryPlanner
from repro.rel.logical import RelNode
from repro.rel.sql2rel import SqlToRelConverter
from repro.sql import ast as ast_module
from repro.sql.parser import parse
from repro.stats.sketch_registry import SketchRegistry
from repro.storage.store import DataStore


#: SQL type name (as lexed, lower-case) -> catalog column type for
#: ``CREATE TABLE`` DDL.  Synonyms mirror common dialect spellings.
_SQL_COLUMN_TYPES = {
    "int": ColumnType.INTEGER,
    "integer": ColumnType.INTEGER,
    "bigint": ColumnType.BIGINT,
    "double": ColumnType.DOUBLE,
    "float": ColumnType.DOUBLE,
    "decimal": ColumnType.DECIMAL,
    "numeric": ColumnType.DECIMAL,
    "varchar": ColumnType.VARCHAR,
    "string": ColumnType.VARCHAR,
    "char": ColumnType.CHAR,
    "date": ColumnType.DATE,
    "boolean": ColumnType.BOOLEAN,
}


class QueryStatus(enum.Enum):
    OK = "ok"
    UNSUPPORTED = "unsupported"        # e.g. SQL VIEWs (TPC-H Q15)
    PLANNING_FAILED = "planning_failed"  # budget exhausted (Q2/Q5/Q9 on IC)
    PLANNER_DEFECT = "planner_defect"    # the unresolved Q20 bug
    TIMEOUT = "timeout"                  # runtime limit (Q17/Q19/Q21 on IC)
    ERROR = "error"
    # -- resilience taxonomy (repro.faults) --------------------------------
    #: A site failure (or lost exchange / OOM-killed fragment) killed the
    #: attempt and failover re-dispatch could not absorb it.
    FAILED_SITE = "failed_site"
    #: Alias of TIMEOUT: the work-unit budget or the per-query deadline
    #: was exhausted before the query completed.
    TIMED_OUT = "timeout"
    #: The query succeeded but only after >= 1 retry.
    RETRIED = "retried"
    #: The query succeeded in one attempt but at reduced strength: dead
    #: sites at start and/or tasks re-dispatched after a mid-flight crash.
    DEGRADED = "degraded"
    # -- serving taxonomy (repro.serve) ------------------------------------
    #: Admission control refused the query: the run queue was full at
    #: arrival, or the request was shed after waiting past its deadline.
    #: The query never executed (and never will without resubmission).
    REJECTED = "rejected"


@dataclass
class QueryOutcome:
    """Result of ``try_sql``: either rows or a classified failure."""

    status: QueryStatus
    result: Optional[ExecutionResult] = None
    error: Optional[ReproError] = None
    #: Execution attempts consumed (1 on the happy path; > 1 after
    #: retries by the resilience layer in :mod:`repro.faults.chaos`).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status is QueryStatus.OK

    @property
    def succeeded(self) -> bool:
        """The query produced rows, possibly degraded or after retries."""
        return self.result is not None

    @property
    def simulated_seconds(self) -> float:
        if self.result is None:
            raise RuntimeError(f"query did not complete: {self.status.value}")
        return self.result.simulated_seconds

    @property
    def rows(self) -> List[Tuple]:
        if self.result is None:
            raise RuntimeError(f"query did not complete: {self.status.value}")
        return self.result.rows


class IgniteCalciteCluster:
    """A simulated Ignite cluster using Calcite-style query planning."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.store = DataStore(
            site_count=config.sites,
            partitions_per_table=config.partitions_per_table,
        )
        #: Sketch-based statistics (None unless ``config.sketch_statistics``):
        #: table-level sketches consulted by the estimator, operator-level
        #: HLLs refreshed by the engine at fragment seams.
        self.sketches = SketchRegistry.from_config(config, self.store)
        self._engine = ExecutionEngine(self.store, config, sketches=self.sketches)
        #: View name -> defining SELECT AST (views_supported extension).
        self._views: dict = {}
        #: The fault injector behind ``config.faults`` (None = fault-free).
        #: Shared by every query on this cluster so one-shot faults fire
        #: exactly once per schedule entry.
        self.fault_injector = FaultInjector.from_config(config)
        #: Trace of the most recent ``sql``/``try_sql`` call.  The inert
        #: :data:`~repro.obs.trace.NULL_TRACER` unless ``config.tracing``.
        self.last_trace: Tracer = NULL_TRACER
        #: Plan cache + cardinality-feedback coordinator (None unless the
        #: config enables ``plan_cache`` / ``cardinality_feedback``).
        self.adaptive = AdaptiveController.from_config(config, self.store)

    # -- presets --------------------------------------------------------------

    @staticmethod
    def ic(sites: int = 4, **overrides) -> "IgniteCalciteCluster":
        return IgniteCalciteCluster(SystemConfig.ic(sites, **overrides))

    @staticmethod
    def ic_plus(sites: int = 4, **overrides) -> "IgniteCalciteCluster":
        return IgniteCalciteCluster(SystemConfig.ic_plus(sites, **overrides))

    @staticmethod
    def ic_plus_m(
        sites: int = 4, threads: int = 2, **overrides
    ) -> "IgniteCalciteCluster":
        return IgniteCalciteCluster(
            SystemConfig.ic_plus_m(sites, threads, **overrides)
        )

    # -- DDL / load -------------------------------------------------------------

    def create_table(self, schema: TableSchema, rows: Sequence[Tuple]) -> None:
        self.store.create_table(schema, rows)
        self._invalidate_plans()

    def _ddl_create_table(self, statement: ast_module.CreateTable) -> None:
        """Register an empty table from a parsed ``CREATE TABLE``.

        The ``USING`` clause routes storage to a registered adapter; the
        PRIMARY KEY clause (or its first-column default) decides the
        affinity key exactly as programmatic DDL does.
        """
        columns = []
        for column_name, type_name in statement.columns:
            try:
                column_type = _SQL_COLUMN_TYPES[type_name]
            except KeyError:
                raise UnsupportedSqlError(
                    f"unknown column type {type_name!r}"
                ) from None
            columns.append(Column(column_name, column_type))
        schema = TableSchema(
            statement.name,
            columns,
            statement.primary_key or [columns[0].name],
            adapter=statement.adapter or "native",
        )
        self.create_table(schema, [])

    def drop_table(self, name: str) -> None:
        """Drop a table and invalidate everything keyed off its identity.

        Cached plans (and their compiled pushdowns), cardinality feedback
        and sketch estimates all assume the dropped table's adapter,
        placement and contents — a later same-named table may differ in
        all three, so the caches must not survive the drop.
        """
        self.store.drop_table(name)
        self._invalidate_plans()

    def create_index(
        self, table: str, index_name: str, columns: Sequence[str]
    ) -> None:
        self.store.create_index(table, index_name, columns)
        self._invalidate_plans()

    def _invalidate_plans(self) -> None:
        """DDL changed what plans (and observed cardinalities) mean."""
        if self.adaptive is not None:
            self.adaptive.invalidate()
        if self.sketches is not None:
            self.sketches.invalidate()

    # -- planning --------------------------------------------------------------------

    def parse_to_logical(self, sql: str) -> RelNode:
        statement = parse(sql, allow_views=self.config.views_supported)
        if isinstance(statement, (ast_module.CreateView, ast_module.CreateTable)):
            raise UnsupportedSqlError(
                "DDL statements have no logical plan; use sql() or try_sql()"
            )
        return self._to_logical(statement)

    def _to_logical(self, statement) -> RelNode:
        converter = SqlToRelConverter(
            self.store.catalog,
            q20_defect_fixed=self.config.q20_defect_fixed,
            views=self._views,
        )
        return converter.convert(statement)

    def create_view(self, sql: str) -> str:
        """Register a view from ``CREATE VIEW name AS select`` (extension).

        Requires ``views_supported``; stock Ignite+Calcite rejects views.
        """
        statement = parse(sql, allow_views=self.config.views_supported)
        if not isinstance(statement, ast_module.CreateView):
            raise UnsupportedSqlError("create_view expects a CREATE VIEW")
        self._views[statement.name] = statement.select
        self._invalidate_plans()
        return statement.name

    def plan_sql(self, sql: str) -> PhysNode:
        logical = self.parse_to_logical(sql)
        planner = QueryPlanner(self.store, self.config, sketches=self.sketches)
        return planner.plan(logical)

    def explain(self, sql: str) -> str:
        """The optimised physical plan, rendered for humans."""
        return self.plan_sql(sql).explain()

    def explain_analyze(self, sql: str) -> str:
        """Execute ``sql`` and render the plan annotated with actual row
        counts, work units and per-operator q-error (estimated vs actual,
        both floored at one row)."""
        result = self.sql(f"explain analyze {sql}")
        return "\n".join(row[0] for row in result.rows)

    # -- statement plumbing ---------------------------------------------------

    def _begin_trace(self) -> Tracer:
        """Fresh tracer for one query (inert unless ``config.tracing``)."""
        tracer = Tracer() if self.config.tracing else NULL_TRACER
        self.last_trace = tracer
        return tracer

    def _parse(self, sql: str):
        tracer = get_tracer()
        with tracer.span("parse"):
            statement = parse(sql, allow_views=self.config.views_supported)
            tracer.advance(1.0)  # parsing is one budget tick
        return statement

    def _plan_select(
        self, select: ast_module.Select, allow_cache: bool = True
    ) -> PhysNode:
        logical = self._to_logical(select)
        # Correctness guards: EXPLAIN [ANALYZE] (allow_cache=False), traced
        # queries and fault-injected runs bypass the adaptive layer
        # entirely — never served from the cache, never populating it, and
        # never harvested — so golden EXPLAIN snapshots and chaos replays
        # stay bit-identical with the flags on.
        adaptive = self.adaptive
        if (
            adaptive is None
            or not allow_cache
            or self.config.tracing
            or self.fault_injector is not None
        ):
            planner = QueryPlanner(
                self.store, self.config, sketches=self.sketches
            )
            return planner.plan(logical)
        signature, cached = adaptive.lookup(logical)
        if cached is not None:
            # Cache hit: Hep + Volcano skipped, zero budget ticks spent.
            cached._adaptive_key = signature.key
            return cached
        planner = QueryPlanner(
            self.store,
            self.config,
            feedback=adaptive.feedback,
            sketches=self.sketches,
        )
        plan = planner.plan(logical)
        adaptive.store(signature, plan, planner.last_budget_spent)
        plan._adaptive_key = signature.key if signature is not None else None
        return plan

    def _observe_adaptive(self, plan: PhysNode, result: ExecutionResult) -> None:
        """Post-execution hook: harvest actuals, maybe evict for replan.

        Only plans that went through the adaptive serve path carry the
        ``_adaptive_key`` marker; EXPLAIN / traced / fault-injected plans
        do not and are never harvested.
        """
        if self.adaptive is None or not hasattr(plan, "_adaptive_key"):
            return
        self.adaptive.observe(plan._adaptive_key, result)

    def _harvest_partial(self) -> None:
        """Feed actuals from a *failed* execution to cardinality feedback.

        The fragments completed before the failure (or before a deadline /
        shed verdict) carry true cardinalities — exactly the evidence the
        next planning of the same query needs to avoid failing the same
        way.  Traced runs skip this like every other adaptive path; a
        fault-injected failure may harvest (planning under an injector
        never consults feedback, so chaos replays stay deterministic, and
        later fault-free queries still benefit).
        """
        if (
            self.adaptive is None
            or self.adaptive.feedback is None
            or self.config.tracing
        ):
            return
        partial = self._engine.last_partial
        if partial is None:
            return
        recorded = self.adaptive.feedback.harvest(partial)
        if recorded:
            get_registry().inc("adaptive.feedback_partial_harvests")

    def _run_explain(
        self, statement: ast_module.Explain, at: float = 0.0
    ) -> ExecutionResult:
        """EXPLAIN [ANALYZE]: a fabricated single-column text result.

        Plain EXPLAIN only plans; ANALYZE also executes and reports the
        per-operator actuals.  The returned result carries the inner
        execution's simulated time so EXPLAIN ANALYZE costs what the
        query itself cost.
        """
        plan = self._plan_select(statement.select, allow_cache=False)
        if not statement.analyze:
            return _text_result(self.config, plan.explain())
        inner = self.execute_plan(plan, at=at)
        return _text_result(self.config, inner.explain_analyze(), base=inner)

    # -- execution ----------------------------------------------------------------------

    def execute_plan(self, plan: PhysNode, at: float = 0.0) -> ExecutionResult:
        """Execute ``plan``; ``at`` is its submission time on the chaos
        clock (only meaningful when the config carries a fault schedule)."""
        return self._engine.execute(plan, injector=self.fault_injector, at=at)

    def sql(self, sql: str) -> ExecutionResult:
        """Plan and execute; raises on any failure.

        The same dispatch as :meth:`try_sql`, raising the classified error
        (the very exception instance) instead of returning it.
        """
        outcome = self.try_sql(sql)
        if outcome.error is not None:
            raise outcome.error
        return outcome.result

    def try_sql(self, sql: str, at: float = 0.0) -> QueryOutcome:
        """Plan and execute, classifying the paper's failure modes.

        With ``views_supported`` enabled, a CREATE VIEW statement registers
        the view and succeeds with an empty result set.  Under a fault
        schedule, ``at`` places the attempt on the chaos clock; failures
        caused by injected faults classify as ``FAILED_SITE`` and a
        degraded-but-correct completion as ``DEGRADED``.

        With ``verify_execution`` set, every query also runs through the
        differential harness (plan invariants, reference-executor diff); a
        divergence fails it with a ``VerificationError``.
        """
        tracer = self._begin_trace()
        with activate(tracer), tracer.span(
            "query", system=self.config.name
        ):
            plan = None
            try:
                statement = self._parse(sql)
                if isinstance(statement, ast_module.CreateView):
                    self._views[statement.name] = statement.select
                    self._invalidate_plans()
                    return _completed(_empty_result(self.config))
                if isinstance(statement, ast_module.CreateTable):
                    self._ddl_create_table(statement)
                    return _completed(_empty_result(self.config))
                if isinstance(statement, ast_module.Explain):
                    return QueryOutcome(
                        QueryStatus.OK,
                        result=self._run_explain(statement, at=at),
                    )
                if self.config.verify_execution:
                    # Imported lazily: repro.verify imports the engine.
                    from repro.verify.differential import differential_check

                    report = differential_check(
                        sql, self.store, self.config, views=self._views
                    )
                    report.raise_on_failure()
                    # Under a fault schedule the harness's result is the
                    # *fault-free* execution; fall through so the caller
                    # gets the degraded run (already proven row-correct).
                    verified = report.result
                    if verified is not None and self.fault_injector is None:
                        return _completed(verified)
                    # Skipped (e.g. planning budget): fall through so the
                    # caller sees the failure an unverified run would.
                plan = self._plan_select(statement)
                result = self.execute_plan(plan, at=at)
            except ReproError as exc:
                if plan is not None:  # execution failed: harvest its actuals
                    self._harvest_partial()
                status = next(
                    _FAILURE_STATUS[cls]
                    for cls in type(exc).__mro__
                    if cls in _FAILURE_STATUS
                )
                return QueryOutcome(status, error=exc)
            self._observe_adaptive(plan, result)
            return _completed(result)


def _completed(result: ExecutionResult) -> QueryOutcome:
    status = QueryStatus.DEGRADED if result.degraded else QueryStatus.OK
    return QueryOutcome(status, result=result)


#: How ``try_sql`` classifies a failure (the nearest class in the error's
#: MRO wins).  User errors — unknown tables/columns, syntax — and failed
#: verification are not among the paper's failure modes: ERROR.
_FAILURE_STATUS = {
    FaultError: QueryStatus.FAILED_SITE,
    ExecutionTimeoutError: QueryStatus.TIMED_OUT,
    UnsupportedSqlError: QueryStatus.UNSUPPORTED,
    PlannerDefectError: QueryStatus.PLANNER_DEFECT,
    PlanningTimeoutError: QueryStatus.PLANNING_FAILED,
    ReproError: QueryStatus.ERROR,
}


def _empty_result(config: SystemConfig) -> ExecutionResult:
    from repro.cluster.scheduler import TaskGraph

    return ExecutionResult(
        rows=[],
        fields=[],
        task_graph=TaskGraph(),
        simulated_seconds=0.0,
        total_units=0.0,
        network_units=0.0,
        rows_shipped=0,
    )


def _text_result(
    config: SystemConfig, text: str, base: Optional[ExecutionResult] = None
) -> ExecutionResult:
    """A one-column ``PLAN`` result carrying rendered explain text.

    When ``base`` is the inner EXPLAIN ANALYZE execution, its simulated
    cost is propagated so harnesses account for the work actually done.
    """
    result = _empty_result(config)
    result.fields = ["PLAN"]
    result.rows = [(line,) for line in text.splitlines()]
    if base is not None:
        result.task_graph = base.task_graph
        result.simulated_seconds = base.simulated_seconds
        result.total_units = base.total_units
        result.network_units = base.network_units
        result.rows_shipped = base.rows_shipped
        result.degraded = base.degraded
    return result
