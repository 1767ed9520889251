"""``sql`` and ``try_sql`` share one statement dispatcher.

``sql`` runs the same path as ``try_sql`` and raises the classified
error; these regressions pin the places where two separate copies of the
dispatch used to disagree: CREATE VIEW, the ``verify_execution``
differential check, and errors from execution other than faults and
timeouts.
"""

import pytest

from helpers import make_company_cluster
from repro.common.config import SystemConfig
from repro.common.errors import PlanInvariantError, ResultMismatchError
from repro.core.cluster import QueryStatus
from repro.exec.engine import ExecutionEngine

SQL = (
    "select e.name, s.amount from emp e, sales s "
    "where e.emp_id = s.emp_id"
)


def test_sql_create_view_registers_the_view():
    cluster = make_company_cluster(
        SystemConfig.ic_plus(4).with_(views_supported=True)
    )
    result = cluster.sql(
        "create view rich as select name from emp where salary > 50000"
    )
    assert result.rows == []
    via_view = cluster.sql("select count(*) from rich").rows
    direct = cluster.sql("select count(*) from emp where salary > 50000").rows
    assert via_view == direct


def test_try_sql_under_verify_execution_reports_mismatch_as_error(
    monkeypatch,
):
    import repro.verify.differential as differential

    monkeypatch.setattr(
        differential,
        "compare_results",
        lambda engine_rows, reference_rows, logical=None: "forced",
    )
    cluster = make_company_cluster(
        SystemConfig.ic_plus(4).with_(verify_execution=True)
    )
    outcome = cluster.try_sql(SQL)
    assert outcome.status is QueryStatus.ERROR
    assert isinstance(outcome.error, ResultMismatchError)


def test_execution_invariant_error_is_an_error_outcome(monkeypatch):
    forced = PlanInvariantError("forced invariant violation")

    def failing_execute(self, plan, **kwargs):
        raise forced

    monkeypatch.setattr(ExecutionEngine, "execute", failing_execute)
    cluster = make_company_cluster(SystemConfig.ic_plus(4))
    outcome = cluster.try_sql(SQL)
    assert outcome.status is QueryStatus.ERROR
    assert outcome.error is forced
    # ``sql`` raises the very instance ``try_sql`` classified.
    with pytest.raises(PlanInvariantError) as excinfo:
        cluster.sql(SQL)
    assert excinfo.value is forced


def test_failure_before_any_fragment_leaves_no_stale_partial():
    # A plan rejected up front must not leave the previous failed
    # query's partial actuals behind for try_sql to harvest again.
    cluster = make_company_cluster(
        SystemConfig.ic_plus(4).with_(verify_execution=True)
    )
    plan = cluster.plan_sql(SQL)
    plan.rows_est = float("nan")
    engine = cluster._engine
    engine.last_partial = object()
    execute = getattr(
        ExecutionEngine.execute, "__wrapped__", ExecutionEngine.execute
    )
    with pytest.raises(PlanInvariantError):
        execute(engine, plan)
    assert engine.last_partial is None
