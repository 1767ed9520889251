"""Row and columnar backends account every operator identically.

Both executors bill through :mod:`repro.cost.charges` and record rows
through ``ExecContext.run_operator``, so beyond equal makespans the
per-operator ledger itself must match exactly: output rows and work
units per operator (in fragment-tree order), input rows per operator and
each fragment's memory high-water.  The golden EXPLAIN ANALYZE snapshots
round units to whole numbers; this compares the raw floats.
"""

import pytest

from repro.bench.tpch import load_tpch_cluster
from repro.bench.tpch.queries import ENABLED_QUERY_IDS, QUERIES
from repro.common.config import PRESETS

pytestmark = pytest.mark.columnar


def _ledger(result):
    """(operator type, rows out, units, rows in) per operator in
    fragment-tree order, plus per-fragment (id, mem_bytes)."""
    operators = [
        (
            type(op).__name__,
            *result.operator_actuals[id(op)],
            result.operator_rows_in[id(op)],
        )
        for fragment in result.fragment_trees
        for op in fragment.operators()
    ]
    memory = [(stat.fragment_id, stat.mem_bytes) for stat in result.fragments]
    return operators, memory


@pytest.mark.parametrize("preset", ["IC+", "IC+M"])
def test_per_operator_accounting_matches_across_backends(preset):
    factory = PRESETS[preset]
    row_cluster = load_tpch_cluster(
        factory(4).with_(execution_backend="row"), 0.02
    )
    col_cluster = load_tpch_cluster(
        factory(4).with_(execution_backend="columnar"), 0.02
    )
    for qid in ENABLED_QUERY_IDS:
        row_result = row_cluster.sql(QUERIES[qid].sql)
        col_result = col_cluster.sql(QUERIES[qid].sql)
        row_ops, row_mem = _ledger(row_result)
        col_ops, col_mem = _ledger(col_result)
        assert row_ops, f"Q{qid}: no operators recorded"
        assert row_ops == col_ops, f"Q{qid}: per-operator ledgers differ"
        assert row_mem == col_mem, f"Q{qid}: fragment memory differs"
        assert row_result.total_units == col_result.total_units
        assert row_result.network_units == col_result.network_units
