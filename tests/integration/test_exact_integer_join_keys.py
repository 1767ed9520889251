"""Join-key equality is exact for integers beyond float64 precision.

``2**53`` and ``2**53 + 1`` are distinct integers but the same float64.
A join that widens integer keys to floats before matching them pairs
rows the row backend (Python ``==``) keeps apart.  These tests pin the
exact answer on both execution backends, at 1 site — where both keys
land on the same site and only the join kernel decides — and at 4
sites, for hash joins on one key, on two keys, on an INTEGER/DOUBLE key
pair, and for the same predicate evaluated by a nested-loop join.

The expectations are hardcoded (not oracle-relative) so both backends
regressing together still fails the build.
"""

import pytest

from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common.config import PRESETS
from repro.core.cluster import IgniteCalciteCluster

pytestmark = pytest.mark.columnar

BIG = 2**53
#: Enough rows with disjoint keys that the planner builds hash joins.
FILLER = 2000


def _table(cluster, name, key_type, rows):
    cluster.create_table(
        TableSchema(
            name,
            [Column("id", ColumnType.INTEGER), Column("k", key_type)],
            ["id"],
        ),
        rows,
    )


@pytest.fixture(params=[1, 4], ids=["1site", "4sites"])
def key_cluster(request, execution_backend):
    config = PRESETS["IC+"](request.param).with_(
        execution_backend=execution_backend
    )
    cluster = IgniteCalciteCluster(config)
    filler = range(10, 10 + FILLER)
    _table(cluster, "a", ColumnType.INTEGER,
           [(1, BIG), (2, 5)] + [(i, 1_000 + i) for i in filler])
    _table(cluster, "b", ColumnType.INTEGER,
           [(1, BIG + 1), (2, 5)] + [(i, 100_000 + i) for i in filler])
    _table(cluster, "c", ColumnType.DOUBLE,
           [(1, float(BIG)), (2, 5.0)] + [(i, 1e7 + i) for i in filler])
    return cluster


def _rows(cluster, sql, operator):
    assert operator in cluster.explain(sql), f"{sql}: expected a {operator}"
    return sorted(cluster.sql(sql).rows)


class TestExactIntegerJoinKeys:
    def test_single_int_key_hash_join(self, key_cluster):
        sql = (
            "select a.id, b.id from a, b "
            "where a.k = b.k and a.id < 1000"
        )
        assert _rows(key_cluster, sql, "HashJoin") == [(2, 2)]

    def test_two_key_hash_join(self, key_cluster):
        sql = "select a.id, b.id from a join b on a.k = b.k and a.id = b.id"
        assert _rows(key_cluster, sql, "HashJoin") == [(2, 2)]

    def test_int_double_key_hash_join_follows_python_equality(
        self, key_cluster
    ):
        # 2**53 == 2.0**53 holds exactly; 2**53 + 1 == 2.0**53 does not.
        assert _rows(
            key_cluster, "select a.id, c.id from a, c where a.k = c.k",
            "HashJoin",
        ) == [(1, 1), (2, 2)]
        assert _rows(
            key_cluster, "select b.id, c.id from b, c where b.k = c.k",
            "HashJoin",
        ) == [(2, 2)]

    def test_nested_loop_join_predicate_is_exact(self, key_cluster):
        assert _rows(
            key_cluster,
            "select a.id, b.id from a, b where a.k = b.k and a.id < 3",
            "NestedLoopJoin",
        ) == [(2, 2)]
        assert _rows(
            key_cluster,
            "select b.id, c.id from b, c where b.k = c.k and b.id < 3",
            "NestedLoopJoin",
        ) == [(2, 2)]
