"""Unit tests for the vectorized columnar backend's building blocks.

Every claim here is of the same shape: the columnar kernel must agree
*exactly* — values, Python types, NULL placement, row order — with the
row-path code it replaces (``compile_expr``, ``sort_rows``, the LIKE
matcher).  Bit-identity is the backend's core contract; "close enough"
floats or ints silently widened to floats are bugs.
"""

import random

import numpy as np
import pytest

from repro.common.errors import ExecutionError
from repro.exec import columnar
from repro.exec.columnar import (
    ColumnBatch,
    column_from_values,
    concat_batches,
    concat_columns,
    eval_expr,
    execute_columnar,
    from_rows,
    sort_batch,
)
from repro.exec.operators import ExecContext, execute_node, sort_rows
from repro.exec.physical import PhysHashJoin, PhysProject, PhysValues
from repro.rel.expr import (
    BinaryOp,
    CaseExpr,
    ColRef,
    FuncCall,
    InList,
    IsNull,
    LikeExpr,
    Literal,
    UnaryOp,
    compile_expr,
)
from repro.rel.logical import JoinType
from repro.rel.traits import Distribution
from repro.storage.store import DataStore

pytestmark = pytest.mark.columnar


class TestColumnFromValues:
    def test_kinds(self):
        assert column_from_values([1, 2, 3]).kind == "i"
        assert column_from_values([1.5, 2.0]).kind == "f"
        assert column_from_values(["a", "bc"]).kind == "U"
        assert column_from_values([True, False]).kind == "b"
        assert column_from_values([1, "a"]).kind == "O"
        # int-vs-float is a *type* distinction SQL results preserve.
        assert column_from_values([1, 2.0]).kind == "O"

    def test_nulls_get_a_mask(self):
        col = column_from_values([1, None, 3])
        assert col.kind == "i"
        assert col.mask is not None and col.mask.tolist() == [False, True, False]
        assert col.to_list() == [1, None, 3]

    def test_all_null_column_is_object(self):
        col = column_from_values([None, None])
        assert col.to_list() == [None, None]

    def test_wide_strings_demote_to_object(self):
        wide = "x" * 64
        col = column_from_values(["a", wide])
        assert col.kind == "O"
        assert col.to_list() == ["a", wide]

    def test_huge_int_falls_back_to_object(self):
        big = 2**70
        col = column_from_values([1, big])
        assert col.kind == "O"
        assert col.to_list() == [1, big]


class TestBatchRoundTrip:
    def test_to_rows_preserves_types_exactly(self):
        rows = [
            (1, 1.5, "a", True, None),
            (2, -0.0, "bb", False, "x"),
            (None, None, None, None, None),
        ]
        out = from_rows(rows, 5).to_rows()
        assert out == rows
        for got, want in zip(out, rows):
            assert [type(v) for v in got] == [type(v) for v in want]

    def test_zero_width_rows(self):
        rows = [(), (), ()]
        assert from_rows(rows, 0).to_rows() == rows

    def test_concat_mixed_kind_columns_keeps_ints_ints(self):
        # One part inferred int64, the other float64: naive
        # np.concatenate would rewrite 1 -> 1.0.
        a = column_from_values([1, 2])
        b = column_from_values([1.5, None])
        merged = concat_columns([a, b])
        assert merged.to_list() == [1, 2, 1.5, None]
        assert [type(v) for v in merged.to_list()[:3]] == [int, int, float]

    def test_concat_batches_matches_from_rows(self):
        rows1 = [(1, "a"), (2, None)]
        rows2 = [(3.5, "b" * 50)]
        merged = concat_batches([from_rows(rows1, 2), from_rows(rows2, 2)], 2)
        assert merged.to_rows() == from_rows(rows1 + rows2, 2).to_rows()


def _assert_matches_row_path(expr, rows, width):
    batch = from_rows(rows, width)
    got = eval_expr(expr, batch).to_list()
    fn = compile_expr(expr)
    want = [fn(row) for row in rows]
    assert got == want, f"{expr.digest()}: {got} != {want}"
    for g, w in zip(got, want):
        assert type(g) is type(w), f"{expr.digest()}: {type(g)} vs {type(w)}"


class TestEvalExpr:
    ROWS = [
        (1, 2.5, "apple", None, True),
        (2, None, "banana", 7, False),
        (None, -1.0, None, 0, None),
        (4, 0.0, "cherry pie", -3, True),
    ]

    def check(self, expr):
        _assert_matches_row_path(expr, self.ROWS, 5)

    def test_arithmetic_and_comparisons(self):
        c0, c1 = ColRef(0), ColRef(1)
        for op in ("+", "-", "*", "<", "<=", ">", ">=", "=", "<>"):
            self.check(BinaryOp(op, c0, Literal(2)))
            self.check(BinaryOp(op, c1, c0))

    def test_division_short_circuits_like_rows(self):
        # x = 0 OR 1 / x > 0 must not raise on the x = 0 row.
        c3 = ColRef(3)
        self.check(
            BinaryOp(
                "OR",
                BinaryOp("=", c3, Literal(0)),
                BinaryOp(">", BinaryOp("/", Literal(1), c3), Literal(0)),
            )
        )

    def test_and_or_null_semantics(self):
        c4, c0 = ColRef(4), ColRef(0)
        gt = BinaryOp(">", c0, Literal(1))
        self.check(BinaryOp("AND", c4, gt))
        self.check(BinaryOp("OR", c4, gt))

    def test_is_null_and_not(self):
        self.check(IsNull(ColRef(1)))
        self.check(IsNull(ColRef(1), negated=True))
        self.check(UnaryOp("NOT", ColRef(4)))

    def test_in_list(self):
        self.check(InList(ColRef(0), (1, 4)))
        self.check(InList(ColRef(2), ("apple", "kiwi"), negated=True))

    def test_case(self):
        expr = CaseExpr(
            [(BinaryOp(">", ColRef(0), Literal(1)), Literal("big"))],
            Literal("small"),
        )
        self.check(expr)

    def test_functions(self):
        rows = [("1995-03-17",), ("2024-12-01",), (None,)]
        for fname in ("EXTRACT_YEAR", "EXTRACT_MONTH"):
            _assert_matches_row_path(FuncCall(fname, (ColRef(0),)), rows, 1)
        self.check(FuncCall("ABS", (ColRef(1),)))
        self.check(FuncCall("UPPER", (ColRef(2),)))


class TestVectorizedLike:
    PATTERNS = [
        "%", "a%", "%e", "%an%", "a%e", "%a%n%", "apple", "", "%%",
        "_pple", "a__le", "%p_e",
    ]

    def test_like_fuzz_matches_row_matcher(self):
        rng = random.Random(42)
        alphabet = "abcnple "
        for trial in range(200):
            pattern = rng.choice(self.PATTERNS)
            values = [
                None
                if rng.random() < 0.15
                else "".join(
                    rng.choice(alphabet) for _ in range(rng.randrange(0, 12))
                )
                for _ in range(rng.randrange(1, 9))
            ]
            # Exercise both the fixed-width and the demoted object path.
            if trial % 2:
                values = [
                    v + "x" * 40 if v is not None and trial % 4 == 1 else v
                    for v in values
                ]
            rows = [(v,) for v in values]
            expr = LikeExpr(ColRef(0), pattern, negated=bool(trial % 3 == 0))
            _assert_matches_row_path(expr, rows, 1)


class TestSortBatch:
    def test_matches_sort_rows_with_nulls_and_desc(self):
        rng = random.Random(7)
        for _ in range(50):
            rows = [
                (
                    rng.choice([None, 1, 2, 3]),
                    rng.choice([None, "a", "b"]),
                    rng.random(),
                )
                for _ in range(rng.randrange(0, 20))
            ]
            keys = [
                (rng.randrange(3), rng.random() < 0.5)
                for _ in range(rng.randrange(1, 3))
            ]
            got = sort_batch(from_rows(rows, 3), keys).to_rows()
            assert got == sort_rows(rows, keys)

    def test_stability(self):
        rows = [(1, i) for i in range(10)] + [(0, i) for i in range(10)]
        got = sort_batch(from_rows(rows, 2), [(0, True)]).to_rows()
        assert got == sort_rows(rows, [(0, True)])
        assert [r[1] for r in got[:10]] == list(range(10))


class TestBatchErrors:
    def test_unmaterialised_column_raises(self):
        batch = ColumnBatch([None, column_from_values([1])], 1)
        with pytest.raises(ExecutionError):
            batch.column(0)
        with pytest.raises(ExecutionError):
            batch.to_rows()


#: One column of each kind — b, i, f, U and O (wide strings) — with NULLs.
KIND_ROWS = [
    (True, 1, 1.5, "a", "w" * 40),
    (False, None, -0.0, "bb", None),
    (None, 3, None, None, "x" * 50),
    (True, -4, 2.25, "ccc", "y" * 33),
    (False, 5, 0.5, "d", "z" * 60),
]


def _assert_same_columns(got: ColumnBatch, want: ColumnBatch):
    assert got.length == want.length
    for i in range(want.width):
        g, w = got.column(i), want.column(i)
        assert g.kind == w.kind
        assert g.values.tolist() == w.values.tolist()
        assert g.null_mask().tolist() == w.null_mask().tolist()
    assert got.to_rows() == want.to_rows()
    for g_row, w_row in zip(got.to_rows(), want.to_rows()):
        assert [type(v) for v in g_row] == [type(v) for v in w_row]


def _eager_take(batch: ColumnBatch, indices) -> ColumnBatch:
    idx = np.asarray(indices, dtype=np.int64)
    return ColumnBatch(
        [batch.column(i).take(idx) for i in range(batch.width)], len(idx)
    )


def _values_join(left_rows, right_rows, join_type, exprs=None):
    join = PhysHashJoin(
        PhysValues(left_rows, ("lk", "lpayload")),
        PhysValues(right_rows, ("rk", "rname")),
        [(0, 0)], None, join_type, Distribution.single(),
    )
    if exprs is None:
        return join
    return PhysProject(join, exprs, [f"c{i}" for i in range(len(exprs))])


def _run_both(node):
    ctx = ExecContext(DataStore(site_count=1), limit_units=1e9)
    want = execute_node(node, 0, ctx)
    ctx = ExecContext(DataStore(site_count=1), limit_units=1e9)
    return execute_columnar(node, 0, ctx), want


class TestDeferredGathers:
    """Takes compose pending selections; reads gather them.  Every
    deferred result must equal the eager gather it replaces."""

    def test_take_of_take_equals_eager_gather(self):
        rng = random.Random(3)
        base = from_rows(KIND_ROWS, 5)
        for _ in range(20):
            first = [rng.randrange(5) for _ in range(rng.randrange(0, 8))]
            second = (
                [rng.randrange(len(first)) for _ in range(rng.randrange(0, 8))]
                if first else []
            )
            deferred = base.take(np.asarray(first, np.int64)).take(
                np.asarray(second, np.int64)
            )
            # One composed selection for the whole batch, nothing gathered.
            assert len({id(s) for s in deferred.sels}) == 1
            assert all(c is b for c, b in zip(deferred.columns, base.columns))
            eager = _eager_take(_eager_take(base, first), second)
            _assert_same_columns(deferred, eager)

    def test_slice_of_a_take_equals_eager_gather(self):
        base = from_rows(KIND_ROWS, 5)
        perm = np.asarray([4, 2, 0, 3, 1], np.int64)
        deferred = base.take(perm).slice(1, 4)
        _assert_same_columns(deferred, _eager_take(base, [2, 0, 3]))

    def test_read_gathers_once_and_caches(self):
        deferred = from_rows(KIND_ROWS, 5).take(np.asarray([1, 0], np.int64))
        col = deferred.column(1)
        assert deferred.sels[1] is None and deferred.column(1) is col
        assert deferred.sels[0] is not None  # unread columns stay pending

    def test_left_join_pads_compose_with_pending_selections(self):
        right_base = from_rows([(7, "p"), (8, None), (9, "r")], 2)
        right = right_base.take(np.asarray([2, 1], np.int64))  # pending
        left = from_rows([(1,), (2,), (3,)], 1)
        out = columnar._joined_batch(
            left, right,
            np.asarray([0, 1, 2], np.int64), np.asarray([1, -1, 0], np.int64),
            padded=True,
        )
        assert out.to_rows() == [(1, 8, None), (2, None, None), (3, 9, "r")]
        # A take of the padded batch keeps the pads where they moved.
        again = out.take(np.asarray([1, 2, 1], np.int64))
        assert again.to_rows() == [
            (2, None, None), (3, 9, "r"), (2, None, None)
        ]

    def test_left_join_matches_row_interpreter(self):
        left_rows = [(1, "a"), (2, "b"), (None, "c"), (3, "d")]
        right_rows = [(3, "x"), (1, "y"), (3, "z")]
        got, want = _run_both(
            _values_join(left_rows, right_rows, JoinType.LEFT)
        )
        assert got == want
        assert want[1] == (2, "b", None, None)

    def test_left_join_against_an_empty_right_side(self):
        node = _values_join(
            [(1, "a"), (2, "b")], [], JoinType.LEFT,
            [ColRef(3), ColRef(0), ColRef(2)],
        )
        got, want = _run_both(node)
        assert got == want == [(None, 1, None), (None, 2, None)]
        left = from_rows([(1,), (2,)], 1)
        out = columnar._joined_batch(
            left, from_rows([], 2),
            np.asarray([0, 1], np.int64), np.asarray([-1, -1], np.int64),
            padded=True,
        )
        assert [out.column(i).kind for i in (1, 2)] == ["O", "O"]
        assert out.to_rows() == [(1, None, None), (2, None, None)]

    def test_combined_batch_keeps_only_referenced_columns(self):
        left = from_rows([(1, "a", 1.5), (2, "b", 2.5)], 3)
        right = from_rows([(10, "x"), (20, None)], 2)
        li = np.asarray([1, 0, 1], np.int64)
        ri = np.asarray([0, 1, 1], np.int64)
        combined = columnar._combined_batch(left, right, li, ri, {0, 4})
        for absent in (1, 2, 3):
            assert combined.columns[absent] is None
            with pytest.raises(ExecutionError):
                combined.column(absent)
        with pytest.raises(ExecutionError):
            combined.to_rows()
        assert combined.column(0).to_list() == [2, 1, 2]
        assert combined.column(4).to_list() == ["x", None, None]
        # Placeholders survive a further take (a CASE/AND subset).
        sub = combined.take(np.asarray([2], np.int64))
        assert sub.columns[1] is None
        assert sub.column(4).to_list() == [None]
        expr = BinaryOp(">", ColRef(0), Literal(1))
        assert eval_expr(expr, combined).to_list() == [True, False, True]

    def test_like_on_a_deferred_wide_string_column(self):
        rows = [("x" * 40 + "needle",), ("y" * 40,), ("z" * 40 + "needle",)]
        base = from_rows(rows, 1)
        assert base.column(0).kind == "O"
        expr = LikeExpr(ColRef(0), "%needle")
        assert eval_expr(expr, base).to_list() == [True, False, True]
        assert base.column(0)._ucache is not None
        # The taken rows get their own U view, never the base's cache.
        deferred = base.take(np.asarray([1, 2, 1, 0], np.int64))
        want = [False, True, False, True]
        assert eval_expr(expr, deferred).to_list() == want
        resolved = deferred.column(0)
        assert resolved is not base.column(0)
        assert resolved._ucache is not None
        assert len(resolved._ucache) == 4
        assert eval_expr(expr, deferred).to_list() == want

    def test_project_over_hash_join_never_gathers_unused_column(
        self, monkeypatch
    ):
        gathered = []
        original = columnar._Selection.gather

        def recording_gather(self, base):
            gathered.append(base.to_list())
            return original(self, base)

        monkeypatch.setattr(columnar._Selection, "gather", recording_gather)
        left_rows = [(k % 4, f"unused-{k}") for k in range(12)]
        right_rows = [(k, f"name-{k}") for k in (2, 0, 3, 2)]
        node = _values_join(
            left_rows, right_rows, JoinType.INNER, [ColRef(0), ColRef(3)]
        )
        got, want = _run_both(node)
        assert got == want and len(got) == 12
        assert gathered, "the projected join columns are gathered at to_rows"
        for values in gathered:
            assert not any(
                isinstance(v, str) and v.startswith("unused-")
                for v in values
            ), "the unreferenced left payload column was gathered"


class TestIntegerKeyProbe:
    """Single-pair integer equi-joins probe on the int64 values."""

    def test_null_keys_match_nothing_not_even_the_fill_value(self):
        # A NULL int key stores fill 0 under its mask: it must neither
        # build nor probe, even against a real key 0.
        left = [(0, "a"), (None, "b"), (2, "c")]
        right = [(None, "x"), (0, "y"), (2, "z"), (0, "w")]
        got, want = _run_both(_values_join(left, right, JoinType.INNER))
        assert got == want == [
            (0, "a", 0, "y"), (0, "a", 0, "w"), (2, "c", 2, "z")
        ]
        got, want = _run_both(_values_join(left, right, JoinType.LEFT))
        assert got == want
        assert want[2] == (None, "b", None, None)

    def test_keys_beyond_float_precision_stay_distinct(self):
        big = 2**53
        left = [(big, "a"), (5, "b"), (-big - 1, "c")]
        right = [(big + 1, "x"), (5, "y"), (-big, "z"), (big, "w")]
        got, want = _run_both(_values_join(left, right, JoinType.INNER))
        assert got == want == [(big, "a", big, "w"), (5, "b", 5, "y")]
