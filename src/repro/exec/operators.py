"""The operator interpreter: executes one fragment's tree at one site.

Operators consume and produce lists of Python tuples.  Every operator
charges *work units*, computed by :mod:`repro.cost.charges` from the rows
it saw, to the execution context; the simulated cluster turns them into
simulated time.  The context enforces the runtime limit — the analogue of
the paper's four-hour cap — and nested-loop joins pre-check their pair
count so a doomed baseline plan (Q17/Q19/Q21 on IC) aborts immediately
instead of grinding.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError, ExecutionTimeoutError
from repro.common.ordering import NullsLast, ordering_key
from repro.cost import charges
from repro.exec.aggregates import AggregateEvaluator
from repro.exec.fragments import PhysReceiver
from repro.exec.physical import (
    AggPhase,
    PhysAggregateBase,
    PhysFilter,
    PhysHashAggregate,
    PhysHashJoin,
    PhysIndexScan,
    PhysLimit,
    PhysMergeJoin,
    PhysNestedLoopJoin,
    PhysNode,
    PhysProject,
    PhysSort,
    PhysSortAggregate,
    PhysTableScan,
    PhysValues,
)
from repro.obs.metrics import get_registry
from repro.rel.expr import compile_expr
from repro.rel.logical import JoinType
from repro.storage.adapters import compile_pushdown
from repro.storage.store import DataStore

Row = Tuple
Rows = List[Row]


class ExecContext:
    """Shared state for one query execution: data, buffers, accounting."""

    def __init__(
        self,
        store: DataStore,
        limit_units: float,
        alive_sites: Optional[Sequence[int]] = None,
    ):
        self.store = store
        self.limit_units = limit_units
        self.total_units = 0.0
        #: (node id, site) -> work units, for task building.
        self.op_units: Dict[Tuple[int, int], float] = {}
        #: (node id, site) -> actual output rows (EXPLAIN ANALYZE).
        self.op_rows: Dict[Tuple[int, int], int] = {}
        #: (node id, site) -> actual input rows, attributed by the
        #: interpreter: an operator's input is the sum of its children's
        #: outputs plus, for receivers, the rows delivered to it.  The
        #: metric-conservation property tests pin rows_in == sum(rows_out
        #: of children) per operator.
        self.op_rows_in: Dict[Tuple[int, int], int] = {}
        #: Interpreter call stack of nodes (per site, execution is
        #: sequential) — how a child's output is attributed as its
        #: caller's input.
        self._op_stack: List[PhysNode] = []
        #: The fragment currently being interpreted (set by the engine).
        self.current_fragment: Optional[int] = None
        #: (fragment id, site) -> peak buffered bytes (hash tables, sort
        #: buffers, receiver concatenation) observed while interpreting.
        self.fragment_memory: Dict[Tuple[int, int], float] = {}
        #: (exchange id, site) -> list of inbound row streams.
        self.inbound: Dict[Tuple[int, int], List[Rows]] = {}
        #: total network units charged (reporting).
        self.network_units = 0.0
        #: rows shipped over the network (reporting).
        self.rows_shipped = 0
        #: Surviving sites (None = every site is up).  When a site is dead,
        #: its partitions fail over to survivors via ``failover_owner`` so
        #: scans and hash routing agree on placement.
        self.alive_sites: Optional[Tuple[int, ...]] = (
            tuple(alive_sites) if alive_sites is not None else None
        )

    def partitions_for(self, data, site: int) -> List[int]:
        """Partitions ``site`` reads for ``data``, including failed-over
        partitions of dead sites (the re-partitioned inputs)."""
        if self.alive_sites is None or data.schema.replicated:
            return data.partitions_at_site(site)
        alive = self.alive_sites
        if len(alive) == data.site_count:
            return data.partitions_at_site(site)
        from repro.faults.injector import failover_owner

        return [
            p
            for p in range(data.partition_count)
            if failover_owner(p, data.site_count, alive) == site
        ]

    def run_operator(self, handlers, node: PhysNode, site: int, size=len):
        """Interpret ``node`` with its handler in ``handlers``; account it.

        The one bookkeeping path both backends share: ``size(output)`` rows
        are recorded as the operator's output and as its caller's input.
        """
        handler = handlers.get(type(node))
        if handler is None:
            raise ExecutionError(f"no interpreter for {type(node).__name__}")
        stack = self._op_stack
        caller = stack[-1] if stack else None
        stack.append(node)
        try:
            out = handler(node, site, self)
        finally:
            stack.pop()
        rows = size(out)
        key = (id(node), site)
        self.op_rows[key] = self.op_rows.get(key, 0) + rows
        if caller is not None:
            self.record_input(caller, site, rows)
        return out

    def charge(self, node: PhysNode, site: int, units: float) -> None:
        self.total_units += units
        key = (id(node), site)
        self.op_units[key] = self.op_units.get(key, 0.0) + units
        if self.total_units > self.limit_units:
            raise ExecutionTimeoutError(
                "simulated execution exceeded the runtime limit",
                limit=self.limit_units,
                elapsed=self.total_units,
            )

    def precheck(self, node: PhysNode, site: int, units: float) -> None:
        """Abort *before* doing work that would certainly exceed the limit."""
        if self.total_units + units > self.limit_units:
            self.charge(node, site, units)  # raises

    def record_input(self, node: PhysNode, site: int, rows: int) -> None:
        key = (id(node), site)
        self.op_rows_in[key] = self.op_rows_in.get(key, 0) + rows

    def note_memory(self, site: int, byte_count: float) -> None:
        """Report a buffer allocation; keeps the per-fragment high water."""
        if self.current_fragment is None:
            return
        key = (self.current_fragment, site)
        current = self.fragment_memory.get(key, 0.0)
        if byte_count > current:
            self.fragment_memory[key] = byte_count

    def deliver(self, exchange_id: int, site: int, stream: Rows) -> None:
        self.inbound.setdefault((exchange_id, site), []).append(stream)


def _compiled(node: PhysNode, attr: str, factory: Callable):
    cached = node.__dict__.get(attr)
    if cached is None:
        cached = factory()
        node.__dict__[attr] = cached
    return cached


def execute_node(node: PhysNode, site: int, ctx: ExecContext) -> Rows:
    """Interpret ``node`` at ``site``, returning its output rows."""
    return ctx.run_operator(_HANDLERS, node, site)


# -- scans --------------------------------------------------------------------


_PUSHDOWN_UNSET = object()


def compiled_pushdown(node: PhysTableScan):
    """Cached :func:`compile_pushdown` for a scan node (None when bare)."""
    cached = node.__dict__.get("_pushed_scan", _PUSHDOWN_UNSET)
    if cached is _PUSHDOWN_UNSET:
        cached = compile_pushdown(node)
        node.__dict__["_pushed_scan"] = cached
    return cached


def uses_adapter(node: PhysTableScan, data) -> bool:
    """Whether ``node`` scans through its table's adapter: every
    non-native table, and native ones with something pushed down."""
    adapter = data.adapter
    return adapter is not None and (
        adapter.name != "native" or compiled_pushdown(node) is not None
    )


def adapter_scan(node: PhysTableScan, site: int, ctx: ExecContext, data) -> Rows:
    """Scan ``site``'s partitions through the adapter, honouring pushdown.

    The charge and the ``adapter.rows_scanned`` metric bill the source
    rows read *before* any pushed filter/project/fetch applied.  Shared
    by the row and columnar backends so their simulated times and scan
    traces stay bit-identical.
    """
    pushed = compiled_pushdown(node)
    adapter = data.adapter
    partitions = ctx.partitions_for(data, site)
    scanned = 0
    rows: Rows = []
    for partition in partitions:
        read, out = adapter.scan_partition(data, partition, pushed)
        scanned += read
        rows.extend(out)
    ctx.record_input(node, site, scanned)
    ctx.charge(
        node,
        site,
        charges.adapter_scan(
            adapter.costs, scanned, len(rows), max(1, len(partitions))
        ),
    )
    registry = get_registry()
    registry.inc(
        "adapter.rows_scanned", scanned, adapter=adapter.name, table=node.table
    )
    registry.inc(
        "adapter.rows_out", len(rows), adapter=adapter.name, table=node.table
    )
    return rows


def _exec_table_scan(node: PhysTableScan, site: int, ctx: ExecContext) -> Rows:
    data = ctx.store.table(node.table)
    if uses_adapter(node, data):
        return adapter_scan(node, site, ctx, data)
    # The historical fast path: native tables with nothing pushed are
    # read straight out of the partition lists.
    rows: Rows = []
    for partition in ctx.partitions_for(data, site):
        rows.extend(data.partitions[partition])
    ctx.charge(node, site, charges.table_scan(len(rows)))
    return rows


def _exec_index_scan(node: PhysIndexScan, site: int, ctx: ExecContext) -> Rows:
    data = ctx.store.table(node.table)
    indexes = data.index(node.index_name)
    key_positions = indexes[0].key_positions if indexes else ()

    def sort_key(row: Row):
        return ordering_key(row, key_positions)

    if node.is_range_scan:
        streams = [
            indexes[partition].range_scan(
                node.low, node.high, node.low_inclusive, node.high_inclusive
            )
            for partition in ctx.partitions_for(data, site)
        ]
    else:
        streams = [
            indexes[partition].scan()
            for partition in ctx.partitions_for(data, site)
        ]
    if len(streams) == 1:
        rows = list(streams[0])
    else:
        rows = list(heapq.merge(*streams, key=sort_key))
    ctx.charge(node, site, charges.index_scan(len(rows)))
    return rows


def _exec_receiver(node: PhysReceiver, site: int, ctx: ExecContext) -> Rows:
    streams = ctx.inbound.get((node.exchange_id, site), [])
    if node.collation.is_sorted and len(streams) > 1:
        keys = node.collation.keys
        if all(asc for _, asc in keys):
            positions = tuple(k for k, _ in keys)
            rows = list(
                heapq.merge(
                    *streams,
                    key=lambda row: ordering_key(row, positions),
                )
            )
        else:
            # Descending keys have no natural heapq ordering for arbitrary
            # types; the streams are already sorted, so a stable multi-key
            # re-sort restores the global order.
            rows = sort_rows(
                [row for stream in streams for row in stream], keys
            )
    else:
        rows = [row for stream in streams for row in stream]
    ctx.record_input(node, site, sum(len(s) for s in streams))
    ctx.note_memory(site, charges.buffer_bytes(len(rows), node.width))
    ctx.charge(node, site, charges.receiver(len(rows)))
    return rows


# -- row-at-a-time operators ------------------------------------------------------


def _exec_filter(node: PhysFilter, site: int, ctx: ExecContext) -> Rows:
    rows = execute_node(node.input, site, ctx)
    predicate = _compiled(node, "_predicate", lambda: compile_expr(node.condition))
    out = [row for row in rows if predicate(row)]
    ctx.charge(node, site, charges.filter(len(rows)))
    return out


def _exec_project(node: PhysProject, site: int, ctx: ExecContext) -> Rows:
    rows = execute_node(node.input, site, ctx)
    fns = _compiled(
        node, "_fns", lambda: [compile_expr(e) for e in node.exprs]
    )
    out = [tuple(fn(row) for fn in fns) for row in rows]
    ctx.charge(node, site, charges.project(len(rows)))
    return out


def _exec_values(node: PhysValues, site: int, ctx: ExecContext) -> Rows:
    ctx.charge(node, site, charges.values(len(node.rows)))
    return list(node.rows)


# -- joins ------------------------------------------------------------------------


def _exec_nested_loop_join(
    node: PhysNestedLoopJoin, site: int, ctx: ExecContext
) -> Rows:
    left = execute_node(node.left, site, ctx)
    right = execute_node(node.right, site, ctx)
    # Pre-check: a hopeless nested-loop plan must abort without grinding
    # through the cross product (the paper's four-hour timeout analogue).
    ctx.precheck(node, site, charges.nested_loop_pairs(len(left), len(right)))
    condition = node.condition
    predicate = (
        _compiled(node, "_predicate", lambda: compile_expr(condition))
        if condition is not None
        else None
    )
    out: Rows = []
    join_type = node.join_type
    pad = (None,) * node.right.width
    for left_row in left:
        matched = False
        for right_row in right:
            combined = left_row + right_row
            if predicate is None or predicate(combined):
                matched = True
                if join_type is JoinType.INNER or join_type is JoinType.LEFT:
                    out.append(combined)
                elif join_type is JoinType.SEMI:
                    break
                else:  # ANTI: one match disqualifies the left row
                    break
        if join_type is JoinType.SEMI and matched:
            out.append(left_row)
        elif join_type is JoinType.ANTI and not matched:
            out.append(left_row)
        elif join_type is JoinType.LEFT and not matched:
            out.append(left_row + pad)
    ctx.charge(
        node, site, charges.nested_loop_join(len(left), len(right), len(out))
    )
    return out


def _exec_hash_join(node: PhysHashJoin, site: int, ctx: ExecContext) -> Rows:
    left = execute_node(node.left, site, ctx)
    right = execute_node(node.right, site, ctx)
    left_keys = tuple(lk for lk, _ in node.pairs)
    right_keys = tuple(rk for _, rk in node.pairs)
    residual = node.residual
    residual_fn = (
        _compiled(node, "_residual", lambda: compile_expr(residual))
        if residual is not None
        else None
    )
    # Build phase on the right input (Section 5.1.2).  NULL join keys are
    # never inserted: SQL ``NULL = NULL`` is not true, so a None key can
    # match nothing — probes with a None component miss the table outright.
    table: Dict[Tuple, Rows] = {}
    if len(right_keys) == 1:
        rk = right_keys[0]
        for row in right:
            key = row[rk]
            if key is not None:
                table.setdefault(key, []).append(row)

        def probe_key(row: Row, lk=left_keys[0]):
            return row[lk]

    else:
        for row in right:
            key = tuple(row[k] for k in right_keys)
            if None not in key:
                table.setdefault(key, []).append(row)

        def probe_key(row: Row, lks=left_keys):
            return tuple(row[k] for k in lks)

    ctx.note_memory(site, charges.buffer_bytes(len(right), node.right.width))
    out: Rows = []
    join_type = node.join_type
    pad = (None,) * node.right.width
    matches_scanned = 0
    for left_row in left:
        bucket = table.get(probe_key(left_row))
        matched = False
        if bucket:
            if residual_fn is None:
                matched = True
                if join_type.projects_right:
                    for right_row in bucket:
                        out.append(left_row + right_row)
                    matches_scanned += len(bucket)
            else:
                for right_row in bucket:
                    combined = left_row + right_row
                    matches_scanned += 1
                    if residual_fn(combined):
                        matched = True
                        if join_type.projects_right:
                            out.append(combined)
                        else:
                            break
        if join_type is JoinType.SEMI and matched:
            out.append(left_row)
        elif join_type is JoinType.ANTI and not matched:
            out.append(left_row)
        elif join_type is JoinType.LEFT and not matched:
            out.append(left_row + pad)
    ctx.charge(
        node,
        site,
        charges.hash_join(len(left), len(right), matches_scanned, len(out)),
    )
    return out


def _exec_merge_join(node: PhysMergeJoin, site: int, ctx: ExecContext) -> Rows:
    left = execute_node(node.left, site, ctx)
    right = execute_node(node.right, site, ctx)
    left_keys = tuple(lk for lk, _ in node.pairs)
    right_keys = tuple(rk for _, rk in node.pairs)
    residual = node.residual
    residual_fn = (
        _compiled(node, "_residual", lambda: compile_expr(residual))
        if residual is not None
        else None
    )

    def lkey(row: Row):
        return tuple(row[k] for k in left_keys)

    # Ordered comparisons go through the engine's total order (NULLS
    # LAST, mixed-type safe) so a None key can't raise TypeError.
    def rkey(row: Row):
        return ordering_key(row, right_keys)

    out: Rows = []
    join_type = node.join_type
    pad = (None,) * node.right.width
    i = j = 0
    n_left, n_right = len(left), len(right)
    while i < n_left:
        raw = lkey(left[i])
        key = tuple(NullsLast(v) for v in raw)
        while j < n_right and rkey(right[j]) < key:
            j += 1
        if None in raw:
            # SQL NULL = NULL is not true: a NULL-keyed left row matches
            # no right block (and NULL-keyed right rows match nothing).
            block_start = block_end = j
        else:
            block_start = j
            block_end = j
            while block_end < n_right and rkey(right[block_end]) == key:
                block_end += 1
        # Process every left row sharing this key against the block.
        while i < n_left and lkey(left[i]) == raw:
            left_row = left[i]
            matched = False
            for bi in range(block_start, block_end):
                combined = left_row + right[bi]
                if residual_fn is None or residual_fn(combined):
                    matched = True
                    if join_type.projects_right:
                        out.append(combined)
                    else:
                        break
            if join_type is JoinType.SEMI and matched:
                out.append(left_row)
            elif join_type is JoinType.ANTI and not matched:
                out.append(left_row)
            elif join_type is JoinType.LEFT and not matched:
                out.append(left_row + pad)
            i += 1
    ctx.charge(node, site, charges.merge_join(n_left, n_right, len(out)))
    return out


# -- sort / limit ---------------------------------------------------------------------


def sort_rows(rows: Rows, keys: Sequence[Tuple[int, bool]]) -> Rows:
    """Stable multi-key sort supporting mixed ASC/DESC on any type.

    Keys compare through the engine's total order: NULLs sort last under
    ASC (first under DESC) and mixed-type keys cannot raise TypeError.
    """
    result = list(rows)
    for index, ascending in reversed(list(keys)):
        result.sort(
            key=lambda row, i=index: NullsLast(row[i]),
            reverse=not ascending,
        )
    return result


def _exec_sort(node: PhysSort, site: int, ctx: ExecContext) -> Rows:
    rows = execute_node(node.input, site, ctx)
    ctx.note_memory(site, charges.buffer_bytes(len(rows), node.width))
    out = sort_rows(rows, node.keys)
    if node.fetch is not None or node.offset is not None:
        start, stop, _ = charges.offset_fetch(len(out), node.offset, node.fetch)
        out = out[start:stop]
    ctx.charge(node, site, charges.sort(len(rows)))
    return out


def _exec_limit(node: PhysLimit, site: int, ctx: ExecContext) -> Rows:
    rows = execute_node(node.input, site, ctx)
    start, stop, consumed = charges.offset_fetch(
        len(rows), node.offset, node.fetch
    )
    ctx.charge(node, site, charges.limit(consumed))
    return rows[start:stop]


# -- aggregates ----------------------------------------------------------------------


def hash_aggregate_rows(node: PhysHashAggregate, rows: Rows) -> Rows:
    """The hash aggregate's pure row-space evaluation (shared with the
    columnar backend's fallback path for REDUCE and DISTINCT calls)."""
    evaluator: AggregateEvaluator = _compiled(
        node, "_evaluator", lambda: AggregateEvaluator(node.agg_calls)
    )
    keys = node.group_keys
    groups: Dict[Tuple, list] = {}
    phase = node.phase
    if phase is AggPhase.REDUCE:
        offset = len(keys)
        for row in rows:
            group_key = tuple(row[k] for k in keys)
            accumulators = groups.get(group_key)
            if accumulators is None:
                accumulators = evaluator.new_group()
                groups[group_key] = accumulators
            evaluator.merge_row(accumulators, row, offset)
    else:
        for row in rows:
            group_key = tuple(row[k] for k in keys)
            accumulators = groups.get(group_key)
            if accumulators is None:
                accumulators = evaluator.new_group()
                groups[group_key] = accumulators
            evaluator.accumulate(accumulators, row)
    if not keys and not groups and phase is not AggPhase.MAP:
        # Scalar aggregate over an empty input still yields one row.
        groups[()] = evaluator.new_group()
    finalize = evaluator.partials if phase is AggPhase.MAP else evaluator.results
    return [group_key + finalize(acc) for group_key, acc in groups.items()]


def _exec_hash_aggregate(
    node: PhysHashAggregate, site: int, ctx: ExecContext
) -> Rows:
    rows = execute_node(node.input, site, ctx)
    out = hash_aggregate_rows(node, rows)
    ctx.note_memory(site, charges.buffer_bytes(len(out), node.width))
    ctx.charge(node, site, charges.hash_aggregate(len(rows), len(out)))
    return out


def sort_aggregate_rows(node: PhysSortAggregate, rows: Rows) -> Rows:
    """The sort aggregate's pure row-space evaluation (shared with the
    columnar backend's fallback path for DISTINCT calls)."""
    evaluator: AggregateEvaluator = _compiled(
        node, "_evaluator", lambda: AggregateEvaluator(node.agg_calls)
    )
    keys = node.group_keys
    phase = node.phase
    if phase is AggPhase.REDUCE:
        raise ExecutionError("sort aggregate does not implement REDUCE")
    out: Rows = []
    current_key: Optional[Tuple] = None
    accumulators = None
    finalize = evaluator.partials if phase is AggPhase.MAP else evaluator.results
    for row in rows:
        group_key = tuple(row[k] for k in keys)
        if group_key != current_key:
            if accumulators is not None:
                out.append(current_key + finalize(accumulators))
            current_key = group_key
            accumulators = evaluator.new_group()
        evaluator.accumulate(accumulators, row)
    if accumulators is not None:
        out.append(current_key + finalize(accumulators))
    elif not keys and phase is not AggPhase.MAP:
        out.append(finalize(evaluator.new_group()))
    return out


def _exec_sort_aggregate(
    node: PhysSortAggregate, site: int, ctx: ExecContext
) -> Rows:
    rows = execute_node(node.input, site, ctx)
    out = sort_aggregate_rows(node, rows)
    ctx.charge(node, site, charges.sort_aggregate(len(rows), len(out)))
    return out


_HANDLERS = {
    PhysTableScan: _exec_table_scan,
    PhysIndexScan: _exec_index_scan,
    PhysReceiver: _exec_receiver,
    PhysFilter: _exec_filter,
    PhysProject: _exec_project,
    PhysValues: _exec_values,
    PhysNestedLoopJoin: _exec_nested_loop_join,
    PhysHashJoin: _exec_hash_join,
    PhysMergeJoin: _exec_merge_join,
    PhysSort: _exec_sort,
    PhysLimit: _exec_limit,
    PhysHashAggregate: _exec_hash_aggregate,
    PhysSortAggregate: _exec_sort_aggregate,
}
