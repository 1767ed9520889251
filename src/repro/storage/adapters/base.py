"""The pluggable storage-adapter interface.

Calcite's founding pitch is optimizing over heterogeneous sources; this
module is the reproduction's seam for that.  A :class:`StorageAdapter`
owns how one table's partitions are *placed*, *scanned* and *charged*:

* **capabilities** — an adapter advertises which pushdowns it accepts
  (filter conjuncts, projections, LIMIT prefixes).  The planner's
  adapter-pushdown rules (:mod:`repro.planner.adapter_rules`) only absorb
  work into scans whose adapter claims the capability, mirroring Bodo's
  ``SnowflakeFilter``/``SnowflakeSort`` convention;
* **cost constants** — per-adapter :class:`AdapterCosts` feed both the
  planner's :meth:`repro.cost.model.CostModel.scan` and the execution
  engine's scan charges, so plan choice responds to source asymmetry and
  the simulated clock agrees with the plan the optimizer priced;
* **placement** — adapters may override round-robin partition placement
  (the remote adapter parks every partition behind one gateway site).

The native in-memory engine is itself an adapter
(:mod:`repro.storage.adapters.native`) that declines every capability and
charges exactly a native table scan, keeping all pre-adapter
plans, costs and golden EXPLAIN snapshots byte-identical.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import StorageError
from repro.rel.expr import (
    BinaryOp,
    ColRef,
    Expr,
    Literal,
    MIRRORED,
    compile_expr,
    split_conjunction,
)
from repro.storage.table import Row, TableData


@dataclass(frozen=True)
class AdapterCosts:
    """Per-adapter scan cost constants (the planner and engine share them).

    The native defaults make :func:`repro.cost.charges.adapter_scan`
    collapse to a native table scan's charge.
    """

    #: Multiplier on the per-tuple CPU constant for decoding one row.
    scan_cpu_factor: float = 1.0
    #: IO units per row actually read from the source (decode/disk).
    io_units_per_row: float = 0.0
    #: Fixed units per partition scan request (connection/round-trip).
    request_units: float = 0.0
    #: Network units per row *returned* by the source (shipping).
    network_units_per_row: float = 0.0


# ---------------------------------------------------------------------------
# Pushed-scan compilation
# ---------------------------------------------------------------------------


class PushedScan:
    """Runtime form of the pushdown carried by a scan node.

    ``filter_fn`` evaluates over the table's original full-width row;
    ``bounds`` are the sargable per-column ranges extracted from the
    pushed filter (zone-map pruning input); ``project`` lists original
    column positions to return; ``fetch`` caps rows per partition.
    """

    __slots__ = ("filter_fn", "bounds", "project", "fetch")

    def __init__(
        self,
        filter_fn: Optional[Callable[[Row], object]],
        bounds: Tuple[Tuple[int, Optional[object], bool, Optional[object], bool], ...],
        project: Optional[Tuple[int, ...]],
        fetch: Optional[int],
    ):
        self.filter_fn = filter_fn
        self.bounds = bounds
        self.project = project
        self.fetch = fetch

    def apply(self, rows: Sequence[Row]) -> List[Row]:
        """Filter, project and cap ``rows`` (in order)."""
        out: List[Row] = []
        filter_fn = self.filter_fn
        project = self.project
        fetch = self.fetch
        for row in rows:
            if filter_fn is not None and not filter_fn(row):
                continue
            if project is not None:
                row = tuple(row[i] for i in project)
            out.append(row)
            if fetch is not None and len(out) >= fetch:
                break
        return out


def sargable_bounds(
    condition: Optional[Expr],
) -> Tuple[Tuple[int, Optional[object], bool, Optional[object], bool], ...]:
    """Per-column ``(index, low, low_inc, high, high_inc)`` ranges implied
    by the sargable conjuncts of ``condition``.

    Only ``col <op> literal`` (either orientation) conjuncts contribute;
    everything else is ignored — the extraction is a sound
    over-approximation used purely for zone-map pruning, with the full
    predicate still applied row-by-row afterwards.
    """
    ranges: Dict[int, List[object]] = {}
    for conjunct in split_conjunction(condition):
        if not isinstance(conjunct, BinaryOp):
            continue
        op, left, right = conjunct.op, conjunct.left, conjunct.right
        if isinstance(left, Literal) and isinstance(right, ColRef):
            left, right = right, left
            op = MIRRORED.get(op)
        if (
            op not in ("=", "<", "<=", ">", ">=")
            or not isinstance(left, ColRef)
            or not isinstance(right, Literal)
            or right.value is None
        ):
            continue
        value = right.value
        entry = ranges.setdefault(left.index, [None, True, None, True])
        if op in ("=", ">", ">="):
            inclusive = op != ">"
            if entry[0] is None or _tighter(value, entry[0], low=True):
                entry[0], entry[1] = value, inclusive
            elif value == entry[0]:
                entry[1] = entry[1] and inclusive
        if op in ("=", "<", "<="):
            inclusive = op != "<"
            if entry[2] is None or _tighter(value, entry[2], low=False):
                entry[2], entry[3] = value, inclusive
            elif value == entry[2]:
                entry[3] = entry[3] and inclusive
    return tuple(
        (index, lo, lo_inc, hi, hi_inc)
        for index, (lo, lo_inc, hi, hi_inc) in sorted(ranges.items())
    )


def _tighter(candidate: object, current: object, low: bool) -> bool:
    """Whether ``candidate`` tightens a bound (False on incomparable types)."""
    try:
        return candidate > current if low else candidate < current
    except TypeError:
        return False


def compile_pushdown(node) -> Optional[PushedScan]:
    """The :class:`PushedScan` for a scan node, or None when nothing is
    pushed (the engine then keeps its historical fast path)."""
    pushed_filter = getattr(node, "pushed_filter", None)
    pushed_project = getattr(node, "pushed_project", None)
    pushed_fetch = getattr(node, "pushed_fetch", None)
    if pushed_filter is None and pushed_project is None and pushed_fetch is None:
        return None
    filter_fn = compile_expr(pushed_filter) if pushed_filter is not None else None
    return PushedScan(
        filter_fn,
        sargable_bounds(pushed_filter),
        tuple(pushed_project) if pushed_project is not None else None,
        pushed_fetch,
    )


# ---------------------------------------------------------------------------
# The adapter interface
# ---------------------------------------------------------------------------

#: Every live adapter instance, for test-time state resets.
_LIVE_ADAPTERS: "weakref.WeakSet[StorageAdapter]" = weakref.WeakSet()


class StorageAdapter:
    """Base class and native-semantics default for storage adapters."""

    #: Registry key and EXPLAIN/artefact label.
    name = "adapter"
    #: Capability flags the pushdown rules consult.
    supports_filter_pushdown = False
    supports_project_pushdown = False
    supports_limit_pushdown = False
    #: Cost constants; the planner's scan costing and the engine's scan
    #: charges both derive from these.
    costs = AdapterCosts()

    def __init__(self):
        _LIVE_ADAPTERS.add(self)

    # -- lifecycle ------------------------------------------------------------

    def attach(self, data: TableData) -> None:
        """Materialise adapter-side state for a newly created table."""

    def detach(self, data: TableData) -> None:
        """Release adapter-side state for a dropped table."""

    def reset(self) -> None:
        """Drop all adapter-side state (test isolation hook)."""

    # -- placement ------------------------------------------------------------

    def partition_sites(
        self, partition_count: int, site_count: int
    ) -> List[Tuple[int, ...]]:
        """Partition -> owning sites; default round-robin (native layout)."""
        return [(p % site_count,) for p in range(partition_count)]

    # -- scanning -------------------------------------------------------------

    def scan_partition(
        self, data: TableData, partition: int, pushed: Optional[PushedScan]
    ) -> Tuple[int, List[Row]]:
        """Scan one partition, honouring pushed work.

        Returns ``(scanned, rows)``: the number of source rows read and
        the surviving output rows.  The base implementation scans the
        in-memory partition and applies pushes row-by-row.
        """
        rows = data.partitions[partition]
        if pushed is None:
            return len(rows), list(rows)
        return len(rows), pushed.apply(rows)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[[], StorageAdapter]] = {}


def register_adapter(name: str, factory: Callable[[], StorageAdapter]) -> None:
    _REGISTRY[name.lower()] = factory


def create_adapter(name: str) -> StorageAdapter:
    """Instantiate the adapter registered under ``name`` (DDL routing)."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise StorageError(
            f"unknown storage adapter {name!r}; "
            f"registered: {', '.join(sorted(_REGISTRY))}"
        ) from None
    return factory()


def adapter_names() -> List[str]:
    return sorted(_REGISTRY)


def reset_adapter_state() -> None:
    """Reset every live adapter instance (autouse test fixture hook)."""
    for adapter in list(_LIVE_ADAPTERS):
        adapter.reset()
