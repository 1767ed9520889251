"""Execution-time work-unit charges: the one place row counts become units.

The simulated makespan is built from per-operator work units that use the
cost model's RPTC/RCC/HAC constants (Sections 3.2 and 5.1, Eq. 1-2).  The
row interpreter, the columnar backend, exchange routing and mid-query temp
shipping all call these functions with the row counts they observed and
keep no formula of their own, so the backends cannot disagree on what
they charge.  :class:`repro.cost.model.CostModel` prices *estimates* for
plan choice and deliberately differs.  Each expression's floating-point
evaluation order is part of the contract: simulated makespans and EXPLAIN
ANALYZE snapshots are compared bit for bit.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.common.constants import (
    AFS,
    HAC,
    NETWORK_ROWS_PER_MESSAGE,
    NETWORK_UNITS_PER_BYTE,
    NETWORK_UNITS_PER_MESSAGE,
    RCC,
    RPTC,
)

#: Work units charged per planner-budget tick spent re-planning mid-query,
#: so the re-optimization itself shows up in the simulated makespan.
REPLAN_UNITS_PER_TICK = 1.0


def pass_through(rows: int) -> float:
    """One RPTC per row: native table scans, receivers, projects, VALUES."""
    return rows * RPTC


table_scan = receiver = project = values = pass_through


def index_scan(rows: int) -> float:
    return rows * RPTC * 1.1


def adapter_scan(costs, scanned: int, produced: int, requests: int = 1) -> float:
    """A scan priced by its adapter's ``AdapterCosts``: CPU and IO on the
    ``scanned`` source rows, shipping only on the ``produced`` rows that
    survived pushdown.  The native defaults collapse to :func:`table_scan`.
    """
    return (
        scanned * RPTC * costs.scan_cpu_factor
        + scanned * costs.io_units_per_row
        + produced * costs.network_units_per_row
        + requests * costs.request_units
    )


def filter(rows: int) -> float:
    return rows * (RPTC + RCC)


def nested_loop_pairs(left: int, right: int) -> float:
    """The comparison term alone: a nested-loop join pre-checks it against
    the runtime limit before grinding through the cross product."""
    return left * right * RCC


def nested_loop_join(left: int, right: int, out: int) -> float:
    return left * right * RCC + (left + right + out) * RPTC


def hash_join(left: int, right: int, matches_scanned: int, out: int) -> float:
    """Build on the right, probe with the left (Eq. 7), plus one
    comparison per bucket entry the probes examined."""
    return (left + right) * (RCC + RPTC + HAC) + (
        matches_scanned * RCC + out * RPTC
    )


def merge_join(left: int, right: int, out: int) -> float:
    return (left + right) * (RCC + RPTC + HAC) + out * RPTC


def sort(rows: int) -> float:
    return rows * RPTC + rows * math.log2(rows + 2) * RCC


def offset_fetch(
    rows: int, offset: Optional[int], fetch: Optional[int]
) -> Tuple[int, Optional[int], int]:
    """OFFSET/FETCH over ``rows`` rows: ``(start, stop, consumed)``, where
    ``[start:stop]`` is emitted and ``consumed`` — every row up to
    offset + fetch, including the skipped ones — is what gets charged."""
    start = offset or 0
    if fetch is None:
        return start, None, rows
    stop = start + fetch
    return start, stop, min(rows, stop)


def limit(consumed: int) -> float:
    return consumed * RPTC


def hash_aggregate(rows: int, groups: int) -> float:
    return rows * (RPTC + HAC) + groups * RPTC


def sort_aggregate(rows: int, groups: int) -> float:
    return rows * (RPTC + RCC) + groups * RPTC


def buffer_bytes(rows: int, width: int) -> float:
    """Bytes held by ``rows`` buffered rows of ``width`` fields."""
    return rows * width * AFS


def messages(rows: int) -> int:
    """Network messages a sender batches ``rows`` rows into."""
    return max(1, rows // NETWORK_ROWS_PER_MESSAGE) if rows else 0


def network_units_for(rows: int, width: int, copies: int = 1) -> float:
    """Work units to serialise and ship ``rows`` to ``copies`` targets."""
    byte_units = buffer_bytes(rows, width) * NETWORK_UNITS_PER_BYTE
    return copies * (byte_units + messages(rows) * NETWORK_UNITS_PER_MESSAGE)


def exchange_send(rows: int, width: int, copies: int) -> Tuple[float, float]:
    """An exchange sender's ``(total units, network units)``: two passes
    per row plus the shipping to ``copies`` targets."""
    network = network_units_for(rows, width, copies)
    return rows * 2.0 * RPTC + network, network


def replan(ticks: float) -> float:
    return ticks * REPLAN_UNITS_PER_TICK
