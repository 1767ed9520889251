"""Pure helpers: percentiles, the tail rule and outcome accounting.

Nothing here imports the engine, so the benchmark's own tests exercise
these functions without loading any data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

#: Percentiles tried for the latency tail, highest first.  The first one
#: with at least ``MIN_BEYOND`` samples above its rank is reported.
TAIL_LADDER: Tuple[int, ...] = (99, 95, 90)
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def nearest_rank(ordered: Sequence[float], pct: float) -> Tuple[float, int]:
    """The nearest-rank ``pct`` percentile of sorted ``ordered``.

    Returns ``(value, rank)``; ``rank`` is 1-based, so ``len(ordered) -
    rank`` samples lie beyond the percentile.
    """
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], rank


@dataclass(frozen=True)
class Tail:
    pct: int
    value: float
    beyond: int
    samples: int


def tail_percentile(
    values: Sequence[float],
    ladder: Sequence[int] = TAIL_LADDER,
    min_beyond: int = MIN_BEYOND,
) -> Tail:
    """The highest ladder percentile with ``min_beyond`` samples past it.

    Raises ``ValueError`` when no rung qualifies: a run too short to
    support even the lowest rung has no honest tail.
    """
    ordered = sorted(values)
    for pct in ladder:
        value, rank = nearest_rank(ordered, pct)
        beyond = len(ordered) - rank
        if beyond >= min_beyond:
            return Tail(pct, value, beyond, len(ordered))
    raise ValueError(
        f"{len(ordered)} samples support no tail percentile in {tuple(ladder)}"
    )


# ---------------------------------------------------------------------------
# Outcome accounting
# ---------------------------------------------------------------------------

#: Status recorded when ``try_sql`` raised instead of returning an outcome.
RAW_EXCEPTION = "raw_exception"


def judge(expected_status: str, status: str, row_diff: str = "") -> Optional[str]:
    """Why one operation's outcome is wrong, or ``None`` when it is right.

    An outcome is right when its status is the expected one and, for a
    query that returned rows, the comparator found no difference.  An
    expected typed failure (IC's ``planning_failed`` / ``timeout``) is
    therefore a success; a raw Python exception never is.
    """
    if status == RAW_EXCEPTION:
        return "raw Python exception"
    if status != expected_status:
        return f"status {status!r}, expected {expected_status!r}"
    if row_diff:
        return f"rows differ: {row_diff}"
    return None


def error_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted
