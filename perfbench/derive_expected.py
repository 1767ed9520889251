"""Regenerate ``expected/tpch-sf<sf>.json``: the rows each TPC-H query must return.

Usage, from the repository root::

    python3 perfbench/derive_expected.py 1 0.5

The rows come from the row backend on IC+ (the reproduction's reference
execution path).  Before anything is written they are cross-checked two
ways: the columnar backend must return the same rows in the same order,
and the single-node reference oracle (``differential_check``) must agree
on every query except those in ``ORACLE_SKIPPED`` (Q19's oracle plan is a
cross product that runs for minutes at sf 1).  Any disagreement aborts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.bench.tpch import ENABLED_QUERY_IDS, load_tpch_cluster, query_sql  # noqa: E402
from repro.common.config import PRESETS  # noqa: E402
from repro.verify.differential import differential_check  # noqa: E402

from workloads import DATA_SEED, SITES, expected_path  # noqa: E402

ORACLE_SKIPPED = frozenset({19})


def derive(scale_factor: float) -> dict:
    row = load_tpch_cluster(
        PRESETS["IC+"](SITES).with_(execution_backend="row"),
        scale_factor,
        DATA_SEED,
    )
    columnar = load_tpch_cluster(
        PRESETS["IC+"](SITES).with_(execution_backend="columnar"),
        scale_factor,
        DATA_SEED,
    )
    queries = {}
    for qid in ENABLED_QUERY_IDS:
        sql = query_sql(qid)
        rows = row.sql(sql).rows
        if columnar.sql(sql).rows != rows:
            raise SystemExit(f"Q{qid}: row and columnar backends disagree")
        if qid not in ORACLE_SKIPPED:
            report = differential_check(sql, row.store, row.config)
            if not report.ok:
                raise SystemExit(f"Q{qid}: oracle check {report.status}: {report.detail}")
        queries[str(qid)] = [list(r) for r in rows]
        print(f"sf {scale_factor:g} Q{qid}: {len(rows)} rows", flush=True)
    return {
        "scale_factor": scale_factor,
        "data_seed": DATA_SEED,
        "source": "IC+ row backend, cross-checked against the columnar "
        "backend and the reference oracle",
        "oracle_skipped": sorted(ORACLE_SKIPPED),
        "queries": queries,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scale_factors", nargs="+", type=float)
    args = parser.parse_args()
    for sf in args.scale_factors:
        doc = derive(sf)
        path = expected_path(sf)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=0) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
