"""The three benchmark workloads and the oracles that check them.

Each workload fixes a cluster configuration, a data scale and how a
seed turns into SQL text.  The generated TPC-H data always uses
``DATA_SEED`` (the reproduction's default dbgen seed); the benchmark seed
only shapes the stream of statements: the order of each pass, and for
``lookup-serve`` the keys looked up.  So the expected results of the
TPC-H workloads are fixed per scale factor and live in ``expected/``.
"""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.bench.tpch import (
    ENABLED_QUERY_IDS,
    cached_tpch_data,
    load_tpch_cluster,
    query_sql,
    tpch_schemas,
)
from repro.common.config import PRESETS, SystemConfig

DATA_SEED = 7
SITES = 4
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: The paper's typed failures of the baseline IC (Section 6.2.1).
IC_PLANNING_FAILED = frozenset({2, 5, 9})
IC_TIMEOUT = frozenset({17, 19, 21})


@dataclass(frozen=True)
class Op:
    """One statement the client sends, and what it must come back as."""

    system: str
    sql: str
    expected_status: str
    #: Oracle key of the expected rows (only read when the status is ok).
    key: Hashable


def expected_path(scale_factor: float) -> Path:
    return EXPECTED_DIR / f"tpch-sf{scale_factor:g}.json"


def load_expected(scale_factor: float) -> Dict[int, List[Tuple]]:
    with expected_path(scale_factor).open() as handle:
        doc = json.load(handle)
    if doc["scale_factor"] != scale_factor or doc["data_seed"] != DATA_SEED:
        raise ValueError(f"{expected_path(scale_factor)} is for other data")
    return {
        int(qid): [tuple(row) for row in rows]
        for qid, rows in doc["queries"].items()
    }


class Workload:
    name = ""
    why = ""
    systems: Tuple[str, ...] = ()
    backend = "row"
    scale_factor = 1.0
    plan_cache = False
    #: Wall seconds one warm pass takes on the reference 2-core box; the
    #: number of warm passes is ``--seconds`` over this, so every run of
    #: a workload does the same work.
    nominal_pass_s = 1.0
    #: Floor on warm passes, so the latency tail has >= 10 samples past p90.
    min_warm_passes = 1
    #: Set-ups (of the run's repeats, counting from the last) followed by
    #: a cold pass; ``cold_pass_s`` is their median.
    cold_passes = 3
    exercises: Tuple[str, ...] = ()
    bypasses: Tuple[str, ...] = ()

    def config(self, system: str) -> SystemConfig:
        return PRESETS[system](SITES).with_(
            execution_backend=self.backend, plan_cache=self.plan_cache
        )

    def describe(self) -> dict:
        return {
            "systems": list(self.systems),
            "backend": self.backend,
            "scale_factor": self.scale_factor,
            "sites": SITES,
            "plan_cache": self.plan_cache,
            "exercises": list(self.exercises),
            "bypasses": list(self.bypasses),
        }

    def warm_passes(self, seconds: float) -> int:
        return max(self.min_warm_passes, round(seconds / self.nominal_pass_s))

    def setup(self) -> Dict[str, object]:
        """Generate the data and load one cluster per system (timed)."""
        cached_tpch_data.cache_clear()
        return {
            system: load_tpch_cluster(
                self.config(system), self.scale_factor, DATA_SEED
            )
            for system in self.systems
        }

    def oracle(self, clusters: Dict[str, object]) -> "Oracle":
        raise NotImplementedError

    def passes(self, seed: int, count: int) -> List[List[Op]]:
        raise NotImplementedError


class Oracle:
    """Expected rows per op key, plus the logical plan the comparator
    uses to check ORDER BY (``None`` when the statement has none)."""

    def __init__(self) -> None:
        self._logical: Dict[Hashable, object] = {}

    def rows(self, op: Op) -> List[Tuple]:
        raise NotImplementedError

    def logical(self, op: Op):
        return self._logical.get(op.key)


class TpchOracle(Oracle):
    def __init__(self, scale_factor: float, cluster) -> None:
        super().__init__()
        self._rows = load_expected(scale_factor)
        missing = set(ENABLED_QUERY_IDS) - set(self._rows)
        if missing:
            raise ValueError(f"no expected rows for queries {sorted(missing)}")
        for qid in ENABLED_QUERY_IDS:
            self._logical[qid] = cluster.parse_to_logical(query_sql(qid))

    def rows(self, op: Op) -> List[Tuple]:
        return self._rows[op.key]


class TpchOlap(Workload):
    name = "tpch-olap"
    why = (
        "20 TPC-H queries, IC+ columnar sf1 4 sites, plan cache off: "
        "fragment execution and QueryPlanner.plan dominate, the plan cache "
        "is bypassed"
    )
    systems = ("IC+",)
    backend = "columnar"
    scale_factor = 1.0
    nominal_pass_s = 1.1
    min_warm_passes = 5
    exercises = (
        "sql.parse", "rel.sql2rel", "planner.hep", "planner.volcano_logical",
        "planner.volcano_physical", "exec.fragment", "exec.run_fragment",
        "cluster.schedule",
    )
    bypasses = ("adaptive.lookup", "exec.op")

    def oracle(self, clusters) -> Oracle:
        return TpchOracle(self.scale_factor, clusters["IC+"])

    def passes(self, seed: int, count: int) -> List[List[Op]]:
        rng = random.Random(f"{seed}/{self.name}")
        out = []
        for _ in range(count):
            qids = list(ENABLED_QUERY_IDS)
            rng.shuffle(qids)
            out.append([Op("IC+", query_sql(q), "ok", q) for q in qids])
        return out


def paper_status(system: str, qid: int) -> str:
    """The outcome the paper documents for ``qid`` on ``system``."""
    if system == "IC" and qid in IC_PLANNING_FAILED:
        return "planning_failed"
    if system == "IC" and qid in IC_TIMEOUT:
        return "timeout"
    return "ok"


class PaperRow(Workload):
    name = "paper-row"
    why = (
        "the paper's run: 20 TPC-H queries on IC, IC+ and IC+M, row backend "
        "sf0.5 4 sites; row operators, single-phase planner, variant "
        "fragments, IC's typed failures"
    )
    systems = ("IC", "IC+", "IC+M")
    backend = "row"
    scale_factor = 0.5
    nominal_pass_s = 10.0
    min_warm_passes = 2
    cold_passes = 1
    exercises = (
        "sql.parse", "rel.sql2rel", "planner.hep", "planner.volcano_logical",
        "planner.volcano_physical", "exec.fragment", "exec.run_fragment",
        "exec.op", "cluster.schedule",
    )
    bypasses = ("adaptive.lookup",)

    def oracle(self, clusters) -> Oracle:
        return TpchOracle(self.scale_factor, clusters["IC+"])

    def passes(self, seed: int, count: int) -> List[List[Op]]:
        rng = random.Random(f"{seed}/{self.name}")
        out = []
        for _ in range(count):
            cells = [(s, q) for s in self.systems for q in ENABLED_QUERY_IDS]
            rng.shuffle(cells)
            out.append(
                [Op(s, query_sql(q), paper_status(s, q), q) for s, q in cells]
            )
        return out


# ---------------------------------------------------------------------------
# lookup-serve
# ---------------------------------------------------------------------------

ORDER_LOOKUP = (
    "select o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate "
    "from orders where o_orderkey = {}"
)
CUSTOMER_LOOKUP = (
    "select c_custkey, c_name, c_nationkey, c_acctbal, c_mktsegment "
    "from customer where c_custkey = {}"
)
ORDER_LINES = (
    "select l_orderkey, l_linenumber, l_quantity, l_extendedprice, "
    "o_orderdate from orders, lineitem "
    "where o_orderkey = l_orderkey and o_orderkey = {}"
)
ORDERS_PER_CUSTOMER = "select count(*) from orders where o_custkey = {}"
NATION_ROLLUP = (
    "select n_name, count(*), max(c_acctbal) from customer, nation "
    "where c_nationkey = n_nationkey group by n_name order by n_name"
)

#: Template name -> (SQL, key table or None for the fixed text).
TEMPLATES: Dict[str, Tuple[str, Optional[str]]] = {
    "order_lookup": (ORDER_LOOKUP, "orders"),
    "customer_lookup": (CUSTOMER_LOOKUP, "customer"),
    "order_lines": (ORDER_LINES, "orders"),
    "orders_per_customer": (ORDERS_PER_CUSTOMER, "customer"),
    "nation_rollup": (NATION_ROLLUP, None),
}
#: Each pass holds this many statements of every template, shuffled, so
#: the fixed-text rollup is exactly 1/5 of the stream.
PER_TEMPLATE = 50


def _columns(table: str, names: Sequence[str]):
    positions = [tpch_schemas()[table].column_index(n) for n in names]
    return lambda row: tuple(row[p] for p in positions)


class LookupOracle(Oracle):
    """Answers the lookup templates from the generated rows directly."""

    def __init__(self, data: Dict[str, List[Tuple]], cluster) -> None:
        super().__init__()
        order_key = _columns("orders", ["o_orderkey"])
        order_row = _columns(
            "orders",
            ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
             "o_orderdate"],
        )
        order_cust = _columns("orders", ["o_custkey"])
        customer_row = _columns(
            "customer",
            ["c_custkey", "c_name", "c_nationkey", "c_acctbal", "c_mktsegment"],
        )
        line_row = _columns(
            "lineitem",
            ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"],
        )
        nation_row = _columns("nation", ["n_nationkey", "n_name"])
        self.orders = {order_key(r)[0]: order_row(r) for r in data["orders"]}
        self.customers = {customer_row(r)[0]: customer_row(r) for r in data["customer"]}
        self.lines: Dict[int, List[Tuple]] = defaultdict(list)
        for r in data["lineitem"]:
            line = line_row(r)
            self.lines[line[0]].append(line)
        self.orders_per_customer = Counter(order_cust(r)[0] for r in data["orders"])
        nations = dict(nation_row(r) for r in data["nation"])
        per_nation: Dict[str, List[float]] = defaultdict(list)
        for cust in self.customers.values():
            per_nation[nations[cust[2]]].append(cust[3])
        self.rollup = [
            (name, len(bal), max(bal)) for name, bal in sorted(per_nation.items())
        ]
        self._logical[("nation_rollup", None)] = cluster.parse_to_logical(
            NATION_ROLLUP
        )

    def rows(self, op: Op) -> List[Tuple]:
        template, key = op.key
        if template == "order_lookup":
            return [self.orders[key]] if key in self.orders else []
        if template == "customer_lookup":
            return [self.customers[key]] if key in self.customers else []
        if template == "order_lines":
            order = self.orders.get(key)
            if order is None:
                return []
            return [line + (order[4],) for line in self.lines.get(key, [])]
        if template == "orders_per_customer":
            return [(self.orders_per_customer.get(key, 0),)]
        if template == "nation_rollup":
            return list(self.rollup)
        raise KeyError(template)


class LookupServe(Workload):
    name = "lookup-serve"
    why = (
        "seeded short lookups, IC+ columnar sf1 4 sites, plan cache on: "
        "parse, sql2rel and planning are a third of each ~2.5 ms query; "
        "new keys miss the literal-guarded cache, only the rollup hits"
    )
    systems = ("IC+",)
    backend = "columnar"
    scale_factor = 1.0
    plan_cache = True
    nominal_pass_s = 0.76
    min_warm_passes = 4
    exercises = (
        "sql.parse", "rel.sql2rel", "planner.hep", "planner.volcano_logical",
        "planner.volcano_physical", "adaptive.lookup", "exec.fragment",
        "exec.run_fragment", "cluster.schedule",
    )
    bypasses = ("exec.op",)

    def __init__(self) -> None:
        self._keys: Dict[str, List[int]] = {}

    def oracle(self, clusters) -> Oracle:
        data = cached_tpch_data(self.scale_factor, DATA_SEED)
        oracle = LookupOracle(data, clusters["IC+"])
        # Keys are drawn from the generated data, so every lookup hits.
        self._keys = {
            "orders": sorted(oracle.orders),
            "customer": sorted(oracle.customers),
        }
        return oracle

    def passes(self, seed: int, count: int) -> List[List[Op]]:
        if not self._keys:
            raise RuntimeError("passes() needs oracle() first: keys come from the data")
        rng = random.Random(f"{seed}/{self.name}")
        out = []
        for _ in range(count):
            ops = []
            for template, (sql, table) in TEMPLATES.items():
                for _ in range(PER_TEMPLATE):
                    key = rng.choice(self._keys[table]) if table else None
                    text = sql.format(key) if table else sql
                    ops.append(Op("IC+", text, "ok", (template, key)))
            rng.shuffle(ops)
            out.append(ops)
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (TpchOlap(), PaperRow(), LookupServe())
}
