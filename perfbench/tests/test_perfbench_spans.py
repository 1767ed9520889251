"""Self-time accounting and the layer probes."""

import pytest

from spans import ENTRY_POINTS, LAYER_NAMES, LayerProbes, SpanRecorder, _resolve


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.enter("outer")          # t=0
    clock.now = 1.0
    rec.enter("inner")          # t=1
    clock.now = 4.0
    rec.exit()                  # inner: 3
    clock.now = 6.0
    rec.exit()                  # outer: 6 total, 3 self
    assert rec.self_s == {"outer": 3.0, "inner": 3.0}
    assert rec.covered_s == 6.0
    assert rec.calls == {"outer": 1, "inner": 1}


def test_nested_same_name_spans_count_each_instant_once():
    # reorder -> other -> reorder: the recursion must not double count.
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.enter("reorder")        # t=0
    clock.now = 1.0
    rec.enter("implement")      # t=1
    clock.now = 2.0
    rec.enter("reorder")        # t=2
    clock.now = 5.0
    rec.exit()                  # inner reorder: 3
    clock.now = 6.0
    rec.exit()                  # implement: 5 total, 2 self
    clock.now = 10.0
    rec.exit()                  # outer reorder: 10 total, 5 self
    assert rec.self_s["reorder"] == 3.0 + 5.0
    assert rec.self_s["implement"] == 2.0
    assert sum(rec.self_s.values()) == rec.covered_s == 10.0
    assert rec.calls["reorder"] == 2


def test_directly_recursive_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def node(depth):
        rec.enter("op")
        clock.now += 1.0
        if depth:
            node(depth - 1)
        rec.exit()

    node(3)
    assert rec.self_s["op"] == 4.0
    assert rec.covered_s == 4.0
    assert rec.calls["op"] == 4


def test_wrapper_closes_span_when_the_call_raises():
    rec = SpanRecorder(FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("layer", boom)()
    assert rec.calls["layer"] == 1
    rec.reset()  # no span left open


def test_probes_restore_every_entry_point():
    targets = [_resolve(m, p) for _, m, p in ENTRY_POINTS]
    targets += [
        _resolve("repro.exec.operators", "execute_node"),
        _resolve("repro.exec.engine", "execute_node"),
    ]
    before = [vars(owner)[attr] for owner, attr in targets]
    probes = LayerProbes(SpanRecorder())
    probes.install()
    assert [vars(o)[a] for o, a in targets] != before
    probes.uninstall()
    assert [vars(o)[a] for o, a in targets] == before
    probes.install()  # restored state can be probed again
    probes.uninstall()


@pytest.mark.parametrize("backend", ["row", "columnar"])
def test_probes_see_every_layer_of_a_query(backend):
    from repro.bench.tpch import load_tpch_cluster
    from repro.common.config import PRESETS

    cluster = load_tpch_cluster(
        PRESETS["IC+"](4).with_(execution_backend=backend, plan_cache=True), 0.02
    )
    rec = SpanRecorder()
    probes = LayerProbes(rec)
    probes.install()
    try:
        sql = (
            "select n_name, count(*) from customer, nation "
            "where c_nationkey = n_nationkey group by n_name order by n_name"
        )
        plain = cluster.try_sql(sql)
        again = cluster.try_sql(sql)
    finally:
        probes.uninstall()
    assert plain.ok and again.ok and plain.rows == again.rows
    for layer in (
        "sql.parse", "rel.sql2rel", "planner.plan", "planner.hep",
        "planner.volcano_logical", "planner.volcano_physical",
        "adaptive.lookup", "exec.execute", "exec.fragment",
        "exec.run_fragment", "cluster.schedule",
    ):
        assert rec.calls[layer] >= 1, layer
    # The second run is a plan-cache hit: planned once, looked up twice.
    assert rec.calls["planner.plan"] == 1
    assert rec.calls["adaptive.lookup"] == 2
    ops = [n for n in rec.calls if n.startswith("exec.op.")]
    assert bool(ops) == (backend == "row")
    assert set(rec.calls) <= set(LAYER_NAMES)
    assert rec.covered_s == pytest.approx(sum(rec.self_s.values()))
