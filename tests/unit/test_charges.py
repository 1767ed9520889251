"""Execution charges pinned to their literal work units.

Every executor bills through :mod:`repro.cost.charges`, and simulated
makespans plus EXPLAIN ANALYZE snapshots are compared bit for bit, so
each charge is pinned here with exact float equality — including the
floating-point rounding of its evaluation order.  The adapter scan charge
is pinned with the adapters in ``test_storage_adapters.py``.
"""

import pytest

from repro.cost import charges


@pytest.mark.parametrize(
    "rows, expected",
    [(0, 0.0), (1, 1.0), (7, 7.0), (123457, 123457.0)],
)
def test_pass_through_operators(rows, expected):
    for charge in (
        charges.table_scan,
        charges.receiver,
        charges.project,
        charges.values,
        charges.limit,
    ):
        assert charge(rows) == expected


@pytest.mark.parametrize(
    "rows, index_scan, filter_, sort",
    [
        (0, 0.0, 0.0, 0.0),
        (1, 1.1, 1.6, 1.9509775004326935),
        (7, 7.700000000000001, 11.200000000000001, 20.31368500605771),
        (1000, 1100.0, 1600.0, 6981.200075917125),
        (123457, 135802.7, 197531.2, 1376323.7584133514),
    ],
)
def test_single_input_operators(rows, index_scan, filter_, sort):
    assert charges.index_scan(rows) == index_scan
    assert charges.filter(rows) == filter_
    assert charges.sort(rows) == sort


def test_joins():
    assert charges.nested_loop_pairs(7, 3) == 12.6
    assert charges.nested_loop_join(7, 3, 5) == 27.6
    assert charges.nested_loop_join(1000, 999, 17) == 601416.0
    assert charges.hash_join(7, 3, 4, 5) == 27.4
    assert charges.hash_join(1000, 999, 1234, 17) == 4755.4
    assert charges.hash_join(3, 3, 0, 0) == 12.0
    assert charges.merge_join(7, 3, 5) == 25.0
    assert charges.merge_join(1000, 999, 17) == 4015.0


def test_aggregates():
    assert charges.hash_aggregate(7, 3) == 12.799999999999999
    assert charges.hash_aggregate(1000, 17) == 1417.0
    assert charges.sort_aggregate(7, 3) == 14.200000000000001
    assert charges.sort_aggregate(1000, 17) == 1617.0


@pytest.mark.parametrize(
    "offset, fetch, expected",
    [
        (None, None, (0, None, 10)),
        (3, None, (3, None, 10)),
        (3, 4, (3, 7, 7)),
        # The fetch boundary runs past the input: consumed stops at 10.
        (8, 4, (8, 12, 10)),
        (None, 0, (0, 0, 0)),
    ],
)
def test_offset_fetch_bounds_and_consumed_rows(offset, fetch, expected):
    assert charges.offset_fetch(10, offset, fetch) == expected


@pytest.mark.parametrize(
    "rows, buffer_bytes, messages, network, send",
    [
        (0, 0.0, 0, 0.0, 0.0),
        (1, 24.0, 1, 100.96, 102.96),
        (7, 168.0, 1, 106.72, 120.72),
        (1000, 24000.0, 7, 1660.0, 3660.0),
        (123457, 2962968.0, 964, 214918.72, 461832.72),
    ],
)
def test_buffers_and_exchange_send(rows, buffer_bytes, messages, network, send):
    assert charges.buffer_bytes(rows, 3) == buffer_bytes
    assert charges.messages(rows) == messages
    assert charges.network_units_for(rows, 3, 2) == network
    assert charges.exchange_send(rows, 3, 2) == (send, network)


def test_replan():
    assert charges.replan(12) == 12.0
