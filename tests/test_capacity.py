"""Unit + property tests for the slot supply table (per-site supply curves)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.pricing import LinearPricing
from repro.model.state import ClusterState
from repro.optimize.capacity import SupplyTable
from repro.scenarios import small_cluster


def _table(availability, prices=(0.4, 0.5)):
    cluster = small_cluster()
    state = ClusterState(np.asarray(availability, dtype=float), list(prices))
    return cluster, SupplyTable.build(cluster, state)


def _site0(load):
    """A load on site 0 with site 1 idle."""
    return np.array([load, 0.0])


class TestOrdering:
    def test_cheapest_class_first(self):
        # "efficient": 0.5/0.8 = 0.625 per work; "fast": 1.0 per work.
        _, table = _table([[10, 10], [10, 10]])
        assert table.class_order[0] == 1  # efficient first
        assert table.unit_powers[0] == pytest.approx(0.625)
        assert table.unit_powers[1] == pytest.approx(1.0)

    def test_total_capacity(self):
        _, table = _table([[10, 10], [5, 0]])
        assert table.totals[0] == pytest.approx(10 * 1.0 + 10 * 0.8)
        assert table.totals[1] == pytest.approx(5.0)


class TestMinPower:
    def test_zero_capacity_zero_power(self):
        _, table = _table([[10, 10], [10, 10]])
        assert table.min_power(_site0(0.0))[0] == pytest.approx(0.0)

    def test_fills_cheapest_first(self):
        _, table = _table([[10, 10], [10, 10]])
        # 4 units of work fit entirely on efficient servers (8 capacity).
        assert table.min_power(_site0(4.0))[0] == pytest.approx(4.0 * 0.625)

    def test_spills_to_next_class(self):
        _, table = _table([[10, 10], [10, 10]])
        # 10 units: 8 on efficient (0.625/w), 2 on fast (1.0/w).
        assert table.min_power(_site0(10.0))[0] == pytest.approx(8 * 0.625 + 2 * 1.0)

    def test_rejects_over_capacity(self):
        _, table = _table([[10, 10], [10, 10]])
        with pytest.raises(ValueError):
            table.min_power(_site0(100.0))

    def test_rejects_negative(self):
        _, table = _table([[10, 10], [10, 10]])
        with pytest.raises(ValueError):
            table.min_power(_site0(-1.0))


class TestBusyCounts:
    def test_busy_counts_achieve_capacity_and_power(self):
        cluster, table = _table([[10, 10], [10, 10]])
        speeds = cluster.speeds
        powers = cluster.active_powers
        for cap in [0.0, 3.0, 8.0, 12.5, 18.0]:
            busy = table.busy_counts(_site0(cap))[0]
            assert float(busy @ speeds) == pytest.approx(cap)
            assert float(busy @ powers) == pytest.approx(table.min_power(_site0(cap))[0])

    def test_busy_counts_respect_availability(self):
        _, table = _table([[3, 2], [10, 10]])
        busy = table.busy_counts(table.totals)[0]
        assert busy[0] <= 3 + 1e-9
        assert busy[1] <= 2 + 1e-9


class TestSubgradient:
    def test_marginal_power_on_segments(self):
        _, table = _table([[10, 10], [10, 10]])
        assert table.subgradient(_site0(1.0))[0] == pytest.approx(0.625)
        assert table.subgradient(_site0(12.0))[0] == pytest.approx(1.0)

    def test_marginal_segments_skip_empty(self):
        _, table = _table([[10, 0], [10, 10]])
        widths, costs = table.cost_segments(LinearPricing(), np.array([1.0, 1.0]))
        segments = [(w, c) for w, c in zip(widths[0], costs[0]) if w > 0]
        assert len(segments) == 1
        assert segments[0][1] == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10), min_size=2, max_size=2),
    st.floats(min_value=0.0, max_value=18.0),
)
def test_min_power_is_convex_and_increasing(avail, cap):
    _, table = _table([avail, [1, 1]])
    total = table.totals[0]
    cap = min(cap, total)
    mid = cap / 2
    power_cap = table.min_power(_site0(cap))[0]
    power_mid = table.min_power(_site0(mid))[0]
    # Increasing.
    assert power_cap >= power_mid - 1e-9
    # Midpoint convexity: P(c/2) <= (P(0) + P(c)) / 2.
    assert power_mid <= 0.5 * power_cap + 1e-9
