"""The vectorized supply table equals the scalar per-site reference.

``tests/scalar_oracle.py`` keeps the per-site formulation of the slot
supply side (one curve object per data center, walked class by class).
Every comparison here is ``==`` on floats, not ``approx``: the golden
traces and the beta = 0 benchmark references are bit-for-bit, so the
vectorized code must repeat each site's floating-point operations in
the same order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.cluster import Cluster
from repro.model.datacenter import DataCenter
from repro.model.job import Account, JobType
from repro.model.pricing import LinearPricing, TieredPricing
from repro.model.server import ServerClass
from repro.model.state import ClusterState
from repro.optimize.capacity import SupplyTable
from repro.optimize.greedy import solve_greedy
from repro.optimize.slot_problem import SlotServiceProblem
from tests.scalar_oracle import ScalarSupply, build_supply_curves

MAX_SERVERS = 20.0

# Small value sets make ties (equal p_k / s_k, equal q_ij / d_j) likely,
# so the stable orders are exercised; the float ranges add values whose
# sums round differently in different orders.
SPEEDS = st.one_of(
    st.sampled_from([0.5, 0.8, 1.0, 1.25, 2.0]), st.floats(0.1, 4.0)
)
POWERS = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.floats(0.05, 5.0)
)
PRICES = st.one_of(st.sampled_from([0.0, 0.1, 0.37, 1.0]), st.floats(0.0, 3.0))
PRICING = st.one_of(
    st.just(LinearPricing()),
    st.builds(
        TieredPricing,
        boundaries=st.just((3.0, 8.0)),
        multipliers=st.sampled_from([(1.0, 2.0, 5.0), (1.0, 1.0, 1.5)]),
    ),
    st.builds(
        TieredPricing,
        boundaries=st.just((0.5,)),
        multipliers=st.just((1.0, 3.0)),
    ),
)


def _row(draw, size, values, zero_row):
    """A row of *size* draws, or all zeros when *zero_row*."""
    if zero_row:
        return [0.0] * size
    return draw(st.lists(values, min_size=size, max_size=size))


@st.composite
def problems(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 10))
    j_count = draw(st.integers(1, 4))
    classes = [
        ServerClass(name=f"class{c}", speed=draw(SPEEDS), active_power=draw(POWERS))
        for c in range(k)
    ]
    datacenters = [
        DataCenter(name=f"dc{i}", max_servers=[MAX_SERVERS] * k) for i in range(n)
    ]
    job_types = [
        JobType(
            name=f"type{j}",
            demand=draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.1, 5.0))),
            eligible_dcs=draw(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
            ),
            account=0,
        )
        for j in range(j_count)
    ]
    cluster = Cluster(classes, datacenters, job_types, [Account(name="all", fair_share=1.0)])
    all_dark = draw(st.integers(0, 7)) == 0  # no segments at all under tiers
    availability = [
        _row(
            draw,
            k,
            st.one_of(st.integers(0, 20).map(float), st.floats(0.0, MAX_SERVERS)),
            all_dark or (draw(st.booleans()) and draw(st.booleans())),  # ~1 site in 4 is dark
        )
        for _ in range(n)
    ]
    # At some sites the cheapest class has no servers, so the site's
    # first positive-width segment is not column 0.
    cheapest = int(
        np.argsort([c.active_power / c.speed for c in classes], kind="stable")[0]
    )
    for row in availability:
        if draw(st.booleans()):
            row[cheapest] = 0.0
    prices = draw(st.lists(PRICES, min_size=n, max_size=n))
    queue_weights = [
        _row(draw, j_count, st.floats(0.0, 50.0), draw(st.booleans()) and draw(st.booleans()))
        for _ in range(n)
    ]
    h_upper = [
        _row(draw, j_count, st.floats(0.0, 20.0), draw(st.booleans()) and draw(st.booleans()))
        for _ in range(n)
    ]
    return SlotServiceProblem(
        cluster=cluster,
        state=ClusterState(np.array(availability), prices),
        queue_weights=np.array(queue_weights),
        h_upper=np.array(h_upper),
        v=draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0))),
        pricing=draw(PRICING),
    )


def _assert_same(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape
    assert got.tolist() == expected.tolist()


@settings(max_examples=300, deadline=None)
@given(problems(), st.randoms(use_true_random=False))
def test_supply_table_matches_scalar_oracle(problem, random):
    oracle = ScalarSupply(problem)
    _assert_same(problem.site_capacities(), oracle.site_capacities())
    for i in range(problem.cluster.num_datacenters):
        assert problem.marginal_cost_segments(i) == oracle.segments(i)

    h = problem.clip_feasible(
        np.array(
            [[random.uniform(0.0, 30.0) for _ in row] for row in problem.h_upper]
        )
    )
    greedy = solve_greedy(problem)
    _assert_same(greedy, oracle.greedy())
    for serve in (np.zeros_like(h), h, greedy):
        assert problem.energy_cost(serve) == oracle.energy_cost(serve)
        _assert_same(problem.busy_for(serve), oracle.busy_for(serve))


TIERED = TieredPricing(boundaries=(3.0, 8.0), multipliers=(1.0, 2.0, 5.0))


def _one_type_problem(availability, weights, pricing):
    """One job type of demand 1 at each site, so ``q_i`` is its value."""
    n = len(availability)
    classes = [
        ServerClass(name="cheap", speed=2.0, active_power=0.5),
        ServerClass(name="dear", speed=1.0, active_power=1.0),
    ]
    cluster = Cluster(
        classes,
        [DataCenter(name=f"dc{i}", max_servers=[MAX_SERVERS] * 2) for i in range(n)],
        [JobType(name="type", demand=1.0, eligible_dcs=list(range(n)), account=0)],
        [Account(name="all", fair_share=1.0)],
    )
    return SlotServiceProblem(
        cluster=cluster,
        state=ClusterState(np.array(availability), [0.37] * n),
        queue_weights=np.array(weights)[:, None],
        h_upper=np.full((n, 1), 4.0),
        v=2.0,
        pricing=pricing,
    )


@pytest.mark.parametrize("pricing", [LinearPricing(), TIERED])
def test_greedy_threshold_at_first_supplied_segment(pricing):
    """Demand worth exactly ``V * cost + _EPS`` of a site's first
    positive-width segment is not served; one ulp more is.  The cheapest
    class has no servers, so under linear pricing that segment is not
    column 0."""
    availability = [[0.0, 5.0]] * 3
    rows = _one_type_problem(availability, [0.0] * 3, pricing)
    first = int(np.flatnonzero(rows.segment_widths[0] > 0.0)[0])
    assert first == (1 if isinstance(pricing, LinearPricing) else 0)
    boundary = rows.v * rows.segment_costs[0, first] + 1e-12
    problem = _one_type_problem(
        availability, [boundary, float(np.nextafter(boundary, np.inf)), 0.0], pricing
    )
    greedy = solve_greedy(problem)
    _assert_same(greedy, ScalarSupply(problem).greedy())
    assert greedy[0, 0] == 0.0
    assert greedy[1, 0] > 0.0


def test_greedy_without_any_segments():
    """Every site dark under tiered pricing: the segment rows have zero
    columns and nothing is served."""
    problem = _one_type_problem([[0.0, 0.0]] * 4, [5.0, 1.0, 0.0, 9.0], TIERED)
    assert problem.segment_widths.shape == (4, 0)
    greedy = solve_greedy(problem)
    _assert_same(greedy, ScalarSupply(problem).greedy())
    assert not greedy.any()


@settings(max_examples=200, deadline=None)
@given(problems(), st.floats(0.0, 1.0))
def test_table_matches_oracle_up_to_site_capacity(problem, fraction):
    """Loads exactly at each site's capacity, and a fraction of it."""
    table = problem.supply
    curves = build_supply_curves(problem.cluster, problem.state)
    speeds = problem.cluster.speeds
    k = problem.cluster.num_server_classes
    for loads in (table.totals, table.totals * fraction):
        _assert_same(
            table.min_power(loads),
            np.array([c.min_power(load) for c, load in zip(curves, loads)]),
        )
        _assert_same(
            table.busy_counts(loads),
            np.stack([c.busy_counts(load, k, speeds) for c, load in zip(curves, loads)]),
        )


@pytest.mark.parametrize("num_classes", [1, 7, 8, 9, 16, 17, 127, 128, 129, 300])
def test_site_totals_match_row_sums_at_any_width(num_classes):
    """Site totals add each row as numpy sums one row on its own, which
    is pairwise (not left to right) from 8 classes up."""
    rng = np.random.default_rng(num_classes)
    classes = [
        ServerClass(name=f"class{k}", speed=float(speed), active_power=float(power))
        for k, (speed, power) in enumerate(
            zip(rng.uniform(0.1, 4.0, num_classes), rng.uniform(0.05, 5.0, num_classes))
        )
    ]
    cluster = Cluster(
        classes,
        [DataCenter(name=f"dc{i}", max_servers=[1e7] * num_classes) for i in range(5)],
        [JobType(name="type", demand=1.0, eligible_dcs=[0], account=0)],
        [Account(name="all", fair_share=1.0)],
    )
    scale = 10.0 ** rng.uniform(-6, 6, size=(5, num_classes))
    state = ClusterState(rng.random((5, num_classes)) * scale, [1.0] * 5)
    totals = SupplyTable.build(cluster, state).totals
    assert totals.tolist() == [c.total_capacity for c in build_supply_curves(cluster, state)]


def test_table_arrays_are_read_only(cluster, state):
    table = SupplyTable.build(cluster, state)
    for arr in (table.class_order, table.unit_powers, table.speeds, table.capacities, table.totals):
        with pytest.raises(ValueError):
            arr[0] = 0
