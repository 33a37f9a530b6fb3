"""Unit tests for :class:`repro.model.action.Action`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.action import Action
from repro.model.cluster import Cluster
from repro.model.datacenter import DataCenter
from repro.model.job import Account, JobType
from repro.model.server import ServerClass
from repro.model.state import ClusterState
from repro.optimize.slot_problem import SlotServiceProblem


def _zeros(cluster):
    return Action.idle(cluster)


class TestConstruction:
    def test_idle(self, cluster):
        a = _zeros(cluster)
        assert a.route.shape == (2, 2)
        assert a.busy.shape == (2, 2)
        assert np.all(a.route == 0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Action(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Action(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Action(np.zeros(2), np.zeros(2), np.zeros(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Action(-np.ones((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))

    def test_rejects_nan(self):
        bad = np.full((1, 1), np.nan)
        with pytest.raises(ValueError):
            Action(bad, np.zeros((1, 1)), np.zeros((1, 1)))

    def test_arrays_frozen(self, cluster):
        a = _zeros(cluster)
        with pytest.raises(ValueError):
            a.route[0, 0] = 1


class TestDerived:
    def test_work_served(self, cluster):
        h = np.array([[2.0, 0.0], [1.0, 3.0]])
        a = Action(np.zeros((2, 2)), h, np.zeros((2, 2)))
        # demands are [1.0, 2.0]
        np.testing.assert_allclose(a.work_served(cluster), [2.0, 7.0])

    def test_capacity_used(self, cluster):
        b = np.array([[1.0, 2.0], [0.0, 0.0]])
        a = Action(np.zeros((2, 2)), np.zeros((2, 2)), b)
        # speeds are [1.0, 0.8]
        np.testing.assert_allclose(a.capacity_used(cluster), [2.6, 0.0])

    def test_energy_cost(self, cluster, state):
        b = np.array([[2.0, 0.0], [0.0, 4.0]])
        a = Action(np.zeros((2, 2)), np.zeros((2, 2)), b)
        # powers [1.0, 0.5]; prices [0.4, 0.5]
        expected = 0.4 * 2.0 * 1.0 + 0.5 * 4.0 * 0.5
        assert a.energy_cost(cluster, state) == pytest.approx(expected)

    def test_energy_cost_per_site(self, cluster, state):
        b = np.array([[2.0, 0.0], [0.0, 4.0]])
        a = Action(np.zeros((2, 2)), np.zeros((2, 2)), b)
        np.testing.assert_allclose(
            a.energy_cost_per_site(cluster, state), [0.8, 1.0]
        )

    def test_account_work(self, cluster):
        h = np.array([[2.0, 0.0], [1.0, 3.0]])
        a = Action(np.zeros((2, 2)), h, np.zeros((2, 2)))
        # type 0 -> account 0: 3 jobs x demand 1; type 1 -> account 1:
        # 3 jobs x demand 2.
        np.testing.assert_allclose(a.account_work(cluster), [3.0, 6.0])


@st.composite
def _account_work_cases(draw):
    n = draw(st.integers(1, 5))
    num_accounts = draw(st.integers(1, 4))
    num_types = draw(st.integers(1, 9))
    cluster = Cluster(
        [ServerClass(name="class", speed=1.0, active_power=1.0)],
        [DataCenter(name=f"dc{i}", max_servers=[10.0]) for i in range(n)],
        [
            JobType(
                name=f"type{j}",
                demand=draw(st.floats(0.1, 5.0)),
                eligible_dcs=list(range(n)),
                account=draw(st.integers(0, num_accounts - 1)),
            )
            for j in range(num_types)
        ],
        [Account(name=f"acct{m}", fair_share=1.0 / num_accounts) for m in range(num_accounts)],
    )
    cell = st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.floats(0.0, 1e-6))
    serve = np.array([[draw(cell) for _ in range(num_types)] for _ in range(n)])
    return cluster, serve


@settings(max_examples=200, deadline=None)
@given(_account_work_cases())
def test_account_work_equals_scatter_add(case):
    """Per-account totals add each account's types in index order from
    0.0, exactly as ``np.add.at`` into a zero vector does."""
    cluster, serve = case
    expected = np.zeros(cluster.num_accounts)
    np.add.at(expected, cluster.account_of_type, serve.sum(axis=0) * cluster.demands)
    action = Action(np.zeros_like(serve), serve, np.zeros((serve.shape[0], 1)))
    problem = SlotServiceProblem(
        cluster=cluster,
        state=ClusterState(np.full((serve.shape[0], 1), 10.0), [1.0] * serve.shape[0]),
        queue_weights=np.zeros_like(serve),
        h_upper=np.full_like(serve, 10.0),
        v=1.0,
    )
    assert action.account_work(cluster).tolist() == expected.tolist()
    assert problem.account_work(serve).tolist() == expected.tolist()


class TestValidate:
    def test_idle_is_valid(self, cluster, state):
        _zeros(cluster).validate(cluster, state)

    def test_rejects_ineligible_route(self, cluster, state):
        r = np.zeros((2, 2))
        r[0, 1] = 1.0  # type 1 is only eligible at site 1
        a = Action(r, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="ineligible"):
            a.validate(cluster, state)

    def test_rejects_fractional_route(self, cluster, state):
        r = np.zeros((2, 2))
        r[0, 0] = 1.5
        a = Action(r, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="integer"):
            a.validate(cluster, state)

    def test_rejects_busy_over_availability(self, cluster, state):
        b = np.zeros((2, 2))
        b[0, 0] = 11.0  # only 10 available
        a = Action(np.zeros((2, 2)), np.zeros((2, 2)), b)
        with pytest.raises(ValueError, match="busy exceeds"):
            a.validate(cluster, state)

    def test_rejects_work_over_capacity(self, cluster, state):
        h = np.zeros((2, 2))
        h[0, 0] = 5.0  # 5 units of work
        b = np.zeros((2, 2))
        b[0, 0] = 1.0  # only 1 unit of capacity
        a = Action(np.zeros((2, 2)), h, b)
        with pytest.raises(ValueError, match="eq. 11"):
            a.validate(cluster, state)

    def test_rejects_route_over_bound(self, cluster, state):
        r = np.zeros((2, 2))
        r[0, 0] = 51.0  # max_route is 50 for type 0
        a = Action(r, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="r_ij"):
            a.validate(cluster, state)

    def test_rejects_serve_over_bound(self, cluster, state):
        h = np.zeros((2, 2))
        h[1, 1] = 26.0  # max_service is 25 for type 1
        b = np.full((2, 2), 10.0)
        a = Action(np.zeros((2, 2)), h, b)
        with pytest.raises(ValueError, match="h_ij"):
            a.validate(cluster, state)

    def test_valid_full_action(self, cluster, state):
        r = np.zeros((2, 2))
        r[0, 0] = 2.0
        r[1, 1] = 1.0
        h = np.zeros((2, 2))
        h[1, 1] = 2.0  # 4 units of work at site 1
        b = np.zeros((2, 2))
        b[1, 0] = 4.0  # 4 units of capacity
        Action(r, h, b).validate(cluster, state)
