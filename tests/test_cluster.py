"""Unit tests for :class:`repro.model.cluster.Cluster`."""

import numpy as np
import pytest

from repro.model.cluster import Cluster
from repro.model.datacenter import DataCenter
from repro.model.job import Account, JobType
from repro.model.server import ServerClass


def _classes():
    return (
        ServerClass(name="a", speed=1.0, active_power=1.0),
        ServerClass(name="b", speed=0.5, active_power=0.3),
    )


def _dcs():
    return (
        DataCenter(name="d0", max_servers=[2, 0]),
        DataCenter(name="d1", max_servers=[1, 4]),
    )


def _accounts():
    return (Account(name="m0", fair_share=0.7), Account(name="m1", fair_share=0.3))


def _types():
    return (
        JobType(name="t0", demand=1.0, eligible_dcs=[0, 1], account=0),
        JobType(name="t1", demand=2.0, eligible_dcs=[1], account=1),
    )


class TestConstruction:
    def test_valid(self):
        c = Cluster(_classes(), _dcs(), _types(), _accounts())
        assert c.num_datacenters == 2
        assert c.num_server_classes == 2
        assert c.num_job_types == 2
        assert c.num_accounts == 2

    def test_rejects_empty_components(self):
        with pytest.raises(ValueError):
            Cluster((), _dcs(), _types(), _accounts())
        with pytest.raises(ValueError):
            Cluster(_classes(), (), _types(), _accounts())
        with pytest.raises(ValueError):
            Cluster(_classes(), _dcs(), (), _accounts())
        with pytest.raises(ValueError):
            Cluster(_classes(), _dcs(), _types(), ())

    def test_rejects_dc_class_mismatch(self):
        bad_dc = (DataCenter(name="d0", max_servers=[2]),)
        with pytest.raises(ValueError, match="dimensioned"):
            Cluster(_classes(), bad_dc, _types(), _accounts())

    def test_rejects_unknown_dc_reference(self):
        bad_type = (JobType(name="t", demand=1.0, eligible_dcs=[5], account=0),)
        with pytest.raises(ValueError, match="unknown data center"):
            Cluster(_classes(), _dcs(), bad_type, _accounts())

    def test_rejects_unknown_account_reference(self):
        bad_type = (JobType(name="t", demand=1.0, eligible_dcs=[0], account=9),)
        with pytest.raises(ValueError, match="unknown account"):
            Cluster(_classes(), _dcs(), bad_type, _accounts())

    def test_rejects_overcommitted_shares(self):
        bad_accounts = (
            Account(name="m0", fair_share=0.8),
            Account(name="m1", fair_share=0.5),
        )
        with pytest.raises(ValueError, match="fair shares"):
            Cluster(_classes(), _dcs(), _types(), bad_accounts)


class TestDerived:
    @pytest.fixture
    def c(self):
        return Cluster(_classes(), _dcs(), _types(), _accounts())

    def test_speeds_and_powers(self, c):
        np.testing.assert_allclose(c.speeds, [1.0, 0.5])
        np.testing.assert_allclose(c.active_powers, [1.0, 0.3])

    def test_demands(self, c):
        np.testing.assert_allclose(c.demands, [1.0, 2.0])

    def test_fair_shares(self, c):
        np.testing.assert_allclose(c.fair_shares, [0.7, 0.3])

    def test_account_of_type(self, c):
        np.testing.assert_array_equal(c.account_of_type, [0, 1])

    def test_eligibility_matrix(self, c):
        expected = np.array([[True, False], [True, True]])
        np.testing.assert_array_equal(c.eligibility_matrix(), expected)

    def test_account_matrix(self, c):
        expected = np.array([[True, False], [False, True]])
        np.testing.assert_array_equal(c.account_matrix(), expected)

    def test_max_route_matrix_zero_when_ineligible(self, c):
        mat = c.max_route_matrix()
        assert mat[0, 1] == 0.0
        assert mat[1, 1] > 0

    def test_max_service_matrix_zero_when_ineligible(self, c):
        mat = c.max_service_matrix()
        assert mat[0, 1] == 0.0

    def test_max_total_capacity(self, c):
        # d0: 2*1.0; d1: 1*1.0 + 4*0.5 = 3.0 -> total 5.0
        assert c.max_total_capacity() == pytest.approx(5.0)

    def test_describe_mentions_all_parts(self, c):
        text = c.describe()
        assert "d0" in text and "d1" in text
        assert "m0" in text and "m1" in text


DERIVED_PROPERTIES = (
    "speeds",
    "active_powers",
    "demands",
    "fair_shares",
    "memory_demands",
    "memory_capacities",
    "ingress_costs",
    "account_of_type",
)
DERIVED_METHODS = (
    "eligibility_matrix",
    "account_matrix",
    "max_route_matrix",
    "max_service_matrix",
)


def _derived_arrays(cluster):
    arrays = {name: getattr(cluster, name) for name in DERIVED_PROPERTIES}
    arrays.update({name: getattr(cluster, name)() for name in DERIVED_METHODS})
    return arrays


class TestDerivedCache:
    def _cluster(self):
        return Cluster(_classes(), _dcs(), _types(), _accounts())

    def test_computed_once(self):
        c = self._cluster()
        first, second = _derived_arrays(c), _derived_arrays(c)
        for name, arr in first.items():
            assert second[name] is arr, name

    def test_in_place_write_raises(self):
        for name, arr in _derived_arrays(self._cluster()).items():
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2

    def test_copies_are_writable(self):
        for arr in _derived_arrays(self._cluster()).values():
            copy = arr.copy()
            copy[...] = 0

    def test_pickle_round_trip(self):
        import pickle

        c = self._cluster()
        before = _derived_arrays(c)
        restored = pickle.loads(pickle.dumps(c))
        assert restored.describe() == c.describe()
        after = _derived_arrays(restored)
        for name, arr in before.items():
            assert after[name].tolist() == arr.tolist(), name
            assert after[name].dtype == arr.dtype, name
            with pytest.raises(ValueError, match="read-only"):
                after[name][...] = 0

    def test_pickle_carries_only_the_fields(self):
        import pickle

        c = self._cluster()
        fresh = pickle.dumps(c)
        _derived_arrays(c)
        assert pickle.dumps(c) == fresh

    def test_deepcopy_rebuilds_cache(self):
        import copy

        c = self._cluster()
        before = _derived_arrays(c)
        clone = copy.deepcopy(c)
        after = _derived_arrays(clone)
        for name, arr in before.items():
            assert after[name] is not arr
            assert after[name].tolist() == arr.tolist()
