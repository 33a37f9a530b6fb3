"""The sparse queue ledgers equal the full-scan reference, bit for bit.

``QueueNetwork`` touches only the (site, type) cells a slot serves or
routes to, and its clip returns the decided action when nothing needs
clipping.  ``tests/scalar_oracle.py`` keeps the full scan
(:class:`DenseQueueNetwork`).  Both networks are driven through the same
multi-slot sequences here and compared with ``==``, not ``approx``: the
scalar queues, every ledger batch, every delay statistic and histogram,
and what each step reports as served and routed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.action import Action
from repro.model.cluster import Cluster
from repro.model.datacenter import DataCenter
from repro.model.job import Account, JobType
from repro.model.queues import QueueNetwork
from repro.model.server import ServerClass
from tests.scalar_oracle import DenseQueueNetwork

EPS = 1e-12
ABOVE_EPS = float(np.nextafter(EPS, 1.0))

# Entries at and just above the ledgers' cut-off, small integers (ties,
# and routes that overdraw the central queue) and fractions (routes no
# physical scheduler sends, shares that round).
CELLS = st.one_of(
    st.just(0.0),
    st.sampled_from([EPS, ABOVE_EPS, 1.0, 2.0, 3.0]),
    st.integers(0, 6).map(float),
    st.floats(0.0, 6.0),
)
ARRIVALS = st.one_of(
    st.integers(0, 8).map(float),
    st.floats(0.0, 8.0),
    st.sampled_from([EPS, ABOVE_EPS]),
)


def _cluster(n: int, j_count: int) -> Cluster:
    return Cluster(
        [ServerClass(name="class", speed=1.0, active_power=1.0)],
        [DataCenter(name=f"dc{i}", max_servers=[10.0]) for i in range(n)],
        [
            JobType(name=f"type{j}", demand=1.0, eligible_dcs=list(range(n)), account=0)
            for j in range(j_count)
        ],
        [Account(name="all", fair_share=1.0)],
    )


def _matrix(draw, n, j_count):
    """An (n, J) matrix that is all zeros, sparse, or dense."""
    density = draw(st.sampled_from([0.0, 0.2, 1.0]))
    return np.array(
        [
            [draw(CELLS) if draw(st.floats(0.0, 1.0)) < density else 0.0 for _ in range(j_count)]
            for _ in range(n)
        ]
    )


@st.composite
def sequences(draw):
    n = draw(st.one_of(st.integers(1, 4), st.integers(5, 20)))
    j_count = draw(st.integers(1, 3))
    slots = []
    for _ in range(draw(st.integers(1, 8))):
        slots.append(
            (
                _matrix(draw, n, j_count),
                _matrix(draw, n, j_count),
                np.array([draw(ARRIVALS) for _ in range(j_count)]),
                draw(st.booleans()),  # clip to content first (physical)
            )
        )
    return _cluster(n, j_count), slots


def _ledgers(q: QueueNetwork):
    return (
        [[list(batch) for batch in ledger] for ledger in q._front_ledger],
        {key: [list(batch) for batch in ledger] for key, ledger in q._dc_ledger.items()},
    )


def _stats(q: QueueNetwork):
    stats = q.stats
    return (
        stats.front_completed.tolist(),
        stats.front_delay_sum.tolist(),
        stats.dc_completed.tolist(),
        stats.dc_delay_sum.tolist(),
        stats.dc_delay_histogram,
        stats.front_delay_histogram,
    )


@settings(max_examples=300, deadline=None)
@given(sequences())
def test_sparse_queues_match_dense_reference(params):
    cluster, slots = params
    sparse, dense = QueueNetwork(cluster), DenseQueueNetwork(cluster)
    busy = np.zeros((cluster.num_datacenters, cluster.num_server_classes))
    for t, (route, serve, arrivals, physical) in enumerate(slots):
        action = Action(route, serve, busy)
        sparse_action = dense_action = action
        if physical:
            sparse_action = sparse.clip_to_content(action)
            dense_action = dense.clip_to_content(action)
            assert sparse_action.route.tolist() == dense_action.route.tolist()
            assert sparse_action.serve.tolist() == dense_action.serve.tolist()
            assert sparse_action.busy.tolist() == dense_action.busy.tolist()
        got = sparse.step(sparse_action, arrivals, t)
        expected = dense.step(dense_action, arrivals, t)

        assert got["served"].tolist() == expected["served"].tolist()
        assert got["routed"].tolist() == expected["routed"].tolist()
        assert sparse.front.tolist() == dense.front.tolist()
        assert sparse.dc.tolist() == dense.dc.tolist()
        assert _ledgers(sparse) == _ledgers(dense)
        assert _stats(sparse) == _stats(dense)
