"""Scheduler actions: ``z(t) = {r_ij(t), h_ij(t), b_ik(t)}`` (Section III-C2).

An :class:`Action` is what any scheduler returns for one slot:

* ``route`` — ``r_ij(t)``: how many type-``j`` jobs to send from the
  central queue to data center ``i`` (integer-valued, eq. (4) bounded);
* ``serve`` — ``h_ij(t)``: how many type-``j`` jobs to process at data
  center ``i`` (fractional allowed, jobs are preemptible, eq. (5));
* ``busy`` — ``b_ik(t)``: how many class-``k`` servers to run busy at
  data center ``i`` (fractional allowed, ``<= n_ik(t)``).

The feasibility coupling is eq. (11): the work served cannot exceed the
work capacity of the busy servers,
``sum_j h_ij d_j <= sum_k b_ik s_k <= sum_k n_ik s_k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.cluster import Cluster
from repro.model.state import ClusterState

__all__ = ["Action"]

_FEAS_TOL = 1e-6


@dataclass(frozen=True)
class Action:
    """One slot's scheduling decision ``z(t)``.

    All three arrays are defensively copied and frozen.  Use
    :meth:`validate` to check feasibility against a cluster and state.
    """

    route: np.ndarray
    serve: np.ndarray
    busy: np.ndarray

    def __init__(self, route: np.ndarray, serve: np.ndarray, busy: np.ndarray) -> None:
        r = np.asarray(route, dtype=np.float64).copy()
        h = np.asarray(serve, dtype=np.float64).copy()
        b = np.asarray(busy, dtype=np.float64).copy()
        if r.ndim != 2 or h.ndim != 2 or b.ndim != 2:
            raise ValueError("route, serve and busy must all be 2-D arrays")
        if r.shape != h.shape:
            raise ValueError(
                f"route shape {r.shape} and serve shape {h.shape} must both be (N, J)"
            )
        if b.shape[0] != r.shape[0]:
            raise ValueError(
                f"busy has {b.shape[0]} sites but route has {r.shape[0]}"
            )
        for name, arr in (("route", r), ("serve", h), ("busy", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must contain only finite values")
            if np.any(arr < -_FEAS_TOL):
                raise ValueError(f"{name} must be element-wise non-negative")
        np.clip(r, 0.0, None, out=r)
        np.clip(h, 0.0, None, out=h)
        np.clip(b, 0.0, None, out=b)
        for arr in (r, h, b):
            arr.setflags(write=False)
        object.__setattr__(self, "route", r)
        object.__setattr__(self, "serve", h)
        object.__setattr__(self, "busy", b)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def idle(cls, cluster: Cluster) -> "Action":
        """The all-zeros action: route nothing, serve nothing, all idle."""
        n, j, k = (
            cluster.num_datacenters,
            cluster.num_job_types,
            cluster.num_server_classes,
        )
        return cls(np.zeros((n, j)), np.zeros((n, j)), np.zeros((n, k)))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def work_served(self, cluster: Cluster) -> np.ndarray:
        """Per-site work processed: ``sum_j h_ij * d_j`` (length ``N``)."""
        return self.serve @ cluster.demands

    def capacity_used(self, cluster: Cluster) -> np.ndarray:
        """Per-site capacity provided by busy servers: ``sum_k b_ik s_k``."""
        return self.busy @ cluster.speeds

    def energy_cost(self, cluster: Cluster, state: ClusterState, pricing=None) -> float:
        """Total electricity cost ``e(t)`` (eq. 2).

        With the default linear pricing this is
        ``sum_i phi_i(t) sum_k b_ik p_k``; pass a
        :class:`~repro.model.pricing.PricingModel` for convex pricing
        (Section III-A2).
        """
        return float(np.sum(self.energy_cost_per_site(cluster, state, pricing)))

    def energy_cost_per_site(
        self, cluster: Cluster, state: ClusterState, pricing=None
    ) -> np.ndarray:
        """Per-site electricity cost ``e_i(t)`` (length ``N``)."""
        draws = self.busy @ cluster.active_powers
        if pricing is None:
            return state.prices * draws
        return np.array(
            [
                pricing.total_cost(float(draw), float(price))
                for draw, price in zip(draws, state.prices)
            ]
        )

    def account_work(self, cluster: Cluster) -> np.ndarray:
        """Work processed per account: ``r_m(t)`` of eq. (3) (length ``M``).

        ``r_m(t) = sum_i sum_{j: rho_j = m} h_ij(t) * d_j`` — the
        computing resource consumed by account ``m``'s jobs this slot.
        """
        per_type = self.serve.sum(axis=0) * cluster.demands
        return np.bincount(
            cluster.account_of_type, weights=per_type, minlength=cluster.num_accounts
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(
        self,
        cluster: Cluster,
        state: ClusterState,
        tol: float = 1e-6,
    ) -> "Action":
        """Check all paper constraints; return ``self`` or raise ``ValueError``.

        Checks performed:

        * dimensions match the cluster;
        * ``r_ij`` and ``h_ij`` are zero outside the eligibility sets
          ``D_j`` and within their bounds (eqs. (4), (5));
        * ``r_ij`` is integer-valued (jobs cannot be split across sites);
        * ``0 <= b_ik <= n_ik(t)``;
        * served work fits inside busy capacity (eq. (11)).
        """
        n, j, k = (
            cluster.num_datacenters,
            cluster.num_job_types,
            cluster.num_server_classes,
        )
        if self.route.shape != (n, j):
            raise ValueError(f"route must have shape {(n, j)}, got {self.route.shape}")
        if self.busy.shape != (n, k):
            raise ValueError(f"busy must have shape {(n, k)}, got {self.busy.shape}")

        elig = cluster.eligibility_matrix()
        if np.any(self.route[~elig] > tol):
            raise ValueError("route sends jobs to ineligible data centers")
        if np.any(self.serve[~elig] > tol):
            raise ValueError("serve processes jobs at ineligible data centers")
        if np.any(np.abs(self.route - np.round(self.route)) > tol):
            raise ValueError("route must be integer-valued (jobs cannot be split)")
        if np.any(self.route > cluster.max_route_matrix() + tol):
            raise ValueError("route exceeds the r_ij^max bound (eq. 4)")
        if np.any(self.serve > cluster.max_service_matrix() + tol):
            raise ValueError("serve exceeds the h_ij^max bound (eq. 5)")
        if np.any(self.busy > state.availability + tol):
            raise ValueError("busy exceeds available servers n_ik(t)")

        work = self.work_served(cluster)
        cap = self.capacity_used(cluster)
        if np.any(work > cap + tol * (1.0 + cap)):
            bad = int(np.argmax(work - cap))
            raise ValueError(
                f"served work {work[bad]:.6f} exceeds busy capacity {cap[bad]:.6f} "
                f"at data center index {bad} (eq. 11 violated)"
            )
        mem_caps = cluster.memory_capacities
        if np.any(np.isfinite(mem_caps)):
            used = self.serve @ cluster.memory_demands
            if np.any(used > mem_caps * (1.0 + tol) + tol):
                bad = int(np.argmax(used - mem_caps))
                raise ValueError(
                    f"memory used {used[bad]:.6f} exceeds capacity "
                    f"{mem_caps[bad]:.6f} at data center index {bad}"
                )
        return self
