"""The cluster: the static top-level system description.

A :class:`Cluster` bundles the global server classes, the ``N`` data
centers, the ``J`` job types and the ``M`` accounts, and validates that
all cross-references (eligible data centers, account indices, server
class counts) are consistent.  Every other component of the library —
schedulers, simulators, workload generators — is parameterized by a
cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, wraps
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.model.datacenter import DataCenter
from repro.model.job import Account, JobType
from repro.model.server import ServerClass

__all__ = ["Cluster"]


def _derived(build: Callable[["Cluster"], np.ndarray]) -> cached_property:
    """A cached property whose array is built once and made read-only."""

    @wraps(build)
    def frozen(self: "Cluster") -> np.ndarray:
        arr = build(self)
        arr.setflags(write=False)
        return arr

    return cached_property(frozen)


@dataclass(frozen=True)
class Cluster:
    """Static description of the whole geo-distributed system.

    Parameters
    ----------
    server_classes:
        The ``K`` global server classes.  A data center that does not
        operate class ``k`` simply has ``max_servers[k] == 0``.
    datacenters:
        The ``N`` sites.  Each must be dimensioned for exactly ``K``
        server classes.
    job_types:
        The ``J`` job types.  Eligible-DC indices must be ``< N`` and
        account indices ``< M``.
    accounts:
        The ``M`` accounts.  Their ``fair_share`` weights must sum to
        at most one (equal to one for a fully specified fairness goal).
    """

    server_classes: Tuple[ServerClass, ...]
    datacenters: Tuple[DataCenter, ...]
    job_types: Tuple[JobType, ...]
    accounts: Tuple[Account, ...]

    def __init__(
        self,
        server_classes: Sequence[ServerClass],
        datacenters: Sequence[DataCenter],
        job_types: Sequence[JobType],
        accounts: Sequence[Account],
    ) -> None:
        classes = tuple(server_classes)
        dcs = tuple(datacenters)
        types = tuple(job_types)
        accs = tuple(accounts)
        if not classes:
            raise ValueError("Cluster requires at least one server class")
        if not dcs:
            raise ValueError("Cluster requires at least one data center")
        if not types:
            raise ValueError("Cluster requires at least one job type")
        if not accs:
            raise ValueError("Cluster requires at least one account")

        k = len(classes)
        for dc in dcs:
            if dc.num_server_classes != k:
                raise ValueError(
                    f"data center {dc.name!r} is dimensioned for "
                    f"{dc.num_server_classes} server classes, expected {k}"
                )
        n = len(dcs)
        m = len(accs)
        for jt in types:
            bad = [i for i in jt.eligible_dcs if i >= n]
            if bad:
                raise ValueError(
                    f"job type {jt.name!r} references unknown data center indices {bad}"
                )
            if jt.account >= m:
                raise ValueError(
                    f"job type {jt.name!r} references unknown account index {jt.account}"
                )
        total_share = sum(a.fair_share for a in accs)
        if total_share > 1.0 + 1e-9:
            raise ValueError(
                f"account fair shares must sum to at most 1, got {total_share}"
            )

        object.__setattr__(self, "server_classes", classes)
        object.__setattr__(self, "datacenters", dcs)
        object.__setattr__(self, "job_types", types)
        object.__setattr__(self, "accounts", accs)

    # ------------------------------------------------------------------
    # Dimensions
    # ------------------------------------------------------------------
    @property
    def num_datacenters(self) -> int:
        """``N``: number of data centers."""
        return len(self.datacenters)

    @property
    def num_server_classes(self) -> int:
        """``K``: number of global server classes."""
        return len(self.server_classes)

    @property
    def num_job_types(self) -> int:
        """``J``: number of job types."""
        return len(self.job_types)

    @property
    def num_accounts(self) -> int:
        """``M``: number of accounts."""
        return len(self.accounts)

    # ------------------------------------------------------------------
    # Derived static vectors: each is built on first use, then cached
    # read-only for the life of the cluster (it is immutable, so they
    # never go stale).  Pickles carry only the four fields above; a
    # copy rebuilds its cache the same way.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @_derived
    def speeds(self) -> np.ndarray:
        """Length-``K`` vector of server speeds ``s_k``."""
        return np.array([c.speed for c in self.server_classes])

    @_derived
    def active_powers(self) -> np.ndarray:
        """Length-``K`` vector of busy powers ``p_k``."""
        return np.array([c.active_power for c in self.server_classes])

    @_derived
    def demands(self) -> np.ndarray:
        """Length-``J`` vector of job demands ``d_j``."""
        return np.array([jt.demand for jt in self.job_types])

    @_derived
    def fair_shares(self) -> np.ndarray:
        """Length-``M`` vector of fairness weights ``gamma_m``."""
        return np.array([a.fair_share for a in self.accounts])

    @_derived
    def memory_demands(self) -> np.ndarray:
        """Length-``J`` vector of per-job memory holds (footnote 3)."""
        return np.array([jt.memory for jt in self.job_types])

    @_derived
    def memory_capacities(self) -> np.ndarray:
        """Length-``N`` vector of site memory capacities (may be ``inf``)."""
        return np.array([dc.memory_capacity for dc in self.datacenters])

    @_derived
    def ingress_costs(self) -> np.ndarray:
        """Length-``N`` vector of per-work routing (bandwidth) costs."""
        return np.array([dc.ingress_cost for dc in self.datacenters])

    @cached_property
    def has_memory_constraints(self) -> bool:
        """True iff any site memory cap could bind for any job type."""
        return bool(
            np.any(np.isfinite(self.memory_capacities))
            and np.any(self.memory_demands > 0)
        )

    @_derived
    def account_of_type(self) -> np.ndarray:
        """Length-``J`` int vector mapping job type ``j`` to account ``rho_j``."""
        return np.array([jt.account for jt in self.job_types], dtype=np.int64)

    def eligibility_matrix(self) -> np.ndarray:
        """``(N, J)`` boolean matrix: ``[i, j]`` is True iff ``i in D_j``."""
        return self._eligibility

    def account_matrix(self) -> np.ndarray:
        """``(M, J)`` boolean matrix: ``[m, j]`` is True iff ``rho_j == m``."""
        return self._accounts

    def max_route_matrix(self) -> np.ndarray:
        """``(N, J)`` matrix of routing bounds ``r_ij^max`` (0 if ineligible)."""
        return self._max_route

    def max_service_matrix(self) -> np.ndarray:
        """``(N, J)`` matrix of service bounds ``h_ij^max`` (0 if ineligible)."""
        return self._max_service

    @_derived
    def _eligibility(self) -> np.ndarray:
        mat = np.zeros((self.num_datacenters, self.num_job_types), dtype=bool)
        for j, jt in enumerate(self.job_types):
            for i in jt.eligible_dcs:
                mat[i, j] = True
        return mat

    @_derived
    def _accounts(self) -> np.ndarray:
        mat = np.zeros((self.num_accounts, self.num_job_types), dtype=bool)
        for j, jt in enumerate(self.job_types):
            mat[jt.account, j] = True
        return mat

    @_derived
    def _max_route(self) -> np.ndarray:
        bounds = np.array([jt.max_route for jt in self.job_types], dtype=np.float64)
        return self.eligibility_matrix() * bounds[np.newaxis, :]

    @_derived
    def _max_service(self) -> np.ndarray:
        bounds = np.array([jt.max_service for jt in self.job_types])
        return self.eligibility_matrix() * bounds[np.newaxis, :]

    def max_total_capacity(self) -> float:
        """Peak systemwide work capacity per slot with all servers up."""
        return sum(dc.max_capacity(self.server_classes) for dc in self.datacenters)

    def describe(self) -> str:
        """A short multi-line human-readable summary of the cluster."""
        lines = [
            f"Cluster: N={self.num_datacenters} data centers, "
            f"K={self.num_server_classes} server classes, "
            f"J={self.num_job_types} job types, M={self.num_accounts} accounts",
        ]
        for i, dc in enumerate(self.datacenters):
            cap = dc.max_capacity(self.server_classes)
            lines.append(f"  DC#{i + 1} {dc.name}: max capacity {cap:.1f} work/slot")
        for m, acc in enumerate(self.accounts):
            lines.append(f"  account#{m + 1} {acc.name}: fair share {acc.fair_share:.0%}")
        return "\n".join(lines)
