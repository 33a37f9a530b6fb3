"""The per-slot service subproblem shared by all solver backends.

GreFar's slot objective (14) separates into a *routing* part (linear in
``r_ij``, solved in closed form by the scheduler) and a *service* part
in ``(h, b)``:

.. math::

   \\min_{h, b}\\; V\\, e(t) - V\\beta\\, f(t) - \\sum_{ij} q_{ij}(t)\\, h_{ij}(t)

subject to eq. (11) and the box bounds.  :class:`SlotServiceProblem`
captures one instance of this problem — the queue weights, price and
availability snapshot, upper bounds and fairness model — and offers the
objective/feasibility evaluations every backend and every cross-check
test needs.

The supply side is built once per slot, as arrays over all sites: the
:class:`~repro.optimize.capacity.SupplyTable` (per-site capacities in
cost order and site totals) and the merged marginal-cost segment rows
:attr:`SlotServiceProblem.segment_widths` / ``segment_costs``.  Every
evaluation reads those arrays and runs across sites in numpy; within a
site the floating-point order is that of a scalar walk along its curve,
so results do not depend on the number of sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro._validation import require_non_negative
from repro.fairness.base import FairnessFunction
from repro.fairness.quadratic import QuadraticFairness
from repro.model.action import Action
from repro.model.cluster import Cluster
from repro.model.pricing import LinearPricing, PricingModel
from repro.model.state import ClusterState
from repro.optimize.capacity import SupplyTable

__all__ = ["BETA_ZERO_TOL", "SlotServiceProblem"]

_EPS = 1e-9

#: Fairness pulls at or below this are indistinguishable from beta = 0 in
#: the float objective; solvers treat them as zero (see ``has_fairness``).
BETA_ZERO_TOL = 1e-12


@dataclass
class SlotServiceProblem:
    """One slot's service optimization instance.

    Parameters
    ----------
    cluster, state:
        System description and the slot snapshot ``x(t)``.
    queue_weights:
        ``(N, J)`` matrix of data center queue lengths ``q_ij(t)`` —
        the linear reward for serving.
    h_upper:
        ``(N, J)`` upper bounds on ``h_ij`` (the eq. (5) bound,
        intersected with queue contents when running physically).
    v:
        Cost-delay parameter ``V >= 0``.
    beta:
        Energy-fairness parameter ``beta >= 0``.
    fairness:
        Fairness function ``f``; defaults to the paper's quadratic.
    pricing:
        Electricity pricing model (Section III-A2); defaults to the
        paper's linear ``cost = price * energy``.  Any convex pricing
        keeps the slot problem convex; piecewise-linear pricing (linear
        or tiered) keeps the greedy backend exact.

    Attributes
    ----------
    supply:
        The slot's :class:`~repro.optimize.capacity.SupplyTable`.
    segment_widths, segment_costs:
        ``(N, S)`` merged marginal-cost rows (server classes split at
        pricing tiers): each segment's work and its cost per unit work,
        cheapest first; zero widths are padding.
    """

    cluster: Cluster
    state: ClusterState
    queue_weights: np.ndarray
    h_upper: np.ndarray
    v: float
    beta: float = 0.0
    fairness: FairnessFunction = field(default_factory=QuadraticFairness)
    pricing: PricingModel = field(default_factory=LinearPricing)

    def __post_init__(self) -> None:
        n, j = self.cluster.num_datacenters, self.cluster.num_job_types
        self.queue_weights = np.asarray(self.queue_weights, dtype=np.float64)
        self.h_upper = np.asarray(self.h_upper, dtype=np.float64)
        if self.queue_weights.shape != (n, j):
            raise ValueError(
                f"queue_weights must have shape {(n, j)}, got {self.queue_weights.shape}"
            )
        if self.h_upper.shape != (n, j):
            raise ValueError(
                f"h_upper must have shape {(n, j)}, got {self.h_upper.shape}"
            )
        require_non_negative(self.v, "v")
        require_non_negative(self.beta, "beta")
        elig = self.cluster.eligibility_matrix()
        self.h_upper = np.where(elig, np.clip(self.h_upper, 0.0, None), 0.0)
        self.supply = SupplyTable.build(self.cluster, self.state)
        self.segment_widths, self.segment_costs = self.supply.cost_segments(
            self.pricing, self.state.prices
        )
        self._total_resource = self.state.total_resource(self.cluster)

    # ------------------------------------------------------------------
    # Static views
    # ------------------------------------------------------------------
    @property
    def has_fairness(self) -> bool:
        """True when the fairness pull materially affects the objective.

        Betas below :data:`BETA_ZERO_TOL` are treated as zero so the
        exact greedy backend remains usable — at that magnitude the
        fairness term is below float noise in the objective (14).
        """
        return self.beta > BETA_ZERO_TOL

    @property
    def total_resource(self) -> float:
        """``R(t)`` for the fairness normalization."""
        return self._total_resource

    def site_capacity(self, i: int) -> float:
        """Work capacity of site ``i`` this slot."""
        return float(self.supply.totals[i])

    def site_capacities(self) -> np.ndarray:
        """All site capacities (length ``N``, read-only)."""
        return self.supply.totals

    # ------------------------------------------------------------------
    # Objective pieces
    # ------------------------------------------------------------------
    def loads(self, h: np.ndarray) -> np.ndarray:
        """Work each site must process for service matrix *h*."""
        return h @ self.cluster.demands

    def memory_used(self, h: np.ndarray) -> np.ndarray:
        """Memory held per site by the jobs *h* processes (footnote 3)."""
        return h @ self.cluster.memory_demands

    def energy_cost(self, h: np.ndarray) -> float:
        """Minimum electricity cost ``e(t)`` to serve *h*.

        Uses the supply-table minimum power per site and the configured
        pricing model; cheapest-servers-first remains optimal for any
        increasing pricing because cost is increasing in energy.
        """
        powers = self.supply.min_power(self.loads(h))
        return float(
            sum(
                self.pricing.total_cost(power, price)
                for power, price in zip(powers, self.state.prices)
            )
        )

    def marginal_cost_segments(self, i: int) -> List[Tuple[float, float]]:
        """Merged marginal-cost curve of site *i*: ``[(work, cost/work)]``.

        Row ``i`` of :attr:`segment_widths` and :attr:`segment_costs`
        without its padding (see :meth:`SupplyTable.cost_segments`).
        """
        return [
            (work, cost)
            for work, cost in zip(
                self.segment_widths[i].tolist(), self.segment_costs[i].tolist()
            )
            if work > 0.0
        ]

    def account_work(self, h: np.ndarray) -> np.ndarray:
        """Per-account work ``r_m(t)`` implied by service matrix *h*."""
        per_type = h.sum(axis=0) * self.cluster.demands
        return np.bincount(
            self.cluster.account_of_type,
            weights=per_type,
            minlength=self.cluster.num_accounts,
        )

    def fairness_score(self, h: np.ndarray) -> float:
        """Fairness ``f(t)`` of the allocation implied by *h*."""
        return self.fairness.score(
            self.account_work(h), self._total_resource, self.cluster.fair_shares
        )

    def objective(self, h: np.ndarray) -> float:
        """The slot objective ``V e - V beta f - sum q h`` at *h*.

        Uses the optimal (supply-curve) busy counts for the implied
        loads, which is always optimal because ``b`` only appears in the
        energy term.
        """
        value = self.v * self.energy_cost(h)
        if self.beta > 0:
            value -= self.v * self.beta * self.fairness_score(h)
        value -= float(np.sum(self.queue_weights * h))
        return value

    def busy_for(self, h: np.ndarray) -> np.ndarray:
        """Optimal busy-server matrix ``b`` for service matrix *h*."""
        return self.supply.busy_counts(self.loads(h))

    def action_for(self, h: np.ndarray, route: np.ndarray | None = None) -> Action:
        """Package a service matrix (plus optional routing) as an action."""
        if route is None:
            route = np.zeros_like(h)
        return Action(route, h, self.busy_for(h))

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------
    def is_feasible(self, h: np.ndarray, tol: float = 1e-6) -> bool:
        """Check box, eligibility, capacity and memory constraints for *h*."""
        if h.shape != self.h_upper.shape:
            return False
        if np.any(h < -tol) or np.any(h > self.h_upper + tol):
            return False
        loads = self.loads(h)
        caps = self.supply.totals
        if not np.all(loads <= caps * (1.0 + tol) + tol):
            return False
        mem_caps = self.cluster.memory_capacities
        if np.any(np.isfinite(mem_caps)):
            used = self.memory_used(h)
            if not np.all(used <= mem_caps * (1.0 + tol) + tol):
                return False
        return True

    def clip_feasible(self, h: np.ndarray) -> np.ndarray:
        """Project *h* to the box; rescale per-site to fit capacity/memory."""
        out = np.clip(h, 0.0, self.h_upper)
        caps = self.supply.totals
        mem_caps = self.cluster.memory_capacities
        loads = self.loads(out)
        memory = self.memory_used(out)
        scale = np.ones(out.shape[0])
        over = (loads > caps + _EPS) & (loads > 0)
        scale[over] = np.minimum(1.0, caps[over] / loads[over])
        over_memory = np.isfinite(mem_caps) & (memory > mem_caps + _EPS) & (memory > 0)
        scale[over_memory] = np.minimum(
            scale[over_memory], mem_caps[over_memory] / memory[over_memory]
        )
        shrink = scale < 1.0
        out[shrink] *= scale[shrink, np.newaxis]
        return out
