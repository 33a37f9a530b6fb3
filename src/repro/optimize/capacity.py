"""The per-slot energy supply table of every data center.

For a data center ``i`` with availability ``n_ik(t)`` the cheapest way
to provide ``c`` units of work capacity is to fill server classes in
increasing order of energy per unit work ``p_k / s_k`` — a classic
fractional-knapsack argument, exact because both power and capacity are
linear in the busy counts ``b_ik``.  The resulting minimum power
``P_i(c)`` is a piecewise-linear convex function; every per-slot solver
in :mod:`repro.optimize` is built on it.

:class:`SupplyTable` holds that curve for all ``N`` sites of one slot
as whole arrays: one class order shared by every site, and an
``(N, K)`` matrix of the capacity each class contributes.  Queries run
across sites at once with a loop over the ``K`` classes.  Each site
still sees the same floating-point operations, in the same order, as a
walk along its own curve, so a site's answer does not depend on which
other sites are in the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.model.cluster import Cluster
from repro.model.pricing import LinearPricing, PricingModel
from repro.model.state import ClusterState

__all__ = ["SupplyTable"]

_EPS = 1e-12

#: Merged marginal-cost segments narrower than this are dropped.
_SEGMENT_EPS = 1e-9

#: Relative and absolute slack before a load counts as over capacity.
_OVER_TOL = 1e-9


def _merge_tiers(
    capacities: Sequence[float],
    unit_powers: Sequence[float],
    tiers: List[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    """One site's merged marginal-cost curve: ``[(work, cost/work)]``.

    Walks the supply segments (work capacity at power-per-work ``w``)
    and the pricing tiers (energy width at cost-per-energy ``u``)
    together: a stretch of work is charged ``w * u`` per unit until
    either the supply segment or the tier is exhausted.
    """
    segments = []
    tier_idx = 0
    tier_energy_left = tiers[0][0] if tiers else float("inf")
    for cap, unit_power in zip(capacities, unit_powers):
        if cap <= _EPS:
            continue
        work_left = cap
        while work_left > _SEGMENT_EPS and tier_idx < len(tiers):
            unit_cost = tiers[tier_idx][1]
            if unit_power <= _SEGMENT_EPS:
                work_in_tier = work_left
            else:
                work_in_tier = min(work_left, tier_energy_left / unit_power)
            if work_in_tier > _SEGMENT_EPS:
                segments.append((work_in_tier, unit_power * unit_cost))
            work_left -= work_in_tier
            tier_energy_left -= work_in_tier * unit_power
            if tier_energy_left <= _SEGMENT_EPS:
                tier_idx += 1
                tier_energy_left = tiers[tier_idx][0] if tier_idx < len(tiers) else 0.0
    return segments


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SupplyTable:
    """Minimum-power capacity supply of all data centers in one slot.

    Attributes
    ----------
    class_order:
        Server class indices sorted by increasing ``p_k / s_k``
        (stable, so equal ratios keep their class order).
    unit_powers:
        Power per unit work ``p_k / s_k`` of each class in that order.
    speeds:
        Speed ``s_k`` of each class in that order.
    capacities:
        ``(N, K)`` work capacity ``n_ik * s_k`` per site and class, in
        that order.
    totals:
        Length-``N`` maximum work each site can process this slot.

    All arrays are read-only.
    """

    class_order: np.ndarray
    unit_powers: np.ndarray
    speeds: np.ndarray
    capacities: np.ndarray
    totals: np.ndarray

    @classmethod
    def build(cls, cluster: Cluster, state: ClusterState) -> "SupplyTable":
        """The table for *cluster* under this slot's availability."""
        speeds = cluster.speeds
        unit = cluster.active_powers / speeds
        order = np.argsort(unit, kind="stable")
        # C order, so that each site's total adds its row in the order
        # numpy sums one row on its own (pairwise); a column-major
        # reduction would add the classes strictly left to right.
        capacities = np.ascontiguousarray(state.availability[:, order] * speeds[order])
        return cls(
            class_order=_readonly(order),
            unit_powers=_readonly(unit[order]),
            speeds=_readonly(speeds[order]),
            capacities=_readonly(capacities),
            totals=_readonly(capacities.sum(axis=1)),
        )

    @property
    def num_sites(self) -> int:
        return int(self.capacities.shape[0])

    def _bounded(self, loads: np.ndarray) -> np.ndarray:
        """Loads clipped to ``[0, total]``; raises if one is over capacity."""
        loads = np.asarray(loads, dtype=np.float64)
        over = loads > self.totals * (1.0 + _OVER_TOL) + _OVER_TOL
        if np.any(over):
            i = int(np.argmax(over))
            raise ValueError(
                f"requested capacity {loads[i]} exceeds site total "
                f"{self.totals[i]} at site {i}"
            )
        return np.minimum(np.maximum(loads, 0.0), self.totals)

    def min_power(self, loads: np.ndarray) -> np.ndarray:
        """Minimum power per site to provide the length-``N`` *loads*.

        Raises ``ValueError`` if a load is negative or exceeds its site
        total (beyond a small tolerance).
        """
        loads = np.asarray(loads, dtype=np.float64)
        if np.any(loads < -_EPS):
            i = int(np.argmax(loads < -_EPS))
            raise ValueError(f"capacity must be non-negative, got {loads[i]} at site {i}")
        remaining = self._bounded(loads)
        power = np.zeros(self.num_sites)
        # A site stops once its load is covered, as a walk along its
        # curve would: later classes add nothing, not even rounding.
        active = np.ones(self.num_sites, dtype=bool)
        for k, unit in enumerate(self.unit_powers):
            take = np.minimum(self.capacities[:, k], remaining)
            power = np.where(active, power + take * unit, power)
            remaining = remaining - take
            active &= remaining > _EPS
        return power

    def busy_counts(self, loads: np.ndarray) -> np.ndarray:
        """``(N, K)`` busy servers achieving :meth:`min_power`.

        Columns follow the *original* class ordering.
        """
        remaining = self._bounded(loads)
        busy = np.zeros(self.capacities.shape)
        active = np.ones(self.num_sites, dtype=bool)
        for k, cls_index in enumerate(self.class_order):
            take = np.minimum(self.capacities[:, k], remaining)
            used = active & (take > _EPS)
            busy[:, cls_index] = np.where(used, take / self.speeds[k], 0.0)
            remaining = remaining - take
            active &= remaining > _EPS
        return busy

    def subgradient(self, loads: np.ndarray) -> np.ndarray:
        """A subgradient of :meth:`min_power` at each site's load.

        The marginal power of the segment in use (the last segment's
        slope beyond total capacity, which never matters for feasible
        loads).
        """
        remaining = np.maximum(np.asarray(loads, dtype=np.float64), 0.0)
        slope = np.full(self.num_sites, self.unit_powers[-1])
        found = np.zeros(self.num_sites, dtype=bool)
        for k, unit in enumerate(self.unit_powers):
            hit = ~found & (remaining <= self.capacities[:, k] + _EPS)
            slope[hit] = unit
            found |= hit
            remaining = remaining - self.capacities[:, k]
        return slope

    def cost_segments(
        self, pricing: PricingModel, prices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Merged marginal-cost curves of all sites as ``(widths, costs)``.

        Row ``i`` lists site ``i``'s segments in increasing cost, each a
        stretch of work and its cost per unit work; zero-width entries
        are padding.  Under linear pricing a site's curve is its supply
        curve scaled by the price (one broadcast).  Other pricing models
        split the supply segments at the tier boundaries, site by site.
        Both component curves are non-decreasing, so every row is a
        convex marginal-cost curve and greedy matching against it is
        exact.
        """
        if isinstance(pricing, LinearPricing):
            widths = np.where(self.capacities > _SEGMENT_EPS, self.capacities, 0.0)
            return widths, np.outer(prices, self.unit_powers)
        unit_powers = self.unit_powers.tolist()
        rows = [
            _merge_tiers(caps, unit_powers, pricing.tiers(prices[i]))
            for i, caps in enumerate(self.capacities.tolist())
        ]
        width = max((len(row) for row in rows), default=0)
        widths = np.zeros((self.num_sites, width))
        costs = np.zeros((self.num_sites, width))
        for i, row in enumerate(rows):
            widths[i, : len(row)] = [work for work, _ in row]
            costs[i, : len(row)] = [cost for _, cost in row]
        return widths, costs
