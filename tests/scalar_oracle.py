"""Scalar full-scan references for the slot hot path (tests only).

The library builds each slot's supply side once as whole arrays
(:class:`repro.optimize.capacity.SupplyTable`) and vectorizes across
sites.  This module keeps the straightforward per-site formulation it
replaced: one :class:`SupplyCurve` object per data center walked class
by class, the per-site merge of supply segments with pricing tiers, and
the greedy matching on numpy scalars at every site.
``test_supply_table_oracle`` checks the vectorized code against it with
``==``, so any change to the floating-point order of a site's
arithmetic shows up as a failure.

:class:`DenseQueueNetwork` does the same for the queue ledgers: it
scans every (site, type) cell for service and every site for routing,
and clips on full copies; ``test_queue_oracle`` checks the sparse
:class:`~repro.model.queues.QueueNetwork` against it with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.model.action import Action
from repro.model.queues import QueueNetwork

_EPS = 1e-12
_MERGE_EPS = 1e-9


@dataclass(frozen=True)
class SupplyCurve:
    """Minimum-power capacity supply for one data center in one slot."""

    class_order: np.ndarray
    capacities: np.ndarray
    unit_powers: np.ndarray

    @property
    def total_capacity(self) -> float:
        return float(self.capacities.sum())

    def min_power(self, capacity: float) -> float:
        if capacity < -_EPS:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        remaining = min(max(capacity, 0.0), self.total_capacity)
        if capacity > self.total_capacity * (1.0 + 1e-9) + 1e-9:
            raise ValueError("requested capacity exceeds site total")
        power = 0.0
        for cap, unit in zip(self.capacities, self.unit_powers):
            take = min(cap, remaining)
            power += take * unit
            remaining -= take
            if remaining <= _EPS:
                break
        return power

    def busy_counts(self, capacity: float, num_classes: int, speeds: np.ndarray) -> np.ndarray:
        if capacity > self.total_capacity * (1.0 + 1e-9) + 1e-9:
            raise ValueError("requested capacity exceeds site total")
        remaining = min(max(capacity, 0.0), self.total_capacity)
        busy = np.zeros(num_classes)
        for k, cap in zip(self.class_order, self.capacities):
            take = min(cap, remaining)
            if take > _EPS:
                busy[k] = take / speeds[k]
            remaining -= take
            if remaining <= _EPS:
                break
        return busy

    def marginal_segments(self) -> List[Tuple[float, float]]:
        return [
            (float(c), float(u))
            for c, u in zip(self.capacities, self.unit_powers)
            if c > _EPS
        ]


def build_supply_curves(cluster, state) -> List[SupplyCurve]:
    speeds = cluster.speeds
    unit = cluster.active_powers / speeds
    order = np.argsort(unit, kind="stable")
    return [
        SupplyCurve(
            class_order=order.copy(),
            capacities=state.availability[i, order] * speeds[order],
            unit_powers=unit[order].copy(),
        )
        for i in range(cluster.num_datacenters)
    ]


def merged_segments(curve: SupplyCurve, pricing, price) -> List[Tuple[float, float]]:
    """One site's supply segments split at the pricing tiers."""
    segments = []
    tiers = list(pricing.tiers(price))
    tier_idx = 0
    tier_energy_left = tiers[0][0] if tiers else float("inf")
    for cap, unit_power in curve.marginal_segments():
        work_left = cap
        while work_left > _MERGE_EPS and tier_idx < len(tiers):
            unit_cost = tiers[tier_idx][1]
            if unit_power <= _MERGE_EPS:
                work_in_tier = work_left
            else:
                work_in_tier = min(work_left, tier_energy_left / unit_power)
            if work_in_tier > _MERGE_EPS:
                segments.append((work_in_tier, unit_power * unit_cost))
            work_left -= work_in_tier
            tier_energy_left -= work_in_tier * unit_power
            if tier_energy_left <= _MERGE_EPS:
                tier_idx += 1
                tier_energy_left = tiers[tier_idx][0] if tier_idx < len(tiers) else 0.0
    return segments


class ScalarSupply:
    """The per-site views of one :class:`SlotServiceProblem`."""

    def __init__(self, problem) -> None:
        self.problem = problem
        self.curves = build_supply_curves(problem.cluster, problem.state)

    def site_capacities(self) -> np.ndarray:
        return np.array([c.total_capacity for c in self.curves])

    def segments(self, i: int) -> List[Tuple[float, float]]:
        return merged_segments(self.curves[i], self.problem.pricing, self.problem.state.prices[i])

    def energy_cost(self, h: np.ndarray) -> float:
        loads = self.problem.loads(h)
        return float(
            sum(
                self.problem.pricing.total_cost(
                    self.curves[i].min_power(loads[i]), self.problem.state.prices[i]
                )
                for i in range(len(self.curves))
            )
        )

    def busy_for(self, h: np.ndarray) -> np.ndarray:
        loads = self.problem.loads(h)
        cluster = self.problem.cluster
        return np.stack(
            [
                curve.busy_counts(loads[i], cluster.num_server_classes, cluster.speeds)
                for i, curve in enumerate(self.curves)
            ]
        )

    def greedy(self) -> np.ndarray:
        problem = self.problem
        demands = problem.cluster.demands
        n, j_count = problem.h_upper.shape
        h = np.zeros((n, j_count))
        for i in range(n):
            values = problem.queue_weights[i] / demands
            work_wanted = problem.h_upper[i] * demands
            demand_order = np.argsort(-values, kind="stable")
            segments = self.segments(i)
            seg_idx = 0
            seg_remaining = segments[0][0] if segments else 0.0
            for j in demand_order:
                want = work_wanted[j]
                if want <= _EPS or values[j] <= _EPS:
                    continue
                while want > _EPS and seg_idx < len(segments):
                    unit_cost = problem.v * segments[seg_idx][1]
                    if values[j] <= unit_cost + _EPS:
                        break
                    take = min(want, seg_remaining)
                    h[i, j] += take / demands[j]
                    want -= take
                    seg_remaining -= take
                    if seg_remaining <= _EPS:
                        seg_idx += 1
                        seg_remaining = (
                            segments[seg_idx][0] if seg_idx < len(segments) else 0.0
                        )
                if seg_idx >= len(segments):
                    break
            np.minimum(h[i], problem.h_upper[i], out=h[i])
        return h


class DenseQueueNetwork(QueueNetwork):
    """A :class:`QueueNetwork` that visits every cell on every slot.

    The clip trims the largest senders first, ties in site order (a
    stable sort), and always returns a new :class:`Action`.
    """

    def clip_to_content(self, action):
        r = np.array(action.route)
        h = np.minimum(np.array(action.serve), self._dc)
        for j in range(self.cluster.num_job_types):
            excess = r[:, j].sum() - np.floor(self._front[j] + 1e-9)
            if excess <= 0:
                continue
            order = np.argsort(-r[:, j], kind="stable")
            for i in order:
                take = min(r[i, j], excess)
                r[i, j] -= take
                excess -= take
                if excess <= 0:
                    break
        return Action(r, h, action.busy)

    def _apply_service(self, h, t):
        served = np.zeros_like(self._dc)
        n, j = self._dc.shape
        for i in range(n):
            for jj in range(j):
                want = h[i, jj]
                if want <= _EPS:
                    continue
                got = self._drain_ledger(self._dc_ledger[(i, jj)], want, t, i, jj)
                served[i, jj] = got
        self._dc = np.maximum(self._dc - h, 0.0)
        return served

    def _apply_routing(self, r, t):
        routed = np.zeros_like(r)
        n, j = r.shape
        for jj in range(j):
            total_want = r[:, jj].sum()
            if total_want <= _EPS:
                continue
            available = self._front[jj]
            drained = self._drain_front_ledger(jj, min(total_want, available), t)
            share = r[:, jj] / total_want
            for i in range(n):
                count = drained * share[i]
                if count <= _EPS:
                    continue
                self._dc_ledger[(i, jj)].append([float(t), count])
                routed[i, jj] = count
        self._front = np.maximum(self._front - r.sum(axis=0), 0.0)
        self._dc = self._dc + r
        return routed
