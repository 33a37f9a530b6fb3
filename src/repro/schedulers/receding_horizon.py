"""Receding-horizon (MPC) scheduler with pluggable forecasts.

The related work the paper positions against ([3], [4]) plans ahead
using predictions of future demand and prices.  This scheduler brings
that approach into the same harness: every ``replan_every`` slots it
solves a ``window``-slot linear program — minimize predicted energy
subject to clearing the current backlog plus predicted arrivals — and
executes the plan's first slots, clipped to reality.

Forecast modes
--------------
* ``"persistence"`` — tomorrow looks like right now: the current
  price/availability persist, arrivals repeat their trailing average.
* ``"diurnal"`` — tomorrow looks like yesterday: each quantity repeats
  its value from ``period`` slots ago (falling back to persistence
  until enough history accumulates).
* *oracle* — pass a :class:`~repro.simulation.trace.Scenario` to plan
  on the true future: an executable stand-in for the T-step lookahead
  comparator of Theorem 1.

Unlike GreFar, quality here depends entirely on forecast quality; the
comparison benchmark quantifies that gap.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from scipy.optimize import linprog

from repro._validation import require_integer
from repro.model.action import Action
from repro.model.cluster import Cluster
from repro.model.queues import QueueNetwork
from repro.model.state import ClusterState
from repro.schedulers.base import Scheduler, route_greedily, service_upper_bounds
from repro.simulation.trace import Scenario

__all__ = ["RecedingHorizonScheduler"]

_FORECASTS = ("persistence", "diurnal")


class RecedingHorizonScheduler(Scheduler):
    """Plan over a forecast window, execute, re-plan.

    Parameters
    ----------
    cluster:
        Static system description.
    window:
        Planning horizon in slots.
    replan_every:
        Re-solve the plan every this many slots (1 = full MPC).
    forecast:
        ``"persistence"``, ``"diurnal"``, or a :class:`Scenario` for
        oracle (perfect-information) planning.
    period:
        Diurnal period in slots (used by the ``"diurnal"`` forecast).
    """

    def __init__(
        self,
        cluster: Cluster,
        window: int = 24,
        replan_every: int = 6,
        forecast="persistence",
        period: int = 24,
    ) -> None:
        super().__init__(cluster)
        require_integer(window, "window", minimum=1)
        require_integer(replan_every, "replan_every", minimum=1)
        require_integer(period, "period", minimum=1)
        if isinstance(forecast, str) and forecast not in _FORECASTS:
            raise ValueError(
                f"forecast must be one of {_FORECASTS} or a Scenario, got {forecast!r}"
            )
        self.window = int(window)
        self.replan_every = int(replan_every)
        self.forecast = forecast
        self.period = int(period)
        mode = forecast if isinstance(forecast, str) else "oracle"
        self.name = f"RecedingHorizon(W={window}, {mode})"
        self._plan: np.ndarray | None = None  # (window, N, J) service plan
        self._plan_offset = 0
        history_len = max(2 * period, window) + 1
        self._price_history: deque = deque(maxlen=history_len)
        self._avail_history: deque = deque(maxlen=history_len)
        self._arrival_rate = np.zeros(cluster.num_job_types)
        self._seen_slots = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        super().reset()
        self._plan = None
        self._plan_offset = 0
        self._price_history.clear()
        self._avail_history.clear()
        self._arrival_rate = np.zeros(self.cluster.num_job_types)
        self._seen_slots = 0

    def observe_arrivals(self, arrivals: np.ndarray) -> None:
        """Feed realized arrivals (exponential moving average forecast)."""
        arrivals = np.asarray(arrivals, dtype=np.float64)
        if self._seen_slots == 0:
            self._arrival_rate = arrivals.copy()
        else:
            self._arrival_rate = 0.9 * self._arrival_rate + 0.1 * arrivals
        self._seen_slots += 1

    # ------------------------------------------------------------------
    def decide(self, t: int, state: ClusterState, queues: QueueNetwork) -> Action:
        state = self.prepare_state(state)
        self._price_history.append(np.array(state.prices))
        self._avail_history.append(np.array(state.availability))

        if self._plan is None or self._plan_offset >= self.replan_every:
            self._plan = self._solve_plan(t, state, queues)
            self._plan_offset = 0

        planned = self._plan[self._plan_offset]
        self._plan_offset += 1

        front = queues.front
        dc = queues.dc
        route = route_greedily(
            self.cluster, front, dc, capacities=state.capacities(self.cluster)
        )
        h_upper = service_upper_bounds(self.cluster, state, dc)
        h = np.minimum(planned, h_upper)
        # Clip the plan to today's actual capacity.
        caps = state.capacities(self.cluster)
        loads = h @ self.cluster.demands
        for i in range(self.cluster.num_datacenters):
            if loads[i] > caps[i] > 0:
                h[i] *= caps[i] / loads[i]
            elif caps[i] <= 0:
                h[i] = 0.0
        busy = self._busy_for(h, state)
        return Action(route, h, busy)

    # ------------------------------------------------------------------
    # Forecasting
    # ------------------------------------------------------------------
    def _forecast(self, t: int, state: ClusterState) -> tuple:
        """Predicted (prices, availability, arrivals) over the window."""
        w = self.window
        n, j = self.cluster.num_datacenters, self.cluster.num_job_types
        k = self.cluster.num_server_classes
        if isinstance(self.forecast, Scenario):
            scn = self.forecast
            stop = min(t + w, scn.horizon)
            prices = scn.prices[t:stop]
            avail = scn.availability[t:stop]
            arrivals = scn.arrivals[t:stop]
            pad = w - prices.shape[0]
            if pad > 0:
                prices = np.vstack([prices, np.tile(prices[-1:], (pad, 1))])
                avail = np.concatenate([avail, np.tile(avail[-1:], (pad, 1, 1))])
                arrivals = np.vstack([arrivals, np.zeros((pad, j))])
            return prices, avail, arrivals

        arrivals = np.tile(self._arrival_rate, (w, 1))
        if self.forecast == "diurnal" and len(self._price_history) > self.period:
            prices = np.empty((w, n))
            avail = np.empty((w, n, k))
            history_p = list(self._price_history)
            history_a = list(self._avail_history)
            for step in range(w):
                lag = self.period - (step % self.period)
                prices[step] = history_p[-lag]
                avail[step] = history_a[-lag]
            return prices, avail, arrivals

        prices = np.tile(state.prices, (w, 1))
        avail = np.tile(state.availability[np.newaxis], (w, 1, 1))
        return prices, avail, arrivals

    # ------------------------------------------------------------------
    # Planning LP
    # ------------------------------------------------------------------
    def _solve_plan(self, t: int, state: ClusterState, queues: QueueNetwork) -> np.ndarray:
        cluster = self.cluster
        w = self.window
        n, j_count = cluster.num_datacenters, cluster.num_job_types
        k_count = cluster.num_server_classes
        demands = cluster.demands
        speeds = cluster.speeds
        powers = cluster.active_powers
        elig = cluster.eligibility_matrix()
        prices, avail, arrivals = self._forecast(t, state)

        num_h = w * n * j_count
        num_b = w * n * k_count

        c = np.zeros(num_h + num_b)
        pos = num_h
        for step in range(w):
            for i in range(n):
                c[pos : pos + k_count] = prices[step, i] * powers
                pos += k_count

        # Capacity coupling per (step, site).
        a_rows = []
        b_vals = []
        for step in range(w):
            for i in range(n):
                row = np.zeros(num_h + num_b)
                h_off = (step * n + i) * j_count
                b_off = num_h + (step * n + i) * k_count
                row[h_off : h_off + j_count] = demands
                row[b_off : b_off + k_count] = -speeds
                a_rows.append(row)
                b_vals.append(0.0)

        # Clear the backlog plus predicted arrivals per type (weighted so
        # earlier arrivals are also served inside the window).
        backlog = queues.front + queues.dc.sum(axis=0)
        demand_per_type = backlog + arrivals.sum(axis=0)
        for j in range(j_count):
            row = np.zeros(num_h + num_b)
            for step in range(w):
                for i in range(n):
                    if elig[i, j]:
                        row[(step * n + i) * j_count + j] = -1.0
            a_rows.append(row)
            b_vals.append(-float(demand_per_type[j]))

        bounds = []
        h_bound = cluster.max_service_matrix()
        for _ in range(w):
            bounds.extend((0.0, float(ub)) for ub in h_bound.ravel())
        for step in range(w):
            bounds.extend((0.0, float(a)) for a in avail[step].ravel())

        result = linprog(
            c,
            A_ub=np.array(a_rows),
            b_ub=np.array(b_vals),
            bounds=bounds,
            method="highs",
        )
        if not result.success:
            # Forecast says infeasible (e.g. predicted blackout): fall
            # back to serving eagerly this window.
            plan = np.tile(h_bound[np.newaxis], (w, 1, 1))
            return plan
        return result.x[:num_h].reshape(w, n, j_count)

    # ------------------------------------------------------------------
    def _busy_for(self, h: np.ndarray, state: ClusterState) -> np.ndarray:
        from repro.optimize.capacity import SupplyTable

        supply = SupplyTable.build(self.cluster, state)
        loads = h @ self.cluster.demands
        return supply.busy_counts(np.minimum(loads, supply.totals))
