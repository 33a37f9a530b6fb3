"""The optimal T-step lookahead policy (Section V-A) — Theorem 1's comparator.

The horizon is divided into ``R`` frames of ``T`` slots.  Within each
frame the policy knows every arrival, availability and price in advance
and minimizes the frame-average cost (15) subject to the aggregate flow
constraints (16)-(17) and per-slot capacity (18).

**Variable elimination.**  Routing ``r_ij(t)`` appears only in the
constraints.  Choosing the witness ``r_ij(t) = h_ij(t)`` satisfies (17)
with equality and turns (16) into "aggregate service covers aggregate
arrivals": ``sum_t sum_{i in D_j} h_ij(t) >= sum_t a_j(t)``.  This is
lossless: any feasible ``(r, h)`` yields a feasible ``h`` for the
reduced problem with the same cost, and vice versa (taking ``h`` bounded
by ``min(h^max, r^max)`` so the witness respects eq. (4)).

**Integrality.**  The paper's ``r_ij(t)`` are integers; we solve the LP
relaxation, so the reported frame costs ``G*_r`` are lower bounds on
the true lookahead optimum.  Verifying the Theorem 1 cost bound against
a *lower* bound of the comparator is the conservative direction.

For ``beta = 0`` each frame is a linear program (HiGHS); for
``beta > 0`` a convex program solved with SLSQP and analytic gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize

from repro._validation import require_integer, require_non_negative
from repro.fairness.base import FairnessFunction
from repro.fairness.quadratic import QuadraticFairness
from repro.model.cluster import Cluster

__all__ = ["LookaheadPolicy", "LookaheadSolution"]


@dataclass(frozen=True)
class LookaheadSolution:
    """Result of solving every frame of the lookahead policy.

    Attributes
    ----------
    frame_costs:
        ``G*_r`` for each frame: the minimum frame-average cost (19).
    mean_cost:
        ``(1/R) sum_r G*_r`` — the benchmark of Theorem 1b.
    service:
        ``(T_total, N, J)`` optimal service decisions.
    busy:
        ``(T_total, N, K)`` optimal busy-server decisions.
    """

    frame_costs: np.ndarray
    mean_cost: float
    service: np.ndarray
    busy: np.ndarray


class LookaheadPolicy:
    """Offline frame-by-frame optimal policy with full future knowledge.

    Parameters
    ----------
    cluster:
        Static system description.
    arrivals, availability, prices:
        The full scenario: ``(T, J)``, ``(T, N, K)`` and ``(T, N)``.
    lookahead:
        Frame length ``T``.  The horizon must be a multiple of it.
    beta, fairness:
        Energy-fairness cost parameters (eq. 6).
    """

    def __init__(
        self,
        cluster: Cluster,
        arrivals: np.ndarray,
        availability: np.ndarray,
        prices: np.ndarray,
        lookahead: int,
        beta: float = 0.0,
        fairness: FairnessFunction | None = None,
    ) -> None:
        self.cluster = cluster
        self.arrivals = np.asarray(arrivals, dtype=np.float64)
        self.availability = np.asarray(availability, dtype=np.float64)
        self.prices = np.asarray(prices, dtype=np.float64)
        horizon = self.arrivals.shape[0]
        require_integer(lookahead, "lookahead", minimum=1)
        if horizon % lookahead != 0:
            raise ValueError(
                f"horizon {horizon} must be a multiple of the lookahead {lookahead}"
            )
        require_non_negative(beta, "beta")
        n, j_count = cluster.num_datacenters, cluster.num_job_types
        k_count = cluster.num_server_classes
        if self.arrivals.shape != (horizon, j_count):
            raise ValueError(f"arrivals must have shape (T, {j_count})")
        if self.availability.shape != (horizon, n, k_count):
            raise ValueError(f"availability must have shape (T, {n}, {k_count})")
        if self.prices.shape != (horizon, n):
            raise ValueError(f"prices must have shape (T, {n})")
        self.lookahead = int(lookahead)
        self.beta = float(beta)
        self.fairness = fairness if fairness is not None else QuadraticFairness()
        # h is bounded by min(h^max, r^max) so r = h is a legal witness.
        self._h_bound = np.minimum(
            cluster.max_service_matrix(), cluster.max_route_matrix()
        )

    # ------------------------------------------------------------------
    def solve(self) -> LookaheadSolution:
        """Solve every frame; return costs and the optimal decisions."""
        horizon = self.arrivals.shape[0]
        frames = horizon // self.lookahead
        n, j_count = self.cluster.num_datacenters, self.cluster.num_job_types
        k_count = self.cluster.num_server_classes
        service = np.zeros((horizon, n, j_count))
        busy = np.zeros((horizon, n, k_count))
        costs = np.zeros(frames)
        for r in range(frames):
            start = r * self.lookahead
            stop = start + self.lookahead
            h, b, cost = self._solve_frame(start, stop)
            service[start:stop] = h
            busy[start:stop] = b
            costs[r] = cost
        return LookaheadSolution(
            frame_costs=costs,
            mean_cost=float(costs.mean()),
            service=service,
            busy=busy,
        )

    # ------------------------------------------------------------------
    def _solve_frame(self, start: int, stop: int) -> tuple:
        if math.isclose(self.beta, 0.0, abs_tol=1e-12):
            return self._solve_frame_lp(start, stop)
        return self._solve_frame_convex(start, stop)

    def _frame_layout(self, start: int, stop: int) -> dict:
        cluster = self.cluster
        t_len = stop - start
        n, j_count = cluster.num_datacenters, cluster.num_job_types
        k_count = cluster.num_server_classes
        num_h = t_len * n * j_count
        num_b = t_len * n * k_count
        return {
            "t_len": t_len,
            "n": n,
            "j": j_count,
            "k": k_count,
            "num_h": num_h,
            "num_b": num_b,
        }

    def _frame_bounds(self, start: int, stop: int) -> list:
        lay = self._frame_layout(start, stop)
        bounds: list = []
        for _ in range(lay["t_len"]):
            bounds.extend((0.0, float(ub)) for ub in self._h_bound.ravel())
        for t in range(start, stop):
            bounds.extend((0.0, float(a)) for a in self.availability[t].ravel())
        return bounds

    def _frame_constraints_matrices(self, start: int, stop: int) -> tuple:
        """Rows for capacity (per slot+site) and coverage (per type)."""
        cluster = self.cluster
        lay = self._frame_layout(start, stop)
        t_len, n, j_count, k_count = lay["t_len"], lay["n"], lay["j"], lay["k"]
        num_h, num_b = lay["num_h"], lay["num_b"]
        demands = cluster.demands
        speeds = cluster.speeds
        elig = cluster.eligibility_matrix()

        # Capacity: sum_j d_j h_ijt - sum_k s_k b_ikt <= 0.
        a_cap = np.zeros((t_len * n, num_h + num_b))
        for t in range(t_len):
            for i in range(n):
                row = t * n + i
                h_off = (t * n + i) * j_count
                b_off = num_h + (t * n + i) * k_count
                a_cap[row, h_off : h_off + j_count] = demands
                a_cap[row, b_off : b_off + k_count] = -speeds
        b_cap = np.zeros(t_len * n)

        # Coverage: -sum_{t, i in D_j} h_ijt <= -sum_t a_jt.
        a_cov = np.zeros((j_count, num_h + num_b))
        for j in range(j_count):
            for t in range(t_len):
                for i in range(n):
                    if elig[i, j]:
                        a_cov[j, (t * n + i) * j_count + j] = -1.0
        b_cov = -self.arrivals[start:stop].sum(axis=0)
        return a_cap, b_cap, a_cov, b_cov

    def _energy_coefficients(self, start: int, stop: int) -> np.ndarray:
        """Linear cost of the busy variables: ``phi_i(t) * p_k``."""
        cluster = self.cluster
        lay = self._frame_layout(start, stop)
        coeff = np.zeros(lay["num_b"])
        powers = cluster.active_powers
        pos = 0
        for t in range(start, stop):
            for i in range(cluster.num_datacenters):
                coeff[pos : pos + lay["k"]] = self.prices[t, i] * powers
                pos += lay["k"]
        return coeff

    def _solve_frame_lp(self, start: int, stop: int) -> tuple:
        lay = self._frame_layout(start, stop)
        num_h, num_b = lay["num_h"], lay["num_b"]
        c = np.concatenate([np.zeros(num_h), self._energy_coefficients(start, stop)])
        a_cap, b_cap, a_cov, b_cov = self._frame_constraints_matrices(start, stop)
        result = linprog(
            c,
            A_ub=np.vstack([a_cap, a_cov]),
            b_ub=np.concatenate([b_cap, b_cov]),
            bounds=self._frame_bounds(start, stop),
            method="highs",
        )
        if not result.success:
            raise RuntimeError(
                f"lookahead frame [{start}, {stop}) infeasible or failed: "
                f"{result.message} (check the slackness conditions)"
            )
        h = result.x[:num_h].reshape(lay["t_len"], lay["n"], lay["j"])
        b = result.x[num_h:].reshape(lay["t_len"], lay["n"], lay["k"])
        cost = float(result.fun) / lay["t_len"]
        return h, b, cost

    def _solve_frame_convex(self, start: int, stop: int) -> tuple:
        cluster = self.cluster
        lay = self._frame_layout(start, stop)
        t_len, n, j_count, k_count = lay["t_len"], lay["n"], lay["j"], lay["k"]
        num_h, num_b = lay["num_h"], lay["num_b"]
        energy_coeff = self._energy_coefficients(start, stop)
        demands = cluster.demands
        shares = cluster.fair_shares
        account_of_type = cluster.account_of_type
        speeds = cluster.speeds
        totals = np.array(
            [float(np.dot(self.availability[t].sum(axis=0), speeds)) for t in range(start, stop)]
        )

        # Warm start from the beta = 0 LP solution.
        h0, b0, _ = self._solve_frame_lp(start, stop)
        x0 = np.concatenate([h0.ravel(), b0.ravel()])

        def unfairness(x: np.ndarray) -> float:
            h = x[:num_h].reshape(t_len, n, j_count)
            total = 0.0
            for t in range(t_len):
                per_type = h[t].sum(axis=0) * demands
                acc = np.bincount(
                    account_of_type, weights=per_type, minlength=cluster.num_accounts
                )
                total -= self.fairness.score(acc, totals[t], shares)
            return total

        # Gradient of the unfairness term with respect to h.
        def unfairness_grad(x: np.ndarray) -> np.ndarray:
            h = x[:num_h].reshape(t_len, n, j_count)
            grad = np.zeros(num_h + num_b)
            gh = np.zeros((t_len, n, j_count))
            for t in range(t_len):
                per_type = h[t].sum(axis=0) * demands
                acc = np.bincount(
                    account_of_type, weights=per_type, minlength=cluster.num_accounts
                )
                fg = self.fairness.gradient(acc, totals[t], shares)
                gh[t] = -(fg[account_of_type] * demands)[np.newaxis, :]
            grad[:num_h] = gh.ravel()
            return grad

        def objective(x: np.ndarray) -> float:
            return float(np.dot(energy_coeff, x[num_h:])) + self.beta * unfairness(x)

        def gradient(x: np.ndarray) -> np.ndarray:
            grad = self.beta * unfairness_grad(x)
            grad[num_h:] += energy_coeff
            return grad

        a_cap, b_cap, a_cov, b_cov = self._frame_constraints_matrices(start, stop)
        a_all = np.vstack([a_cap, a_cov])
        b_all = np.concatenate([b_cap, b_cov])
        constraints = [
            {
                "type": "ineq",
                "fun": lambda x: b_all - a_all @ x,
                "jac": lambda x: -a_all,
            }
        ]
        result = minimize(
            objective,
            x0,
            jac=gradient,
            bounds=self._frame_bounds(start, stop),
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": 200, "ftol": 1e-9},
        )
        x = result.x if result.success else x0
        if objective(x) > objective(x0):
            x = x0
        h = x[:num_h].reshape(t_len, n, j_count)
        b = x[num_h:].reshape(t_len, n, k_count)
        return h, b, objective(x) / t_len
