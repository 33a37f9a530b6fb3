"""Convex solver for the fairness-aware (beta > 0) slot problem.

With the paper's quadratic fairness (eq. 3) the slot problem is a
convex QP in ``(h, b)``: the energy term is linear in ``b``, the queue
reward linear in ``h``, and ``-beta f`` a convex quadratic in the
per-account work (itself linear in ``h``).  This backend solves it with
scipy's SLSQP using analytic gradients; for other concave fairness
functions the problem remains convex and the same machinery applies
through :meth:`FairnessFunction.gradient`.

The solver warm-starts from the beta = 0 greedy solution, which is the
exact optimum whenever the fairness pull is inactive.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from repro.obs.instruments import timed
from repro.obs.registry import metrics_registry
from repro.optimize import SolverFailure
from repro.optimize.greedy import solve_greedy
from repro.optimize.slot_problem import SlotServiceProblem

__all__ = ["solve_qp"]


@timed("solve.qp")
def solve_qp(
    problem: SlotServiceProblem,
    max_iterations: int = 200,
    tolerance: float = 1e-9,
) -> np.ndarray:
    """Solve the slot problem for any ``beta >= 0``; return ``h``.

    Falls back to the exact greedy solution when ``beta == 0``.
    """
    if not problem.has_fairness:
        return solve_greedy(problem)

    cluster = problem.cluster
    state = problem.state
    n = cluster.num_datacenters
    j_count = cluster.num_job_types
    k_count = cluster.num_server_classes
    demands = cluster.demands
    speeds = cluster.speeds
    powers = cluster.active_powers
    shares = cluster.fair_shares
    account_of_type = cluster.account_of_type
    total_resource = problem.total_resource
    num_h = n * j_count

    # Warm start: exact beta = 0 optimum plus its optimal busy counts.
    relaxed = SlotServiceProblem(
        cluster=cluster,
        state=state,
        queue_weights=problem.queue_weights,
        h_upper=problem.h_upper,
        v=problem.v,
        beta=0.0,
        pricing=problem.pricing,
    )
    h0 = problem.clip_feasible(solve_greedy(relaxed))
    b0 = problem.busy_for(h0)
    x0 = np.concatenate([h0.ravel(), b0.ravel()])

    q_flat = problem.queue_weights.ravel()
    pricing = problem.pricing

    def split(x: np.ndarray) -> tuple:
        return x[:num_h].reshape(n, j_count), x[num_h:].reshape(n, k_count)

    def account_work(h: np.ndarray) -> np.ndarray:
        per_type = h.sum(axis=0) * demands
        return np.bincount(account_of_type, weights=per_type, minlength=cluster.num_accounts)

    def energy_cost(b: np.ndarray) -> float:
        draws = b @ powers
        return float(
            sum(
                pricing.total_cost(draws[i], state.prices[i])
                for i in range(n)
            )
        )

    def energy_grad(b: np.ndarray) -> np.ndarray:
        draws = b @ powers
        marginals = np.array(
            [pricing.marginal_price(draws[i], state.prices[i]) for i in range(n)]
        )
        return marginals[:, np.newaxis] * powers[np.newaxis, :]

    def objective(x: np.ndarray) -> float:
        h, b = split(x)
        value = problem.v * energy_cost(b)
        value -= float(np.dot(q_flat, x[:num_h]))
        score = problem.fairness.score(account_work(h), total_resource, shares)
        value -= problem.v * problem.beta * score
        return value

    def gradient(x: np.ndarray) -> np.ndarray:
        h, b = split(x)
        grad = np.empty_like(x)
        grad[num_h:] = problem.v * energy_grad(b).ravel()
        grad_h = -problem.queue_weights.copy()
        fair_grad = problem.fairness.gradient(account_work(h), total_resource, shares)
        # d(account_work_m)/d(h_ij) = d_j when rho_j = m.
        per_type = fair_grad[account_of_type] * demands
        grad_h -= problem.v * problem.beta * per_type[np.newaxis, :]
        grad[:num_h] = grad_h.ravel()
        return grad

    # Per-site capacity coupling: sum_k s_k b_ik - sum_j d_j h_ij >= 0,
    # plus the memory constraint memcap_i - sum_j mem_j h_ij >= 0 where
    # finite (footnote 3).
    row_list = []
    offset_list = []
    for i in range(n):
        row = np.zeros(x0.size)
        row[i * j_count : (i + 1) * j_count] = -demands
        row[num_h + i * k_count : num_h + (i + 1) * k_count] = speeds
        row_list.append(row)
        offset_list.append(0.0)
    mem_demands = cluster.memory_demands
    mem_caps = cluster.memory_capacities
    if np.any(mem_demands > 0):
        for i in range(n):
            if not np.isfinite(mem_caps[i]):
                continue
            row = np.zeros(x0.size)
            row[i * j_count : (i + 1) * j_count] = -mem_demands
            row_list.append(row)
            offset_list.append(float(mem_caps[i]))
    constraint_rows = np.array(row_list)
    constraint_offsets = np.array(offset_list)
    constraints = [
        {
            "type": "ineq",
            "fun": lambda x, rows=constraint_rows, off=constraint_offsets: rows @ x + off,
            "jac": lambda x, rows=constraint_rows: rows,
        }
    ]

    bounds = [(0.0, float(ub)) for ub in problem.h_upper.ravel()]
    bounds += [(0.0, float(avail)) for avail in state.availability.ravel()]

    try:
        result = minimize(
            objective,
            x0,
            jac=gradient,
            bounds=bounds,
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": max_iterations, "ftol": tolerance},
        )
    except (ValueError, FloatingPointError, ZeroDivisionError) as exc:
        raise SolverFailure("qp", f"SLSQP raised: {exc}", problem) from exc
    metrics_registry().note_solve(iterations=int(getattr(result, "nit", 0)))
    if not np.all(np.isfinite(result.x)):
        raise SolverFailure(
            "qp", f"non-finite SLSQP solution ({result.message})", problem
        )
    h_opt, _ = split(result.x)
    h_opt = problem.clip_feasible(h_opt)
    # SLSQP can stall on degenerate slots; never return something worse
    # than the warm start.
    if problem.objective(h_opt) > problem.objective(h0) + 1e-9:
        return h0
    return h_opt
