"""Dependency-light projected (sub)gradient backend for the slot problem.

Operates on the service matrix ``h`` alone, pricing capacity through
the slot's piecewise-linear minimum-power supply table, and projects
each iterate onto the feasible set (box bounds plus per-site capacity
via radial rescaling, which is exact for the box and conservative for
the capacity face).  Uses backtracking line search on the true objective, so every
accepted step strictly improves.

This backend exists for two reasons: it has no scipy dependency in its
inner loop (useful where SLSQP is unavailable or too heavy), and it is
an *independently derived* optimizer that the property tests compare
against the QP backend to catch formulation bugs.
"""

from __future__ import annotations

import numpy as np

from repro.obs.instruments import timed
from repro.obs.registry import metrics_registry
from repro.optimize.slot_problem import SlotServiceProblem

__all__ = ["solve_projected_gradient"]


def _subgradient(problem: SlotServiceProblem, h: np.ndarray) -> np.ndarray:
    """Subgradient of the slot objective with respect to ``h``."""
    cluster = problem.cluster
    demands = cluster.demands
    loads = problem.loads(h)
    grad = -problem.queue_weights.copy()
    powers = problem.supply.min_power(loads)
    marginal_powers = problem.supply.subgradient(loads)
    for i, price in enumerate(problem.state.prices):
        marginal_price = problem.pricing.marginal_price(powers[i], price)
        grad[i] += problem.v * marginal_price * marginal_powers[i] * demands
    if problem.beta > 0:
        fair_grad = problem.fairness.gradient(
            problem.account_work(h), problem.total_resource, cluster.fair_shares
        )
        per_type = fair_grad[cluster.account_of_type] * demands
        grad -= problem.v * problem.beta * per_type[np.newaxis, :]
    return grad


@timed("solve.projected_gradient")
def solve_projected_gradient(
    problem: SlotServiceProblem,
    max_iterations: int = 300,
    initial_step: float = 1.0,
    tolerance: float = 1e-8,
) -> np.ndarray:
    """Minimize the slot objective by projected subgradient descent.

    Returns a feasible ``h``.  Exactness is not guaranteed at
    non-smooth kinks, but tests hold it within a small gap of the QP
    backend on randomized instances.
    """
    h = problem.clip_feasible(np.zeros_like(problem.h_upper))
    best = h.copy()
    best_value = problem.objective(best)
    step = initial_step

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        grad = _subgradient(problem, h)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tolerance:
            break
        improved = False
        trial_step = step
        for _ in range(30):
            candidate = problem.clip_feasible(h - trial_step * grad / grad_norm)
            value = problem.objective(candidate)
            if value < best_value - tolerance:
                h = candidate
                best = candidate
                best_value = value
                step = trial_step * 1.5
                improved = True
                break
            trial_step *= 0.5
        if not improved:
            break
    metrics_registry().note_solve(iterations=iterations)
    return best
