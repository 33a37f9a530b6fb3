"""Closed-form greedy solver for the beta = 0 slot problem.

Without fairness the service subproblem decomposes per data center into
a fractional matching of *demand segments* (job types, valued at
``q_ij / d_j`` per unit work) against *supply segments* (server
classes, costing ``V phi_i p_k / s_k`` per unit work).  Pairing the
most valuable remaining demand with the cheapest remaining supply while
value strictly exceeds cost solves the LP exactly — this is the
threshold rule the paper describes below Algorithm 1 ("jobs are
processed only when ... electricity prices are sufficiently low",
with ``W = p_k / s_k``).

The supply side is the problem's segment rows
(:attr:`SlotServiceProblem.segment_widths` / ``segment_costs``), which
merge the server-efficiency curve with the electricity pricing tiers —
so the greedy stays exact under any piecewise-linear convex pricing
(Section III-A2), not just the flat per-slot price.

The demand values, their order and the supply rows are computed for
all sites at once in numpy.  The matching itself runs site by site on
plain Python floats, in the same floating-point order as a scalar walk,
and only at sites where some job type's value beats ``V`` times the
cost of the site's first positive-width segment (plus the ``1e-12``
tolerance).  At every other site the walk would stop at that segment
and serve nothing, so its row of ``h`` stays zero and skipping it is
exact.  The numpy part costs ``O(N (J log J + S))`` per slot (``S``
segments per site); the Python part scales with the sites that serve.
This is the default backend for GreFar with ``beta = 0``.
"""

from __future__ import annotations

import numpy as np

from repro.obs.instruments import timed
from repro.optimize.slot_problem import SlotServiceProblem

__all__ = ["solve_greedy"]

_EPS = 1e-12


@timed("solve.greedy")
def solve_greedy(problem: SlotServiceProblem) -> np.ndarray:
    """Exactly minimize the beta = 0 slot objective; return ``h``.

    Raises ``ValueError`` if the problem carries a material fairness
    pull (``has_fairness``) — the greedy exchange argument needs a
    linear objective; use the QP backend for fairness-aware slots.
    """
    if problem.has_fairness:
        raise ValueError(
            "solve_greedy is exact only for beta = 0; use solve_qp for beta > 0"
        )
    demands = problem.cluster.demands
    # Demand side: value per unit work, most valuable first.
    values = problem.queue_weights / demands
    work_wanted = problem.h_upper * demands
    h = np.zeros_like(values)
    widths = problem.segment_widths
    costs = problem.v * problem.segment_costs
    # Visit only sites where some demand beats the cheapest supplied
    # segment (rows are in increasing cost, so that is the first one of
    # positive width); at every other site _match_site serves nothing.
    floor = np.where(widths > 0.0, costs, np.inf).min(axis=1, initial=np.inf) + _EPS
    live = np.flatnonzero(
        ((values > _EPS) & (work_wanted > _EPS) & (values > floor[:, None])).any(axis=1)
    )
    rows = zip(
        live.tolist(),
        values[live].tolist(),
        work_wanted[live].tolist(),
        np.argsort(-values[live], axis=1, kind="stable").tolist(),
        widths[live].tolist(),
        costs[live].tolist(),
    )
    per_job = demands.tolist()
    for i, site_values, wanted, order, site_widths, site_costs in rows:
        h[i] = _match_site(site_values, wanted, order, site_widths, site_costs, per_job)
    np.minimum(h, problem.h_upper, out=h)
    return h


def _match_site(values, wanted, order, widths, costs, demands) -> list:
    """One site's greedy matching: demand (in *order*) against supply.

    *values* and *wanted* give each job type's value per unit work and
    its work bound; *widths* and *costs* the site's supply segments,
    cheapest first (``costs`` already scaled by ``V``; zero widths are
    padding).  Returns the site's row of ``h``.
    """
    served = [0.0] * len(values)
    segments = [(work, cost) for work, cost in zip(widths, costs) if work > 0.0]
    seg_idx = 0
    seg_remaining = segments[0][0] if segments else 0.0
    for j in order:
        want = wanted[j]
        value = values[j]
        if want <= _EPS or value <= _EPS:
            continue
        while want > _EPS and seg_idx < len(segments):
            if value <= segments[seg_idx][1] + _EPS:
                # Cheapest remaining supply is already too expensive
                # for this (and all less valuable) demand.
                break
            take = min(want, seg_remaining)
            served[j] += take / demands[j]
            want -= take
            seg_remaining -= take
            if seg_remaining <= _EPS:
                seg_idx += 1
                seg_remaining = segments[seg_idx][0] if seg_idx < len(segments) else 0.0
        if seg_idx >= len(segments):
            break
    return served
