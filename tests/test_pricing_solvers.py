"""Cross-checks of the solver backends under tiered (convex) pricing.

The merged marginal-cost curve keeps the greedy exact for any
piecewise-linear convex pricing; the QP evaluates the pricing directly.
Random instances verify they agree, and that tiered pricing changes
behaviour in the expected direction (spreading load off expensive
tiers).
"""

import numpy as np
import pytest

from repro.model.pricing import LinearPricing, TieredPricing
from repro.model.state import ClusterState
from repro.optimize import SlotServiceProblem, solve_greedy, solve_qp
from repro.scenarios import small_cluster


def _problem(pricing, seed=0, v=5.0, beta=0.0, q_scale=20.0):
    cluster = small_cluster()
    rng = np.random.default_rng(seed)
    n, j = cluster.num_datacenters, cluster.num_job_types
    availability = np.stack(
        [np.floor(dc.max_servers * rng.uniform(0.6, 1.0)) for dc in cluster.datacenters]
    )
    return SlotServiceProblem(
        cluster=cluster,
        state=ClusterState(availability, rng.uniform(0.2, 0.8, size=n)),
        queue_weights=rng.uniform(0.0, q_scale, size=(n, j)),
        h_upper=rng.uniform(0.0, 15.0, size=(n, j)),
        v=v,
        beta=beta,
        pricing=pricing,
    )


TIERED = TieredPricing(boundaries=(3.0, 8.0), multipliers=(1.0, 2.0, 5.0))


class TestMergedSegments:
    def test_linear_pricing_reproduces_supply_curve(self):
        problem = _problem(LinearPricing(), seed=1)
        for i in range(2):
            merged = problem.marginal_cost_segments(i)
            supply = problem.supply
            base = [
                (c, u)
                for c, u in zip(supply.capacities[i], supply.unit_powers)
                if c > 0
            ]
            price = problem.state.prices[i]
            assert len(merged) == len(base)
            for (w_m, c_m), (w_b, u_b) in zip(merged, base):
                assert w_m == pytest.approx(w_b)
                assert c_m == pytest.approx(price * u_b)

    def test_segments_are_nondecreasing_in_cost(self):
        for seed in range(5):
            problem = _problem(TIERED, seed=seed)
            for i in range(2):
                costs = [c for _, c in problem.marginal_cost_segments(i)]
                assert all(c2 >= c1 - 1e-9 for c1, c2 in zip(costs, costs[1:]))

    def test_total_segment_work_equals_capacity(self):
        problem = _problem(TIERED, seed=2)
        for i in range(2):
            total = sum(w for w, _ in problem.marginal_cost_segments(i))
            assert total == pytest.approx(problem.site_capacity(i))


class TestEnergyCost:
    def test_energy_cost_uses_pricing(self):
        lin = _problem(LinearPricing(), seed=3)
        tier = _problem(TIERED, seed=3)
        h = np.minimum(lin.h_upper, 3.0)
        # Tiered pricing can only make the same service more expensive.
        assert tier.energy_cost(h) >= lin.energy_cost(h) - 1e-9

    def test_small_load_stays_in_first_tier(self):
        tier = _problem(TIERED, seed=3)
        lin = _problem(LinearPricing(), seed=3)
        h = np.zeros((2, 2))
        h[0, 0] = 0.5  # tiny load, below the first boundary
        assert tier.energy_cost(h) == pytest.approx(lin.energy_cost(h))


class TestGreedyExactUnderTiers:
    def test_greedy_matches_qp_on_tiered_instances(self):
        for seed in range(8):
            problem = _problem(TIERED, seed=seed, v=3.0)
            h_greedy = solve_greedy(problem)
            # Independent check: greedy must beat or match a fine grid of
            # proportional-scaling candidates of the QP warm start.
            h_qp = solve_qp(problem)
            assert problem.objective(h_greedy) <= problem.objective(h_qp) + 1e-6

    def test_tiered_pricing_reduces_served_work(self):
        """Steeper upper tiers make marginal work unprofitable sooner."""
        served_lin = solve_greedy(_problem(LinearPricing(), seed=4, v=8.0)).sum()
        served_tier = solve_greedy(_problem(TIERED, seed=4, v=8.0)).sum()
        assert served_tier <= served_lin + 1e-9

    def test_feasibility_maintained(self):
        for seed in range(5):
            problem = _problem(TIERED, seed=seed)
            assert problem.is_feasible(solve_greedy(problem))


class TestEndToEnd:
    def test_grefar_with_tiered_pricing_runs(self, scenario):
        from repro.core.grefar import GreFarScheduler
        from repro.simulation.simulator import Simulator

        scheduler = GreFarScheduler(
            scenario.cluster,
            v=10.0,
            pricing=TieredPricing(boundaries=(5.0,), multipliers=(1.0, 3.0)),
        )
        result = Simulator(scenario, scheduler, validate=True).run(40)
        assert result.summary.horizon == 40

    def test_tiered_pricing_spreads_load(self):
        """With steep tiers, concentrating work at one site is penalized:
        the peak per-site share drops versus linear pricing."""
        from repro.core.grefar import GreFarScheduler
        from repro.scenarios import small_scenario
        from repro.simulation.simulator import Simulator

        scn = small_scenario(horizon=150, seed=6)
        tiered = TieredPricing(boundaries=(4.0,), multipliers=(1.0, 6.0))

        def peak_share(pricing):
            scheduler = GreFarScheduler(scn.cluster, v=2.0, pricing=pricing)
            result = Simulator(scn, scheduler).run()
            work = result.metrics.work_per_dc_series().sum(axis=0)
            return float(work.max() / max(work.sum(), 1e-9))

        assert peak_share(tiered) <= peak_share(LinearPricing()) + 0.05
