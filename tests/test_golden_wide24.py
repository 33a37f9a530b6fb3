"""Golden-trace regression test on a 24-site cluster.

``tests/data/golden_trace.json`` pins the 2-site small scenario, where
every per-site loop runs twice.  This fixture pins a 24-data-center
:func:`~repro.scenarios.wide_scenario` run, so the vectorized supply
side, routing and validation are checked bit for bit at a width where
an order-of-operations change across sites would show.  The comparison
is the same as the small golden test: every per-slot route, serve and
busy matrix and queue vector, plus the end-of-run summary, after one
``json.dumps``/``loads`` cycle (exact for floats).

Regenerate only after an *intentional* behavior change::

    PYTHONPATH=src python tests/test_golden_wide24.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.grefar import GreFarScheduler
from repro.scenarios import wide_scenario
from repro.simulation.simulator import Simulator

GOLDEN = Path(__file__).parent / "data" / "golden_wide24.json"

NUM_DATACENTERS = 24
HORIZON = 40
SEED = 11
V = 5.0


def _compute_payload() -> dict:
    scenario = wide_scenario(num_datacenters=NUM_DATACENTERS, horizon=HORIZON, seed=SEED)
    scheduler = GreFarScheduler(scenario.cluster, v=V, beta=0.0)
    slots = []

    def record(t, state, action, queues) -> None:
        slots.append(
            {
                "t": t,
                "route": action.route.tolist(),
                "serve": action.serve.tolist(),
                "busy": action.busy.tolist(),
                "front": queues.front.tolist(),
                "dc": queues.dc.tolist(),
            }
        )

    result = Simulator(scenario, scheduler, observers=[record]).run()
    return {
        "config": {
            "scenario": "wide",
            "num_datacenters": NUM_DATACENTERS,
            "horizon": HORIZON,
            "seed": SEED,
            "scheduler": scheduler.name,
            "solver": scheduler.select_backend(),
        },
        "slots": slots,
        "summary": result.summary.as_dict(),
    }


def _normalize(payload: dict) -> dict:
    """One dumps/loads cycle so tuples become lists, floats stay exact."""
    return json.loads(json.dumps(payload))


def test_wide24_golden_trace_reproduces_bit_for_bit():
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    computed = _normalize(_compute_payload())
    for stored_slot, computed_slot in zip(stored["slots"], computed["slots"]):
        for key in ("route", "serve", "busy", "front", "dc"):
            assert computed_slot[key] == stored_slot[key], (
                f"{key} diverged at slot {stored_slot['t']}"
            )
    assert computed["summary"] == stored["summary"]
    assert computed == stored


def test_wide24_golden_fixture_shape():
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert stored["config"]["horizon"] == HORIZON == len(stored["slots"])
    assert stored["config"]["solver"] == "greedy"
    assert len(stored["slots"][0]["serve"]) == NUM_DATACENTERS
    # The run must exercise the service path, not just idle every site.
    assert any(any(any(row) for row in s["serve"]) for s in stored["slots"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        json.dumps(_normalize(_compute_payload()), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
