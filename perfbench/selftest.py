"""Self-test of the benchmark on tiny runs.

Checks that:

* every workload, untraced and traced, exits 0 with a correct result
  whose last line has exactly the contract keys;
* an untraced run prints every end-to-end metric, a traced run every
  per-layer metric, each with the unit ``BENCHMARK.json`` declares, and
  every end-to-end value is a positive number;
* a perturbed reference makes the simulation check fail: by one ulp at
  beta = 0, by ten times the tolerance at beta > 0;
* the service checks reject a perturbed slot record, a miscounted 202
  tally, and a job put under the wrong type in the write-ahead log or
  in a slot.

Usage, from the repository root (about a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gateway  # noqa: E402
import run  # noqa: E402
import sims  # noqa: E402

def bench(*args) -> tuple:
    """Run the benchmark; ``(exit code, parsed last line or None)``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def check_outputs(failures: list) -> None:
    declared = run.declared_metrics()
    for workload in run.WORKLOADS:
        seconds = "1" if workload == "service" else "0.2"
        for trace in ("0", "1"):
            code, result = bench(
                "--workload", workload, "--seed", "5", "--seconds", seconds,
                "--trace", trace,
            )
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                failures.append(f"{where}: exit {code}, result {result}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                failures.append(f"{where}: {result['correct']=} {result['attempted']=}")
            group = declared["per_layer" if trace == "1" else "end_to_end"]
            if set(result["metrics"]) != set(group):
                failures.append(
                    f"{where}: metrics {sorted(set(result['metrics']) ^ set(group))} "
                    "missing or unexpected"
                )
            for name, metric in result["metrics"].items():
                value = metric.get("value")
                if metric.get("unit") != group.get(name):
                    failures.append(f"{where}: {name} has unit {metric.get('unit')}")
                if not isinstance(value, (int, float)):
                    failures.append(f"{where}: {name} has no numeric value")
                elif trace == "0" and not value > 0:
                    failures.append(f"{where}: {name} reads {value}")


def check_perturbed_reference(failures: list, workdir: Path) -> None:
    recorded = sims.REFERENCE
    payload = json.loads(recorded.read_text())
    cases = (("paper", lambda x: math.nextafter(x, math.inf)),
             ("paper-beta", lambda x: x * (1 + 10 * sims.BETA_RTOL)))
    for workload, nudge in cases:
        perturbed = json.loads(json.dumps(payload))
        for summary in perturbed["summaries"][workload].values():
            summary["avg_energy_cost"] = nudge(summary["avg_energy_cost"])
        sims.REFERENCE = workdir / f"{workload}-reference.json"
        sims.REFERENCE.write_text(json.dumps(perturbed))
        try:
            outcome = sims.run(workload, 0, 0.2, False)
        finally:
            sims.REFERENCE = recorded
        if not outcome["errors"]:
            failures.append(f"{workload}: a perturbed reference still passed")


def check_service_checks(failures: list, workdir: Path) -> None:
    import numpy as np

    from repro.scenarios import paper_scenario
    from repro.service import ServiceConfig, ServiceState, tick_once
    from repro.service.ingest import SubmissionRecord

    state = ServiceState(
        ServiceConfig(
            scenario_kind="paper", scenario_seed=5, capacity_slots=40,
            scheduler="grefar", scheduler_kwargs={"v": gateway.V},
            data_dir=str(workdir / "service"),
        )
    )
    rng = np.random.default_rng(5)
    for _ in range(40):
        tick_once(state, rng.integers(0, 4, state.cluster.num_job_types))
    records = json.loads(json.dumps(state.slot_records))
    environment = paper_scenario(horizon=40, seed=5)
    if gateway.check_replay(records, environment):
        failures.append("service replay check rejects a faithful record")
    records[17]["energy_cost"] = math.nextafter(records[17]["energy_cost"], 0.0)
    if not gateway.check_replay(records, environment):
        failures.append("service replay check accepts a perturbed record")
    metrics = {
        "service": {
            "accepted_jobs": 7, "rejected_rate_limited": 0, "rejected_backpressure": 1,
        },
        "stats": {"counters": {"service.submissions.accepted": 3.0}},
    }
    jobs = [{"arrivals": [1.0, 2.0]}, {"arrivals": [3.0, 0.0]}]
    if gateway.check_accounting([202, 202, 202, 429], 7, metrics, jobs, 1):
        failures.append("service accounting check rejects matching tallies")
    if not gateway.check_accounting([202, 202, 429, 429], 7, metrics, jobs, 1):
        failures.append("service accounting check accepts a miscounted reply")
    if not gateway.check_accounting([202, 202, 202, 429], 6, metrics, jobs, 1):
        failures.append("service accounting check accepts a miscounted job")

    # Job types 0 and 1 belong to account 0, type 2 to account 1.
    accepted = [
        {"account": 0, "job_type": 0, "count": 3},
        {"account": 0, "job_type": 1, "count": 2},
        {"account": 1, "job_type": 2, "count": 5},
    ]
    logged = [SubmissionRecord(seq=k + 1, **body) for k, body in enumerate(accepted)]
    slots = [{"arrivals": [3.0, 0.0, 5.0]}, {"arrivals": [0.0, 2.0, 0.0]}]
    if gateway.check_intake(accepted, logged, slots):
        failures.append("service intake check rejects a faithful log and slots")
    wrong_type = [logged[0], SubmissionRecord(seq=2, account=0, job_type=0, count=2),
                  logged[2]]
    if not gateway.check_intake(accepted, wrong_type, slots):
        failures.append("service intake check accepts a log entry of the wrong type")
    # One job of type 1 ticked as type 0; the slot totals still add up.
    moved = [{"arrivals": [3.0, 0.0, 5.0]}, {"arrivals": [1.0, 1.0, 0.0]}]
    if not gateway.check_intake(accepted, logged, moved):
        failures.append("service intake check accepts a job ticked under the wrong type")


def main() -> int:
    failures: list = []
    workdir = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        check_service_checks(failures, workdir)
        check_perturbed_reference(failures, workdir)
        check_outputs(failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
