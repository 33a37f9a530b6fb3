"""The repository benchmark: one command, four workloads, every metric by name.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 20 --trace 0

Workloads (why each exists is recorded in ``BENCHMARK.json``):

* ``paper`` — Table I cluster, GreFar V=7.5, beta=0 (greedy slot solve);
* ``paper-beta`` — the same traces at beta=100 (SLSQP slot solve);
* ``wide-96`` — ``wide_scenario`` at 96 data centers, beta=0;
* ``service`` — a ``repro serve --scenario paper`` process under an
  open-loop submit stream plus periodic tick-and-read, then a
  closed-loop submit phase.

``--trace 0`` prints the end-to-end metrics, measured with no wrapper
installed; every workload prints all of them.  ``throughput_per_s`` and
``latency_p50_ms`` are taken over the workload's unit of work: a slot in
the simulations (slots per second, median time per slot), a submission
on the service (closed-loop submissions per second, median open-loop
submit latency).  ``--trace 1`` prints the per-layer metrics
of a traced pass (``tracing.py``); a layer the workload never calls
reads 0.  Every end-to-end figure is given at a nominal machine speed
(``calibrate.py``); ``gateway.py`` says how well that suits the
service's latencies.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check prints ``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-process switches of the program that would change what it does
#: or costs; the benchmark measures the default build.
_PROGRAM_SWITCHES = ("REPRO_OBS", "REPRO_TSAN", "REPRO_CONTRACTS")

WORKLOADS = ("paper", "paper-beta", "wide-96", "service")


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        group: {metric["name"]: metric["unit"] for metric in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="GreFar repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in _PROGRAM_SWITCHES:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))

    declared = declared_metrics()
    if args.workload == "service":
        import gateway

        outcome = gateway.run(ROOT, args.seed, args.seconds, bool(args.trace))
    else:
        import sims

        outcome = sims.run(args.workload, args.seed, args.seconds, bool(args.trace))

    units = declared["per_layer" if args.trace else "end_to_end"]
    values = dict(outcome["metrics"])
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    if args.trace:
        for name in units:
            values.setdefault(name, 0.0)
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"declared metrics not measured: {missing}")
    for error in outcome["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    correct = not outcome["errors"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": {
                    name: {"value": float(value), "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
