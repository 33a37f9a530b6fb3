"""The offline simulation workloads: ``paper``, ``paper-beta`` and ``wide-96``.

One run repeats whole simulations until ``seconds`` of simulation time
have been measured.  Repeat ``r`` of a run with seed ``s`` simulates the
recorded scenario ``(s + r) % POOL``, so every run covers a window of
different traces and two runs share most of them.  Each repeat:

1. builds the scenario and the scheduler (timed as set-up);
2. runs ``Simulator.run`` over the whole horizon (timed as the run,
   and slot by slot through an observer);
3. compares the run summary with the reference recorded for that
   scenario in ``reference.json``: bit for bit at ``beta = 0``, within
   :data:`BETA_RTOL` when the fairness QP runs.

Each repeat is bracketed by the calibration kernel (``calibrate.py``),
and its times are scaled to the nominal machine speed.  The end-to-end
metrics are medians over the scaled repeats: ``throughput_per_s`` is
slots per second, ``setup_s`` the set-up time, and ``latency_p50_ms``
the repeat's median time per slot (its p90 and p99 are per-layer: over
five seeds on a shared 2-core VM the p90 spread twice as much as the
p50).  The traced pass also reports the
unscaled throughput and the CPU other threads of this process used
while the kernel ran.  Degraded slots are read off the always-on
``resilient.fallbacks`` counter.

The traced pass (``--trace 1``) first repeats the untraced pass, then
wraps the public calls of each layer (see :func:`install_tracing`) and
runs the same repeats again, so ``obs.trace_overhead`` compares the two.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.grefar import GreFarScheduler
from repro.obs.registry import stats_registry
from repro.scenarios import paper_scenario, wide_scenario
from repro.simulation.simulator import Simulator

import calibrate
from gateway import percentile
from tracing import Tracer

#: GreFar's cost-delay parameter in every simulation workload (the
#: paper's Fig. 3/4 setting).
V = 7.5

#: Recorded scenario seeds; a run's seed picks a window of them.
POOL = 32

#: Relative tolerance on the ``paper-beta`` summary, so that an exact
#: beta > 0 solver agreeing with SLSQP to ~1e-7 per slot still passes.
BETA_RTOL = 1e-4

#: A run repeats at least this many simulations, however short.
MIN_REPEATS = 2

REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class SimWorkload:
    kind: str
    beta: float
    horizon: int

    def scenario(self, seed: int):
        if self.kind == "wide":
            return wide_scenario(horizon=self.horizon, seed=seed, num_datacenters=96)
        return paper_scenario(horizon=self.horizon, seed=seed)


#: Horizons give each repeat about half a second of work on a 2-core
#: x86 box, so a 20 s run takes some 35 repeats.
WORKLOADS = {
    "paper": SimWorkload("paper", beta=0.0, horizon=500),
    "paper-beta": SimWorkload("paper", beta=100.0, horizon=100),
    "wide-96": SimWorkload("wide", beta=0.0, horizon=100),
}


def summarize(result) -> dict:
    """The run summary as plain JSON values (floats round-trip exactly)."""
    return json.loads(json.dumps(result.summary.as_dict()))


def simulate(workload: SimWorkload, seed: int) -> tuple:
    """One repeat: ``(setup seconds, run seconds, summary, degraded slots,
    slot seconds)``.

    A slot's time runs from one slot's dynamics to the next's, read by a
    ``Simulator`` observer (one clock read per slot), so the first slot
    of the run has none.
    """
    fallbacks = stats_registry()
    stamps: list = []

    def stamp(t, state, action, queues):
        stamps.append(time.perf_counter())

    start = time.perf_counter()
    scenario = workload.scenario(seed)
    scheduler = GreFarScheduler(scenario.cluster, v=V, beta=workload.beta)
    built = time.perf_counter()
    before = fallbacks.counter("resilient.fallbacks")
    result = Simulator(scenario, scheduler, observers=[stamp]).run()
    done = time.perf_counter()
    degraded = fallbacks.counter("resilient.fallbacks") - before
    slot_seconds = [b - a for a, b in zip(stamps, stamps[1:])]
    return built - start, done - built, summarize(result), degraded, slot_seconds


def mismatches(summary: dict, reference: dict, beta: float) -> list:
    """Fields where *summary* departs from *reference* (empty when equal):
    bit for bit at ``beta == 0``, within :data:`BETA_RTOL` otherwise."""
    if beta == 0:
        return [key for key in reference if summary.get(key) != reference[key]]
    bad = []
    for key, expected in reference.items():
        got = summary.get(key)
        if isinstance(expected, (int, float)) and not isinstance(expected, bool):
            ok = isinstance(got, (int, float)) and math.isclose(
                got, expected, rel_tol=BETA_RTOL, abs_tol=1e-9
            )
        elif isinstance(expected, list):
            ok = isinstance(got, list) and len(got) == len(expected) and all(
                math.isclose(g, e, rel_tol=BETA_RTOL, abs_tol=1e-9)
                for g, e in zip(got, expected)
            )
        else:
            ok = got == expected
        if not ok:
            bad.append(key)
    return bad


def load_reference(path: Path, name: str) -> dict:
    payload = json.loads(Path(path).read_text())
    if payload["pool"] != POOL or payload["horizon"][name] != WORKLOADS[name].horizon:
        raise ValueError(f"{path} was recorded for another pool or horizon")
    return payload["summaries"][name]


def run_pass(name: str, seed: int, seconds: float, reference: dict) -> dict:
    """Repeat simulations for *seconds*; check each against *reference*."""
    workload = WORKLOADS[name]
    rates, setups, slowdowns, raw_rates, errors = [], [], [], [], []
    p50s, p90s, p99s = [], [], []
    probe = calibrate.Probe(calibrate.other_threads_cpu)
    slots = degraded = 0
    measured = 0.0
    repeat = 0
    while measured < seconds or repeat < MIN_REPEATS:
        scenario_seed = (seed + repeat) % POOL
        before = probe.sample()
        setup, elapsed, summary, failed, slot_times = simulate(workload, scenario_seed)
        slow = calibrate.slowdown(before, probe.sample())
        p50s.append(percentile(slot_times, 0.50) / slow)
        p90s.append(percentile(slot_times, 0.90) / slow)
        p99s.append(percentile(slot_times, 0.99) / slow)
        bad = mismatches(summary, reference[str(scenario_seed)], workload.beta)
        if bad:
            errors.append(f"scenario {scenario_seed}: {', '.join(bad)} differ")
        setups.append(setup / slow)
        rates.append(workload.horizon / elapsed * slow)
        raw_rates.append(workload.horizon / elapsed)
        slowdowns.append(slow)
        slots += workload.horizon
        degraded += failed
        measured += elapsed
        repeat += 1
    print(
        f"{name}: {repeat} repeats, raw median {statistics.median(raw_rates):.1f} "
        f"slots/s, machine slowdown {min(slowdowns):.2f}-{max(slowdowns):.2f}",
        file=sys.stderr,
    )
    return {
        "slots_per_s": statistics.median(rates),
        "raw_slots_per_s": statistics.median(raw_rates),
        "slot_p50_ms": 1e3 * statistics.median(p50s),
        "slot_p90_ms": 1e3 * statistics.median(p90s),
        "slot_p99_ms": 1e3 * statistics.median(p99s),
        "program_cpu_share": probe.program_cpu_share,
        "setup_s": statistics.median(setups),
        "slowdown": statistics.median(slowdowns),
        "slots": slots,
        "degraded": int(degraded),
        "errors": errors,
    }


def install_tracing(tracer) -> None:
    """Wrap each layer's public calls (the names their callers look up)."""
    import repro.core.grefar as grefar
    import repro.optimize.qp as qp
    import repro.resilient.supervisor as supervisor
    from repro.core.objective import CostModel
    from repro.model.action import Action
    from repro.model.queues import QueueNetwork
    from repro.obs.registry import Registry
    from repro.optimize.slot_problem import SlotServiceProblem
    from repro.resilient.supervisor import SupervisedSolver
    from repro.simulation.metrics import MetricsCollector
    from repro.simulation.trace import Scenario

    span, count = tracer.span, tracer.count
    generate = vars(Scenario)["generate"].__func__
    Scenario.generate = classmethod(span("workloads.generate", generate))
    Simulator.run = span("simulation.loop", Simulator.run)
    GreFarScheduler.decide = span("core.decide", GreFarScheduler.decide)
    grefar.service_upper_bounds = span(
        "optimize.problem_build", grefar.service_upper_bounds
    )
    SlotServiceProblem.__init__ = span(
        "optimize.problem_build", SlotServiceProblem.__init__
    )
    SupervisedSolver.solve = span("resilient.solve", SupervisedSolver.solve)
    supervisor.BACKENDS["greedy"] = span(
        "optimize.greedy", supervisor.BACKENDS["greedy"]
    )
    supervisor.BACKENDS["qp"] = span("optimize.qp", supervisor.BACKENDS["qp"])
    qp.solve_greedy = span("optimize.greedy", qp.solve_greedy)
    SlotServiceProblem.clip_feasible = count(
        "optimize.clip_feasible", SlotServiceProblem.clip_feasible
    )
    SlotServiceProblem.is_feasible = count(
        "optimize.is_feasible", SlotServiceProblem.is_feasible
    )
    Action.__init__ = count("model.action_init", Action.__init__)
    QueueNetwork.clip_to_content = span(
        "model.clip_to_content", QueueNetwork.clip_to_content
    )
    QueueNetwork.step = span("model.queues_step", QueueNetwork.step)
    CostModel.evaluate = span("core.cost_evaluate", CostModel.evaluate)
    MetricsCollector.record = span("simulation.metrics_record", MetricsCollector.record)

    # The QP backend reports its SLSQP iteration count through
    # note_solve whether or not telemetry is on; read it there.
    note_solve = Registry.note_solve

    def noting(self, **fields):
        if "iterations" in fields:
            tracer.add("optimize.qp_iterations", fields["iterations"])
        return note_solve(self, **fields)

    Registry.note_solve = noting


def layer_metrics(snapshot: dict, slots: int, slowdown: float) -> dict:
    """Per-slot layer figures from a traced pass over *slots* slots.

    Times are scaled to nominal speed by the pass's median *slowdown*.
    """
    spans, counts = snapshot["spans"], snapshot["counts"]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def per_slot_ms(seconds):
        return 1e3 * seconds / slots / slowdown

    generate = spans.get("workloads.generate", [0, 0.0, 0.0])
    loop = total("simulation.loop")
    return {
        "workloads.generate_s": generate[1] / max(generate[0], 1) / slowdown,
        "core.decide_self_ms": per_slot_ms(own("core.decide")),
        "optimize.problem_build_ms": per_slot_ms(total("optimize.problem_build")),
        "resilient.validate_ms": per_slot_ms(own("resilient.solve")),
        "optimize.greedy_ms": per_slot_ms(total("optimize.greedy")),
        "optimize.qp_ms": per_slot_ms(total("optimize.qp")),
        "optimize.qp_iterations": counts.get("optimize.qp_iterations", 0) / slots,
        "optimize.clip_feasible_per_slot": counts.get("optimize.clip_feasible", 0)
        / slots,
        "optimize.is_feasible_per_slot": counts.get("optimize.is_feasible", 0)
        / slots,
        "model.action_inits_per_slot": counts.get("model.action_init", 0) / slots,
        "model.clip_to_content_ms": per_slot_ms(total("model.clip_to_content")),
        "model.queues_step_ms": per_slot_ms(total("model.queues_step")),
        "core.cost_evaluate_ms": per_slot_ms(total("core.cost_evaluate")),
        "simulation.metrics_record_ms": per_slot_ms(
            total("simulation.metrics_record")
        ),
        "simulation.loop_self_ms": per_slot_ms(own("simulation.loop")),
        "trace.leaf_coverage": snapshot["leaf"] / loop if loop else 0.0,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run workload *name*; returns the result fields and metric values."""
    reference = load_reference(REFERENCE, name)
    # Pays one-time costs (imports inside scipy, first-call caches)
    # before anything is timed.
    simulate(WORKLOADS[name], seed % POOL)
    calibrate.kernel_seconds()
    plain = run_pass(name, seed, seconds, reference)
    errors = list(plain["errors"])
    result = {
        "attempted": plain["slots"],
        "failed": plain["degraded"],
        "errors": errors,
    }
    if not trace:
        result["metrics"] = {
            "throughput_per_s": plain["slots_per_s"],
            "setup_s": plain["setup_s"],
            "latency_p50_ms": plain["slot_p50_ms"],
        }
        return result
    tracer = Tracer()
    install_tracing(tracer)
    traced = run_pass(name, seed, seconds, reference)
    errors.extend(traced["errors"])
    metrics = layer_metrics(tracer.snapshot(), traced["slots"], traced["slowdown"])
    metrics["obs.trace_overhead"] = 1.0 - traced["slots_per_s"] / plain["slots_per_s"]
    metrics["failed_share"] = plain["degraded"] / plain["slots"]
    metrics["latency_p90_ms"] = plain["slot_p90_ms"]
    metrics["latency_p99_ms"] = plain["slot_p99_ms"]
    metrics["raw.throughput_per_s"] = plain["raw_slots_per_s"]
    metrics["calibrate.program_cpu_share"] = plain["program_cpu_share"]
    result["metrics"] = metrics
    return result
