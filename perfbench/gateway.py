"""The ``service`` workload: a live ``repro serve`` gateway under load.

The gateway runs in its own process (``python -m repro.cli serve
--scenario paper``, manual ticks).  This process is the load generator:
one thread running an event loop over at most two keep-alive connections.

The traffic is the gateway's own scenario: ``paper_scenario`` for the
run's seed, whose arrival vector ``a_j(t)`` holds some 54 jobs per slot
over 8 job types.  Slot ``t`` becomes one submission per job type with
arrivals, ``count = a_j(t)`` under the type's account, so the per-slot
load and type mix the scheduler sees follow the trace.

1. **Open-loop phase** (:data:`OPEN_SHARE` of the run), one slot per
   :data:`TICK_PERIOD`:

   * connection A sends slot ``t``'s submissions at seeded random
     times within the slot's period, on a fixed schedule.  Latency runs from the
     moment a request was due, so a stall also counts against the
     requests queued behind it; how late the generator sent each
     request is reported as its lag;
   * connection B, at the start of each period, ticks one slot
     (``POST /v1/admin/tick``), which drains the previous period's
     submissions, and then reads ``GET /v1/queues``.  That puts writes,
     ticks and reads on the same service locks.

2. **Closed-loop phase** (the rest, in segments of about
   :data:`CLOSED_SEGMENT` seconds): connection A sends the same
   submissions back to back; the submissions per second,
   ``throughput_per_s``, is the mean of the segments' completion rates.

3. **Drain** (untimed): ticks until the intake buffer is empty.

``setup_s`` is the median over :data:`SPAWNS` start-ups of the time from
process spawn until ``/v1/health`` answers.  The calibration kernel runs
between start-ups and segments (``calibrate.py``).  Start-up times are
scaled to nominal machine speed by the kernel samples around each;
``throughput_per_s`` and the latencies by the mean of all kernel samples
of the run: the closed-loop rate moved in regimes lasting several
seconds, which the samples around each 0.5 s segment followed less well
(over eight seeds, IQR over median 0.11-0.14 scaled by the run's mean,
0.19-0.20 scaled segment by segment).

The kernel tracks compute speed, and the latencies, much of them
wake-ups and socket round trips, follow it only in part.  When the
kernel time of the shared 2-core x86 VM fell from 10 to 6 ms, the
submit p50 fell from about 0.72 to 0.52 ms as measured and rose from
about 0.75 to 0.85 ms scaled; the scaled figure moves less, so it is
the one reported.  Even so the p50 spread 0.09-0.19 (IQR over median,
sets of five to ten seeds), the least steady of the end-to-end figures.  Each latency percentile is the median of its value over
:data:`SEGMENTS` stretches of the open-loop phase (the p99s, pooled,
excepted).  ``latency_p50_ms`` is the submit p50; the submit p90 and
p99 and the tick and read percentiles are per-layer.  Layer times of
the traced pass are as measured.

The gateway should use no CPU while the kernel runs, since no request
is in flight; its CPU time over the kernel samples (from
``/proc/<pid>/stat``) is reported as ``calibrate.program_cpu_share``,
next to the unscaled ``raw.throughput_per_s``.

Checks: every submission is answered 202 or 429 (a 429 counts as failed;
the rate limits and intake bound sit far above the offered load, so none
is expected); the client's 202/429 tallies equal the server's counters;
accepted jobs equal the jobs ticked into slots plus those still pending;
the accepted-arrival log (the gateway's write-ahead log) holds exactly
the submissions answered 202, and the slots took in exactly their jobs,
type by type; and an offline ``Simulator`` replay of the ticked arrivals
reproduces every live slot record bit for bit.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import select
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate

#: Seconds per slot in the open-loop phase.  The trace has some 6 job
#: types with arrivals per slot, so connection A offers about 600
#: submits/s, several times below the gateway's closed-loop throughput.
#: At 20 s the phase holds some 1200 ticks and reads and 7000 submits,
#: so even the p99s over the whole phase have over ten samples beyond.
TICK_PERIOD = 0.010
#: Share of the run spent in the open-loop phase.
OPEN_SHARE = 0.6
#: Stretches of the open-loop phase whose p50s and p90s are medianed,
#: so a stall of the shared machine moves one stretch, not the figure.
SEGMENTS = 8
#: Seconds per closed-loop segment; a calibration kernel sample follows
#: each, so the samples of a run spread over its closed-loop phase.
CLOSED_SEGMENT = 0.5
#: Server start-ups timed per run for ``setup_s``.
SPAWNS = 5
#: Slots per tick request while draining the intake after the load.
DRAIN_BATCH = 50
#: GreFar's cost-delay parameter (``repro serve --v``).
V = 7.5
#: The service locks whose acquisition waits the traced pass reports.
LOCKS = (
    "SchedulerService.lock",
    "IntakeBuffer._lock",
    "Ingestor._seq_lock",
    "AccountRateLimiter._lock",
)

_clock = time.perf_counter


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One gateway process; ``setup_s`` is spawn until health answers."""

    def __init__(self, root: Path, command: list, data_dir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        data_dir.mkdir(parents=True)
        self.data_dir = data_dir
        self._stderr = open(data_dir / "stderr.log", "w+")
        start = _clock()
        self.proc = subprocess.Popen(
            [sys.executable, *command, "--data-dir", str(data_dir)],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        try:
            self.port = self._read_port(deadline=start + 120.0)
            status, _ = self.call("GET", "/v1/health")
            if status != 200:
                raise RuntimeError(f"/v1/health answered {status}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = _clock() - start

    def _read_port(self, deadline: float) -> int:
        while True:
            remaining = deadline - _clock()
            if remaining <= 0:
                raise TimeoutError("gateway did not report its port")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    self._stderr.seek(0)
                    raise RuntimeError(f"gateway exited: {self._stderr.read()[-2000:]}")
                if line.startswith("listening on http://"):
                    return int(line.rsplit(":", 1)[1])

    def call(self, method: str, path: str, body=None):
        """One request on a fresh connection: ``(status, parsed body)``."""

        async def once():
            conn = await Connection.open(self.port)
            try:
                status, raw = await conn.request(method, path, body)
            finally:
                conn.close()
            return status, json.loads(raw)

        return _drive(once())

    def stop(self) -> str:
        """Shut down through the admin endpoint; returns remaining stdout."""
        try:
            self.call("POST", "/v1/admin/shutdown", {})
            out, _ = self.proc.communicate(timeout=30)
        except BaseException:
            self.kill()
            raise
        finally:
            self._stderr.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"gateway exited with code {self.proc.returncode}")
        return out

    def logged_submissions(self) -> list:
        """The records of the gateway's write-ahead log."""
        from repro.service.ingest import SubmissionLog

        (path,) = self.data_dir.glob("*/submissions.jsonl")
        return SubmissionLog(path).replay()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
        self._stderr.close()


# ----------------------------------------------------------------------
# Load phases
# ----------------------------------------------------------------------
def slot_submissions(scenario, slots: int, rng: random.Random) -> list:
    """Per slot of *scenario*, one submission per job type with arrivals
    (``count`` is the slot's ``a_j(t)``, under the type's account), each
    paired with when it is due, as a share of the slot's period.

    The due times are uniform at random in the period rather than evenly
    spaced: evenly spaced, one submission fell due just as the tick
    before it ended, so whether the read after the tick met a submit
    depended on the tick's duration to a fraction of a millisecond, and
    the read p50 jumped between two values from run to run.
    """
    job_types = scenario.cluster.job_types
    schedule = []
    for row in scenario.arrivals[:slots]:
        bodies = [
            {"account": job_types[j].account, "job_type": j, "count": int(a)}
            for j, a in enumerate(row)
            if a > 0
        ]
        due = sorted(rng.random() for _ in bodies)
        schedule.append(list(zip(due, bodies)))
    return schedule


class Connection:
    """One keep-alive HTTP/1.1 connection driven from the event loop."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        return cls(reader, writer)

    async def request(self, method: str, path: str, body=None) -> tuple:
        """Send one request and read the whole reply: ``(status, body)``."""
        payload = b"" if body is None else json.dumps(body).encode()
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
            .encode() + payload
        )
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while (line := await self.reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    def close(self) -> None:
        self.writer.close()


def _drive(coroutine):
    """Run the load generator on one thread.

    ``select`` takes its timeout in microseconds (``epoll`` rounds up to
    whole milliseconds), so requests leave close to when they are due.
    """
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


async def _sleep_until(due: float) -> None:
    delay = due - _clock()
    if delay > 0:
        await asyncio.sleep(delay)


def open_loop(server: Server, slots: list, accepted: list) -> dict:
    """The open-loop phase: each of *slots*' submissions on A when it is
    due, and one tick-and-read per period on B.  Bodies answered 202 are
    appended to *accepted*."""
    result = {
        "submit": [], "submit_slot": [], "tick": [], "read": [], "lag": [],
        "submit_statuses": [], "other_statuses": [],
    }

    async def submitter(conn, start):
        for i, submissions in enumerate(slots):
            for offset, body in submissions:
                due = start + (i + offset) * TICK_PERIOD
                await _sleep_until(due)
                sent = _clock()
                status, _ = await conn.request("POST", "/v1/jobs", body)
                if status == 202:
                    accepted.append(body)
                result["submit_statuses"].append(status)
                result["submit"].append(_clock() - due)
                result["submit_slot"].append(i)
                result["lag"].append(sent - due)

    async def ticker(conn, start):
        for i in range(len(slots)):
            due = start + i * TICK_PERIOD
            await _sleep_until(due)
            sent = _clock()
            status, _ = await conn.request("POST", "/v1/admin/tick", {"slots": 1})
            ticked = _clock()
            read_status, _ = await conn.request("GET", "/v1/queues")
            result["tick"].append(ticked - due)
            result["read"].append(_clock() - ticked)
            result["lag"].append(sent - due)
            result["other_statuses"] += [status, read_status]

    async def main():
        a, b = await Connection.open(server.port), await Connection.open(server.port)
        start = _clock() + 0.05
        try:
            await asyncio.gather(submitter(a, start), ticker(b, start))
        finally:
            a.close()
            b.close()

    _drive(main())
    return result


def closed_loop(server: Server, bodies: list, seconds: float, accepted: list) -> dict:
    """One closed-loop segment: one connection submits back to back.

    One connection, not two: with two, the gateway's two handler threads
    contended for its interpreter lock, and the rate of a run depended on
    how their turns fell (over five seeds on a shared 2-core VM, IQR over
    median up to 0.20 with two connections, 0.06-0.09 with one).
    """
    statuses: list = []

    async def main():
        conn = await Connection.open(server.port)
        start = _clock()
        deadline = start + seconds
        try:
            while _clock() < deadline:
                body = bodies[len(statuses) % len(bodies)]
                status, _ = await conn.request("POST", "/v1/jobs", body)
                if status == 202:
                    accepted.append(body)
                statuses.append(status)
        finally:
            conn.close()
        return len(statuses) / (_clock() - start)

    return {"statuses": statuses, "rate": _drive(main())}


def drain(server: Server, capacity: int) -> list:
    """Tick until the intake buffer is empty; returns errors."""
    while True:
        _, health = server.call("GET", "/v1/health")
        if health["pending_jobs"] == 0:
            return []
        room = capacity - health["next_slot"]
        if room <= 0:
            return [f"{health['pending_jobs']} jobs still pending at slot capacity"]
        status, _ = server.call(
            "POST", "/v1/admin/tick", {"slots": min(DRAIN_BATCH, room)}
        )
        if status != 200:
            return [f"a drain tick answered {status}"]


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_accounting(
    statuses: list, accepted_jobs: int, metrics: dict, records: list, pending: int
) -> list:
    """Client tallies against server counters, and job conservation.

    *statuses* are the client's submit replies, *accepted_jobs* the jobs
    in those answered 202, and *metrics* the ``/v1/metrics`` body.
    """
    errors = []
    counters = metrics["service"]
    accepted = statuses.count(202)
    refused = statuses.count(429)
    others = len(statuses) - accepted - refused
    if others:
        errors.append(f"{others} submissions answered neither 202 nor 429")
    server_accepted = metrics["stats"]["counters"].get("service.submissions.accepted", 0)
    if server_accepted != accepted:
        errors.append(f"server accepted {server_accepted} submissions, client saw {accepted}")
    if counters["accepted_jobs"] != accepted_jobs:
        errors.append(
            f"server accepted {counters['accepted_jobs']} jobs, client sent {accepted_jobs}"
        )
    server_refused = counters["rejected_rate_limited"] + counters["rejected_backpressure"]
    if server_refused != refused:
        errors.append(f"server refused {server_refused}, client saw {refused}")
    ticked = sum(sum(record["arrivals"]) for record in records)
    if ticked + pending != counters["accepted_jobs"]:
        errors.append(
            f"{ticked} jobs ticked + {pending} pending != "
            f"{counters['accepted_jobs']} accepted"
        )
    return errors


def check_intake(accepted: list, logged: list, records: list) -> list:
    """The write-ahead log against the submissions answered 202, and the
    jobs the slots took in against them, type by type."""
    errors = []
    sent = Counter((b["account"], b["job_type"], b["count"]) for b in accepted)
    wal = Counter((r.account, r.job_type, r.count) for r in logged)
    if wal != sent:
        errors.append(
            f"the write-ahead log differs from the accepted submissions in "
            f"{sum(((wal - sent) + (sent - wal)).values())} records"
        )
    per_type: Counter = Counter()
    for body in accepted:
        per_type[body["job_type"]] += body["count"]
    ticked: Counter = Counter()
    for record in records:
        for j, arrivals in enumerate(record["arrivals"]):
            ticked[j] += arrivals
    if +ticked != +per_type:
        errors.append(
            f"jobs ticked per type {dict(sorted(ticked.items()))} != accepted "
            f"{dict(sorted(per_type.items()))}"
        )
    return errors


def check_replay(records: list, environment) -> list:
    """Replay the ticked arrivals offline in *environment* (the gateway's
    scenario); every slot must match exactly."""
    import numpy as np

    from repro.schedulers import build_scheduler
    from repro.simulation.simulator import Simulator
    from repro.simulation.trace import Scenario

    if not records:
        return ["no slot was ticked"]
    horizon = len(records)
    scenario = Scenario(
        cluster=environment.cluster,
        arrivals=np.array([record["arrivals"] for record in records]),
        availability=environment.availability[:horizon],
        prices=environment.prices[:horizon],
    )
    scheduler = build_scheduler("grefar", scenario.cluster, v=V, beta=0.0)
    metrics = Simulator(scenario, scheduler).run().metrics
    fields = (
        "energy_cost", "fairness", "combined_cost", "served_jobs",
        "queue_total", "queue_max", "work_per_dc",
    )
    offline = {
        "energy_cost": metrics.energy_cost,
        "fairness": metrics.fairness,
        "combined_cost": metrics.combined_cost,
        "served_jobs": metrics.served_jobs,
        "queue_total": metrics.queue_total,
        "queue_max": metrics.queue_max,
        "work_per_dc": [[float(w) for w in row] for row in metrics.work_per_dc],
    }
    for t, record in enumerate(records):
        if record["slot"] != t:
            return [f"slot record {t} is numbered {record['slot']}"]
        for name in fields:
            if record[name] != offline[name][t]:
                return [f"slot {t}: live {name} differs from the offline replay"]
    return []


# ----------------------------------------------------------------------
# One pass: start the gateway, load it, check it
# ----------------------------------------------------------------------
def serve_command(seed: int, capacity: int, launcher=None) -> list:
    """``repro serve`` arguments; through *launcher* for the traced pass."""
    args = [
        "--scenario", "paper", "--seed", str(seed),
        "--capacity-slots", str(capacity), "--v", str(V),
        "--rate", "1e9", "--burst", "1e9", "--intake-capacity", "100000000",
        # A checkpoint pickles the whole run so far, so its cost grows
        # with the slot count: at every slot it outgrows the tick period
        # within a few hundred slots, and at any cadence the few largest
        # pickles decide the tick p99 by how long the run is.  The load
        # phases therefore run without periodic checkpoints; the one
        # written at shutdown is what ``service.checkpoint_ms`` times.
        "--checkpoint-every", str(capacity + 1),
    ]
    return [str(launcher), *args] if launcher else ["-m", "repro.cli", "serve", *args]


def measure_pass(root: Path, seed: int, seconds: float, workdir: Path, traced: bool) -> dict:
    """Start the gateway, load it in segments, drain it, check it."""
    from repro.scenarios import paper_scenario

    open_ticks = max(1, round(OPEN_SHARE * seconds / TICK_PERIOD))
    closed_segments = max(1, round((1 - OPEN_SHARE) * seconds / CLOSED_SEGMENT))
    closed_length = (1 - OPEN_SHARE) * seconds / closed_segments
    # A drain slot takes up to A_j^max = 200 jobs of each type, so the
    # drain after a 20 s run at ~5k closed-loop submits/s (2-core x86 VM)
    # needs some 650 slots; the capacity leaves room for a gateway four
    # times as fast.  Slots never ticked cost only their share of the
    # scenario the gateway generates at start-up (~25 us each).
    capacity = 5 * open_ticks
    environment = paper_scenario(horizon=capacity, seed=seed)
    slots = slot_submissions(environment, open_ticks, random.Random(seed))
    bodies = [body for slot in slots for _, body in slot]
    launcher = Path(__file__).resolve().parent / "traced_serve.py" if traced else None
    command = serve_command(seed, capacity, launcher)
    spawns = 1 if traced else SPAWNS
    probe = calibrate.Probe(lambda: 0.0)
    kernel = [probe.sample()]

    def slowdown() -> float:
        """Machine slowdown over the step just taken, from the kernel
        samples before and after it."""
        kernel.append(probe.sample())
        return calibrate.slowdown(kernel[-2], kernel[-1])

    setups, raw_setups, slowdowns = [], [], []
    for i in range(spawns):
        server = Server(root, command, workdir / f"{'traced' if traced else 'plain'}-{i}")
        probe.program_cpu = calibrate.process_cpu(server.proc.pid)
        slow = slowdown()
        setups.append(server.setup_s / slow)
        raw_setups.append(server.setup_s)
        slowdowns.append(slow)
        if i < spawns - 1:
            server.stop()

    raw_rates, accepted = [], []
    try:
        latencies = open_loop(server, slots, accepted)
        slowdowns.append(slowdown())
        statuses = list(latencies["submit_statuses"])
        other_statuses = latencies["other_statuses"]
        for _ in range(closed_segments):
            part = closed_loop(server, bodies, closed_length, accepted)
            slowdowns.append(slowdown())
            raw_rates.append(part["rate"])
            statuses += part["statuses"]
        errors = drain(server, capacity)
        _, health = server.call("GET", "/v1/health")
        _, slot_view = server.call("GET", f"/v1/slots?start=0&count={capacity}")
        _, metrics = server.call("GET", "/v1/metrics")
    except BaseException:
        server.kill()
        raise
    out = server.stop()

    failed_other = sum(1 for status in other_statuses if status != 200)
    if failed_other:
        errors.append(f"{failed_other} tick/read requests failed")
    records = slot_view["records"]
    if len(records) != health["next_slot"] or len(records) < open_ticks:
        errors.append(
            f"{len(records)} slot records for {health['next_slot']} slots "
            f"({open_ticks} ticked under load)"
        )
    errors += check_accounting(
        statuses,
        sum(body["count"] for body in accepted),
        metrics,
        records,
        health["pending_jobs"],
    )
    errors += check_intake(accepted, server.logged_submissions(), records)
    errors += check_replay(records, environment)
    trace = None
    if traced:
        line = [ln for ln in out.splitlines() if ln.startswith("TRACE ")][-1]
        trace = json.loads(line[len("TRACE "):])
    refused = sum(1 for status in statuses if status != 202)
    open_submits = len(bodies)
    print(
        f"service: {open_submits} open-loop submits, {open_ticks} ticks, "
        f"{len(statuses) - open_submits} closed-loop submits, "
        f"{len(records) - open_ticks} drain slots, raw closed loop "
        f"{statistics.fmean(raw_rates):.0f}/s, raw setup "
        f"{statistics.median(raw_setups):.3f} s, machine slowdown "
        f"{min(slowdowns):.2f}-{max(slowdowns):.2f} (mean {calibrate.slowdown(*kernel):.3f}), "
        f"gateway CPU during kernel samples {probe.program_cpu_share:.3f}",
        file=sys.stderr,
    )
    return {
        "setup_s": statistics.median(setups),
        "slowdown": calibrate.slowdown(*kernel),
        "submit_per_s": statistics.fmean(raw_rates) * calibrate.slowdown(*kernel),
        "raw_submit_per_s": statistics.fmean(raw_rates),
        "program_cpu_share": probe.program_cpu_share,
        "latencies": latencies,
        "attempted": len(statuses) + len(other_statuses),
        "failed": refused + failed_other,
        "submit_attempts": len(statuses),
        "refused": refused,
        "errors": errors,
        "trace": trace,
    }


def layer_metrics(trace: dict) -> dict:
    """Mean time per call of each traced layer."""
    spans, waits = trace["spans"], trace["waits"]

    def mean_ms(name, own=False):
        calls, total, self_time = spans.get(name, [0, 0.0, 0.0])
        seconds = self_time if own else total
        return 1e3 * seconds / calls if calls else 0.0

    metrics = {
        "service.parse_ms": mean_ms("service.parse"),
        "service.ratelimit_ms": mean_ms("service.ratelimit"),
        "service.ingest_self_ms": mean_ms("service.ingest", own=True),
        "service.wal_append_ms": mean_ms("service.wal_append"),
        "service.tick_ms": mean_ms("service.tick"),
        "service.checkpoint_ms": mean_ms("service.checkpoint"),
    }
    for lock in LOCKS:
        calls, total = waits.get(lock, [0, 0.0])
        metrics[f"service.lock_wait_ms.{lock}"] = (
            1e3 * total / calls if calls else 0.0
        )
    return metrics


def run(root: Path, seed: int, seconds: float, trace: bool) -> dict:
    # The load generator and the gateways it spawns share one CPU.  Left
    # to the scheduler, some runs kept them apart and some together, and
    # closed-loop throughput differed twofold between the two placements.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = root / ".perfbench_work" / f"service-{os.getpid()}"
    try:
        plain = measure_pass(root, seed, seconds, workdir, traced=False)
        traced = measure_pass(root, seed, seconds, workdir, traced=True) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    result = {
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "errors": plain["errors"] + (traced["errors"] if traced else []),
    }

    latencies = plain["latencies"]
    scale = 1e3 / plain["slowdown"]

    def ms(name, q):
        """Percentile *q* of the open-loop latencies *name*, in ms at
        nominal machine speed."""
        return scale * percentile(latencies[name], q)

    def segment_ms(name, q):
        """Median over :data:`SEGMENTS` stretches of the open-loop phase
        of the percentile *q* of latencies *name*, in ms at nominal
        machine speed."""
        values = latencies[name]
        slots = latencies.get(f"{name}_slot", range(len(values)))
        count = max(slots) + 1
        parts: list = [[] for _ in range(SEGMENTS)]
        for value, slot in zip(values, slots):
            parts[slot * SEGMENTS // count].append(value)
        return scale * statistics.median(percentile(part, q) for part in parts if part)

    if not trace:
        result["metrics"] = {
            "throughput_per_s": plain["submit_per_s"],
            "setup_s": plain["setup_s"],
            "latency_p50_ms": segment_ms("submit", 0.50),
        }
        return result
    metrics = layer_metrics(traced["trace"])
    # The tails are reported here, not end to end.  A submit that lands
    # on a tick waits for it; as the machine slows, ticks get both longer
    # and more likely to be hit, so the submit p90 moved about twice as
    # much as the p50 (IQR over median up to 0.29 over five seeds on a
    # shared 2-core VM).  The p99s swing by a fifth to a half of their
    # value from run to run (the machine's stalls land in the top 1%).
    # They are pooled over the whole phase, so that each has over ten
    # samples beyond it.
    metrics["latency_p90_ms"] = segment_ms("submit", 0.90)
    metrics["latency_p99_ms"] = ms("submit", 0.99)
    for name in ("tick", "read"):
        metrics[f"service.{name}_p50_ms"] = segment_ms(name, 0.50)
        metrics[f"service.{name}_p90_ms"] = segment_ms(name, 0.90)
        metrics[f"service.{name}_p99_ms"] = ms(name, 0.99)
    metrics["loadgen.lag_p99_ms"] = ms("lag", 0.99)
    metrics["obs.trace_overhead"] = 1.0 - traced["submit_per_s"] / plain["submit_per_s"]
    metrics["failed_share"] = plain["refused"] / plain["submit_attempts"]
    metrics["raw.throughput_per_s"] = plain["raw_submit_per_s"]
    metrics["calibrate.program_cpu_share"] = plain["program_cpu_share"]
    result["metrics"] = metrics
    return result
