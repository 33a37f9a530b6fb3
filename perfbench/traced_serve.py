"""Run ``repro serve`` with the gateway's public calls wrapped in spans.

Takes the arguments of ``repro serve``.  Before the gateway starts it
wraps, at the names their callers look up:

* ``parse_submission`` as imported by ``repro.service.app``;
* ``AccountRateLimiter.admit``, ``Ingestor.submit``,
  ``SubmissionLog.append``, ``SlotTicker.tick`` and
  ``SlotTicker.save_checkpoint``.  One-slot ticks (the load) and
  many-slot ticks (the drain after it) are separate spans;
* ``tsan.named_lock``, so every service lock reports its waits.

When the gateway shuts down it prints one line ``TRACE <json>`` with the
merged span, count and lock-wait totals.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import TimedLock, Tracer  # noqa: E402


def install(tracer: Tracer) -> None:
    import repro.service.app as app
    from repro.service.ingest import Ingestor, SubmissionLog
    from repro.service.ratelimit import AccountRateLimiter
    from repro.service.ticker import SlotTicker
    from repro.tools import tsan

    span = tracer.span
    app.parse_submission = span("service.parse", app.parse_submission)
    AccountRateLimiter.admit = span("service.ratelimit", AccountRateLimiter.admit)
    Ingestor.submit = span("service.ingest", Ingestor.submit)
    SubmissionLog.append = span("service.wal_append", SubmissionLog.append)
    one_slot = span("service.tick", SlotTicker.tick)
    many_slots = span("service.drain", SlotTicker.tick)

    def tick(self, slots=1):
        return (one_slot if slots == 1 else many_slots)(self, slots)

    SlotTicker.tick = tick
    SlotTicker.save_checkpoint = span("service.checkpoint", SlotTicker.save_checkpoint)
    named_lock = tsan.named_lock

    def timed_named_lock(name, reentrant=False):
        return TimedLock(tracer, name, named_lock(name, reentrant=reentrant))

    tsan.named_lock = timed_named_lock


def main(argv) -> int:
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    code = cli_main(["serve", *argv])
    print("TRACE " + json.dumps(tracer.snapshot()), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
