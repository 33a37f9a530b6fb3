"""Record ``reference.json``: the run summary of every pooled scenario.

The references pin what the program computes today.  Re-record only when
the pool or a horizon in ``sims.py`` changes, never to make a changed
program pass.

Usage, from the repository root::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import sims  # noqa: E402


def main() -> int:
    payload = {
        "pool": sims.POOL,
        "horizon": {name: w.horizon for name, w in sims.WORKLOADS.items()},
        "summaries": {},
    }
    for name, workload in sims.WORKLOADS.items():
        payload["summaries"][name] = {
            str(seed): sims.simulate(workload, seed)[2] for seed in range(sims.POOL)
        }
        print(f"{name}: {sims.POOL} scenarios recorded", file=sys.stderr)
    sims.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
