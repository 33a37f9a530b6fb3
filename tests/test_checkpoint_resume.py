"""Kill-and-resume end to end: the resumed run is bit-identical.

Two layers above the simulator-level tests in ``test_resilient.py``:

* through the **runner** (in-process): a :class:`CheckpointPolicy` with
  ``kill_at`` kills a spec mid-run, ``resume_from_checkpoint`` finishes
  it, and the summary matches an uninterrupted execution of the same
  spec exactly;
* through the **CLI in a fresh process**: ``repro run --kill-at`` exits
  with code 3 leaving a snapshot behind, a second process with
  ``--resume`` completes the run, and its ``--json`` summary is
  byte-identical to a never-interrupted third process.  This is the
  real crash story — nothing survives in memory between the two
  processes, only the checkpoint file.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.resilient import SimulationKilled, checkpoint_path
from repro.runner.cache import cache_key
from repro.runner import (
    CheckpointPolicy,
    ResultCache,
    RunSpec,
    ScenarioSpec,
    resume_from_checkpoint,
    run_many,
)

REPO = Path(__file__).resolve().parents[1]

SPEC = RunSpec(
    scenario=ScenarioSpec(kind="small", horizon=200, seed=3),
    scheduler="grefar",
    scheduler_kwargs={"v": 5.0},
)


# ----------------------------------------------------------------------
# Runner-level (in-process)
# ----------------------------------------------------------------------
def test_runner_kill_and_resume_bit_identical(tmp_path, monkeypatch):
    # The suite-wide REPRO_CONTRACTS=1 makes run_many bypass the cache;
    # switch it off so the final cache-hit assertion is meaningful.
    monkeypatch.setenv("REPRO_CONTRACTS", "0")
    ckpt_dir = str(tmp_path / "ckpt")
    baseline_cache = ResultCache(tmp_path / "cache_a")
    resumed_cache = ResultCache(tmp_path / "cache_b")

    (baseline,) = run_many([SPEC], cache=baseline_cache)

    kill = CheckpointPolicy(every=25, kill_at=100, directory=ckpt_dir)
    with pytest.raises(SimulationKilled) as excinfo:
        run_many([SPEC], cache=resumed_cache, checkpoint=kill)
    assert excinfo.value.slot == 100
    snapshot = checkpoint_path(cache_key(SPEC), ckpt_dir)
    assert snapshot.exists()

    resumed = resume_from_checkpoint(
        SPEC, cache=resumed_cache, directory=ckpt_dir
    )
    assert resumed.summary.as_dict() == baseline.summary.as_dict()
    # The finished run clears its snapshot and lands in the cache.
    assert not snapshot.exists()
    (cached,) = run_many([SPEC], cache=resumed_cache)
    assert cached.cached
    assert cached.summary.as_dict() == baseline.summary.as_dict()


def test_resume_policy_without_snapshot_runs_fresh(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    baseline = run_many([SPEC], cache=ResultCache(tmp_path / "cache_ref"))[0]
    result = resume_from_checkpoint(
        SPEC, cache=cache, directory=str(tmp_path / "empty")
    )
    assert result.summary.as_dict() == baseline.summary.as_dict()


def test_inline_specs_are_not_checkpointed(tmp_path):
    # A spec with no stable cache key has nothing to name a snapshot by.
    policy = CheckpointPolicy(every=10, directory=str(tmp_path / "ckpt"))
    inline = RunSpec(scenario=None, scheduler="grefar", horizon=20)
    from repro.scenarios import small_scenario

    run_many(
        [inline],
        cache=ResultCache(tmp_path / "cache"),
        scenario=small_scenario(horizon=20, seed=1),
        checkpoint=policy,
    )
    ckpt_dir = tmp_path / "ckpt"
    assert not ckpt_dir.exists() or not any(ckpt_dir.iterdir())


# ----------------------------------------------------------------------
# Fresh-process CLI crash drill
# ----------------------------------------------------------------------
def _repro(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={
            "PYTHONPATH": str(REPO / "src"),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


def test_cli_fresh_process_kill_and_resume(tmp_path):
    base = [
        "run",
        "--horizon",
        "120",
        "--v",
        "5.0",
        "--json",
        "--no-cache",
    ]

    killed = _repro(
        base + ["--checkpoint-every", "20", "--kill-at", "60"], tmp_path
    )
    assert killed.returncode == 3, killed.stdout + killed.stderr
    assert "resume" in killed.stderr
    checkpoints = list((tmp_path / ".repro_cache" / "checkpoints").glob("*.ckpt"))
    assert len(checkpoints) == 1

    # A *different* process finishes the run from the snapshot alone.
    resumed = _repro(base + ["--resume"], tmp_path)
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr

    fresh = _repro(base, tmp_path)
    assert fresh.returncode == 0, fresh.stdout + fresh.stderr

    assert resumed.stdout == fresh.stdout
    assert json.loads(resumed.stdout) == json.loads(fresh.stdout)
    # Completion cleared the snapshot.
    assert not checkpoints[0].exists()


# ----------------------------------------------------------------------
# Snapshots written by an older build
# ----------------------------------------------------------------------
#: A ckpt-v1 snapshot of WIDE24_SPEC killed after slot 20, written
#: before the cluster cached its derived arrays and before the slot
#: supply side became a table.  Its pickled cluster carries no cache.
LEGACY_SNAPSHOT = REPO / "tests" / "data" / "ckpt_v1_wide24_slot20.ckpt"

WIDE24_SPEC = RunSpec(
    scenario=ScenarioSpec(
        kind="wide", horizon=40, seed=11, params={"num_datacenters": 24}
    ),
    scheduler="grefar",
    scheduler_kwargs={"v": 5.0},
)


def test_resume_from_legacy_snapshot_bit_identical(tmp_path):
    import shutil

    from repro.obs.registry import stats_registry

    ckpt_dir = tmp_path / "ckpt"
    snapshot = checkpoint_path(cache_key(WIDE24_SPEC), ckpt_dir)
    snapshot.parent.mkdir(parents=True)
    shutil.copyfile(LEGACY_SNAPSHOT, snapshot)

    (baseline,) = run_many([WIDE24_SPEC], cache=ResultCache(tmp_path / "cache_a"))
    stats = stats_registry()
    loads = stats.counter("resilient.checkpoint.loads")
    resumed = resume_from_checkpoint(
        WIDE24_SPEC, cache=ResultCache(tmp_path / "cache_b"), directory=str(ckpt_dir)
    )
    # The snapshot was really used, not silently replaced by a fresh run.
    assert stats.counter("resilient.checkpoint.loads") == loads + 1
    assert not snapshot.exists()
    assert resumed.summary.as_dict() == baseline.summary.as_dict()
