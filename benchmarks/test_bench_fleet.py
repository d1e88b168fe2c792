"""Crash-recovery latency of the supervised pool, to ``BENCH_7.json``.

The claim about :class:`~repro.parallel.supervised.SupervisedProcessExecutor`:
**recovery is fast.**  Under a deterministic kill profile, every injected
SIGKILL costs a bounded detect-kill-respawn cycle; the run still completes
with exact results, and the mean respawn latency is recorded.

Sleep-based tasks (not simulator work) so the run is pure executor
machinery: the batch holds ``TASKS`` jobs of ``TASK_SECONDS`` each over
``WORKERS`` workers.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import run_once
from repro.parallel import SupervisedProcessExecutor
from repro.resilience import ChaosProfile, RetryPolicy

WORKERS = 4
TASKS = 24
TASK_SECONDS = 0.15
KILL_PROBABILITY = 0.25
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_7.json"


def _task(payload):
    index, seconds = payload
    time.sleep(seconds)
    return index * index


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def record(suite: str, payload: dict) -> None:
    """Merge one suite's numbers into BENCH_7.json."""
    data = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    data[suite] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def bench_recovery():
    payloads = [(i, TASK_SECONDS) for i in range(TASKS)]
    chaos = ChaosProfile(kill_probability=KILL_PROBABILITY)
    with SupervisedProcessExecutor(
        WORKERS, chaos=chaos, seed=0, retry_policy=RetryPolicy(max_attempts=4)
    ) as ex:
        got, elapsed = _timed(lambda: ex.map_ordered(_task, payloads))
        stats = dict(ex.stats)
    return got, elapsed, stats


def test_recovery_latency_per_injected_kill(benchmark, report):
    got, elapsed, stats = run_once(benchmark, bench_recovery)
    assert got == [i * i for i in range(TASKS)], "chaos must not change results"
    assert stats["crashes"] > 0, "the kill profile must actually fire"
    respawns = stats["respawn_seconds"]
    mean_respawn = sum(respawns) / len(respawns)
    report(
        f"recovery (kill={KILL_PROBABILITY:g}, seed 0): {stats['crashes']} kills "
        f"injected, batch finished exact in {elapsed:.2f} s; respawn "
        f"mean {mean_respawn * 1e3:.0f} ms, max {max(respawns) * 1e3:.0f} ms"
    )
    record("recovery_latency", {
        "workers": WORKERS,
        "tasks": TASKS,
        "task_seconds": TASK_SECONDS,
        "kill_probability": KILL_PROBABILITY,
        "seed": 0,
        "kills_injected": stats["crashes"],
        "respawns": stats["respawns"],
        "batch_seconds": round(elapsed, 3),
        "respawn_mean_ms": round(mean_respawn * 1e3, 1),
        "respawn_max_ms": round(max(respawns) * 1e3, 1),
        "bit_identical": True,
    })
    # A respawn is fork + pipe setup; it must stay well under one task.
    assert mean_respawn < 1.0
