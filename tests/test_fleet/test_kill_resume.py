"""Kill-level chaos: SIGKILL a journaled fleet run, resume, compare.

The acceptance property for the whole durability stack: a run killed at a
chaos-chosen instant (``kill_instant`` picks how many cells may finish
first), then resumed from its journal, must produce a roll-up
*bit-identical* to a run that was never interrupted — on every execution
backend.

The ``chaos`` marker lets CI run these in a dedicated kill-matrix job
across several seeds (``pytest -m chaos`` with ``REPRO_CHAOS_SEEDS=0,1,2``);
the default suite runs seed 0 only.
"""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import run_experiments
from repro.io.journal import RunJournal
from repro.resilience.chaos import kill_instant

SEEDS = [int(s) for s in os.environ.get("REPRO_CHAOS_SEEDS", "0").split(",")]

#: A batch small enough to re-run per backend but long enough that a kill
#: usually lands mid-run.
IDS = ["t3-1", "t3-2", "fig2", "fig4"]

_CHILD = """
import sys
from repro.experiments import run_experiments
run_experiments({ids!r}, seed={seed}, journal={journal!r},
                executor={executor!r}, workers=2)
"""

_references: dict = {}


def _reference(seed: int):
    """The uninterrupted serial roll-up, computed once per seed."""
    if seed not in _references:
        _references[seed] = run_experiments(IDS, seed=seed)
    return _references[seed]


def _live_group_members(pgid: int) -> list:
    """PIDs of the processes in group ``pgid`` that have not exited yet
    (zombies waiting to be reaped have exited)."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        state, pgrp = fields[0], int(fields[2])
        if pgrp == pgid and state != "Z":
            live.append(int(entry))
    return live


def _run_child_and_kill(journal: Path, seed: int, executor: str) -> int:
    """Start a journaled fleet run in a child and SIGKILL it.

    The kill fires once the journal shows ``kill_instant(seed, n)`` cells
    finished — i.e. at a deterministic, seed-chosen point in the run's
    life.  Returns how many cells had finished when the child died (the
    child may legitimately win the race and finish everything).

    The child leads its own process group, and the kill goes to the whole
    group: killing the child alone would leave its pool workers running,
    re-parented to init.
    """
    target = kill_instant(seed, len(IDS))
    script = _CHILD.format(
        ids=IDS, seed=seed, journal=str(journal), executor=executor
    )
    child = subprocess.Popen(
        [sys.executable, "-c", script], env=os.environ, start_new_session=True
    )
    try:
        deadline = time.monotonic() + 300.0
        while child.poll() is None and time.monotonic() < deadline:
            finished = 0
            if journal.exists():
                try:
                    finished = len(RunJournal.read(journal).completed)
                except Exception:
                    finished = 0  # mid-write; try again next tick
            if finished >= target:
                break
            time.sleep(0.01)
    finally:
        with contextlib.suppress(ProcessLookupError):  # the group already exited
            os.killpg(child.pid, signal.SIGKILL)
        child.wait(timeout=60)
    deadline = time.monotonic() + 30.0
    while _live_group_members(child.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _live_group_members(child.pid) == [], "fleet workers outlived the kill"
    try:
        return len(RunJournal.read(journal).completed)
    except Exception:
        return 0


@pytest.mark.chaos
@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
@pytest.mark.parametrize("seed", SEEDS)
class TestKillResumeParity:
    def test_rollup_bit_identical_after_kill_and_resume(
        self, tmp_path, executor, seed
    ):
        journal = tmp_path / f"fleet-{executor}-s{seed}.jsonl"
        finished_at_kill = _run_child_and_kill(journal, seed, executor)

        state = RunJournal.read(journal)
        assert state.plan is not None, "the plan record must be durable"

        resumed = run_experiments(IDS, seed=seed, journal=journal)
        assert resumed == _reference(seed), (
            f"{executor} seed {seed}: resumed roll-up differs from the "
            f"uninterrupted run (killed with {finished_at_kill} cells done)"
        )
        final = RunJournal.read(journal)
        assert len(final.completed) == len(IDS)
        assert not final.torn_tail
        assert final.in_flight == []
