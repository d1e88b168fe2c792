"""The three seeded workloads: ``tune``, ``sweep`` and ``service``.

Every workload has the same shape, driven by ``run.py``:

- ``setup()`` makes the inputs from the seed and runs one warm-up
  operation (the harness repeats it and reports the median as ``setup_s``);
- ``measure(seconds)`` runs whole rounds of operations, closed loop, until
  ``seconds`` of timed work have passed, and returns a :class:`Window`;
- ``trace_pass()`` runs a fixed amount of work, so the per-layer counts of
  the traced run repeat exactly for one seed;
- ``check(window)`` verifies every answer outside the timed window and
  returns the number of operations that failed a check.

The program under test only ever receives the generated inputs: cases,
fitted curves and solve specs.  Nothing here reads the program's state to
decide what to send.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.whatif import _solve_layout_point, layout_point_specs, solve_layout_points
from repro.cesm import ComponentId, Layout, make_case, validate_allocation
from repro.exceptions import ReproError
from repro.hslb import HSLBPipeline
from repro.hslb.oracle import oracle_for_case
from repro.service import ServiceConfig, serve_in_thread

A, O, I, L = ComponentId.ATM, ComponentId.OCN, ComponentId.ICE, ComponentId.LND
LAYOUTS = (Layout.HYBRID, Layout.SEQUENTIAL_SPLIT, Layout.FULLY_SEQUENTIAL)

# Purpose tags for derive(): one seed stream per kind of input.
_TUNE, _CURVES, _RANKS, _STREAM = 1, 2, 3, 4

ORACLE_RTOL = 1e-6
SERVICE_RTOL = 1e-9


def derive(seed: int, *keys: int) -> int:
    """A 32-bit input seed from the workload seed and an input's identity."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def rel_gap(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


@dataclass
class Window:
    """The operations of one measured stretch and what they answered."""

    latencies: list = field(default_factory=list)  # seconds, one per operation
    busy: float = 0.0                              # timed wall-clock seconds
    answers: list = field(default_factory=list)    # what check() verifies
    attempted: int = 0                             # operations issued
    engine_stats: list = field(default_factory=list)  # service: one per daemon

    @property
    def throughput(self) -> float:
        return len(self.latencies) / self.busy


def fitted_curves(case_seed: int):
    """Fitted 1-degree curves at N=128 (the paper's Table I calibration)."""
    case = make_case("1deg", 128, seed=case_seed)
    pipeline = HSLBPipeline(case)
    fits = pipeline.fit(pipeline.gather())
    perf = {c: f.model for c, f in fits.items()}
    bounds = {c: case.component_bounds(c) for c in (A, O, I, L)}
    return perf, bounds, case.ocean_allowed(), case.atm_allowed()


class _RoundWorkload:
    """A single in-process caller running operations in fixed rounds."""

    round_size = 1
    trace_ops = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.corrupt = False
        self._nodes: dict = {}   # operation key -> node counts seen

    def operation(self, index: int):
        raise NotImplementedError

    def _run(self, indices) -> Window:
        window = Window()
        for index in indices:
            t0 = time.perf_counter()
            answer = self.operation(index)
            elapsed = time.perf_counter() - t0
            window.latencies.append(elapsed)
            window.busy += elapsed
            window.answers.append(answer)
            window.attempted += 1
        return window

    def measure(self, seconds: float) -> Window:
        """Whole rounds from operation 0 on, until ``seconds`` are timed."""
        window = Window()
        start = 0
        while window.busy < seconds:
            part = self._run(range(start, start + self.round_size))
            window.latencies += part.latencies
            window.busy += part.busy
            window.answers += part.answers
            window.attempted += part.attempted
            start += self.round_size
        if self.corrupt:
            window.answers[0] = self.corrupted(window.answers[0])
        return window

    def trace_pass(self) -> Window:
        """Operations ``0 .. trace_ops - 1``: the same work on every run."""
        return self._run(range(self.trace_ops))

    def key(self, index: int):
        """The identity of operation ``index``; equal keys, equal work."""
        return index

    def same_nodes(self, key, nodes) -> bool:
        """B&B node counts of one operation must repeat exactly."""
        return self._nodes.setdefault(key, nodes) == nodes

    def nodes_digest(self) -> str:
        """Hash of the per-operation node counts of the first round."""
        first = [
            (repr(self.key(i)), self._nodes.get(self.key(i)))
            for i in range(self.round_size)
        ]
        return hashlib.sha256(repr(first).encode()).hexdigest()[:16]


# -- tune ------------------------------------------------------------------------------

#: One round of ``tune``: (resolution, N, layout, unconstrained ocean).
TUNE_CASES = (
    ("1deg", 128, Layout.HYBRID, False),
    ("1deg", 128, Layout.SEQUENTIAL_SPLIT, False),
    ("1deg", 128, Layout.FULLY_SEQUENTIAL, False),
    ("8th", 8192, Layout.HYBRID, False),     # irregular ocean set, SOS path
    ("8th", 40_960, Layout.HYBRID, True),    # the a-solve model
)


@dataclass
class TuneAnswer:
    key: int
    case: object
    fits: dict
    allocation: dict
    objective: float
    nodes: int


class Tune(_RoundWorkload):
    """``HSLBPipeline(case).run()``: gather -> fit -> solve -> execute.

    Operation ``i`` runs case type ``i mod 5`` with a case seed derived
    from the workload seed and ``i``, so no curve ever repeats.
    """

    name = "tune"
    round_size = len(TUNE_CASES)
    trace_ops = 2 * len(TUNE_CASES)

    def case(self, index: int):
        resolution, nodes, layout, unconstrained = TUNE_CASES[index % len(TUNE_CASES)]
        return make_case(
            resolution, nodes, layout=layout, unconstrained_ocean=unconstrained,
            seed=derive(self.seed, _TUNE, index),
        )

    def setup(self) -> None:
        self.operation(0)

    def operation(self, index: int) -> TuneAnswer:
        case = self.case(index)
        run = HSLBPipeline(case, method="lpnlp").run()
        return TuneAnswer(
            index, case, run.fits, dict(run.allocation),
            float(run.solve.objective_value), run.solve.solver_result.nodes,
        )

    @staticmethod
    def corrupted(answer: TuneAnswer) -> TuneAnswer:
        answer.objective *= 1.0 + 1e-3
        return answer

    def check(self, window: Window) -> int:
        failed = 0
        for answer in window.answers:
            case = answer.case
            try:
                validate_allocation(case.layout, answer.allocation, case.total_nodes)
                want = oracle_for_case(case, answer.fits).solve().objective_value
                ok = rel_gap(answer.objective, want) <= ORACLE_RTOL
            except ReproError:
                ok = False
            ok = self.same_nodes(answer.key, answer.nodes) and ok
            failed += not ok
        return failed


# -- sweep -----------------------------------------------------------------------------

LADDER = (2048, 1024, 512, 256, 128)
SWEEP_CURVE_SETS = 3


@dataclass
class SweepAnswer:
    key: tuple               # (curve set, layout)
    points: list             # (makespan hex, allocation, B&B nodes) per budget


class Sweep(_RoundWorkload):
    """``solve_layout_points(..., method="lpnlp", reuse=True)`` down the ladder.

    Operation ``i`` walks the 2048 -> 128 ladder for layout ``i mod 3`` on
    curve set ``(i div 3) mod 3``; a round is one curve set under all
    three Table I layouts.
    """

    name = "sweep"
    round_size = len(LAYOUTS)
    trace_ops = SWEEP_CURVE_SETS * len(LAYOUTS)

    def setup(self) -> None:
        self._references: dict = {}   # curve set and layout -> (cold, oracle) ladders
        self.curves = [
            fitted_curves(derive(self.seed, _CURVES, k))
            for k in range(SWEEP_CURVE_SETS)
        ]
        self.operation(0)

    def key(self, index: int) -> tuple:
        return (index // len(LAYOUTS)) % SWEEP_CURVE_SETS, LAYOUTS[index % len(LAYOUTS)]

    def ladder(self, key: tuple, **kwargs) -> list:
        perf, bounds, ocn, _ = self.curves[key[0]]
        return solve_layout_points(
            perf, bounds, LADDER, layout=key[1], ocn_allowed=ocn, **kwargs
        )

    def operation(self, index: int) -> SweepAnswer:
        key = self.key(index)
        points = self.ladder(key, method="lpnlp", reuse=True)
        return SweepAnswer(key, [
            (p.makespan.hex(), p.allocation, p.solver_result.nodes) for p in points
        ])

    @staticmethod
    def corrupted(answer: SweepAnswer) -> SweepAnswer:
        makespan, allocation, nodes = answer.points[0]
        answer.points[0] = (
            (float.fromhex(makespan) * (1.0 + 1e-3)).hex(), allocation, nodes
        )
        return answer

    def check(self, window: Window) -> int:
        failed = 0
        for answer in window.answers:
            if answer.key not in self._references:
                cold = self.ladder(answer.key, method="lpnlp", reuse=False)
                oracle = self.ladder(answer.key, method="oracle")
                self._references[answer.key] = (cold, oracle)
            cold, oracle = self._references[answer.key]
            ok = self.same_nodes(answer.key, [nodes for _, _, nodes in answer.points])
            for (makespan, allocation, _), c, o in zip(answer.points, cold, oracle):
                ok = (
                    ok
                    and makespan == c.makespan.hex()
                    and allocation == c.allocation
                    and rel_gap(float.fromhex(makespan), o.makespan) <= ORACLE_RTOL
                )
            failed += not ok
        return failed


# -- service ---------------------------------------------------------------------------

SERVICE_CURVE_SETS = 4
BUDGETS = tuple(range(2048, 1727, -64))   # 6 budgets, spread 2048/1728 < 1.2x
EPOCH_REQUESTS = 1500
CLIENTS = 2
WORKERS = 2
ZIPF_S = 1.1


@dataclass
class ServiceAnswer:
    epoch: int
    spec: int                # index into the spec pool
    response: object         # ServiceResponse, or None if the call raised


class Service:
    """A supervised-backend daemon driven by two closed-loop clients.

    The pool holds 4 curve sets x 3 layouts x 6 budgets = 72 ``solve_point``
    specs, drawn Zipf-like (s = 1.1) over a seeded ranking.  The timed
    window is a sequence of epochs; each epoch serves 1500 requests from
    a fresh daemon, so every epoch repeats the same mix of exact hits,
    warm solves and cold solves (daemon start is not timed).
    """

    name = "service"

    def __init__(self, seed: int):
        self.seed = seed
        self.corrupt = False
        self.config = ServiceConfig(
            backend="supervised", workers=WORKERS, batch_window=0.005,
        )

    def setup(self) -> None:
        self._references: dict = {}   # pool index -> cold-solve makespan
        self.pool = []
        for k in range(SERVICE_CURVE_SETS):
            perf, bounds, ocn, atm = fitted_curves(derive(self.seed, _CURVES, k))
            for layout in LAYOUTS:
                self.pool += layout_point_specs(
                    perf, bounds, BUDGETS, layout=layout,
                    ocn_allowed=ocn, atm_allowed=atm, method="lpnlp",
                )
        # An oracle request spawns the worker pool without touching the
        # pool's caches (oracle specs have no reuse channel).
        self.spawn_spec = layout_point_specs(
            perf, bounds, BUDGETS[:1], ocn_allowed=ocn, atm_allowed=atm,
            method="oracle",
        )[0]
        ranks = np.random.default_rng(derive(self.seed, _RANKS)).permutation(len(self.pool))
        weights = np.empty(len(self.pool))
        weights[ranks] = 1.0 / np.arange(1, len(self.pool) + 1) ** ZIPF_S
        self.probs = weights / weights.sum()
        with serve_in_thread(self.config) as handle:
            with handle.client(client_id="warmup") as client:
                client.solve_point(self.spawn_spec)
                client.solve_point(self.pool[int(ranks[0])])

    def stream(self, epoch: int) -> list:
        rng = np.random.default_rng(derive(self.seed, _STREAM, epoch))
        return [int(i) for i in rng.choice(len(self.pool), EPOCH_REQUESTS, p=self.probs)]

    def epoch(self, epoch: int, window: Window) -> None:
        stream = self.stream(epoch)
        latencies = [[] for _ in range(CLIENTS)]
        answers = [[] for _ in range(CLIENTS)]

        with serve_in_thread(self.config) as handle:
            with handle.client(client_id="spawn") as client:
                client.solve_point(self.spawn_spec)

            def drive(c: int) -> None:
                with handle.client(client_id=f"bench{c}") as client:
                    for spec in stream[c::CLIENTS]:
                        t0 = time.perf_counter()
                        try:
                            response = client.solve_point(self.pool[spec])
                        except (ReproError, OSError):
                            response = None
                        latencies[c].append(time.perf_counter() - t0)
                        answers[c].append(ServiceAnswer(epoch, spec, response))

            threads = [threading.Thread(target=drive, args=(c,)) for c in range(CLIENTS)]
            t0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            window.busy += time.perf_counter() - t0
            window.engine_stats.append(handle.daemon.engine.stats())
        window.attempted += len(stream)
        for c in range(CLIENTS):
            window.latencies += latencies[c]
            window.answers += answers[c]

    def measure(self, seconds: float) -> Window:
        window = Window()
        epoch = 0
        while window.busy < seconds:
            self.epoch(epoch, window)
            epoch += 1
        if self.corrupt:
            first = window.answers[0].response
            first.result["objective"] *= 1.0 + 1e-3
        return window

    def trace_pass(self) -> Window:
        window = Window()
        self.epoch(0, window)
        return window

    def check(self, window: Window) -> int:
        first: dict = {}
        failed = window.attempted - len(window.answers)   # calls that never returned
        for answer in window.answers:
            response = answer.response
            if response is None or not response.ok:
                failed += 1
                continue
            payload = response.result
            if answer.spec not in self._references:
                self._references[answer.spec] = _solve_layout_point(
                    self.pool[answer.spec], None
                ).makespan
            seen = first.setdefault((answer.epoch, answer.spec), payload)
            ok = (
                seen == payload
                and rel_gap(payload["objective"], self._references[answer.spec]) <= SERVICE_RTOL
            )
            failed += not ok
        return failed

    def nodes_digest(self) -> None:
        return None   # batching depends on arrival timing; counts need not repeat


WORKLOADS = {cls.name: cls for cls in (Tune, Sweep, Service)}
