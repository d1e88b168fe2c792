"""Ablation experiments backing the paper's textual claims.

- A-OBJ   (Sec. III-D): min-max vs max-min vs min-sum objectives.
- A-SOS   (Sec. III-E): SOS1 branching vs individual binary branching.
- A-SOLVE (Sec. III-E): MINLP solve time at 40,960 nodes (< 60 s claim).
- A-SYNC  (Sec. III-A): the T_sync band "may actually result in reduced
  performance".
- A-FIT   (Sec. III-C): how many benchmark points a good fit needs.
- A-START (Sec. III-C): multistart least squares finds different local
  optima whose allocations are of similar quality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cesm import ComponentId, CoupledRunSimulator, make_case
from repro.fitting import FitOptions, fit_perf_model
from repro.hslb import HSLBPipeline, ObjectiveKind, solve_allocation
from repro.minlp import BranchRule, MINLPOptions, solve_lpnlp
from repro.util.tables import TextTable

A, O, I, L = ComponentId.ATM, ComponentId.OCN, ComponentId.ICE, ComponentId.LND


# -- A-OBJ -----------------------------------------------------------------------


@dataclass
class ObjectiveAblation:
    """Coupled make-span achieved by each objective's allocation."""

    makespans: dict          # ObjectiveKind -> predicted makespan
    allocations: dict        # ObjectiveKind -> allocation

    def render(self) -> str:
        t = TextTable(
            ["objective", "eq.", "predicted make-span, sec"],
            title="A-OBJ: objective function comparison (1 deg)",
        )
        for kind, ms in self.makespans.items():
            t.add_row([kind.value, kind.paper_equation, ms])
        return t.render()


def run_objective_ablation(total_nodes: int = 512, seed: int = 0) -> ObjectiveAblation:
    case = make_case("1deg", total_nodes, seed=seed)
    pipeline = HSLBPipeline(case)
    fits = pipeline.fit(pipeline.gather())
    makespans, allocations = {}, {}
    for kind in ObjectiveKind:
        out = solve_allocation(case, fits, objective=kind, method="oracle")
        makespans[kind] = out.predicted_total
        allocations[kind] = out.allocation
    return ObjectiveAblation(makespans, allocations)


# -- A-SOS -----------------------------------------------------------------------


@dataclass
class BranchingAblation:
    """Solver effort under SOS1 vs individual-binary branching."""

    set_size: int
    sos_nodes: int
    binary_nodes: int
    sos_seconds: float
    binary_seconds: float
    objectives_agree: bool

    @property
    def node_ratio(self) -> float:
        return self.binary_nodes / max(1, self.sos_nodes)

    def render(self) -> str:
        t = TextTable(
            ["branching", "B&B nodes", "seconds"],
            title=f"A-SOS: branching rule, {self.set_size}-member ocean set",
        )
        t.add_row(["SOS1 set", self.sos_nodes, self.sos_seconds])
        t.add_row(["individual binaries", self.binary_nodes, self.binary_seconds])
        return t.render()


def run_branching_ablation(
    set_size: int = 200, total_nodes: int = 2048, seed: int = 0
) -> BranchingAblation:
    """Same model, two branching rules.

    The ocean set is deliberately made awkward (non-progression, many
    members near each other) so the relaxation is fractional and branching
    effort dominates — the regime the paper's two-orders-of-magnitude claim
    concerns.
    """
    case = make_case("1deg", total_nodes, seed=seed)
    pipeline = HSLBPipeline(case)
    fits = pipeline.fit(pipeline.gather())
    perf = {c: f.model for c, f in fits.items()}

    # An awkward ocean set: offset-perturbed values so no stride is common.
    rng = np.random.default_rng(seed)
    base = np.unique(
        np.round(np.geomspace(8, total_nodes // 3, set_size)).astype(int)
        + rng.integers(0, 3, size=set_size)
    )
    results = {}
    for rule in (BranchRule.SOS_FIRST, BranchRule.INTEGER_ONLY):
        from repro.hslb.layout_models import build_layout_model

        model = build_layout_model(
            layout=case.layout,
            total_nodes=case.total_nodes,
            perf=perf,
            bounds={c: case.component_bounds(c) for c in (I, L, A, O)},
            ocn_allowed=[int(v) for v in base],
            atm_allowed=case.atm_allowed(),
        )
        # Force the binary set-choice encoding decision upstream: the
        # perturbed set has no common stride, so both rules see binaries.
        # Warm starts are disabled so the comparison isolates the branching
        # rule (they would otherwise perturb which degenerate LP vertex each
        # node reports, confounding the tree shapes).
        start = time.perf_counter()
        res = solve_lpnlp(
            model,
            MINLPOptions(
                branch_rule=rule, time_limit=300.0, use_warm_start=False
            ),
        )
        results[rule] = (res, time.perf_counter() - start)

    sos, t_sos = results[BranchRule.SOS_FIRST]
    bin_, t_bin = results[BranchRule.INTEGER_ONLY]
    agree = (
        sos.solution is not None
        and bin_.solution is not None
        and abs(sos.objective - bin_.objective) <= 1e-4 * max(1.0, abs(sos.objective))
    )
    return BranchingAblation(
        set_size=len(base),
        sos_nodes=sos.nodes,
        binary_nodes=bin_.nodes,
        sos_seconds=t_sos,
        binary_seconds=t_bin,
        objectives_agree=agree,
    )


# -- A-SOLVE ----------------------------------------------------------------------


@dataclass
class SolverTimeResult:
    total_nodes: int
    seconds: float
    bnb_nodes: int
    cuts: int
    objective: float

    def render(self) -> str:
        return (
            f"A-SOLVE: MINLP at N={self.total_nodes} solved in "
            f"{self.seconds:.2f} s ({self.bnb_nodes} B&B nodes, "
            f"{self.cuts} OA cuts) - paper claim: < 60 s"
        )


def run_solver_time(total_nodes: int = 40_960, seed: int = 0) -> SolverTimeResult:
    """Sec. III-E: 'the MINLP for 40960 nodes took less than 60 seconds'."""
    case = make_case("8th", total_nodes, unconstrained_ocean=True, seed=seed)
    pipeline = HSLBPipeline(case)
    fits = pipeline.fit(pipeline.gather())
    start = time.perf_counter()
    out = solve_allocation(case, fits, method="lpnlp")
    seconds = time.perf_counter() - start
    sr = out.solver_result
    return SolverTimeResult(
        total_nodes=total_nodes,
        seconds=seconds,
        bnb_nodes=sr.nodes,
        cuts=sr.cuts_added,
        objective=out.objective_value,
    )


# -- A-SYNC -----------------------------------------------------------------------


@dataclass
class TsyncAblation:
    """Make-span as the synchronization band tightens."""

    tsync_values: tuple          # None = no band, else seconds
    makespans: dict

    def render(self) -> str:
        t = TextTable(
            ["T_sync, sec", "predicted make-span, sec"],
            title="A-SYNC: synchronization-band cost (1 deg)",
        )
        for v in self.tsync_values:
            t.add_row(["off" if v is None else v, self.makespans[v]])
        return t.render()


def run_tsync_ablation(
    total_nodes: int = 512, seed: int = 0,
    bands=(None, 5.0, 1.0, 0.25, 0.1, 0.02),
) -> TsyncAblation:
    case = make_case("1deg", total_nodes, seed=seed)
    pipeline = HSLBPipeline(case)
    fits = pipeline.fit(pipeline.gather())
    makespans = {}
    for band in bands:
        out = solve_allocation(case, fits, tsync=band, method="oracle")
        makespans[band] = out.predicted_total
    return TsyncAblation(tuple(bands), makespans)


# -- A-FIT ------------------------------------------------------------------------


@dataclass
class FitPointsAblation:
    """Fit quality and downstream allocation quality vs #benchmark points.

    ``actual`` is the judge: the coupled run executed at each fit's chosen
    allocation (a poor fit's *predicted* time is optimistically biased)."""

    points: tuple
    r_squared: dict              # points -> worst component R^2
    predicted: dict              # points -> predicted make-span
    actual: dict                 # points -> executed coupled total

    def render(self) -> str:
        t = TextTable(
            ["# points", "worst R^2", "predicted, sec", "actual, sec"],
            title="A-FIT: benchmark points per component (1 deg)",
        )
        for p in self.points:
            t.add_row(
                [p, f"{self.r_squared[p]:.4f}", self.predicted[p], self.actual[p]]
            )
        return t.render()


def run_fit_points_ablation(
    total_nodes: int = 512, seed: int = 0, points=(3, 4, 5, 8, 12)
) -> FitPointsAblation:
    case = make_case("1deg", total_nodes, seed=seed)
    r2, predicted, actual = {}, {}, {}
    for p in points:
        pipeline = HSLBPipeline(case, points=p)
        fits = pipeline.fit(pipeline.gather())
        r2[p] = min(f.r_squared for f in fits.values())
        out = solve_allocation(case, fits, method="oracle")
        predicted[p] = out.predicted_total
        actual[p] = pipeline.simulator.run_coupled(out.allocation).total
    return FitPointsAblation(tuple(points), r2, predicted, actual)


# -- A-START ----------------------------------------------------------------------


@dataclass
class MultistartAblation:
    """Different LS starting points -> different parameters, similar
    allocation quality (Sec. III-C's observation)."""

    n_refits: int                # reseeded refits of every component
    n_starts: int                # least-squares starts per fit
    distinct_parameter_sets: int
    sse_spread: float            # (worst - best) / best local-optimum SSE
    makespan_spread: float       # relative make-span spread across refits

    def render(self) -> str:
        return (
            f"A-START: {self.n_refits} refits x {self.n_starts} starts -> "
            f"{self.distinct_parameter_sets} distinct local optima, "
            f"SSE spread {self.sse_spread:.2%}, "
            f"downstream make-span spread {self.makespan_spread:.2%}"
        )


def run_multistart_ablation(total_nodes: int = 512, seed: int = 0) -> MultistartAblation:
    case = make_case("1deg", total_nodes, seed=seed)
    sim = CoupledRunSimulator(case)
    pipeline = HSLBPipeline(case)
    data = pipeline.gather()

    # Refit the noisiest component (ice) from independent seeds and push
    # each local fit through the full solve.
    makespans = []
    params = set()
    sses = []
    n_refits, n_starts = 6, 4
    for s in range(n_refits):
        options = FitOptions(seed=s, n_starts=n_starts)
        fits = {}
        for comp in data.components():
            fits[comp] = fit_perf_model(data.nodes(comp), data.times(comp), options)
        ice_fit = fits[I]
        params.add(tuple(round(v, 4) for v in ice_fit.model.as_tuple()))
        sses.append(ice_fit.sse)
        out = solve_allocation(case, fits, method="oracle")
        makespans.append(out.predicted_total)

    makespans = np.asarray(makespans)
    sses = np.asarray(sses)
    best_sse = max(float(sses.min()), 1e-12)
    return MultistartAblation(
        n_refits=n_refits,
        n_starts=n_starts,
        distinct_parameter_sets=len(params),
        sse_spread=float((sses.max() - sses.min()) / best_sse),
        makespan_spread=float((makespans.max() - makespans.min()) / makespans.min()),
    )
