"""What-if analyses (paper Sec. IV-C).

"Another important HSLB application may be the prediction of the optimal
nodes to run a job.  The definition of optimal depends on the goal; it
could be a cost-efficient goal where nodes are increased until scaling is
reduced to a predefined limit or it could be the shortest time to
solution."

The searches here are *solve families* in the sense of
:mod:`repro.reuse`: every candidate job size re-solves a layout MINLP that
shares its nonlinear structure with the others.  With ``method`` set to a
branch-and-bound backend and ``reuse`` on (the default), the sweep threads
a :class:`~repro.reuse.SolveFamily` through the sequence — carried cuts,
seeded incumbents, shared branching history — and fans out over a
:mod:`repro.parallel` executor via :func:`~repro.reuse.family_map`, whose
submission-order delta merging keeps results independent of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cesm.components import ComponentId
from repro.cesm.layouts import Layout
from repro.exceptions import ConfigurationError, SolverError
from repro.hslb.layout_models import VAR_NAMES, layout_problem_spec
from repro.hslb.objectives import ObjectiveKind
from repro.hslb.oracle import LayoutOracle
from repro.minlp import MINLPOptions, solve_lpnlp, solve_nlp_bnb
from repro.reuse import SolveFamily, family_map
from repro.spec import SolvePointSpec, build_from_spec
from repro.util.validation import check_in_range

A, O, I, L = ComponentId.ATM, ComponentId.OCN, ComponentId.ICE, ComponentId.LND

_METHODS = ("oracle", "lpnlp", "bnb")


@dataclass(frozen=True)
class LayoutPoint:
    """One optimally-balanced layout solve inside a what-if sweep."""

    total_nodes: int
    makespan: float
    allocation: dict
    solver_result: object = None  # MINLPResult for the B&B methods


def layout_point_specs(
    perf: dict,
    bounds: dict,
    node_counts,
    layout: Layout = Layout.HYBRID,
    ocn_allowed: list | None = None,
    atm_allowed: dict | None = None,
    method: str = "oracle",
    options: MINLPOptions | None = None,
) -> list:
    """The spec ladder for a what-if sweep: one serializable
    :class:`~repro.spec.SolvePointSpec` per candidate node count.

    This is what actually crosses process boundaries in
    :func:`solve_layout_points` — pure data, no live models or option
    objects — and what a tuning service would persist to replay a sweep.
    """
    _check_method(method)
    return [
        SolvePointSpec.for_problem(
            layout_problem_spec(
                layout=layout,
                total_nodes=int(n),
                perf=perf,
                bounds=bounds,
                ocn_allowed=ocn_allowed,
                atm_allowed=atm_allowed,
                objective=ObjectiveKind.MIN_MAX,
                name=f"whatif_{int(n)}",
            ),
            method=method,
            options=options,
        )
        for n in node_counts
    ]


def _solve_layout_point(spec: SolvePointSpec, family) -> LayoutPoint:
    """Solve one balanced layout; module-level so supervised workers can run it.

    ``spec`` is pure data: the model is rebuilt here, in whatever process
    this runs in, through the builder registry — workers never unpickle a
    :class:`~repro.model.Model`.
    """
    problem = spec.problem
    total_nodes = int(problem.total_nodes)
    if spec.method == "oracle":
        oracle = LayoutOracle(
            Layout(int(problem.layout)), total_nodes,
            problem.perf(), problem.component_bounds(),
            ocn_allowed=problem.ocn_allowed_list(),
            atm_allowed=problem.atm_allowed_dict(),
        )
        res = oracle.solve(ObjectiveKind(problem.objective))
        return LayoutPoint(
            total_nodes=total_nodes,
            makespan=float(res.makespan),
            allocation=dict(res.allocation),
        )
    model = build_from_spec(problem)
    opts = spec.minlp_options() or MINLPOptions()
    if family is not None:
        opts = replace(opts, reuse=family)
    solver = solve_lpnlp if spec.method == "lpnlp" else solve_nlp_bnb
    result = solver(model, opts)
    if result.solution is None:
        raise SolverError(
            f"what-if solve at N={total_nodes} failed: "
            f"{result.status.value} {result.message}"
        )
    allocation = {
        comp: int(round(result.solution[VAR_NAMES[comp]]))
        for comp in (I, L, A, O)
    }
    return LayoutPoint(
        total_nodes=total_nodes,
        makespan=float(result.objective),
        allocation=allocation,
        solver_result=result,
    )


def _check_method(method: str) -> None:
    if method not in _METHODS:
        raise ConfigurationError(f"unknown method {method!r}; known: {_METHODS}")


def _sweep_family(method: str, reuse, node_counts=()) -> SolveFamily | None:
    """The family threading a sweep, honoring an explicit SolveFamily.

    When the family is auto-created (``reuse=True``), ``node_counts`` decides
    whether pseudocost carry-over is safe — see
    :meth:`SolveFamily.for_counts`.  An explicitly passed family is always
    used as configured.
    """
    if method == "oracle" or reuse is False or reuse is None:
        return None
    if isinstance(reuse, SolveFamily):
        return reuse
    return SolveFamily.for_counts(node_counts)


def solve_layout_points(
    perf: dict,
    bounds: dict,
    node_counts,
    layout: Layout = Layout.HYBRID,
    ocn_allowed: list | None = None,
    atm_allowed: dict | None = None,
    method: str = "oracle",
    reuse=True,
    options: MINLPOptions | None = None,
    executor=None,
    workers: int | None = None,
) -> list:
    """Optimally balance ``layout`` at each of ``node_counts``.

    Returns one :class:`LayoutPoint` per count, in the given order.  For the
    B&B methods with ``reuse`` on, the solves form one
    :class:`~repro.reuse.SolveFamily` (pass an existing family as ``reuse``
    to keep feeding a longer-lived pool); ``executor``/``workers`` fan the
    family out without changing any result.

    Members are *solved* in decreasing node-count order whatever the input
    order: state transfers safely downward (a larger member's incumbent
    violates a smaller budget and is rejected during re-certification, its
    cuts and bases stay valid), whereas a small member's optimum seeded
    upward is a weak bound that misleads the branch-and-bound search.
    """
    _check_method(method)
    family = _sweep_family(method, reuse, node_counts)
    specs = layout_point_specs(
        perf, bounds, node_counts, layout=layout,
        ocn_allowed=ocn_allowed, atm_allowed=atm_allowed,
        method=method, options=options,
    )
    order = sorted(range(len(specs)), key=lambda i: -specs[i].problem.total_nodes)
    solved = family_map(
        _solve_layout_point, [specs[i] for i in order], family=family,
        executor=executor, workers=workers,
    )
    results: list = [None] * len(specs)
    for position, index in enumerate(order):
        results[index] = solved[position]
    return results


@dataclass(frozen=True)
class NodeCountRecommendation:
    """Result of an optimal-job-size search."""

    criterion: str               # "fastest" or "cost_efficient"
    total_nodes: int
    total_time: float
    efficiency: float            # marginal efficiency at the chosen size
    evaluated: tuple             # (N, time) pairs examined


def optimal_node_count(
    perf: dict,
    bounds: dict,
    candidate_nodes,
    layout: Layout = Layout.HYBRID,
    criterion: str = "cost_efficient",
    efficiency_floor: float = 0.5,
    ocn_allowed: list | None = None,
    atm_allowed: dict | None = None,
    method: str = "oracle",
    reuse=True,
    options: MINLPOptions | None = None,
    executor=None,
    workers: int | None = None,
    points: list | None = None,
) -> NodeCountRecommendation:
    """Pick a job size from ``candidate_nodes`` under ``criterion``.

    ``"fastest"`` returns the size with the smallest optimally-balanced
    total time.  ``"cost_efficient"`` walks the sizes in increasing order
    and keeps growing while the *marginal* parallel efficiency (speedup
    gained / node-growth factor between consecutive candidates) stays at or
    above ``efficiency_floor``.

    ``method`` selects the per-size solver (``"oracle"`` enumeration or the
    ``"lpnlp"``/``"bnb"`` branch-and-bound backends); for the B&B methods
    the sweep runs as one reuse family unless ``reuse`` is False.  Callers
    that already hold the solved :class:`LayoutPoint` list (e.g. to render
    it) can pass it as ``points`` to skip the re-solve.
    """
    if criterion not in ("fastest", "cost_efficient"):
        raise ConfigurationError(f"unknown criterion {criterion!r}")
    check_in_range(efficiency_floor, "efficiency_floor", 0.0, 1.0)
    if points is None:
        counts = sorted({int(v) for v in candidate_nodes})
        if not counts:
            raise ConfigurationError("no candidate node counts given")
        points = solve_layout_points(
            perf, bounds, counts, layout=layout,
            ocn_allowed=ocn_allowed, atm_allowed=atm_allowed,
            method=method, reuse=reuse, options=options,
            executor=executor, workers=workers,
        )
    else:
        points = sorted(points, key=lambda p: p.total_nodes)
    evaluated = [(p.total_nodes, p.makespan) for p in points]

    if criterion == "fastest":
        best_n, best_t = min(evaluated, key=lambda p: p[1])
        idx = [n for n, _ in evaluated].index(best_n)
        eff = _marginal_efficiency(evaluated, idx)
        return NodeCountRecommendation(
            "fastest", best_n, best_t, eff, tuple(evaluated)
        )

    # cost-efficient: largest size whose step from the previous one still
    # bought enough speedup.
    chosen = 0
    for idx in range(1, len(evaluated)):
        if _marginal_efficiency(evaluated, idx) >= efficiency_floor:
            chosen = idx
        else:
            break
    n, t = evaluated[chosen]
    return NodeCountRecommendation(
        "cost_efficient", n, t, _marginal_efficiency(evaluated, chosen), tuple(evaluated)
    )


def _marginal_efficiency(evaluated: list, idx: int) -> float:
    """Speedup over node-growth for the step ending at ``idx`` (1.0 at 0)."""
    if idx == 0:
        return 1.0
    n0, t0 = evaluated[idx - 1]
    n1, t1 = evaluated[idx]
    return (t0 / t1) / (n1 / n0)


def constraint_cost(
    perf: dict,
    bounds: dict,
    total_nodes: int,
    constrained_ocn: list,
    unconstrained_ocn: list,
    layout: Layout = Layout.HYBRID,
    atm_allowed: dict | None = None,
    method: str = "oracle",
    reuse=True,
    options: MINLPOptions | None = None,
) -> dict:
    """Quantify what a hard-coded ocean node set costs (paper Sec. IV-B).

    Returns the constrained and unconstrained optimal totals and the
    relative improvement from lifting the constraint — the paper's headline
    40% (predicted) / 25% (actual) at 32,768 nodes.  With a B&B ``method``
    the two solves share one reuse family (the performance curves — and so
    the cut-validity tags — are identical on both sides).
    """
    _check_method(method)
    family = _sweep_family(method, reuse)

    def solve(ocn):
        [spec] = layout_point_specs(
            perf, bounds, [int(total_nodes)], layout=layout,
            ocn_allowed=list(ocn), atm_allowed=atm_allowed,
            method=method, options=options,
        )
        return _solve_layout_point(spec, family)

    con = solve(constrained_ocn)
    unc = solve(unconstrained_ocn)
    return {
        "constrained": con,
        "unconstrained": unc,
        "improvement": 1.0 - unc.makespan / con.makespan,
    }
