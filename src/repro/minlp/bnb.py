"""Classic NLP-based branch-and-bound.

Solves the continuous (barrier) relaxation at *every* node, in contrast to
:mod:`repro.minlp.lpnlp` which solves cheap LPs and only calls the barrier
solver at integer-feasible points.  The paper uses MINOTAUR's LP/NLP solver
for exactly this reason; this solver exists as an independent cross-check
(both must agree on small instances) and to make the branching/algorithm
ablations meaningful.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.exceptions import ModelError, SolverError
from repro.kernels import KernelCache
from repro.model.model import Model
from repro.minlp.branching import (
    branch_integer,
    most_fractional_integer,
    split_sos,
    violated_sos_sets,
)
from repro.minlp.lpnlp import _solve_fixed_nlp
from repro.minlp.node import Node, NodeQueue
from repro.minlp.nlpbuild import build_nlp
from repro.minlp.options import BranchRule, MINLPOptions
from repro.minlp.result import MINLPResult, MINLPStatus
from repro.nlp.barrier import solve_nlp
from repro import telemetry
from repro.telemetry import names as metric
from repro.util.timing import Stopwatch

__all__ = ["solve_nlp_bnb"]

_NL_FEAS_TOL = 1e-6


def _warm_x0(node: Node, prob):
    """Project the parent's solution into this node's (tighter) box,
    nudged strictly inside; solve_nlp falls back to phase 1 if the
    projection is not strictly feasible for the nonlinear rows."""
    if node.warm is None:
        return None
    vals = np.array([node.warm.get(name, 0.0) for name in prob.names])
    margin = 1e-6 * (1.0 + np.abs(prob.ub - prob.lb))
    lo_s = np.where(np.isfinite(prob.lb), prob.lb + margin, vals)
    hi_s = np.where(np.isfinite(prob.ub), prob.ub - margin, vals)
    if np.all(lo_s <= hi_s):
        return np.clip(vals, lo_s, hi_s)
    return None


def solve_nlp_bnb(model: Model, options: MINLPOptions | None = None) -> MINLPResult:
    """Solve ``model`` by NLP-based branch-and-bound."""
    opt = options or MINLPOptions()
    sw = Stopwatch()
    t0 = time.monotonic()
    telemetry.count(metric.MINLP_SOLVES, solver="bnb")
    if model.objective is None:
        raise ModelError("model has no objective")
    if opt.require_convex and not model.is_certified_convex():
        raise SolverError(
            "model fails the convexity certificate; NLP-based branch-and-bound "
            "bounds would not be valid (set require_convex=False to proceed)"
        )
    obj_expr = model.objective.minimization_expr()

    # One cache for the whole tree: children share their parent's
    # expressions (only bounds differ), so every node after the root
    # re-uses the root's compiled kernels; the root itself may be served
    # cores that earlier solves left in the process-wide store.
    cache = KernelCache()

    incumbent: dict | None = None
    upper = math.inf
    nlp_solves = 0

    # Cross-solve reuse: only the FBBT root box and incumbent seeding apply
    # here — cut and basis carry-over are LP-master concepts, and the root
    # barrier start point is deliberately NOT seeded (a different interior
    # start would perturb relaxation bits; see docs/reuse.md).
    reuse = opt.reuse
    plan = None
    rz: dict = {}
    if reuse is not None:
        with sw.phase("reuse_plan"):
            plan = reuse.plan(model)
        rz = dict(plan.counters)
        if plan.fixings is not None:
            with sw.phase("nlp_seed"):
                cand_env, cand_obj, solved = _solve_fixed_nlp(
                    model, obj_expr, plan.fixings, opt, cache
                )
                nlp_solves += solved
                telemetry.count(metric.MINLP_NLP_SOLVES, solved, solver="bnb")
            if cand_env is not None and math.isfinite(cand_obj):
                upper, incumbent = cand_obj, cand_env
                rz["incumbent_seeded"] = 1
            else:
                rz["incumbent_rejected"] = rz.get("incumbent_rejected", 0) + 1

    queue = NodeQueue(opt.node_selection)
    root = Node()
    if plan is not None:
        root.bounds = dict(plan.root_bounds)
    queue.push(root)
    nodes = 0
    status = MINLPStatus.OPTIMAL
    message = ""

    def cutoff() -> float:
        if not math.isfinite(upper):
            return math.inf
        return upper - max(opt.abs_gap, opt.rel_gap * max(1.0, abs(upper)))

    while len(queue):
        if nodes >= opt.max_nodes:
            status, message = MINLPStatus.NODE_LIMIT, f"{nodes} nodes explored"
            break
        if time.monotonic() - t0 > opt.time_limit:
            status, message = MINLPStatus.TIME_LIMIT, "time limit reached"
            break
        if opt.check_hook is not None and opt.check_hook():
            status, message = MINLPStatus.TIME_LIMIT, "stopped by check hook"
            break

        node = queue.pop()
        if node.bound >= cutoff():
            continue
        nodes += 1
        telemetry.count(metric.MINLP_NODES, solver="bnb")

        with telemetry.span("bnb.node"):
            built = build_nlp(
                model, obj_expr, fixings={}, bounds=node.bounds,
                kernel_cache=cache, evaluator=opt.evaluator,
            )
            if built.infeasible_reason is not None:
                continue
            if built.fully_fixed:
                env = dict(built.fixed)
                if not model.check_point(env, tol=_NL_FEAS_TOL):
                    if built.objective_value < upper:
                        upper, incumbent = built.objective_value, env
                continue

            with sw.phase("nlp"), telemetry.span("bnb.nlp"):
                x0 = _warm_x0(node, built.problem)
                res = solve_nlp(built.problem, x0=x0, options=opt.nlp_options)
            nlp_solves += 1
            telemetry.count(metric.MINLP_NLP_SOLVES, solver="bnb")
            if res.x is None:
                continue  # infeasible node
            env = dict(built.fixed)
            env.update(res.value_map(built.problem.names))
            if res.is_optimal:
                # The barrier returns an interior point slightly above the true
                # relaxation optimum; pad by the duality-gap proxy to keep the
                # bound valid for pruning.
                gap_pad = res.mu_final if math.isfinite(res.mu_final) else 0.0
                bound = res.objective - gap_pad
                node.bound = bound
                if bound >= cutoff():
                    continue
            else:
                # Unconverged relaxation: its value is NOT a valid bound — keep
                # the inherited one and never prune on this solve.
                bound = node.bound

            frac_name = most_fractional_integer(model, env, opt.int_tol)
            sos_viol = violated_sos_sets(model, env, opt.int_tol)
            if frac_name is None and not sos_viol:
                # Certify the point through the fixed-integer NLP: the node's
                # own continuous values are a barrier interior point (slightly
                # off the true optimum, and dependent on the node box), while
                # NLP(y-hat) is a function of the integer fixings alone — so
                # incumbents agree to the bit with the LP/NLP solver and with
                # any reuse-seeded starting incumbent.
                fixings = {
                    v.name: float(round(env[v.name]))
                    for v in model.integer_variables()
                }
                with sw.phase("nlp_fixed"):
                    cand_env, cand_obj, solved = _solve_fixed_nlp(
                        model, obj_expr, fixings, opt, cache
                    )
                    nlp_solves += solved
                    telemetry.count(metric.MINLP_NLP_SOLVES, solved, solver="bnb")
                if cand_env is None:
                    # Certification failed at the shared tolerance (rare
                    # numerical corner): keep the node's own point.
                    candidate = {
                        k: (float(round(v)) if k in model.variables and model.variables[k].is_integral else v)
                        for k, v in env.items()
                    }
                    if not model.check_point(candidate, tol=1e-5):
                        cand_env = candidate
                        cand_obj = float(obj_expr.evaluate(candidate))
                if cand_env is not None and cand_obj < upper:
                    upper, incumbent = cand_obj, cand_env
                continue

            if opt.branch_rule is BranchRule.SOS_FIRST and sos_viol:
                target = max(sos_viol, key=lambda s: len(s.active_members(env, opt.int_tol)))
                left, right = split_sos(target, env, node.bounds)
            else:
                if frac_name is None:
                    raise SolverError("no branching candidate on a fractional node")
                left, right = branch_integer(frac_name, env[frac_name], node.bounds)
            for child_bounds in (left, right):
                queue.push(Node(bounds=child_bounds, bound=bound, depth=node.depth + 1, warm=dict(env)))

    if reuse is not None:
        reuse.absorb(
            channel=plan.channel,
            incumbent_env=incumbent,
            objective=upper,
            counters=rz,
        )

    best_bound = min(queue.best_open_bound(), upper)
    if status is MINLPStatus.OPTIMAL and incumbent is None:
        status = MINLPStatus.INFEASIBLE

    solution = None
    objective = math.inf
    if incumbent is not None:
        solution = {k: float(v) for k, v in incumbent.items()}
        objective = model.objective.user_value(upper)
        if model.objective.sense.value == "maximize":
            best_bound = -best_bound

    return MINLPResult(
        status=status,
        solution=solution,
        objective=objective,
        best_bound=best_bound,
        nodes=nodes,
        nlp_solves=nlp_solves,
        wall_time=time.monotonic() - t0,
        message=message,
        phase_seconds={k: v[0] for k, v in sw.summary().items()},
        kernel_counters=cache.summary(),
        reuse_counters=rz,
    )
