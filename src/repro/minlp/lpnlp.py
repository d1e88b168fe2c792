"""LP/NLP-based branch-and-bound (Quesada–Grossmann), paper Sec. III-E.

Algorithm sketch, following the paper's own description:

1.  Solve a (restricted) continuous NLP relaxation to obtain an initial
    linearization point, and relax every nonlinear constraint ``f(x) <= 0``
    by the tangent cut ``f(xk) + ∇f(xk)ᵀ(x − xk) <= 0`` (paper eq. (4)).
2.  Run a single branch-and-bound tree over the resulting mixed-integer
    *linear* relaxation, solving one LP per node with the revised simplex.
3.  Prune nodes whose LP value exceeds the incumbent; branch on fractional
    integers — or, preferentially, on violated special-ordered sets.
4.  When an LP solution satisfies integrality, check the true nonlinear
    constraints.  If violated, solve the fixed-integer NLP(ŷ) with the
    barrier solver, harvest an incumbent, linearize the violated
    constraints at both points, and re-solve the node with the tightened
    relaxation.

Under the convexity certificate (positive a, b, d make the performance
functions convex) every cut is an outer approximation, so the search is
exact: it terminates with a globally optimal solution or a proof of
infeasibility.
"""

from __future__ import annotations

import math
import time

from repro.exceptions import (
    ExpressionError,
    IterationLimitError,
    ModelError,
    SolverError,
)
from repro.expr.linear import linear_coefficients
from repro.kernels import KernelCache
from repro.expr.linearize import linearize_at
from repro.expr.node import VarRef
from repro.lp.result import LPStatus
from repro.lp.simplex import solve_lp
from repro.model.constraint import Constraint, Sense
from repro.model.model import Model
from repro.model.variable import Variable, VarType
from repro.minlp.branching import (
    PseudoCostTracker,
    branch_integer,
    most_fractional_integer,
    split_sos,
    violated_sos_sets,
)
from repro.minlp.node import Node, NodeQueue
from repro.minlp.nlpbuild import build_nlp
from repro.minlp.options import BranchRule, MINLPOptions, VarBranchRule
from repro.minlp.relax import MasterLP, _EmptyBox, integer_env
from repro.minlp.result import MINLPResult, MINLPStatus
from repro.nlp.barrier import solve_nlp
from repro.nlp.problem import NLPProblem
from repro import telemetry
from repro.telemetry import names as metric
from repro.util.timing import Stopwatch

import numpy as np

__all__ = ["solve_lpnlp"]

_NL_FEAS_TOL = 1e-6
_ETA = "_obj_eta"


def solve_lpnlp(model: Model, options: MINLPOptions | None = None) -> MINLPResult:
    """Solve ``model`` with LP/NLP-based branch-and-bound."""
    opt = options or MINLPOptions()
    sw = Stopwatch()
    t0 = time.monotonic()
    telemetry.count(metric.MINLP_SOLVES, solver="lpnlp")

    work, obj_expr = _prepare(model)
    if opt.require_convex and not work.is_certified_convex():
        raise SolverError(
            "model has nonlinear rows that fail the convexity certificate; "
            "the LP/NLP algorithm would not be globally optimal "
            "(set MINLPOptions.require_convex=False to proceed anyway)"
        )

    obj_linear = linear_coefficients(obj_expr)
    master = MasterLP(work, obj_linear)
    base_rows = master.base.num_rows  # row count before any cut rows land
    nl_bodies = [
        (c.name, body)
        for c in work.nonlinear_constraints()
        for body in c.as_le_bodies()
    ]

    cuts_added = 0
    nlp_solves = 0
    lp_iterations = 0

    # One kernel cache for every NLP this solve builds: the seed relaxation
    # and all fixed-integer NLP(ŷ) subproblems share the same nonlinear
    # bodies, so compilation happens at most once per solve, and not at all
    # for cores the process-wide store already holds.
    cache = KernelCache()

    # Cross-solve reuse (a repro.reuse.SolveFamily, duck-typed through
    # opt.reuse): plan first so carried cuts land before the seed decision.
    reuse = opt.reuse
    plan = None
    harvest: list = []      # (tag, cut) discovered by this solve
    tag_of: dict = {}       # id(body) -> cut-validity tag
    rz: dict = {}
    root_warm = None
    root_cuts: list | None = None
    if reuse is not None:
        with sw.phase("reuse_plan"):
            plan = reuse.plan(
                work, columns=master.names, base_rows=base_rows,
                bodies=nl_bodies,
            )
        rz = dict(plan.counters)
        tag_of = {
            id(body): tag for (_, body), tag in zip(nl_bodies, plan.body_tags)
        }
        carried = 0
        for cut in plan.cuts:
            if master.add_cut(cut):
                carried += 1
        rz["cuts_carried"] = carried

    # Step 1: seed the cut pool from a continuous relaxation point — unless
    # carried cuts already support every nonlinear body, in which case the
    # master starts at least as tight as a cold seed would leave it and the
    # seed NLP can be skipped outright (the big reuse win).
    if plan is not None and plan.covered:
        rz["seed_nlp_skipped"] = 1
    else:
        with sw.phase("initial_nlp"):
            seed_env, seeded_nlp = _initial_point(work, obj_expr, nl_bodies, opt, cache)
            nlp_solves += seeded_nlp
        for _, body in nl_bodies:
            try:
                cut = linearize_at(body, seed_env)
            except (ValueError, ExpressionError):
                continue  # seed point outside this body's domain: cut later
            if master.add_cut(cut):
                cuts_added += 1
                if reuse is not None:
                    harvest.append((tag_of[id(body)], cut))

    incumbent: dict | None = None
    upper = math.inf
    queue = NodeQueue(opt.node_selection)
    nodes = 0
    status = MINLPStatus.OPTIMAL
    message = ""
    tracker = (
        PseudoCostTracker()
        if opt.var_branch_rule is VarBranchRule.PSEUDO_COST
        else None
    )
    if plan is not None and tracker is not None and plan.pseudo is not None:
        tracker.load_state(*plan.pseudo)

    # Incumbent seeding: re-certify the projected previous optimum through
    # the fixed-integer NLP before trusting it as a starting upper bound —
    # an infeasible or unprojectable point simply leaves the solve cold.
    if plan is not None and plan.fixings is not None:
        with sw.phase("nlp_seed"):
            cand_env, cand_obj, solved = _solve_fixed_nlp(
                work, obj_expr, plan.fixings, opt, cache
            )
            nlp_solves += solved
        if cand_env is not None and math.isfinite(cand_obj):
            upper, incumbent = cand_obj, cand_env
            rz["incumbent_seeded"] = 1
            # Refresh the pool with tangents at the certified point: carried
            # cuts were linearized at a *different* member's points, so
            # without this the root LP can sit on stale supports and branch
            # where a cold solve would not.
            for _, body in nl_bodies:
                try:
                    cut = linearize_at(body, cand_env)
                except (ValueError, ExpressionError):
                    continue
                if master.add_cut(cut):
                    cuts_added += 1
                    harvest.append((tag_of[id(body)], cut))
        else:
            rz["incumbent_rejected"] = rz.get("incumbent_rejected", 0) + 1

    root = Node()
    if plan is not None:
        root.bounds = dict(plan.root_bounds)
        if plan.warm is not None and opt.use_warm_start:
            root.warm = plan.warm
            rz["basis_reused"] = 1
    queue.push(root)

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
        try:
            lp = master.lp_for_node(node.bounds)
        except _EmptyBox:
            continue
        with sw.phase("lp"), telemetry.span("lpnlp.lp"):
            res = solve_lp(
                lp,
                opt.lp_options,
                warm=node.warm if opt.use_warm_start else None,
            )
        nodes += 1
        lp_iterations += res.iterations
        telemetry.count(metric.MINLP_NODES, solver="lpnlp")
        telemetry.count(metric.MINLP_LP_ITERATIONS, res.iterations)
        if reuse is not None and root_warm is None and res.warm is not None:
            # First solved LP: capture the root basis together with the
            # cut rows it indexes, for replay by same-structure members.
            root_warm = res.warm
            root_cuts = list(master.cuts)

        if res.status is LPStatus.INFEASIBLE:
            continue
        if res.status is LPStatus.UNBOUNDED:
            status, message = MINLPStatus.UNBOUNDED, "master LP relaxation unbounded"
            break
        if res.status is LPStatus.ITERATION_LIMIT:
            raise IterationLimitError("node LP hit the simplex iteration limit")

        obj_lp = res.objective + master.obj_constant
        if tracker is not None and node.pc_info is not None:
            br_name, br_dir, br_frac, parent_obj = node.pc_info
            tracker.update(br_name, br_dir, br_frac, obj_lp - parent_obj)
            node.pc_info = None  # cut-round re-solves must not double-count
        node.bound = obj_lp
        if obj_lp >= cutoff():
            continue
        env = res.value_map(master.names)
        int_env = integer_env(work, env, opt.int_tol)
        sos_viol = violated_sos_sets(work, env, opt.int_tol)

        if int_env is not None and not sos_viol:
            violated = [
                (name, body)
                for name, body in nl_bodies
                if float(body.evaluate(int_env)) > _NL_FEAS_TOL
            ]
            fixings = {
                v.name: int_env[v.name] for v in work.integer_variables()
            }
            if not violated:
                # The LP vertex value depends on which cuts happen to be
                # in the pool (t-variables sit on their tangents, slightly
                # below the true curves).  Certify the point through the
                # fixed-integer NLP instead: its value is a function of
                # the integer fixings alone, so incumbents stay
                # bit-identical no matter what the pool carried in.
                with sw.phase("nlp_fixed"):
                    cand_env, cand_obj, solved = _solve_fixed_nlp(
                        work, obj_expr, fixings, opt, cache
                    )
                    nlp_solves += solved
                if cand_env is None:
                    # Certification failed at the shared tolerance (rare
                    # numerical corner): keep the LP-vertex incumbent.
                    cand_env, cand_obj = int_env, obj_lp
                if cand_obj < upper:
                    upper, incumbent = cand_obj, cand_env
                continue  # node fathomed by an improved (or equal) incumbent

            # Integer point violating the nonlinearities: NLP(y-hat) + cuts.
            with sw.phase("nlp_fixed"):
                cand_env, cand_obj, solved = _solve_fixed_nlp(
                    work, obj_expr, fixings, opt, cache
                )
                nlp_solves += solved
            if cand_env is not None and cand_obj < upper:
                upper, incumbent = cand_obj, cand_env
            new_cuts = 0
            for name, body in violated:
                try:
                    cut = linearize_at(body, int_env)
                except (ValueError, ExpressionError):
                    continue
                if master.add_cut(cut):
                    new_cuts += 1
                    if reuse is not None:
                        harvest.append((tag_of[id(body)], cut))
            if cand_env is not None:
                for name, body in nl_bodies:
                    try:
                        cut = linearize_at(body, cand_env)
                    except (ValueError, ExpressionError):
                        continue
                    if master.add_cut(cut):
                        new_cuts += 1
                        if reuse is not None:
                            harvest.append((tag_of[id(body)], cut))
            cuts_added += new_cuts
            if new_cuts and node.cut_rounds < opt.max_cut_rounds:
                node.cut_rounds += 1
                node.warm = res.warm  # dual simplex repairs the new cut rows
                queue.push(node)
            # else: convexity guarantees the cuts at int_env cut it off; if
            # no new cut could be formed the node is numerically exhausted.
            continue

        # Fractional: branch.
        if opt.branch_rule is BranchRule.SOS_FIRST and sos_viol:
            target = max(sos_viol, key=lambda s: len(s.active_members(env, opt.int_tol)))
            left, right = split_sos(target, env, node.bounds)
        else:
            if tracker is not None:
                name = tracker.select(work, env, opt.int_tol)
            else:
                name = most_fractional_integer(work, env, opt.int_tol)
            if name is None:
                # All integers integral but an SOS set is violated without a
                # fractional member -- cannot happen (see branching module),
                # guard anyway.
                raise SolverError("no branching candidate on a fractional node")
            left, right = branch_integer(name, env[name], node.bounds)
            frac = env[name] - math.floor(env[name])
            pc_children = ((name, "down", frac), (name, "up", 1.0 - frac))
            for child_bounds, pc in zip((left, right), pc_children):
                queue.push(
                    Node(bounds=child_bounds, bound=obj_lp, depth=node.depth + 1,
                         warm=res.warm,
                         pc_info=(pc[0], pc[1], pc[2], obj_lp))
                )
            continue
        for child_bounds in (left, right):
            queue.push(
                Node(bounds=child_bounds, bound=obj_lp, depth=node.depth + 1,
                     warm=res.warm)
            )

    if reuse is not None:
        reuse.absorb(
            channel=plan.channel,
            columns=master.names,
            base_rows=base_rows,
            tags=list(dict.fromkeys(plan.body_tags)),
            new_cuts=harvest,
            incumbent_env=incumbent,
            objective=upper,
            pseudo=tracker.export_state() if tracker is not None else None,
            root_warm=root_warm,
            root_cuts=root_cuts,
            counters=rz,
        )

    # Aggregate counts (identical to summing per-site increments) recorded
    # once so the disabled fast path costs nothing inside the hot loop.
    telemetry.count(metric.MINLP_NLP_SOLVES, nlp_solves, solver="lpnlp")
    telemetry.count(metric.MINLP_CUTS_ADDED, cuts_added)

    best_bound = min(queue.best_open_bound(), upper)
    if status is MINLPStatus.OPTIMAL and incumbent is None:
        status = MINLPStatus.INFEASIBLE

    solution = None
    objective = math.inf
    if incumbent is not None:
        solution = {
            k: (float(round(v)) if work.variables[k].is_integral else float(v))
            for k, v in incumbent.items()
            if k != _ETA
        }
        objective = model.objective.user_value(upper)
        if model.objective.sense.value == "maximize":
            best_bound = -best_bound

    return MINLPResult(
        status=status,
        solution=solution,
        objective=objective,
        best_bound=best_bound,
        nodes=nodes,
        cuts_added=cuts_added,
        nlp_solves=nlp_solves,
        lp_iterations=lp_iterations,
        wall_time=time.monotonic() - t0,
        message=message,
        phase_seconds={k: v[0] for k, v in sw.summary().items()},
        kernel_counters=cache.summary(),
        reuse_counters=rz,
    )


# ---------------------------------------------------------------------------


def _prepare(model: Model):
    """Return (working model, linear minimization objective expression).

    A nonlinear objective is moved into the constraints through the standard
    epigraph transform ``min eta s.t. f(x) - eta <= 0``.
    """
    if model.objective is None:
        raise ModelError("model has no objective")
    obj_expr = model.objective.minimization_expr()
    try:
        linear_coefficients(obj_expr)
        return model, obj_expr
    except ExpressionError:
        pass

    work = Model(name=f"{model.name}+epigraph")
    work.variables = dict(model.variables)
    work.constraints = dict(model.constraints)
    work.sos1_sets = dict(model.sos1_sets)
    if _ETA in work.variables:
        raise ModelError(f"variable name {_ETA!r} is reserved")
    work.variables[_ETA] = Variable(_ETA, VarType.CONTINUOUS)
    work.constraints["_obj_epigraph"] = Constraint(
        "_obj_epigraph", obj_expr - VarRef(_ETA), Sense.LE, 0.0
    )
    return work, VarRef(_ETA)


def _initial_point(work: Model, obj_expr, nl_bodies, opt: MINLPOptions,
                   cache: KernelCache | None = None):
    """A linearization seed: solve the NLP relaxation *restricted to the
    variables that appear nonlinearly* (plus linear rows fully supported by
    them).  Falls back to box midpoints when the barrier fails.

    Restricting keeps the seed solve small even when the model carries
    thousands of set-choice binaries — those appear only in linear rows and
    never in a cut's support, so they are irrelevant to seeding.
    """
    support = set(obj_expr.variables())
    for _, body in nl_bodies:
        support |= body.variables()
    support = sorted(support)
    if not support:
        return {}, 0

    sup_set = set(support)
    inequalities = [(name, body) for name, body in nl_bodies]
    eq_rows = []
    for con in work.linear_constraints():
        if not con.body.variables() <= sup_set:
            continue
        form = con.linear_form()
        if con.sense is Sense.EQ:
            eq_rows.append((dict(form.coeffs), -form.constant))
        else:
            inequalities.append((con.name, con.body if con.sense is Sense.LE
                                 else _negate(con.body)))

    lb = np.array([work.variables[n].lb for n in support])
    ub = np.array([work.variables[n].ub for n in support])
    fallback = _box_midpoint(lb, ub)
    try:
        problem = NLPProblem(
            names=support,
            objective=obj_expr,
            inequalities=inequalities,
            lb=lb,
            ub=ub,
            eq_rows=eq_rows,
            kernel_cache=cache,
            evaluator=opt.evaluator,
        )
        res = solve_nlp(problem, options=opt.nlp_options)
    except (ModelError, SolverError):
        return dict(zip(support, fallback)), 0
    if res.x is None:
        return dict(zip(support, fallback)), 1
    return res.value_map(support), 1


def _negate(body):
    from repro.expr.simplify import simplify

    return simplify(-body)


def _box_midpoint(lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    mid = np.empty_like(lb)
    for j in range(lb.size):
        lo, hi = lb[j], ub[j]
        if math.isfinite(lo) and math.isfinite(hi):
            mid[j] = 0.5 * (lo + hi)
        elif math.isfinite(lo):
            mid[j] = lo + 1.0
        elif math.isfinite(hi):
            mid[j] = hi - 1.0
        else:
            mid[j] = 0.0
    return mid


def _solve_fixed_nlp(work: Model, obj_expr, fixings: dict, opt: MINLPOptions,
                     cache: KernelCache | None = None):
    """Solve NLP(y-hat); returns (full env or None, objective, solver calls)."""
    built = build_nlp(work, obj_expr, fixings,
                      kernel_cache=cache, evaluator=opt.evaluator)
    if built.infeasible_reason is not None:
        return None, math.inf, 0
    if built.fully_fixed:
        env = dict(built.fixed)
        bad = work.check_point(env, tol=_NL_FEAS_TOL)
        if bad:
            return None, math.inf, 0
        return env, built.objective_value, 0
    res = solve_nlp(built.problem, options=opt.nlp_options)
    if res.x is None or res.max_violation > _NL_FEAS_TOL:
        return None, math.inf, 1
    env = dict(built.fixed)
    env.update(res.value_map(built.problem.names))
    return env, float(obj_expr.evaluate(env)), 1
