"""Cross-solve reuse: the :class:`SolveFamily` engine.

A *solve family* is a sequence of related MINLP solves — a what-if sweep
over total node counts, the constrained/unconstrained pair of a
constraint-cost study, an ablation re-solving one layout many times.  The
family threads five kinds of state across its members:

1. **Cut pool** — outer-approximation :class:`~repro.expr.linearize.TangentCut`
   rows, tagged with the ``struct_key`` of the nonlinear ``<= 0`` body they
   support.  A tangent to a convex body is valid in *every* model containing
   a structurally identical body (same expression, same variable names), so
   carried cuts seed the next solve's root LP.  The pool is one global
   append-only list: a member that carries cuts installs them in pool
   order, which makes one member's installed rows a *prefix* of the next
   same-structure member's rows — the property basis reuse needs.
2. **Incumbent seeding** — the previous optimum's integer assignment is
   projected into the new model's boxes and SOS1 sets and re-certified by a
   fixed-integer NLP; only a verified-feasible point becomes the starting
   upper bound, so seeding can never corrupt the optimum.
3. **Simplex basis reuse** — the root-LP basis of a previous member is
   replayed through the existing ``solve_warm`` path when the new member
   has the same columns, base rows and cut-validity tags (then its root LP
   differs only in bounds/right-hand sides plus appended rows — exactly
   the perturbations a dual-simplex warm start repairs).
4. **Pseudocost carry-over** — branching history (summed degradations and
   observation counts per variable/direction) accumulates across members.
5. **Root FBBT** — :func:`repro.reuse.fbbt.fbbt_root_bounds` tightens the
   root box before the tree starts.

Parallel composition: :func:`family_map` solves the first item against the
live family, snapshots, fans the remaining items out over a
:mod:`repro.parallel` executor — each against an identical clone of the
snapshot — and merges the resulting deltas in submission order.  Worker
count and backend are therefore unobservable in the results.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

from repro.parallel.executor import executor_scope
from repro.reuse.fbbt import fbbt_root_bounds
from repro.spec.schema import spec_key
from repro import telemetry
from repro.telemetry import names as metric

__all__ = ["SolveFamily", "ReusePlan", "FamilyDelta", "family_map"]

#: Solver-reported reuse counters that surface as telemetry series when a
#: registry is active (recorded at absorb time, once per finished solve —
#: merge_delta does NOT re-record them, because a worker's registry already
#: counted its own absorbs and ships them through the telemetry delta).
_TELEMETRY_COUNTERS = {
    "cuts_carried": metric.REUSE_CUTS_CARRIED,
    "incumbent_seeded": metric.REUSE_INCUMBENT_SEEDED,
    "incumbent_rejected": metric.REUSE_INCUMBENT_REJECTED,
    "basis_reused": metric.REUSE_BASIS_REUSED,
    "seed_nlp_skipped": metric.REUSE_SEED_NLP_SKIPPED,
}


def _cut_key(cut) -> tuple:
    """Same near-duplicate key the MasterLP pool uses."""
    return (
        tuple(sorted((k, round(v, 9)) for k, v in cut.coeffs.items())),
        round(cut.rhs, 9),
    )


@dataclass
class ReusePlan:
    """Everything a solver consumes from the family at the start of a solve.

    ``body_tags`` aligns one validity tag with each ``(name, body)`` pair
    the caller passed to :meth:`SolveFamily.plan`, so cuts discovered during
    the solve can be tagged without recomputing structural hashes.
    """

    root_bounds: dict = field(default_factory=dict)
    cuts: list = field(default_factory=list)
    covered: bool = False
    body_tags: list = field(default_factory=list)
    channel: str = ""
    fixings: dict | None = None
    warm: object | None = None
    warm_env: dict | None = None
    pseudo: tuple | None = None
    counters: dict = field(default_factory=dict)


@dataclass
class FamilyDelta:
    """State a family member produced, exported for deterministic merging."""

    cuts: list = field(default_factory=list)
    incumbents: dict = field(default_factory=dict)   # channel -> (env, objective)
    pc_sum: dict = field(default_factory=dict)       # channel -> {key: sum}
    pc_count: dict = field(default_factory=dict)     # channel -> {key: count}
    basis: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


@dataclass
class _Mark:
    """Baseline against which :meth:`SolveFamily.export_delta` diffs."""

    num_cuts: int
    inc_versions: dict
    pc_sum: dict
    pc_count: dict
    counters: dict


class SolveFamily:
    """Persistent warm state threaded across a sequence of related solves.

    Feature toggles exist so ablations (and debugging) can isolate each
    reuse channel; everything defaults on.  ``max_cuts_per_tag`` caps pool
    growth per validity tag — the cap drops the *newest* overflow cuts,
    which preserves the append-only prefix ordering basis reuse depends on.
    """

    def __init__(
        self,
        cuts: bool = True,
        incumbent: bool = True,
        basis: bool = True,
        pseudocosts: bool = True,
        fbbt: bool = True,
        max_cuts_per_tag: int = 24,
        fbbt_rounds: int = 8,
    ):
        self.enable_cuts = cuts
        self.enable_incumbent = incumbent
        self.enable_basis = basis
        self.enable_pseudocosts = pseudocosts
        self.enable_fbbt = fbbt
        self.max_cuts_per_tag = int(max_cuts_per_tag)
        self.fbbt_rounds = int(fbbt_rounds)

        self._cuts: list = []          # (tag, key, TangentCut), append-only
        self._cut_keys: set = set()
        self._tag_counts: dict = {}
        # Incumbents and pseudocosts are keyed by *channel* — a spec_key
        # hash of the model's nonlinear-body tags plus its objective.  Cuts
        # carry per-body validity tags, so they cross between models that
        # share individual curves; a seeded incumbent or a branching history,
        # by contrast, is only replayed into a model with the *same* curves
        # and objective.  Cross-channel seeding would still be sound (the
        # seed is re-certified), but it can preempt the within-gap winner
        # the cold solve settles on and so break bit-identity.
        self._incumbents: dict = {}    # channel -> (env dict, internal objective)
        self._inc_versions: dict = {}  # channel -> int
        self._basis: dict = {}         # (columns, base_rows, tags) -> WarmStart
        self._pc_sum: dict = {}        # channel -> {(name, dir): sum}
        self._pc_count: dict = {}      # channel -> {(name, dir): count}
        self.counters: dict = {}

    #: :meth:`for_counts` carries the full feature set only while the member
    #: size spread stays under this ratio.  Cuts, pseudocosts and FBBT all
    #: transfer well between nearly identical budgets, but across a wide
    #: budget ladder the stale state can badly mislead the search: carried
    #: pseudocosts grow the 1-degree HYBRID ladder's bottom rung 12 -> 27
    #: nodes, and on curves fitted at the ladder's top, carried cuts explode
    #: trees outright (4 -> 1641 nodes, a 100x slowdown, on the layout-2
    #: ladder).  Incumbent seeding (always re-certified) and basis reuse
    #: (repaired by dual simplex) are safe at any spread in every measured
    #: configuration, so wide families keep only those.
    PSEUDOCOST_SPREAD = 1.2

    @classmethod
    def for_counts(cls, node_counts, **kwargs) -> "SolveFamily":
        """A family configured for a sweep over ``node_counts``.

        Tightly spaced sweeps (spread under :data:`PSEUDOCOST_SPREAD`) get
        every reuse feature; wider ladders fall back to the unconditionally
        safe subset — incumbent seeding and basis reuse.  Explicit keyword
        arguments override either default.
        """
        counts = [int(n) for n in node_counts]
        wide = bool(counts) and max(counts) > cls.PSEUDOCOST_SPREAD * min(counts)
        if wide:
            kwargs.setdefault("cuts", False)
            kwargs.setdefault("pseudocosts", False)
            kwargs.setdefault("fbbt", False)
        return cls(**kwargs)

    # -- solver-facing API -------------------------------------------------------

    def plan(
        self,
        model,
        columns: list | None = None,
        base_rows: int | None = None,
        bodies: list | None = None,
    ) -> ReusePlan:
        """Assemble the reuse state applicable to ``model``.

        ``columns``/``base_rows`` describe the master LP (LP/NLP solver
        only); ``bodies`` is the solver's list of nonlinear ``(name, body)``
        pairs, used both to filter the cut pool and to hand back per-body
        validity tags.
        """
        plan = ReusePlan()
        telemetry.count(metric.REUSE_PLANS)
        if bodies is None:
            bodies = [
                (c.name, body)
                for c in model.nonlinear_constraints()
                for body in c.as_le_bodies()
            ]
        plan.body_tags = [body.struct_key() for _, body in bodies]
        plan.channel = self._channel(model, plan.body_tags)

        if self.enable_fbbt:
            res = fbbt_root_bounds(model, max_rounds=self.fbbt_rounds)
            plan.counters["fbbt_rounds"] = res.rounds
            plan.counters["fbbt_tightenings"] = res.tightenings
            if res.infeasible_row is None:
                plan.root_bounds = res.bounds

        model_tags = set(plan.body_tags)
        planned_keys: list = []
        if self.enable_cuts and columns is not None and model_tags:
            cols = set(columns)
            seen_tags = set()
            for tag, key, cut in self._cuts:
                if tag in model_tags and set(cut.coeffs) <= cols:
                    plan.cuts.append(cut)
                    planned_keys.append(key)
                    seen_tags.add(tag)
            plan.covered = bool(plan.cuts) and model_tags <= seen_tags

        inc = self._incumbents.get(plan.channel) if self.enable_incumbent else None
        if inc is not None:
            plan.fixings = self._project_incumbent(model, inc[0])
            plan.warm_env = dict(inc[0])
            if plan.fixings is None:
                plan.counters["incumbent_rejected"] = 1

        if self.enable_basis and columns is not None and base_rows is not None:
            entry = self._basis.get(
                (tuple(columns), int(base_rows), frozenset(model_tags))
            )
            if entry is not None:
                warm, row_keys = entry
                # The stored basis indexes rows of base + its capture-time
                # cut list; it is only replayed when those cuts are exactly
                # the prefix of what this member will install.
                if tuple(planned_keys[: len(row_keys)]) == row_keys:
                    plan.warm = warm

        if self.enable_pseudocosts and self._pc_count.get(plan.channel):
            plan.pseudo = (
                dict(self._pc_sum[plan.channel]),
                dict(self._pc_count[plan.channel]),
            )
            plan.counters["pseudocost_entries"] = len(plan.pseudo[1])
        return plan

    @staticmethod
    def _channel(model, body_tags: list) -> str:
        """Identity of a member's *curves*: nonlinear-body tags + objective.

        Members of a sweep over total node counts differ only in linear
        rows and bounds, so they share a channel; a model with a swapped
        performance curve or a different objective sense does not.

        The channel is a :func:`repro.spec.schema.spec_key` hash over that
        structural content — a plain string, identical in every process for
        structurally identical models, so warm pools keyed by it survive
        serialization boundaries (a family snapshot shipped to a worker, a
        checkpoint reloaded tomorrow, a spec rebuilt on another machine).
        """
        payload: dict = {"bodies": sorted(set(body_tags))}
        if model.objective is not None:
            payload["objective"] = [
                model.objective.sense.value,
                model.objective.expr.struct_key(),
            ]
        return spec_key(payload)

    def absorb(
        self,
        *,
        channel: str = "",
        columns: list | None = None,
        base_rows: int | None = None,
        tags: list | None = None,
        new_cuts: list | None = None,
        incumbent_env: dict | None = None,
        objective: float = math.inf,
        pseudo: tuple | None = None,
        root_warm=None,
        root_cuts: list | None = None,
        counters: dict | None = None,
    ) -> None:
        """Harvest one finished solve's state back into the family.

        ``channel`` is the :class:`ReusePlan`'s ``channel`` — incumbents and
        pseudocosts are stored under it so they only flow between members
        with identical curves and objective.
        """
        if self.enable_cuts and new_cuts:
            for tag, cut in new_cuts:
                self._append_cut(tag, cut)
        if self.enable_incumbent and incumbent_env is not None:
            self._incumbents[channel] = (dict(incumbent_env), float(objective))
            self._inc_versions[channel] = self._inc_versions.get(channel, 0) + 1
        if self.enable_pseudocosts and pseudo is not None:
            sums, counts = pseudo
            pc_sum = self._pc_sum.setdefault(channel, {})
            pc_count = self._pc_count.setdefault(channel, {})
            for key, val in sums.items():
                pc_sum[key] = pc_sum.get(key, 0.0) + val
            for key, cnt in counts.items():
                pc_count[key] = pc_count.get(key, 0) + cnt
        if (
            self.enable_basis
            and root_warm is not None
            and columns is not None
            and base_rows is not None
        ):
            key = (tuple(columns), int(base_rows), frozenset(tags or ()))
            row_keys = tuple(_cut_key(c) for c in (root_cuts or ()))
            self._basis[key] = (root_warm, row_keys)
        for name, val in (counters or {}).items():
            self.counters[name] = self.counters.get(name, 0) + val
            mapped = _TELEMETRY_COUNTERS.get(name)
            if mapped is not None and val:
                telemetry.count(mapped, val)

    def _append_cut(self, tag: str, cut) -> None:
        key = _cut_key(cut)
        if key in self._cut_keys:
            self.counters["cuts_deduped"] = self.counters.get("cuts_deduped", 0) + 1
            return
        if self._tag_counts.get(tag, 0) >= self.max_cuts_per_tag:
            self.counters["cuts_capped"] = self.counters.get("cuts_capped", 0) + 1
            return
        self._cut_keys.add(key)
        self._tag_counts[tag] = self._tag_counts.get(tag, 0) + 1
        self._cuts.append((tag, key, cut))

    def _project_incumbent(self, model, prev: dict) -> dict | None:
        """Previous optimum -> integer fixings valid for ``model``'s boxes.

        SOS1 targets snap to the nearest allowed weight (members one-hot to
        match); plain integers round and clamp.  Returns None when a value
        cannot be projected — the solver then simply starts cold.
        """
        fixings: dict = {}
        handled: set = set()
        for sos in model.sos1_sets.values():
            if sos.target is None or sos.target not in prev:
                return None
            w = min(sos.weights, key=lambda x: abs(x - float(prev[sos.target])))
            fixings[sos.target] = float(w)
            for member, weight in zip(sos.members, sos.weights):
                fixings[member] = 1.0 if weight == w else 0.0
            handled.add(sos.target)
            handled.update(sos.members)
        for v in model.integer_variables():
            if v.name in handled:
                continue
            if v.name not in prev:
                if v.lb == v.ub:
                    fixings[v.name] = float(v.lb)
                    continue
                return None
            val = float(round(float(prev[v.name])))
            lo = math.ceil(v.lb - 1e-9)
            hi = math.floor(v.ub + 1e-9)
            if lo > hi:
                return None
            fixings[v.name] = float(min(max(val, lo), hi))
        return fixings

    # -- snapshot / delta plumbing (parallel composition) ------------------------

    def snapshot(self) -> "SolveFamily":
        """An independent deep copy; mutations on either side stay local."""
        return copy.deepcopy(self)

    clone = snapshot

    def mark(self) -> _Mark:
        return _Mark(
            num_cuts=len(self._cuts),
            inc_versions=dict(self._inc_versions),
            pc_sum={ch: dict(d) for ch, d in self._pc_sum.items()},
            pc_count={ch: dict(d) for ch, d in self._pc_count.items()},
            counters=dict(self.counters),
        )

    def export_delta(self, mark: _Mark) -> FamilyDelta:
        """State accumulated since ``mark``, for submission-order merging."""
        delta = FamilyDelta()
        delta.cuts = list(self._cuts[mark.num_cuts:])
        for channel, version in self._inc_versions.items():
            if version > mark.inc_versions.get(channel, 0):
                env, obj = self._incumbents[channel]
                delta.incumbents[channel] = (dict(env), obj)
        for channel, counts in self._pc_count.items():
            base_count = mark.pc_count.get(channel, {})
            count_diffs = {k: c - base_count.get(k, 0) for k, c in counts.items()
                           if c - base_count.get(k, 0)}
            if not count_diffs:
                continue
            # Sums and counts are only ever updated together (absorb), so the
            # count diff decides which keys were observed.  The paired sum
            # diff is exported even when it is exactly 0.0 — dropping it
            # would merge a count without its sum and break the mean.
            sums = self._pc_sum.get(channel, {})
            base_sum = mark.pc_sum.get(channel, {})
            delta.pc_count[channel] = count_diffs
            delta.pc_sum[channel] = {
                k: sums.get(k, 0.0) - base_sum.get(k, 0.0) for k in count_diffs
            }
        delta.basis = dict(self._basis)
        for name, val in self.counters.items():
            diff = val - mark.counters.get(name, 0)
            if diff:
                delta.counters[name] = diff
        return delta

    def merge_delta(self, delta: FamilyDelta) -> None:
        """Fold a worker's delta in; call in submission order for determinism."""
        for tag, _key, cut in delta.cuts:
            self._append_cut(tag, cut)
        for channel, inc in delta.incumbents.items():
            self._incumbents[channel] = inc
            self._inc_versions[channel] = self._inc_versions.get(channel, 0) + 1
        for channel, diffs in delta.pc_sum.items():
            pc_sum = self._pc_sum.setdefault(channel, {})
            for key, val in diffs.items():
                pc_sum[key] = pc_sum.get(key, 0.0) + val
        for channel, diffs in delta.pc_count.items():
            pc_count = self._pc_count.setdefault(channel, {})
            for key, cnt in diffs.items():
                pc_count[key] = pc_count.get(key, 0) + cnt
        self._basis.update(delta.basis)
        for name, val in delta.counters.items():
            self.counters[name] = self.counters.get(name, 0) + val

    # -- introspection -----------------------------------------------------------

    @property
    def num_cuts(self) -> int:
        return len(self._cuts)

    def stats(self) -> dict:
        return {
            "cuts": len(self._cuts),
            "tags": len(self._tag_counts),
            "bases": len(self._basis),
            "channels": len(
                set(self._incumbents) | set(self._pc_count) | set(self._pc_sum)
            ),
            "pseudocost_entries": sum(len(d) for d in self._pc_count.values()),
            "incumbents": len(self._incumbents),
            **self.counters,
        }


# -- parallel family mapping ------------------------------------------------------


@dataclass
class _FamilyTask:
    """Picklable payload: one item plus the shared family snapshot."""

    fn: object
    item: object
    snapshot: SolveFamily
    mark: _Mark


def _run_family_task(task: _FamilyTask) -> tuple:
    family = task.snapshot.clone()
    value = task.fn(task.item, family)
    return value, family.export_delta(task.mark)


@dataclass
class _PlainTask:
    fn: object
    item: object


def _run_plain_task(task: _PlainTask):
    return task.fn(task.item, None)


def family_map(fn, items, family: SolveFamily | None = None,
               executor=None, workers: int | None = None) -> list:
    """Map ``fn(item, family)`` over ``items`` with deterministic reuse.

    The first item runs against the live ``family`` (seeding the pool with
    a full solve's worth of cuts and an incumbent); every remaining item
    runs against an identical clone of the post-seed snapshot, on the given
    executor; deltas merge back in submission order.  Results — including
    every solver decision — are therefore independent of backend and worker
    count: ``serial``, ``thread`` and ``supervised`` all see the same
    family state for item *k*.

    With ``family=None`` this degrades to a plain deterministic map.  For
    the ``supervised`` backend ``fn`` must be a module-level function and
    ``items`` picklable.
    """
    items = list(items)
    if not items:
        return []
    if family is None:
        with executor_scope(executor, workers) as ex:
            return ex.map_ordered(_run_plain_task, [_PlainTask(fn, it) for it in items])
    first = fn(items[0], family)
    if len(items) == 1:
        return [first]
    snap = family.snapshot()
    mark = snap.mark()
    tasks = [_FamilyTask(fn, item, snap, mark) for item in items[1:]]
    with executor_scope(executor, workers) as ex:
        pairs = ex.map_ordered(_run_family_task, tasks)
    results = [first]
    for value, delta in pairs:
        family.merge_delta(delta)
        results.append(value)
    return results
