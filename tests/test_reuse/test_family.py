"""SolveFamily pool mechanics (repro.reuse.family).

Covers the cut pool (dedup, per-tag cap, tag/column filtering), channel
keying of incumbents and pseudocosts, incumbent projection, the
snapshot/delta plumbing behind deterministic parallel composition, and
backend-independence of family_map.
"""

import pytest

from repro.analysis.whatif import _solve_layout_point, layout_point_specs
from repro.cesm import ComponentId, Layout
from repro.expr.linearize import TangentCut
from repro.fitting import PerfModel
from repro.hslb import build_layout_model
from repro.minlp.lpnlp import solve_lpnlp
from repro.model.model import Model
from repro.model.variable import VarType
from repro.reuse import SolveFamily, family_map

A, O, I, L = ComponentId.ATM, ComponentId.OCN, ComponentId.ICE, ComponentId.LND

PERF = {
    I: PerfModel(a=8000.0, d=18.0),
    L: PerfModel(a=1465.0, d=2.6),
    A: PerfModel(a=27000.0, d=45.0),
    O: PerfModel(a=7900.0, b=0.02, c=1.0, d=36.0),
}
BOUNDS = {I: (8, 2048), L: (4, 2048), A: (8, 2048), O: (8, 2048)}
OCN_ALLOWED = [8, 16, 24, 32]


def layout_model(layout=Layout.HYBRID, n=64, perf=PERF):
    return build_layout_model(layout, n, perf, BOUNDS, ocn_allowed=OCN_ALLOWED)


def cut(coeffs, rhs):
    return TangentCut(coeffs=coeffs, rhs=rhs)


class TestCutPool:
    def test_duplicate_cuts_dedupe(self):
        fam = SolveFamily()
        c = cut({"x": 1.0}, 5.0)
        fam.absorb(new_cuts=[("tag", c), ("tag", cut({"x": 1.0}, 5.0))])
        assert fam.num_cuts == 1
        assert fam.counters["cuts_deduped"] == 1

    def test_per_tag_cap_drops_newest(self):
        fam = SolveFamily(max_cuts_per_tag=2)
        cuts = [("tag", cut({"x": 1.0}, float(k))) for k in range(4)]
        fam.absorb(new_cuts=cuts)
        assert fam.num_cuts == 2
        assert fam.counters["cuts_capped"] == 2
        # the survivors are the oldest two — append-only prefix order.
        kept = [c.rhs for _, _, c in fam._cuts]
        assert kept == [0.0, 1.0]

    def test_cap_is_per_tag(self):
        fam = SolveFamily(max_cuts_per_tag=1)
        fam.absorb(new_cuts=[
            ("a", cut({"x": 1.0}, 1.0)),
            ("b", cut({"x": 1.0}, 2.0)),
        ])
        assert fam.num_cuts == 2

    def test_plan_filters_by_tag_and_columns(self):
        model = layout_model()
        fam = SolveFamily(fbbt=False)
        probe = fam.plan(model, columns=model.variable_names(), base_rows=3)
        tag = probe.body_tags[0]
        good = cut({model.variable_names()[0]: 1.0}, 1.0)
        alien_tag = cut({model.variable_names()[0]: 1.0}, 2.0)
        alien_col = cut({"not_a_column": 1.0}, 3.0)
        fam.absorb(new_cuts=[(tag, good), ("elsewhere", alien_tag), (tag, alien_col)])
        plan = fam.plan(model, columns=model.variable_names(), base_rows=3)
        assert plan.cuts == [good]

    def test_covered_requires_every_tag(self):
        model = layout_model()
        fam = SolveFamily(fbbt=False)
        probe = fam.plan(model, columns=model.variable_names(), base_rows=3)
        name = model.variable_names()[0]
        fam.absorb(new_cuts=[(probe.body_tags[0], cut({name: 1.0}, 1.0))])
        partial = fam.plan(model, columns=model.variable_names(), base_rows=3)
        assert not partial.covered
        fam.absorb(new_cuts=[
            (tag, cut({name: 1.0}, 10.0 + i))
            for i, tag in enumerate(set(probe.body_tags))
        ])
        full = fam.plan(model, columns=model.variable_names(), base_rows=3)
        assert full.covered


class TestChannels:
    def test_same_curves_share_a_channel(self):
        fam = SolveFamily(fbbt=False)
        p64 = fam.plan(layout_model(n=64))
        p56 = fam.plan(layout_model(n=56))
        assert p64.channel == p56.channel

    def test_swapped_curve_changes_channel(self):
        fam = SolveFamily(fbbt=False)
        base = fam.plan(layout_model())
        swapped_perf = {**PERF, I: PerfModel(a=9000.0, d=18.0)}
        swapped = fam.plan(layout_model(perf=swapped_perf))
        assert base.channel != swapped.channel

    def test_incumbent_stays_in_channel(self):
        model = layout_model()
        sol = solve_lpnlp(model).solution
        assert sol is not None
        fam = SolveFamily(fbbt=False)
        plan = fam.plan(model)
        fam.absorb(channel=plan.channel, incumbent_env=sol, objective=1.0)
        again = fam.plan(layout_model(n=56))
        assert again.fixings is not None
        swapped_perf = {**PERF, I: PerfModel(a=9000.0, d=18.0)}
        other = fam.plan(layout_model(perf=swapped_perf))
        assert other.fixings is None

    def test_pseudocosts_stay_in_channel(self):
        fam = SolveFamily(fbbt=False)
        model = layout_model()
        plan = fam.plan(model)
        fam.absorb(
            channel=plan.channel,
            pseudo=({("n_atm", "up"): 2.0}, {("n_atm", "up"): 1}),
        )
        assert fam.plan(layout_model(n=56)).pseudo is not None
        assert fam.plan(layout_model(n=56)).counters["pseudocost_entries"] == 1
        swapped_perf = {**PERF, I: PerfModel(a=9000.0, d=18.0)}
        assert fam.plan(layout_model(perf=swapped_perf)).pseudo is None

    def test_stats_count_channels(self):
        fam = SolveFamily(fbbt=False)
        plan = fam.plan(layout_model())
        fam.absorb(channel=plan.channel, pseudo=({}, {("x", "up"): 1}))
        assert fam.stats()["channels"] == 1


class TestIncumbentProjection:
    def proj_model(self):
        m = Model("proj")
        t = m.add_variable("t", VarType.INTEGER, 0, 100)
        m.add_allowed_values(t, [8, 16, 40], encode="sos")
        m.add_variable("x", VarType.INTEGER, 0, 10)
        return m

    def test_sos_snaps_and_one_hots(self):
        m = self.proj_model()
        fam = SolveFamily()
        fix = fam._project_incumbent(m, {"t": 18.0, "x": 4.0})
        assert fix["t"] == 16.0
        sos = next(iter(m.sos1_sets.values()))
        chosen = {mem: fix[mem] for mem in sos.members}
        assert sorted(chosen.values()) == [0.0, 0.0, 1.0]
        assert chosen[sos.members[list(sos.weights).index(16.0)]] == 1.0

    def test_integer_rounds_and_clamps(self):
        m = self.proj_model()
        fam = SolveFamily()
        assert fam._project_incumbent(m, {"t": 8.0, "x": 25.3})["x"] == 10.0
        assert fam._project_incumbent(m, {"t": 8.0, "x": 3.6})["x"] == 4.0

    def test_missing_value_rejects_unless_fixed(self):
        m = self.proj_model()
        fam = SolveFamily()
        assert fam._project_incumbent(m, {"t": 8.0}) is None
        m2 = Model("fixed")
        m2.add_variable("x", VarType.INTEGER, 7, 7)
        assert SolveFamily()._project_incumbent(m2, {})["x"] == 7.0

    def test_missing_sos_target_rejects(self):
        m = self.proj_model()
        assert SolveFamily()._project_incumbent(m, {"x": 1.0}) is None


class TestSnapshotAndDeltas:
    def test_snapshot_is_independent(self):
        fam = SolveFamily()
        fam.absorb(new_cuts=[("tag", cut({"x": 1.0}, 1.0))])
        snap = fam.snapshot()
        snap.absorb(new_cuts=[("tag", cut({"x": 1.0}, 2.0))])
        assert fam.num_cuts == 1 and snap.num_cuts == 2

    def test_delta_roundtrip(self):
        src = SolveFamily()
        src.absorb(new_cuts=[("tag", cut({"x": 1.0}, 1.0))])
        mark = src.mark()
        channel = frozenset({"tag"})
        src.absorb(
            channel=channel,
            new_cuts=[("tag", cut({"x": 1.0}, 2.0))],
            incumbent_env={"x": 3.0},
            objective=9.0,
            pseudo=({("x", "up"): 1.5}, {("x", "up"): 2}),
            counters={"nodes_seeded": 1},
        )
        delta = src.export_delta(mark)
        assert len(delta.cuts) == 1        # only the post-mark cut
        assert delta.incumbents[channel] == ({"x": 3.0}, 9.0)
        assert delta.pc_count[channel] == {("x", "up"): 2}
        assert delta.counters == {"nodes_seeded": 1}

        dst = SolveFamily()
        dst.absorb(new_cuts=[("tag", cut({"x": 1.0}, 1.0))])
        dst.merge_delta(delta)
        assert dst.num_cuts == 2
        assert dst._incumbents[channel] == ({"x": 3.0}, 9.0)
        assert dst._pc_sum[channel] == {("x", "up"): 1.5}
        assert dst.counters["nodes_seeded"] == 1

    def test_merge_dedupes_shared_cuts(self):
        src = SolveFamily()
        mark = src.mark()
        src.absorb(new_cuts=[("tag", cut({"x": 1.0}, 1.0))])
        delta = src.export_delta(mark)
        dst = SolveFamily()
        dst.absorb(new_cuts=[("tag", cut({"x": 1.0}, 1.0))])
        dst.merge_delta(delta)
        assert dst.num_cuts == 1
        assert dst.counters["cuts_deduped"] == 1

    def test_unchanged_incumbent_not_exported(self):
        fam = SolveFamily()
        channel = frozenset({"tag"})
        fam.absorb(channel=channel, incumbent_env={"x": 1.0}, objective=5.0)
        mark = fam.mark()
        assert fam.export_delta(mark).incumbents == {}


class TestFamilyMap:
    def specs(self, sizes=(64, 56, 48)):
        return layout_point_specs(
            PERF, BOUNDS, sizes, layout=Layout.HYBRID,
            ocn_allowed=OCN_ALLOWED, method="lpnlp",
        )

    @staticmethod
    def signature(points):
        return [
            (p.total_nodes, p.makespan.hex(), tuple(sorted((c.value, n) for c, n in p.allocation.items())),
             p.solver_result.nodes)
            for p in points
        ]

    @pytest.mark.parametrize("backend", ["thread", "supervised"])
    def test_backends_match_serial(self, backend):
        ref_family = SolveFamily()
        ref = family_map(_solve_layout_point, self.specs(), family=ref_family)
        got_family = SolveFamily()
        got = family_map(
            _solve_layout_point, self.specs(), family=got_family,
            executor=backend, workers=2,
        )
        assert self.signature(got) == self.signature(ref)
        assert got_family.stats() == ref_family.stats()

    def test_no_family_is_plain_map(self):
        ref = [_solve_layout_point(s, None) for s in self.specs()]
        got = family_map(_solve_layout_point, self.specs(), family=None)
        assert self.signature(got) == self.signature(ref)

    def test_empty_items(self):
        assert family_map(_solve_layout_point, [], family=SolveFamily()) == []

    def test_single_item_runs_live(self):
        fam = SolveFamily()
        out = family_map(_solve_layout_point, self.specs((64,)), family=fam)
        assert len(out) == 1
        assert fam.num_cuts > 0 or fam.stats()["incumbents"] > 0
