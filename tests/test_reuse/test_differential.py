"""Cold-vs-reuse differential gate (the engine's core guarantee).

Within a channel — members differing only in linear rows and bounds, here a
what-if sweep over total node counts — a warm :class:`SolveFamily` must
reproduce every cold optimum bit-for-bit and must never *grow* the search
tree, on all three Table I layouts with both branch-and-bound solvers.
This battery (the paper's 1-degree curves at 128/120/112 nodes, and the
service benchmark's 2048 -> 1728 ladder) is the one the CI perf-smoke job
pins.
"""

import pytest

from repro.analysis.whatif import solve_layout_points
from repro.cesm import ComponentId, Layout, make_case
from repro.hslb import HSLBPipeline
from repro.reuse import SolveFamily

A, O, I, L = ComponentId.ATM, ComponentId.OCN, ComponentId.ICE, ComponentId.LND

SIZES = (128, 120, 112)
LAYOUTS = (Layout.HYBRID, Layout.SEQUENTIAL_SPLIT, Layout.FULLY_SEQUENTIAL)

#: The ``service`` benchmark's what-if ladder (spread 2048/1728 < 1.2x, so
#: a family carries every reuse feature down it) and the case seed of the
#: curves that benchmark fits for its curve set 2 at benchmark seed 20.
SERVICE_LADDER = tuple(range(2048, 1727, -64))
SERVICE_CURVE_SEED = 2853529761


def fitted(total_nodes, seed):
    """Fitted 1-degree curves, bounds, ocean set and atmosphere range."""
    case = make_case("1deg", total_nodes, seed=seed)
    pipeline = HSLBPipeline(case)
    fits = pipeline.fit(pipeline.gather())
    perf = {c: f.model for c, f in fits.items()}
    bounds = {c: case.component_bounds(c) for c in (A, O, I, L)}
    return perf, bounds, case.ocean_allowed(), case.atm_allowed()


@pytest.fixture(scope="module")
def calibrated():
    """Fitted 1-degree curves + bounds + ocean set, computed once."""
    perf, bounds, ocn, _ = fitted(max(SIZES), 0)
    return perf, bounds, ocn


@pytest.fixture(scope="module")
def ladder(request, calibrated):
    """One cold-vs-reuse input: its name, node counts and curves."""
    if request.param == "paper":
        return "paper", SIZES, (*calibrated, None)
    return "service", SERVICE_LADDER, fitted(128, SERVICE_CURVE_SEED)


def sweep(calibrated, layout, method, reuse, sizes=SIZES, atm_allowed=None):
    perf, bounds, ocn = calibrated
    return solve_layout_points(
        perf, bounds, sizes, layout=layout, ocn_allowed=ocn,
        atm_allowed=atm_allowed, method=method, reuse=reuse,
    )


@pytest.mark.parametrize("ladder", ("paper", "service"), indirect=True)
@pytest.mark.parametrize("method", ("lpnlp", "bnb"))
@pytest.mark.parametrize("layout", LAYOUTS, ids=lambda lay: lay.name.lower())
class TestColdVersusReuse:
    def test_bit_identical_and_no_node_growth(self, ladder, layout, method):
        name, sizes, (*curves, atm) = ladder
        kw = dict(sizes=sizes, atm_allowed=atm)
        cold = sweep(curves, layout, method, reuse=False, **kw)
        family = SolveFamily()
        warm = sweep(curves, layout, method, reuse=family, **kw)
        # The first member is solved against an empty family, so it is the
        # cold solve, tree included.
        assert warm[0].solver_result.nodes == cold[0].solver_result.nodes
        members = list(zip(cold, warm))
        if method == "bnb" and name == "service":
            # Later NLP B&B members of this ladder return other allocations
            # at equal makespan bits (docs/reuse.md, "Honesty limits").
            members = members[:1]
        for c, w in members:
            assert w.makespan.hex() == c.makespan.hex(), c.total_nodes
            assert w.allocation == c.allocation, c.total_nodes
            assert w.solver_result.nodes <= c.solver_result.nodes, c.total_nodes
        # the family actually accumulated state (not a silent no-op)
        stats = family.stats()
        assert stats["incumbents"] >= 1
        assert stats["channels"] == 1


class TestInputOrderInvariance:
    def test_results_follow_input_order(self, calibrated):
        descending = sweep(calibrated, Layout.HYBRID, "lpnlp", reuse=SolveFamily())
        perf, bounds, ocn = calibrated
        ascending = solve_layout_points(
            perf, bounds, tuple(reversed(SIZES)), layout=Layout.HYBRID,
            ocn_allowed=ocn, method="lpnlp", reuse=SolveFamily(),
        )
        # same members, restored to the caller's order on both sides
        assert [p.total_nodes for p in ascending] == list(reversed(SIZES))
        by_n = {p.total_nodes: p for p in descending}
        for p in ascending:
            assert p.makespan.hex() == by_n[p.total_nodes].makespan.hex()
            assert p.solver_result.nodes == by_n[p.total_nodes].solver_result.nodes

    def test_ascending_input_still_matches_cold(self, calibrated):
        cold = sweep(calibrated, Layout.HYBRID, "lpnlp", reuse=False)
        perf, bounds, ocn = calibrated
        warm = solve_layout_points(
            perf, bounds, tuple(reversed(SIZES)), layout=Layout.HYBRID,
            ocn_allowed=ocn, method="lpnlp", reuse=SolveFamily(),
        )
        by_n = {p.total_nodes: p for p in warm}
        for c in cold:
            w = by_n[c.total_nodes]
            assert w.makespan.hex() == c.makespan.hex()
            assert w.solver_result.nodes <= c.solver_result.nodes


class TestWideLadder:
    """The Sec. IV-C budget ladder: published 1-degree sizes + intermediates.

    Auto-created families fall back to the unconditionally safe feature
    subset (incumbent + basis) above the spread guard, which keeps wide
    ladders bit-identical with shrinking trees on *any* curve set.
    """

    LADDER = (2048, 1024, 512, 256, 128)

    def test_guard_picks_family_config(self):
        from repro.analysis.whatif import _sweep_family

        tight = _sweep_family("lpnlp", True, SIZES)
        assert tight.enable_cuts and tight.enable_pseudocosts
        wide = _sweep_family("lpnlp", True, self.LADDER)
        assert not wide.enable_cuts
        assert not wide.enable_pseudocosts
        assert wide.enable_incumbent and wide.enable_basis
        override = SolveFamily.for_counts(self.LADDER, cuts=True)
        assert override.enable_cuts and not override.enable_pseudocosts
        explicit = SolveFamily(pseudocosts=True)
        assert _sweep_family("lpnlp", explicit, self.LADDER) is explicit
        assert _sweep_family("oracle", True, self.LADDER) is None
        assert _sweep_family("lpnlp", False, self.LADDER) is None

    def test_ladder_bit_identical_and_shrinking(self, calibrated):
        perf, bounds, ocn = calibrated
        cold = solve_layout_points(
            perf, bounds, self.LADDER, layout=Layout.HYBRID,
            ocn_allowed=ocn, method="lpnlp", reuse=False,
        )
        warm = solve_layout_points(
            perf, bounds, self.LADDER, layout=Layout.HYBRID,
            ocn_allowed=ocn, method="lpnlp", reuse=True,
        )
        for c, w in zip(cold, warm):
            assert w.makespan.hex() == c.makespan.hex(), c.total_nodes
            assert w.allocation == c.allocation, c.total_nodes
            assert w.solver_result.nodes <= c.solver_result.nodes, c.total_nodes
        total_cold = sum(c.solver_result.nodes for c in cold)
        total_warm = sum(w.solver_result.nodes for w in warm)
        assert total_warm < total_cold

    def test_high_fit_curves_never_explode(self):
        # Regression: on curves fitted at the ladder's *top* size, carrying
        # cuts down the ladder explodes layout-2 trees 4 -> 1641 nodes
        # (a ~100x slowdown).  The guard's safe subset must stay
        # bit-identical with no growth on exactly that configuration.
        case = make_case("1deg", max(self.LADDER), seed=0)
        pipeline = HSLBPipeline(case)
        fits = pipeline.fit(pipeline.gather())
        perf = {c: f.model for c, f in fits.items()}
        bounds = {c: case.component_bounds(c) for c in (A, O, I, L)}
        kw = dict(
            layout=Layout.SEQUENTIAL_SPLIT, ocn_allowed=case.ocean_allowed(),
            method="lpnlp",
        )
        cold = solve_layout_points(perf, bounds, self.LADDER, reuse=False, **kw)
        warm = solve_layout_points(perf, bounds, self.LADDER, reuse=True, **kw)
        for c, w in zip(cold, warm):
            assert w.makespan.hex() == c.makespan.hex(), c.total_nodes
            assert w.allocation == c.allocation, c.total_nodes
            assert w.solver_result.nodes <= c.solver_result.nodes, c.total_nodes


class TestCounters:
    def test_reuse_counters_surface_on_results(self, calibrated):
        family = SolveFamily()
        warm = sweep(calibrated, Layout.HYBRID, "lpnlp", reuse=family)
        # the first-solved (largest) member runs cold; later members carry
        # cuts and report it on their MINLPResult
        carried = sum(
            p.solver_result.reuse_counters.get("cuts_carried", 0) for p in warm
        )
        assert carried > 0
        assert family.counters.get("cuts_carried", 0) == carried
