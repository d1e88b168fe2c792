"""Reuse differential equivalence of the analysis-layer sweeps.

The what-if and extrapolation sweeps are the reuse engine's main consumers:
with ``reuse`` on they must reproduce the cold results — bit-for-bit within
a channel (the node-count sweeps), and to solver gap tolerance for the
swapped side of a curve-swap sweep, whose optimum can be degenerate (tied
splits whose certified objectives differ only in barrier noise).  Both must
hold on clean fits, on fits produced under fault injection, and across
parallel backends.
"""

import pytest

from repro.analysis import constraint_cost, optimal_node_count
from repro.analysis.extrapolate import component_swap_sweep
from repro.analysis.whatif import solve_layout_points
from repro.cesm import ComponentId, Layout, make_case
from repro.hslb import HSLBPipeline
from repro.resilience import FaultProfile
from repro.reuse import SolveFamily

A, O, I, L = ComponentId.ATM, ComponentId.OCN, ComponentId.ICE, ComponentId.LND

SIZES = (128, 120, 112)
CHAOS = FaultProfile(crash_probability=0.2, outlier_probability=0.05)


def fitted_perf(fault_profile=None):
    pipeline = HSLBPipeline(
        make_case("1deg", max(SIZES), seed=0), fault_profile=fault_profile
    )
    fits = pipeline.fit(pipeline.gather())
    return {c: f.model for c, f in fits.items()}


@pytest.fixture(scope="module")
def setting():
    case = make_case("1deg", max(SIZES), seed=0)
    bounds = {c: case.component_bounds(c) for c in (A, O, I, L)}
    return fitted_perf(), bounds, case.ocean_allowed()


def sweep(perf, bounds, ocn, reuse, method="lpnlp", **kw):
    return solve_layout_points(
        perf, bounds, SIZES, layout=Layout.HYBRID, ocn_allowed=ocn,
        method=method, reuse=reuse, **kw,
    )


def assert_bit_identical(cold, warm):
    for c, w in zip(cold, warm):
        assert w.makespan.hex() == c.makespan.hex(), c.total_nodes
        assert w.allocation == c.allocation, c.total_nodes
        assert w.solver_result.nodes <= c.solver_result.nodes, c.total_nodes


class TestWhatIfDifferential:
    def test_clean_fits(self, setting):
        perf, bounds, ocn = setting
        cold = sweep(perf, bounds, ocn, reuse=False)
        warm = sweep(perf, bounds, ocn, reuse=SolveFamily())
        assert_bit_identical(cold, warm)

    @pytest.mark.parametrize("method", ("lpnlp", "bnb"))
    def test_fault_injected_fits(self, setting, method):
        _, bounds, ocn = setting
        perf = fitted_perf(fault_profile=CHAOS)
        cold = sweep(perf, bounds, ocn, reuse=False, method=method)
        warm = sweep(perf, bounds, ocn, reuse=SolveFamily(), method=method)
        assert_bit_identical(cold, warm)

    @pytest.mark.parametrize("backend", ("serial", "supervised"))
    def test_backends_match(self, setting, backend):
        perf, bounds, ocn = setting
        ref = sweep(perf, bounds, ocn, reuse=SolveFamily())
        got = sweep(
            perf, bounds, ocn, reuse=SolveFamily(),
            executor=backend, workers=2,
        )
        for r, g in zip(ref, got):
            assert g.makespan.hex() == r.makespan.hex()
            assert g.allocation == r.allocation
            assert g.solver_result.nodes == r.solver_result.nodes

    def test_recommendation_unchanged_by_reuse(self, setting):
        perf, bounds, ocn = setting
        cold = optimal_node_count(
            perf, bounds, SIZES, ocn_allowed=ocn, method="lpnlp", reuse=False
        )
        warm = optimal_node_count(
            perf, bounds, SIZES, ocn_allowed=ocn, method="lpnlp", reuse=True
        )
        assert warm.total_nodes == cold.total_nodes
        assert warm.total_time.hex() == cold.total_time.hex()
        assert warm.evaluated == cold.evaluated

    def test_presolved_points_shortcut(self, setting):
        perf, bounds, ocn = setting
        points = sweep(perf, bounds, ocn, reuse=SolveFamily())
        via_points = optimal_node_count(
            perf, bounds, SIZES, ocn_allowed=ocn, points=points
        )
        direct = optimal_node_count(
            perf, bounds, SIZES, ocn_allowed=ocn, method="lpnlp", reuse=True
        )
        assert via_points == direct

    def test_constraint_cost_with_reuse(self, setting):
        perf, bounds, ocn = setting
        kw = dict(method="lpnlp")
        cold = constraint_cost(perf, bounds, 128, [24], list(ocn), reuse=False, **kw)
        warm = constraint_cost(perf, bounds, 128, [24], list(ocn), reuse=True, **kw)
        for side in ("constrained", "unconstrained"):
            assert warm[side].makespan.hex() == cold[side].makespan.hex()
            assert warm[side].allocation == cold[side].allocation
        assert warm["improvement"].hex() == cold["improvement"].hex()


class TestSwapSweepDifferential:
    def gap(self, value):
        # mirrors the solvers' pruning tolerance (rel 1e-6, abs 1e-7)
        return max(1e-7, 1e-6 * abs(value))

    def run_pair(self, setting, reuse, **kw):
        perf, bounds, ocn = setting
        replacement = perf[O].scaled(1.25)
        return component_swap_sweep(
            perf, bounds, SIZES, O, replacement, layout=Layout.HYBRID,
            ocn_allowed=ocn, method="lpnlp", reuse=reuse, **kw,
        )

    def test_baseline_bit_identical_swapped_gap_equal(self, setting):
        cold = self.run_pair(setting, reuse=False)
        warm = self.run_pair(setting, reuse=SolveFamily())
        for c, w in zip(cold, warm):
            # the baseline channel matches the sweep's curves exactly
            assert w.baseline_makespan.hex() == c.baseline_makespan.hex()
            assert w.baseline_allocation == c.baseline_allocation
            # the swapped side may settle on a degenerate tied optimum;
            # the certified objective must agree to solver gap
            assert abs(w.swapped_makespan - c.swapped_makespan) <= self.gap(
                c.swapped_makespan
            )

    def test_improvement_direction_stable(self, setting):
        warm = self.run_pair(setting, reuse=SolveFamily())
        for effect in warm:
            assert effect.component is O
            assert effect.improvement > 0.0   # a 25% faster ocean must help

    def test_results_in_input_order(self, setting):
        perf, bounds, ocn = setting
        replacement = perf[O].scaled(1.25)
        ascending = component_swap_sweep(
            perf, bounds, tuple(reversed(SIZES)), O, replacement,
            layout=Layout.HYBRID, ocn_allowed=ocn, method="lpnlp",
            reuse=SolveFamily(),
        )
        descending = self.run_pair(setting, reuse=SolveFamily())
        paired = zip(ascending, reversed(descending))
        for up, down in paired:
            assert up.baseline_makespan.hex() == down.baseline_makespan.hex()

    def test_process_backend_matches(self, setting):
        ref = self.run_pair(setting, reuse=SolveFamily())
        got = self.run_pair(
            setting, reuse=SolveFamily(), executor="supervised", workers=2
        )
        for r, g in zip(ref, got):
            assert g.baseline_makespan.hex() == r.baseline_makespan.hex()
            assert g.swapped_makespan.hex() == r.swapped_makespan.hex()
            assert g.swapped_allocation == r.swapped_allocation
