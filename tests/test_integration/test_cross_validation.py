"""Cross-cutting integration and property tests.

These exist to make the reproduction *self-verifying*: the two
branch-and-bound solvers and the enumeration oracle must agree on randomly
generated layout problems, the pipeline must be stable across noise seeds,
and corrupted inputs must fail loudly instead of silently degrading."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cesm import ComponentId, CoupledRunSimulator, Layout, make_case
from repro.exceptions import FittingError
from repro.fitting import PerfModel, fit_perf_model
from repro.hslb import HSLBPipeline, LayoutOracle
from repro.hslb.layout_models import build_layout_model
from repro.minlp import MINLPOptions, MINLPStatus, solve_lpnlp, solve_nlp_bnb

A, O, I, L = ComponentId.ATM, ComponentId.OCN, ComponentId.ICE, ComponentId.LND


@st.composite
def random_layout_instance(draw):
    """A random small layout-1 problem over convex performance curves."""
    def pm():
        # b and d keep exact zero but exclude the (0, 0.01) sliver: floats
        # like 5e-170 are meaningless as performance coefficients yet their
        # vanishing curvature stalls the barrier solver for minutes.
        return PerfModel(
            a=draw(st.floats(50.0, 5000.0)),
            b=draw(st.one_of(st.just(0.0), st.floats(0.01, 0.5))),
            c=draw(st.floats(1.0, 1.6)),
            d=draw(st.one_of(st.just(0.0), st.floats(0.1, 20.0))),
        )

    perf = {c: pm() for c in (I, L, A, O)}
    N = draw(st.integers(8, 40))
    ocn_allowed = draw(
        st.one_of(
            st.none(),
            st.lists(st.integers(1, 40), min_size=2, max_size=5, unique=True),
        )
    )
    return perf, N, ocn_allowed


#: A drawn instance whose NLP B&B relaxations all carry the ocean set's
#: progression row ``n_ocn - 7 * z_ocn_idx = 8``.  While the barrier kept
#: that row in its Newton system, NLP B&B ran out of the 120 s budget after
#: 1,187 nodes on a 2-vCPU host (the 480 s retry certified it in 1,697
#: nodes and 159 s).  With the row substituted out it certifies in 73
#: nodes and under a second, at LP/NLP's objective.
PINNED_DRAW = (
    {
        I: PerfModel(a=861.8226551688624, c=1.5010550555933553),
        L: PerfModel(a=176.03182494965495, b=0.2550687331512504,
                     c=1.3023443856518255, d=10.51987386607822),
        A: PerfModel(a=1302.562, b=0.4994509220899834, c=1.5341284634680346),
        O: PerfModel(a=3953.8564091351786, c=1.2204525036795266),
    },
    37,
    [15, 8],
)


class TestSolverAgreementProperty:
    @given(instance=random_layout_instance())
    @example(instance=PINNED_DRAW)
    @settings(max_examples=20, deadline=None)
    def test_lpnlp_matches_oracle(self, instance):
        perf, N, ocn_allowed = instance
        bounds = {c: (1, N) for c in (I, L, A, O)}
        bounds[A] = (2, N)
        try:
            oracle = LayoutOracle(
                Layout.HYBRID, N, perf, bounds, ocn_allowed=ocn_allowed
            )
            expected = oracle.solve()
        except Exception:
            return  # infeasible random instance: nothing to compare
        model = build_layout_model(
            Layout.HYBRID, N, perf, bounds, ocn_allowed=ocn_allowed
        )
        res = solve_lpnlp(model, MINLPOptions(time_limit=60.0))
        if res.status is MINLPStatus.TIME_LIMIT:
            # Rare adversarial draws (vanishing-curvature curves over a
            # small irregular ocean set) can exhaust the budget without a
            # certificate.  Certify the draw deterministically instead of
            # skipping it: re-solve a fresh model with a raised budget, and
            # *require* the optimum — an uncertifiable instance is a real
            # solver failure, not flake to be waved through.
            model = build_layout_model(
                Layout.HYBRID, N, perf, bounds, ocn_allowed=ocn_allowed
            )
            res = solve_lpnlp(model, MINLPOptions(time_limit=240.0))
        assert res.is_optimal
        assert res.objective == pytest.approx(
            expected.objective_value, rel=1e-4, abs=1e-6
        )

    @given(instance=random_layout_instance())
    @example(instance=PINNED_DRAW)
    @settings(max_examples=8, deadline=None)
    def test_nlp_bnb_matches_oracle(self, instance):
        perf, N, ocn_allowed = instance
        bounds = {c: (1, N) for c in (I, L, A, O)}
        bounds[A] = (2, N)
        try:
            oracle = LayoutOracle(
                Layout.HYBRID, N, perf, bounds, ocn_allowed=ocn_allowed
            )
            expected = oracle.solve()
        except Exception:
            return
        model = build_layout_model(
            Layout.HYBRID, N, perf, bounds, ocn_allowed=ocn_allowed
        )
        res = solve_nlp_bnb(model, MINLPOptions(time_limit=120.0))
        if res.status is MINLPStatus.TIME_LIMIT:
            # Same deterministic certification as the lpnlp variant above.
            model = build_layout_model(
                Layout.HYBRID, N, perf, bounds, ocn_allowed=ocn_allowed
            )
            res = solve_nlp_bnb(model, MINLPOptions(time_limit=480.0))
        assert res.is_optimal
        # barrier tolerance is looser than the LP path
        assert res.objective == pytest.approx(
            expected.objective_value, rel=1e-3, abs=1e-4
        )


class TestSeedStability:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_1deg_128_quality_across_seeds(self, seed):
        """The tie-with-the-expert result holds for any noise realization,
        not just the documented seed."""
        result = HSLBPipeline(make_case("1deg", 128, seed=seed)).run()
        manual = result.case and CoupledRunSimulator(result.case).run_coupled(
            {"lnd": 24, "ice": 80, "atm": 104, "ocn": 24}
        )
        assert result.actual_total <= manual.total * 1.08
        assert result.prediction_error() < 0.12

    def test_allocation_stable_under_seed_change(self):
        allocations = [
            HSLBPipeline(make_case("1deg", 512, seed=s)).run().allocation
            for s in (0, 7)
        ]
        # ocean choice should be within a couple of allowed steps
        assert abs(allocations[0][O] - allocations[1][O]) <= 16


class TestFailureInjection:
    def test_outlier_benchmark_point_degrades_gracefully(self):
        truth = PerfModel(a=3000.0, d=10.0)
        nodes = np.array([4, 16, 64, 256, 1024], float)
        y = truth(nodes)
        y[2] *= 3.0  # a 3x outlier (e.g. a node ran degraded)
        fit = fit_perf_model(nodes, y)
        # the fit completes and flags its quality honestly
        assert fit.r_squared < 0.995
        assert fit.model.a > 0

    def test_all_identical_times_fit(self):
        # A perfectly serial component: flat curve must fit with a ~= 0.
        nodes = np.array([2, 8, 32, 128], float)
        fit = fit_perf_model(nodes, np.full(4, 42.0))
        assert fit.model.d == pytest.approx(42.0, rel=0.05)
        assert fit.model(1e6) == pytest.approx(42.0, rel=0.05)

    def test_zero_time_component(self):
        nodes = np.array([2, 8, 32], float)
        fit = fit_perf_model(nodes, np.zeros(3))
        assert fit.model(16.0) == pytest.approx(0.0, abs=1e-6)

    def test_nan_benchmark_rejected(self):
        with pytest.raises(FittingError):
            fit_perf_model([1, 2, 4], [1.0, float("nan"), 0.5])

    def test_solver_reports_infeasible_not_garbage(self):
        perf = {c: PerfModel(a=100.0, d=1.0) for c in (I, L, A, O)}
        bounds = {I: (8, 32), L: (8, 32), A: (8, 14), O: (8, 32)}
        # ni + nl <= na is impossible: 8 + 8 > 14.
        model = build_layout_model(Layout.HYBRID, 64, perf, bounds)
        res = solve_lpnlp(model)
        assert not res.is_optimal
        assert res.solution is None

    def test_pipeline_rejects_impossible_job(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            HSLBPipeline(make_case("8th", 400)).run()  # below ocean min set
