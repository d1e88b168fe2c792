"""Property-based tests (hypothesis) for the parallel layer's invariants.

Two properties carry the whole design:

- :func:`ordered_merge` is permutation-invariant — completion order can
  never leak into results;
- the MINLP solvers agree with the exhaustive oracle on random convex
  performance curves, so the solver the parallel layer fans out is itself
  trustworthy across the input space, not just on the three paper
  layouts.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.cesm import make_case  # noqa: E402
from repro.fitting import PerfModel  # noqa: E402
from repro.hslb import solve_allocation  # noqa: E402
from repro.parallel import TaskFailure, ordered_merge  # noqa: E402


class TestOrderedMergeProperties:
    @given(
        values=st.lists(st.integers(), max_size=24),
        seed=st.randoms(use_true_random=False),
    )
    def test_any_completion_permutation_restores_submission_order(
        self, values, seed
    ):
        pairs = list(enumerate(values))
        seed.shuffle(pairs)
        assert ordered_merge(pairs, len(values)) == values

    @given(
        n=st.integers(min_value=1, max_value=24),
        fail_at=st.lists(st.integers(min_value=0), min_size=1, max_size=5),
        seed=st.randoms(use_true_random=False),
    )
    def test_earliest_failure_wins_for_any_permutation(self, n, fail_at, seed):
        fail_at = sorted({i % n for i in fail_at})
        pairs = [
            (i, TaskFailure(ValueError(f"task {i}")) if i in fail_at else i)
            for i in range(n)
        ]
        seed.shuffle(pairs)
        with pytest.raises(ValueError, match=f"task {fail_at[0]}"):
            ordered_merge(pairs, n)


# Positive a keeps every curve scalable; c >= 1 keeps b*n^c convex, the
# regime the MINLP layer certifies.  Floats are rounded so failure cases
# print readably.
_CURVES = st.builds(
    PerfModel,
    a=st.floats(min_value=50.0, max_value=5000.0).map(lambda v: round(v, 3)),
    b=st.floats(min_value=0.0, max_value=0.5).map(lambda v: round(v, 4)),
    c=st.floats(min_value=1.0, max_value=2.5).map(lambda v: round(v, 3)),
    d=st.floats(min_value=0.0, max_value=50.0).map(lambda v: round(v, 3)),
)


class TestSolverAgreesWithOracle:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        curves=st.tuples(_CURVES, _CURVES, _CURVES, _CURVES),
        total_nodes=st.sampled_from([64, 96, 128, 160, 192]),
    )
    def test_random_convex_curves_and_budgets(self, curves, total_nodes):
        case = make_case("1deg", total_nodes)
        from repro.cesm.components import OPTIMIZED_COMPONENTS

        perf = dict(zip(OPTIMIZED_COMPONENTS, curves))
        oracle = solve_allocation(case, perf, method="oracle")
        minlp = solve_allocation(case, perf, method="lpnlp")
        scale = max(1.0, abs(oracle.objective_value))
        assert (
            abs(minlp.objective_value - oracle.objective_value) / scale < 1e-5
        ), (
            f"lpnlp {minlp.objective_value} (alloc {minlp.allocation}) vs "
            f"oracle {oracle.objective_value} (alloc {oracle.allocation})"
        )
