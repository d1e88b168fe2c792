from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FittingError
from repro.fitting import FitOptions, PerfModel, fit_perf_model, r_squared, rmse, fit_diagnostics
from repro.fitting import least_squares
from repro.util.rng import as_rng


def sample_curve(model, nodes, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    y = model(np.asarray(nodes, float))
    if noise:
        y = y * rng.lognormal(0.0, noise, size=y.shape)
    return y


class TestQualityMetrics:
    def test_perfect_fit_r2(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y) == 1.0

    def test_mean_prediction_r2_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_constant_observations(self):
        y = np.full(3, 5.0)
        assert r_squared(y, y) == 1.0
        assert r_squared(y, y + 1.0) == 0.0

    def test_rmse(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            r_squared([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])

    def test_diagnostics_bundle(self):
        y = np.array([10.0, 5.0, 2.0])
        p = np.array([11.0, 5.0, 2.0])
        d = fit_diagnostics(y, p)
        assert d.n_points == 3
        assert d.max_abs_pct_error == pytest.approx(10.0)
        assert 0.9 < d.r_squared <= 1.0


class TestInputValidation:
    def test_too_few_points(self):
        with pytest.raises(FittingError, match="at least 3"):
            fit_perf_model([1, 2], [3.0, 2.0])

    def test_duplicate_nodes_insufficient(self):
        with pytest.raises(FittingError, match="distinct"):
            fit_perf_model([4, 4, 4, 4], [3.0, 3.1, 2.9, 3.0])

    def test_nonpositive_nodes(self):
        with pytest.raises(FittingError, match="positive"):
            fit_perf_model([0, 1, 2], [3.0, 2.0, 1.0])

    def test_negative_times(self):
        with pytest.raises(FittingError):
            fit_perf_model([1, 2, 4], [3.0, -2.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(FittingError):
            fit_perf_model([1, 2, 4], [3.0, 2.0])


class TestRecovery:
    def test_recovers_amdahl_curve_exactly(self):
        truth = PerfModel(a=1000.0, d=10.0)
        nodes = np.array([1, 4, 16, 64, 256], float)
        res = fit_perf_model(nodes, truth(nodes))
        assert res.r_squared > 0.9999
        assert res.model.a == pytest.approx(1000.0, rel=1e-3)
        assert res.model.d == pytest.approx(10.0, rel=1e-2)

    def test_recovers_with_nonlinear_term(self):
        truth = PerfModel(a=2000.0, b=0.02, c=1.3, d=5.0)
        nodes = np.array([2, 8, 32, 128, 512, 2048], float)
        res = fit_perf_model(nodes, truth(nodes))
        assert res.r_squared > 0.999
        # prediction quality matters more than parameter identity
        probe = np.array([4.0, 64.0, 1024.0])
        np.testing.assert_allclose(res.model(probe), truth(probe), rtol=0.05)

    def test_three_points_freezes_b(self):
        truth = PerfModel(a=500.0, d=20.0)
        for nodes, jitter in (
            ([2, 16, 128], [1.0, 1.0, 1.0]),
            # Repeated runs at one node count (BenchmarkData.add) that
            # disagree: still only 3 distinct abscissae, so b stays pinned.
            ([2, 2, 16, 128], [1.005, 0.995, 1.0, 1.0]),
        ):
            nodes = np.array(nodes, float)
            res = fit_perf_model(nodes, truth(nodes) * np.array(jitter))
            assert res.model.b == 0.0
            assert res.r_squared > 0.999

    def test_noisy_fit_reasonable(self):
        truth = PerfModel(a=3000.0, d=15.0)
        nodes = np.array([4, 16, 64, 256, 1024], float)
        y = sample_curve(truth, nodes, noise=0.03, seed=1)
        res = fit_perf_model(nodes, y)
        assert res.r_squared > 0.98
        probe = np.array([32.0, 512.0])
        np.testing.assert_allclose(res.model(probe), truth(probe), rtol=0.15)

    def test_fit_is_deterministic_given_seed(self):
        truth = PerfModel(a=800.0, b=0.01, c=1.2, d=8.0)
        nodes = np.array([2, 8, 32, 128, 512], float)
        y = sample_curve(truth, nodes, noise=0.02, seed=3)
        r1 = fit_perf_model(nodes, y, FitOptions(seed=7))
        r2 = fit_perf_model(nodes, y, FitOptions(seed=7))
        assert r1.model == r2.model

    def test_convex_c_bounds_respected(self):
        truth = PerfModel(a=100.0, b=0.5, c=0.6, d=1.0)  # nonconvex truth
        nodes = np.array([1, 2, 4, 8, 16, 32], float)
        res = fit_perf_model(nodes, truth(nodes))
        assert res.model.c >= 1.0
        assert res.model.is_convex

    def test_unconstrained_c_allowed(self):
        truth = PerfModel(a=100.0, b=0.5, c=0.6, d=1.0)
        nodes = np.array([1, 2, 4, 8, 16, 32, 128], float)
        res = fit_perf_model(nodes, truth(nodes), FitOptions(c_bounds=(0.0, 3.0)))
        assert res.sse <= 1e-6 or res.r_squared > 0.999

    def test_local_optima_recorded(self):
        truth = PerfModel(a=900.0, d=4.0)
        nodes = np.array([1, 4, 16, 64, 256], float)
        res = fit_perf_model(nodes, truth(nodes))
        assert len(res.local_optima) == res.starts_tried >= 2

    def test_relative_loss_handles_wide_dynamic_range(self):
        """With multiplicative noise over 3 decades, the relative loss
        recovers the serial floor far better than the absolute loss."""
        truth = PerfModel(a=100_000.0, d=2.0)
        nodes = np.array([2, 8, 32, 128, 512, 2048, 8192], float)
        y = sample_curve(truth, nodes, noise=0.05, seed=5)
        abs_fit = fit_perf_model(nodes, y, FitOptions(loss="absolute"))
        rel_fit = fit_perf_model(nodes, y, FitOptions(loss="relative"))
        abs_err = abs(abs_fit.model(50_000.0) - truth(50_000.0)) / truth(50_000.0)
        rel_err = abs(rel_fit.model(50_000.0) - truth(50_000.0)) / truth(50_000.0)
        # absolute loss all but ignores the small-time tail (err ~7x here);
        # relative loss pins the serial floor to the right magnitude.
        assert rel_err < 0.25 * abs_err
        assert rel_err < 0.5
        assert rel_fit.model.d == pytest.approx(truth.d, rel=1.0)

    def test_relative_loss_matches_absolute_on_clean_data(self):
        truth = PerfModel(a=900.0, d=7.0)
        nodes = np.array([2, 8, 32, 128, 512], float)
        rel = fit_perf_model(nodes, truth(nodes), FitOptions(loss="relative"))
        probe = np.array([4.0, 64.0, 256.0])
        np.testing.assert_allclose(rel.model(probe), truth(probe), rtol=0.02)

    def test_unknown_loss_rejected(self):
        with pytest.raises(FittingError, match="unknown loss"):
            fit_perf_model([1, 2, 4], [3.0, 2.0, 1.0], FitOptions(loss="huber"))

    @given(
        a=st.floats(50.0, 5000.0),
        d=st.floats(0.5, 50.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_recovery_amdahl(self, a, d):
        truth = PerfModel(a=a, d=d)
        nodes = np.array([1, 4, 16, 64, 256, 1024], float)
        res = fit_perf_model(nodes, truth(nodes))
        probe = np.array([2.0, 32.0, 512.0])
        np.testing.assert_allclose(res.model(probe), truth(probe), rtol=0.02)



def _bits(theta, sse):
    return [float(v).hex() for v in theta] + [float(sse).hex()]


def _fit_bits(res):
    return (
        _bits(res.model.as_tuple(), res.sse), res.iterations, res.starts_tried,
        [_bits(theta, sse) for theta, sse in res.local_optima],
    )


def _per_start_lm(n, y, starts, lo, hi, fit_b, opt, weights=None):
    """Reference: projected LM run one start at a time, in plain 1-D numpy."""

    def residual_jac(theta):
        a, b, c, d = theta
        nc = np.power(n, c)
        r = a / n + b * nc + d - y
        J = np.empty((n.size, 4))
        J[:, 0] = 1.0 / n
        J[:, 1] = nc
        J[:, 2] = b * np.log(n) * nc
        J[:, 3] = 1.0
        if not fit_b:
            J[:, 1] = 0.0
            J[:, 2] = 0.0
        if weights is not None:
            r = r * weights
            J = J * weights[:, None]
        return r, J

    fitted = []
    for theta0 in starts:
        theta = np.clip(theta0, lo, np.where(np.isfinite(hi), hi, theta0))
        if not fit_b:
            theta[1] = 0.0
        r, J = residual_jac(theta)
        sse = float(r @ r)
        lam = opt.lambda0
        iters = 0
        for _ in range(opt.max_iterations):
            iters += 1
            g = J.T @ r
            pg = np.where((theta <= lo) & (g > 0), 0.0, g)
            pg = np.where(np.isfinite(hi) & (theta >= hi) & (pg < 0), 0.0, pg)
            if float(np.abs(pg).max()) <= opt.gtol * (1.0 + sse):
                break
            H = J.T @ J
            for _ in range(30):
                try:
                    delta = np.linalg.solve(H + lam * np.eye(4), -g)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                cand = np.clip(theta + delta, lo, hi)
                if not fit_b:
                    cand[1] = 0.0
                r_new, J_new = residual_jac(cand)
                sse_new = float(r_new @ r_new)
                if sse_new < sse:
                    theta, r, J, sse = cand, r_new, J_new, sse_new
                    lam = max(lam * 0.3, 1e-12)
                    break
                lam *= 10.0
            else:
                break
        fitted.append((theta, sse, iters))
    return fitted


@st.composite
def fit_cases(draw):
    """A noisy sampled curve and the options to fit it with."""
    points = draw(st.sampled_from([3, 4, 5, 7, 19]))   # 4 is the a-fit shape
    nodes = np.round(draw(st.integers(2, 64)) * draw(st.floats(1.5, 3.0)) ** np.arange(points))
    truth = PerfModel(
        a=draw(st.floats(10.0, 1e4)),
        b=draw(st.one_of(st.just(0.0), st.floats(1e-6, 1e-2))),
        c=draw(st.floats(0.5, 2.5)),
        d=draw(st.floats(0.1, 50.0)),
    )
    seed = draw(st.integers(0, 2**16))
    y = sample_curve(truth, nodes, noise=draw(st.floats(0.0, 0.10)), seed=seed)
    opt = FitOptions(
        loss=draw(st.sampled_from(["absolute", "relative"])),
        c_bounds=draw(st.sampled_from([(1.0, 3.0), (0.0, 3.0)])),
        n_starts=draw(st.integers(1, 16)),
        seed=seed,
    )
    return nodes, y, opt


class TestLockstepStarts:
    """All starts of one fit run in lockstep; no start may affect another."""

    @given(case=fit_cases())
    @settings(max_examples=40, deadline=None)
    def test_each_start_fits_as_if_alone(self, case):
        nodes, y, opt = case
        res = fit_perf_model(nodes, y, opt)

        starts = least_squares._starting_points(nodes, y, opt, as_rng(opt.seed))
        assert len(starts) == len(res.local_optima) == res.starts_tried
        total = 0
        for start, (theta, sse) in zip(starts, res.local_optima):
            # The same fit with this one start: a lockstep batch of one.
            with mock.patch.object(least_squares, "_starting_points", return_value=[start]):
                solo = fit_perf_model(nodes, y, opt)
            assert _bits(*solo.local_optima[0]) == _bits(theta, sse)
            total += solo.iterations
        assert res.iterations == total

    @given(case=fit_cases())
    @settings(max_examples=25, deadline=None)
    def test_matches_per_start_loop(self, case):
        """Stacking changes no start's arithmetic: the whole FitResult equals
        the one-start-at-a-time loop's, bit for bit."""
        nodes, y, opt = case
        res = fit_perf_model(nodes, y, opt)
        with mock.patch.object(least_squares, "_lockstep_lm", _per_start_lm):
            ref = fit_perf_model(nodes, y, opt)
        assert _fit_bits(res) == _fit_bits(ref)
