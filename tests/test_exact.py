import dataclasses

import numpy as np
import pytest

from herdfilter.errors import NumericalError
from herdfilter.exact import (
    GaussianBelief,
    _gauss_predict,
    grid_filter,
    jmls_exact_filter,
    kalman_run,
    kalman_update,
)
from herdfilter.models import (
    LgssParams,
    jmls_model,
    lgss_model,
    make_jmls,
    make_lgss,
    make_nonlinear_benchmark,
    simulate,
)

SCALAR = LgssParams(
    trans_mat=[[1.0]], obs_mat=[[1.0]], process_cov=[[1.0]], obs_cov=[[1.0]],
    init_mean=[0.0], init_cov=[[1.0]],
)


def predict_then_update(belief, params, y):
    """Time update through the dynamics, then measurement update."""
    a = np.asarray(params.trans_mat, dtype=float)
    q = np.asarray(params.process_cov, dtype=float)
    pred = GaussianBelief(
        *_gauss_predict(belief.mean, belief.cov, a, q), belief.log_evidence
    )
    return kalman_update(pred, params, y)


class TestKalman:
    def test_frozen_scalar_step(self):
        # predict: N(0, 1+1) = N(0, 2); gain 2/3; posterior N(4/3, 2/3)
        out = predict_then_update(GaussianBelief(np.zeros(1), np.eye(1)), SCALAR, [2.0])
        assert out.mean[0] == pytest.approx(4.0 / 3.0, abs=1e-14)
        assert out.cov[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)
        # evidence increment is the predictive density N(2; 0, 3)
        want = -0.5 * (np.log(2 * np.pi * 3.0) + 4.0 / 3.0)
        assert out.log_evidence == pytest.approx(want, abs=1e-12)

    def test_exact_observation_limit(self):
        params = dataclasses.replace(SCALAR, process_cov=[[0.0]], obs_cov=[[1e-14]])
        out = predict_then_update(GaussianBelief(np.zeros(1), np.eye(1)), params, [0.7])
        assert out.mean[0] == pytest.approx(0.7, abs=1e-6)

    def test_singular_innovation_raises(self):
        params = dataclasses.replace(SCALAR, process_cov=[[0.0]], obs_cov=[[0.0]])
        with pytest.raises(NumericalError):
            predict_then_update(
                GaussianBelief(np.zeros(1), np.zeros((1, 1))), params, [0.0]
            )

    def test_run_first_step_updates_prior_directly(self):
        trace = kalman_run(SCALAR, [[2.0]])
        # prior N(0,1), y=2: gain 1/2, mean 1, cov 1/2 (no time update at t=1)
        np.testing.assert_allclose(trace.pred_means[0], [0.0])
        np.testing.assert_allclose(trace.pred_covs[0], [[1.0]])
        assert trace.filt_means[0, 0] == pytest.approx(1.0)
        assert trace.filt_covs[0, 0, 0] == pytest.approx(0.5)

    def test_covariances_stay_symmetric_psd(self):
        model, params = make_lgss(5, d=4, m=2)
        traj = simulate(model, 100, seed=1)
        trace = kalman_run(params, traj.observations)
        for cov in trace.filt_covs:
            np.testing.assert_array_equal(cov, cov.T)
            assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_batched_predict_matches_rows(self):
        # (B, modes, d): every belief through every mode's dynamics at once
        rng = np.random.default_rng(8)
        b, modes, d = 4, 3, 2
        means = rng.standard_normal((b, d))
        f = rng.standard_normal((b, d, d))
        covs = f @ np.swapaxes(f, 1, 2)
        a = rng.standard_normal((modes, d, d))
        g = rng.standard_normal((modes, d, d))
        q = g @ np.swapaxes(g, 1, 2)
        pm, pc = _gauss_predict(means[:, None], covs[:, None], a, q)
        assert pm.shape == (b, modes, d) and pc.shape == (b, modes, d, d)
        for i in range(b):
            for k in range(modes):
                m, c = _gauss_predict(means[i], covs[i], a[k], q[k])
                assert np.array_equal(pm[i, k], m)
                assert np.array_equal(pc[i, k], c)

    def test_update_then_step_composition(self):
        model, params = make_lgss(6, d=2, m=1)
        traj = simulate(model, 12, seed=2)
        trace = kalman_run(params, traj.observations)
        belief = GaussianBelief(params.init_mean, params.init_cov)
        belief = kalman_update(belief, params, traj.observations[0])
        for y in traj.observations[1:]:
            belief = predict_then_update(belief, params, y)
        np.testing.assert_allclose(belief.mean, trace.filt_means[-1], atol=1e-12)
        assert belief.log_evidence == pytest.approx(trace.log_evidence[-1])


class TestJmlsExact:
    def test_degenerate_switching_equals_plain_kalman(self):
        _, params = make_jmls(21)
        frozen = dataclasses.replace(
            params,
            switch_probs=np.eye(2),
            initial_mode_probs=np.array([1.0, 0.0]),
        )
        traj = simulate(jmls_model(frozen), 8, seed=3)
        res = jmls_exact_filter(frozen, traj.observations)
        lgss = LgssParams(
            trans_mat=params.mode_trans_mats[0],
            obs_mat=params.mode_obs_mats[0],
            process_cov=np.eye(2),
            obs_cov=params.mode_obs_factors[0] @ params.mode_obs_factors[0].T,
            init_mean=params.init_mean,
            init_cov=params.init_cov,
        )
        trace = kalman_run(lgss, traj.observations)
        np.testing.assert_allclose(res.filt_means, trace.filt_means, atol=1e-9)
        np.testing.assert_allclose(res.log_evidence, trace.log_evidence, atol=1e-9)

    def test_branch_count_is_two_to_the_t(self):
        _, params = make_jmls(22)
        traj = simulate(jmls_model(params), 10, seed=4)
        res = jmls_exact_filter(params, traj.observations)
        assert len(res.branches) == 1024
        histories = {b.history for b in res.branches}
        assert len(histories) == 1024
        lw = np.array([b.log_weight for b in res.branches])
        from scipy.special import logsumexp
        assert np.exp(lw - logsumexp(lw)).sum() == pytest.approx(1.0, abs=1e-12)

    def test_cap_enforced(self):
        _, params = make_jmls(23)
        with pytest.raises(ValueError):
            jmls_exact_filter(params, np.zeros((21, 1)))


class TestGridFilter:
    def test_matches_kalman_on_scalar_lgss(self):
        params = LgssParams(
            trans_mat=[[0.7]], obs_mat=[[1.0]], process_cov=[[1.0]],
            obs_cov=[[0.1]], init_mean=[0.0], init_cov=[[1.0]],
        )
        traj = simulate(lgss_model(params), 50, seed=6)
        trace = kalman_run(params, traj.observations)
        sigma = np.sqrt(1.0 / (1.0 - 0.49))
        res = grid_filter(
            lgss_model(params), traj.observations, (-10 * sigma, 10 * sigma, 2001)
        )
        assert not res.boundary_warning
        np.testing.assert_allclose(res.means, trace.filt_means[:, 0], atol=1e-3)
        assert res.log_evidence[-1] == pytest.approx(trace.log_evidence[-1], abs=1e-3)

    def test_densities_integrate_to_one(self):
        model = make_nonlinear_benchmark()
        traj = simulate(model, 20, seed=7)
        res = grid_filter(model, traj.observations, (-40.0, 40.0, 1501))
        dx = res.xs[1] - res.xs[0]
        w = np.full(res.xs.size, dx)
        w[0] = w[-1] = dx / 2
        for row in res.densities:
            assert row @ w == pytest.approx(1.0, abs=1e-6)

    def test_deterministic_exact_concentration(self):
        params = LgssParams(
            trans_mat=[[1.0]], obs_mat=[[1.0]], process_cov=[[0.0]],
            obs_cov=[[0.0]], init_mean=[0.0], init_cov=[[1.0]],
        )
        ys = np.zeros((5, 1))
        res = grid_filter(lgss_model(params), ys, (-1.0, 1.0, 21))
        mid = 10  # grid node exactly at the true state 0.0
        for row in res.densities:
            assert np.argmax(row) == mid
            assert row[mid] > 0.0
            others = np.delete(row, mid)
            np.testing.assert_array_equal(others, np.zeros(20))
        np.testing.assert_allclose(res.means, np.zeros(5), atol=1e-15)

    def test_sharp_observation_between_nodes(self):
        # y lies midway between the nodes 0 and 0.004, 63 observation
        # standard deviations from each: the likelihood underflows exp() at
        # every node, and the trapezoid evidence is still exact
        params = LgssParams(
            trans_mat=[[1.0]], obs_mat=[[1.0]], process_cov=[[1.0]],
            obs_cov=[[1e-9]], init_mean=[0.0], init_cov=[[1.0]],
        )
        res = grid_filter(lgss_model(params), [[0.002]], (-8.0, 8.0, 4001))
        dx = res.xs[1] - res.xs[0]
        log_lik = -0.5 * (np.log(2 * np.pi * 1e-9) + 0.002**2 / 1e-9)
        assert np.exp(log_lik) == 0.0
        prior = np.exp(-0.5 * np.array([0.0, 0.004]) ** 2) / np.sqrt(2 * np.pi)
        want = np.log(dx * prior.sum()) + log_lik
        assert res.log_evidence[0] == pytest.approx(want, rel=1e-12)
        assert res.means[0] == pytest.approx(0.002, abs=1e-5)

    def test_boundary_warning_fires_on_tiny_grid(self):
        model = make_nonlinear_benchmark()
        traj = simulate(model, 10, seed=8)
        res = grid_filter(model, traj.observations, (-0.5, 0.5, 51))
        assert res.boundary_warning

    def test_rejects_multivariate_models(self):
        model, _ = make_lgss(9, d=2, m=1)
        with pytest.raises(ValueError):
            grid_filter(model, np.zeros((3, 1)), (-1, 1, 11))
