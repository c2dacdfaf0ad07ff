import dataclasses

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from herdfilter.kernels import GaussianMixture, safe_cholesky
from herdfilter.models import (
    LgssParams,
    jmls_model,
    lgss_model,
    make_clgss,
    make_jmls,
    make_lgss,
    make_nonlinear_benchmark,
    simulate,
)


def scalar_lgss(a=0.7, q=1.0, r=0.1, x1_var=1.0):
    return lgss_model(
        LgssParams(
            trans_mat=[[a]], obs_mat=[[1.0]], process_cov=[[q]], obs_cov=[[r]],
            init_mean=[0.0], init_cov=[[x1_var]],
        )
    )


class TestLgss:
    def test_transition_is_single_gaussian(self):
        model, params = make_lgss(3, d=3, m=2)
        x = np.array([0.4, -1.0, 2.0])
        parts = model.transition_parts(x[None], 5)
        assert parts.comp_weights[0].shape == (1,)
        np.testing.assert_allclose(parts.means[0, 0], params.trans_mat @ x)
        np.testing.assert_array_equal(parts.cov_blocks[parts.cov_index[0]], np.eye(3))

    def test_log_likelihood_matches_mvn(self):
        model, params = make_lgss(4, d=3, m=2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(3)
            y = rng.standard_normal(2)
            want = multivariate_normal.logpdf(
                y, mean=params.obs_mat @ x, cov=params.obs_cov
            )
            got = model.log_likelihood_batch(x[None], y, 1)[0]
            assert got == pytest.approx(want, rel=1e-12)

    def test_generated_system_properties(self):
        for seed in range(6):
            model, params = make_lgss(seed, d=3, m=1)
            eigs = np.linalg.eigvals(params.trans_mat)
            assert np.abs(eigs).max() < 0.9 + 1e-12
            obs = np.vstack([
                params.obs_mat,
                params.obs_mat @ params.trans_mat,
                params.obs_mat @ params.trans_mat @ params.trans_mat,
            ])
            assert np.linalg.matrix_rank(obs) == 3
        np.testing.assert_array_equal(params.process_cov, np.eye(3))
        np.testing.assert_array_equal(params.obs_cov, [[0.1]])

    def test_batch_agrees_with_scalar(self):
        # each row of a batch equals the same point evaluated on its own
        model, _ = make_lgss(9, d=2, m=2)
        pts = np.random.default_rng(1).standard_normal((7, 2))
        y = np.array([0.3, -0.2])
        batch = model.log_likelihood_batch(pts, y, 2)
        for i, x in enumerate(pts):
            assert batch[i] == pytest.approx(model.log_likelihood_batch(x[None], y, 2)[0])

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            make_lgss(0, d=0, m=1)


class TestJmls:
    def test_transition_mixture_weights(self):
        model, params = make_jmls(11)
        x = np.array([1.0, -0.5])
        for mode in (0, 1):
            parts = model.transition_parts(x[None], 1, modes=np.array([mode]))
            weights = parts.comp_weights[0]
            np.testing.assert_allclose(
                np.sort(weights), [0.3, 0.7], atol=1e-15
            )
            np.testing.assert_array_equal(
                weights, params.switch_probs[mode]
            )
            for new_mode in (0, 1):
                np.testing.assert_allclose(
                    parts.means[0, new_mode], params.mode_trans_mats[new_mode] @ x
                )

    def test_identity_switching_never_moves(self):
        _, params = make_jmls(12)
        frozen = dataclasses.replace(
            params,
            switch_probs=np.eye(2),
            initial_mode_probs=np.array([0.0, 1.0]),
        )
        traj = simulate(jmls_model(frozen), 200, seed=5)
        assert np.all(traj.modes == 1)

    def test_mode_occupancy_matches_stationary(self):
        model, _ = make_jmls(13)
        traj = simulate(model, 100_000, seed=7)
        freq = np.bincount(traj.modes, minlength=2) / traj.modes.size
        np.testing.assert_allclose(freq, [0.5, 0.5], atol=0.01)

    def test_likelihood_uses_the_particle_mode(self):
        model, params = make_jmls(14)
        x = np.array([0.3, 0.8])
        y = np.array([0.1])
        vals = [
            model.log_likelihood_batch(x[None], y, 1, modes=np.array([k]))[0]
            for k in (0, 1)
        ]
        want = [
            multivariate_normal.logpdf(
                y, mean=params.mode_obs_mats[k] @ x, cov=[[0.1]]
            )
            for k in (0, 1)
        ]
        np.testing.assert_allclose(vals, want, rtol=1e-12)
        with pytest.raises(ValueError):
            model.log_likelihood_batch(x[None], y, 1)

    def test_mode_eigenvalues_stable(self):
        _, params = make_jmls(15)
        for a in params.mode_trans_mats:
            assert np.abs(np.linalg.eigvals(a)).max() < 0.9 + 1e-12


class TestNonlinearBenchmark:
    def test_transition_mean_first_step(self):
        model = make_nonlinear_benchmark()
        parts = model.transition_parts(np.array([[0.0]]), 1)
        assert parts.means[0, 0, 0] == pytest.approx(8.0 * np.cos(1.2), abs=0.0)
        assert parts.means[0, 0, 0] == pytest.approx(2.8989, abs=1e-4)
        assert parts.cov_blocks[parts.cov_index[0], 0, 0] == 1.0

    def test_transition_mean_time_zero(self):
        model = make_nonlinear_benchmark()
        parts = model.transition_parts(np.array([[1.0]]), 0)
        assert parts.means[0, 0, 0] == 21.0

    def test_log_likelihood_zero_residual(self):
        model = make_nonlinear_benchmark()
        got = model.log_likelihood_batch(np.array([[2.0]]), 0.2, 3)[0]
        assert got == pytest.approx(-0.5 * np.log(2.0 * np.pi), abs=1e-15)


def _categorical(rng, probs):
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return int(np.searchsorted(cum, rng.random(), side="right"))


def scalar_simulate(T, seed, initial, mode_probs, observe, advance):
    """simulate as a loop over one (d,) state and one int mode at a time.

    observe(x, k, rng) draws y_t; advance(x, k, t, rng) draws (x_{t+1},
    k_{t+1}). The draws are the same, in the same order, as simulate's.
    """
    rng = np.random.default_rng(seed)
    x = initial.sample(1, rng)[0][0]
    k = None if mode_probs is None else _categorical(rng, mode_probs)
    states, obs, modes = [], [], []
    for t in range(1, T + 1):
        states.append(x)
        obs.append(observe(x, k, rng))
        modes.append(k)
        if t < T:
            x, k = advance(x, k, t, rng)
    return np.array(states), np.array(obs), modes


def lgss_reference(params, T, seed):
    a, c = params.trans_mat, params.obs_mat
    q_chol = safe_cholesky(params.process_cov)
    r_chol = safe_cholesky(params.obs_cov)

    def observe(x, k, rng):
        return c @ x + r_chol @ rng.standard_normal(c.shape[0])

    def advance(x, k, t, rng):
        _categorical(rng, [1.0])  # the one transition component
        return (x[None] @ a.T)[0] + q_chol @ rng.standard_normal(x.shape[0]), None

    initial = GaussianMixture([1.0], params.init_mean[None], params.init_cov[None])
    return scalar_simulate(T, seed, initial, None, observe, advance)


def jmls_reference(params, T, seed):
    a, f = params.mode_trans_mats, params.mode_process_factors
    c, g = params.mode_obs_mats, params.mode_obs_factors

    def observe(x, k, rng):
        return c[k] @ x + safe_cholesky(g[k] @ g[k].T) @ rng.standard_normal(c.shape[1])

    def advance(x, k, t, rng):
        j = _categorical(rng, params.switch_probs[k])
        mean = np.einsum("kij,nj->nki", a, x[None])[0, j]
        return mean + safe_cholesky(f[j] @ f[j].T) @ rng.standard_normal(x.shape[0]), j

    initial = GaussianMixture([1.0], params.init_mean[None], params.init_cov[None])
    return scalar_simulate(T, seed, initial, params.initial_mode_probs, observe, advance)


def nonlinear_reference(T, seed):
    def observe(x, k, rng):
        return np.array([0.05 * float(x[0]) ** 2 + rng.standard_normal()])

    def advance(x, k, t, rng):
        _categorical(rng, [1.0])
        mean = 0.5 * x + 25.0 * x / (1.0 + x * x) + 8.0 * np.cos(1.2 * t)
        return mean + rng.standard_normal(1), None

    initial = GaussianMixture([1.0], [[0.0]], [[[1.0]]])
    return scalar_simulate(T, seed, initial, None, observe, advance)


class TestSimulate:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_reference(self, seed):
        cases = []
        for d, m in [(1, 1), (3, 1), (2, 2), (4, 3)]:
            model, params = make_lgss(seed, d=d, m=m)
            cases.append((model, lgss_reference(params, 50, seed + 10)))
        model, params = make_jmls(seed)
        cases.append((model, jmls_reference(params, 50, seed + 10)))
        cases.append((make_nonlinear_benchmark(), nonlinear_reference(50, seed + 10)))
        for model, (states, obs, modes) in cases:
            traj = simulate(model, 50, seed + 10)
            np.testing.assert_array_equal(traj.states, states)
            np.testing.assert_array_equal(traj.observations, obs)
            if model.n_modes:
                np.testing.assert_array_equal(traj.modes, modes)

    def test_constant_trajectory(self):
        model = lgss_model(
            LgssParams(
                trans_mat=np.eye(2), obs_mat=np.eye(2),
                process_cov=np.zeros((2, 2)), obs_cov=np.zeros((2, 2)),
                init_mean=[1.0, -2.0], init_cov=np.zeros((2, 2)),
            )
        )
        traj = simulate(model, 20, seed=0)
        np.testing.assert_array_equal(traj.states, np.tile([1.0, -2.0], (20, 1)))
        np.testing.assert_array_equal(traj.observations, traj.states)

    def test_output_lengths(self):
        model, _ = make_lgss(1, d=2, m=1)
        for T in (1, 7):
            traj = simulate(model, T, seed=3)
            assert traj.states.shape == (T, 2)
            assert traj.observations.shape == (T, 1)

    def test_determinism(self):
        model, _ = make_jmls(2)
        a = simulate(model, 50, seed=42)
        b = simulate(model, 50, seed=42)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.observations, b.observations)
        np.testing.assert_array_equal(a.modes, b.modes)

    def test_scalar_stationary_variance(self):
        a = 0.7
        traj = simulate(scalar_lgss(a=a), 100_000, seed=11)
        # Lyapunov: P = a^2 P + 1
        want = 1.0 / (1.0 - a * a)
        assert np.var(traj.states) == pytest.approx(want, rel=0.05)

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate(scalar_lgss(), 0, seed=0)


class TestClgss:
    def test_conditional_covariances_psd(self):
        _, params = make_clgss(0, coupled=True)
        assert np.linalg.eigvalsh(params.lin_process_cov).min() >= 0.0
        xs = np.linspace(-3, 3, 7)
        a = params.lin_trans(xs)
        assert a.shape == (7, 2, 2)
        c = params.lin_obs(xs)
        assert c.shape == (7, 1, 2)

    @pytest.mark.parametrize("coupled", [True, False])
    def test_callables_match_stacked_per_point_results(self, coupled):
        _, params = make_clgss(0, coupled=coupled)
        xs = np.random.default_rng(2).normal(scale=3.0, size=9)
        for name, call in [
            ("drift", lambda x: params.drift(x, 4)),
            ("lin_trans", params.lin_trans),
            ("lin_obs", params.lin_obs),
            ("obs_offset", params.obs_offset),
        ]:
            batch = call(xs)
            stacked = np.stack([call(xs[i:i + 1])[0] for i in range(xs.size)])
            assert batch.shape == stacked.shape, name
            np.testing.assert_array_equal(batch, stacked, err_msg=name)

    def test_collapse_x_part_is_deterministic(self):
        model, params = make_clgss(0, coupled=False)
        assert not params.coupled
        traj = simulate(model, 10, seed=9)
        want = params.init_x_mean * 0.9 ** np.arange(10)
        np.testing.assert_allclose(traj.states[:, 0], want, atol=1e-14)

    def test_coupled_simulation_runs(self):
        model, _ = make_clgss(0, coupled=True)
        traj = simulate(model, 30, seed=4)
        assert traj.states.shape == (30, 3)
        assert np.all(np.isfinite(traj.states))
        assert np.all(np.isfinite(traj.observations))


BUILDERS = {
    "lgss": lambda: make_lgss(3, d=3, m=2)[0],
    "jmls": lambda: make_jmls(11)[0],
    "nonlinear": make_nonlinear_benchmark,
    "clgss": lambda: make_clgss(0, coupled=True)[0],
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_observation_draw_is_a_batch_of_one_row_draws(name):
    model = BUILDERS[name]()
    n = 7
    pts = np.random.default_rng(3).standard_normal((n, model.dim_x))
    modes = np.arange(n) % 2 if model.n_modes else None
    batch = model.sample_observation_batch(pts, 4, np.random.default_rng(8), modes)
    assert batch.shape == (n, model.dim_y)
    rng = np.random.default_rng(8)
    rows = [
        model.sample_observation_batch(
            pts[i:i + 1], 4, rng, None if modes is None else modes[i:i + 1]
        )
        for i in range(n)
    ]
    assert all(row.shape == (1, model.dim_y) for row in rows)
    np.testing.assert_allclose(np.concatenate(rows), batch, rtol=1e-12)
    if model.n_modes:
        with pytest.raises(ValueError):
            model.sample_observation_batch(pts, 4, rng)
