import dataclasses
import itertools

import numpy as np
import pytest
from scipy.linalg import block_diag

from herdfilter import harness
from herdfilter.errors import DegenerateFilterError
from herdfilter.exact import jmls_exact_filter, kalman_run
from herdfilter.filters import (
    MC_MULTINOMIAL,
    MC_STRATIFIED,
    QMC_SOBOL,
    SamplerKind,
    TransitionMixture,
    build_transition_mixture,
    pf_step,
    run_filter,
    run_rbpf,
    skh,
)
from herdfilter.fw_quad import FwVariant, fw_quad
from herdfilter.kernels import (
    GaussianMixture,
    KernelConfig,
    WeightedParticleSet,
    mmd,
)
from herdfilter.models import (
    LgssParams,
    lgss_model,
    make_clgss,
    make_jmls,
    make_lgss,
    simulate,
)
from herdfilter.qmc import SobolStream, inverse_normal_cdf, qmc_sample_mixture

K1 = KernelConfig(sigma2=1.0, dim=1)
K2 = KernelConfig(sigma2=1.0, dim=2)

ALL_SAMPLERS = [
    MC_MULTINOMIAL,
    MC_STRATIFIED,
    QMC_SOBOL,
    skh(FwVariant.FW, 300),
    skh(FwVariant.FW_LS, 300),
    skh(FwVariant.FCFW, 300),
]


def scalar_lgss(a=0.8, q=0.5, r=0.4):
    return LgssParams(
        trans_mat=[[a]], obs_mat=[[1.0]], process_cov=[[q]],
        obs_cov=[[r]], init_mean=[0.0], init_cov=[[1.0]],
    )


class TestSamplerKind:
    def test_labels(self):
        assert MC_MULTINOMIAL.label == "mc_multinomial"
        assert skh(FwVariant.FW_LS, 10).label == "skh_fw_ls"

    def test_skh_requires_configuration(self):
        with pytest.raises(ValueError):
            SamplerKind("skh")
        with pytest.raises(ValueError):
            SamplerKind("skh", variant=FwVariant.FW, m_search=0)

    def test_plain_samplers_reject_configuration(self):
        with pytest.raises(ValueError):
            SamplerKind("mc_multinomial", m_search=5)
        with pytest.raises(ValueError):
            SamplerKind("qqmc")


class TestBuildTransitionMixture:
    def test_single_particle_single_gaussian(self):
        model = lgss_model(scalar_lgss())
        pset = WeightedParticleSet([[1.5]], [1.0])
        tm = build_transition_mixture(pset, model, 1, [0.3])
        assert tm.mixture.n_components == 1
        direct = model.transition_parts(np.array([[1.5]]), 1)
        np.testing.assert_allclose(tm.mixture.means, direct.means[0])
        np.testing.assert_allclose(tm.mixture.covs, direct.cov_blocks)
        assert tm.mixture.weights[0] == 1.0
        assert tm.ancestors[0] == 0

    def test_constant_likelihood_keeps_weights(self):
        # zero readout matrix makes the observation density flat in x
        params = LgssParams(
            trans_mat=[[0.8]], obs_mat=[[0.0]], process_cov=[[1.0]],
            obs_cov=[[1.0]], init_mean=[0.0], init_cov=[[1.0]],
        )
        model = lgss_model(params)
        pset = WeightedParticleSet(np.linspace(-2, 2, 8)[:, None], np.full(8, 0.125))
        tm = build_transition_mixture(pset, model, 2, [0.7])
        np.testing.assert_allclose(tm.mixture.weights, np.full(8, 0.125))
        np.testing.assert_allclose(tm.posterior.weights, np.full(8, 0.125))

    def test_w_hat_direct_summation_oracle(self):
        model, _ = make_jmls(12)
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 2))
        w = rng.random(20)
        w /= w.sum()
        modes = rng.integers(0, 2, size=20)
        pset = WeightedParticleSet(pts, w, modes=modes)
        y = [0.4]
        tm = build_transition_mixture(pset, model, 3, y)
        direct = sum(
            w[i] * np.exp(model.log_likelihood_batch(pts[i:i + 1], y, 3, modes[i:i + 1])[0])
            for i in range(20)
        )
        assert np.exp(tm.log_w_hat) == pytest.approx(direct, rel=1e-12)
        np.testing.assert_allclose(
            tm.posterior.weights.sum(), 1.0, atol=1e-12
        )

    def test_switching_bookkeeping(self):
        model, params = make_jmls(12)
        pts = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
        modes = np.array([0, 1, 0])
        pset = WeightedParticleSet(pts, np.full(3, 1 / 3), modes=modes)
        tm = build_transition_mixture(pset, model, 1, [0.0])
        assert tm.mixture.n_components == 6
        np.testing.assert_array_equal(tm.ancestors, [0, 0, 1, 1, 2, 2])
        np.testing.assert_array_equal(tm.new_modes, [0, 1, 0, 1, 0, 1])
        # component weights stack posterior weight times the switch row
        pi = params.switch_probs
        expect = (tm.posterior.weights[:, None] * pi[modes]).reshape(-1)
        np.testing.assert_allclose(tm.mixture.weights, expect)

    def test_degenerate_likelihood_raises(self):
        # an exact observation that no particle matches has zero density
        # at every particle
        params = LgssParams(
            trans_mat=[[1.0]], obs_mat=[[1.0]], process_cov=[[1.0]],
            obs_cov=[[0.0]], init_mean=[0.0], init_cov=[[1.0]],
        )
        model = lgss_model(params)
        pset = WeightedParticleSet([[0.0], [0.1]], [0.5, 0.5])
        with pytest.raises(DegenerateFilterError) as err:
            build_transition_mixture(pset, model, 4, [1.0])
        assert err.value.t == 4

    def test_far_observation_keeps_finite_log_weights(self):
        # every likelihood underflows exp(); the weights and the evidence
        # come out of log space intact
        params = LgssParams(
            trans_mat=[[1.0]], obs_mat=[[1.0]], process_cov=[[1.0]],
            obs_cov=[[1e-6]], init_mean=[0.0], init_cov=[[1.0]],
        )
        model = lgss_model(params)
        pset = WeightedParticleSet([[0.0], [0.1]], [0.5, 0.5])
        tm = build_transition_mixture(pset, model, 4, [1e6])
        log_o = model.log_likelihood_batch(pset.points, [1e6], 4)
        assert np.all(np.exp(log_o) == 0.0)
        np.testing.assert_array_equal(tm.posterior.weights, [0.0, 1.0])
        want = np.log(0.5) + log_o[1] + np.log1p(np.exp(log_o[0] - log_o[1]))
        assert tm.log_w_hat == pytest.approx(want, rel=1e-15)
        assert np.exp(tm.log_w_hat) == 0.0
        # the trace keeps the increment in log space, where exp would read 0
        tr = run_filter(model, [[1e6]], MC_STRATIFIED, 10, K1, seed=0)
        assert np.isfinite(tr.log_w_hats[0]) and tr.log_w_hats[0] < -745.0
        np.testing.assert_array_equal(tr.log_evidence, tr.log_w_hats)


def _spread_mixture():
    # widely separated tight components so the generating component of any
    # draw is identifiable from the point itself
    means = np.array([[0.0], [100.0], [200.0], [300.0]])
    mix = GaussianMixture(
        [0.4, 0.3, 0.2, 0.1], means, np.full((1, 1, 1), 1e-4)
    )
    return TransitionMixture(
        mix,
        ancestors=np.array([7, 5, 3, 1]),
        new_modes=np.array([1, 0, 1, 0]),
    )


class TestPfStep:
    def test_stratified_integer_weights_exact(self):
        mix = GaussianMixture(
            [0.2, 0.3, 0.5], [[-5.0], [0.0], [5.0]], np.full((1, 1, 1), 1e-6)
        )
        tm = TransitionMixture(mix, np.arange(3))
        for seed in range(5):
            out, _ = pf_step(MC_STRATIFIED, tm, 10, K1, seed)
            counts = np.bincount(out.ancestry, minlength=3)
            np.testing.assert_array_equal(counts, [2, 3, 5])

    def test_stratified_floor_ceil_bounds(self):
        rng = np.random.default_rng(9)
        for trial in range(200):
            kk = int(rng.integers(2, 30))
            w = rng.random(kk)
            w /= w.sum()
            mix = GaussianMixture(w, np.arange(kk, dtype=float)[:, None],
                                  np.full((1, 1, 1), 1e-8))
            tm = TransitionMixture(mix, np.arange(kk))
            n = int(rng.integers(1, 200))
            out, _ = pf_step(MC_STRATIFIED, tm, n, K1, int(rng.integers(1 << 30)))
            counts = np.bincount(out.ancestry, minlength=kk)
            assert (counts >= np.floor(n * w)).all()
            assert (counts <= np.ceil(n * w)).all()

    def test_multinomial_counts_match_binomial_oracle(self):
        w = np.array([0.5, 0.3, 0.2])
        mix = GaussianMixture(w, [[0.0], [1.0], [2.0]], np.full((1, 1, 1), 1e-6))
        tm = TransitionMixture(mix, np.arange(3))
        reps, n = 2000, 100
        counts = np.zeros(3)
        for seed in range(reps):
            out, _ = pf_step(MC_MULTINOMIAL, tm, n, K1, seed)
            counts += np.bincount(out.ancestry, minlength=3)
        total = reps * n
        sigma = np.sqrt(total * w * (1 - w))
        assert (np.abs(counts - total * w) <= 4 * sigma).all()

    def test_skh_fw_uniform_weights(self):
        rng = np.random.default_rng(3)
        mix = GaussianMixture(
            np.full(5, 0.2), rng.normal(size=(5, 2)), np.eye(2)[None]
        )
        tm = TransitionMixture(mix, np.arange(5))
        out, err = pf_step(skh(FwVariant.FW, 500), tm, 30, K2, 0)
        assert out.n == 30
        np.testing.assert_array_equal(out.weights, np.full(30, 1 / 30))
        assert err > 0.0

    def test_component_relabeling(self, monkeypatch):
        tm = _spread_mixture()
        built = []
        check = WeightedParticleSet.__post_init__

        def recording(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(WeightedParticleSet, "__post_init__", recording)
        for sampler in [MC_MULTINOMIAL, MC_STRATIFIED, QMC_SOBOL,
                        skh(FwVariant.FW, 200)]:
            built.clear()
            out, _ = pf_step(sampler, tm, 25, K1, 11)
            comp = np.rint(out.points[:, 0] / 100).astype(int)
            np.testing.assert_array_equal(out.ancestry, tm.ancestors[comp])
            np.testing.assert_array_equal(out.modes, tm.new_modes[comp])
            # the drawn set is relabelled in place, not built and checked again
            assert len(built) == 1 and built[0] is out

    def test_single_component_collapses_ancestry(self):
        mix = GaussianMixture([1.0], [[2.0]], [[[0.5]]])
        tm = TransitionMixture(mix, np.array([4]))
        out, _ = pf_step(MC_MULTINOMIAL, tm, 8, K1, 0)
        np.testing.assert_array_equal(out.ancestry, np.full(8, 4))

    def test_qmc_consumes_shared_stream(self):
        mix = GaussianMixture([1.0], [[0.0]], [[[1.0]]])
        tm = TransitionMixture(mix, np.zeros(1, dtype=np.intp))
        stream = SobolStream(2)
        a, _ = pf_step(QMC_SOBOL, tm, 4, K1, 0, stream=stream)
        assert stream.index == 4
        b, _ = pf_step(QMC_SOBOL, tm, 4, K1, 0, stream=stream)
        assert stream.index == 8
        assert not np.allclose(a.points, b.points)

    def test_permuting_histories_keeps_fw_error(self):
        # relabeled ancestries describe permuted particle histories; the
        # kernel never sees them, so the quadrature is untouched
        tm = _spread_mixture()
        perm_tm = TransitionMixture(
            tm.mixture, tm.ancestors[::-1].copy(), tm.new_modes[::-1].copy()
        )
        sampler = skh(FwVariant.FW_LS, 150)
        out_a, err_a = pf_step(sampler, tm, 12, K1, 5)
        out_b, err_b = pf_step(sampler, perm_tm, 12, K1, 5)
        assert err_a == err_b
        np.testing.assert_array_equal(out_a.points, out_b.points)

    def test_permuting_mixture_components_keeps_fw_error(self):
        rng = np.random.default_rng(8)
        w = rng.random(12)
        w /= w.sum()
        means = rng.normal(size=(12, 2))
        covs = np.stack([np.eye(2) * v for v in rng.uniform(0.5, 2.0, 12)])
        mix = GaussianMixture(w, means, covs)
        perm = rng.permutation(12)
        mix_p = GaussianMixture(w[perm], means[perm], covs[perm])
        pool = rng.normal(size=(300, 2))
        _, err = fw_quad(mix, K2, 20, 300, variant=FwVariant.FW_LS, pool=pool)
        _, err_p = fw_quad(mix_p, K2, 20, 300, variant=FwVariant.FW_LS, pool=pool)
        assert err == pytest.approx(err_p, abs=1e-12)


def _draw_mixtures():
    rng = np.random.default_rng(17)
    w = rng.random(6) + 0.05
    w /= w.sum()
    means = rng.normal(size=(6, 2))
    # two isotropic blocks shared by alternating components
    shared = GaussianMixture(
        w, means, [0.5 * np.eye(2), 2.0 * np.eye(2)], np.tile([0, 1], 3)
    )
    g = rng.normal(size=(6, 2, 2))
    full = GaussianMixture(w[::-1], means, g @ np.swapaxes(g, 1, 2) + 0.1 * np.eye(2))
    # one full, non-diagonal 3-d block shared by every component
    h = rng.normal(size=(3, 3))
    one_block = GaussianMixture(w, rng.normal(size=(6, 3)), h @ h.T + 0.1 * np.eye(3))
    assert one_block.covs.shape[0] == 1 and np.all(one_block.covs[0] != 0.0)
    # 100 components on each kind of block: one isotropic, the CLGSS joint
    # model's singular diag(0, 0.1, 0.1), one isotropic per component, and
    # one full; -0.0 means check that a zero variance leaves +0.0 behind
    w = rng.dirichlet(np.full(100, 0.5))
    means = rng.normal(size=(100, 3))
    means[::4, 0] = -0.0
    parts = make_clgss(0, coupled=False)[0].transition_parts(means[:4], 1)
    clgss_block = parts.cov_blocks[parts.cov_index[0]]
    assert np.array_equal(clgss_block, np.diag([0.0, 0.1, 0.1]))
    h = rng.normal(size=(3, 3))
    kinds = [
        GaussianMixture(w, means, 0.3 * np.eye(3)),
        GaussianMixture(w, means, clgss_block),
        GaussianMixture(w, means, rng.uniform(0.2, 2.0, 100)[:, None, None] * np.eye(3)),
        GaussianMixture(w, means, h @ h.T + 0.1 * np.eye(3)),
    ]
    assert [m._diag_sd is None for m in kinds] == [False, False, False, True]
    return [shared, full, one_block, *kinds]


def _inline_draw(mix, u, z):
    """The component draw written out: inverse CDF, then covariance factor."""
    cum = np.cumsum(mix.weights)
    cum[-1] = 1.0
    comps = np.searchsorted(cum, u, side="right")
    factors = mix.chol_factors[mix.cov_map[comps]]
    return mix.means[comps] + np.einsum("nij,nj->ni", factors, z), comps


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# 40 draws take the binary search of _inverse_cdf, 4096 its indexed search
DRAW_SIZES = (40, 4096)


class TestMixtureDraw:
    """Every sampler's points and components, bit for bit, against the formula."""

    def test_multinomial(self):
        for mix, n in itertools.product(_draw_mixtures(), DRAW_SIZES):
            pts, comps = mix.sample(n, np.random.default_rng(3))
            rng = np.random.default_rng(3)
            u = rng.random(n)
            z = rng.standard_normal((n, mix.dim))
            want_pts, want_comps = _inline_draw(mix, u, z)
            assert _same_bits(pts, want_pts)
            assert np.array_equal(comps, want_comps)

    def test_stratified(self):
        for mix, n in itertools.product(_draw_mixtures(), DRAW_SIZES):
            tm = TransitionMixture(mix, np.arange(mix.n_components))
            out, _ = pf_step(MC_STRATIFIED, tm, n, KernelConfig(1.0, mix.dim), 5)
            rng = np.random.default_rng(5)
            u = (np.arange(n) + rng.random()) / n
            z = rng.standard_normal((n, mix.dim))
            want_pts, want_comps = _inline_draw(mix, u, z)
            assert _same_bits(out.points, want_pts)
            assert np.array_equal(out.ancestry, want_comps)

    def test_qmc(self):
        for mix, n in itertools.product(_draw_mixtures(), DRAW_SIZES):
            d = mix.dim
            out = qmc_sample_mixture(mix, n, SobolStream(d + 1))
            u = SobolStream(d + 1).take(n)
            want_pts, want_comps = _inline_draw(mix, u[:, d], inverse_normal_cdf(u[:, :d]))
            assert _same_bits(out.points, want_pts)
            assert np.array_equal(out.ancestry, want_comps)


class TestRunFilter:
    def test_deterministic_initial_concentrates(self):
        params = LgssParams(
            trans_mat=[[0.5]], obs_mat=[[1.0]], process_cov=[[1.0]],
            obs_cov=[[1.0]], init_mean=[2.0], init_cov=[[0.0]],
        )
        model = lgss_model(params)
        for sampler in ALL_SAMPLERS:
            tr = run_filter(model, [[1.9]], sampler, 20, K1, seed=0)
            np.testing.assert_array_equal(
                tr.predictive[0].points, np.full((tr.predictive[0].n, 1), 2.0)
            )
            assert tr.filtered_means[0, 0] == pytest.approx(2.0)
            want = model.log_likelihood_batch(np.array([[2.0]]), [1.9], 1)[0]
            assert tr.log_w_hats[0] == pytest.approx(want, abs=1e-12)

    def test_posterior_reweighting_matches_template(self):
        model, _ = make_lgss(6, d=2, m=1)
        traj = simulate(model, 6, seed=1)
        tr = run_filter(model, traj.observations, MC_MULTINOMIAL, 50, K2, seed=2)
        for t in range(1, 7):
            pred = tr.predictive[t - 1]
            log_o = model.log_likelihood_batch(pred.points, traj.observations[t - 1], t)
            un = pred.weights * np.exp(log_o)
            np.testing.assert_allclose(np.exp(tr.log_w_hats[t - 1]), un.sum(), rtol=1e-12)
            np.testing.assert_allclose(
                tr.posterior[t - 1].weights, un / un.sum(), rtol=1e-10
            )
        np.testing.assert_array_equal(tr.log_evidence, np.cumsum(tr.log_w_hats))
        np.testing.assert_array_equal(tr.fw_errors, np.zeros(6))
        np.testing.assert_array_equal(tr.effective_n, np.full(6, 50))

    def test_filtered_means_track_kalman(self):
        model, params = make_lgss(17, d=2, m=1)
        traj = simulate(model, 20, seed=4)
        ref = kalman_run(params, traj.observations)
        ests = np.array([
            run_filter(model, traj.observations, MC_MULTINOMIAL, 10_000, K2,
                       seed=s, keep_particles=False).filtered_means
            for s in range(6)
        ])
        spread = ests.std(axis=0, ddof=1)
        dev = np.abs(ests - ref.filt_means[None])
        assert (dev <= 4.0 * spread[None]).all()

    def test_log_evidence_tracks_kalman(self):
        model, params = make_lgss(23, d=2, m=1)
        traj = simulate(model, 50, seed=5)
        ref = kalman_run(params, traj.observations)
        for sampler in [MC_MULTINOMIAL, MC_STRATIFIED, QMC_SOBOL]:
            tr = run_filter(model, traj.observations, sampler, 10_000, K2,
                            seed=0, keep_particles=False)
            assert abs(tr.log_evidence[-1] - ref.log_evidence[-1]) <= 0.5

    def test_normalization_estimate_unbiased(self):
        params = scalar_lgss()
        model = lgss_model(params)
        traj = simulate(model, 5, seed=11)
        ref = kalman_run(params, traj.observations)
        z_true = np.exp(ref.log_evidence[-1])
        for sampler in [MC_MULTINOMIAL, MC_STRATIFIED]:
            zs = np.array([
                np.exp(run_filter(model, traj.observations, sampler, 20, K1,
                                  seed=s, keep_particles=False).log_evidence[-1])
                for s in range(500)
            ])
            se = zs.std(ddof=1) / np.sqrt(len(zs))
            assert abs(zs.mean() - z_true) <= 3.0 * se

    def test_skh_mmd_to_exact_predictive_decreases(self):
        model, params = make_lgss(2, d=3, m=1)
        traj = simulate(model, 10, seed=3)
        ref = kalman_run(params, traj.observations)
        p_t = GaussianMixture(
            [1.0], ref.pred_means[-1][None], ref.pred_covs[-1][None]
        )
        k3 = KernelConfig(sigma2=1.0, dim=3)
        medians = []
        for n in [20, 50, 100, 200]:
            vals = [
                mmd(p_t, run_filter(model, traj.observations,
                                    skh(FwVariant.FW, 1000), n, k3,
                                    seed=s).predictive[-1], k3)
                for s in range(10)
            ]
            medians.append(np.median(vals))
        assert all(b < a for a, b in zip(medians, medians[1:]))

    def test_jmls_matches_exact_branch_filter(self):
        model, params = make_jmls(31)
        traj = simulate(model, 6, seed=2)
        exact = jmls_exact_filter(params, traj.observations)
        ests = np.array([
            run_filter(model, traj.observations, MC_MULTINOMIAL, 40_000, K2,
                       seed=s, keep_particles=False).filtered_means[-1]
            for s in range(5)
        ])
        se = ests.std(axis=0, ddof=1) / np.sqrt(5)
        assert (np.abs(ests.mean(axis=0) - exact.filt_means[-1]) <= 4 * se).all()

    def test_degenerate_observation_aborts_with_timestep(self):
        # the state stays at 0 exactly and is observed exactly; y_3 = 1 has
        # zero density at every particle
        params = LgssParams(
            trans_mat=[[0.9]], obs_mat=[[1.0]], process_cov=[[0.0]],
            obs_cov=[[0.0]], init_mean=[0.0], init_cov=[[0.0]],
        )
        model = lgss_model(params)
        ys = np.array([[0.0], [0.0], [1.0], [0.0]])
        with pytest.raises(DegenerateFilterError) as err:
            run_filter(model, ys, MC_MULTINOMIAL, 30, K1, seed=0)
        assert err.value.t == 3

    @pytest.mark.parametrize(
        "sampler", [MC_STRATIFIED, QMC_SOBOL, skh(FwVariant.FW, 2000)],
        ids=lambda s: s.label,
    )
    def test_sharp_observation_keeps_finite_evidence(self, sampler):
        # y = 6 under N(0, 1) seen with variance 1e-4: every particle's
        # likelihood underflows exp(), though the Kalman log Z is -18.92
        params = LgssParams(
            trans_mat=[[1.0]], obs_mat=[[1.0]], process_cov=[[1.0]],
            obs_cov=[[1e-4]], init_mean=[0.0], init_cov=[[1.0]],
        )
        ys = np.array([[6.0]])
        assert kalman_run(params, ys).log_evidence[-1] == pytest.approx(-18.92, abs=5e-3)
        tr = run_filter(lgss_model(params), ys, sampler, 100, K1, seed=0)
        pred, post = tr.predictive[0], tr.posterior[0]
        assert np.isfinite(tr.log_evidence[-1])
        assert post.weights.sum() == pytest.approx(1.0, abs=1e-12)
        # the particle nearest the observation takes the posterior mass
        nearest = np.argmin(np.abs(pred.points[:, 0] - 6.0))
        assert np.argmax(post.weights) == nearest
        assert post.weights[nearest] > 0.99

    def test_seed_determinism(self):
        model, _ = make_lgss(6, d=2, m=1)
        traj = simulate(model, 8, seed=1)
        a = run_filter(model, traj.observations, MC_MULTINOMIAL, 100, K2, seed=9)
        b = run_filter(model, traj.observations, MC_MULTINOMIAL, 100, K2, seed=9)
        c = run_filter(model, traj.observations, MC_MULTINOMIAL, 100, K2, seed=10)
        np.testing.assert_array_equal(a.filtered_means, b.filtered_means)
        np.testing.assert_array_equal(a.log_evidence, b.log_evidence)
        assert not np.array_equal(a.filtered_means, c.filtered_means)

    def test_keep_particles_flag_preserves_statistics(self):
        model, _ = make_lgss(6, d=2, m=1)
        traj = simulate(model, 8, seed=1)
        full = run_filter(model, traj.observations, QMC_SOBOL, 64, K2, seed=0)
        slim = run_filter(model, traj.observations, QMC_SOBOL, 64, K2, seed=0,
                          keep_particles=False)
        assert slim.predictive is None and slim.posterior is None
        np.testing.assert_array_equal(full.filtered_means, slim.filtered_means)
        np.testing.assert_array_equal(full.log_w_hats, slim.log_w_hats)

    def test_validation_errors(self):
        model, _ = make_lgss(6, d=2, m=1)
        with pytest.raises(ValueError):
            run_filter(model, np.zeros((3, 2)), MC_MULTINOMIAL, 10, K2, seed=0)
        with pytest.raises(ValueError):
            run_filter(model, np.zeros((3, 1)), MC_MULTINOMIAL, 10, K1, seed=0)
        with pytest.raises(ValueError):
            run_filter(model, np.zeros((3, 1)), MC_MULTINOMIAL, 0, K2, seed=0)


def _counting(fn, calls, name):
    def wrapped(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapped


class TestLastStep:
    """No predictive set follows step T, so nothing is expanded there."""

    def test_filter_builds_no_transition_at_last_step(self):
        model, _ = make_lgss(6, d=2, m=1)
        traj = simulate(model, 5, seed=1)
        calls = {}
        counted = dataclasses.replace(
            model,
            transition_parts=_counting(model.transition_parts, calls, "parts"),
            log_likelihood_batch=_counting(model.log_likelihood_batch, calls, "lik"),
        )
        tr = run_filter(counted, traj.observations, MC_STRATIFIED, 30, K2, seed=0)
        assert calls == {"parts": 4, "lik": 5}
        # the last posterior is the one the full step would have carried
        last = build_transition_mixture(
            tr.predictive[-1], model, 5, traj.observations[-1]
        )
        np.testing.assert_array_equal(tr.posterior[-1].weights, last.posterior.weights)
        assert tr.log_w_hats[-1] == last.log_w_hat

    def test_rbpf_skips_last_time_update(self):
        cm, cp = make_clgss(0, coupled=True)
        traj = simulate(cm, 6, seed=4)
        calls = {}
        counted = dataclasses.replace(cp, **{
            f: _counting(getattr(cp, f), calls, f)
            for f in ("drift", "lin_trans", "lin_obs", "obs_offset")
        })
        res = run_rbpf(counted, traj.observations, MC_STRATIFIED, 30, K1, seed=0)
        assert calls == {"drift": 5, "lin_trans": 5, "lin_obs": 6, "obs_offset": 6}
        assert len(res.z_posteriors) == 6


class TestRunRbpf:
    def test_linear_collapse_matches_joint_kalman(self):
        cm, cp = make_clgss(0, coupled=False)
        traj = simulate(cm, 30, seed=9)
        lgss = LgssParams(
            trans_mat=block_diag([[0.9]], cp.lin_trans(np.zeros(1))[0]),
            obs_mat=np.hstack([[[0.3]], cp.lin_obs(np.zeros(1))[0]]),
            process_cov=block_diag([[0.0]], cp.lin_process_cov),
            obs_cov=[[cp.obs_var]],
            init_mean=np.concatenate([[cp.init_x_mean], cp.init_z_mean]),
            init_cov=block_diag([[0.0]], cp.init_z_cov),
        )
        ref = kalman_run(lgss, traj.observations)
        for sampler in [MC_MULTINOMIAL, skh(FwVariant.FCFW, 200)]:
            res = run_rbpf(cp, traj.observations, sampler, 20, K1, seed=1)
            for t in range(30):
                zm, zc = res.z_posteriors[t].moments()
                np.testing.assert_allclose(zm, ref.filt_means[t, 1:], atol=1e-8)
                np.testing.assert_allclose(zc, ref.filt_covs[t, 1:, 1:], atol=1e-8)
            np.testing.assert_allclose(
                res.trace.log_evidence, ref.log_evidence, atol=1e-8
            )
            np.testing.assert_allclose(
                res.trace.filtered_means[:, 0], ref.filt_means[:, 0], atol=1e-8
            )

    def test_outlying_observation_matches_joint_kalman(self):
        # y_2 sits ~45 innovation standard deviations out: every Kalman
        # marginal underflows exp(), the log evidence stays exact
        _, cp = make_clgss(0, coupled=False)
        cp = dataclasses.replace(cp, obs_var=1e-4)
        ys = np.array([[0.5], [50.0], [0.2]])
        ref = kalman_run(harness._collapse_joint_params(cp), ys)
        res = run_rbpf(cp, ys, MC_STRATIFIED, 20, K1, seed=0)
        assert ref.log_evidence[1] - ref.log_evidence[0] < -745.0
        np.testing.assert_allclose(res.trace.log_evidence, ref.log_evidence, atol=1e-8)
        for t in range(3):
            zm, _ = res.z_posteriors[t].moments()
            np.testing.assert_allclose(zm, ref.filt_means[t, 1:], atol=1e-8)

    def test_particle_count_and_ancestry_maintained(self):
        cm, cp = make_clgss(0, coupled=True)
        traj = simulate(cm, 12, seed=6)
        res = run_rbpf(cp, traj.observations, MC_MULTINOMIAL, 40, K1, seed=2)
        np.testing.assert_array_equal(res.trace.effective_n, np.full(12, 40))
        assert len(res.z_posteriors) == 12
        for t, pred in enumerate(res.trace.predictive):
            assert pred.ancestry.min() >= 0
            bound = 1 if t == 0 else res.trace.predictive[t - 1].n
            assert pred.ancestry.max() < max(bound, 1)

    def test_z_posterior_weights_match_particle_posterior(self):
        cm, cp = make_clgss(0, coupled=True)
        traj = simulate(cm, 8, seed=6)
        res = run_rbpf(cp, traj.observations, MC_STRATIFIED, 25, K1, seed=3)
        for t in range(8):
            np.testing.assert_array_equal(
                res.z_posteriors[t].weights, res.trace.posterior[t].weights
            )

    def test_coupled_z_mean_matches_joint_particle_filter(self):
        cm, cp = make_clgss(0, coupled=True)
        traj = simulate(cm, 10, seed=6)
        k3 = KernelConfig(sigma2=1.0, dim=3)
        joint = np.array([
            run_filter(cm, traj.observations, MC_MULTINOMIAL, 100_000, k3,
                       seed=s).posterior[-1]
            for s in range(3)
        ], dtype=object)
        joint = np.array([p.weights @ p.points[:, 1:] for p in joint])
        rb = np.array([
            run_rbpf(cp, traj.observations, MC_MULTINOMIAL, 300,
                     K1, seed=s).z_posteriors[-1].moments()[0]
            for s in range(3)
        ])
        se = np.sqrt(joint.var(axis=0, ddof=1) / 3 + rb.var(axis=0, ddof=1) / 3)
        assert (np.abs(joint.mean(axis=0) - rb.mean(axis=0)) <= 3 * se).all()

    def test_kernel_must_be_scalar(self):
        _, cp = make_clgss(0, coupled=True)
        with pytest.raises(ValueError):
            run_rbpf(cp, np.zeros((3, 1)), MC_MULTINOMIAL, 10, K2, seed=0)
