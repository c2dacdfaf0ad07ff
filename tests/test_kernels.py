import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from herdfilter import kernels as kernels_mod
from herdfilter import (
    GaussianMixture,
    KernelConfig,
    NumericalError,
    WeightedParticleSet,
    mean_map_sqnorm,
    mmd,
)
from herdfilter.kernels import (
    _sqrt_clamped,
    kernel_cross,
    mean_map_eval_batch,
    safe_cholesky,
)

# Monte Carlo oracle values for the K=1, d=1, mu=0, Sigma=1, sigma2=1 case,
# frozen from 1e7-sample runs (seed 20260819):
#   E_z kappa(z, 0)      = 0.7070517 +- 0.0001   (closed form 1/sqrt(2))
#   E_{z,z'} kappa(z,z') = 0.5771548 +- 0.0001   (closed form 1/sqrt(3))
MC_MEAN_MAP_AT_0 = 0.7070517345533953
MC_SQNORM = 0.5771547786127529

UNIT_1D = KernelConfig(1.0, 1)


def unit_gaussian_1d():
    return GaussianMixture([1.0], [[0.0]], [[[1.0]]])


def random_mixture(rng, dim=2, n_comp=5, isotropic=True):
    w = rng.random(n_comp) + 0.05
    w /= w.sum()
    means = rng.uniform(-3, 3, size=(n_comp, dim))
    if isotropic:
        covs = np.einsum("k,ij->kij", rng.uniform(0.2, 2.0, n_comp), np.eye(dim))
    else:
        covs = np.empty((n_comp, dim, dim))
        for i in range(n_comp):
            a = rng.standard_normal((dim, dim))
            covs[i] = a @ a.T + 0.2 * np.eye(dim)
    return GaussianMixture(w, means, covs)


def kernel_pair(x, y, k):
    """kappa(x, y) for one pair, as a one-by-one Gram block."""
    return kernel_cross(np.asarray(x, float)[None], np.asarray(y, float)[None], k)[0, 0]


class TestKernelEval:
    def test_frozen_example(self):
        k = KernelConfig(1.0, 2)
        assert kernel_pair([0.0, 0.0], [1.0, 1.0], k) == pytest.approx(
            np.exp(-1.0), abs=1e-12
        )

    def test_bounds_symmetry_diagonal(self):
        rng = np.random.default_rng(0)
        k = KernelConfig(0.7, 3)
        for _ in range(200):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            v = kernel_pair(x, y, k)
            assert 0.0 < v <= 1.0
            assert v == pytest.approx(kernel_pair(y, x, k), abs=0.0)
        x = rng.standard_normal(3)
        assert kernel_pair(x, x, k) == 1.0

    def test_cross_matches_scalar(self):
        rng = np.random.default_rng(1)
        k = KernelConfig(2.0, 2)
        xs = rng.standard_normal((4, 2))
        ys = rng.standard_normal((3, 2))
        g = kernel_cross(xs, ys, k)
        for i in range(4):
            for j in range(3):
                want = np.exp(-0.5 * np.sum((xs[i] - ys[j]) ** 2) / k.sigma2)
                assert g[i, j] == pytest.approx(want, rel=1e-12)

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            kernel_pair([0.0], [0.0, 0.0], KernelConfig(1.0, 2))

    def test_bad_sigma2_raises(self):
        with pytest.raises(ValueError):
            KernelConfig(0.0, 1)
        with pytest.raises(ValueError):
            KernelConfig(-1.0, 2)


class TestMeanMap:
    def test_frozen_scalar_example(self):
        # against the frozen MC oracle and the closed form itself
        v = mean_map_eval_batch(unit_gaussian_1d(), np.array([[0.0]]), UNIT_1D)[0]
        assert v == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert v == pytest.approx(MC_MEAN_MAP_AT_0, abs=1e-3)

    def test_sqnorm_frozen_example(self):
        v = mean_map_sqnorm(unit_gaussian_1d(), UNIT_1D)
        assert v == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)
        assert v == pytest.approx(MC_SQNORM, abs=1e-3)

    def test_mean_map_in_unit_interval(self):
        rng = np.random.default_rng(2)
        p = random_mixture(rng)
        k = KernelConfig(1.3, 2)
        vals = mean_map_eval_batch(p, rng.uniform(-4, 4, size=(50, 2)), k)
        assert np.all(vals > 0.0) and np.all(vals < 1.0)

    def test_sqnorm_below_one(self):
        rng = np.random.default_rng(3)
        for iso in (True, False):
            p = random_mixture(rng, isotropic=iso)
            v = mean_map_sqnorm(p, KernelConfig(0.8, 2))
            assert 0.0 < v < 1.0

    def test_full_cov_path_matches_iso_path(self):
        # same mixture fed through both covariance layouts
        rng = np.random.default_rng(4)
        w = np.array([0.4, 0.6])
        means = rng.standard_normal((2, 3))
        variances = np.array([0.5, 1.7])
        iso = GaussianMixture(w, means, np.einsum("k,ij->kij", variances, np.eye(3)))
        # perturb symmetrically by zero to force the generic branch
        covs = np.einsum("k,ij->kij", variances, np.eye(3)).copy()
        full = GaussianMixture(w, means, covs)
        full._iso_var = None  # force the block-loop path
        k = KernelConfig(1.1, 3)
        x = rng.standard_normal((20, 3))
        np.testing.assert_allclose(
            mean_map_eval_batch(iso, x, k), mean_map_eval_batch(full, x, k), rtol=1e-10
        )
        assert mean_map_sqnorm(iso, k) == pytest.approx(
            mean_map_sqnorm(full, k), rel=1e-10
        )

    def test_mean_map_mc_agreement_2d(self):
        rng = np.random.default_rng(5)
        p = random_mixture(rng, dim=2, n_comp=4, isotropic=False)
        k = KernelConfig(0.9, 2)
        x0 = np.array([0.3, -0.8])
        draws, _ = p.sample(400_000, rng)
        est = np.exp(
            -0.5 * np.sum((draws - x0) ** 2, axis=1) / k.sigma2
        ).mean()
        assert mean_map_eval_batch(p, x0[None], k)[0] == pytest.approx(est, abs=3e-3)


def untiled_gauss_sum(p, pts, var_shift, normalized, sigma=None):
    """GaussianMixture._gauss_sum with one whole M x K exponent block per
    covariance block, as the closed form reads."""
    d = p.dim
    if p._iso_var is not None:
        t = p._iso_var[p.cov_map] + var_shift
        if normalized:
            coef = (2.0 * np.pi * t) ** (-0.5 * d)
        else:
            coef = (sigma * sigma / t) ** (0.5 * d)
        d2 = cdist(pts, p.means, "sqeuclidean")
        return np.exp(d2 * (-0.5 / t)[None, :]) @ (p.weights * coef)
    out = np.zeros(pts.shape[0])
    for b in range(p.covs.shape[0]):
        idx = np.flatnonzero(p.cov_map == b)
        if idx.size == 0:
            continue
        low = safe_cholesky(p.covs[b] + var_shift * np.eye(d))
        det = float(np.prod(np.diag(low)))
        u = solve_triangular(low, pts.T, lower=True).T
        v = solve_triangular(low, p.means[idx].T, lower=True).T
        if normalized:
            coef = (2.0 * np.pi) ** (-0.5 * d) / det
        else:
            coef = sigma**d / det
        out += np.exp(-0.5 * cdist(u, v, "sqeuclidean")) @ (p.weights[idx] * coef)
    return out


def block_mixture(rng, dim, n_comp, n_blocks=3):
    """Mixture over n_blocks full covariance blocks, shared by component index."""
    w = rng.random(n_comp) + 0.05
    w /= w.sum()
    a = rng.standard_normal((n_blocks, dim, dim))
    covs = a @ a.transpose(0, 2, 1) + 0.2 * np.eye(dim)
    cov_map = np.arange(n_comp) % n_blocks
    p = GaussianMixture(w, rng.uniform(-3, 3, size=(n_comp, dim)), covs, cov_map)
    p._iso_var = None  # a 1-d block is isotropic; take the block path anyway
    return p


def assert_matches_untiled(p, pts, k):
    assert np.array_equal(p.pdf(pts), untiled_gauss_sum(p, pts, 0.0, True))
    assert np.array_equal(
        mean_map_eval_batch(p, pts, k),
        untiled_gauss_sum(p, pts, k.sigma2, False, np.sqrt(k.sigma2)),
    )


class TestMeanMapTiles:
    # with a one-byte tile every tile holds the minimum _ROW_GROUP rows, so
    # these M cross several tile boundaries; 17, 33, 49, 65 and 81 end on a
    # one-row remainder. M * K stays under 9216, where OpenBLAS runs the
    # untiled product on one thread.
    SIZES = (1, 2, 15, 16, 17, 31, 32, 33, 49, 50, 65, 81)

    @pytest.mark.parametrize("n_comp", [1, 7, 100])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("isotropic", [True, False])
    def test_bit_identical_to_untiled(self, monkeypatch, n_comp, dim, isotropic):
        monkeypatch.setattr(kernels_mod, "_TILE_BYTES", 1)
        rng = np.random.default_rng(10 * n_comp + dim)
        if isotropic:
            p = random_mixture(rng, dim=dim, n_comp=n_comp)
        else:
            p = block_mixture(rng, dim, n_comp)
        assert (p._iso_var is not None) == isotropic
        k = KernelConfig(0.7, dim)
        for m in self.SIZES:
            assert_matches_untiled(p, rng.uniform(-4, 4, size=(m, dim)), k)

    def test_one_row_remainder_joins_the_tile_before(self, monkeypatch):
        monkeypatch.setattr(kernels_mod, "_TILE_BYTES", 1)
        rows = []

        def recording(x, y, metric):
            rows.append(x.shape[0])
            return cdist(x, y, metric)

        monkeypatch.setattr(kernels_mod, "cdist", recording)
        p = random_mixture(np.random.default_rng(11), dim=2, n_comp=7)
        for m, tiles in [(1, [1]), (16, [16]), (17, [17]), (33, [16, 17]),
                         (34, [16, 16, 2]), (49, [16, 16, 17]),
                         (50, [16, 16, 16, 2])]:
            rows.clear()
            p.pdf(np.zeros((m, 2)))
            assert rows == tiles

    @pytest.mark.parametrize("isotropic", [True, False])
    def test_bit_identical_at_bench_shape(self, isotropic):
        # the herding filter's pool against a 100-component transition mixture
        rng = np.random.default_rng(12)
        if isotropic:
            p = random_mixture(rng, dim=3, n_comp=100)
        else:
            p = block_mixture(rng, 3, 100)
        pts = rng.uniform(-4, 4, size=(20000, 3))
        assert_matches_untiled(p, pts, KernelConfig(1.0, 3))

    @pytest.mark.parametrize("isotropic", [True, False])
    def test_peak_memory_is_one_tile(self, isotropic):
        # an untiled M x K exponent block alone is 16 MB here
        rng = np.random.default_rng(13)
        if isotropic:
            p = random_mixture(rng, dim=3, n_comp=100)
        else:
            p = block_mixture(rng, 3, 100)
        pts = rng.uniform(-4, 4, size=(20000, 3))
        k = KernelConfig(1.0, 3)
        tracemalloc.start()
        try:
            mean_map_eval_batch(p, pts, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestMmd:
    def test_frozen_composed_example(self):
        q = WeightedParticleSet(np.array([[0.0]]), np.array([1.0]))
        v = mmd(unit_gaussian_1d(), q, UNIT_1D)
        expect = np.sqrt(1.0 / np.sqrt(3.0) - 2.0 / np.sqrt(2.0) + 1.0)
        assert v == pytest.approx(expect, abs=1e-12)
        assert v == pytest.approx(0.4039018529501079, abs=1e-9)

    def test_zero_for_exact_atomization_of_point_mass(self):
        p = GaussianMixture([1.0], [[1.5]], [[[0.0]]])
        q = WeightedParticleSet(np.array([[1.5]]), np.array([1.0]))
        assert mmd(p, q, UNIT_1D) == 0.0

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(6)
        k = KernelConfig(1.0, 2)
        for _ in range(50):
            p = random_mixture(rng)
            pts = rng.standard_normal((8, 2))
            w = rng.random(8)
            w /= w.sum()
            assert mmd(p, WeightedParticleSet(pts, w), k) >= 0.0

    def test_clamp_boundary(self):
        assert _sqrt_clamped(-1e-11) == 0.0
        assert _sqrt_clamped(0.0) == 0.0
        assert _sqrt_clamped(4.0) == 2.0
        with pytest.raises(NumericalError):
            _sqrt_clamped(-1.0001e-10)

    def test_mc_bound_frozen_example(self):
        # expected squared MMD of 10 i.i.d. draws: (1 - ||mu_p||^2) / n
        v = (1.0 - mean_map_sqnorm(unit_gaussian_1d(), UNIT_1D)) / 10
        assert v == pytest.approx((1.0 - 1.0 / np.sqrt(3.0)) / 10.0, abs=1e-12)
        assert v == pytest.approx(0.042264973081037424, abs=1e-9)

    def test_mc_bound_holds_empirically(self):
        # 200 draws of N=10 i.i.d. samples: mean squared MMD within 1.1x bound
        rng = np.random.default_rng(7)
        p = random_mixture(rng, dim=2, n_comp=3)
        k = KernelConfig(1.0, 2)
        bound = (1.0 - mean_map_sqnorm(p, k)) / 10
        sq = []
        for _ in range(200):
            pts, _ = p.sample(10, rng)
            q = WeightedParticleSet(pts, np.full(10, 0.1))
            sq.append(mmd(p, q, k) ** 2)
        assert np.mean(sq) <= 1.1 * bound


class TestContainers:
    def test_mixture_validation(self):
        eye = np.eye(1)[None]
        with pytest.raises(ValueError):
            GaussianMixture([0.5, 0.6], [[0.0], [1.0]], np.repeat(eye, 2, 0))
        with pytest.raises(ValueError):
            GaussianMixture([-0.1, 1.1], [[0.0], [1.0]], np.repeat(eye, 2, 0))
        with pytest.raises(ValueError):
            GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 0.0], [0.0, -0.5]]])
        with pytest.raises(ValueError):
            GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 0.3], [0.2, 1.0]]])

    def test_particle_set_validation(self):
        with pytest.raises(ValueError):
            WeightedParticleSet(np.zeros((2, 1)), np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            WeightedParticleSet(np.zeros((2, 1)), np.array([-0.2, 1.2]))
        with pytest.raises(ValueError):
            WeightedParticleSet(np.zeros((2, 1)), np.array([0.5, 0.5]),
                                ancestry=np.array([0]))

    def test_mixture_moments_match_sampling(self):
        rng = np.random.default_rng(8)
        p = random_mixture(rng, dim=2, n_comp=4, isotropic=False)
        mean, cov = p.moments()
        draws, _ = p.sample(400_000, rng)
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.02)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.05)

    def test_sampling_component_frequencies(self):
        rng = np.random.default_rng(9)
        w = np.array([0.2, 0.3, 0.5])
        p = GaussianMixture(w, np.zeros((3, 1)), np.ones((3, 1, 1)))
        _, comps = p.sample(200_000, rng)
        freq = np.bincount(comps, minlength=3) / 200_000
        np.testing.assert_allclose(freq, w, atol=5e-3)

    def test_shared_cov_blocks(self):
        p = GaussianMixture(
            [0.5, 0.5], [[0.0], [2.0]], np.array([[[1.0]]]), cov_map=[0, 0]
        )
        assert p.covs.shape == (1, 1, 1)
        assert mean_map_sqnorm(p, UNIT_1D) > 0.0

    def test_safe_cholesky_jitter_and_zero(self):
        low = safe_cholesky(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(low @ low.T, np.diag([1.0, 0.0]), atol=1e-6)
        assert not safe_cholesky(np.zeros((2, 2))).any()
        with pytest.raises(NumericalError):
            safe_cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))
