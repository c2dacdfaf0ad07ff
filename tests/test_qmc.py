import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import qmc as scipy_qmc

from herdfilter import GaussianMixture, KernelConfig, NumericalError, mmd
from herdfilter.qmc import (
    MAX_DIM,
    SobolStream,
    _direction_integers,
    inverse_normal_cdf,
    qmc_sample_mixture,
)


class TestSobolStream:
    def test_frozen_first_points_dim1(self):
        s = SobolStream(1, offset=1)
        pts = s.take(3).ravel()
        np.testing.assert_array_equal(pts, [0.5, 0.75, 0.25])

    def test_matches_reference_generator(self):
        # scipy ships the same Joe-Kuo direction numbers; bit-exact agreement
        for d in (1, 2, 3, 5, 8, 13, 16, 21):
            mine = SobolStream(d, offset=0).take(128)
            ref = scipy_qmc.Sobol(d, scramble=False).random(128)
            np.testing.assert_array_equal(mine, ref)

    def test_offset_is_plain_continuation(self):
        base = SobolStream(4, offset=0).take(40)
        shifted = SobolStream(4, offset=17).take(23)
        np.testing.assert_array_equal(shifted, base[17:])

    def test_dyadic_balance(self):
        # any power-of-two prefix hits every dyadic bin of that size once
        for d in range(1, 6):
            pts = SobolStream(d, offset=0).take(64)
            for j in range(d):
                bins = np.floor(pts[:, j] * 64).astype(int)
                assert sorted(bins) == list(range(64))

    @staticmethod
    def gray_code_recurrence(dim, offset, n):
        """Points by the one-flip-per-step Gray-code recurrence."""
        v = _direction_integers(dim)
        state = np.zeros(dim, dtype=np.uint64)
        gray = offset ^ (offset >> 1)
        for k in range(32):
            if (gray >> k) & 1:
                state ^= v[:, k]
        out = np.empty((n, dim))
        pos = offset
        for i in range(n):
            out[i] = state
            pos += 1
            if pos < 1 << 32:
                state = state ^ v[:, (pos & -pos).bit_length() - 1]
        return out / float(1 << 32)

    def test_matches_gray_code_recurrence(self):
        for d in (1, 3, 7):
            for offset in (0, 1, 12345, (1 << 31) + 7, (1 << 32) - 40):
                n = min(300, (1 << 32) - offset)
                np.testing.assert_array_equal(
                    SobolStream(d, offset=offset).take(n),
                    self.gray_code_recurrence(d, offset, n),
                )

    def test_split_takes_continue_the_stream(self):
        for offset in (1, 12345, (1 << 32) - 12):
            s = SobolStream(3, offset=offset)
            parts = np.concatenate([s.take(5), s.take(7)])
            whole = SobolStream(3, offset=offset).take(12)
            np.testing.assert_array_equal(parts, whole)

    def test_index_counter(self):
        s = SobolStream(2, offset=5)
        assert s.index == 0
        s.take(1)[0]
        assert s.index == 1
        s.take(10)
        assert s.index == 11

    def test_index_overflow(self):
        s = SobolStream(1, offset=(1 << 32) - 2)
        s.take(2)
        with pytest.raises(NumericalError):
            s.take(1)[0]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            SobolStream(0)
        with pytest.raises(ValueError):
            SobolStream(MAX_DIM + 1)
        with pytest.raises(ValueError):
            SobolStream(2, offset=-1)
        with pytest.raises(ValueError):
            SobolStream(2, offset=1 << 32)


class TestInverseNormalCdf:
    def test_frozen_example(self):
        assert inverse_normal_cdf(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert inverse_normal_cdf(0.975) == pytest.approx(ndtri(0.975), abs=1e-12)

    def test_against_reference_quantile(self):
        u = np.concatenate([
            np.linspace(1e-10, 1 - 1e-10, 20001),
            10.0 ** np.arange(-12, -1, 0.25),
            1.0 - 10.0 ** np.arange(-12, -1, 0.25),
        ])
        err = np.abs(inverse_normal_cdf(u) - ndtri(u))
        assert err.max() < 1e-9

    def test_roundtrip(self):
        u = np.linspace(1e-9, 1 - 1e-9, 10001)
        back = ndtr(inverse_normal_cdf(u))
        assert np.abs(back - u).max() < 1e-9

    def test_median_and_symmetry(self):
        assert inverse_normal_cdf(0.5) == 0.0
        u = np.linspace(0.01, 0.49, 100)
        np.testing.assert_allclose(
            inverse_normal_cdf(1.0 - u), -inverse_normal_cdf(u), atol=1e-12
        )

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                inverse_normal_cdf(bad)


class TestQmcSampleMixture:
    def mixture(self):
        return GaussianMixture(
            [0.3, 0.7],
            [[-2.0, 0.0], [2.0, 1.0]],
            np.stack([np.eye(2) * 0.5, np.eye(2) * 1.5]),
        )

    def test_dim_contract(self):
        p = self.mixture()
        with pytest.raises(ValueError):
            qmc_sample_mixture(p, 8, SobolStream(2))
        out = qmc_sample_mixture(p, 8, SobolStream(3))
        assert out.points.shape == (8, 2)
        np.testing.assert_allclose(out.weights, 1.0 / 8)
        assert out.ancestry is not None

    def test_deterministic_given_offset(self):
        p = self.mixture()
        a = qmc_sample_mixture(p, 32, SobolStream(3, offset=9))
        b = qmc_sample_mixture(p, 32, SobolStream(3, offset=9))
        np.testing.assert_array_equal(a.points, b.points)

    def test_component_proportions(self):
        p = self.mixture()
        out = qmc_sample_mixture(p, 1024, SobolStream(3))
        frac = np.mean(out.ancestry == 1)
        assert frac == pytest.approx(0.7, abs=0.01)

    def test_moments_converge(self):
        p = self.mixture()
        mean, _ = p.moments()
        out = qmc_sample_mixture(p, 4096, SobolStream(3))
        np.testing.assert_allclose(out.points.mean(axis=0), mean, atol=0.02)

    def test_beats_mc_on_mmd(self):
        # same budget, same target: QMC should embed the mixture better
        p = self.mixture()
        k = KernelConfig(1.0, 2)
        rng = np.random.default_rng(11)
        from herdfilter import WeightedParticleSet

        n = 256
        qmc_err = mmd(p, qmc_sample_mixture(p, n, SobolStream(3, offset=1)), k)
        mc_errs = []
        for _ in range(20):
            pts, _ = p.sample(n, rng)
            mc_errs.append(mmd(p, WeightedParticleSet(pts, np.full(n, 1 / n)), k))
        assert qmc_err < np.median(mc_errs)
