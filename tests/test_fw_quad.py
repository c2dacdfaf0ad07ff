import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from herdfilter import (
    GaussianMixture,
    KernelConfig,
    WeightedParticleSet,
    mmd,
    sample_mixture_family,
)
from herdfilter.fw_quad import (
    _COL_FLOOR,
    FwVariant,
    QpConvergenceError,
    QuadratureState,
    SupportFactor,
    _advance,
    _kkt_residual,
    _line_search_step,
    _screen_bound,
    fw_quad,
    fw_vertex_search,
    simplex_qp_solve,
)
from herdfilter.kernels import kernel_cross, mean_map_eval_batch, mean_map_sqnorm

UNIT_1D = KernelConfig(1.0, 1)


def golden_section_min(f, lo=0.0, hi=1.0, iters=90):
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return min((lo, hi, x), key=f)


def std_normal_1d():
    return GaussianMixture([1.0], [[0.0]], [[[1.0]]])


def simplex_grid_min(gram, lin):
    """Lowest 3-atom QP objective over a 101-point-per-axis simplex grid."""
    grid = np.linspace(0.0, 1.0, 101)
    a, b = np.meshgrid(grid, grid)
    keep = a + b <= 1.0 + 1e-12
    cand = np.stack([a[keep], b[keep], 1.0 - a[keep] - b[keep]], axis=1)
    return float((np.einsum("ci,ij,cj->c", cand, gram, cand) - 2.0 * cand @ lin).min())


def _objective(gram, linear, w):
    return float(w @ (gram @ w) - 2.0 * linear @ w)


def kept_factor(gram):
    """A SupportFactor of every atom, built by appends as the solver builds one."""
    factor = SupportFactor(gram.shape[0])
    for j in range(gram.shape[0]):
        assert factor.append(j, gram[j], gram[j, j])
    return factor


def gaussian_gram(pts):
    """Unit-bandwidth Gaussian-kernel Gram matrix of the rows of pts."""
    sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    return np.exp(-0.5 * sq)


def assert_factors(factor, gram, atol):
    """factor is lower triangular with a positive diagonal, zero outside its
    leading block, and reproduces gram's block of its atoms within atol."""
    s, atoms = factor.size, factor.atoms
    chol = factor.chol[:s, :s]
    np.testing.assert_array_equal(np.triu(chol, 1), 0.0)
    assert np.all(np.diag(chol) > 0.0)
    np.testing.assert_array_equal(factor.chol[s:], 0.0)
    np.testing.assert_array_equal(factor.chol[:, s:], 0.0)
    np.testing.assert_allclose(chol @ chol.T, gram[np.ix_(atoms, atoms)], rtol=0, atol=atol)


def random_mixture(rng, dim=2, n_comp=4):
    w = rng.random(n_comp) + 0.1
    w /= w.sum()
    means = rng.uniform(-4, 4, size=(n_comp, dim))
    covs = np.einsum("k,ij->kij", rng.uniform(0.3, 1.5, n_comp), np.eye(dim))
    return GaussianMixture(w, means, covs)


class TestVertexSearch:
    def test_first_iteration_maximizes_mean_map(self):
        p = std_normal_1d()
        pool = np.linspace(-3, 3, 31)[:, None]
        state = QuadratureState(p, UNIT_1D, pool, 1)
        idx = fw_vertex_search(state)
        assert idx == int(np.argmax(state.pool_mu))

    def test_single_point_pool(self):
        state = QuadratureState(std_normal_1d(), UNIT_1D, np.array([[0.7]]), 1)
        assert fw_vertex_search(state) == 0

    def test_matches_brute_force_recomputation(self):
        rng = np.random.default_rng(21)
        for trial in range(5):
            p = random_mixture(rng)
            k = KernelConfig(0.8, 2)
            pool, _ = p.sample(200, rng)
            state = QuadratureState(p, k, pool, 6)
            for _ in range(6):
                _advance(state, FwVariant.FW_LS)
            sel = state.pool[np.asarray(state.idxs)]
            scores = (
                kernel_cross(pool, sel, k) @ state.weights
                - mean_map_eval_batch(p, pool, k)
            )
            assert fw_vertex_search(state) == int(np.argmin(scores))

    def test_tie_breaks_to_lowest_index(self):
        # symmetric target, symmetric pool: both extremes score identically
        p = std_normal_1d()
        pool = np.array([[-1.0], [1.0]])
        state = QuadratureState(p, UNIT_1D, pool, 1)
        assert fw_vertex_search(state) == 0


def line_search_toward(state, vertex):
    """Line-search step from the current iterate toward Phi(vertex)."""
    v = np.asarray(vertex, dtype=float).reshape(1, -1)
    sel = state.pool[np.asarray(state.idxs)]
    cross_v = float(state.weights @ kernel_cross(sel, v, state.kernel)[:, 0])
    mu_v = float(mean_map_eval_batch(state.target, v, state.kernel)[0])
    return _line_search_step(state.gg, state.gmu, cross_v, mu_v)


class TestLineSearch:
    def build_state(self, rng, iters=3):
        p = random_mixture(rng, dim=1, n_comp=3)
        pool, _ = p.sample(150, rng)
        state = QuadratureState(p, UNIT_1D, pool, iters)
        for _ in range(iters):
            _advance(state, FwVariant.FW_LS)
        return state

    def test_gamma_in_unit_interval(self):
        rng = np.random.default_rng(22)
        state = self.build_state(rng)
        for _ in range(50):
            g = line_search_toward(state, rng.uniform(-4, 4, size=1))
            assert 0.0 <= g <= 1.0

    def test_zero_step_onto_current_iterate(self):
        p = std_normal_1d()
        pool = np.linspace(-2, 2, 21)[:, None]
        state = QuadratureState(p, UNIT_1D, pool, 1)
        _advance(state, FwVariant.FW_LS)
        v = state.pool[state.idxs[0]]
        assert line_search_toward(state, v) == 0.0

    def test_against_golden_section_oracle(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            state = self.build_state(rng, iters=2 + trial % 3)
            v = rng.uniform(-3, 3, size=1)

            # independent 1-d minimization of J((1-gamma) g + gamma Phi(v))
            sel = state.pool[np.asarray(state.idxs)]
            w = state.weights
            gram = kernel_cross(sel, sel, UNIT_1D)
            gg = float(w @ gram @ w)
            gmu = float(w @ mean_map_eval_batch(state.target, sel, UNIT_1D))
            cross = float(w @ kernel_cross(sel, v[None], UNIT_1D)[:, 0])
            mu_v = float(mean_map_eval_batch(state.target, v[None], UNIT_1D)[0])
            sqn = mean_map_sqnorm(state.target, UNIT_1D)
            gamma = _line_search_step(state.gg, state.gmu, cross, mu_v)

            def j_along(t):
                a = (1 - t) ** 2 * gg + 2 * t * (1 - t) * cross + t * t
                b = (1 - t) * gmu + t * mu_v
                return 0.5 * (a - 2 * b + sqn)

            t_star = golden_section_min(j_along)
            assert gamma == pytest.approx(t_star, abs=1e-6)


def float64_scores(state, k):
    """sum_i w_i kappa(x_i, pool_j) - mu_j at every pool point, in float64,
    each row summed by numpy as fw_vertex_search re-scores a point."""
    if not state.n_chosen:
        return -state.pool_mu
    sel = state.pool[np.asarray(state.idxs)]
    return (kernel_cross(state.pool, sel, k) * state.weights).sum(axis=1) - state.pool_mu


class TestColumnBuffer:
    def run_checked(self, p, k, pool, iters, variant=FwVariant.FCFW):
        """Steps of one rule, checking the search and the running correlation
        against a float64 recomputation after each one.

        FW and FW-LS keep the correlation in float64, within 1e-12 of it.
        FCFW's is a float32 screen within _screen_bound of it, and its search
        must return the lowest-index minimizer of the float64 score.
        Returns the state, the number of steps whose vertex was already
        chosen and the number of FCFW steps after the first whose float64
        minimum was not alone within twice the screen's bound.
        """
        fcfw = variant is FwVariant.FCFW
        state = QuadratureState(p, k, pool, iters, corrective=fcfw)
        known_steps = tied_steps = 0
        for _ in range(iters):
            before = state.n_chosen
            idx = fw_vertex_search(state)
            if fcfw:
                scores = float64_scores(state, k)
                assert idx == int(np.argmin(scores))
                # a near tie is one the float32 screen cannot settle alone
                near = scores <= scores[idx] + 2.0 * _screen_bound(state)
                tied_steps += bool(before) and np.count_nonzero(near) > 1
            known = idx in state.idxs
            progressed = _advance(state, variant)
            # FW keeps duplicates as separate atoms; the other rules re-weight
            appended = progressed and (variant is FwVariant.FW or not known)
            assert state.n_chosen == before + appended
            known_steps += known
            sel = state.pool[np.asarray(state.idxs)]
            expected = kernel_cross(state.pool, sel, k) @ state.weights
            if fcfw:
                assert state.pool_cross.dtype == np.float32
                assert np.abs(state.pool_cross - expected).max() <= _screen_bound(state)
            else:
                np.testing.assert_allclose(state.pool_cross, expected, rtol=0, atol=1e-12)
        return state, known_steps, tied_steps

    def test_fcfw_pool_cross_matches_recomputation(self):
        rng = np.random.default_rng(24)
        p = random_mixture(rng)
        k = KernelConfig(0.8, 2)
        pool, _ = p.sample(200, rng)
        state, _, _ = self.run_checked(p, k, pool, iters=15)
        assert state.cols.shape == (15, 200)

    def test_fcfw_known_vertex_appends_no_row(self):
        # five pool points and eight steps: the search must return a chosen atom
        p = std_normal_1d()
        pool = np.linspace(-2.0, 2.0, 5)[:, None]
        _, known_steps, _ = self.run_checked(p, UNIT_1D, pool, iters=8)
        assert known_steps >= 3

    @pytest.mark.parametrize("m", [101, 400, 4001])
    @pytest.mark.parametrize("p", [std_normal_1d(), GaussianMixture(
        [0.5, 0.5], [[-1.5], [1.5]], [[[0.6]], [[0.6]]])], ids=["normal", "bimodal"])
    def test_fcfw_symmetric_pool_near_ties(self, m, p):
        # a symmetric target on a grid symmetric to the last bit: x and -x
        # score within rounding of each other, the same bits whenever the
        # chosen atoms and weights are symmetric too
        grid = np.linspace(-4.0, 4.0, m)
        pool = (0.5 * (grid - grid[::-1]))[:, None]
        _, _, tied_steps = self.run_checked(p, UNIT_1D, pool, iters=12)
        assert tied_steps >= 1

    def test_fcfw_duplicated_pool_points(self):
        # every point twice, the copies far apart in the pool: the search
        # must take the first copy, and a chosen atom's copy is a known vertex
        rng = np.random.default_rng(26)
        p = random_mixture(rng)
        k = KernelConfig(0.8, 2)
        half, _ = p.sample(150, rng)
        pool = np.concatenate([half, half[::-1]])
        state, _, tied_steps = self.run_checked(p, k, pool, iters=20)
        assert tied_steps >= 1
        assert np.all(state.idxs < 150)

    def test_fcfw_subnormal_column_entries_flushed(self):
        # two clusters 8 to 20 kernel widths apart: kernel values between
        # them span float32's subnormal range, and are stored as zero
        p = GaussianMixture([0.5, 0.5], [[-7.0], [7.0]], [[[1.0]], [[1.0]]])
        pool = np.concatenate([np.linspace(-10.0, -4.0, 60), np.linspace(4.0, 10.0, 60)])[:, None]
        state, _, _ = self.run_checked(p, UNIT_1D, pool, iters=10)
        tiny = np.finfo(np.float32).tiny
        for i, idx in enumerate(state.idxs):
            col = state._column(int(idx))
            col32 = col.astype(np.float32)
            assert np.any((col32 > 0.0) & (col32 < tiny))
            flushed = np.where(col < _COL_FLOOR, 0.0, col).astype(np.float32)
            np.testing.assert_array_equal(state.cols[i], flushed)
        # nor does any product of the float32 refresh fall below a normal
        k = state.n_chosen
        products = state.weights.astype(np.float32)[:, None] * state.cols[:k]
        assert not np.any((products > 0.0) & (products < tiny))

    @pytest.mark.parametrize("variant", [FwVariant.FW, FwVariant.FW_LS])
    def test_in_place_pool_cross_matches_recomputation(self, variant):
        rng = np.random.default_rng(24)
        p = random_mixture(rng)
        k = KernelConfig(0.8, 2)
        pool, _ = p.sample(200, rng)
        state, _, _ = self.run_checked(p, k, pool, iters=15, variant=variant)
        assert state.cols is None

    @pytest.mark.parametrize("variant", [FwVariant.FW, FwVariant.FW_LS])
    def test_in_place_pool_cross_on_known_vertices(self, variant):
        # a five-point pool forces repeat vertices: FW appends a duplicate
        # atom, FW-LS re-weights the chosen one (the `known` branch)
        p = std_normal_1d()
        pool = np.linspace(-2.0, 2.0, 5)[:, None]
        _, known_steps, _ = self.run_checked(p, UNIT_1D, pool, iters=8, variant=variant)
        assert known_steps >= 2

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_column_bit_identical_to_kernel_cross(self, d):
        rng = np.random.default_rng(40 + d)
        p = random_mixture(rng, dim=d)
        k = KernelConfig(0.7, d)
        pool, _ = p.sample(501, rng)
        state = QuadratureState(p, k, pool, 1)
        idx = 250
        assert np.array_equal(
            state._column(idx), kernel_cross(pool, pool[idx][None], k)[:, 0]
        )

    def test_only_fcfw_allocates_columns(self, monkeypatch):
        # the package binds herdfilter.fw_quad to the function, not the module
        fwq = sys.modules["herdfilter.fw_quad"]
        states = []

        class Recording(QuadratureState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(self)

        monkeypatch.setattr(fwq, "QuadratureState", Recording)
        p = std_normal_1d()
        for variant in (FwVariant.FW, FwVariant.FW_LS, FwVariant.FCFW):
            fw_quad(p, UNIT_1D, 6, 300, variant, rng_seed=3)
        fw_state, ls_state, fc_state = states
        assert fw_state.cols is None
        assert ls_state.cols is None
        assert fc_state.cols.shape == (6, 300)
        # half-width columns: 4 n M bytes
        assert fc_state.cols.dtype == np.float32
        assert fc_state.cols.nbytes == 4 * 6 * 300

    def test_fcfw_without_buffer_rejected(self):
        state = QuadratureState(std_normal_1d(), UNIT_1D, np.linspace(-1, 1, 5)[:, None], 1)
        with pytest.raises(ValueError):
            _advance(state, FwVariant.FCFW)

    def test_non_finite_pool_named(self):
        # the column path trusts the pool, so the state must reject it up front
        pool = np.linspace(-1.0, 1.0, 5)[:, None]
        pool[2, 0] = np.nan
        with pytest.raises(ValueError, match="pool"):
            QuadratureState(std_normal_1d(), UNIT_1D, pool, 1)
        with pytest.raises(ValueError, match="pool"):
            fw_quad(std_normal_1d(), UNIT_1D, 2, 5, pool=pool)


class TestKeptFactor:
    """The Cholesky factor of the support's Gram block, and its span guard."""

    fwq = importlib.import_module("herdfilter.fw_quad")

    def test_factor_tracks_support_after_every_step(self):
        rng = np.random.default_rng(33)
        p = random_mixture(rng, dim=3)
        k = KernelConfig(0.8, 3)
        pool, _ = p.sample(400, rng)
        state = QuadratureState(p, k, pool, 30, corrective=True)
        for _ in range(30):
            _advance(state, FwVariant.FCFW)
            assert sorted(state.factor.atoms) == list(np.flatnonzero(state.weights > 0.0))
            assert_factors(state.factor, state.gram, atol=1e-12)
        assert state.n_chosen >= 20

    @pytest.mark.parametrize("d, s, half_width", [(1, 30, 15.0), (2, 100, 6.0), (3, 200, 4.0)])
    def test_delete_then_reappend(self, d, s, half_width):
        rng = np.random.default_rng(60 + d)
        gram = gaussian_gram(rng.uniform(-half_width, half_width, size=(s, d)))
        for r in (0, s // 2, s - 1):
            factor = kept_factor(gram)
            atom = int(factor.atoms[r])
            factor.delete(r)
            assert factor.size == s - 1 and atom not in factor.atoms
            assert_factors(factor, gram, atol=1e-12)
            # the guard's figure is the dropped atom's distance to the rest's span
            rest = factor.atoms
            cross = gram[atom, rest]
            schur = 1.0 - cross @ np.linalg.solve(gram[np.ix_(rest, rest)], cross)
            assert factor.span_row(gram[atom], 1.0)[1] == pytest.approx(schur, rel=0, abs=1e-10)
            assert factor.append(atom, gram[atom], 1.0)
            assert factor.atoms[-1] == atom
            assert_factors(factor, gram, atol=1e-12)

    def test_factor_tracks_support_on_quad_pool(self, monkeypatch):
        # criterion 1's FCFW run on pool 0 at n = 200 drops interior atoms and
        # lets some back in; after every step the kept factor must still
        # factor the support's Gram block
        interior, joined = [], []
        delete, append = SupportFactor.delete, SupportFactor.append

        def deleting(factor, r):
            interior.append(r < factor.size - 1)
            delete(factor, r)

        def appending(factor, atom, cross, diag):
            joined.append(int(atom))
            return append(factor, atom, cross, diag)

        monkeypatch.setattr(SupportFactor, "delete", deleting)
        monkeypatch.setattr(SupportFactor, "append", appending)
        p = sample_mixture_family(2, 100, seed=1)
        pool, _ = p.sample(20_000, np.random.default_rng([0, 200]))
        state = QuadratureState(p, KernelConfig(1.0, 2), pool, 200, corrective=True)
        for _ in range(200):
            assert _advance(state, FwVariant.FCFW)
            assert sorted(state.factor.atoms) == list(np.flatnonzero(state.weights > 0.0))
            assert_factors(state.factor, state.gram, atol=1e-10)
        assert sum(interior) == 6
        assert len(joined) - len(set(joined)) == 3

    def test_duplicate_never_appended(self):
        # pool point 7 repeats point 3 exactly, so its distance to the span is 0
        p = std_normal_1d()
        pool = np.linspace(-2.0, 2.0, 9)[:, None]
        pool[7] = pool[3]
        state = QuadratureState(p, UNIT_1D, pool, 9, corrective=True)
        while 3 not in state.idxs:
            assert _advance(state, FwVariant.FCFW)
        assert 3 in state.factor.atoms
        factor = state.factor
        before = (state.n_chosen, state.gram.copy(), factor.size, factor.chol.copy())
        assert not state._append_atom(7, state._column(7))
        assert state.n_chosen == before[0]
        np.testing.assert_array_equal(state.gram, before[1])
        assert factor.size == before[2]
        np.testing.assert_array_equal(factor.chol, before[3])

    def test_refused_vertex_stops_like_a_known_one(self, monkeypatch):
        p = std_normal_1d()
        pool = np.linspace(-2.0, 2.0, 9)[:, None]
        pool[7] = pool[3]
        state = QuadratureState(p, UNIT_1D, pool, 9, corrective=True)
        while 3 not in state.idxs:
            _advance(state, FwVariant.FCFW)
        before = (state.n_chosen, state.weights.copy(), state.objective)
        monkeypatch.setattr(self.fwq, "fw_vertex_search", lambda state: 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _advance(state, FwVariant.FCFW)
        assert 7 not in state.idxs
        assert state.n_chosen == before[0]
        np.testing.assert_allclose(state.weights, before[1], rtol=0, atol=1e-15)
        assert state.objective == pytest.approx(before[2], rel=0, abs=1e-15)

    def test_guard_stops_1d_rate_run(self, monkeypatch):
        # pool seed 51 of test_rate_and_ordering_1d at n = 40: in 1-d the pool
        # fills the chosen atoms' span, and the guard ends the run before n
        p = GaussianMixture([0.5, 0.5], [[-1.0], [1.5]], np.array([[[0.6]], [[1.0]]]))
        refused = []
        append = QuadratureState._append_atom

        def recording(state, idx, col):
            ok = append(state, idx, col)
            refused.append(not ok)
            return ok

        monkeypatch.setattr(QuadratureState, "_append_atom", recording)
        trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, err = fw_quad(p, UNIT_1D, 40, 4000, FwVariant.FCFW, rng_seed=51,
                               objective_trace=trace)
        assert refused[-1] and not any(refused[:-1])
        assert len(trace) < 40 and out.n < len(refused)
        assert np.diff(trace).max(initial=0.0) <= 1e-12
        assert err == pytest.approx(mmd(p, out, UNIT_1D), rel=0, abs=1e-9)
        # appending past the guard, onto a Gram matrix with a negative
        # eigenvalue, reached 1.0627153074465458e-05; the guard gives up 2%
        assert err <= 1.03 * 1.0627153074465458e-05


class TestQpFallback:
    """The corrective step when simplex_qp_solve stops short of tolerance."""

    # the package attribute herdfilter.fw_quad is the function
    fwq = importlib.import_module("herdfilter.fw_quad")
    WARNING = "FCFW corrective QP stopped at KKT residual"

    @staticmethod
    def worst_vertex(linear):
        # the simplex vertex of largest objective: 1 - 2 c_i, as kappa(x, x) = 1
        w = np.zeros(linear.shape[0])
        w[int(np.argmin(linear))] = 1.0
        return w

    def state_after(self, steps):
        rng = np.random.default_rng(31)
        p = random_mixture(rng)
        k = KernelConfig(0.8, 2)
        pool, _ = p.sample(300, rng)
        state = QuadratureState(p, k, pool, steps + 1, corrective=True)
        for _ in range(steps):
            assert _advance(state, FwVariant.FCFW)
        return state

    def test_lower_best_iterate_kept(self, monkeypatch):
        state = self.state_after(4)
        solve = simplex_qp_solve
        best = []

        def stalled(gram, linear, tol, w0, factor):
            best.append(solve(gram, linear, tol, w0, factor)[0])
            raise QpConvergenceError(best[-1], 3.0e-7)

        monkeypatch.setattr(self.fwq, "simplex_qp_solve", stalled)
        before = state.objective
        with pytest.warns(RuntimeWarning, match=self.WARNING) as rec:
            assert _advance(state, FwVariant.FCFW)
        assert len(rec) == 1
        assert "3.000e-07" in str(rec[0].message)
        assert "kept" in str(rec[0].message)
        np.testing.assert_array_equal(state.weights, best[0])
        assert state.objective < before

    def test_higher_best_iterate_rejected(self, monkeypatch):
        state = self.state_after(4)
        old = state.weights.copy()
        before = state.objective
        worse = []

        def stalled(gram, linear, tol, w0, factor):
            best = self.worst_vertex(linear)
            worse.append(_objective(gram, linear, best) > _objective(gram, linear, w0) + 1e-15)
            raise QpConvergenceError(best, 2.0e-6)

        monkeypatch.setattr(self.fwq, "simplex_qp_solve", stalled)
        with pytest.warns(RuntimeWarning, match=self.WARNING) as rec:
            _advance(state, FwVariant.FCFW)
        assert worse == [True]
        assert len(rec) == 1
        assert "rejected" in str(rec[0].message)
        # the new atom joins at weight zero and the others keep theirs
        assert state.n_chosen == old.size + 1
        np.testing.assert_array_equal(state.weights, np.append(old, 0.0))
        assert state.objective == pytest.approx(before, abs=1e-15)

    def test_objective_trace_never_rises(self, monkeypatch):
        # stalls alternate between the exact solution and the worst vertex
        solve = simplex_qp_solve
        calls = []

        def stalled(gram, linear, tol, w0, factor):
            calls.append(None)
            best = (solve(gram, linear, tol, w0, factor)[0] if len(calls) % 2
                    else self.worst_vertex(linear))
            raise QpConvergenceError(best, 1.0e-8)

        monkeypatch.setattr(self.fwq, "simplex_qp_solve", stalled)
        rng = np.random.default_rng(32)
        p = random_mixture(rng)
        trace = []
        with pytest.warns(RuntimeWarning, match=self.WARNING) as rec:
            fw_quad(p, KernelConfig(1.0, 2), 12, 200, FwVariant.FCFW,
                    rng_seed=5, objective_trace=trace)
        messages = [str(r.message) for r in rec]
        assert len(messages) == len(calls) >= 6
        assert any("kept" in m for m in messages)
        assert any("rejected" in m for m in messages)
        assert np.diff(trace).max(initial=0.0) <= 1e-12


class TestSimplexQp:
    def test_singleton(self):
        np.testing.assert_array_equal(
            simplex_qp_solve(np.eye(1), np.array([0.3]))[0], [1.0]
        )

    def test_frozen_two_dim_example(self):
        # stationarity 2w1 - 2 = 2w2 on the simplex pins the vertex (1, 0);
        # a 1e-5 grid search over the simplex agrees (objective -1.0)
        for factor in (None, kept_factor(np.eye(2))):
            w, _ = simplex_qp_solve(np.eye(2), np.array([1.0, 0.0]), factor=factor)
            np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-10)

    def test_frozen_interior_example(self):
        # linear spread of 0.5 puts the optimum strictly inside: w = (0.75, 0.25)
        for factor in (None, kept_factor(np.eye(2))):
            w, _ = simplex_qp_solve(np.eye(2), np.array([0.5, 0.0]), factor=factor)
            np.testing.assert_allclose(w, [0.75, 0.25], atol=1e-10)

    def test_against_grid_search(self):
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-5)
        vals = grid**2 + (1 - grid) ** 2 - 2 * grid
        w1 = grid[np.argmin(vals)]
        for factor in (None, kept_factor(np.eye(2))):
            w, _ = simplex_qp_solve(np.eye(2), np.array([1.0, 0.0]), factor=factor)
            assert w[0] == pytest.approx(w1, abs=1e-5)

    def test_random_instances_kkt_and_vertices(self):
        rng = np.random.default_rng(24)
        for trial in range(30):
            k = rng.integers(2, 9)
            a = rng.standard_normal((k, k))
            gram = a @ a.T / k
            d = np.sqrt(np.diag(gram))
            gram = gram / np.outer(d, d)  # unit diagonal like a kernel matrix
            lin = rng.random(k)
            for factor in (None, kept_factor(gram)):
                w, grad = simplex_qp_solve(gram, lin, factor=factor)
                assert np.all(w >= 0.0)
                assert w.sum() == pytest.approx(1.0, abs=1e-12)
                assert _kkt_residual(grad, w) <= 1e-8
                np.testing.assert_allclose(grad, 2.0 * (gram @ w - lin), rtol=0, atol=1e-14)
                obj = w @ gram @ w - 2 * lin @ w
                for i in range(k):
                    e = np.zeros(k)
                    e[i] = 1.0
                    assert obj <= e @ gram @ e - 2 * lin @ e + 1e-12

    def test_warm_start_never_hurts(self, monkeypatch):
        rng = np.random.default_rng(25)
        a = rng.standard_normal((5, 5))
        gram = a @ a.T / 5
        gram /= np.abs(gram).max()
        gram = 0.5 * (gram + gram.T) + np.eye(5) * 0.5
        gram /= gram.max()
        lin = rng.random(5)
        w0 = np.array([0.9, 0.05, 0.05, 0.0, 0.0])
        f = lambda v: v @ gram @ v - 2 * lin @ v
        for factor in (None, kept_factor(gram)):
            w, _ = simplex_qp_solve(gram, lin, w0=w0, factor=factor)
            assert f(w) <= f(w0) + 1e-14

        # three atoms on a line, warm-started on all of them: the minimizer on
        # that support's affine hull gives the middle atom a negative weight,
        # so the solver must step to the boundary and drop it
        x = np.array([0.0, 1.0, 2.0])
        gram = np.exp(-0.5 * (x[:, None] - x[None, :]) ** 2)
        lin = np.array([0.8, 0.3, 0.6])
        kkt = np.block([[2.0 * gram, np.ones((3, 1))], [np.ones((1, 3)), np.zeros((1, 1))]])
        assert np.linalg.solve(kkt, np.append(2.0 * lin, 1.0))[1] < 0.0
        w0 = np.array([0.2, 0.4, 0.4])
        bound = min(_objective(gram, lin, w0), simplex_grid_min(gram, lin))
        # with or without a kept factor, every solve is a one-column triangular
        # one on the support's factor, before and after the middle row goes
        fwq = sys.modules["herdfilter.fw_quad"]
        trtrs = fwq._trtrs
        calls = []

        def solve_1col(a, b, **kwargs):
            calls.append(f"tri{np.ndim(b)}")
            return trtrs(a, b, **kwargs)

        monkeypatch.setattr(fwq, "_trtrs", solve_1col)
        for name in ("solve", "lstsq"):
            monkeypatch.setattr(np.linalg, name, lambda *a, name=name, **k: calls.append(name))
        for factor in (None, kept_factor(gram)):
            calls.clear()
            w, grad = simplex_qp_solve(gram, lin, w0=w0, factor=factor)
            assert w[1] == 0.0
            assert _kkt_residual(grad, w) <= 1e-10
            assert _objective(gram, lin, w) <= bound + 1e-12
            assert calls and set(calls) == {"tri1"}

    @pytest.mark.parametrize("lin, w0", [
        (np.array([0.6, 0.6, 0.5]), np.array([0.3, 0.3, 0.4])),
        (np.array([0.3, 0.3, 0.9]), np.array([0.5, 0.5, 0.0])),
    ])
    def test_duplicated_atom_singular_support(self, monkeypatch, lin, w0):
        # atoms 0 and 1 coincide, so the warm start's support has a singular
        # Gram block: the span guard keeps the duplicate out of the support
        supports = []
        append = SupportFactor.append

        def appending(factor, atom, cross, diag):
            ok = append(factor, atom, cross, diag)
            supports.append(set(factor.atoms.tolist()))
            return ok

        monkeypatch.setattr(SupportFactor, "append", appending)
        a = np.exp(-0.5)
        gram = np.array([[1.0, 1.0, a], [1.0, 1.0, a], [a, a, 1.0]])
        w, grad = simplex_qp_solve(gram, lin, w0=w0)
        assert supports and not any({0, 1} <= s for s in supports)
        assert w[1] == 0.0
        assert _kkt_residual(grad, w) <= 1e-10
        assert _objective(gram, lin, w) <= simplex_grid_min(gram, lin) + 1e-12


class TestFwQuad:
    def test_single_particle_reduction(self):
        rng = np.random.default_rng(26)
        p = random_mixture(rng)
        k = KernelConfig(1.0, 2)
        for variant in FwVariant:
            out, err = fw_quad(p, k, 1, 500, variant, rng_seed=7)
            ref, _ = fw_quad(p, k, 1, 500, FwVariant.FW, rng_seed=7)
            np.testing.assert_array_equal(out.points, ref.points)
            np.testing.assert_array_equal(out.weights, [1.0])
            # the one atom maximizes the mean map over the pool
            pool, _ = p.sample(500, np.random.default_rng(7))
            mu = mean_map_eval_batch(p, pool, k)
            np.testing.assert_array_equal(out.points[0], pool[np.argmax(mu)])

    def test_fw_weights_exactly_uniform(self):
        rng = np.random.default_rng(27)
        for trial in range(5):
            p = random_mixture(rng)
            out, _ = fw_quad(p, KernelConfig(1.0, 2), 10, 300, FwVariant.FW,
                             rng_seed=trial)
            assert out.n == 10
            assert np.all(out.weights == 0.1)

    def test_degenerate_target_recovered_in_one_step(self):
        p = GaussianMixture([1.0], [[1.5]], [[[0.0]]])
        out, err = fw_quad(p, UNIT_1D, 5, 50, FwVariant.FW_LS, rng_seed=0)
        assert out.n == 1
        assert err == 0.0
        np.testing.assert_array_equal(out.points, [[1.5]])

    def test_fcfw_two_point_grid_case(self):
        # Fixed 101-point grid on [-5, 5], p = N(0,1), sigma2 = 1, N = 2.
        # Greedy values frozen from the closed-form trace: the first vertex is
        # the mean-map argmax x=0, the second is x=-2 (left of the +-2 tie),
        # and the corrective weights solve the 2-atom QP exactly.
        grid = np.linspace(-5.0, 5.0, 101)
        p = std_normal_1d()
        out, err = fw_quad(p, UNIT_1D, 2, 101, FwVariant.FCFW, pool=grid)
        order = np.argsort(out.points[:, 0])
        np.testing.assert_array_equal(out.points[order, 0], grid[[30, 50]])
        np.testing.assert_allclose(
            out.weights[order], [0.24153176080306238, 0.7584682391969376], atol=1e-9
        )
        assert err == pytest.approx(0.24950309175426638, abs=1e-9)

        # corrective step agrees with a 1e-4 weight grid on the chosen pair
        x = out.points[order, 0]
        c = (1 / np.sqrt(2.0)) * np.exp(-(x**2) / 4.0)
        kij = np.exp(-((x[0] - x[1]) ** 2) / 2.0)
        ws = np.arange(0.0, 1.0 + 1e-12, 1e-4)
        t2 = ws * c[0] + (1 - ws) * c[1]
        t3 = ws**2 + (1 - ws) ** 2 + 2 * ws * (1 - ws) * kij
        j = 0.5 * (1 / np.sqrt(3.0) - 2 * t2 + t3)
        assert out.weights[order][0] == pytest.approx(ws[np.argmin(j)], abs=1e-4)

        # the greedy rule cannot beat exhaustive enumeration over all pairs,
        # and on this symmetric target it is strictly worse (frozen oracle:
        # J=0.00557 at {-0.7, 0.8} vs greedy J=0.03113 at {-2, 0})
        assert 0.5 * err**2 >= 0.0055729054573772085 - 1e-12

    def test_monotone_objective_ls_and_fcfw(self):
        rng = np.random.default_rng(28)
        for trial in range(15):
            p = random_mixture(rng, dim=1 + trial % 2)
            k = KernelConfig(1.0, p.dim)
            for variant in (FwVariant.FW_LS, FwVariant.FCFW):
                trace = []
                fw_quad(p, k, 12, 150, variant, rng_seed=trial,
                        objective_trace=trace)
                diffs = np.diff(trace)
                assert diffs.max(initial=0.0) <= 1e-12

    def test_fcfw_dominates_fw_same_pool(self):
        rng = np.random.default_rng(29)
        for trial in range(8):
            p = random_mixture(rng)
            k = KernelConfig(1.0, 2)
            pool, _ = p.sample(400, np.random.default_rng(100 + trial))
            _, err_fw = fw_quad(p, k, 25, 400, FwVariant.FW, pool=pool)
            _, err_fcfw = fw_quad(p, k, 25, 400, FwVariant.FCFW, pool=pool)
            assert err_fcfw <= err_fw + 1e-9

    def test_fw_error_matches_mmd_of_output(self):
        rng = np.random.default_rng(30)
        for variant in FwVariant:
            p = random_mixture(rng)
            k = KernelConfig(1.0, 2)
            out, err = fw_quad(p, k, 20, 300, variant, rng_seed=3)
            assert err == pytest.approx(mmd(p, out, k), rel=1e-9, abs=1e-12)

    def test_usage_errors(self):
        p = std_normal_1d()
        with pytest.raises(ValueError):
            fw_quad(p, UNIT_1D, 10, 5, FwVariant.FW)
        with pytest.raises(ValueError):
            fw_quad(p, UNIT_1D, 0, 5, FwVariant.FW)
        with pytest.raises(ValueError):
            fw_quad(p, KernelConfig(1.0, 2), 2, 5, FwVariant.FW)

    def test_rate_and_ordering_1d(self):
        # MC converges like N^(-1/2); the corrective rule sits clearly below
        p = GaussianMixture(
            [0.5, 0.5], [[-1.0], [1.5]],
            np.array([[[0.6]], [[1.0]]]),
        )
        k = UNIT_1D
        ns = np.array([10, 20, 40, 80])
        rng = np.random.default_rng(32)
        mc_med, fcfw_med = [], []
        for n in ns:
            mc_errs, fcfw_errs = [], []
            for s in range(5):
                pts, _ = p.sample(n, rng)
                q = WeightedParticleSet(pts, np.full(n, 1.0 / n))
                mc_errs.append(mmd(p, q, k))
                _, e = fw_quad(p, k, int(n), 4000, FwVariant.FCFW, rng_seed=50 + s)
                fcfw_errs.append(e)
            mc_med.append(np.median(mc_errs))
            fcfw_med.append(np.median(fcfw_errs))
        slope = np.polyfit(np.log(ns), np.log(mc_med), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)
        for n, a, b in zip(ns, fcfw_med, mc_med):
            if n >= 20:
                assert a < b


def test_fcfw_bits_do_not_depend_on_blas_threads():
    # criterion 1's FCFW runs at n = 200 drop interior atoms, and OpenBLAS
    # threads LAPACK calls at this size: the support solves must not use one
    # whose bits change with the thread count
    code = (
        "import hashlib, herdfilter as hf\n"
        "p = hf.sample_mixture_family(2, 100, seed=1)\n"
        "h = hashlib.sha256()\n"
        "for pool in (0, 1):\n"
        "    out, err = hf.fw_quad(p, hf.KernelConfig(1.0, 2), 200, 20_000,\n"
        "                          hf.FwVariant.FCFW, rng_seed=[pool, 200])\n"
        "    h.update(out.points.tobytes() + out.weights.tobytes() + repr(err).encode())\n"
        "print(h.hexdigest())\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        digests.append(run.stdout.strip())
    assert digests[0] == digests[1]
