"""Frank-Wolfe quadrature against a Gaussian-mixture target.

Greedy kernel herding with three step rules: plain FW steps gamma = 1/(k+1)
(uniform weights), analytic line search, and the fully corrective variant that
re-solves a simplex-constrained QP over all chosen atoms after every vertex
(the optimally-weighted herding of Bach, Lacoste-Julien & Obozinski, ICML
2012). The vertex search is exhaustive over a pool of M i.i.d. draws from the
target, with the running correlation sum_i w_i kappa(x_i, .) maintained
incrementally so a full run costs O(NM) kernel evaluations (O(N^2 M) for the
corrective variant).

The corrective QP's optimum is the point of the atoms' convex hull nearest
the target's mean embedding, and Wolfe's min-norm-point method (Math.
Programming 1976), run as an active-set loop over the weights, finds it
exactly. Like Wolfe's, the loop keeps the Cholesky factor of its corral, the
atoms of positive weight (SupportFactor), from one QP to the next, so each
support is solved by one-column triangular solves: OpenBLAS threads none,
and the bits do not depend on its thread count. An atom whose squared RKHS
distance to the support's span is under _SPAN_FLOOR does not join; a new
vertex so refused is not appended, and the step is treated as one onto a
known vertex. Only 1-d runs, whose pools soon lie in the span of 20-odd
atoms, come near the floor. A QP that stops short of tolerance is carried on
from its best iterate, if that lowers the objective, with a RuntimeWarning.

Memory: beyond the pool, FW and FW-LS keep O(M) floats plus the n x n Gram
matrix and the n-vectors of the iterate, all allocated once for the atom
budget n. Set-up evaluates the target's closed-form mean map at the pool in
row tiles of about 1 MB (kernels._TILE_BYTES), never as an M x K block for a
K-component target, and the loop folds each new atom's kernel column into
the running correlation and drops it. The fully corrective variant
re-weights every atom after each step, so it keeps every chosen atom's
column in one n x M float32 buffer (4nM bytes: 16 MB at n=200, M=20000),
rebuilt into the correlation with one float32 vector-matrix product, and the
support's n x n factor beside the Gram matrix (8n^2 bytes each: 0.32 MB at
n=200). That half-width correlation only screens the vertex search, which
re-scores the few pool points it cannot separate in float64
(fw_vertex_search); the Gram matrix, the QP and every weight come from the
float64 column.
"""

from __future__ import annotations

import enum
import warnings

import numpy as np
from scipy.linalg.lapack import dtrtrs as _trtrs

from .errors import NumericalError
from .kernels import (
    GaussianMixture,
    KernelConfig,
    WeightedParticleSet,
    _as_points,
    _exp_sqdist,
    _sqrt_clamped,
    kernel_cross,  # noqa: F401  unused here; bench/layers.py patches this name
    mean_map_eval_batch,
    mean_map_sqnorm,
)

__all__ = [
    "FwVariant",
    "QuadratureState",
    "QpConvergenceError",
    "SupportFactor",
    "fw_quad",
    "fw_vertex_search",
    "simplex_qp_solve",
]

_DENOM_FLOOR = 1e-14
_ERR2_FLOOR = 1e-15  # squared-error level treated as exact recovery
_QP_TOL = 1e-10
_ACTIVE_EPS = 1e-12  # the KKT residual counts weights above this as support
# squared RKHS distance from an atom to the support's span below which it
# does not join the support (SupportFactor.append)
_SPAN_FLOOR = 1e-10
_U32 = 2.0 ** -24  # float32 unit roundoff
# corrective column entries below this are stored as zero: a product with a
# weight above it is then a float32 normal, and subnormals stall the product
_COL_FLOOR = 2.0 ** -63


class FwVariant(enum.Enum):
    """Step rule: plain 1/(k+1) steps, analytic line search, fully corrective."""

    FW = "fw"
    FW_LS = "fw-ls"
    FCFW = "fcfw"


class SupportFactor:
    """Lower Cholesky factor of the Gram block of a simplex QP's support.

    Row r belongs to atom rows[r]. The leading size x size block of the
    column-major buffer chol is in use, and the rest of it is zero.
    """

    def __init__(self, capacity: int):
        self.chol = np.zeros((capacity, capacity), order="F")
        self.rows = np.zeros(capacity, dtype=np.intp)
        self.size = 0

    @property
    def atoms(self) -> np.ndarray:
        return self.rows[:self.size]

    def span_row(self, cross: np.ndarray, diag: float) -> tuple[np.ndarray, float]:
        """(l, diag - l'l) for L l = cross[atoms], cross and diag an atom's Gram
        entries by position: diag - l'l is its squared distance to the span."""
        l = _trtrs(self.chol[:, :self.size], cross[self.atoms], lower=1)[0]
        return l, diag - float(l @ l)

    def append(self, atom: int, cross: np.ndarray, diag: float) -> bool:
        """Add atom's row, or return False if span_row puts it under _SPAN_FLOOR."""
        l, schur = self.span_row(cross, diag)
        if schur < _SPAN_FLOOR:
            return False
        s = self.size
        self.chol[s, :s] = l
        self.chol[s, s] = np.sqrt(schur)
        self.rows[s] = atom
        self.size = s + 1
        return True

    def delete(self, r: int):
        """Remove row r; Givens rotations restore the triangle in O(s^2) numpy work."""
        s, chol = self.size, self.chol
        chol[r:s - 1, :s] = chol[r + 1:s, :s]
        self.rows[r:s - 1] = self.rows[r + 1:s]
        for i in range(r, s - 1):
            a, b = chol[i, i], chol[i, i + 1]
            h = np.hypot(a, b)
            c, t = a / h, b / h
            left, right = chol[i:s - 1, i].copy(), chol[i:s - 1, i + 1].copy()
            chol[i:s - 1, i] = c * left + t * right
            chol[i:s - 1, i + 1] = c * right - t * left
            chol[i, i + 1] = 0.0
        chol[s - 1, :s] = 0.0
        self.size = s - 1


class QuadratureState:
    """Working state of one quadrature run.

    Holds the search pool with precomputed mean-map values and the current
    iterate g_k = sum_i w_i Phi(x_i) in expanded form (chosen pool indices,
    weights, their Gram matrix and mean-map values). The empty state
    represents g_0 = 0. Those arrays are allocated once for `capacity` atoms,
    the run's atom budget, and `idxs`, `weights`, `gram` and `mu_sel` are
    views of their leading k entries.

    A corrective state (the fully corrective step) also keeps, as row i of
    `cols`, the kernel column kappa(x_i, pool) of each chosen atom, rounded
    to float32 with entries under 2^-63 set to zero, in a row-major
    (capacity, M) float32 buffer, and in `factor` the
    SupportFactor of the support the last corrective QP ended on. Its
    `pool_cross` is then the float32 product of the weights and `cols`, a
    screen within _screen_bound of the float64 correlation. Otherwise
    `cols` and `factor` are None, `pool_cross` is float64, and no column
    outlives the step that uses it.
    """

    def __init__(self, target: GaussianMixture, kernel: KernelConfig, pool,
                 capacity: int, pool_components=None, corrective: bool = False):
        if target.dim != kernel.dim:
            raise ValueError("target and kernel dimensions disagree")
        self.target = target
        self.kernel = kernel
        self.pool = np.ascontiguousarray(_as_points(pool, "pool"))
        if self.pool.shape[1] != kernel.dim:
            raise ValueError("pool dimension does not match the kernel")
        self.pool_components = (
            None if pool_components is None
            else np.ascontiguousarray(pool_components, dtype=np.intp)
        )
        self.pool_mu = mean_map_eval_batch(target, self.pool, kernel)
        self._mu_max = float(np.abs(self.pool_mu).max(initial=0.0))
        self.sqnorm = mean_map_sqnorm(target, kernel)
        m = self.pool.shape[0]
        self.pool_cross = np.zeros(m)  # sum_i w_i kappa(x_i, pool_j)
        self.n_chosen = 0
        self._idx = np.zeros(capacity, dtype=np.intp)
        self._w = np.zeros(capacity)
        self._gram = np.zeros((capacity, capacity))
        self._mu = np.zeros(capacity)
        self.cols = np.empty((capacity, m), dtype=np.float32) if corrective else None
        self.factor = SupportFactor(capacity) if corrective else None
        self.gg = 0.0   # <g, g>
        self.gmu = 0.0  # <g, mu_p>

    @property
    def idxs(self) -> np.ndarray:
        return self._idx[:self.n_chosen]

    @property
    def weights(self) -> np.ndarray:
        return self._w[:self.n_chosen]

    @property
    def gram(self) -> np.ndarray:
        return self._gram[:self.n_chosen, :self.n_chosen]

    @property
    def mu_sel(self) -> np.ndarray:
        return self._mu[:self.n_chosen]

    @property
    def objective(self) -> float:
        """J(g) = 0.5 ||g - mu_p||^2."""
        return 0.5 * (self.gg - 2.0 * self.gmu + self.sqnorm)

    @property
    def fw_error(self) -> float:
        """||g - mu_p|| from the tracked inner products."""
        return _sqrt_clamped(2.0 * self.objective)

    @property
    def chosen(self) -> WeightedParticleSet:
        if not self.n_chosen:
            raise ValueError("no atoms chosen yet (iterate is g_0 = 0)")
        sel = self.idxs
        anc = None if self.pool_components is None else self.pool_components[sel]
        return WeightedParticleSet(self.pool[sel], self.weights.copy(), ancestry=anc)

    def _refresh_inner_products(self):
        self.gg = float(self.weights @ self.gram @ self.weights)
        self.gmu = float(self.weights @ self.mu_sel)

    def _column(self, idx: int) -> np.ndarray:
        """kappa(pool[idx], pool) as a fresh (M,) array; the pool is already checked."""
        # the single row goes first: scipy's cdist is about 9x slower on an
        # (M, 1) distance block than on the (1, M) one, with the same bits
        scale = -0.5 / self.kernel.sigma2
        return _exp_sqdist(self.pool[idx:idx + 1], self.pool, scale)[0]

    def _append_atom(self, idx: int, col: np.ndarray) -> bool:
        """Append pool[idx] at weight zero; False if a corrective state's span
        guard refuses it (SupportFactor.append). The QP factors it on joining."""
        n = self.n_chosen
        row = col[self.idxs]
        if self.factor is not None:
            if self.factor.span_row(row, 1.0)[1] < _SPAN_FLOOR:
                return False
            # multiplying by the mask takes 26 us at M = 20000, a masked store 148 us
            np.multiply(col, col >= _COL_FLOOR, out=self.cols[n], casting="unsafe")
        self._gram[n, :n] = row
        self._gram[:n, n] = row
        self._gram[n, n] = 1.0
        self._idx[n] = idx
        self._mu[n] = self.pool_mu[idx]
        self._w[n] = 0.0
        self.n_chosen = n + 1
        return True


def _screen_bound(state: QuadratureState) -> float:
    """D with |t_j - e_j| <= D at every pool point of a corrective state.

    t_j = s_j - mu_j is the screened score, s = fl32(w) @ cols the float32
    correlation, and e_j the float64 score of fw_vertex_search. Let g_j =
    sum_i w_i c_ij, exact, over the float64 weights and columns; u = 2^-24,
    k the atom count and gamma_m = m u / (1 - m u). Every term is
    nonnegative, so rounding w and c to float32 (u each) and a k-term
    float32 dot product in any order (gamma_k) give |s_j - g_j| <=
    gamma_(k+2) g_j + F. F bounds the absolute terms: column entries under
    2^-63 stored as zero, at most 2^-63 (1 + u)^2 as the weights sum to
    one, and weights and products that underflow float32, 2^-150 each;
    F = 2^-62 covers them. As g_j <= (s_j + F) / (1 - gamma_(k+2)),
    |s_j - g_j| <= B + 2F with B = (k + 2) u / (1 - 2 (k + 2) u) max_j s_j,
    at most (k + 3) u max_j s_j for k up to 2893. The two float64
    subtractions and e_j's k-term float64 sum add at most (k + 3) 2^-52
    (max_j s_j + max_j |mu_j|). B dominates: max_j s_j is at least about
    1/k, since kappa(x_i, x_i) = 1 and some weight is at least 1/k.
    """
    k = state.n_chosen
    smax = float(state.pool_cross.max())
    ku = (k + 2) * _U32
    refresh = ku / (1.0 - 2.0 * ku) * smax + 2.0 ** -61
    return refresh + (k + 3) * 2.0 ** -52 * (smax + state._mu_max)


def fw_vertex_search(state: QuadratureState) -> int:
    """Pool index minimizing sum_i w_i kappa(x_i, x) - mu_p(x); lowest-index ties.

    The score is pool_cross - pool_mu, in float64. A corrective state's
    pool_cross is a float32 screen, so there the score e_j is taken in float64
    from the k kernel values of x_j: kappa(x_j, x_i) w_i, summed along the
    row by numpy, minus mu_j, whose bits depend only on x_j and the iterate.
    Every pool point whose screened score is within 2D (D = _screen_bound) of
    the screened minimum is re-scored that way. A point whose e_j is the
    least has t_j <= e_j + D <= e_m + D <= t_m + 2D, m the screen's choice,
    so every minimizer of e is among them, and the lowest-index one is
    returned. A screen that passes one point has found it, with no re-score.
    """
    if state.pool.shape[0] == 0:
        raise ValueError("empty search pool")
    score = state.pool_cross - state.pool_mu
    best = int(np.argmin(score))
    if state.cols is None or state.n_chosen == 0:
        return best
    cand = np.flatnonzero(score <= score[best] + 2.0 * _screen_bound(state))
    if cand.size == 1:
        return best
    terms = _exp_sqdist(state.pool[cand], state.pool[state.idxs], -0.5 / state.kernel.sigma2)
    terms *= state.weights
    exact = terms.sum(axis=1) - state.pool_mu[cand]
    return int(cand[np.argmin(exact)])


def _line_search_step(gg: float, gmu: float, cross_v: float, mu_v: float) -> float:
    """Clipped minimizer of J((1 - t) g + t Phi(v)) over t in [0, 1].

    Takes <g, g>, <g, mu_p>, g(v) and mu_p(v); kappa(v, v) = 1.
    """
    denom = gg - 2.0 * cross_v + 1.0
    if denom < _DENOM_FLOOR:
        return 0.0
    num = gg - cross_v - gmu + mu_v
    return float(min(max(num / denom, 0.0), 1.0))


# ---------------------------------------------------------------------------
# Simplex-constrained QP: min_w w'Kw - 2c'w  s.t.  w >= 0, sum w = 1


class QpConvergenceError(NumericalError):
    """QP iteration cap hit; carries the last iterate, the lowest found."""

    def __init__(self, best: np.ndarray, residual: float):
        self.best = best
        self.residual = residual
        super().__init__(f"simplex QP did not reach tolerance (residual {residual:.3e})")


def _kkt_residual(grad: np.ndarray, w: np.ndarray) -> float:
    """Max of gradient spread on the support and complementarity violation."""
    support = w > _ACTIVE_EPS
    if not support.any():
        return np.inf
    g_sup = grad[support]
    spread = float(g_sup.max() - g_sup.min())
    lam = float(g_sup.min())
    inactive = ~support
    viol = float(np.maximum(lam - grad[inactive], 0.0).max()) if inactive.any() else 0.0
    return max(spread, viol)


def _support_minimizer(linear: np.ndarray, factor: SupportFactor) -> np.ndarray:
    """Minimizer of w'Kw - 2c'w on the affine hull {sum w = 1} of the support.

    With L the factor of K_SS, S its atoms, p = L^-1 c_S and q = L^-1 1 the
    minimizer, in factor order, is L^-T (p + mu q), mu = (1 - q'p) / q'q.
    """
    s = factor.size
    chol = factor.chol[:, :s]
    # one right-hand side per call: OpenBLAS threads a multi-column
    # triangular solve, which then costs milliseconds at this size
    p = _trtrs(chol, linear[factor.atoms], lower=1)[0]
    q = _trtrs(chol, np.ones(s), lower=1, overwrite_b=1)[0]
    p += ((1.0 - q @ p) / (q @ q)) * q
    return _trtrs(chol, p, lower=1, trans=1, overwrite_b=1)[0]


def simplex_qp_solve(gram: np.ndarray, linear: np.ndarray, tol: float = _QP_TOL,
                     w0=None, factor: SupportFactor | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Solve the simplex QP to a KKT residual of at most tol.

    Wolfe's min-norm-point method (Math. Programming 1976) in weight form, a
    primal active-set method. Each round minimizes the objective on the
    affine hull of the support (_support_minimizer). A minimizer with a
    negative weight is approached from the current iterate only until the
    first weight reaches zero, and the atoms at zero leave the support.
    Otherwise the minimizer becomes the iterate, and the outside atom of most
    negative gradient joins the support, until none undercuts the support's
    gradient by more than tol / 2. A warm start whose gradient spread on its
    support is already at most tol / 2, as the previous step's solution is,
    skips the first round's solve. No round raises the objective, so the
    last iterate is the lowest found. Rounds are capped at 10 (k+1)^2; an
    iterate whose KKT residual exceeds tol raises QpConvergenceError with it
    attached.

    gram is the (k, k) float Gram matrix of the chosen atoms, symmetric PSD,
    and linear their (k,) float mean-map values; neither is checked. w0 is an
    optional warm start, clipped at zero and renormalized. factor is the
    SupportFactor the last call left, with room for k atoms, or None for a
    fresh one. It is first made to factor w0's support, and an atom its span
    guard refuses, such as a duplicate of a support atom, keeps weight zero.

    Returns (w, grad): the weights and the objective's gradient
    2 (gram w - linear) at them.
    """
    k = linear.shape[0]
    w = np.ones(k) if w0 is None else np.maximum(np.asarray(w0, dtype=float).reshape(-1), 0.0)
    if w.sum() <= 0.0:
        w = np.ones(k)
    if factor is None:
        factor = SupportFactor(k)
    taken = np.zeros(k, dtype=bool)  # in the support, or refused by its guard
    taken[factor.atoms] = True
    for j in np.flatnonzero(taken != (w > 0.0)):  # make it factor w's support
        if taken[j]:
            factor.delete(int(np.flatnonzero(factor.atoms == j)[0]))
        elif not factor.append(j, gram[j], gram[j, j]):
            w[j] = 0.0
        taken[j] = not taken[j]
    w /= w.sum()
    grad = None
    if w0 is not None:
        grad = 2.0 * (gram @ w - linear)
        g_sup = grad[factor.atoms]
        if g_sup.max() - g_sup.min() > 0.5 * tol:
            grad = None
    for _ in range(10 * (k + 1) ** 2):
        idx = factor.atoms
        if grad is None:
            sol = _support_minimizer(linear, factor)
            neg = np.flatnonzero(sol < 0.0)
            if neg.size:
                w_s = w[idx]
                ratios = w_s[neg] / (w_s[neg] - sol[neg])
                t = ratios.min()
                w_s += t * (sol - w_s)
                hit = neg[(ratios == t) | (w_s[neg] <= 0.0)]
                w_s[hit] = 0.0
                w[idx] = w_s
                taken[idx[hit]] = False
                # last row first, so the rows still to go keep their places
                for r in hit[::-1]:
                    factor.delete(int(r))
                continue
            w[:] = 0.0
            w[idx] = sol
            w /= w.sum()
            grad = 2.0 * (gram @ w - linear)
        violations = np.where(taken, -np.inf, grad[idx].min() - grad)
        j = int(np.argmax(violations))
        if violations[j] <= 0.5 * tol:
            break
        taken[j] = True
        if factor.append(j, gram[j], gram[j, j]):
            grad = None
    if grad is None:
        grad = 2.0 * (gram @ w - linear)
    res = _kkt_residual(grad, w)
    if res <= tol:
        return w, grad
    raise QpConvergenceError(w, res)


# ---------------------------------------------------------------------------
# Main loop


def _advance(state: QuadratureState, variant: FwVariant) -> bool:
    """One iteration of Algorithm 1; returns False once no progress is possible."""
    idx = fw_vertex_search(state)
    known = idx in state.idxs
    first = state.n_chosen == 0
    col = None
    if not (known and variant is FwVariant.FCFW):
        col = state._column(idx)

    if variant is FwVariant.FCFW:
        if state.cols is None:
            raise ValueError("FCFW needs a state built with corrective=True")
        if not known:
            # a vertex the span guard refuses is treated as a known one
            known = not state._append_atom(idx, col)
        gram, linear = state.gram, state.mu_sel
        # appending at weight zero leaves the objective where the last step left it
        f_old = np.inf if first else state.gg - 2.0 * state.gmu
        residual = None
        try:
            w_new, grad = simplex_qp_solve(gram, linear, _QP_TOL,
                                           None if first else state.weights, state.factor)
        except QpConvergenceError as e:
            # the uncertified iterate is kept only if it lowers the objective
            w_new, residual = e.best, e.residual
            grad = 2.0 * (gram @ w_new - linear)
        gmu = float(w_new @ linear)
        gg = float(w_new @ grad) / 2.0 + gmu  # grad = 2 (K w - c)
        f_new = gg - 2.0 * gmu
        rejected = f_new > f_old + 1e-15
        if rejected:
            # never accept a worse corrective step than the warm start
            f_new = f_old
        else:
            state.weights[:] = w_new
            state.gg, state.gmu = gg, gmu
        if residual is not None:
            warnings.warn(
                f"FCFW corrective QP stopped at KKT residual {residual:.3e}; "
                f"its best iterate was {'rejected' if rejected else 'kept'}",
                RuntimeWarning, stacklevel=3,
            )
        state.pool_cross = state.weights.astype(np.float32) @ state.cols[:state.n_chosen]
        return not (known and f_new >= f_old - 1e-15)

    if first:
        gamma = 1.0
    elif variant is FwVariant.FW:
        gamma = 1.0 / (state.n_chosen + 1)
    else:
        gamma = _line_search_step(
            state.gg, state.gmu, state.pool_cross[idx], state.pool_mu[idx]
        )
        if gamma == 0.0:
            return False

    if variant is FwVariant.FW:
        # duplicates stay separate atoms so the emitted weights are exactly
        # uniform; the Gram matrix is never inverted for this variant
        state._append_atom(idx, col)
        state.weights[:] = 1.0 / state.n_chosen
    else:
        pos = int(np.flatnonzero(state.idxs == idx)[0]) if known else state.n_chosen
        if not known:
            state._append_atom(idx, col)
        w = state.weights
        w *= 1.0 - gamma
        w[pos] += gamma
    # (1 - gamma) * pool_cross + gamma * col, in place; col is not used again
    state.pool_cross *= 1.0 - gamma
    col *= gamma
    state.pool_cross += col
    state._refresh_inner_products()
    return True


def fw_quad(
    p: GaussianMixture,
    k: KernelConfig,
    n: int,
    m: int,
    variant: FwVariant = FwVariant.FW,
    rng_seed: int | None = 0,
    pool=None,
    objective_trace: list | None = None,
):
    """Quadrature rule of at most n atoms for the mixture p.

    Args:
        p: target mixture.
        k: kernel configuration (dimension must match p).
        n: iteration budget (atom count ceiling).
        m: search-pool size, m >= n.
        variant: step rule.
        rng_seed: seed for the pool draw (ignored when pool is given).
        pool: optional fixed (M, d) search points, bypassing the i.i.d. draw.
        objective_trace: optional list collecting J(g_k) after every iteration.

    Returns:
        (particles, fw_error): the weighted particle set (ancestry = generating
        mixture component where known) and the closed-form ||g - mu_p||. The
        set may hold fewer than n atoms: the run stops once the squared error
        falls under 1e-15, an FW-LS run once its line search returns a zero
        step, and an FCFW run once a step onto a chosen atom, or onto one the
        span guard refuses (see the module docstring), lowers the objective
        no further.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    comps = None
    if pool is None:
        rng = np.random.default_rng(rng_seed)
        pool, comps = p.sample(m, rng)
    else:
        pool = np.asarray(pool, dtype=float)
        m = pool.shape[0]
    if m < n:
        raise ValueError(f"pool size {m} smaller than particle budget {n}")
    # each iteration appends at most one atom, so n always suffice
    state = QuadratureState(p, k, pool, n, pool_components=comps,
                            corrective=variant is FwVariant.FCFW)
    for _ in range(n):
        progressed = _advance(state, variant)
        if objective_trace is not None:
            objective_trace.append(state.objective)
        if not progressed:
            break
        if 2.0 * state.objective < _ERR2_FLOOR:
            break
    err = state.fw_error
    out = state.chosen
    keep = out.weights > 0.0
    if not keep.all():
        w = out.weights[keep]
        out = WeightedParticleSet(
            out.points[keep], w / w.sum(),
            ancestry=None if out.ancestry is None else out.ancestry[keep],
        )
    return out, err
