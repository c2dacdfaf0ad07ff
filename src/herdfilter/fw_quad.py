"""Frank-Wolfe quadrature against a Gaussian-mixture target.

Greedy kernel herding with three step rules: plain FW steps gamma = 1/(k+1)
(uniform weights), analytic line search, and the fully corrective variant that
re-solves a simplex-constrained QP over all chosen atoms after every vertex
(the optimally-weighted herding of Bach, Lacoste-Julien & Obozinski, ICML
2012). That QP's optimum is the point of the atoms' convex hull nearest the
target's mean embedding, and Wolfe's min-norm-point method (Math. Programming
1976), run as an active-set loop over the weights on the state's own Gram
matrix and mean-map vector, unchecked arrays, finds it exactly.
The vertex search is exhaustive over a pool of M i.i.d. draws from the target,
with the running correlation sum_i w_i kappa(x_i, .) maintained incrementally
so a full run costs O(NM) kernel evaluations (O(N^2 M) for the corrective
variant).

Beyond the pool and the n x n Gram matrix, FW and FW-LS keep O(M) floats.
Set-up evaluates the target's closed-form mean map at the pool in row tiles
of about 1 MB (kernels._TILE_BYTES), never as an M x K block for a K-component
target, and the loop folds each new atom's kernel column into the running
correlation and drops it. The fully corrective variant re-weights every atom
after each step, so it keeps every chosen atom's column in one n x M buffer
allocated up front (8nM bytes: 32 MB at n=200, M=20000) and rebuilds the
correlation with one vector-matrix product. When its simplex QP stops short of
tolerance it carries on from the best iterate, if that lowers the objective,
and says so with a RuntimeWarning.
"""

from __future__ import annotations

import enum
import warnings

import numpy as np

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
    "fw_quad",
    "fw_vertex_search",
    "simplex_qp_solve",
    "simplex_qp_kkt_residual",
]

_DENOM_FLOOR = 1e-14
_ERR2_FLOOR = 1e-15  # squared-error level treated as exact recovery
_QP_TOL = 1e-10
_ACTIVE_EPS = 1e-12  # the KKT residual counts weights above this as support


class FwVariant(enum.Enum):
    """Step rule: plain 1/(k+1) steps, analytic line search, fully corrective."""

    FW = "fw"
    FW_LS = "fw-ls"
    FCFW = "fcfw"


class QuadratureState:
    """Working state of one quadrature run.

    Holds the search pool with precomputed mean-map values and the current
    iterate g_k = sum_i w_i Phi(x_i) in expanded form (chosen pool indices,
    weights, their Gram matrix). The empty state represents g_0 = 0.

    With col_capacity > 0 the state also keeps the kernel column
    kappa(x_i, pool) of each chosen atom as row i of `cols`, a row-major
    (col_capacity, M) buffer allocated once; the fully corrective step needs
    it, and col_capacity bounds the atom count. With the default 0, `cols` is
    None and no column outlives the step that uses it.
    """

    def __init__(self, target: GaussianMixture, kernel: KernelConfig, pool,
                 pool_components=None, col_capacity: int = 0):
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
        self.sqnorm = mean_map_sqnorm(target, kernel)
        m = self.pool.shape[0]
        self.pool_cross = np.zeros(m)  # sum_i w_i kappa(x_i, pool_j)
        self.idxs: list[int] = []
        self.weights = np.zeros(0)
        self.gram = np.zeros((0, 0))
        self.mu_sel = np.zeros(0)
        self.cols = np.empty((col_capacity, m)) if col_capacity > 0 else None
        self.gg = 0.0   # <g, g>
        self.gmu = 0.0  # <g, mu_p>

    @property
    def n_chosen(self) -> int:
        return len(self.idxs)

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
        if not self.idxs:
            raise ValueError("no atoms chosen yet (iterate is g_0 = 0)")
        sel = np.asarray(self.idxs, dtype=np.intp)
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

    def _append_atom(self, idx: int, col: np.ndarray):
        sel = np.asarray(self.idxs, dtype=np.intp)
        row = col[sel]
        n = len(self.idxs)
        gram = np.empty((n + 1, n + 1))
        gram[:n, :n] = self.gram
        gram[n, :n] = row
        gram[:n, n] = row
        gram[n, n] = 1.0
        self.gram = gram
        self.idxs.append(int(idx))
        self.mu_sel = np.append(self.mu_sel, self.pool_mu[idx])
        self.weights = np.append(self.weights, 0.0)
        if self.cols is not None:
            self.cols[n] = col


def fw_vertex_search(state: QuadratureState) -> int:
    """Pool index minimizing sum_i w_i kappa(x_i, x) - mu_p(x); lowest-index ties."""
    if state.pool.shape[0] == 0:
        raise ValueError("empty search pool")
    return int(np.argmin(state.pool_cross - state.pool_mu))


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


def simplex_qp_kkt_residual(gram: np.ndarray, linear: np.ndarray, w: np.ndarray) -> float:
    """Max of gradient spread on the support and complementarity violation."""
    g = 2.0 * (gram @ w - linear)
    support = w > _ACTIVE_EPS
    if not support.any():
        return np.inf
    g_sup = g[support]
    spread = float(g_sup.max() - g_sup.min())
    lam = float(g_sup.min())
    inactive = ~support
    viol = float(np.maximum(lam - g[inactive], 0.0).max()) if inactive.any() else 0.0
    return max(spread, viol)


def _objective(gram: np.ndarray, linear: np.ndarray, w: np.ndarray) -> float:
    return float(w @ (gram @ w) - 2.0 * linear @ w)


def simplex_qp_solve(gram: np.ndarray, linear: np.ndarray, tol: float = _QP_TOL,
                     w0=None) -> np.ndarray:
    """Solve the simplex QP to a KKT residual of at most tol.

    Wolfe's min-norm-point method (Math. Programming 1976) in weight form, a
    primal active-set method. Each round solves the KKT system of the QP
    restricted to the affine hull of the support. A minimizer with a negative
    weight is approached from the current iterate only until the first weight
    reaches zero, and the atoms at zero leave the support. Otherwise the
    minimizer becomes the iterate, and the outside atom of most negative
    gradient joins the support, until none undercuts the support's gradient
    by more than tol / 2. No round raises the objective, so the last iterate
    is the lowest found. Rounds are capped at 10 (k+1)^2; an iterate whose
    KKT residual exceeds tol raises QpConvergenceError with it attached.

    gram is the (k, k) float Gram matrix of the chosen atoms, symmetric PSD,
    and linear their (k,) float mean-map values; neither is checked. w0 is an
    optional warm start, clipped at zero and renormalized.
    """
    k = linear.shape[0]
    if k == 1:
        return np.ones(1)
    if w0 is None:
        w = np.full(k, 1.0 / k)
    else:
        w = np.maximum(np.asarray(w0, dtype=float).reshape(-1), 0.0)
        w = w / w.sum() if w.sum() > 0 else np.full(k, 1.0 / k)
    support = w > 0.0
    for _ in range(10 * (k + 1) ** 2):
        idx = np.flatnonzero(support)
        s = idx.size
        kkt = np.zeros((s + 1, s + 1))
        kkt[:s, :s] = 2.0 * gram[np.ix_(idx, idx)]
        kkt[:s, s] = 1.0
        kkt[s, :s] = 1.0
        rhs = np.concatenate([2.0 * linear[idx], [1.0]])
        try:
            sol = np.linalg.solve(kkt, rhs)[:s]
        except np.linalg.LinAlgError:
            ridge = np.eye(s + 1) * 1e-12
            ridge[s, s] = 0.0
            sol = np.linalg.lstsq(kkt + ridge, rhs, rcond=None)[0][:s]
        neg = np.flatnonzero(sol < 0.0)
        if neg.size:
            w_s = w[idx]
            ratios = w_s[neg] / (w_s[neg] - sol[neg])
            t = ratios.min()
            w_s += t * (sol - w_s)
            hit = neg[(ratios == t) | (w_s[neg] <= 0.0)]
            w_s[hit] = 0.0
            w[idx] = w_s
            support[idx[hit]] = False
            continue
        w[:] = 0.0
        w[idx] = sol
        w /= w.sum()
        grad = 2.0 * (gram @ w - linear)
        violations = np.where(support, -np.inf, grad[idx].min() - grad)
        j = int(np.argmax(violations))
        if violations[j] <= 0.5 * tol:
            break
        support[j] = True
    res = simplex_qp_kkt_residual(gram, linear, w)
    if res <= tol:
        return w
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
            raise ValueError("FCFW needs a state built with col_capacity > 0")
        if not known:
            state._append_atom(idx, col)
        gram, linear = state.gram, state.mu_sel
        f_old = _objective(gram, linear, state.weights) if not first else np.inf
        residual = None
        try:
            w_new = simplex_qp_solve(gram, linear, tol=_QP_TOL,
                                     w0=None if first else state.weights)
        except QpConvergenceError as e:
            # the uncertified iterate is kept only if it lowers the objective
            w_new = e.best
            residual = e.residual
        f_new = _objective(gram, linear, w_new)
        rejected = f_new > f_old + 1e-15
        if rejected:
            # never accept a worse corrective step than the warm start
            w_new = state.weights
            f_new = f_old
        if residual is not None:
            warnings.warn(
                f"FCFW corrective QP stopped at KKT residual {residual:.3e}; "
                f"its best iterate was {'rejected' if rejected else 'kept'}",
                RuntimeWarning, stacklevel=3,
            )
        no_progress = known and f_new >= f_old - 1e-15
        state.weights = w_new
        state.pool_cross = state.weights @ state.cols[:state.n_chosen]
        state._refresh_inner_products()
        return not no_progress

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
        state.weights = np.full(state.n_chosen, 1.0 / state.n_chosen)
    else:
        if known:
            pos = state.idxs.index(idx)
            state.weights = (1.0 - gamma) * state.weights
            state.weights[pos] += gamma
        else:
            state._append_atom(idx, col)
            state.weights = (1.0 - gamma) * state.weights
            state.weights[-1] = gamma
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
        falls under 1e-15.
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
    # FCFW appends at most one atom per iteration, so n rows always suffice
    state = QuadratureState(
        p, k, pool, pool_components=comps,
        col_capacity=n if variant is FwVariant.FCFW else 0,
    )
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
