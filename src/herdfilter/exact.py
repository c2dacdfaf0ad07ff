"""Ground-truth filters: Kalman, exhaustive mode-branch Kalman, 1-d grid.

These are the references the stochastic filters are judged against. The
Kalman update uses the Joseph covariance form so long runs keep symmetric
PSD covariances; the switching-system filter enumerates every mode history
(exact, exponential in T, capped); the grid filter is an independent
trapezoid-rule oracle for scalar models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import NumericalError
from .kernels import safe_cholesky
from .models import JmlsParams, LgssParams, StateSpaceModel

__all__ = [
    "GaussianBelief",
    "KalmanTrace",
    "JmlsBranch",
    "JmlsExactResult",
    "GridFilterResult",
    "kalman_update",
    "kalman_step",
    "kalman_run",
    "jmls_exact_filter",
    "grid_filter",
]

_BRANCH_CAP = 1 << 20
_EDGE_MASS_TOL = 1e-6


def _as_obs_seq(y_seq) -> np.ndarray:
    """(T, m) observation array; 1-d input is treated as T scalars."""
    y = np.asarray(y_seq, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2 or y.shape[0] < 1:
        raise ValueError(f"observation sequence must be (T, m), got {y.shape}")
    return y


@dataclass(frozen=True)
class GaussianBelief:
    mean: np.ndarray
    cov: np.ndarray
    log_evidence: float = 0.0


def _symmetrize(cov: np.ndarray) -> np.ndarray:
    return 0.5 * (cov + np.swapaxes(cov, -1, -2))


def _gauss_update(mean, cov, c, r, y):
    """Measurement update of a batch of Gaussian beliefs.

    mean (..., d) and cov (..., d, d) may carry leading batch axes, one per
    particle or branch; c (..., m, d), r (..., m, m) and y (..., m) broadcast
    against them. Returns the posterior means and covariances and the
    log-likelihood increments, shape (...).
    Joseph form keeps each posterior covariance symmetric PSD regardless of
    gain round-off. A non-positive-definite innovation covariance raises.
    """
    ct = np.swapaxes(c, -1, -2)
    innov = np.asarray(y, dtype=float) - (c @ mean[..., None])[..., 0]
    s = _symmetrize(c @ cov @ ct + r)
    try:
        s_chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("innovation covariance not positive definite") from exc
    gain = cov @ ct @ np.linalg.inv(s)
    post_mean = mean + (gain @ innov[..., None])[..., 0]
    ikc = np.eye(cov.shape[-1]) - gain @ c
    post_cov = _symmetrize(
        ikc @ cov @ np.swapaxes(ikc, -1, -2) + gain @ r @ np.swapaxes(gain, -1, -2)
    )
    z = np.linalg.solve(s_chol, innov[..., None])[..., 0]
    log_inc = -0.5 * (innov.shape[-1] * np.log(2.0 * np.pi) + np.sum(z * z, axis=-1)) - (
        np.sum(np.log(np.diagonal(s_chol, axis1=-2, axis2=-1)), axis=-1)
    )
    return post_mean, post_cov, log_inc


def kalman_update(belief: GaussianBelief, params: LgssParams, y) -> GaussianBelief:
    """Measurement-only update of the belief with one observation."""
    c = np.asarray(params.obs_mat, dtype=float)
    r = np.asarray(params.obs_cov, dtype=float)
    mean, cov, inc = _gauss_update(
        np.asarray(belief.mean, dtype=float), np.asarray(belief.cov, dtype=float), c, r, y
    )
    return GaussianBelief(mean, cov, belief.log_evidence + float(inc))


def kalman_step(belief: GaussianBelief, params: LgssParams, y) -> GaussianBelief:
    """Time update through the dynamics, then measurement update."""
    a = np.asarray(params.trans_mat, dtype=float)
    q = np.asarray(params.process_cov, dtype=float)
    pred = GaussianBelief(
        a @ belief.mean, _symmetrize(a @ belief.cov @ a.T + q), belief.log_evidence
    )
    return kalman_update(pred, params, y)


@dataclass(frozen=True)
class KalmanTrace:
    pred_means: np.ndarray  # (T, d) predictive (pre-update) means
    pred_covs: np.ndarray  # (T, d, d)
    filt_means: np.ndarray  # (T, d) filtered (post-update) means
    filt_covs: np.ndarray  # (T, d, d)
    log_evidence: np.ndarray  # (T,) cumulative


def kalman_run(params: LgssParams, y_seq) -> KalmanTrace:
    """Full filtering pass: t=1 updates the initial belief directly."""
    y_seq = _as_obs_seq(y_seq)
    T = y_seq.shape[0]
    d = np.asarray(params.init_mean).shape[0]
    pred_means = np.empty((T, d))
    pred_covs = np.empty((T, d, d))
    filt_means = np.empty((T, d))
    filt_covs = np.empty((T, d, d))
    log_ev = np.empty(T)
    belief = GaussianBelief(
        np.asarray(params.init_mean, dtype=float),
        np.asarray(params.init_cov, dtype=float),
    )
    a = np.asarray(params.trans_mat, dtype=float)
    q = np.asarray(params.process_cov, dtype=float)
    for t in range(T):
        if t > 0:
            belief = GaussianBelief(
                a @ belief.mean,
                _symmetrize(a @ belief.cov @ a.T + q),
                belief.log_evidence,
            )
        pred_means[t] = belief.mean
        pred_covs[t] = belief.cov
        belief = kalman_update(belief, params, y_seq[t])
        filt_means[t] = belief.mean
        filt_covs[t] = belief.cov
        log_ev[t] = belief.log_evidence
    return KalmanTrace(pred_means, pred_covs, filt_means, filt_covs, log_ev)


# ---------------------------------------------------------------------------
# Exact filter for the switching system: one Kalman branch per mode history


@dataclass(frozen=True)
class JmlsBranch:
    log_weight: float
    belief: GaussianBelief
    history: tuple


@dataclass(frozen=True)
class JmlsExactResult:
    filt_means: np.ndarray  # (T, d)
    filt_covs: np.ndarray  # (T, d, d)
    log_evidence: np.ndarray  # (T,) cumulative
    branches: list  # final-time JmlsBranch list, length 2^T


def _mixture_moments(log_weights, means, covs):
    w = np.exp(log_weights - logsumexp(log_weights))
    mean = w @ means
    centered = means - mean
    cov = np.einsum("b,bij->ij", w, covs) + np.einsum(
        "b,bi,bj->ij", w, centered, centered
    )
    return mean, _symmetrize(cov)


def jmls_exact_filter(params: JmlsParams, y_seq) -> JmlsExactResult:
    """Exhaustive mode-history enumeration; exact but exponential in T.

    Each history r_{1:t} carries its own Kalman recursion; the filtering
    moments are the weight-mixture over histories. No pruning: exactness is
    the point, so T is capped at 2^20 total branches.
    """
    y_seq = _as_obs_seq(y_seq)
    T = y_seq.shape[0]
    n_modes = params.switch_probs.shape[0]
    if n_modes**T > _BRANCH_CAP:
        raise ValueError(f"{n_modes}^{T} branches exceed the cap of 2^20")
    a = np.asarray(params.mode_trans_mats, dtype=float)
    f = np.asarray(params.mode_process_factors, dtype=float)
    c = np.asarray(params.mode_obs_mats, dtype=float)
    g = np.asarray(params.mode_obs_factors, dtype=float)
    proc_covs = np.einsum("kij,klj->kil", f, f)
    obs_covs = np.einsum("kij,klj->kil", g, g)
    with np.errstate(divide="ignore"):
        log_pi = np.log(np.asarray(params.switch_probs, dtype=float))
        log_init = np.log(np.asarray(params.initial_mode_probs, dtype=float))

    d = a.shape[1]
    filt_means = np.empty((T, d))
    filt_covs = np.empty((T, d, d))
    log_ev = np.empty(T)

    # one row per mode history; branch b at time t spawns rows
    # b * n_modes + k at time t + 1, one for each next mode k
    means, covs, lw = _gauss_update(
        np.asarray(params.init_mean, dtype=float),
        np.asarray(params.init_cov, dtype=float),
        c, obs_covs, y_seq[0],
    )
    lw = lw + log_init
    hist = np.arange(n_modes)[:, None]
    for t in range(T):
        if t > 0:
            pm = (a @ means[:, None, :, None])[..., 0]  # (B, modes, d)
            pc = _symmetrize(a @ covs[:, None] @ np.swapaxes(a, -1, -2) + proc_covs)
            m, cv, inc = _gauss_update(pm, pc, c, obs_covs, y_seq[t])
            lw = (lw[:, None] + log_pi[hist[:, -1]] + inc).reshape(-1)
            means, covs = m.reshape(-1, d), cv.reshape(-1, d, d)
            hist = np.hstack([
                np.repeat(hist, n_modes, axis=0),
                np.tile(np.arange(n_modes), hist.shape[0])[:, None],
            ])
        filt_means[t], filt_covs[t] = _mixture_moments(lw, means, covs)
        log_ev[t] = logsumexp(lw)
    branches = [
        JmlsBranch(float(w), GaussianBelief(mu, cv), tuple(int(k) for k in h))
        for w, mu, cv, h in zip(lw, means, covs, hist)
    ]
    return JmlsExactResult(filt_means, filt_covs, log_ev, branches)


# ---------------------------------------------------------------------------
# Trapezoid-rule sequential Bayes on a fixed 1-d grid


@dataclass(frozen=True)
class GridFilterResult:
    xs: np.ndarray  # (n,)
    densities: np.ndarray  # (T, n) normalized filtering densities
    means: np.ndarray  # (T,)
    log_evidence: np.ndarray  # (T,) cumulative
    edge_flags: np.ndarray  # (T,) bool, True where boundary mass > 1e-6
    boundary_warning: bool


def grid_filter(model: StateSpaceModel, y_seq, grid) -> GridFilterResult:
    """Sequential Bayes by trapezoid quadrature on [lo, hi] with n points.

    grid is (lo, hi, n). The transition kernel is evaluated exactly on the
    grid; a zero-variance (deterministic) transition routes each point's mass
    to the nearest grid node. Mass of more than 1e-6 sitting on the boundary
    nodes raises the per-step edge flag, signalling a too-small grid.
    """
    if model.dim_x != 1:
        raise ValueError("grid filter handles scalar-state models only")
    lo, hi, n = grid
    if not (hi > lo and n >= 3):
        raise ValueError("grid must be (lo, hi, n) with hi > lo and n >= 3")
    y_seq = _as_obs_seq(y_seq)
    T = y_seq.shape[0]
    xs = np.linspace(lo, hi, int(n))
    dx = xs[1] - xs[0]
    trap_w = np.full(xs.size, dx)
    trap_w[0] = trap_w[-1] = 0.5 * dx

    densities = np.empty((T, xs.size))
    means = np.empty(T)
    log_ev = np.empty(T)
    edge = np.zeros(T, dtype=bool)

    density = model.initial.pdf(xs[:, None])
    total = 0.0
    for t in range(1, T + 1):
        if t > 1:
            parts = model.transition_parts(xs[:, None], t - 1)
            if parts.comp_weights.shape[1] != 1:
                raise ValueError("grid filter needs a single-component transition")
            drift = parts.means[:, 0, 0]
            var = float(parts.cov_blocks[parts.cov_index[0], 0, 0])
            mass = density * trap_w
            if var == 0.0:
                density = np.zeros_like(density)
                dest = np.clip(np.rint((drift - lo) / dx).astype(int), 0, xs.size - 1)
                np.add.at(density, dest, mass / trap_w[dest])
            else:
                kern = np.exp(-0.5 * (xs[:, None] - drift[None, :]) ** 2 / var)
                kern /= np.sqrt(2.0 * np.pi * var)
                density = kern @ mass
        log_lik = model.log_likelihood_batch(xs[:, None], y_seq[t - 1], t)
        top = float(np.max(log_lik))
        if not np.isfinite(top):
            raise NumericalError(f"grid filter lost all mass at t={t}")
        # shifted by the largest log-likelihood so a sharp observation
        # cannot underflow every node; the shift returns in the evidence
        unnorm = density * np.exp(log_lik - top)
        z = float(unnorm @ trap_w)
        if not (np.isfinite(z) and z > 0.0):
            raise NumericalError(f"grid filter lost all mass at t={t}")
        density = unnorm / z
        total += np.log(z) + top
        densities[t - 1] = density
        means[t - 1] = float((xs * density) @ trap_w)
        log_ev[t - 1] = total
        edge[t - 1] = (density[0] + density[-1]) * dx > _EDGE_MASS_TOL
    return GridFilterResult(xs, densities, means, log_ev, edge, bool(edge.any()))
