"""State-space models and the synthetic benchmark systems.

Every model exposes the same batch surface: an initial Gaussian mixture,
the transition of a whole particle batch as per-particle Gaussian mixture
components over the next state (``transition_parts``), the log observation
density at every particle of a batch (``log_likelihood_batch``), and one
observation drawn at every particle of a batch (``sample_observation_batch``,
which only ``simulate`` calls). A single point is a one-row batch.
Markov-switching models carry their discrete mode as particle metadata; the
continuous state is all the kernels ever see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import block_diag, solve_triangular

from .errors import NumericalError
from .kernels import GaussianMixture, _inverse_cdf, safe_cholesky

__all__ = [
    "StateSpaceModel",
    "TransitionParts",
    "Trajectory",
    "LgssParams",
    "JmlsParams",
    "ClgssParams",
    "lgss_model",
    "jmls_model",
    "clgss_model",
    "make_lgss",
    "make_jmls",
    "make_nonlinear_benchmark",
    "make_clgss",
    "simulate",
]

_MAX_SYSTEM_DRAWS = 100


@dataclass(frozen=True)
class TransitionParts:
    """Vectorized one-step transition for a batch of particles.

    comp_weights: (N, C) rows summing to 1 (C mixture components per particle).
    means: (N, C, d) next-state means.
    cov_blocks: (B, d, d) distinct covariance matrices.
    cov_index: (C,) block index used by each component column.
    new_modes: (C,) discrete mode attached to each column, or None.
    """

    comp_weights: np.ndarray
    means: np.ndarray
    cov_blocks: np.ndarray
    cov_index: np.ndarray
    new_modes: np.ndarray | None = None


@dataclass(frozen=True)
class StateSpaceModel:
    dim_x: int
    dim_y: int
    initial: GaussianMixture
    transition_parts: Callable  # ((N,d) points, t, modes) -> TransitionParts
    log_likelihood_batch: Callable  # ((N,d) points, y, t, modes) -> (N,)
    sample_observation_batch: Callable  # ((N,d) points, t, rng, modes) -> (N, dim_y)
    n_modes: int = 0
    initial_mode_probs: np.ndarray | None = None


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # (T, dim_x), row t-1 holds x_t
    observations: np.ndarray  # (T, dim_y)
    modes: np.ndarray | None = None


@dataclass(frozen=True)
class LgssParams:
    trans_mat: np.ndarray  # (d, d)
    obs_mat: np.ndarray  # (m, d)
    process_cov: np.ndarray  # (d, d)
    obs_cov: np.ndarray  # (m, m)
    init_mean: np.ndarray  # (d,)
    init_cov: np.ndarray  # (d, d)


@dataclass(frozen=True)
class JmlsParams:
    switch_probs: np.ndarray  # (2, 2) row-stochastic
    mode_trans_mats: np.ndarray  # (2, d, d)
    mode_process_factors: np.ndarray  # (2, d, d), noise enters as F v
    mode_obs_mats: np.ndarray  # (2, m, d)
    mode_obs_factors: np.ndarray  # (2, m, m), noise enters as G e
    initial_mode_probs: np.ndarray  # (2,)
    init_mean: np.ndarray
    init_cov: np.ndarray


@dataclass(frozen=True)
class ClgssParams:
    """Hierarchical model: scalar nonlinear drift x, linear substate z given x.

        x_{t+1} = drift(x_t, t) + sqrt(drift_var) v_t
        z_{t+1} = lin_trans(x_t) z_t + w_t,  w_t ~ N(0, lin_process_cov)
        y_t     = lin_obs(x_t) z_t + obs_offset(x_t) + sqrt(obs_var) e_t

    With coupled=False every x-dependence is constant/linear and drift_var=0,
    so the joint (x, z) system is an LGSS with a deterministic x-part.

    The callables take a batch of N nonlinear coordinates, an (N,) array,
    and return one result per coordinate along a leading axis.
    """

    coupled: bool
    dim_z: int
    drift: Callable  # ((N,) x, t: int) -> (N,)
    drift_var: float
    lin_trans: Callable  # ((N,) x) -> (N, dim_z, dim_z)
    lin_process_cov: np.ndarray  # (dim_z, dim_z)
    lin_obs: Callable  # ((N,) x) -> (N, 1, dim_z)
    obs_offset: Callable  # ((N,) x) -> (N,)
    obs_var: float
    init_x_mean: float
    init_x_var: float
    init_z_mean: np.ndarray
    init_z_cov: np.ndarray


def _gauss_logpdf(resid: np.ndarray, cov_chol: np.ndarray) -> np.ndarray:
    """log N(resid; 0, LL') for rows of resid, L lower-triangular nonsingular."""
    resid = np.atleast_2d(resid)
    z = solve_triangular(cov_chol, resid.T, lower=True).T
    m = resid.shape[1]
    logdet = np.sum(np.log(np.diag(cov_chol)))
    return -0.5 * (m * np.log(2.0 * np.pi) + np.sum(z * z, axis=1)) - logdet


# ---------------------------------------------------------------------------
# LGSS


def lgss_model(params: LgssParams) -> StateSpaceModel:
    a = np.asarray(params.trans_mat, dtype=float)
    c = np.asarray(params.obs_mat, dtype=float)
    q = np.asarray(params.process_cov, dtype=float)
    r = np.asarray(params.obs_cov, dtype=float)
    m = c.shape[0]
    r_chol = safe_cholesky(r)
    r_singular = not np.all(np.diag(r_chol) > 0.0)
    cov_blocks = q[None]
    cov_index = np.zeros(1, dtype=np.intp)

    def transition_parts(points, t, modes=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        means = (pts @ a.T)[:, None, :]
        return TransitionParts(
            np.ones((pts.shape[0], 1)), means, cov_blocks, cov_index
        )

    def log_likelihood_batch(points, y, t, modes=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        resid = np.asarray(y, dtype=float).reshape(1, m) - pts @ c.T
        if r_singular:
            # exact observation limit: degenerate density, 0/-inf pattern
            hit = np.all(np.abs(resid) < 1e-12, axis=1)
            return np.where(hit, 0.0, -np.inf)
        return _gauss_logpdf(resid, r_chol)

    def sample_observation_batch(points, t, rng, modes=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ c.T + rng.standard_normal((pts.shape[0], m)) @ r_chol.T

    return StateSpaceModel(
        dim_x=a.shape[0],
        dim_y=m,
        initial=GaussianMixture(
            [1.0], np.asarray(params.init_mean, dtype=float)[None],
            np.asarray(params.init_cov, dtype=float)[None],
        ),
        transition_parts=transition_parts,
        log_likelihood_batch=log_likelihood_batch,
        sample_observation_batch=sample_observation_batch,
    )


def _disk_eigen_matrix(rng, d: int, radius: float = 0.9) -> np.ndarray:
    """Random real matrix with eigenvalues i.i.d. uniform in the radius-disk.

    Complex values come in conjugate pairs realized as 2x2 rotation-scaling
    blocks; an odd dimension gets one real eigenvalue. A random orthogonal
    similarity mixes the block structure away.
    """
    blocks = []
    if d % 2:
        blocks.append(np.array([[rng.uniform(-radius, radius)]]))
    for _ in range(d // 2):
        rho = radius * np.sqrt(rng.uniform())
        theta = rng.uniform(0.0, np.pi)
        re, im = rho * np.cos(theta), rho * np.sin(theta)
        blocks.append(np.array([[re, im], [-im, re]]))
    core = block_diag(*blocks)
    qmat, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return qmat @ core @ qmat.T


def _observability_rank(a: np.ndarray, c: np.ndarray) -> int:
    d = a.shape[0]
    rows = [c]
    for _ in range(d - 1):
        rows.append(rows[-1] @ a)
    return int(np.linalg.matrix_rank(np.vstack(rows)))


def _draw_observable_pair(rng, d: int, m: int):
    for _ in range(_MAX_SYSTEM_DRAWS):
        a = _disk_eigen_matrix(rng, d)
        c = rng.standard_normal((m, d))
        if _observability_rank(a, c) == d:
            return a, c
    raise NumericalError(f"no observable pair of order {d} in {_MAX_SYSTEM_DRAWS} draws")


def make_lgss(seed, d: int, m: int):
    """Random stable observable linear-Gaussian system.

    Process noise is unit white, observation noise has covariance 0.1 I, the
    initial state is standard normal.
    """
    if d < 1 or m < 1:
        raise ValueError("state and observation dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    a, c = _draw_observable_pair(rng, d, m)
    params = LgssParams(
        trans_mat=a,
        obs_mat=c,
        process_cov=np.eye(d),
        obs_cov=0.1 * np.eye(m),
        init_mean=np.zeros(d),
        init_cov=np.eye(d),
    )
    return lgss_model(params), params


# ---------------------------------------------------------------------------
# Jump Markov linear system


def jmls_model(params: JmlsParams) -> StateSpaceModel:
    pi = np.asarray(params.switch_probs, dtype=float)
    a = np.asarray(params.mode_trans_mats, dtype=float)
    f = np.asarray(params.mode_process_factors, dtype=float)
    c = np.asarray(params.mode_obs_mats, dtype=float)
    g = np.asarray(params.mode_obs_factors, dtype=float)
    n_modes, d = a.shape[0], a.shape[1]
    m = c.shape[1]
    cov_blocks = np.einsum("kij,klj->kil", f, f)  # F F' per mode
    cov_index = np.arange(n_modes, dtype=np.intp)
    new_modes = np.arange(n_modes, dtype=np.intp)
    obs_chols = np.stack([safe_cholesky(g[k] @ g[k].T) for k in range(n_modes)])

    def _require_modes(modes):
        if modes is None:
            raise ValueError("mode metadata is required for a switching model")
        return np.asarray(modes, dtype=np.intp)

    def transition_parts(points, t, modes=None):
        modes = _require_modes(modes)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        means = np.einsum("kij,nj->nki", a, pts)  # (N, modes, d)
        return TransitionParts(pi[modes], means, cov_blocks, cov_index, new_modes)

    def log_likelihood_batch(points, y, t, modes=None):
        modes = _require_modes(modes)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        y = np.asarray(y, dtype=float).reshape(m)
        out = np.empty(pts.shape[0])
        for k in range(n_modes):
            sel = modes == k
            if not sel.any():
                continue
            resid = y[None, :] - pts[sel] @ c[k].T
            out[sel] = _gauss_logpdf(resid, obs_chols[k])
        return out

    def sample_observation_batch(points, t, rng, modes=None):
        modes = _require_modes(modes)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        noise = rng.standard_normal((pts.shape[0], m))[:, :, None]
        return (c[modes] @ pts[:, :, None] + obs_chols[modes] @ noise)[:, :, 0]

    return StateSpaceModel(
        dim_x=d,
        dim_y=m,
        initial=GaussianMixture(
            [1.0], np.asarray(params.init_mean, dtype=float)[None],
            np.asarray(params.init_cov, dtype=float)[None],
        ),
        transition_parts=transition_parts,
        log_likelihood_batch=log_likelihood_batch,
        sample_observation_batch=sample_observation_batch,
        n_modes=n_modes,
        initial_mode_probs=np.asarray(params.initial_mode_probs, dtype=float),
    )


def make_jmls(seed):
    """Two-mode jump Markov linear system with fixed switching matrix.

    Both modes are random stable observable order-2 single-output systems;
    process noise enters directly (F = I) and observation noise is scaled to
    variance 0.1 (G = sqrt(0.1)).
    """
    rng = np.random.default_rng(seed)
    d, m = 2, 1
    mats, obs = [], []
    for _ in range(2):
        a, c = _draw_observable_pair(rng, d, m)
        mats.append(a)
        obs.append(c)
    params = JmlsParams(
        switch_probs=np.array([[0.7, 0.3], [0.3, 0.7]]),
        mode_trans_mats=np.stack(mats),
        mode_process_factors=np.stack([np.eye(d), np.eye(d)]),
        mode_obs_mats=np.stack(obs),
        mode_obs_factors=np.full((2, m, m), np.sqrt(0.1)),
        initial_mode_probs=np.array([0.5, 0.5]),
        init_mean=np.zeros(d),
        init_cov=np.eye(d),
    )
    return jmls_model(params), params


# ---------------------------------------------------------------------------
# Nonlinear benchmark


def _benchmark_drift(x, t):
    x = np.asarray(x, dtype=float)
    return 0.5 * x + 25.0 * x / (1.0 + x * x) + 8.0 * np.cos(1.2 * t)


def make_nonlinear_benchmark() -> StateSpaceModel:
    """Scalar benchmark: heavy nonlinearity in the drift, quadratic readout.

    x_{t+1} = 0.5 x + 25 x / (1 + x^2) + 8 cos(1.2 t) + v,  y = 0.05 x^2 + e,
    both noises standard normal, x_1 standard normal. The time index is the
    current step, 1-based at the first transition.
    """
    cov_blocks = np.ones((1, 1, 1))
    cov_index = np.zeros(1, dtype=np.intp)

    def transition_parts(points, t, modes=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        means = _benchmark_drift(pts[:, 0], t)[:, None, None]
        return TransitionParts(
            np.ones((pts.shape[0], 1)), means, cov_blocks, cov_index
        )

    def log_likelihood_batch(points, y, t, modes=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        resid = float(np.reshape(y, ())) - 0.05 * pts[:, 0] ** 2
        return -0.5 * (np.log(2.0 * np.pi) + resid * resid)

    def sample_observation_batch(points, t, rng, modes=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (0.05 * pts[:, 0] ** 2 + rng.standard_normal(pts.shape[0]))[:, None]

    return StateSpaceModel(
        dim_x=1,
        dim_y=1,
        initial=GaussianMixture([1.0], [[0.0]], [[[1.0]]]),
        transition_parts=transition_parts,
        log_likelihood_batch=log_likelihood_batch,
        sample_observation_batch=sample_observation_batch,
    )


# ---------------------------------------------------------------------------
# Conditionally linear-Gaussian model (joint form; the RBPF consumes params)


def clgss_model(params: ClgssParams) -> StateSpaceModel:
    """Joint (x, z) state-space view of a conditionally linear model."""
    dz = params.dim_z
    d = 1 + dz
    joint_cov = block_diag(np.array([[params.drift_var]]), params.lin_process_cov)
    cov_blocks = joint_cov[None]
    cov_index = np.zeros(1, dtype=np.intp)
    sqrt_r = float(np.sqrt(params.obs_var))

    def _mean_rows(pts, t):
        x, z = pts[:, 0], pts[:, 1:, None]
        out = np.empty_like(pts)
        out[:, 0] = params.drift(x, t)
        out[:, 1:] = (params.lin_trans(x) @ z)[:, :, 0]
        return out

    def transition_parts(points, t, modes=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return TransitionParts(
            np.ones((pts.shape[0], 1)), _mean_rows(pts, t)[:, None, :],
            cov_blocks, cov_index,
        )

    def _obs_mean(pts):
        x, z = pts[:, 0], pts[:, 1:, None]
        return (params.lin_obs(x) @ z)[:, 0, 0] + params.obs_offset(x)

    def log_likelihood_batch(points, y, t, modes=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        resid = float(np.reshape(y, ())) - _obs_mean(pts)
        return (
            -0.5 * (np.log(2.0 * np.pi * params.obs_var) + resid * resid / params.obs_var)
        )

    def sample_observation_batch(points, t, rng, modes=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (_obs_mean(pts) + sqrt_r * rng.standard_normal(pts.shape[0]))[:, None]

    init_mean = np.concatenate([[params.init_x_mean], params.init_z_mean])
    init_cov = block_diag(np.array([[params.init_x_var]]), params.init_z_cov)
    return StateSpaceModel(
        dim_x=d,
        dim_y=1,
        initial=GaussianMixture([1.0], init_mean[None], init_cov[None]),
        transition_parts=transition_parts,
        log_likelihood_batch=log_likelihood_batch,
        sample_observation_batch=sample_observation_batch,
    )


def _rows(x, mat) -> np.ndarray:
    """One copy of mat per coordinate in x, stacked along a leading axis."""
    return np.tile(np.asarray(mat, dtype=float), (np.shape(x)[0], 1, 1))


def _coupled_lin_trans(x):
    out = _rows(x, [[0.7, 0.0], [0.0, 0.6]])
    out[:, 0, 1] = 0.2 * np.sin(x)
    return out


def _coupled_lin_obs(x):
    out = _rows(x, [[1.0, 0.0]])
    out[:, 0, 1] = 0.5 * np.cos(x)
    return out


def make_clgss(seed, coupled: bool = True):
    """Small hierarchical test model: nonlinear scalar x over a linear 2-d z.

    coupled=False freezes every x-dependence to a constant, drops the x noise
    and makes the drift linear, so the joint system collapses to an LGSS with
    a deterministic x-part (the RBPF-vs-Kalman equivalence case).
    """
    del seed  # the model is fixed; kept for interface parity with the makers
    if coupled:
        params = ClgssParams(
            coupled=True,
            dim_z=2,
            drift=_benchmark_drift,
            drift_var=1.0,
            lin_trans=_coupled_lin_trans,
            lin_process_cov=0.1 * np.eye(2),
            lin_obs=_coupled_lin_obs,
            obs_offset=lambda x: 0.05 * x * x,
            obs_var=0.1,
            init_x_mean=0.0,
            init_x_var=1.0,
            init_z_mean=np.zeros(2),
            init_z_cov=np.eye(2),
        )
    else:
        params = ClgssParams(
            coupled=False,
            dim_z=2,
            drift=lambda x, t: 0.9 * x,
            drift_var=0.0,
            lin_trans=lambda x: _rows(x, [[0.7, 0.2], [0.0, 0.6]]),
            lin_process_cov=0.1 * np.eye(2),
            lin_obs=lambda x: _rows(x, [[1.0, 0.5]]),
            obs_offset=lambda x: 0.3 * x,
            obs_var=0.1,
            init_x_mean=1.0,
            init_x_var=0.0,
            init_z_mean=np.zeros(2),
            init_z_cov=np.eye(2),
        )
    return clgss_model(params), params


# ---------------------------------------------------------------------------
# Simulation


def simulate(model: StateSpaceModel, T: int, seed) -> Trajectory:
    """Ancestral draw of (x_{1:T}, y_{1:T}); bit-identical under one seed."""
    if T < 1:
        raise ValueError("T must be >= 1")
    rng = np.random.default_rng(seed)
    states = np.empty((T, model.dim_x))
    obs = np.empty((T, model.dim_y))
    has_modes = model.n_modes > 0
    modes = np.empty(T, dtype=np.intp) if has_modes else None

    # x and mode are one-row batches: (1, dim_x) and (1,)
    x, _ = model.initial.sample(1, rng)
    mode = _inverse_cdf(model.initial_mode_probs, rng.random(1)) if has_modes else None
    chol_cache: dict[int, np.ndarray] = {}
    for t in range(1, T + 1):
        states[t - 1] = x[0]
        if has_modes:
            modes[t - 1] = mode[0]
        obs[t - 1] = model.sample_observation_batch(x, t, rng, mode)[0]
        if t == T:
            break
        parts = model.transition_parts(x, t, mode)
        comp = int(_inverse_cdf(parts.comp_weights[0], rng.random()))
        bi = int(parts.cov_index[comp])
        if bi not in chol_cache:
            chol_cache[bi] = safe_cholesky(parts.cov_blocks[bi])
        x = parts.means[0, comp:comp + 1] + chol_cache[bi] @ rng.standard_normal(model.dim_x)
        if parts.new_modes is not None:
            mode = parts.new_modes[comp:comp + 1]
    return Trajectory(states, obs, modes)
