"""Reference computations written apart from herdfilter.

Nothing in this file imports herdfilter. Each oracle is coded from the
formulas alone, so the benchmark can judge the program's outputs by a
computation that shares none of its code. `run.py` checks every oracle
against its package counterpart (`mmd`, `kalman_run`) once per run.
"""

from __future__ import annotations

import numpy as np


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(len(x), len(y)) squared Euclidean distances, by explicit differences."""
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


class IsoMixtureMmd:
    """Closed-form MMD between an isotropic Gaussian mixture and point sets.

    The mixture is sum_i w_i N(m_i, v_i I) on R^d and the kernel is
    exp(-|x - y|^2 / (2 s2)). Its mean embedding is
        mu(x) = sum_i w_i (s2 / (s2 + v_i))^(d/2) exp(-|x - m_i|^2 / (2 (s2 + v_i)))
    and its squared RKHS norm is
        sum_ij w_i w_j (s2 / t_ij)^(d/2) exp(-|m_i - m_j|^2 / (2 t_ij)),
        t_ij = s2 + v_i + v_j.
    """

    def __init__(self, weights, means, variances, sigma2: float):
        self.w = np.asarray(weights, dtype=float)
        self.mu = np.asarray(means, dtype=float)
        self.v = np.asarray(variances, dtype=float)
        self.sigma2 = float(sigma2)
        d = self.mu.shape[1]
        t = self.sigma2 + self.v[:, None] + self.v[None, :]
        gram = (self.sigma2 / t) ** (0.5 * d) * np.exp(-0.5 * _sq_dists(self.mu, self.mu) / t)
        self.sqnorm = float(self.w @ gram @ self.w)

    def embedding(self, x: np.ndarray) -> np.ndarray:
        d = self.mu.shape[1]
        t = self.sigma2 + self.v
        coef = self.w * (self.sigma2 / t) ** (0.5 * d)
        return np.exp(-0.5 * _sq_dists(x, self.mu) / t) @ coef

    def __call__(self, points, weights) -> float:
        x = np.asarray(points, dtype=float)
        a = np.asarray(weights, dtype=float)
        gram = np.exp(-0.5 * _sq_dists(x, x) / self.sigma2)
        radicand = self.sqnorm - 2.0 * a @ self.embedding(x) + a @ gram @ a
        if radicand < -1e-10:
            raise ArithmeticError(f"negative squared MMD {radicand}")
        return float(np.sqrt(max(radicand, 0.0)))


def kalman(a, c, q, r, m0, p0, ys) -> dict:
    """Plain covariance-form Kalman filter; t=1 updates the prior directly.

    Returns filtered means and covariances, the innovations and their
    covariances, and the cumulative log evidence, each indexed by t-1.
    """
    a, c, q, r = (np.asarray(v, dtype=float) for v in (a, c, q, r))
    ys = np.asarray(ys, dtype=float).reshape(len(ys), -1)
    mean = np.asarray(m0, dtype=float).copy()
    cov = np.asarray(p0, dtype=float).copy()
    n_t, dim = ys.shape[0], mean.shape[0]
    out = {
        "means": np.empty((n_t, dim)),
        "covs": np.empty((n_t, dim, dim)),
        "innov": np.empty(ys.shape),
        "innov_cov": np.empty((n_t, ys.shape[1], ys.shape[1])),
        "log_z": np.empty(n_t),
    }
    log_z = 0.0
    for t in range(n_t):
        if t > 0:
            mean = a @ mean
            cov = a @ cov @ a.T + q
        s = c @ cov @ c.T + r
        e = ys[t] - c @ mean
        gain = cov @ c.T @ np.linalg.inv(s)
        mean = mean + gain @ e
        cov = cov - gain @ s @ gain.T
        _, logdet = np.linalg.slogdet(2.0 * np.pi * s)
        log_z += -0.5 * (logdet + e @ np.linalg.solve(s, e))
        out["means"][t], out["covs"][t] = mean, cov
        out["innov"][t], out["innov_cov"][t] = e, s
        out["log_z"][t] = log_z
    return out


def clgss_uncoupled_joint() -> dict:
    """Joint linear-Gaussian form of `make_clgss(coupled=False)`, by hand.

    State (x, z1, z2) with
        x'  = 0.9 x                           (no noise, x_1 = 1 exactly)
        z'  = [[0.7, 0.2], [0, 0.6]] z + w,   w ~ N(0, 0.1 I),  z_1 ~ N(0, I)
        y   = 0.3 x + z1 + 0.5 z2 + e,        e ~ N(0, 0.1)
    """
    return {
        "a": np.array([[0.9, 0.0, 0.0], [0.0, 0.7, 0.2], [0.0, 0.0, 0.6]]),
        "c": np.array([[0.3, 1.0, 0.5]]),
        "q": np.diag([0.0, 0.1, 0.1]),
        "r": np.array([[0.1]]),
        "m0": np.array([1.0, 0.0, 0.0]),
        "p0": np.diag([0.0, 1.0, 1.0]),
    }
