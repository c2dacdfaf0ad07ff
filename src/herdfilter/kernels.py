"""Gaussian-kernel RKHS machinery: mixtures, particle sets, mean maps, MMD.

Everything here works with the kernel kappa(x, y) = exp(-||x-y||^2 / (2 sigma2)),
whose mean embedding of a Gaussian mixture is available in closed form. That
closed form is what makes herding against a mixture target cheap: no quadrature
is ever needed to evaluate the embedding or the MMD to a finite particle set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from .errors import NumericalError

__all__ = [
    "KernelConfig",
    "GaussianMixture",
    "WeightedParticleSet",
    "kernel_cross",
    "mean_map_eval_batch",
    "mean_map_sqnorm",
    "mmd",
    "safe_cholesky",
]

_WEIGHT_TOL = 1e-12
_MMD_CLAMP = -1e-10
_JITTER_SCALE = 1e-12
# _exp_dot's row tiles: about 1 MB of float64 each, a multiple of
# _ROW_GROUP rows
_TILE_BYTES = 1 << 20
_ROW_GROUP = 16
# fewest draws for which _inverse_cdf builds its index table: with about
# 30 us of fixed cost the table loses to binary search on 1,024 unsorted
# draws over 100 components and on 2,000 sorted draws over 2,000
_INDEXED_MIN_DRAWS = 2048


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel exp(-||x-y||^2 / (2 sigma2)) on R^dim."""

    sigma2: float
    dim: int

    def __post_init__(self):
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ValueError(f"sigma2 must be finite and positive, got {self.sigma2}")
        if int(self.dim) < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")


def safe_cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with a single trace-scaled jitter retry.

    Exact zero diagonal entries (PSD forces their whole row to zero) are
    carved out first so block-singular covariances like diag(0, K) factor
    exactly, without jitter noise; a nonzero entry elsewhere in such a row
    means the input was never PSD and raises. Remaining singular inputs get
    1e-12 * trace/d added to the diagonal; an all-zero matrix factors to
    zero. A second failure raises NumericalError.
    """
    mat = np.asarray(mat, dtype=float)
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    d = mat.shape[-1]
    tr = float(np.trace(mat))
    if tr == 0.0 and not mat.any():
        return np.zeros_like(mat)
    live = np.diag(mat) != 0.0
    if not live.all():
        dead = ~live
        if mat[dead].any() or mat[:, dead].any():
            raise NumericalError("zero-variance row carries nonzero covariance")
        out = np.zeros_like(mat)
        out[np.ix_(live, live)] = safe_cholesky(mat[np.ix_(live, live)])
        return out
    jitter = _JITTER_SCALE * tr / d
    try:
        return np.linalg.cholesky(mat + jitter * np.eye(d))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance not factorizable even after jitter") from exc


def _as_points(arr, name="points") -> np.ndarray:
    """Coerce to a (N, d) float array; 1-d input is treated as N scalars."""
    out = np.asarray(arr, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2:
        raise ValueError(f"{name} must be (N, d), got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _check_convex(weights: np.ndarray):
    """Raise unless the weights are nonnegative, finite and sum to one."""
    if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be nonnegative and finite")
    if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"weights sum to {weights.sum()!r}, not 1")


def _inverse_cdf(weights, u):
    """Categorical indices of the uniforms u in [0, 1) by inverse CDF over weights.

    The index of u is searchsorted(cum, u, side="right") over the cumulative
    weights cum, whose last entry is pinned to 1, so round-off in the sum
    never lets a uniform fall past the last category. Below
    max(K, _INDEXED_MIN_DRAWS) draws that binary search is what runs. Larger
    batches take an indexed search (Chen & Asau 1974; Devroye 1986, III.2)
    that returns the same index. The table size G is the power of two above
    3K/2, whose load under 2/3 leaves few crowded buckets in a small table.
    u*G and cum*G are exact, so bucket b = floor(u*G) starts at
    lo[b] = #{cum <= b/G}, read off one table built from ceil(cum*G). One
    comparison steps a draw past a boundary between b/G and u; a second
    finds the few draws with two or more, and only those go to searchsorted.
    Sorted u, as the stratified sampler's, take the same path: on them the
    binary search is faster over evenly spread weights and slower over the
    CLGSS filter's, so sortedness does not pick the path.
    """
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    u = np.asarray(u)
    k = cum.shape[0]
    if u.size < max(k, _INDEXED_MIN_DRAWS):
        return np.searchsorted(cum, u, side="right")
    g = 1 << (k + k // 2).bit_length()
    # ceil(cum*G), clipped to G so that it rises to the pinned last entry
    # even where round-off lifts the entries before it above 1
    top = np.minimum(np.ceil(cum * g), g).astype(np.intp)
    lo = np.repeat(np.arange(k), np.diff(top, prepend=0))
    idx = lo[(u * g).astype(np.intp)]
    idx += cum[idx] <= u
    crowded = np.flatnonzero(cum[idx] <= u)
    if crowded.size:
        idx[crowded] = np.searchsorted(cum, u[crowded], side="right")
    return idx


def _mixture_moments(weights, means, covs):
    """(mean, covariance) of the mixture sum_k w_k N(means[k], covs[k])."""
    m = weights @ means
    dev = means - m
    cov = np.einsum("k,kij->ij", weights, covs)
    cov = cov + (weights[:, None] * dev).T @ dev
    return m, cov


class GaussianMixture:
    """Finite Gaussian mixture with optional shared covariance blocks.

    ``covs`` holds B >= 1 distinct covariance matrices and ``cov_map`` assigns
    each of the K components one of them. Transition mixtures built from many
    particles share a handful of covariance blocks, and the kernel ops below
    exploit that instead of factorizing K matrices.

    Args:
        weights: (K,) convex weights.
        means: (K, d) component means ((K,) accepted for d=1).
        covs: (K, d, d) per-component, or (B, d, d) together with cov_map.
        cov_map: optional (K,) int indices into covs.
    """

    __slots__ = ("weights", "means", "covs", "cov_map", "_chol", "_iso_var", "_diag_sd")

    def __init__(self, weights, means, covs, cov_map=None):
        self.weights = np.ascontiguousarray(weights, dtype=float).reshape(-1)
        self.means = _as_points(means, "means")
        k, d = self.means.shape
        covs = np.asarray(covs, dtype=float)
        if covs.ndim == 2:
            covs = covs[None, :, :]
        if covs.ndim != 3 or covs.shape[1:] != (d, d):
            raise ValueError(f"covs must be (B, {d}, {d}), got {covs.shape}")
        if cov_map is None:
            if covs.shape[0] == k:
                cov_map = np.arange(k)
            elif covs.shape[0] == 1:
                cov_map = np.zeros(k, dtype=np.intp)
            else:
                raise ValueError("cov_map required when covs rows != n_components")
        cov_map = np.ascontiguousarray(cov_map, dtype=np.intp)
        if cov_map.shape != (k,) or cov_map.min(initial=0) < 0 or (
            k > 0 and cov_map.max(initial=0) >= covs.shape[0]
        ):
            raise ValueError("cov_map must be (K,) indices into covs")

        if self.weights.shape != (k,):
            raise ValueError("weights and means disagree on component count")
        if k == 0:
            raise ValueError("mixture needs at least one component")
        _check_convex(self.weights)

        # Symmetrize, then insist on PSD per distinct block.
        sym_err = np.abs(covs - covs.transpose(0, 2, 1)).max(initial=0.0)
        scale = max(1.0, np.abs(covs).max(initial=0.0))
        if sym_err > 1e-8 * scale:
            raise ValueError("covariance blocks are not symmetric")
        covs = 0.5 * (covs + covs.transpose(0, 2, 1))
        eigs = np.linalg.eigvalsh(covs)
        if eigs.min(initial=0.0) < -1e-10 * scale:
            raise ValueError(f"covariance not PSD (min eigenvalue {eigs.min()})")
        self.covs = np.ascontiguousarray(covs)
        self.cov_map = cov_map

        self._chol = None
        # Isotropic blocks unlock the fully vectorized kernel-op paths.
        diag = self.covs[:, np.arange(d), np.arange(d)]
        off = self.covs - diag[:, :, None] * np.eye(d)
        diagonal = np.abs(off).max(initial=0.0) == 0.0
        iso = diagonal and np.all(diag == diag[:, :1])
        self._iso_var = diag[:, 0].copy() if iso else None
        # a diagonal PSD block's Cholesky factor is the root of its diagonal
        self._diag_sd = np.sqrt(diag) if diagonal and np.all(diag >= 0.0) else None

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def chol_factors(self) -> np.ndarray:
        """(B, d, d) lower Cholesky factors of the covariance blocks."""
        if self._chol is None:
            try:
                self._chol = np.linalg.cholesky(self.covs)
            except np.linalg.LinAlgError:
                self._chol = np.stack([safe_cholesky(c) for c in self.covs])
        return self._chol

    def sample(self, n: int, rng: np.random.Generator):
        """Draw n points i.i.d. from the mixture.

        Returns (points, comps): the draws and the generating component index
        of each draw. Component choice consumes one uniform per draw, then
        each draw takes d standard normals; _place turns both into points.
        """
        return self._place(rng.random(n), rng.standard_normal((n, self.dim)))

    def _place(self, u, z):
        """Points from component uniforms u (n,) in [0, 1) and standard normals z (n, d).

        Each u picks a component by inverse CDF over the weights in storage
        order (_inverse_cdf); its z goes through that component's covariance
        factor. When every block is diagonal, as the LGSS and CLGSS
        transition blocks and the criterion-1 family are, the factor is the
        elementwise root of the diagonal and scales z, with no factorization:
        by its one entry when there is a single isotropic block, by columns
        when there is a single other block, and by each draw's gathered root
        otherwise. The products are those of the factor product, bit for bit,
        and adding +0.0 turns the -0.0 of a zero variance into the +0.0 that
        product's sum gives. Otherwise each draw's factor is gathered into an
        (n, d, d) stack that multiplies z.
        Returns (points, comps) like sample.
        """
        comps = _inverse_cdf(self.weights, u)
        # np.take copies the same rows as fancy indexing, several times faster
        if self._diag_sd is not None:
            sd = self._diag_sd
            if len(sd) > 1:
                shift = z * np.take(sd, self.cov_map[comps], axis=0)
            elif self._iso_var is not None:
                shift = z * sd[0, 0]
            else:
                # z * sd[0] would step numpy's broadcast loop row by row
                shift = np.empty_like(z)
                for c, s in enumerate(sd[0]):
                    np.multiply(z[:, c], s, out=shift[:, c])
            shift += 0.0
        else:
            factors = np.take(self.chol_factors, self.cov_map[comps], axis=0)
            shift = np.einsum("nij,nj->ni", factors, z)
        points = np.take(self.means, comps, axis=0)
        points += shift
        return points, comps

    def pdf(self, x) -> np.ndarray:
        """Mixture density at each row of x."""
        pts = _as_points(x, "x")
        return self._gauss_sum(pts, 0.0, normalized=True)

    def moments(self):
        """Analytic (mean, covariance) of the mixture."""
        return _mixture_moments(self.weights, self.means, self.covs[self.cov_map])

    def _gauss_sum(self, pts, var_shift, normalized, sigma=None):
        """sum_i w_i c_i exp(-mahal^2(pts; mu_i, Sigma_i + var_shift I) / 2).

        c_i is the Gaussian normalizer when ``normalized``, else sigma^d / |L_i|
        (the kernel mean-map coefficient). The M x K exponent block is never
        built whole: _exp_dot walks pts in row tiles of about _TILE_BYTES, so
        beyond the (M,) result and, per covariance block, the (M, d) whitened
        points, a call holds one tile.
        """
        d = self.dim
        if self._iso_var is not None:
            t = self._iso_var[self.cov_map] + var_shift  # (K,)
            if np.any(t <= 0.0):
                raise NumericalError("degenerate isotropic variance in gauss sum")
            if normalized:
                coef = (2.0 * np.pi * t) ** (-0.5 * d)
            else:
                coef = (sigma * sigma / t) ** (0.5 * d)
            return _exp_dot(pts, self.means, -0.5 / t, self.weights * coef)
        out = np.zeros(pts.shape[0])
        eye = np.eye(d)
        for b in range(self.covs.shape[0]):
            idx = np.flatnonzero(self.cov_map == b)
            if idx.size == 0:
                continue
            s_mat = self.covs[b] + var_shift * eye
            low = safe_cholesky(s_mat)
            det = float(np.prod(np.diag(low)))
            if det <= 0.0:
                raise NumericalError("singular covariance in gauss sum")
            u = solve_triangular(low, pts.T, lower=True).T
            v = solve_triangular(low, self.means[idx].T, lower=True).T
            if normalized:
                coef = (2.0 * np.pi) ** (-0.5 * d) / det
            else:
                coef = sigma**d / det
            out += _exp_dot(u, v, -0.5, self.weights[idx] * coef)
        return out


def _exp_sqdist(x, y, scale) -> np.ndarray:
    """Fresh (len(x), len(y)) block exp(scale ||x_i - y_j||^2), scale being
    a scalar or a (len(y),) array: one cdist, scaled and exponentiated in place."""
    block = cdist(x, y, "sqeuclidean")
    block *= scale
    return np.exp(block, out=block)


def _exp_dot(x, y, scale, v) -> np.ndarray:
    """(M,) array of sum_j exp(scale_j ||x_i - y_j||^2) v_j over the rows x_i.

    scale is a scalar or a (K,) array. Each tile of rows gets its block from
    _exp_sqdist and is reduced straight into its slice of the result, so the
    bits are those of the untiled exp(scale * cdist(x, y)) @ v. That needs
    two things of the tiles. BLAS gemv kernels reduce rows in small groups
    (four in OpenBLAS on x86-64) and send the leftover rows to another
    kernel, so every tile but the last holds a multiple of _ROW_GROUP rows.
    And numpy hands a one-row matrix to a dot product instead of gemv, so a
    one-row remainder joins the tile before it.
    """
    m = x.shape[0]
    out = np.empty(m)
    rows = _TILE_BYTES // (8 * y.shape[0]) // _ROW_GROUP * _ROW_GROUP
    rows = max(rows, _ROW_GROUP)
    start = 0
    while start < m:
        stop = start + rows if m - start - rows > 1 else m
        np.dot(_exp_sqdist(x[start:stop], y, scale), v, out=out[start:stop])
        start = stop
    return out


@dataclass
class WeightedParticleSet:
    """Convex-weighted atoms, with optional ancestry and mode metadata.

    ancestry[i] indexes the previous timestep's set (or the generating mixture
    component for a standalone quadrature); modes[i] carries a discrete
    regime label for switching models.
    """

    points: np.ndarray
    weights: np.ndarray
    ancestry: np.ndarray | None = None
    modes: np.ndarray | None = None

    def __post_init__(self):
        self.points = _as_points(self.points)
        self.weights = np.ascontiguousarray(self.weights, dtype=float).reshape(-1)
        n = self.points.shape[0]
        if self.weights.shape != (n,):
            raise ValueError("weights and points disagree on particle count")
        if n == 0:
            raise ValueError("particle set needs at least one atom")
        _check_convex(self.weights)
        if self.ancestry is not None:
            self.ancestry = np.ascontiguousarray(self.ancestry, dtype=np.intp)
            if self.ancestry.shape != (n,):
                raise ValueError("ancestry must have one index per particle")
        if self.modes is not None:
            self.modes = np.ascontiguousarray(self.modes, dtype=np.intp)
            if self.modes.shape != (n,):
                raise ValueError("modes must have one label per particle")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        return self.weights @ self.points


def kernel_cross(x, y, k: KernelConfig) -> np.ndarray:
    """(M, N) Gram block kappa(x_i, y_j)."""
    xm = _as_points(x, "x")
    ym = _as_points(y, "y")
    if xm.shape[1] != k.dim or ym.shape[1] != k.dim:
        raise ValueError("point dimension does not match the kernel")
    return _exp_sqdist(xm, ym, -0.5 / k.sigma2)


def _check_kernel_target(p: GaussianMixture, k: KernelConfig):
    if p.dim != k.dim:
        raise ValueError(f"mixture dim {p.dim} != kernel dim {k.dim}")


def mean_map_eval_batch(p: GaussianMixture, x, k: KernelConfig) -> np.ndarray:
    """Mean map of p under kappa, evaluated at each row of x.

    Closed form: sum_i pi_i (sqrt(2 pi) sigma)^d N(x | mu_i, Sigma_i + sigma2 I).
    """
    _check_kernel_target(p, k)
    pts = _as_points(x, "x")
    if pts.shape[1] != k.dim:
        raise ValueError("point dimension does not match the kernel")
    return p._gauss_sum(pts, k.sigma2, normalized=False, sigma=np.sqrt(k.sigma2))


def mean_map_sqnorm(p: GaussianMixture, k: KernelConfig) -> float:
    """||mu_p||^2_H in closed form.

    Pairwise: sum_ij pi_i pi_j (sqrt(2 pi) sigma)^d
              N(mu_i | mu_j, Sigma_i + Sigma_j + sigma2 I).
    """
    _check_kernel_target(p, k)
    w, mu = p.weights, p.means
    d = p.dim
    sigma2 = k.sigma2
    if p._iso_var is not None:
        s2 = p._iso_var[p.cov_map]
        t = s2[:, None] + s2[None, :] + sigma2
        coef = (sigma2 / t) ** (0.5 * d)
        d2 = cdist(mu, mu, "sqeuclidean")
        return float(w @ (coef * np.exp(-0.5 * d2 / t)) @ w)
    total = 0.0
    n_blocks = p.covs.shape[0]
    sigma_d = sigma2 ** (0.5 * d)
    eye = np.eye(d)
    for a in range(n_blocks):
        ia = np.flatnonzero(p.cov_map == a)
        if ia.size == 0:
            continue
        for b in range(a, n_blocks):
            ib = np.flatnonzero(p.cov_map == b)
            if ib.size == 0:
                continue
            low = safe_cholesky(p.covs[a] + p.covs[b] + sigma2 * eye)
            det = float(np.prod(np.diag(low)))
            u = solve_triangular(low, mu[ia].T, lower=True).T
            v = solve_triangular(low, mu[ib].T, lower=True).T
            d2 = cdist(u, v, "sqeuclidean")
            block = float(w[ia] @ np.exp(-0.5 * d2) @ w[ib]) * sigma_d / det
            total += block if a == b else 2.0 * block
    return total


def _sqrt_clamped(radicand: float) -> float:
    """sqrt with the tiny-negative clamp used for MMD radicands."""
    if radicand < _MMD_CLAMP:
        raise NumericalError(
            f"squared-MMD radicand {radicand} below clamp threshold {_MMD_CLAMP}"
        )
    return float(np.sqrt(max(radicand, 0.0)))


def mmd(p: GaussianMixture, q: WeightedParticleSet, k: KernelConfig) -> float:
    """Exact MMD between a Gaussian mixture and a weighted particle set."""
    _check_kernel_target(p, k)
    if q.dim != k.dim:
        raise ValueError(f"particle dim {q.dim} != kernel dim {k.dim}")
    t_pp = mean_map_sqnorm(p, k)
    t_pq = float(mean_map_eval_batch(p, q.points, k) @ q.weights)
    gram = kernel_cross(q.points, q.points, k)
    t_qq = float(q.weights @ gram @ q.weights)
    return _sqrt_clamped(t_pp - 2.0 * t_pq + t_qq)
