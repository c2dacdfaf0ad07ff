"""Sobol low-discrepancy sequences and the inverse-transform mixture sampler.

The generator is the classic Gray-code construction over 32-bit direction
integers, evaluated in closed form at every requested position at once.
Direction numbers are the published Joe and Kuo "new-joe-kuo-6" values,
embedded below for dimensions up to 21; dimension 1 is the van der Corput
sequence in base 2. Randomization is done by starting the sequence at
a random integer offset, never by scrambling, so a run consumes one
continuing stream.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

from .errors import NumericalError

__all__ = ["SobolStream", "inverse_normal_cdf", "qmc_sample_mixture"]

_BITS = 32
_MAX_INDEX = 1 << _BITS

# (polynomial bit pattern, initial m values) for dimensions 2..21 of the
# Joe-Kuo new-joe-kuo-6 direction-number table. The pattern encodes the full
# primitive polynomial: degree-s bit, inner coefficients, constant 1.
_JOE_KUO = (
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)),
    (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)),
)

MAX_DIM = 1 + len(_JOE_KUO)


def _direction_integers(dim: int) -> np.ndarray:
    """(dim, _BITS) direction integers, leading bit of v_k at bit position k."""
    v = np.zeros((dim, _BITS), dtype=np.uint64)
    v[0] = [1 << (_BITS - 1 - k) for k in range(_BITS)]
    for j in range(1, dim):
        poly, m = _JOE_KUO[j - 1]
        s = poly.bit_length() - 1
        a = (poly >> 1) & ((1 << (s - 1)) - 1)
        row = [0] * _BITS
        for k in range(min(s, _BITS)):
            row[k] = m[k] << (_BITS - 1 - k)
        for k in range(s, _BITS):
            acc = row[k - s] ^ (row[k - s] >> s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    acc ^= row[k - i]
            row[k] = acc
        v[j] = row
    return v


class SobolStream:
    """Stateful Sobol point stream in [0,1)^dim.

    Args:
        dim: dimension, 1..MAX_DIM.
        offset: sequence position of the first emitted point. The default 1
            skips the all-zeros point at position 0; a randomized stream uses
            a random integer offset here.
    """

    def __init__(self, dim: int, offset: int = 1):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dim must be in 1..{MAX_DIM}, got {dim}")
        if not 0 <= offset < _MAX_INDEX:
            raise ValueError(f"offset must be in [0, 2^{_BITS}), got {offset}")
        self.dim = dim
        self.offset = offset
        self._v = _direction_integers(dim)
        self._pos = offset  # sequence position of the next emitted point

    @property
    def index(self) -> int:
        """Number of points emitted so far."""
        return self._pos - self.offset

    def take(self, n: int) -> np.ndarray:
        """Emit the next n points as an (n, dim) array."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if self._pos + n > _MAX_INDEX:
            raise NumericalError(
                f"Sobol index overflow: position {self._pos + n} exceeds 2^{_BITS}"
            )
        # the point at position p XORs the direction integers over the set
        # bits of its Gray code p ^ (p >> 1)
        pos = np.arange(self._pos, self._pos + n, dtype=np.uint64)
        gray = pos ^ (pos >> np.uint64(1))
        ints = np.zeros((n, self.dim), dtype=np.uint64)
        for k in range(_BITS):
            bit = (gray >> np.uint64(k)) & np.uint64(1)
            ints ^= bit[:, None] * self._v[:, k]
        self._pos += n
        out = ints.astype(float)
        out /= float(_MAX_INDEX)
        return out


# Acklam's rational approximation of the standard normal quantile; the
# central/tail split is at 0.02425. One Newton polish against erfc brings the
# absolute error to ~1e-15, far inside the 1e-9 contract.
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_ACK_SPLIT = 0.02425
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _acklam(u: np.ndarray) -> np.ndarray:
    x = np.empty_like(u)
    lo = u < _ACK_SPLIT
    hi = u > 1.0 - _ACK_SPLIT
    mid = ~(lo | hi)

    def _tail(q):
        num = ((((_ACK_C[0] * q + _ACK_C[1]) * q + _ACK_C[2]) * q + _ACK_C[3]) * q
               + _ACK_C[4]) * q + _ACK_C[5]
        den = (((_ACK_D[0] * q + _ACK_D[1]) * q + _ACK_D[2]) * q + _ACK_D[3]) * q + 1.0
        return num / den

    if lo.any():
        x[lo] = _tail(np.sqrt(-2.0 * np.log(u[lo])))
    if hi.any():
        x[hi] = -_tail(np.sqrt(-2.0 * np.log(1.0 - u[hi])))
    if mid.any():
        q = u[mid] - 0.5
        r = q * q
        num = ((((_ACK_A[0] * r + _ACK_A[1]) * r + _ACK_A[2]) * r + _ACK_A[3]) * r
               + _ACK_A[4]) * r + _ACK_A[5]
        den = ((((_ACK_B[0] * r + _ACK_B[1]) * r + _ACK_B[2]) * r + _ACK_B[3]) * r
               + _ACK_B[4]) * r + 1.0
        x[mid] = q * num / den
    return x


def inverse_normal_cdf(u):
    """Standard normal quantile, absolute error below 1e-9 on (0, 1).

    Scalar in, scalar out; arrays map elementwise.
    """
    arr = np.asarray(u, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).copy()
    if np.any(flat <= 0.0) or np.any(flat >= 1.0):
        raise ValueError("inverse_normal_cdf requires u strictly inside (0, 1)")
    x = _acklam(flat)
    # Newton step. Residuals use the tail that avoids cancellation: 1-u is
    # exact in floating point for u in [0.5, 1].
    upper = flat > 0.5
    err = np.where(
        upper,
        (1.0 - flat) - 0.5 * erfc(x / _SQRT2),
        0.5 * erfc(-x / _SQRT2) - flat,
    )
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    step = np.zeros_like(x)
    np.divide(err, pdf, out=step, where=pdf > 0.0)
    x -= step
    return float(x[0]) if scalar else x.reshape(arr.shape)


def qmc_sample_mixture(p, n: int, stream: SobolStream):
    """Quadrature points for a Gaussian mixture from a (d+1)-dim Sobol stream.

    The last coordinate picks the component by inverse CDF over the mixture
    weights in storage order; the first d coordinates go through the normal
    quantile and the component's covariance factor. Returns a uniformly
    weighted particle set whose ancestry records the chosen components.
    """
    from .kernels import WeightedParticleSet

    d = p.dim
    if stream.dim != d + 1:
        raise ValueError(
            f"stream dim {stream.dim} != mixture dim + 1 = {d + 1}"
        )
    if n < 1:
        raise ValueError("n must be >= 1")
    u = stream.take(n)
    cum = np.cumsum(p.weights)
    cum[-1] = 1.0
    comps = np.searchsorted(cum, u[:, d], side="right")
    z = inverse_normal_cdf(u[:, :d])
    factors = p.chol_factors[p.cov_map[comps]]
    pts = p.means[comps] + np.einsum("nij,nj->ni", factors, z)
    return WeightedParticleSet(pts, np.full(n, 1.0 / n), ancestry=comps)
