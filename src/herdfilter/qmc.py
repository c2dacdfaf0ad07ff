"""Sobol low-discrepancy sequences and the inverse-transform mixture sampler.

The generator is the classic Gray-code construction over 32-bit direction
integers (Antonov & Saleev 1979; Bratley & Fox, ACM TOMS Algorithm 659):
each point is the one before it XOR the direction integer at the lowest set
bit of its position, so a take evaluates its first point in closed form and
the rest by one cumulative XOR. The recurrence is exact, being integer XOR.
Direction numbers are the published Joe and Kuo "new-joe-kuo-6" values,
embedded below for dimensions up to 21; dimension 1 is the van der Corput
sequence in base 2. Randomization is done by starting the sequence at
a random integer offset, never by scrambling, so a run consumes one
continuing stream.

The normal quantile that maps Sobol points to Gaussian draws is scipy's
``ndtri``. The generator stays hand-written although ``scipy.stats.qmc.Sobol``
gives the same bits: importing ``scipy.stats`` would add about 0.4 s and
32 MB of resident memory to every ``import herdfilter``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import NumericalError
from .kernels import WeightedParticleSet

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
        # (_BITS, dim): row k holds each dimension's direction integer k
        self._dirs = np.ascontiguousarray(_direction_integers(dim).T)
        self._pos = offset  # sequence position of the next emitted point

    @property
    def index(self) -> int:
        """Number of points emitted so far."""
        return self._pos - self.offset

    def take(self, n: int) -> np.ndarray:
        """Emit the next n points as an (n, dim) array.

        Point p is point p-1 XOR the direction integers at the lowest set bit
        of p (Gray-code recurrence); only the first point of a take is formed
        from all the set bits of its Gray code. Integer XOR is exact, so any
        split of a run into takes gives the same points.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        if self._pos + n > _MAX_INDEX:
            raise NumericalError(
                f"Sobol index overflow: position {self._pos + n} exceeds 2^{_BITS}"
            )
        p0 = self._pos
        g = p0 ^ (p0 >> 1)  # Gray code of the first position
        ints = np.empty((n, self.dim), dtype=np.uint64)
        if n:
            ints[0] = np.bitwise_xor.reduce(
                self._dirs[[k for k in range(_BITS) if (g >> k) & 1]], axis=0
            )
            pos = np.arange(p0 + 1, p0 + n, dtype=np.uint64)
            # pos ^ (pos - 1) is 2^(k+1) - 1 for the lowest set bit k of pos;
            # it is exact as a float, so frexp's exponent is k + 1
            low = np.frexp((pos ^ (pos - np.uint64(1))).astype(float))[1] - 1
            np.take(self._dirs, low, axis=0, out=ints[1:])
            np.bitwise_xor.accumulate(ints, axis=0, out=ints)
        self._pos += n
        out = ints.astype(float)
        out /= float(_MAX_INDEX)
        return out


def inverse_normal_cdf(u):
    """Standard normal quantile on (0, 1), to full double precision.

    Scalar in, scalar out; arrays map elementwise.
    """
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u < 1.0)):  # NaN fails too
        raise ValueError("inverse_normal_cdf requires u strictly inside (0, 1)")
    x = ndtri(u)
    return float(x) if x.ndim == 0 else x


def qmc_sample_mixture(p, n: int, stream: SobolStream):
    """Quadrature points for a Gaussian mixture from a (d+1)-dim Sobol stream.

    The last coordinate picks the component by inverse CDF over the mixture
    weights in storage order; the first d coordinates go through the normal
    quantile and the component's covariance factor. Returns a uniformly
    weighted particle set whose ancestry records the chosen components.
    """
    d = p.dim
    if stream.dim != d + 1:
        raise ValueError(
            f"stream dim {stream.dim} != mixture dim + 1 = {d + 1}"
        )
    if n < 1:
        raise ValueError("n must be >= 1")
    u = stream.take(n)
    pts, comps = p._place(u[:, d], inverse_normal_cdf(u[:, :d]))
    return WeightedParticleSet(pts, np.full(n, 1.0 / n), ancestry=comps)
