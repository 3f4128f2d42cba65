"""Complete elliptic integrals and Jacobi elliptic functions.

Self-contained implementations built on the arithmetic-geometric mean:
K(k) and E(k) come straight from the AGM iteration, and sn/cn/dn from the
descending Landen (Gauss) transformation of the amplitude function, run
elementwise over an array of arguments on one AGM ladder per call.  No
special-function library is involved, so accuracy is limited only by the
quadratic convergence of the AGM (machine precision in ~8 iterations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EllipticModulus",
    "complete_K",
    "complete_E",
    "jacobi_sn_cn_dn",
]

# Moduli closer than this to 0 or 1 are rejected: downstream wave formulas
# divide by (1-k^2)^2 and the AGM for K diverges logarithmically at k=1.
MODULUS_MARGIN = 1e-12

_AGM_RTOL = 1e-15


@dataclass(frozen=True)
class EllipticModulus:
    """Modulus k of the Jacobi elliptic functions, restricted to (0, 1)."""

    value: float

    def __post_init__(self):
        k = self.value
        if not math.isfinite(k):
            raise ValueError(f"elliptic modulus must be finite, got {k}")
        if k <= MODULUS_MARGIN or k >= 1.0 - MODULUS_MARGIN:
            raise ValueError(
                f"elliptic modulus must lie in ({MODULUS_MARGIN}, {1 - MODULUS_MARGIN}), got {k}"
            )


def _as_modulus(k) -> EllipticModulus:
    return k if isinstance(k, EllipticModulus) else EllipticModulus(float(k))


def _agm_levels(k: float) -> tuple[list[float], list[float]]:
    """AGM sequences a_n and c_n for modulus k, c_0 = k.

    Iterates a_{n+1} = (a_n+b_n)/2, b_{n+1} = sqrt(a_n b_n),
    c_{n+1} = (a_n-b_n)/2 until c_n is negligible relative to a_n.  The
    test always ends the loop: once a and b are a few ulps apart,
    |c| < 1e-15 a.  Moduli in the admissible range take at most 8 levels.
    """
    a, b, c = 1.0, math.sqrt((1.0 - k) * (1.0 + k)), k
    a_seq, c_seq = [a], [c]
    while abs(c) > _AGM_RTOL * a:
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        a_seq.append(a)
        c_seq.append(c)
    return a_seq, c_seq


def complete_K(k) -> float:
    """Complete elliptic integral of the first kind, K(k) = pi / (2 AGM(1, k'))."""
    a_seq, _ = _agm_levels(_as_modulus(k).value)
    return math.pi / (2.0 * a_seq[-1])


def complete_E(k) -> float:
    """Complete elliptic integral of the second kind.

    Uses the AGM tail sum E = K (1 - sum_{n>=0} 2^{n-1} c_n^2).
    """
    a_seq, c_seq = _agm_levels(_as_modulus(k).value)
    s = sum(2.0 ** (n - 1) * c * c for n, c in enumerate(c_seq))
    return math.pi / (2.0 * a_seq[-1]) * (1.0 - s)


def jacobi_sn_cn_dn(u, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobi elliptic functions (sn, cn, dn) at real argument u.

    u is a float (results are numpy float64 scalars) or an array (results
    have its shape); one call builds the AGM ladder once for all entries.

    The amplitude phi = am(u, k) is obtained by the descending Landen
    transformation: seed phi_N = 2^N a_N u at the top of the AGM ladder,
    then fold back with sin(2 phi_{n-1} - phi_n) = (c_n / a_n) sin phi_n.
    Then sn = sin phi_0 and cn = cos phi_0, while dn is evaluated from
    dn^2 = 1 - k^2 sn^2 (dn > 0 for real u and k in (0,1)), which stays
    accurate at the quarter periods where the classical cos-ratio formula
    for dn degenerates to 0/0.

    u is reduced modulo the real period 4K first so that long-time
    arguments do not inflate the seed phi_N; fmod preserves the sign of u,
    which makes the whole recursion antisymmetric and sn exactly odd.
    """
    kk = _as_modulus(k).value
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError(f"argument of jacobi_sn_cn_dn must be finite, got {u}")
    a_seq, c_seq = _agm_levels(kk)
    top = len(c_seq) - 1
    big_k = math.pi / (2.0 * a_seq[-1])
    u = np.fmod(u, 4.0 * big_k)

    phi = np.ldexp(a_seq[top] * u, top)
    for n in range(top, 0, -1):
        # Clamp against rounding excursions just outside [-1, 1].
        t = np.clip(c_seq[n] / a_seq[n] * np.sin(phi), -1.0, 1.0)
        phi = 0.5 * (phi + np.arcsin(t))

    sn = np.sin(phi)
    cn = np.cos(phi)
    dn = np.sqrt((1.0 - kk * sn) * (1.0 + kk * sn))
    return sn, cn, dn
