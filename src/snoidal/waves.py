"""Snoidal traveling-wave profiles h_c for the phi^4 equation.

A profile on a period-L domain moving at speed c solves
-omega h'' - h + h^3 = 0 with omega = 1 - c^2 and has the closed form
h(x) = a sn(b x; k), where the modulus k is pinned down by the
period-speed relation omega = L^2 / (16 K(k)^2 (1 + k^2)) and

    a = sqrt(2) k / sqrt(1 + k^2),    b = 4 K(k) / L.

For 0 < L < 2 pi the relation forces omega into (0, L^2 / (4 pi^2)), i.e.
|c| in (sqrt(1 - L^2/(4 pi^2)), 1); speeds outside that window admit no
L-periodic snoidal wave and are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticModulus, complete_E, complete_K, jacobi_sn_cn_dn
from .errors import ModulusBoundaryError, OutOfRangeError

__all__ = [
    "OutOfRangeError",
    "ModulusBoundaryError",
    "WaveParameters",
    "grid_points",
    "wavenumbers",
    "admissible_omega_window",
    "solve_modulus",
    "profile_eval",
    "fill_runs",
    "sample_wave",
    "ode_residual",
]

_BRACKET_EPS = 1e-10
_NEWTON_STEPS = 3
_DISPERSION_RTOL = 1e-12


def grid_points(L: float, N: int) -> np.ndarray:
    """The uniform grid x_j = j (L / N), j = 0..N-1, that every sampled field lives on.

    Raises ValueError unless N is even and at least 16 and L is positive.
    """
    if N < 16 or N % 2 != 0:
        raise ValueError(f"sample count must be even and >= 16, got {N}")
    if not L > 0.0:
        raise ValueError(f"period must be positive, got {L}")
    return np.arange(N) * (L / N)


def wavenumbers(L: float, N: int) -> np.ndarray:
    """The rfft wavenumbers xi_n = 2 pi n / L, n = 0..N/2, of that grid."""
    return 2.0 * math.pi / L * np.fft.rfftfreq(N, d=1.0 / N)


@dataclass(frozen=True)
class WaveParameters:
    """The tuple (L, c, omega, k, a, b) fixing one snoidal wave.

    omega, k, a, b are derived from (L, c) by :func:`solve_modulus`;
    construction re-checks the defining relations so stale or hand-edited
    tuples are rejected.
    """

    L: float
    c: float
    omega: float
    k: EllipticModulus
    a: float
    b: float

    def __post_init__(self):
        L, om, k = self.L, self.omega, self.k.value
        big_k = complete_K(self.k)
        checks = (
            ("omega = 1 - c^2", om, 1.0 - self.c * self.c),
            ("b^2 omega (1+k^2) = 1", self.b * self.b * om * (1.0 + k * k), 1.0),
            ("a^2 = 2 b^2 k^2 omega", self.a * self.a, 2.0 * self.b**2 * k * k * om),
            ("b L = 4 K(k)", self.b * L, 4.0 * big_k),
        )
        for label, lhs, rhs in checks:
            if abs(lhs - rhs) > 1e-10 * max(abs(lhs), abs(rhs)):
                raise ValueError(f"inconsistent wave parameters: {label} violated")
        disp = 16.0 * big_k**2 * (1.0 + k * k) * om - L * L
        if abs(disp) > _DISPERSION_RTOL * L * L:
            raise ValueError("inconsistent wave parameters: period-speed relation violated")


def admissible_omega_window(L: float) -> tuple[float, float]:
    """Open interval of omega = 1 - c^2 admitting an L-periodic snoidal wave."""
    if not (0.0 < L < 2.0 * math.pi):
        raise OutOfRangeError(f"period L must lie in (0, 2*pi), got {L}")
    return 0.0, L * L / (4.0 * math.pi**2)


def _omega_of_modulus(L: float, k: float) -> float:
    big_k = complete_K(k)
    return L * L / (16.0 * big_k * big_k * (1.0 + k * k))


def _dK_dk(k: float) -> float:
    """dK/dk = (E - (1-k^2) K) / (k (1-k^2))."""
    om2 = (1.0 - k) * (1.0 + k)
    return (complete_E(k) - om2 * complete_K(k)) / (k * om2)


def solve_modulus(L: float, c: float) -> WaveParameters:
    """Invert the period-speed relation and build the full parameter tuple.

    omega -> k is strictly decreasing, so a bisection bracketed on
    (1e-10, 1-1e-10) always converges; three Newton polishing steps push
    the dispersion residual to its rounding floor.  Near k = 1 that floor
    exceeds 1e-12, and ModulusBoundaryError rejects every speed with
    omega below about 0.0289 of the window, at every L.
    """
    lo_om, hi_om = admissible_omega_window(L)
    omega = (1.0 - c) * (1.0 + c)
    if not (lo_om < omega < hi_om):
        raise OutOfRangeError(
            f"speed c={c} gives omega={omega:.6g} outside the admissible window "
            f"({lo_om:.6g}, {hi_om:.6g}) for L={L:.6g} "
            f"(need sqrt(1 - L^2/(4 pi^2)) < |c| < 1)"
        )

    lo, hi = _BRACKET_EPS, 1.0 - _BRACKET_EPS
    # g(k) = omega(k) is decreasing: g(lo) ~ hi_om, g(hi) ~ 0.
    if not (_omega_of_modulus(L, hi) < omega < _omega_of_modulus(L, lo)):
        raise ModulusBoundaryError(
            f"omega={omega:.6g} not bracketed by moduli in [{lo}, {1 - _BRACKET_EPS}]"
        )
    # Bisect essentially to convergence: near k = 1 the relation's curvature
    # explodes (K ~ log(1/k')), and Newton's basin shrinks below 1e-8.  Each
    # pass halves the bracket, so 44 passes take it from about 1 below 1e-13.
    while hi - lo >= 1e-13:
        mid = 0.5 * (lo + hi)
        if _omega_of_modulus(L, mid) > omega:
            lo = mid
        else:
            hi = mid
    k = 0.5 * (lo + hi)

    # Newton on f(k) = 16 omega K^2 (1+k^2) - L^2.
    for _ in range(_NEWTON_STEPS):
        big_k = complete_K(k)
        f = 16.0 * omega * big_k * big_k * (1.0 + k * k) - L * L
        df = 16.0 * omega * (
            2.0 * big_k * _dK_dk(k) * (1.0 + k * k) + 2.0 * k * big_k * big_k
        )
        step = f / df
        k_next = k - step
        if not (_BRACKET_EPS < k_next < 1.0 - _BRACKET_EPS):
            raise ModulusBoundaryError(f"Newton polishing left the modulus bracket at k={k_next}")
        k = k_next

    # One ulp of k moves the relative dispersion residual by ulp(k) times
    # d/dk log(16 omega K^2 (1+k^2)) = df / (f + L^2), read off the last
    # Newton step; it grows like 1/(K k'^2) as k -> 1.  This rounding floor
    # rises monotonically as omega falls, so the speeds it rejects form one
    # interval at the small-omega end of the window, whatever the last bits
    # of c.  An accepted solve lands within about half the floor, and
    # WaveParameters re-checks the 1e-12 residual.
    floor = math.ulp(k) * df / (f + L * L)
    if floor > _DISPERSION_RTOL:
        raise ModulusBoundaryError(
            f"modulus k={k:.15g} too close to 1 for a double-precision solve: "
            f"one ulp of k moves the dispersion residual by {floor:.3e} > "
            f"{_DISPERSION_RTOL} (L={L}, c={c})"
        )
    big_k = complete_K(k)
    a = math.sqrt(2.0) * k / math.sqrt(1.0 + k * k)
    b = 4.0 * big_k / L
    return WaveParameters(L=L, c=c, omega=omega, k=EllipticModulus(k), a=a, b=b)


def profile_eval(p: WaveParameters, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, h', h'') at position x, a float or an array of positions.

    h = a sn(bx; k), h' = a b cn dn, and
    h'' = -a b^2 sn (1 + k^2 - 2 k^2 sn^2) from the sn/cn/dn identities.
    An array x costs one sn/cn/dn call for all of its entries.
    """
    a, b, k = p.a, p.b, p.k.value
    sn, cn, dn = jacobi_sn_cn_dn(b * x, k)
    return a * sn, a * b * cn * dn, -a * b * b * sn * (1.0 + k * k - 2.0 * k * k * sn * sn)


# The sign each of (h, h', h'') takes under the reflection x -> L/2 - x.
REFLECTION_SIGNS = (1.0, -1.0, 1.0)


def fill_runs(quarters, negate, N: int):
    """Yield, for each of (h, h', h''), its four runs of the N-point grid in order.

    quarters holds each field's values f_j at x_j, 0 <= j <= N // 4, as a
    sequence that slices, and negate(f) gives their negations.  The wave's
    symmetries fill in the rest: sn(2K - u) = sn u and sn(u + 2K) = -sn u
    give the reflection f_{N/2 - j} = s f_j, with s from `REFLECTION_SIGNS`,
    and the half-period shift f_{j + N/2} = -f_j.  So the runs are the
    quarter, its reflection (x_{N/4 + 1} .. x_{N/2 - 1}), then both
    negated, each a slice of f or of negate(f).  The same rule fills numpy
    arrays (negate = np.negative) and lists of cell strings.
    """
    last = N // 2 - N // 4 - 1  # the reflection maps x_1..x_last beyond x_{N/4}
    for f, s in zip(quarters, REFLECTION_SIGNS):
        g = negate(f)
        r, nr = (f, g) if s > 0 else (g, f)
        yield f, r[last:0:-1], g, nr[last:0:-1]


def sample_wave(p: WaveParameters, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays of (h, h', h'') at the N points of :func:`grid_points`.

    One :func:`profile_eval` call evaluates the quarter period, x_j for
    0 <= j <= N // 4, and :func:`fill_runs` fills in the rest exactly, by
    the reflection x -> L/2 - x and the half-period shift.  So h is exactly
    odd and h^2 exactly even and L/2-periodic on the grid, and
    h(L/2) = -h(0) = -0.0.  At x = L/4 (N a multiple of 4) h' keeps its
    evaluated residue of cn(K), about 1e-16 of max |h'|, not 0.
    """
    quarter = profile_eval(p, grid_points(p.L, N)[:N // 4 + 1])
    return tuple(np.concatenate(runs) for runs in fill_runs(quarter, np.negative, N))


def ode_residual(p: WaveParameters, samples: tuple) -> float:
    """sup_j | -omega h''(x_j) - h(x_j) + h(x_j)^3 | over samples = (h, h', h'') of the wave p.

    samples is what `sample_wave` or `profile_eval` returned for p, so the
    profile is not evaluated again.
    """
    h, _, h2 = samples
    return float(np.max(np.abs(-p.omega * h2 - h + h * h * h)))
