"""Linearized operators around a snoidal wave and their spectral bookkeeping.

Discretization is Fourier collocation on the uniform N-point grid: the
spectral derivatives are exact on the resolved trigonometric modes, so
kernel residuals and eigenvalue matches at the 1e-8 level are reachable
with N = 256.

Operators handled here (symmetric):

  L1      = -omega d2/dx2 - 1 + 3 h^2                       (scalar, N x N)
  Lblock  = [[-d2/dx2 - 1 + 3 h^2,  c d/dx], [-c d/dx, 1]]  (pair, 2N x 2N)

The wave h is odd and half-period antiperiodic (h(x + L/2) = -h(x), since
sn(u + 2K) = -sn(u)), so 3 h^2 has period L/2.  L1 therefore commutes with
the grid reflection (R f)_j = f_{-j} and with the half-period shift
(T f)_j = f_{j + N/2}, and Lblock with diag(R, -R) and diag(T, T).  Every
operator is held as its four (R, T) character sectors, never as the unsplit
matrix, in the orthonormal trig modes of the grid,

  cos_n = w_n cos(2 pi n j / N),  n = 0..N/2,
  sin_n = w_n sin(2 pi n j / N),  n = 1..N/2 - 1,

with w_n = sqrt(1/N) at n = 0 and N/2 and sqrt(2/N) elsewhere.  cos_n is
R-even and sin_n R-odd, and both have T-character (-1)^n, so a character
chi = (r, t) (R f = r f, T f = t f) holds the cosines (r even) or the sines
(r odd) of the wavenumbers of parity t:

  L1      four sectors of about N/4 each; at N = 128 (even, T-even) has
          33, (even, T-odd) 32, (odd, T-even) 31 and (odd, T-odd) 32;
  Lblock  four sectors, each phi with character (r, t) and psi with
          (-r, t) but without psi's n = 0 cosine, N/2 modes each and
          N/2 - 1 in (odd, T-even); and a fifth block [[1.0]] of psi's
          constant alone.

psi's constant is an exact eigenvector of Lblock with eigenvalue 1: psi's
block is the identity and c d/dx annihilates constants.  It is therefore an
invariant line of its own, not a row of the (odd, T-even) sector that its
character (even, T-even) would put it in.  Every mode is in exactly one
block, so Lblock still has dimension 2N.

The sectors are held in the order (even, T-odd), (even, T-even),
(odd, T-even), (odd, T-odd) of L1 and of Lblock's phi, each component's modes
in ascending n.  Sector 0 holds the kernel direction, h' for L1 (odd-n
cosines) and (h', c h'') for Lblock (c h'' in the odd-n sines), and no
constant.  The constant of L1 and of Lblock's phi, the n = 0 cosine, is row
0 of sector _PHI_CONSTANT, the (even, T-even) one.

In these modes the derivatives are diagonal: -d2/dx2 is xi_n^2 with xi from
`waves.wavenumbers`, and d/dx maps cos_n to -xi_n sin_n and sin_n to
xi_n cos_n (the Nyquist cosine to zero, as the grid D1 does).  The
potential v = 3 h^2 - 1 couples modes n and m by
(1/2) w_n w_m (V[|n - m|] +/- V[min(n + m, N - n - m)]), V = Re rfft(v), +
between cosines and - between sines.  `sample_wave` fills the grid by the
wave's symmetries, so v = 3 h^2 - 1 is exactly even and L/2-periodic on the
grid; the couplings read only the cosine sums V, and only at even n +/- m.

Zero-mean companions: the mean-free fields are the span of every mode but
the n = 0 cosines, so one rule serves both operators: keep the four
sectors, and slice row and column 0, phi's constant, off sector
_PHI_CONSTANT.  Lblock's fifth block, psi's constant, is left out; the
other three sectors pass through, the very blocks of the operator.  The
constrained operator of the paper also subtracts the rank-one mean
coupling (3/L) (h^2, .) from the first component; its range is the
constant vector, which the deletion annihilates, so the deletion alone
yields the constrained operator.

`eigen_report` is the only eigensolve in this module and the only place
eigenvalues are classified as negative or zero: one values-only eigensolve
per block, merged into the operator's sorted spectrum, every block alike.
A constrained operator's report solves only sector _PHI_CONSTANT and takes
every other sector's values from its parent's by index.  A full report
thus makes 11 eigensolves: the four sectors of L1, the five blocks of
Lblock (the 1 x 1 one returns its entry 1.0 exactly), and the
phi-constant sector of each constrained operator.  The spectrum is sorted,
so the classification is positional: the first n entries are negative, the
next z zero and the rest positive.  The counts, the kernel guards of the
constraint solve and the coercivity constant all read n and z from the
report; with z = 1 the kernel entry is the one at index n.

D1 and the matrix D take one plain solve each, of sector _PHI_CONSTANT for
sqrt(N) at row 0: the constants have no part in the kernel's sector 0, so
no eigenvectors and no bordering are needed.  D[1, 1] takes no solve: psi's
constant, the fifth block, is an exact eigenvector of eigenvalue 1, so it
is the grid inner product (L/N) (e, e) of psi's constant e = sqrt(N) with
itself.

The constrained Morse index is cross-checked two ways: directly from the
compressed spectra, and through the count n(L_c) = n(L) - n(D) - z(D),
z(L_c) = z(L) + z(D), where D[i, j] = (L^{-1} e_i, e_j) over the constants
e_i of the operator's components: the 1x1 D1 = (L1^{-1} 1, 1) for L1 and
the 2x2 D = diag(D1, L) for Lblock.

The wave's samples, xi and the potential block of each character are
built once per (wave, N) and shared, read-only, by both assemblies and the
closed-form eigenpairs, so one report samples the wave once and forms four
potential blocks.  No index table is kept: a sector's wavenumbers step by
2, so each potential block is a Toeplitz view plus a Hankel view of two
rows of 2 p - 1 entries of V, and Lblock's phi-psi coupling runs over one
range of shared wavenumbers, both formed at assembly.  The slope condition
d''(c) of Grillakis, Shatah & Strauss is taken in closed form from K, E
and dK/dk through the period relation; `d_second_derivative`'s central
difference is its independent check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .elliptic import complete_E, complete_K
from .errors import EigenSolveError, IndexMismatchError, SingularSystemError
from .waves import WaveParameters, _dK_dk, sample_wave, solve_modulus, wavenumbers

__all__ = [
    "EigenSolveError",
    "SingularSystemError",
    "IndexMismatchError",
    "OperatorMatrix",
    "SpectralReport",
    "ClosedFormEigenpair",
    "assemble_L1",
    "assemble_Lblock",
    "constrain_zero_mean",
    "eigen_report",
    "closed_form_eigenpairs",
    "D1_closed",
    "D1_numeric",
    "D_matrix",
    "index_counts",
    "verify_index_counts",
    "coercivity_constant",
    "d_second_derivative",
    "full_report",
]

KIND_L1 = "L1"
KIND_LBLOCK = "Lblock"
KIND_L1_CONSTRAINED = "L1_constrained"
KIND_LBLOCK_CONSTRAINED = "Lblock_constrained"

# Zero-eigenvalue classification: tau_zero = ZERO_TOL_FACTOR * spectral radius.
# The computed kernel eigenvalue scales like eps * spectral radius (observed
# <= 1e-16 * radius across the admissible range), while the pair operator's
# genuine small eigenvalues scale like omega = 1 - c^2.  They do not stay
# clear of tau_zero, which grows like (N/L)^2: at L = pi and omega = 0.05 of
# its window, Lblock's negative eigenvalue -6.92e-9 lies within 0.42, 0.11
# and 0.03 tau_zero at N = 128, 256 and 512, so it is classified as zero,
# z = 2, and `_check_solvable` raises (exit 3).  The value stays; the fix is
# to classify on kinetically scaled blocks (ROADMAP, direction 1).
ZERO_TOL_FACTOR = 1e-12

# The smallest grid the spectrum pipeline accepts: full_report and
# D1_numeric reject an N below it, and so does the CLI's `spectrum`.
MIN_SPECTRUM_N = 64

# Speed step of d_second_derivative's cross-check of d2, reported as parameters.dc.
D2_SPEED_STEP = 1e-4


@dataclass(frozen=True)
class OperatorMatrix:
    """One of the linearized operators as symmetric blocks, one per (R, T) sector.

    Lblock holds a fifth block, [[1.0]], the invariant line of psi's
    constant; the constrained kinds hold the four sectors only.
    kernel_vector holds the expected discrete kernel direction in the
    coordinates of blocks[0] (h' for L1, (h', c h'') for the block operator;
    the constraint passes sector 0 through, so constrained kinds keep it);
    eigen_report measures the kernel residual with it.  Constraining needs
    nothing beyond the blocks: the rank-one mean coupling vanishes under the
    compression.
    """

    kind: str
    L: float
    blocks: tuple
    kernel_vector: np.ndarray

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=float) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        for m in blocks:
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"operator block of kind {self.kind} not square: {m.shape}")
            if not np.array_equal(m, m.T):
                skew = np.max(np.abs(m - m.T))
                raise ValueError(f"operator matrix of kind {self.kind} not symmetric: "
                                 f"skew {skew:.3e}")

    @property
    def dim(self) -> int:
        return sum(m.shape[0] for m in self.blocks)


@dataclass(frozen=True)
class SpectralReport:
    """Sorted eigenvalues with negative/zero counts at tolerance tau_zero.

    operator is the operator they belong to; the constraint solves read its
    sector blocks.  sector_eigenvalues holds the ascending eigenvalues of
    each of its blocks, for Lblock (1.0,) of the fifth among them.
    """

    eigenvalues: np.ndarray
    n: int
    z: int
    tau_zero: float
    kernel_residual: float
    operator: OperatorMatrix
    sector_eigenvalues: tuple


@dataclass(frozen=True)
class ClosedFormEigenpair:
    """Exact eigenpair of L1: lam with eigenfunction 1 - bracket * sn^2(bx;k)."""

    lam: float
    bracket: float
    f: np.ndarray


EVEN, ODD = 1, -1  # signs of a character (r, t): R f = r f and T f = t f

# Character of the first component in each sector; sector 0 holds the kernel
# direction.  Lblock's psi carries (-r, t).
_SECTORS = ((EVEN, ODD), (EVEN, EVEN), (ODD, EVEN), (ODD, ODD))

# Operator kind -> character of each N-point component, per sector; Lblock's
# psi, the second component, takes its modes from _modes(N, char, psi=True).
_LAYOUT = {KIND_L1: tuple(((r, t),) for r, t in _SECTORS),
           KIND_LBLOCK: tuple(((r, t), (-r, t)) for r, t in _SECTORS)}
_CONSTRAINED = {KIND_L1: KIND_L1_CONSTRAINED, KIND_LBLOCK: KIND_LBLOCK_CONSTRAINED}

# Sector of the constant of L1 and of Lblock's phi, the n = 0 cosine, at row
# 0: the (even, T-even) one.  Lblock's psi constant is its fifth block.
_PHI_CONSTANT = _SECTORS.index((EVEN, EVEN))


@functools.lru_cache(maxsize=32)
def _modes(N: int, char: tuple, psi: bool = False) -> tuple[np.ndarray, bool, np.ndarray]:
    """(n, sine, w): the trig modes of character (r, t) on the N-point grid.

    n lists their wavenumbers, those of parity t in 0..N/2, sine tells
    whether they are sines (r odd; no sine at n = 0 or N/2) or cosines, and
    w holds their unit-norm weights, sqrt(1/N) at n = 0 and N/2 and
    sqrt(2/N) elsewhere.  Lblock's psi (psi true) skips n = 0: its constant
    is Lblock's fifth block.  Built once per (N, char, psi); n and w are
    read-only.
    """
    r, t = char
    n = np.arange(1 if t == ODD else 2 * psi, N // 2 + 1, 2)
    sine = r == ODD
    if sine:
        n = n[(n > 0) & (n < N // 2)]
    w = np.where((n == 0) | (n == N // 2), math.sqrt(1.0 / N), math.sqrt(2.0 / N))
    n.setflags(write=False)
    w.setflags(write=False)
    return n, sine, w


def _to_sector(f: np.ndarray, chars: tuple) -> np.ndarray:
    """Coordinates in one sector of the grid field f (its components stacked).

    The coordinate of a mode is w (Re, -Im) of f's rfft at its wavenumber,
    Re for a cosine and -Im for a sine; the second component is Lblock's psi.
    """
    parts = np.split(f, len(chars))
    N = parts[0].size
    out = []
    for g, char, psi in zip(parts, chars, (False, True)):
        n, sine, w = _modes(N, char, psi)
        F = np.fft.rfft(g)[n]
        out.append(w * (-F.imag if sine else F.real))
    return np.concatenate(out)


def _potential(V: np.ndarray, N: int, char: tuple) -> np.ndarray:
    """Block of the multiplication by v between the modes of character char, V = Re rfft(v).

    Entry (n, m) is (1/2) w_n w_m (V[|n - m|] +/- V[min(n + m, N - n - m)]),
    + between cosines and - between sines: bit-symmetric by construction.
    The p modes step by 2, n_i = n_0 + 2 i, so the first term depends on
    j - i alone and the second on i + j alone: each is a (p, p) view of
    one row of 2 p - 1 gathered entries, Toeplitz with strides (-1, 1)
    from the row's middle and Hankel with strides (1, 1) from its start.
    Every index i +/- j then lies within 0..2 p - 2, so both views read
    only inside their rows.  The `np.ndarray` constructor checks that
    bound, negative strides included; numpy's stride tricks do not, and a
    view built with V's own stride (V is a .real view of complex data, 16
    bytes a step) reads out of bounds.  The rows are gathered copies, so
    the views step by their itemsize.
    """
    n, sine, w = _modes(N, char)
    p = n.size
    k = np.arange(2 * p - 1)
    s = 2 * (n[0] + k)
    diff, wrapped = V[2 * np.abs(k - (p - 1))], V[np.minimum(s, N - s)]
    step = diff.itemsize
    diff = np.ndarray((p, p), float, diff, (p - 1) * step, (-step, step))
    wrapped = np.ndarray((p, p), float, wrapped, 0, (step, step))
    return 0.5 * np.outer(w, w) * (diff - wrapped if sine else diff + wrapped)


class _SectorParts(NamedTuple):
    samples: tuple          # (h, h', h'') on the grid
    xi: np.ndarray          # rfft wavenumbers xi_n
    potentials: tuple       # the block of v = 3 h^2 - 1 per character of _SECTORS


@functools.lru_cache(maxsize=1)
def _sector_parts(wave: WaveParameters, N: int) -> _SectorParts:
    """The wave's samples, xi and potential blocks, built once per (wave, N).

    L1's sectors and Lblock's phi run over the same four characters, so both
    assemblies and the closed-form eigenpairs read one sampling and one
    potential block per character.  Every array is read-only.
    """
    samples = sample_wave(wave, N)
    h = samples[0]
    V = np.fft.rfft(3.0 * h * h - 1.0).real
    parts = _SectorParts(samples, wavenumbers(wave.L, N),
                         tuple(_potential(V, N, char) for char in _SECTORS))
    for a in (*parts.samples, parts.xi, *parts.potentials):
        a.setflags(write=False)
    return parts


def assemble_L1(wave: WaveParameters, N: int) -> OperatorMatrix:
    """(R, T) sectors of -omega d2/dx2 - 1 + 3 h^2, with h' as expected kernel."""
    parts = _sector_parts(wave, N)
    blocks = []
    for (char,), potential in zip(_LAYOUT[KIND_L1], parts.potentials):
        n = _modes(N, char)[0]
        block = potential.copy()
        block.reshape(-1)[::n.size + 1] += wave.omega * parts.xi[n] ** 2
        blocks.append(block)
    kernel = _to_sector(parts.samples[1], _LAYOUT[KIND_L1][0])
    return OperatorMatrix(KIND_L1, wave.L, tuple(blocks), kernel)


def assemble_Lblock(wave: WaveParameters, N: int) -> OperatorMatrix:
    """(R, T) sectors of the pair operator, with kernel (h', c h''), and psi's constant.

    The coupling c d/dx joins phi's mode to psi's of the same wavenumber,
    +c xi_n from a psi sine to a phi cosine and -c xi_n from a psi cosine
    to a phi sine; psi's block is the identity.  Each sector is written
    into one zeroed array.  c d/dx annihilates psi's constant, so it is an
    exact eigenvector of eigenvalue 1, the fifth block [[1.0]].
    """
    parts = _sector_parts(wave, N)
    xi = parts.xi
    blocks = []
    for chars, potential in zip(_LAYOUT[KIND_LBLOCK], parts.potentials):
        n, sine, _ = _modes(N, chars[0])
        n_psi = _modes(N, chars[1], True)[0]
        p = n.size
        size = p + n_psi.size
        block = np.zeros((size, size))
        block[:p, :p] = potential
        diagonal = block.reshape(-1)[::size + 1]
        diagonal[:p] += xi[n] ** 2
        diagonal[p:] = 1.0
        # phi and psi step by 2 from n[0] and n_psi[0]: their shared modes are one range
        shared = np.arange(max(n[0], n_psi[0]), min(n[-1], n_psi[-1]) + 1, 2)
        rows, cols = (shared - n[0]) // 2, p + (shared - n_psi[0]) // 2
        coupling = (-wave.c if sine else wave.c) * xi[shared]
        block[rows, cols] = coupling
        block[cols, rows] = coupling
        blocks.append(block)
    blocks.append(np.ones((1, 1)))
    h1, h2 = parts.samples[1:]
    kernel = _to_sector(np.concatenate([h1, wave.c * h2]), _LAYOUT[KIND_LBLOCK][0])
    return OperatorMatrix(KIND_LBLOCK, wave.L, tuple(blocks), kernel)


def constrain_zero_mean(M: OperatorMatrix) -> OperatorMatrix:
    """Zero-mean companion: M's four sectors without the row and column of phi's constant.

    Sector _PHI_CONSTANT becomes a view of M's block without its row 0,
    whose remaining modes are an orthonormal basis of its mean-free fields.
    The other three sectors, the kernel's sector 0 among them, pass through
    as the very blocks of M, and Lblock's fifth block, psi's constant, is
    left out.  The rank-one mean coupling p -> (3/L) (h^2, p) of the
    constrained operator has the constant as its range, which the deletion
    removes, so it is not formed, and quadratic forms of the two operators
    agree on mean-free vectors.
    """
    if M.kind not in _CONSTRAINED:
        raise ValueError(f"cannot constrain operator of kind {M.kind}")
    blocks = list(M.blocks[:len(_SECTORS)])
    blocks[_PHI_CONSTANT] = blocks[_PHI_CONSTANT][1:, 1:]
    return OperatorMatrix(_CONSTRAINED[M.kind], M.L, tuple(blocks), M.kernel_vector)


def eigen_report(M: OperatorMatrix, *, _parent: SpectralReport | None = None) -> SpectralReport:
    """Sorted eigenvalues with counts n (< -tau) and z (within tau) of zero.

    One values-only eigensolve per block, Lblock's fifth among them; tau, n
    and z are taken over the merged spectrum.  _parent is the report of the
    operator M was constrained from: only sector _PHI_CONSTANT is solved,
    and every other sector's eigenvalues are the parent's, since M holds
    the parent's very block there.  The kernel residual is measured in
    sector 0's orthonormal coordinates.
    """
    try:
        sectors = tuple(np.linalg.eigvalsh(m) if _parent is None or i == _PHI_CONSTANT
                        else _parent.sector_eigenvalues[i] for i, m in enumerate(M.blocks))
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"eigensolve failed for kind {M.kind}: {exc}") from exc
    vals = np.sort(np.concatenate(sectors))
    tau_zero = ZERO_TOL_FACTOR * float(np.max(np.abs(vals)))
    n = int(np.sum(vals < -tau_zero))
    z = int(np.sum(np.abs(vals) <= tau_zero))
    kres = float(np.max(np.abs(M.blocks[0] @ M.kernel_vector)))
    return SpectralReport(vals, n, z, tau_zero, kres, M, sectors)


def closed_form_eigenpairs(
    wave: WaveParameters, N: int
) -> tuple[ClosedFormEigenpair, ClosedFormEigenpair]:
    """The two exact quadratic-in-sn^2 eigenpairs of L1.

    With r = sqrt(1 - k^2 + k^4):
      lam = (1 + k^2 -/+ 2r) / (1 + k^2),  f = 1 - (1 + k^2 -/+ r) sn^2(bx;k).
    The first is the (negative) ground state; the second sits at the top of
    the second band gap.  The first lam is computed as -3 k'^4 / ((1 + k^2)
    (1 + k^2 + 2r)), k'^2 = (1 - k)(1 + k), free of cancellation as k -> 1.
    """
    k = wave.k.value
    k2 = k * k
    kp2 = (1.0 - k) * (1.0 + k)
    r = math.sqrt(1.0 - k2 + k2 * k2)
    h = _sector_parts(wave, N).samples[0]
    sn2 = (h / wave.a) ** 2
    lam0 = -3.0 * kp2 * kp2 / ((1.0 + k2) * (1.0 + k2 + 2.0 * r))
    lam4 = (1.0 + k2 + 2.0 * r) / (1.0 + k2)
    b0, b4 = 1.0 + k2 - r, 1.0 + k2 + r
    return (ClosedFormEigenpair(lam0, b0, 1.0 - b0 * sn2),
            ClosedFormEigenpair(lam4, b4, 1.0 - b4 * sn2))


def D1_closed(wave: WaveParameters) -> float:
    """Closed form of D1 = (L1^{-1} 1, 1): strictly negative for all k.

    D1 = -L (1+k^2)/(1-k^2)^2 * [ (1+k^2) + 2 (E-K)/K ].
    """
    k = wave.k.value
    k2 = k * k
    big_k = complete_K(wave.k)
    big_e = complete_E(wave.k)
    bracket = (1.0 + k2) + 2.0 * (big_e - big_k) / big_k
    return -wave.L * (1.0 + k2) / (1.0 - k2) ** 2 * bracket


def _check_solvable(report: SpectralReport) -> None:
    """Kernel guards of the constraint solve, raised before it runs.

    Exactly one eigenvalue must be classified zero, z = 1, and the rest,
    the sorted spectrum without the kernel entry at index n, must clear
    1e3 tau_zero in absolute value.
    """
    tau_zero, op = report.tau_zero, report.operator
    if report.z != 1:
        raise SingularSystemError(
            f"expected a one-dimensional discrete kernel for kind {op.kind}, "
            f"classified {report.z} eigenvalues within {tau_zero:.3e} of zero"
        )
    least = np.min(np.abs(np.delete(report.eigenvalues, report.n)))
    if least < 1e3 * tau_zero:
        raise SingularSystemError(
            f"retained spectrum of kind {op.kind} nearly singular: "
            f"min |eigenvalue| {least:.3e} at tau_zero {tau_zero:.3e}"
        )


def _phi_constant_solve(report: SpectralReport, N: int) -> float:
    """(M^{-1} e, e) in the grid inner product (L/N) (., .), e the constant of M's phi.

    e is sqrt(N) at row 0 of sector _PHI_CONSTANT, a T-even sector clear of
    the kernel's sector 0, so one plain solve of that sector gives it.
    """
    _check_solvable(report)
    op = report.operator
    e = np.zeros(op.blocks[_PHI_CONSTANT].shape[0])
    e[0] = math.sqrt(N)
    try:
        u = np.linalg.solve(op.blocks[_PHI_CONSTANT], e)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"solve failed for kind {op.kind}: {exc}") from exc
    return op.L / N * (u @ e)


def D1_numeric(report: SpectralReport) -> float:
    """D1 from the grid: the 1x1 D of L1, L * mean f with L1 f = 1 orthogonal to the kernel.

    report is the eigen_report of L1 on an N-point grid; L is its operator's period.
    """
    if report.operator.kind != KIND_L1:
        raise ValueError(f"D1_numeric needs a report of kind L1, got {report.operator.kind}")
    N = report.eigenvalues.size
    if N < MIN_SPECTRUM_N or N % 2 != 0:
        raise ValueError(f"D1_numeric needs an even N of at least {MIN_SPECTRUM_N}, got {N}")
    return float(_phi_constant_solve(report, N))


def D_matrix(report: SpectralReport) -> np.ndarray:
    """Numerical 2x2 constraint matrix D = diag(D1, L) of the pair operator.

    report is the eigen_report of Lblock on an N-point grid; L is its
    operator's period.  The constants of phi and psi lie in different
    blocks, so D is diagonal.  D[0, 0] is one solve of phi's constant.
    psi's constant e = sqrt(N) is the fifth block, [[1.0]], an exact
    eigenvector of eigenvalue 1, so D[1, 1] is the grid inner product
    (L/N) (e, e), which a solve would return bit for bit.
    The constrained counts are then n(Lblock) - n(D) - z(D) and
    z(Lblock) + z(D).
    """
    op = report.operator
    if op.kind != KIND_LBLOCK:
        raise ValueError(f"D_matrix needs a report of kind Lblock, got {op.kind}")
    N = op.dim // 2
    root = math.sqrt(N)
    return np.diag([_phi_constant_solve(report, N), op.L / N * (root * root)])


def _constraint_counts(D: np.ndarray, L: float) -> tuple[int, int]:
    """n(D) and z(D) read off the diagonal D at tolerance 1e-8 L."""
    diag, tol = np.diag(D), 1e-8 * L
    return int(np.sum(diag < -tol)), int(np.sum(np.abs(diag) <= tol))


def index_counts(report: SpectralReport, D: np.ndarray) -> tuple[int, int]:
    """Predicted constrained counts n - n(D) - z(D) and z + z(D) from the operator's D."""
    nD, zD = _constraint_counts(D, report.operator.L)
    return report.n - nD - zD, report.z + zD


def verify_index_counts(
    report: SpectralReport, D: np.ndarray, constrained: SpectralReport
) -> tuple[int, int]:
    """Cross-check the index prediction against the compressed spectrum."""
    n_pred, z_pred = index_counts(report, D)
    if (n_pred, z_pred) != (constrained.n, constrained.z):
        raise IndexMismatchError(
            f"index formulas predict (n, z) = ({n_pred}, {z_pred}) but the "
            f"constrained spectrum has ({constrained.n}, {constrained.z})"
        )
    return n_pred, z_pred


def coercivity_constant(report: SpectralReport) -> float:
    """Smallest eigenvalue on the orthogonal complement of the kernel direction.

    With z = 1 the kernel entry of the sorted spectrum sits at index n, so
    the complement's spectrum is every other entry.
    """
    if report.z != 1:
        raise SingularSystemError(
            f"coercivity constant needs a one-dimensional kernel, found z = {report.z}"
        )
    return float(np.min(np.delete(report.eigenvalues, report.n)))


def _d2_closed(wave: WaveParameters) -> float:
    """d''(c) = -dP/dc in closed form, P(c) = c * integral of h'^2 over one period.

    P = c G(k) with G = 32 K Q / (3 L (1 + k^2)) and Q = (1 + k^2) E - k'^2 K.
    With dE/dk = (E - K)/k and K' = dK/dk, the K terms of dQ/dk =
    2 k E + (1 + k^2)(E - K)/k + 2 k K - k'^2 K' cancel exactly, leaving
    dQ/dk = 3 k E.  The period relation gives
    d omega/dk = -omega (2 K'/K + 2 k/(1 + k^2)), and d omega/dc = -2 c, so
    dk/dc = c / (omega (K'/K + k/(1 + k^2))) and

      d'' = -G [1 + c^2 (K'/K + 3 k E/Q - 2 k/(1 + k^2)) / (omega (K'/K + k/(1 + k^2)))].
    """
    k = wave.k.value
    k2 = k * k
    big_k = complete_K(wave.k)
    big_e = complete_E(wave.k)
    q = (1.0 + k2) * big_e - (1.0 - k) * (1.0 + k) * big_k
    g = 32.0 * big_k * q / (3.0 * wave.L * (1.0 + k2))
    dlog_k = _dK_dk(k) / big_k  # K'/K
    s = k / (1.0 + k2)
    slope = (dlog_k + 3.0 * k * big_e / q - 2.0 * s) / (wave.omega * (dlog_k + s))
    return -g * (1.0 + wave.c * wave.c * slope)


def d_second_derivative(L: float, c: float, dc: float, N: int = 256) -> float:
    """Central difference of -d/dc [ c * integral of h'^2 ] at speed c.

    The independent check of full_report's closed-form d2: O(dc^2) off it,
    with N-point quadrature of h'^2.  The sign of the result is the
    stability-criterion quantity; it must be negative throughout the
    admissible speed window.  Raises the wave construction errors if c or
    c +/- dc leaves the window.
    """
    if dc <= 0.0:
        raise ValueError(f"speed step must be positive, got {dc}")

    def momentum(speed: float) -> float:
        wave = solve_modulus(L, speed)
        _, h1, _ = sample_wave(wave, N)
        return speed * L * float(np.mean(h1**2))

    solve_modulus(L, c)  # validate the center point too
    return -(momentum(c + dc) - momentum(c - dc)) / (2.0 * dc)


def full_report(L: float, c: float, N: int) -> dict:
    """Everything the spectrum pipeline knows, as one JSON-ready record.

    Field names are stable: parameters, counts, eigenvalues (full sorted
    arrays keyed by operator kind), D1_closed, D1_numeric, Dmatrix, n0, z0,
    d2, residuals, coercivity.  d2 is d''(c) in closed form, independent
    of N; parameters.dc is the speed step at which d_second_derivative
    cross-checks it.  The wave is solved and sampled once, and each
    potential block is formed once for both assemblies.  An N that is odd
    or below MIN_SPECTRUM_N raises ValueError before any compute runs.
    """
    if N < MIN_SPECTRUM_N or N % 2 != 0:
        raise ValueError(f"full_report needs an even N of at least {MIN_SPECTRUM_N}, got {N}")
    wave = solve_modulus(L, c)
    m1 = assemble_L1(wave, N)
    mb = assemble_Lblock(wave, N)
    r1, rb = eigen_report(m1), eigen_report(mb)
    r1c = eigen_report(constrain_zero_mean(m1), _parent=r1)
    rbc = eigen_report(constrain_zero_mean(mb), _parent=rb)
    reports = [r1, rb, r1c, rbc]
    D = D_matrix(rb)
    d1_numeric = D1_numeric(r1)
    verify_index_counts(r1, np.array([[d1_numeric]]), r1c)
    verify_index_counts(rb, D, rbc)
    n0, z0 = _constraint_counts(D, wave.L)
    d1_closed = D1_closed(wave)
    pair0, _ = closed_form_eigenpairs(wave, N)
    counts, eigenvalues, residuals = {}, {}, {}
    for r in reports:
        kind = r.operator.kind
        counts[kind] = [r.n, r.z]
        eigenvalues[kind] = r.eigenvalues.tolist()
        residuals["kernel_" + kind] = r.kernel_residual
    residuals["D1_relative_gap"] = abs(d1_numeric - d1_closed) / abs(d1_closed)
    residuals["ground_state_gap"] = abs(float(r1.eigenvalues[0]) - pair0.lam)
    return {
        "parameters": {
            "L": wave.L,
            "c": wave.c,
            "omega": wave.omega,
            "k": wave.k.value,
            "a": wave.a,
            "b": wave.b,
            "N": N,
            "dc": D2_SPEED_STEP,
        },
        "counts": counts,
        "eigenvalues": eigenvalues,
        "D1_closed": d1_closed,
        "D1_numeric": d1_numeric,
        "Dmatrix": D.tolist(),
        "n0": n0,
        "z0": z0,
        "d2": _d2_closed(wave),
        "residuals": residuals,
        "coercivity": coercivity_constant(rbc),
    }
