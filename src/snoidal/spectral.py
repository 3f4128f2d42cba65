"""Linearized operators around a snoidal wave and their spectral bookkeeping.

Discretization is Fourier collocation on the uniform N-point grid: the
spectral differentiation matrices are exact on the resolved trigonometric
modes, so kernel residuals and eigenvalue matches at the 1e-8 level are
reachable with N = 256.

Operators handled here (symmetric):

  L1      = -omega d2/dx2 - 1 + 3 h^2                       (scalar, N x N)
  Lblock  = [[-d2/dx2 - 1 + 3 h^2,  c d/dx], [-c d/dx, 1]]  (pair, 2N x 2N)

The wave h is odd, so L1 commutes with the grid reflection (R f)_j = f_{-j}
and Lblock with diag(R, -R).  Every operator is therefore held as its two
reflection-parity sectors, never as the unsplit matrix.  A sector's
orthonormal basis is e_a at the fixed points a = 0, N/2 of R (even parity
only) and (e_a +/- e_{-a}) / sqrt 2 for 0 < a < N/2:

  L1      even sector (N/2 + 1) and odd sector (N/2 - 1);
  Lblock  S+ = (phi even, psi odd) and S- = (phi odd, psi even), N each.

Sector 0 (L1's even sector, S+) holds the kernel direction, h' for L1 and
(h', c h'') for Lblock, and the constant of the first component; S- holds
the constant of Lblock's second component.  The blocks are gathered from the
circulant stencils by index arithmetic: the block of a circulant with first
column col between sectors is col[a - b] +/- col[a + b], weighted
1/sqrt 2 per fixed point.  h is odd on the grid only to roundoff, so the
potential 3 h^2 - 1 is averaged with its mirror image first.

Zero-mean companions: in each sector that holds a constant, one Householder
reflector maps the sector's first basis vector to the constant, and deleting
that index compresses onto the mean-free vectors; the other sector passes
through.  The constrained operator of the paper also subtracts the
rank-one mean coupling (3/L) (h^2, .) from the first component; its range is
the constant vector, which the compression annihilates, so the compression
alone yields the constrained operator.

`eigen_report` is the only eigensolve in this module and the only place
eigenvalues are classified as negative or zero: one values-only eigensolve
per sector, merged into the operator's sorted spectrum.  The counts and the
coercivity constant read those eigenvalues.  The solves behind D1 and the
matrix D need no eigenvectors: sector 0 is bordered with its known kernel
direction, the other sector is solved plainly, and the solution is mapped
back to the grid.

The constrained Morse index is cross-checked two ways: directly from the
compressed spectra, and through the count n(L_c) = n(L) - n(D) - z(D),
z(L_c) = z(L) + z(D), where D[i, j] = (L^{-1} e_i, e_j) over the constants
e_i of the operator's components: the 1x1 D1 = (L1^{-1} 1, 1) for L1 and
the 2x2 D = diag(D1, L) for Lblock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import complete_E, complete_K
from .waves import WaveParameters, grid_points, sample_wave, solve_modulus

__all__ = [
    "EigenSolveError",
    "SingularSystemError",
    "IndexMismatchError",
    "OperatorMatrix",
    "SpectralReport",
    "ClosedFormEigenpair",
    "fourier_diff_matrices",
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
    "solve_in_kernel_complement",
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
# genuine small eigenvalues scale like omega = 1 - c^2 and can reach
# 1.6e-8 * radius; 1e-12 splits the two regimes by >= 4 decades either way.
ZERO_TOL_FACTOR = 1e-12

D2_SPEED_STEP = 1e-4  # speed step of the central difference behind full_report's d2


class EigenSolveError(RuntimeError):
    """Dense symmetric eigensolver failed to converge (assembly bug)."""


class SingularSystemError(RuntimeError):
    """Kernel-bordered linear solve is ill-posed (wrong kernel handling)."""


class IndexMismatchError(RuntimeError):
    """Index-formula prediction disagrees with directly computed counts."""


@dataclass(frozen=True)
class OperatorMatrix:
    """One of the linearized operators as symmetric blocks, one per parity sector.

    kernel_vector holds the expected discrete kernel direction in the
    coordinates of blocks[0] (h' for L1, (h', c h'') for the block operator,
    their compressions for constrained kinds); the kernel-bordered solves
    border with it.  Constraining needs nothing beyond the blocks: the
    rank-one mean coupling vanishes under the compression.
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

    operator is the operator they belong to; the kernel-bordered solves read
    its sector blocks and kernel direction.
    """

    eigenvalues: np.ndarray
    n: int
    z: int
    tau_zero: float
    kernel_residual: float
    operator: OperatorMatrix


@dataclass(frozen=True)
class ClosedFormEigenpair:
    """Exact eigenpair of L1: lam with eigenfunction 1 - bracket * sn^2(bx;k)."""

    lam: float
    bracket: float
    f: np.ndarray


def _stencils(N: int, L: float) -> tuple[np.ndarray, np.ndarray]:
    """First columns of the circulant spectral D1 and D2 on the N-point grid.

    Entries are the classic cot / csc^2 stencils for period 2*pi, rescaled
    to period L, and mirrored explicitly so that D1 is exactly antisymmetric
    and D2 exactly symmetric in floating point.  D1 maps the unresolved
    sawtooth (Nyquist) mode to zero; D2 keeps it with its cosine eigenvalue
    -(pi N / L)^2.
    """
    grid_points(L, N)  # the grid rule: N even and >= 16, L > 0
    half = N // 2
    c1 = np.zeros(N)
    c2 = np.zeros(N)
    c2[0] = -(N * N) / 12.0 - 1.0 / 6.0
    m = np.arange(1, half + 1)
    s = np.sin(m * math.pi / N)
    sign = np.where(m % 2, -1.0, 1.0)
    c1[1:half + 1] = 0.5 * sign * (np.cos(m * math.pi / N) / s)
    c2[1:half + 1] = -sign / (2.0 * s * s)
    c1[half + 1:] = -c1[half - 1:0:-1]
    c2[half + 1:] = c2[half - 1:0:-1]
    c1[half] = 0.0  # cot(pi/2) = 0; keeps the sawtooth annihilated
    scale = 2.0 * math.pi / L
    return c1 * scale, c2 * (scale * scale)


def fourier_diff_matrices(N: int, L: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense spectral differentiation matrices (D1, D2) on the N-point grid.

    The circulants of `_stencils`: entry (i, j) is the stencil at i - j mod
    N.  The spectral pipeline never forms them; they are the dense grid
    oracle that the parity-sector assembly is checked against.
    """
    s1, s2 = _stencils(N, L)
    idx = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    return s1[idx], s2[idx]


EVEN, ODD = 1, -1  # parity signs s of the reflection sectors: R f = s f

# Operator kind -> parity of each N-point component, per sector.  Sector 0
# holds the kernel direction.
_LAYOUT = {KIND_L1: ((EVEN,), (ODD,)), KIND_LBLOCK: ((EVEN, ODD), (ODD, EVEN))}
_CONSTRAINED = {KIND_L1: KIND_L1_CONSTRAINED, KIND_LBLOCK: KIND_LBLOCK_CONSTRAINED}


def _parity_basis(N: int, sign: int) -> tuple[np.ndarray, int, np.ndarray]:
    """(a, sign, fixed): grid index a of each basis vector of one parity sector.

    The basis vector of index a is e_a at the fixed points a = 0, N/2 of the
    reflection (even sector only; fixed is 1 there, else 0) and
    (e_a + sign e_{-a}) / sqrt 2 for 0 < a < N/2.
    """
    half = N // 2
    a = np.arange(half + 1) if sign == EVEN else np.arange(1, half)
    return a, sign, ((a == 0) | (a == half)).astype(int)


# Weight of a block entry by its number of fixed-point indices: 1/sqrt 2 each.
_FOLD_WEIGHT = np.array([1.0, math.sqrt(0.5), 0.5])


def _fold(col: np.ndarray, diag, rows: tuple, cols: tuple) -> np.ndarray:
    """Block between two parity sectors of M[i, j] = col[i - j] (+ diag[i] where i = j).

    rows and cols are `_parity_basis` triples.  For M commuting with the
    reflection the block is w (M[a, b] + s M[a, -b]), s the sign of the
    column sector, indices mod N and w from `_FOLD_WEIGHT`, so only those
    entries of M are gathered.
    """
    (a, _, fa), (b, s, fb) = rows, cols
    N = col.size
    a = a[:, None]

    def gather(j):
        m = col[(a - j) % N]
        return m if diag is None else m + np.where(a == j % N, diag[a], 0.0)

    return _FOLD_WEIGHT[fa[:, None] + fb] * (gather(b) + s * gather(-b))


def _mirror_average(f: np.ndarray) -> np.ndarray:
    """(f + R f) / 2: the even part of a grid field."""
    return 0.5 * (f + np.roll(f[::-1], 1))


def _basis_value(fixed: np.ndarray, ndim: int) -> np.ndarray:
    """Entry q_a[a] of each basis vector, shaped to broadcast over ndim axes.

    It is 1/sqrt 2, except 1/2 at a fixed point: there a and -a coincide,
    so `_to_sector` and `_to_grid` meet the entry twice.
    """
    return np.where(fixed, 0.5, math.sqrt(0.5)).reshape((-1,) + (1,) * (ndim - 1))


def _to_sector(f: np.ndarray, parities: tuple) -> np.ndarray:
    """Coordinates in one sector of the grid field f (its components stacked, columns kept)."""
    parts = np.split(f, len(parities))
    N = parts[0].shape[0]
    out = []
    for g, sign in zip(parts, parities):
        a, _, fixed = _parity_basis(N, sign)
        q = _basis_value(fixed, g.ndim)
        out.append(q * (g[a] + sign * g[-a % N]))
    return np.concatenate(out)


def _to_grid(u: np.ndarray, parities: tuple, N: int) -> np.ndarray:
    """The grid field of sector coordinates u: the inverse of `_to_sector` on that sector."""
    out, start = [], 0
    for sign in parities:
        a, _, fixed = _parity_basis(N, sign)
        q = _basis_value(fixed, u.ndim)
        g = q * u[start:start + a.size]
        f = np.zeros((N,) + u.shape[1:])
        f[a] = g
        f[-a % N] += sign * g  # a fixed point receives g twice, and q = 1/2 there
        out.append(f)
        start += a.size
    return np.concatenate(out)


def assemble_L1(wave: WaveParameters, N: int) -> OperatorMatrix:
    """Parity sectors of -omega d2/dx2 - 1 + 3 h^2, with h' as expected kernel."""
    h, h1, _ = sample_wave(wave, N)
    _, s2 = _stencils(N, wave.L)
    col, v = -wave.omega * s2, _mirror_average(3.0 * h * h - 1.0)
    blocks = []
    for (sign,) in _LAYOUT[KIND_L1]:
        basis = _parity_basis(N, sign)
        blocks.append(_fold(col, v, basis, basis))
    return OperatorMatrix(KIND_L1, wave.L, tuple(blocks), _to_sector(h1, _LAYOUT[KIND_L1][0]))


def assemble_Lblock(wave: WaveParameters, N: int) -> OperatorMatrix:
    """Parity sectors S+ and S- of the pair operator, with kernel (h', c h'')."""
    h, h1, h2 = sample_wave(wave, N)
    s1, s2 = _stencils(N, wave.L)
    v, cd1 = _mirror_average(3.0 * h * h - 1.0), wave.c * s1
    blocks = []
    for phi, psi in _LAYOUT[KIND_LBLOCK]:
        bphi, bpsi = _parity_basis(N, phi), _parity_basis(N, psi)
        top = _fold(cd1, None, bphi, bpsi)
        blocks.append(np.block([[_fold(-s2, v, bphi, bphi), top],
                                [top.T, np.eye(top.shape[1])]]))
    kernel = _to_sector(np.concatenate([h1, wave.c * h2]), _LAYOUT[KIND_LBLOCK][0])
    return OperatorMatrix(KIND_LBLOCK, wave.L, tuple(blocks), kernel)


def constrain_zero_mean(M: OperatorMatrix) -> OperatorMatrix:
    """Zero-mean companion: B M B with index 0 deleted, in each sector that holds a constant.

    In such a sector B = I - v v^T with v = sqrt(2) (u - e_0) / |u - e_0|
    and u the sector's unit constant: B is symmetric, orthogonal and maps
    e_0 to u, so its other columns are an orthonormal mean-free basis.
    With P = M v and W = P - v (v^T P) / 2, B M B = M - (v W^T + W v^T),
    exactly symmetric.  A sector without a constant (L1's odd one) passes
    through.  The rank-one mean coupling p -> (3/L) (h^2, p) of the
    constrained operator has the constant as its range, which B maps to
    the deleted index, so it is not formed, and quadratic forms of the two
    operators agree on mean-free vectors.
    """
    if M.kind not in _CONSTRAINED:
        raise ValueError(f"cannot constrain operator of kind {M.kind}")
    layout = _LAYOUT[M.kind]
    N = M.dim // len(layout[0])
    blocks, kernel = [], M.kernel_vector
    for sector, (m, parities) in enumerate(zip(M.blocks, layout)):
        u = _to_sector(np.ones(N * len(parities)), parities)  # zero in an odd component
        if not u.any():
            blocks.append(m)
            continue
        v = u / np.linalg.norm(u)
        v[0] -= 1.0
        v *= math.sqrt(2.0) / np.linalg.norm(v)
        P = m @ v
        W = (P - 0.5 * v * (v @ P))[1:]
        X = np.outer(v[1:], W)
        blocks.append(m[1:, 1:] - (X + X.T))
        if sector == 0:
            kernel = (kernel - v * (v @ kernel))[1:]
    return OperatorMatrix(_CONSTRAINED[M.kind], M.L, tuple(blocks), kernel)


def eigen_report(M: OperatorMatrix) -> SpectralReport:
    """Sorted eigenvalues with counts n (< -tau) and z (within tau) of zero.

    One values-only eigensolve per sector; tau, n and z are taken over the
    merged spectrum.  The kernel residual is measured in sector 0's
    orthonormal coordinates.
    """
    try:
        vals = np.sort(np.concatenate([np.linalg.eigvalsh(m) for m in M.blocks]))
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"eigensolve failed for kind {M.kind}: {exc}") from exc
    tau_zero = ZERO_TOL_FACTOR * float(np.max(np.abs(vals)))
    n = int(np.sum(vals < -tau_zero))
    z = int(np.sum(np.abs(vals) <= tau_zero))
    kres = float(np.max(np.abs(M.blocks[0] @ M.kernel_vector)))
    return SpectralReport(vals, n, z, tau_zero, kres, M)


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
    h, _, _ = sample_wave(wave, N)
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


def solve_in_kernel_complement(report: SpectralReport, rhs: np.ndarray) -> np.ndarray:
    """Solve M x + mu k = rhs on the grid with x orthogonal to the kernel direction k of M.

    rhs and x are grid fields (components stacked), one vector (dim,) or
    several columns (dim, m); M is L1 or Lblock.  Each sector solves for its
    part of rhs.  Sector 0 holds k, the operator's unit kernel_vector, so
    its bordered system [[M0, k], [k^T, 0]] (x0, mu) = (rhs0, 0) is
    nonsingular whenever M0 has a one-dimensional kernel not orthogonal to
    k; mu absorbs the part of rhs along the kernel.  The other sector is
    nonsingular and takes a plain solve.  The report's eigenvalues guard the
    solve: exactly one must be classified zero, and the rest must clear
    1e3 tau_zero.
    """
    vals, tau_zero, op = report.eigenvalues, report.tau_zero, report.operator
    if op.kind not in _LAYOUT:
        raise ValueError(f"grid solves need an operator of kind L1 or Lblock, got {op.kind}")
    if report.z != 1:
        raise SingularSystemError(
            f"expected a one-dimensional discrete kernel for kind {op.kind}, "
            f"classified {report.z} eigenvalues within {tau_zero:.3e} of zero"
        )
    retained = np.abs(vals[np.abs(vals) > tau_zero])
    if np.min(retained) < 1e3 * tau_zero:
        raise SingularSystemError(
            f"retained spectrum of kind {op.kind} nearly singular: "
            f"min |eigenvalue| {np.min(retained):.3e} at tau_zero {tau_zero:.3e}"
        )
    norm = np.linalg.norm(op.kernel_vector)
    if norm == 0.0:
        raise SingularSystemError(f"kind {op.kind} carries no kernel direction to border with")
    k = op.kernel_vector[:, None] / norm
    layout = _LAYOUT[op.kind]
    N = op.dim // len(layout[0])
    x = np.zeros(np.shape(rhs))
    try:
        for sector, (m, parities) in enumerate(zip(op.blocks, layout)):
            r = _to_sector(rhs, parities)
            if sector == 0:
                bordered = np.block([[m, k], [k.T, np.zeros((1, 1))]])
                u = np.linalg.solve(bordered, np.concatenate([r, np.zeros((1,) + r.shape[1:])]))
                u = u[:-1]
            else:
                u = np.linalg.solve(m, r)
            x += _to_grid(u, parities, N)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"bordered solve failed for kind {op.kind}: {exc}") from exc
    return x


def _constraint_matrix(report: SpectralReport) -> np.ndarray:
    """D[i, j] = (M^{-1} e_i, e_j): L * (per-component mean of U) with M U = E.

    E holds the constant of each N-point component of M (one for L1, two for
    Lblock), and U is the grid solution, so the entries that vanish by
    parity are measured rather than assumed.
    """
    parts = len(_LAYOUT[report.operator.kind][0])
    N = report.eigenvalues.size // parts
    U = solve_in_kernel_complement(report, np.kron(np.eye(parts), np.ones((N, 1))))
    return report.operator.L * U.reshape(parts, N, parts).mean(axis=1).T


def D1_numeric(report: SpectralReport) -> float:
    """D1 from the grid: the 1x1 D of L1, L * mean f with L1 f = 1 orthogonal to the kernel.

    report is the eigen_report of L1 on an N-point grid; L is its operator's period.
    """
    N = report.eigenvalues.size
    if N < 64 or N % 2 != 0:
        raise ValueError(f"D1_numeric needs an even grid of at least 64 points, got {N}")
    return float(_constraint_matrix(report)[0, 0])


def D_matrix(report: SpectralReport) -> np.ndarray:
    """Numerical 2x2 constraint matrix D of the pair operator, checked to be diag(D1, L).

    report is the eigen_report of Lblock on an N-point grid; L is its
    operator's period.  Solves Lblock U = E for the two constant directions
    E = [(1,0) (0,1)] (both orthogonal to the kernel by periodicity); the
    constrained counts are then n(Lblock) - n(D) - z(D) and z(Lblock) + z(D).
    """
    if report.operator.kind != KIND_LBLOCK:
        raise ValueError(f"D_matrix needs a report of kind Lblock, got {report.operator.kind}")
    L = report.operator.L
    d = _constraint_matrix(report)
    if max(abs(d[0, 1]), abs(d[1, 0])) > 1e-8 * L:
        raise SingularSystemError(
            f"constraint matrix off-diagonal {d[0, 1]:.3e}, {d[1, 0]:.3e} "
            f"exceeds 1e-8 * L = {1e-8 * L:.3e}"
        )
    if abs(d[1, 1] - L) > 1e-8 * L:
        raise SingularSystemError(
            f"constraint matrix lower-right {d[1, 1]:.12g} differs from L = {L:.12g}"
        )
    return d


def _constraint_counts(D: np.ndarray, L: float) -> tuple[int, int]:
    """n(D) and z(D) read off D's diagonal (D_matrix checks the rest) at tolerance 1e-8 L."""
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
    """Smallest eigenvalue on the orthogonal complement of the kernel direction."""
    if report.z != 1:
        raise SingularSystemError(
            f"coercivity constant needs a one-dimensional kernel, found z = {report.z}"
        )
    vals = report.eigenvalues
    nonzero = vals[np.abs(vals) > report.tau_zero]
    return float(np.min(nonzero))


def d_second_derivative(L: float, c: float, dc: float, N: int = 256) -> float:
    """Central difference of -d/dc [ c * integral of h'^2 ] at speed c.

    The sign of the result is the stability-criterion quantity; it must be
    negative throughout the admissible speed window.  Raises the wave
    construction errors if c or c +/- dc leaves the window.
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
    d2, residuals, coercivity.
    """
    wave = solve_modulus(L, c)
    m1 = assemble_L1(wave, N)
    mb = assemble_Lblock(wave, N)
    reports = [eigen_report(m) for m in (m1, mb, constrain_zero_mean(m1), constrain_zero_mean(mb))]
    r1, rb, r1c, rbc = reports
    D = D_matrix(rb)
    d1_numeric = D1_numeric(r1)
    verify_index_counts(r1, np.array([[d1_numeric]]), r1c)
    verify_index_counts(rb, D, rbc)
    n0, z0 = _constraint_counts(D, wave.L)
    d1_closed = D1_closed(wave)
    pair0, _ = closed_form_eigenpairs(wave, N)
    d2 = d_second_derivative(L, c, D2_SPEED_STEP, N)
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
        "d2": d2,
        "residuals": residuals,
        "coercivity": coercivity_constant(rbc),
    }
