"""Linearized operators around a snoidal wave and their spectral bookkeeping.

Discretization is Fourier collocation on the uniform N-point grid: the
dense differentiation matrices are exact on the resolved trigonometric
modes, so kernel residuals and eigenvalue matches at the 1e-8 level are
reachable with N = 256.

Operators handled here (all dense, symmetric):

  L1      = -omega d2/dx2 - 1 + 3 h^2                       (scalar, N x N)
  Lblock  = [[-d2/dx2 - 1 + 3 h^2,  c d/dx], [-c d/dx, 1]]  (pair, 2N x 2N)

plus their zero-mean-constrained companions: one Householder reflector per
component maps e_0 to the constant, and deleting index 0 after it compresses
onto the mean-free vectors.  The constrained operator of the paper also
subtracts the rank-one mean coupling (3/L) (h^2, .) from the first component;
its range is the constant vector, which the compression annihilates, so the
compression alone yields the constrained operator.

Each operator is diagonalized exactly once, for its eigenvalues only, by
`eigen_report`, which is the only eigensolve in this module and the only
place eigenvalues are classified as negative or zero.  The counts and the
coercivity constant read those eigenvalues.  The solves behind D1 and the
matrix D need no eigenvectors: they border the operator with its known
kernel direction and call one dense linear solve.

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
    """Dense symmetric realization of one of the linearized operators.

    kernel_vector holds the expected discrete kernel direction (h' for L1,
    (h', c h'') for the block operator, their compressions for constrained
    kinds); the kernel-bordered solves border with it.  Constraining needs
    nothing beyond the entries: the rank-one mean coupling vanishes under the
    compression.
    """

    kind: str
    L: float
    entries: np.ndarray
    kernel_vector: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", m)
        if not np.array_equal(m, m.T):
            skew = np.max(np.abs(m - m.T))
            raise ValueError(f"operator matrix of kind {self.kind} not symmetric: skew {skew:.3e}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralReport:
    """Sorted eigenvalues with negative/zero counts at tolerance tau_zero.

    operator is the matrix they belong to; the kernel-bordered solves read
    its entries and kernel direction.
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


def fourier_diff_matrices(N: int, L: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense spectral differentiation matrices (D1, D2) on the N-point grid.

    Entries are the classic cot / csc^2 circulant stencils for period 2*pi,
    rescaled to period L.  Columns are mirrored explicitly so that D1 is
    exactly antisymmetric and D2 exactly symmetric in floating point.
    D1 maps the unresolved sawtooth (Nyquist) mode to zero; D2 keeps it
    with its cosine eigenvalue -(pi N / L)^2.
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

    idx = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    scale = 2.0 * math.pi / L
    return c1[idx] * scale, c2[idx] * (scale * scale)


def assemble_L1(wave: WaveParameters, N: int) -> OperatorMatrix:
    """Dense matrix of -omega d2/dx2 - 1 + 3 h^2 with h' as expected kernel."""
    h, h1, _ = sample_wave(wave, N)
    _, d2 = fourier_diff_matrices(N, wave.L)
    return OperatorMatrix(KIND_L1, wave.L, -wave.omega * d2 + np.diag(3.0 * h * h - 1.0), h1)


def assemble_Lblock(wave: WaveParameters, N: int) -> OperatorMatrix:
    """Dense 2N x 2N matrix of the pair operator with kernel (h', c h'')."""
    h, h1, h2 = sample_wave(wave, N)
    d1, d2 = fourier_diff_matrices(N, wave.L)
    cd1 = wave.c * d1
    m = np.block([[-d2 + np.diag(3.0 * h * h - 1.0), cd1], [cd1.T, np.eye(N)]])
    return OperatorMatrix(KIND_LBLOCK, wave.L, m, np.concatenate([h1, wave.c * h2]))


# Operator kind -> (constrained kind, number of N-point components).
_CONSTRAINED = {KIND_L1: (KIND_L1_CONSTRAINED, 1), KIND_LBLOCK: (KIND_LBLOCK_CONSTRAINED, 2)}


def constrain_zero_mean(M: OperatorMatrix) -> OperatorMatrix:
    """Zero-mean companion: B M B with each component's index 0 deleted.

    B = I - V V^T has one column v = sqrt(2) (1/sqrt(N) - e_0) / |1/sqrt(N) - e_0|
    per component: it is symmetric, orthogonal and maps e_0 to the constant, so
    its other columns are an orthonormal mean-free basis.  With P = M V and
    W = P - V (V^T P) / 2, B M B = M - (V W^T + W V^T), exactly symmetric.  The
    rank-one mean coupling p -> (3/L) (h^2, p) of the constrained operator has
    the constant as its range, which B maps to a deleted index, so it is not
    formed, and quadratic forms of the two operators agree on mean-free vectors.
    """
    if M.kind not in _CONSTRAINED:
        raise ValueError(f"cannot constrain operator of kind {M.kind}")
    kind, parts = _CONSTRAINED[M.kind]
    N = M.dim // parts
    v = np.full(N, 1.0 / math.sqrt(N))
    v[0] -= 1.0
    v *= math.sqrt(2.0) / np.linalg.norm(v)
    V = np.kron(np.eye(parts), v[:, None])
    keep = np.arange(M.dim) % N != 0
    P = M.entries @ V
    W = (P - 0.5 * V @ (V.T @ P))[keep]
    X = V[keep] @ W.T
    entries = M.entries[np.ix_(keep, keep)] - (X + X.T)
    kernel = (M.kernel_vector - V @ (V.T @ M.kernel_vector))[keep]
    return OperatorMatrix(kind, M.L, entries, kernel)


def eigen_report(M: OperatorMatrix) -> SpectralReport:
    """Sorted eigenvalues with counts n (< -tau) and z (within tau) of zero."""
    try:
        vals = np.linalg.eigvalsh(M.entries)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"eigensolve failed for kind {M.kind}: {exc}") from exc
    tau_zero = ZERO_TOL_FACTOR * float(np.max(np.abs(vals)))
    n = int(np.sum(vals < -tau_zero))
    z = int(np.sum(np.abs(vals) <= tau_zero))
    kres = float(np.max(np.abs(M.entries @ M.kernel_vector)))
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
    """Solve M x + mu k = rhs with x orthogonal to the kernel direction k of M.

    k is the operator's unit kernel_vector, so the bordered system
    [[M, k], [k^T, 0]] (x, mu) = (rhs, 0) is nonsingular whenever M has a
    one-dimensional kernel not orthogonal to k; mu absorbs the part of rhs
    along the kernel.  The report's eigenvalues guard the solve: exactly one
    must be classified zero, and the rest must clear 1e3 tau_zero.  rhs may
    be one vector (dim,) or several columns (dim, m).
    """
    vals, tau_zero, op = report.eigenvalues, report.tau_zero, report.operator
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
    bordered = np.block([[op.entries, k], [k.T, np.zeros((1, 1))]])
    padded = np.concatenate([rhs, np.zeros((1,) + np.shape(rhs)[1:])])
    try:
        return np.linalg.solve(bordered, padded)[:-1]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"bordered solve failed for kind {op.kind}: {exc}") from exc


def _constraint_matrix(report: SpectralReport) -> np.ndarray:
    """D[i, j] = (M^{-1} e_i, e_j): L * (per-component mean of U) with M U = E.

    E holds the constant of each N-point component of M (one for L1, two for Lblock).
    """
    parts = _CONSTRAINED[report.operator.kind][1]
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
