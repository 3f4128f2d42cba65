"""Linearized-operator spectra, constrained index bookkeeping, and d''(c)."""

import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import snoidal.evolution as evolution
import snoidal.spectral as spectral
from snoidal.elliptic import jacobi_sn_cn_dn
from snoidal.spectral import (
    KIND_L1,
    KIND_LBLOCK,
    MIN_SPECTRUM_N,
    ZERO_TOL_FACTOR,
    D1_closed,
    D1_numeric,
    D_matrix,
    IndexMismatchError,
    OperatorMatrix,
    SingularSystemError,
    assemble_L1,
    assemble_Lblock,
    closed_form_eigenpairs,
    coercivity_constant,
    constrain_zero_mean,
    d_second_derivative,
    eigen_report,
    full_report,
    index_counts,
    verify_index_counts,
)
from snoidal.spectral import (
    _LAYOUT,
    _PHI_CONSTANT,
    _SECTORS,
    _check_solvable,
    _d2_closed,
    _modes,
    _potential,
    _sector_parts,
    _to_sector,
)
from snoidal.waves import (
    OutOfRangeError,
    admissible_omega_window,
    grid_points,
    profile_eval,
    sample_wave,
    solve_modulus,
    wavenumbers,
)

L_CANON, C_CANON = math.pi, 0.95
# Speed at L = pi whose modulus is exactly 1/2 (from the period relation).
C_HALF_MODULUS = 0.909036096236226
# Closed-form values at k = 1/2, frozen from the exact expressions.
LAM0_HALF = -0.4422205101855954
LAM4_HALF = 2.4422205101855954
D1_OVER_L_HALF = -2.202265791280728


def unit_source_solution_closed(wave, N):
    """Closed-form solution f of L1 f = 1, combined from the two exact pairs.

    f = (lam4 B1 f0 + lam0 B2 f4) / (2 lam0 lam4 r) with B1 = bracket of the
    fifth pair and B2 = -bracket of the first.
    """
    p0, p4 = closed_form_eigenpairs(wave, N)
    k = wave.k.value
    r = math.sqrt(1.0 - k * k + k**4)
    b1, b2 = p4.bracket, -p0.bracket
    return (p4.lam * b1 * p0.f + p0.lam * b2 * p4.f) / (2.0 * p0.lam * p4.lam * r)


def fourier_diff_matrices(N: int, L: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense spectral differentiation matrices (D1, D2) on the N-point grid.

    Circulants of the classic cot / csc^2 stencils for period 2*pi, rescaled
    to period L, and mirrored explicitly so that D1 is exactly antisymmetric
    and D2 exactly symmetric in floating point.  D1 maps the unresolved
    sawtooth (Nyquist) mode to zero; D2 keeps it with its cosine eigenvalue
    -(pi N / L)^2.  The library never forms them: they are the dense grid
    oracle the sector assembly is checked against.
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
    idx = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    return (c1 * scale)[idx], (c2 * (scale * scale))[idx]


# The dense grid oracle.  The (R, T) sectors are written out here
# independently of the library: the character (r, t) of each N-point
# component per sector (R f = r f with (R f)_j = f_{-j}, T f = t f with
# (T f)_j = f_{j + N/2}; sector 0 holds the kernel), and each sector's dense
# orthonormal basis of trig modes: cos(2 pi n j / N) is R-even, sin is
# R-odd, and both have T-character (-1)^n.  Lblock's psi constant is an
# exact eigenvector, so Lblock's psi leaves its n = 0 cosine to a fifth block
# of its own (see block_columns).
SECTOR_LAYOUT = {
    "L1": (((1, -1),), ((1, 1),), ((-1, 1),), ((-1, -1),)),
    "Lblock": (((1, -1), (-1, -1)), ((1, 1), (-1, 1)), ((-1, 1), (1, 1)), ((-1, -1), (1, -1))),
}


def trig_columns(N, char):
    """(n, Q): wavenumbers and dense orthonormal basis of the grid fields of character char.

    The columns are the cosines (r even) or sines (r odd) of the wavenumbers
    n of parity t in 0..N/2, ascending; a sine vanishes at n = 0 and N/2.
    """
    r, t = char
    n = np.array([m for m in range(N // 2 + 1) if (-1) ** m == t and (r > 0 or 0 < m < N // 2)])
    angle = 2.0 * math.pi * np.outer(np.arange(N), n) / N
    q = np.cos(angle) if r > 0 else np.sin(angle)
    return n, q / np.linalg.norm(q, axis=0)


def dense_L1(wave, N):
    """-omega D2 + diag(3 h^2 - 1) on the grid."""
    h, _, _ = sample_wave(wave, N)
    _, d2 = fourier_diff_matrices(N, wave.L)
    return -wave.omega * d2 + np.diag(3.0 * h * h - 1.0)


def dense_Lblock(wave, N):
    """[[-D2 + diag(3 h^2 - 1), c D1], [-c D1, I]] on the grid."""
    h, _, _ = sample_wave(wave, N)
    d1, d2 = fourier_diff_matrices(N, wave.L)
    cd1 = wave.c * d1
    return np.block([[-d2 + np.diag(3.0 * h * h - 1.0), cd1], [cd1.T, np.eye(N)]])


def grid_kernel(wave, N, kind):
    _, h1, h2 = sample_wave(wave, N)
    return h1 if kind == "L1" else np.concatenate([h1, wave.c * h2])


def block_columns(kind, N):
    """Per block, the (n, Q) of trig_columns of each component of its sector.

    Lblock's psi skips its n = 0 cosine there, and a fifth block holds that
    cosine alone, with no column of phi.
    """
    blocks = [[trig_columns(N, c) for c in chars] for chars in SECTOR_LAYOUT[kind]]
    if kind == "Lblock":
        for parts in blocks:
            n, q = parts[1]
            parts[1] = (n[n > 0], q[:, n > 0])
        constant = (np.array([0]), np.full((N, 1), 1.0 / math.sqrt(N)))
        blocks.append([(np.array([], dtype=int), np.zeros((N, 0))), constant])
    return blocks


def sector_bases(kind, N):
    """Per block, its basis of the operator's stacked-component grid fields."""
    return [block_diag(*(q for _, q in parts)) for parts in block_columns(kind, N)]


def grid_matrix(op, N):
    """The grid matrix of an assembled operator: the sum of Q B Q^T over its sectors."""
    return sum(q @ b @ q.T for q, b in zip(sector_bases(op.kind, N), op.blocks))


def constant_rows(kind, N):
    """Per block, the row of its n = 0 cosine, a unit constant; None where it holds none."""
    rows = []
    for parts in block_columns(kind, N):
        offset, row = 0, None
        for n, _ in parts:
            if 0 in n:
                row = offset + int(np.flatnonzero(n == 0)[0])
            offset += n.size
        rows.append(row)
    return rows


def to_grid(u, chars, N):
    """Grid fields of the sector coordinate columns u: the inverse of `_to_sector`, per column."""
    out, start = [], 0
    for char, psi in zip(chars, (False, True)):
        n, sine, w = _modes(N, char, psi)
        coef = u[start:start + n.size] / w[:, None]
        F = np.zeros((N // 2 + 1, u.shape[1]), dtype=complex)
        F[n] = -1j * coef if sine else coef
        out.append(np.fft.irfft(F, n=N, axis=0))
        start += n.size
    return np.concatenate(out)


def solve_in_kernel_complement(report, rhs):
    """Solve M x + mu k = rhs on the grid with x orthogonal to the kernel direction k of M.

    rhs and x are grid fields (components stacked), one vector (dim,) or
    several columns (dim, m); M must be L1 or Lblock.  The library's kernel
    guards run next: exactly one eigenvalue must be classified zero, and the
    rest must clear 1e3 tau_zero.  Each sector solves for its part of rhs;
    sector 0 holds the unit kernel direction k, so it is bordered with k, and
    [[M0, k], [k^T, 0]] (x0, mu) = (rhs0, 0) is nonsingular whenever M0 has a
    one-dimensional kernel not orthogonal to k.  The other sectors are
    nonsingular and take a plain solve, and so does Lblock's fifth block,
    psi's constant e.
    """
    op = report.operator
    if op.kind not in _LAYOUT:
        raise ValueError(f"grid solves need an operator of kind L1 or Lblock, got {op.kind}")
    _check_solvable(report)
    norm = np.linalg.norm(op.kernel_vector)
    if norm == 0.0:
        raise SingularSystemError(f"kind {op.kind} carries no kernel direction to border with")
    k = op.kernel_vector[:, None] / norm
    layout = _LAYOUT[op.kind]
    N = op.dim // len(layout[0])
    cols = rhs.reshape(op.dim, -1)
    x = 0.0
    for sector, (m, chars) in enumerate(zip(op.blocks, layout)):
        b = np.stack([_to_sector(col, chars) for col in cols.T], axis=1)
        if sector == 0:
            bordered = np.block([[m, k], [k.T, np.zeros((1, 1))]])
            u = np.linalg.solve(bordered, np.concatenate([b, np.zeros((1, b.shape[1]))]))[:-1]
        else:
            u = np.linalg.solve(m, b)
        x = x + to_grid(u, chars, N)
    if op.kind == KIND_LBLOCK:
        e = np.concatenate([np.zeros(N), np.full(N, 1.0 / math.sqrt(N))])[None, :]
        x = x + e.T @ np.linalg.solve(op.blocks[4], e @ cols)
    return x.reshape(rhs.shape)


def mean_free_basis(n, parts):
    """QR basis of the first n - 1 columns of I - 1 1^T / n, one copy per component."""
    q, _ = np.linalg.qr((np.eye(n) - 1.0 / n)[:, : n - 1])
    return np.kron(np.eye(parts), q)


# Every even grid from the smallest to past 256, and a few large ones, N/2
# odd among them, for the potential views and the phi-psi coupling.
BLOCK_GRIDS = [*range(16, 262, 2), 512, 1024, 2050]

# One test case per sector of _SECTORS, named by its character (r, t).
by_sector = pytest.mark.parametrize(
    "sector", range(len(_SECTORS)),
    ids=["-".join("even" if s == 1 else "odd" for s in char) for char in _SECTORS])


def reference_potential(V, N, char):
    """`_potential` by (p, p) gather tables, the construction it replaced.

    The tables hold |n - m| and min(n + m, N - n - m) over the modes n, m
    of character char, in the smallest integer dtype that holds N/2 + 1,
    and `np.take` reads V at them.
    """
    n, sine, w = _modes(N, char)
    total = n[:, None] + n[None, :]
    tables = (np.abs(n[:, None] - n[None, :]), np.minimum(total, N - total))
    dtype = np.min_scalar_type(N // 2 + 1)
    diff, wrapped = (np.take(V, t.astype(dtype)) for t in tables)
    return 0.5 * np.outer(w, w) * (diff - wrapped if sine else diff + wrapped)


@pytest.fixture(scope="module")
def wave():
    return solve_modulus(L_CANON, C_CANON)


@pytest.fixture(scope="module")
def op_L1(wave):
    return assemble_L1(wave, 256)


@pytest.fixture(scope="module")
def op_Lblock(wave):
    return assemble_Lblock(wave, 256)


class TestDiffMatrices:
    def test_exact_on_trig_modes(self):
        N, L = 64, 2.5
        d1, d2 = fourier_diff_matrices(N, L)
        x = np.arange(N) * (L / N)
        for n in (1, 5, 11):
            xi = 2.0 * math.pi * n / L
            f = np.sin(xi * x)
            assert np.max(np.abs(d1 @ f - xi * np.cos(xi * x))) <= 1e-11
            assert np.max(np.abs(d2 @ f + xi * xi * f)) <= 1e-10

    def test_exact_symmetries(self):
        d1, d2 = fourier_diff_matrices(32, 1.0)
        assert np.array_equal(d1, -d1.T)
        assert np.array_equal(d2, d2.T)

    def test_annihilate_constants(self):
        d1, d2 = fourier_diff_matrices(48, 3.0)
        ones = np.ones(48)
        assert np.max(np.abs(d1 @ ones)) <= 1e-11
        assert np.max(np.abs(d2 @ ones)) <= 1e-9

    def test_grid_rule(self):
        # the rule of grid_points: N even and >= 16, L > 0
        for n, length in ((15, 1.0), (8, 1.0), (32, 0.0), (32, -1.0)):
            with pytest.raises(ValueError):
                fourier_diff_matrices(n, length)

    def test_d2_spectrum(self):
        N, L = 32, math.pi
        _, d2 = fourier_diff_matrices(N, L)
        got = np.sort(np.linalg.eigvalsh(d2))
        modes = list(range(-N // 2 + 1, N // 2 + 1))
        want = np.sort([-(2.0 * math.pi * n / L) ** 2 for n in modes])
        assert np.max(np.abs(got - want)) <= 1e-9


class TestAssembly:
    def test_L1_kernel_residual(self, op_L1):
        assert eigen_report(op_L1).kernel_residual <= 1e-8

    @pytest.mark.parametrize("N", [64, 66, 128, 130])
    def test_L1_blocks_match_trig_projection(self, wave, N):
        # the sector blocks are Q^T M Q of M = -omega d2 + diag(3 h^2 - 1)
        # on each sector's trig modes Q, to roundoff; kernel h' in the
        # (even, T-odd) sector
        _, h1, _ = sample_wave(wave, N)
        dense = dense_L1(wave, N)
        m = assemble_L1(wave, N)
        bases = sector_bases("L1", N)
        assert [b.shape[0] for b in m.blocks] == [q.shape[1] for q in bases]
        assert sum(b.shape[0] for b in m.blocks) == N
        if N == 128:
            assert [b.shape[0] for b in m.blocks] == [32, 33, 31, 32]
        for block, q in zip(m.blocks, bases):
            assert np.max(np.abs(block - q.T @ dense @ q)) <= 1e-13 * np.max(np.abs(dense))
        kernel = bases[0].T @ h1
        assert np.max(np.abs(m.kernel_vector - kernel)) <= 1e-13 * np.max(np.abs(h1))

    def test_L1_counts(self, op_L1):
        report = eigen_report(op_L1)
        assert (report.n, report.z) == (1, 1)

    def test_L1_ground_state_matches_closed_form(self, wave, op_L1):
        pair0, _ = closed_form_eigenpairs(wave, 256)
        lam_min = float(eigen_report(op_L1).eigenvalues[0])
        assert abs(lam_min - pair0.lam) <= 1e-8

    def test_Lblock_kernel_residual(self, op_Lblock):
        assert eigen_report(op_Lblock).kernel_residual <= 1e-8

    def test_Lblock_counts(self, op_Lblock):
        report = eigen_report(op_Lblock)
        assert (report.n, report.z) == (1, 1)

    @pytest.mark.parametrize("N", [64, 66, 128, 130])
    def test_Lblock_blocks_match_trig_projection(self, wave, N):
        # the sector blocks (phi with (r, t), psi with (-r, t)) and psi's
        # constant are Q^T M Q of M = [[-d2 + diag(3 h^2 - 1), c d1],
        # [-c d1, I]], to roundoff; kernel (h', c h'') in the sector of phi
        # (even, T-odd).  psi's constant leaves the (odd, T-even) sector one
        # row short of N/2.
        _, h1, h2 = sample_wave(wave, N)
        dense = dense_Lblock(wave, N)
        m = assemble_Lblock(wave, N)
        bases = sector_bases("Lblock", N)
        assert [b.shape for b in m.blocks] == [(q.shape[1],) * 2 for q in bases]
        assert [b.shape[0] for b in m.blocks] == [N // 2, N // 2, N // 2 - 1, N // 2, 1]
        for block, q in zip(m.blocks, bases):
            assert np.max(np.abs(block - q.T @ dense @ q)) <= 1e-13 * np.max(np.abs(dense))
        kernel = bases[0].T @ np.concatenate([h1, wave.c * h2])
        assert np.max(np.abs(m.kernel_vector - kernel)) <= 1e-13 * np.max(np.abs(kernel))

    @pytest.mark.parametrize("N", [64, 66, 128, 130])
    def test_Lblock_exact_parts(self, wave, N):
        # psi's block is exactly I, and c d/dx couples phi and psi only on
        # matched wavenumbers: exactly zero elsewhere, the n = 0 and Nyquist
        # cosines included; the fifth block is psi's constant alone
        m = assemble_Lblock(wave, N)
        assert len(m.blocks) == 5
        for block, ((n_phi, _), (n_psi, _)) in zip(m.blocks, block_columns("Lblock", N)):
            top = block[:n_phi.size, n_phi.size:]
            assert np.array_equal(block[n_phi.size:, n_phi.size:], np.eye(n_psi.size))
            assert not np.any(top[n_phi[:, None] != n_psi[None, :]])
            assert np.all(top[n_phi[:, None] == n_psi[None, :]] != 0.0)

    @by_sector
    def test_potential_matches_index_tables(self, wave, sector):
        # the Toeplitz and Hankel views read the entries the gather tables
        # read, bit for bit: from the wave's V and from a V of distinct
        # entries, where any misread index shows.  Both are .real views of
        # complex data, as `_sector_parts` passes V.
        char = _SECTORS[sector]
        rng = np.random.default_rng(36)
        for N in BLOCK_GRIDS:
            h = sample_wave(wave, N)[0]
            for v in (3.0 * h * h - 1.0, rng.standard_normal(N)):
                V = np.fft.rfft(v).real
                got, want = _potential(V, N, char), reference_potential(V, N, char)
                assert got.shape == want.shape, N
                assert got.tobytes() == want.tobytes(), N

    @by_sector
    def test_Lblock_coupling_on_shared_wavenumbers(self, wave, sector):
        # the sector's phi-psi block is nonzero exactly where phi and psi
        # share a wavenumber n, by np.intersect1d: +c xi_n to a phi cosine
        # and -c xi_n to a phi sine; the psi-phi block is its transpose
        chars = _LAYOUT[KIND_LBLOCK][sector]
        for N in BLOCK_GRIDS:
            xi = wavenumbers(wave.L, N)
            block = assemble_Lblock(wave, N).blocks[sector]
            (n_phi, sine, _), n_psi = _modes(N, chars[0]), _modes(N, chars[1], True)[0]
            n, rows, cols = np.intersect1d(n_phi, n_psi, return_indices=True)
            expected = np.zeros((n_phi.size, n_psi.size))
            expected[rows, cols] = (-wave.c if sine else wave.c) * xi[n]
            assert np.all(expected[rows, cols] != 0.0), N
            assert np.array_equal(block[:n_phi.size, n_phi.size:], expected), N
            assert np.array_equal(block[n_phi.size:, :n_phi.size], expected.T), N

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            OperatorMatrix(KIND_L1, 1.0, (np.array([[0.0, 1.0], [0.0, 0.0]]),), np.zeros(2))
        # every assembled block is bit-symmetric, so a roundoff skew is rejected too
        with pytest.raises(ValueError):
            OperatorMatrix(KIND_L1, 1.0, (np.eye(2), np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]])),
                           np.zeros(2))
        with pytest.raises(ValueError):
            OperatorMatrix(KIND_L1, 1.0, (np.ones(3),), np.zeros(3))  # not a square block


class TestEigenReport:
    def test_identity_matrix(self):
        m = OperatorMatrix(KIND_L1, 1.0, (np.eye(3),), np.zeros(3))
        report = eigen_report(m)
        assert (report.n, report.z) == (0, 0)
        assert np.allclose(report.eigenvalues, 1.0)

    def test_signature_matrix(self):
        m = OperatorMatrix(KIND_L1, 1.0, (np.diag([-1.0, 2.0]), np.diag([0.0])), np.zeros(2))
        report = eigen_report(m)
        assert (report.n, report.z) == (1, 1)

    def test_ground_state_grid_refinement(self, wave):
        vals = []
        for n_grid in (128, 256):
            vals.append(float(eigen_report(assemble_L1(wave, n_grid)).eigenvalues[0]))
        assert abs(vals[0] - vals[1]) <= 1e-8

    def test_counts_partition_dimension(self, op_Lblock):
        report = eigen_report(op_Lblock)
        positive = int(np.sum(report.eigenvalues > report.tau_zero))
        assert report.n + report.z + positive == op_Lblock.dim


class TestClosedForms:
    def test_frozen_values_at_half_modulus(self):
        w = solve_modulus(L_CANON, C_HALF_MODULUS)
        assert abs(w.k.value - 0.5) <= 1e-12
        pair0, pair4 = closed_form_eigenpairs(w, 64)
        assert abs(pair0.lam - LAM0_HALF) <= 1e-12
        assert abs(pair4.lam - LAM4_HALF) <= 1e-12

    @pytest.mark.parametrize("fraction", [0.03, 0.05])
    def test_ground_state_without_cancellation(self, fraction):
        # 50-digit (1 + k^2 - 2r) / (1 + k^2) at the same double k
        w = solve_modulus(L_CANON, math.sqrt(1.0 - 0.25 * fraction))
        pair0, _ = closed_form_eigenpairs(w, 64)
        with localcontext() as ctx:
            ctx.prec = 50
            k2 = Decimal(w.k.value) ** 2
            r = (1 - k2 + k2 * k2).sqrt()
            exact = float((1 + k2 - 2 * r) / (1 + k2))
        assert abs(pair0.lam - exact) <= 1e-13 * abs(exact)

    def test_pairs_are_matrix_eigenpairs(self, wave, op_L1):
        pair0, pair4 = closed_form_eigenpairs(wave, 256)
        grid = grid_matrix(op_L1, 256)
        for pair in (pair0, pair4):
            res = np.max(np.abs(grid @ pair.f - pair.lam * pair.f))
            assert res <= 1e-8

    def test_ordering_and_signs(self):
        for c in (0.9, 0.93, 0.96):
            w = solve_modulus(L_CANON, c)
            pair0, pair4 = closed_form_eigenpairs(w, 64)
            assert pair0.lam < 0.0 < pair4.lam
            assert pair4.bracket > 0.0          # B1 > 0
            assert -pair0.bracket < 0.0         # B2 < 0

    def test_bracket_combination_is_constant(self, wave):
        # B1 f0 + B2 f4 = 2 sqrt(1 - k^2 + k^4) pointwise
        pair0, pair4 = closed_form_eigenpairs(wave, 128)
        k = wave.k.value
        r = math.sqrt(1.0 - k * k + k**4)
        combo = pair4.bracket * pair0.f - pair0.bracket * pair4.f
        assert np.max(np.abs(combo - 2.0 * r)) <= 1e-12

    def test_unit_source_solution(self, wave, op_L1):
        f = unit_source_solution_closed(wave, 256)
        assert np.max(np.abs(grid_matrix(op_L1, 256) @ f - 1.0)) <= 1e-8

    def test_fifth_eigenvalue_is_in_spectrum(self, wave, op_L1):
        _, pair4 = closed_form_eigenpairs(wave, 256)
        vals = eigen_report(op_L1).eigenvalues
        assert np.min(np.abs(vals - pair4.lam)) <= 1e-8


class TestD1:
    def test_closed_form_frozen_value(self):
        w = solve_modulus(L_CANON, C_HALF_MODULUS)
        assert abs(D1_closed(w) / w.L - D1_OVER_L_HALF) <= 1e-12

    def test_small_modulus_limit(self):
        # bracket -> 1 and prefactor -> -L as k -> 0, so D1/L -> -1
        w = solve_modulus(L_CANON, math.sqrt(1.0 - 0.995 * 0.25))
        assert w.k.value < 0.06
        assert abs(D1_closed(w) / w.L + 1.0) <= 0.02

    def test_always_negative(self):
        for frac in np.linspace(0.06, 0.95, 12):
            w = solve_modulus(L_CANON, math.sqrt(1.0 - frac * 0.25))
            assert D1_closed(w) < 0.0

    def test_numeric_matches_closed(self, wave):
        d_closed = D1_closed(wave)
        for n_grid in (128, 256):
            d_num = D1_numeric(eigen_report(assemble_L1(wave, n_grid)))
            assert abs(d_num - d_closed) / abs(d_closed) <= 1e-6

    def test_numeric_converged_on_steep_wave(self):
        w = solve_modulus(L_CANON, math.sqrt(1.0 - 0.1 * 0.25))
        d_closed = D1_closed(w)
        for n_grid in (64, 256):
            d_num = D1_numeric(eigen_report(assemble_L1(w, n_grid)))
            assert abs(d_num - d_closed) / abs(d_closed) <= 1e-6

    @pytest.mark.parametrize("N", [256, 512])
    @pytest.mark.parametrize("L,fraction", [(2.0, 0.1), (5.0, 0.15), (1.2, 0.15)])
    def test_numeric_matches_closed_to_roundoff(self, L, fraction, N):
        # steep waves on fine grids: D1 agrees with its closed form to
        # roundoff, well inside the 1e-6 of the tests above
        c = math.sqrt(1.0 - fraction * L * L / (4.0 * math.pi**2))
        w = solve_modulus(L, c)
        d_closed = D1_closed(w)
        d_num = D1_numeric(eigen_report(assemble_L1(w, N)))
        assert abs(d_num - d_closed) / abs(d_closed) <= 1e-10

    def test_solution_orthogonal_to_kernel(self, wave, op_L1):
        f = solve_in_kernel_complement(eigen_report(op_L1), np.ones(256))
        h1 = grid_kernel(wave, 256, "L1")
        assert abs(float(f @ h1)) / (np.linalg.norm(f) * np.linalg.norm(h1)) <= 1e-10

    def test_solve_needs_a_grid_operator(self, op_L1):
        # a constrained operator's coordinates are not grid fields
        report = eigen_report(constrain_zero_mean(op_L1))
        with pytest.raises(ValueError):
            solve_in_kernel_complement(report, np.ones(report.eigenvalues.size))

    def test_grid_size_guard(self, wave):
        with pytest.raises(ValueError):
            D1_numeric(eigen_report(assemble_L1(wave, 32)))

    @pytest.mark.parametrize("assemble, kind", [
        (assemble_Lblock, "Lblock"),
        (lambda wave, N: constrain_zero_mean(assemble_L1(wave, N)), "L1_constrained")],
        ids=["Lblock", "L1_constrained"])
    def test_needs_an_L1_report(self, wave, assemble, kind):
        # an Lblock report holds D[0, 0] in the same sector, and its 2N
        # eigenvalues would pass the grid guard: the kind is refused first
        with pytest.raises(ValueError,
                           match=f"^D1_numeric needs a report of kind L1, got {kind}$"):
            D1_numeric(eigen_report(assemble(wave, 128)))

    def test_zero_kernel_vector_rejected(self):
        # one zero eigenvalue, but no kernel direction to border the solve with
        m = OperatorMatrix(KIND_L1, 1.0, (np.diag([0.0, 1.0, 2.0]),), np.zeros(3))
        with pytest.raises(SingularSystemError):
            solve_in_kernel_complement(eigen_report(m), np.ones(3))

    @pytest.mark.parametrize("L,c", [(math.pi, 0.95), (2.0, 0.96), (5.0, 0.8)])
    @pytest.mark.parametrize("assemble", [assemble_L1, assemble_Lblock], ids=["L1", "Lblock"])
    def test_bordered_solve_matches_eigen_deflation(self, L, c, assemble):
        # oracle: invert on the eigenpairs of eigh with the zero-classified
        # one deflated; the constant right-hand sides have no kernel component
        n = 128
        wave = solve_modulus(L, c)
        m = assemble(wave, n)
        E = np.kron(np.eye(m.dim // n), np.ones((n, 1)))
        U = solve_in_kernel_complement(eigen_report(m), E)
        dense = dense_L1 if m.kind == "L1" else dense_Lblock
        vals, vecs = np.linalg.eigh(dense(wave, n))
        keep = np.abs(vals) > ZERO_TOL_FACTOR * np.max(np.abs(vals))
        assert np.sum(~keep) == 1
        want = (vecs[:, keep] @ ((vecs[:, keep].T @ E) / vals[keep, None])).T @ E
        got = U.T @ E
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
        kernel = grid_kernel(wave, n, m.kind)
        k = kernel / np.linalg.norm(kernel)
        assert np.max(np.abs(k @ U) / np.linalg.norm(U, axis=0)) <= 1e-10

    def test_singular_detection(self):
        # two zero-classified eigenvalues -> kernel handling must refuse
        m = OperatorMatrix(KIND_L1, 1.0, (np.diag([0.0, 3.0]), np.diag([0.0])), np.zeros(2))
        with pytest.raises(SingularSystemError):
            solve_in_kernel_complement(eigen_report(m), np.ones(3))


class TestDMatrix:
    @pytest.mark.parametrize("N", [128, 130])
    def test_structure(self, wave, N):
        # the constants lie in different sectors, so the off-diagonal
        # entries are never written, whether 4 divides N or not
        rb = eigen_report(assemble_Lblock(wave, N))
        D = D_matrix(rb)
        assert D.shape == (2, 2)
        assert D[0, 1] == 0.0
        assert D[1, 0] == 0.0
        assert abs(D[1, 1] - wave.L) <= 1e-8 * wave.L
        # D1 < 0 and L > 0: n(D) = 1, z(D) = 0
        assert index_counts(rb, D) == (rb.n - 1, rb.z)

    def test_upper_left_matches_D1(self, wave, op_Lblock):
        D = D_matrix(eigen_report(op_Lblock))
        d_closed = D1_closed(wave)
        assert abs(D[0, 0] - d_closed) / abs(d_closed) <= 1e-6

    def test_rejects_scalar_operator(self, wave):
        with pytest.raises(ValueError):
            D_matrix(eigen_report(assemble_L1(wave, 64)))

    @pytest.mark.parametrize("assemble", [assemble_L1, assemble_Lblock], ids=["L1", "Lblock"])
    def test_entries_are_inner_products(self, wave, assemble):
        # D[i, j] = (M^{-1} e_i, e_j) with the grid inner product (L/N) sum
        n = 128
        report = eigen_report(assemble(wave, n))
        E = np.kron(np.eye(report.eigenvalues.size // n), np.ones((n, 1)))
        want = (wave.L / n) * (solve_in_kernel_complement(report, E).T @ E)
        got = D_matrix(report) if assemble is assemble_Lblock else D1_numeric(report)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("N", [128, 130])
    def test_one_solve_per_sector_holding_a_constant(self, wave, monkeypatch, N):
        # D solves only the sector of phi (even, T-even), and D1 only L1's
        # (even, T-even), whether 4 divides N or not; psi's constant is an
        # exact eigenvector, so D[1, 1] needs no solve
        reports = [eigen_report(assemble(wave, N)) for assemble in (assemble_Lblock, assemble_L1)]
        solve, calls = np.linalg.solve, []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counted)
        D_matrix(reports[0])
        assert len(calls) == 1
        D1_numeric(reports[1])
        assert len(calls) == 2

    @pytest.mark.parametrize("N", [64, 128, 130, 256, 512])
    def test_lower_right_is_the_plain_psi_solve(self, wave, N):
        # oracle: a plain solve of Lblock's psi-constant sector for sqrt(N)
        # at psi's constant row, read in the grid inner product (L/N) (u, e)
        op = assemble_Lblock(wave, N)
        sector, row = psi_constant(N)
        e = np.zeros(op.blocks[sector].shape[0])
        e[row] = math.sqrt(N)
        u = np.linalg.solve(op.blocks[sector], e)
        D = D_matrix(eigen_report(op))
        assert D[1, 1] == wave.L / N * (u @ e)
        assert D[0, 1] == 0.0 and D[1, 0] == 0.0

    def test_identity_block_row(self, wave):
        # Lblock (0, 1) = (0, 1), so the lower-right entry is the plain
        # inner product ((0,1),(0,1)) = L
        m = assemble_Lblock(wave, 128)
        e2 = np.concatenate([np.zeros(128), np.ones(128)])
        u2 = solve_in_kernel_complement(eigen_report(m), e2)
        assert np.max(np.abs(u2 - e2)) <= 1e-8


class TestSolveGuards:
    """The pipeline's constraint solves refuse a report they cannot trust."""

    constraints = pytest.mark.parametrize(
        "assemble, constraint", [(assemble_L1, D1_numeric), (assemble_Lblock, D_matrix)],
        ids=["D1_numeric", "D_matrix"])

    @constraints
    def test_two_zero_eigenvalues(self, wave, assemble, constraint):
        report = dataclasses.replace(eigen_report(assemble(wave, 128)), z=2)
        kind = report.operator.kind
        with pytest.raises(SingularSystemError,
                           match=f"^expected a one-dimensional discrete kernel for kind {kind}, "
                                 r"classified 2 eigenvalues within \S+ of zero$"):
            constraint(report)

    @constraints
    def test_nearly_singular_retained_spectrum(self, wave, assemble, constraint):
        # the smallest retained eigenvalue sits 100 tau_zero from zero,
        # with the kernel eigenvalue still classified zero
        report = eigen_report(assemble(wave, 128))
        vals = report.eigenvalues
        smallest = np.min(np.abs(vals[np.abs(vals) > report.tau_zero]))
        report = dataclasses.replace(report, tau_zero=smallest / 100.0)
        assert np.sum(np.abs(vals) <= report.tau_zero) == 1
        kind = report.operator.kind
        with pytest.raises(SingularSystemError,
                           match=f"^retained spectrum of kind {kind} nearly singular: "
                                 r"min \|eigenvalue\| \S+ at tau_zero \S+$"):
            constraint(report)


def synthetic_report(vals):
    """eigen_report of diag(vals) as an operator of period 1: D is counted at 1e-8."""
    m = OperatorMatrix(KIND_L1, 1.0, (np.diag(vals),), np.zeros(len(vals)))
    return eigen_report(m)


class TestIndexBookkeeping:
    def test_n0_z0_cases(self):
        # n(D) and z(D) on a 1x1 D: a negative, a positive and a zero entry
        report = synthetic_report([-1.0, 0.0, 2.0])
        assert index_counts(report, np.array([[-5.0]])) == (0, 1)
        assert index_counts(report, np.array([[3.0]])) == (1, 1)
        assert index_counts(report, np.array([[0.0]])) == (0, 2)
        assert index_counts(report, np.array([[-5e-9]])) == (0, 2)

    def test_formula_values(self):
        report = synthetic_report([-1.0, 0.0, 2.0])
        assert index_counts(report, np.diag([-2.0, 1.0])) == (0, 1)

    def test_degenerate_z0_path_with_synthetic_matrices(self):
        # D1 = 0 moves one unit from n-removal to z-growth
        report = synthetic_report([-1.0, 0.0, 2.0])
        D = np.diag([0.0, 1.0])
        assert index_counts(report, D) == (0, 2)
        constrained = synthetic_report([0.0, 0.0, 5.0])
        assert verify_index_counts(report, D, constrained) == (0, 2)

    def test_mismatch_raises(self):
        report = synthetic_report([-1.0, 0.0, 2.0])
        with pytest.raises(IndexMismatchError):
            verify_index_counts(report, np.diag([-2.0, 1.0]), report)

    @pytest.mark.parametrize("L,c", [(math.pi, 0.95), (math.pi, 0.90),
                                     (2.0, 0.96), (5.0, 0.80), (2.5, 0.93)])
    def test_cross_check_against_direct_spectra(self, L, c):
        w = solve_modulus(L, c)
        n_grid = 192
        m1 = assemble_L1(w, n_grid)
        mb = assemble_Lblock(w, n_grid)
        r1 = eigen_report(m1)
        rb = eigen_report(mb)
        r1c = eigen_report(constrain_zero_mean(m1))
        rbc = eigen_report(constrain_zero_mean(mb))
        assert verify_index_counts(r1, np.array([[D1_numeric(r1)]]), r1c) == (0, 1)
        assert verify_index_counts(rb, D_matrix(rb), rbc) == (0, 1)


class TestSectorPlacement:
    """Each count lies in its own sector: the kernel in sector 0, L's negative
    direction in the phi-constant sector, nothing near zero or below elsewhere.

    The totals alone would pass with two sectors' counts swapped; this reads
    (n, z) per block at the report's tau_zero.  (2, 0.1) is a point where
    full_report exits 3 (nearly singular retained Lblock spectrum).
    """

    @pytest.mark.parametrize("L,fraction", [
        (math.pi, 0.3), (math.pi, 0.9), (3.0, 0.6), (5.0, 0.5), (1.0, 0.5), (6.0, 0.8),
        (0.5, 0.5), (0.8, 0.5), (0.8, 0.9), (math.pi, 0.97), (5.0, 0.99), (6.2, 0.96),
        (2.0, 0.1),
    ])
    def test_counts_sit_in_their_sectors(self, L, fraction):
        N = 256
        c = math.sqrt(1.0 - fraction * admissible_omega_window(L)[1])
        wave = solve_modulus(L, c)
        reports = []
        for m in (assemble_L1(wave, N), assemble_Lblock(wave, N)):
            parent = eigen_report(m)
            reports += [parent, eigen_report(constrain_zero_mean(m), _parent=parent)]
        for report in reports:
            tau = report.tau_zero
            counts = [(int(np.sum(v < -tau)), int(np.sum(np.abs(v) <= tau)))
                      for v in report.sector_eigenvalues]
            expected = [(0, 0)] * len(counts)
            expected[0] = (0, 1)
            if report.operator.kind in (KIND_L1, KIND_LBLOCK):
                expected[_PHI_CONSTANT] = (1, 0)
            assert counts == expected, report.operator.kind
            assert tuple(map(sum, zip(*counts))) == (report.n, report.z)
        if (L, fraction) == (2.0, 0.1):
            with pytest.raises(SingularSystemError, match="nearly singular"):
                full_report(L, c, N)
            return
        rec = full_report(L, c, N)
        n, z = rec["counts"]["Lblock_constrained"]
        assert rec["coercivity"] == rec["eigenvalues"]["Lblock_constrained"][n + z]


class TestConstrainedOperators:
    def test_quadratic_form_agrees_on_mean_free_vectors(self, wave, op_Lblock):
        # (Lc u, u) = (L u, u) when both components of u have zero mean: the
        # rank-one mean coupling drops out, so constrain_zero_mean omits it
        rng = np.random.default_rng(3)
        n = op_Lblock.dim // 2
        h, _, _ = sample_wave(wave, n)
        grid = grid_matrix(op_Lblock, n)
        rank_one = np.zeros_like(grid)
        rank_one[:n, :n] = np.outer(np.ones(n), 3.0 * h**2 / n)
        modified = grid - rank_one
        for _ in range(5):
            p, q = rng.standard_normal((2, n))
            u = np.concatenate([p - np.mean(p), q - np.mean(q)])
            plain = u @ (grid @ u)
            constrained = u @ (modified @ u)
            assert abs(plain - constrained) <= 1e-9 * max(1.0, abs(plain))

    def test_constrained_counts(self, op_L1, op_Lblock):
        r1c = eigen_report(constrain_zero_mean(op_L1))
        rbc = eigen_report(constrain_zero_mean(op_Lblock))
        assert (r1c.n, r1c.z) == (0, 1)
        assert (rbc.n, rbc.z) == (0, 1)

    def test_constrained_kernel_residual(self, op_Lblock):
        assert eigen_report(constrain_zero_mean(op_Lblock)).kernel_residual <= 1e-8

    def test_dimension_drop(self, op_L1, op_Lblock):
        assert constrain_zero_mean(op_L1).dim == op_L1.dim - 1
        assert constrain_zero_mean(op_Lblock).dim == op_Lblock.dim - 2

    @pytest.mark.parametrize("assemble", [assemble_L1, assemble_Lblock], ids=["L1", "Lblock"])
    def test_matches_independent_mean_free_basis(self, wave, assemble):
        # oracle: compress the dense grid matrix onto the QR basis of the
        # first N - 1 columns of I - 1 1^T / N, one copy per component
        n = 128
        m = assemble(wave, n)
        constrained = constrain_zero_mean(m)
        assert all(np.array_equal(b, b.T) for b in constrained.blocks)
        basis = mean_free_basis(n, m.dim // n)
        dense = dense_L1 if m.kind == "L1" else dense_Lblock
        want = np.linalg.eigvalsh(basis.T @ dense(wave, n) @ basis)
        got = eigen_report(constrained).eigenvalues
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_constant_mode_deleted_only_where_it_lives(self, op_L1, op_Lblock):
        # the constants are the n = 0 cosines: L1's and Lblock's phi's at row
        # 0 of (even, T-even), Lblock's psi's alone in the fifth block.  The
        # constrained operator keeps the four sectors: (even, T-even) loses
        # row and column 0 as a view of the operator's block, every other
        # sector, the kernel's included, passes through as the very block of
        # the operator, and Lblock's fifth block is left out
        N = 256
        for op, constant_blocks in ((op_L1, [1]), (op_Lblock, [1, 4])):
            rows = constant_rows(op.kind, N)
            assert [i for i, row in enumerate(rows) if row is not None] == constant_blocks
            assert [rows[i] for i in constant_blocks] == [0] * len(constant_blocks)
            constrained = constrain_zero_mean(op)
            assert len(constrained.blocks) == 4
            for i, (b, parent) in enumerate(zip(constrained.blocks, op.blocks)):
                if i == _PHI_CONSTANT:
                    assert np.shares_memory(b, parent)
                    assert np.array_equal(b, np.delete(np.delete(parent, 0, 0), 0, 1))
                else:
                    assert b is parent
            assert constrained.kernel_vector is op.kernel_vector

    def test_coercivity_constant(self, op_Lblock):
        report = eigen_report(constrain_zero_mean(op_Lblock))
        c_val = coercivity_constant(report)
        assert c_val >= 1e-3
        # it is the smallest nonkernel eigenvalue
        vals = report.eigenvalues
        assert abs(c_val - vals[1]) <= 1e-12

    def test_coercivity_needs_a_one_dimensional_kernel(self, op_Lblock):
        report = dataclasses.replace(eigen_report(constrain_zero_mean(op_Lblock)), z=2)
        with pytest.raises(SingularSystemError,
                           match="^coercivity constant needs a one-dimensional kernel, "
                                 "found z = 2$"):
            coercivity_constant(report)

    def test_unknown_kind_rejected(self, op_L1):
        with pytest.raises(ValueError):
            constrain_zero_mean(constrain_zero_mean(op_L1))


def psi_constant(N):
    """(block, row) of the constant of Lblock's psi: its n = 0 cosine, after phi's modes."""
    for block, ((n_phi, _), (n_psi, _)) in enumerate(block_columns("Lblock", N)):
        if 0 in n_psi:
            return block, n_phi.size + int(np.flatnonzero(n_psi == 0)[0])
    raise AssertionError("no block holds psi's constant")


def plain_spectrum(op):
    """Sorted eigenvalues of op from one np.linalg.eigvalsh per block."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in op.blocks]))


DEFLATION_POINTS = [(2.0, 0.96), (math.pi, 0.95), (5.0, 0.80), (math.pi, -0.95)]


class TestPsiConstantDeflation:
    """Lblock's psi constant is an exact eigenvector of eigenvalue 1: it is
    Lblock's fifth block, [[1.0]], and its (odd, T-even) sector is the zero-mean
    minor, solved like every other block."""

    @pytest.mark.parametrize("N", [128, 130, 256])
    def test_sector_is_minor_spectrum_and_one(self, wave, N):
        # every block's values are its own eigvalsh, the fifth block's exactly
        # 1.0, and the merged eigenvalues are all of them, sorted; that the
        # (odd, T-even) sector is the zero-mean minor of psi's even cosines
        # is test_Lblock_blocks_match_trig_projection's
        op = assemble_Lblock(wave, N)
        report = eigen_report(op)
        assert len(report.sector_eigenvalues) == 5
        for vals, block in zip(report.sector_eigenvalues, op.blocks):
            assert np.array_equal(vals, np.linalg.eigvalsh(block))
        assert report.sector_eigenvalues[4].tolist() == [1.0]
        assert np.array_equal(report.eigenvalues, plain_spectrum(op))

    @pytest.mark.parametrize("N", [64, 128, 130, 256])
    @pytest.mark.parametrize("L, c", DEFLATION_POINTS)
    def test_psi_constant_is_an_invariant_line(self, L, c, N):
        # the dense oracle maps psi's constant e = (0, 1) to itself exactly:
        # each row of c d1 holds each value with its negation, and psi's
        # block is I, so every exactly rounded row sum (math.fsum) is the
        # entry of e; the fifth block is [[1.0]], the Rayleigh quotient of e
        wave = solve_modulus(L, c)
        e = np.concatenate([np.zeros(N), np.ones(N)])
        image = np.array([math.fsum(row) for row in dense_Lblock(wave, N) * e])
        assert np.array_equal(image, e)
        assert math.fsum(image * e) / math.fsum(e * e) == 1.0
        block = assemble_Lblock(wave, N).blocks[4]
        assert block.shape == (1, 1) and block[0, 0] == 1.0

    @pytest.mark.parametrize("N", [64, 128, 130, 512])
    def test_constant_positions_match_the_layout(self, N):
        # the library's constant positions against this file's own reading
        # of the sector layout: phi's at row 0 of _PHI_CONSTANT, psi's the
        # fifth block, whose character (even, T-even) modes skip n = 0 in
        # every sector of psi
        for kind, blocks in (("L1", [_PHI_CONSTANT]), ("Lblock", [_PHI_CONSTANT, 4])):
            rows = constant_rows(kind, N)
            assert [i for i, row in enumerate(rows) if row is not None] == blocks
            assert rows[_PHI_CONSTANT] == 0
        assert psi_constant(N) == (4, 0)
        for phi, psi in _LAYOUT[KIND_LBLOCK]:
            assert 0 not in _modes(N, psi, True)[0]
        assert 0 in _modes(N, _SECTORS[_PHI_CONSTANT])[0]

    @pytest.mark.parametrize("N", [128, 130])
    def test_constrained_spectra_are_plain_solves(self, N):
        # through the report's reuse of its parent's values, bit for bit
        rec = full_report(L_CANON, C_CANON, N)
        wave = solve_modulus(L_CANON, C_CANON)
        for kind, assemble in ((KIND_LBLOCK, assemble_Lblock), (KIND_L1, assemble_L1)):
            want = plain_spectrum(constrain_zero_mean(assemble(wave, N)))
            assert np.array_equal(rec["eigenvalues"][kind + "_constrained"], want), kind

    @pytest.mark.parametrize("N", [128, 130, 256, 512])
    @pytest.mark.parametrize("L, c", DEFLATION_POINTS)
    def test_spectrum_matches_plain_solve(self, L, c, N):
        op = assemble_Lblock(solve_modulus(L, c), N)
        want = plain_spectrum(op)
        got = eigen_report(op).eigenvalues
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestActionSecondDerivative:
    def test_negative_across_speeds(self):
        for frac in np.linspace(0.06, 0.94, 10):
            c = math.sqrt(1.0 - frac * 0.25)
            assert d_second_derivative(L_CANON, c, 1e-4) < 0.0

    def test_stable_under_step_halving(self):
        a = d_second_derivative(L_CANON, C_CANON, 1e-4)
        b = d_second_derivative(L_CANON, C_CANON, 5e-5)
        assert abs(a - b) / abs(a) <= 5e-4  # 3 significant digits

    @pytest.mark.parametrize("L,fraction", [(L_CANON, 0.06), (2.0, 0.06), (L_CANON, 0.5)])
    def test_truncation_error_halves_quadratically(self, L, fraction):
        # a second-order central difference: successive differences at
        # dc = 2e-4, 1e-4, 5e-5 shrink by 4
        c = math.sqrt(1.0 - fraction * L * L / (4.0 * math.pi**2))
        d = [d_second_derivative(L, c, dc) for dc in (2e-4, 1e-4, 5e-5)]
        assert 3.9 <= (d[0] - d[1]) / (d[1] - d[2]) <= 4.1

    @pytest.mark.parametrize("fraction", [0.05, 0.5, 0.85])
    @pytest.mark.parametrize("L", [2.0, math.pi, 5.0])
    def test_report_d2_is_the_richardson_limit(self, L, fraction):
        # full_report's closed form against the two-level Richardson limit of
        # the central difference at dc = (2, 1, 0.5) 1e-3 (1 - c), N = 1024
        c = math.sqrt(1.0 - fraction * L * L / (4.0 * math.pi**2))
        d = [d_second_derivative(L, c, s * 1e-3 * (1.0 - c), 1024) for s in (2.0, 1.0, 0.5)]
        r1, r2 = d[1] + (d[1] - d[0]) / 3.0, d[2] + (d[2] - d[1]) / 3.0
        limit = r2 + (r2 - r1) / 15.0
        if fraction == 0.05:
            # full_report exits 3 here (the small-omega classification
            # defect), before d2; its d2 is this function of the wave
            d2 = _d2_closed(solve_modulus(L, c))
        else:
            d2 = full_report(L, c, 128)["d2"]
        assert abs(d2 - limit) <= 1e-8 * abs(limit)

    def test_report_d2_independent_of_N(self):
        values = {full_report(L_CANON, C_CANON, N)["d2"] for N in (64, 130, 256)}
        assert len(values) == 1

    def test_speed_sign_symmetry(self):
        assert d_second_derivative(L_CANON, 0.95, 1e-4) == d_second_derivative(
            L_CANON, -0.95, 1e-4
        )

    def test_propagates_window_errors(self):
        # center constructible, c - dc leaves the admissible omega window
        c_edge = math.sqrt(1.0 - 0.9996 * 0.25)
        with pytest.raises(OutOfRangeError):
            d_second_derivative(L_CANON, c_edge, 1e-3)
        with pytest.raises(ValueError):
            d_second_derivative(L_CANON, C_CANON, -1e-4)


class TestFullReport:
    def test_record_contents(self):
        rec = full_report(L_CANON, C_CANON, 128)
        assert rec["counts"] == {
            "L1": [1, 1],
            "Lblock": [1, 1],
            "L1_constrained": [0, 1],
            "Lblock_constrained": [0, 1],
        }
        assert rec["d2"] < 0.0
        assert rec["D1_closed"] < 0.0
        assert rec["residuals"]["D1_relative_gap"] <= 1e-6
        assert rec["residuals"]["kernel_L1"] <= 1e-8
        assert rec["coercivity"] >= 1e-3
        assert (rec["n0"], rec["z0"]) == (1, 0)

    # kappa / ceiling was 0.333 at (1, 0.3) and 0.9963 at (pi, 0.99)
    @pytest.mark.parametrize("L,fraction", [
        (1.0, 0.3), (1.0, 0.9), (math.pi, 0.3), (math.pi, 0.9), (math.pi, 0.99), (3.0, 0.5),
        (2.0, 0.6), (5.0, 0.3), (5.0, 0.8), (5.0, 0.99), (6.0, 0.5),
    ])
    def test_coercivity_below_the_band_edge_ceiling(self, L, fraction):
        # v = sn dn(b x) is L1's band edge with eigenvalue lam_S = 3 k^2 / (1 + k^2),
        # zero-mean and orthogonal to the kernel and the negative direction;
        # w = (v, -B^T v), B = c d/dx, gives <Lblock w, w> = lam_S ||v||^2, so
        # kappa <= lam_S ||v||^2 / (||v||^2 + c^2 ||v'||^2).  The norms are
        # Parseval sums on 2048 points.
        c = math.sqrt(1.0 - fraction * admissible_omega_window(L)[1])
        wave = solve_modulus(L, c)
        k, n = wave.k.value, 2048
        sn, _, dn = jacobi_sn_cn_dn(wave.b * grid_points(L, n), k)
        vhat = np.fft.rfft(sn * dn)
        weight = np.full(n // 2 + 1, 2.0 * L / (n * n))
        weight[0] = weight[-1] = L / (n * n)
        v_sq = float(np.sum(weight * np.abs(vhat) ** 2))
        dv_sq = float(np.sum(weight * np.abs(wavenumbers(L, n) * vhat) ** 2))
        ceiling = 3.0 * k * k / (1.0 + k * k) * v_sq / (v_sq + c * c * dv_sq)
        assert full_report(L, c, 256)["coercivity"] <= ceiling * (1.0 + 1e-9)

    def test_each_operator_assembled_and_diagonalized_once(self, monkeypatch):
        # L1, Lblock and their two constrained companions: one values-only
        # eigensolve per distinct block, four for L1 and five for Lblock
        # (its fifth, psi's constant, is 1 x 1 and returns its entry 1.0),
        # and only the sector the constraint changes of each of L1_c and
        # Lblock_c: 11 for 17 blocks.  D and D1 make one plain solve each,
        # of the phi-constant sector.  The wave
        # is solved and sampled once, and the two assemblies share one
        # potential block per character.
        import snoidal.spectral as spectral

        names = ("eigh", "eigvalsh", "solve", "assemble_L1", "assemble_Lblock", "sample_wave",
                 "solve_modulus", "_potential")
        calls = dict.fromkeys(names, 0)

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("eigh", "eigvalsh", "solve"):
            counted(np.linalg, name)
        for name in names[3:]:
            counted(spectral, name)
        spectral._sector_parts.cache_clear()
        full_report(L_CANON, C_CANON, 128)
        assert calls == {"eigh": 0, "eigvalsh": 11, "solve": 2, "assemble_L1": 1,
                         "assemble_Lblock": 1, "sample_wave": 1, "solve_modulus": 1,
                         "_potential": 4}

    @pytest.mark.parametrize("N", [16, 32, 62, 65])
    def test_grid_checked_before_any_compute(self, monkeypatch, N):
        # a grid that is only too small is invalid input, refused before the
        # wave is solved: left to the pipeline, N = 16 fails the kernel
        # classification (exit 3's class) and 32 or 62 fail D1_numeric after
        # all 11 eigensolves
        import snoidal.spectral as spectral

        def no_compute(*args, **kwargs):
            raise AssertionError("compute ran before the grid was checked")

        monkeypatch.setattr(spectral, "solve_modulus", no_compute)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_compute)
        with pytest.raises(ValueError, match=f"^full_report needs an even N of at least "
                                             f"{MIN_SPECTRUM_N}, got {N}$"):
            full_report(L_CANON, C_CANON, N)

    def test_shared_arrays_are_read_only(self):
        # the memoized samples, wavenumbers, potential blocks and modes (psi's
        # too) are shared by every report at their (wave, N) or N: none can
        # be written
        wave = solve_modulus(L_CANON, C_CANON)
        parts = _sector_parts(wave, 128)
        shared = [*parts.samples, parts.xi, *parts.potentials]
        for char in _SECTORS:
            for psi in (False, True):
                n, _, w = _modes(128, char, psi)
                shared += [n, w]
        assert len(shared) == 24
        for a in shared:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                a += 1

    def test_assemblies_leave_the_shared_blocks_unchanged(self):
        wave = solve_modulus(L_CANON, C_CANON)
        _sector_parts.cache_clear()
        parts = _sector_parts(wave, 130)
        before = [p.copy() for p in parts.potentials]
        first = [assemble(wave, 130) for assemble in (assemble_L1, assemble_Lblock)]
        clean = [op.blocks[0].copy() for op in first]
        for op in first:
            op.blocks[0][...] = 7.0  # assembled blocks are the caller's own
        again = [assemble(wave, 130) for assemble in (assemble_L1, assemble_Lblock)]
        assert _sector_parts(wave, 130) is parts
        assert all(np.array_equal(a, b) for a, b in zip(parts.potentials, before))
        assert all(np.array_equal(op.blocks[0], b) for op, b in zip(again, clean))


SECTOR_POINTS = [(math.pi, 0.95), (2.0, 0.96), (5.0, 0.80)]


def assert_sector_spectra_match_dense(wave, N, tol):
    """Merged sector eigenvalues of all four operators against eigvalsh of the dense grid matrix."""
    for assemble, dense in ((assemble_L1, dense_L1), (assemble_Lblock, dense_Lblock)):
        m = assemble(wave, N)
        grid = dense(wave, N)
        basis = mean_free_basis(N, m.dim // N)
        for op, matrix in ((m, grid), (constrain_zero_mean(m), basis.T @ grid @ basis)):
            want = np.linalg.eigvalsh(matrix)
            got = eigen_report(op).eigenvalues
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), op.kind


def dense_bordered_solve(wave, N, kind, rhs):
    """x with [[M, k], [k^T, 0]] (x, mu) = (rhs, 0), M the dense grid matrix, k the unit kernel."""
    dense = dense_L1 if kind == "L1" else dense_Lblock
    kernel = grid_kernel(wave, N, kind)
    k = kernel[:, None] / np.linalg.norm(kernel)
    bordered = np.block([[dense(wave, N), k], [k.T, np.zeros((1, 1))]])
    return np.linalg.solve(bordered, np.concatenate([rhs, np.zeros((1,) + rhs.shape[1:])]))[:-1]


class TestParitySectors:
    """The sector pipeline against the dense grid collocation oracle."""

    @pytest.mark.parametrize("N", [66, 128, 130, 256, 512])
    @pytest.mark.parametrize("L,c", SECTOR_POINTS)
    def test_eigenvalues_match_dense_grid_matrix(self, L, c, N):
        assert_sector_spectra_match_dense(solve_modulus(L, c), N, 1e-14)

    @pytest.mark.parametrize("N", [66, 128, 130, 256, 512])
    @pytest.mark.parametrize("L,c", SECTOR_POINTS)
    def test_constraint_matrices_match_dense_bordered_solve(self, L, c, N):
        # D[i, j] = L * mean of component j of U, with [[M, k], [k^T, 0]]
        # (U, mu) = (E, 0) on the dense 2N (or N) grid matrix; the pipeline
        # solves only the T-even sectors that hold the constants
        wave = solve_modulus(L, c)
        for assemble in (assemble_L1, assemble_Lblock):
            m = assemble(wave, N)
            parts = m.dim // N
            E = np.kron(np.eye(parts), np.ones((N, 1)))
            U = dense_bordered_solve(wave, N, m.kind, E)
            want = L * U.reshape(parts, N, parts).mean(axis=1).T
            report = eigen_report(m)
            got = D_matrix(report) if parts == 2 else np.array([[D1_numeric(report)]])
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("N", [128, 130])
    @pytest.mark.parametrize("assemble", [assemble_L1, assemble_Lblock], ids=["L1", "Lblock"])
    def test_general_right_hand_side_matches_dense_bordered_solve(self, wave, assemble, N):
        # a right-hand side with a part in every sector, the kernel's
        # included (a multiple of the kernel itself), still borders sector 0
        m = assemble(wave, N)
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal((m.dim, 2))
        rhs[:, 1] += grid_kernel(wave, N, m.kind)
        got = solve_in_kernel_complement(eigen_report(m), rhs)
        want = dense_bordered_solve(wave, N, m.kind, rhs)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(L=st.floats(1.0, 6.0), fraction=st.floats(0.1, 0.9))
    def test_sectors_match_dense_across_window(self, L, fraction):
        c = math.sqrt(1.0 - fraction * L * L / (4.0 * math.pi**2))
        assert_sector_spectra_match_dense(solve_modulus(L, c), 128, 1e-14)

    @pytest.mark.parametrize("N", [64, 66, 128, 130, 256])
    @pytest.mark.parametrize("L,c", SECTOR_POINTS)
    def test_half_period_shift_symmetry(self, L, c, N):
        # the fold rests on h(x + L/2) = -h(x): h' is antiperiodic on the
        # grid, and the constants have no part, to roundoff, in a T-odd
        # sector, whose modes are the odd-n cosines and sines
        _, h1, _ = sample_wave(solve_modulus(L, c), N)
        assert np.max(np.abs(np.roll(h1, -(N // 2)) + h1)) <= 1e-12 * np.max(np.abs(h1))
        for char in ((1, -1), (-1, -1)):
            assert np.max(np.abs(trig_columns(N, char)[1].T @ np.ones(N))) <= 1e-13 * math.sqrt(N)

    def test_kernel_and_constants_in_their_sectors(self, wave):
        # (h', c h'') lies in the sector of phi (even, T-odd), e1 in that of
        # phi (even, T-even) and e2 in the fifth block: the off-diagonal
        # entries of D vanish by parity.  A constant has the
        # part sqrt(N) in its sector and only roundoff in the others.
        N = 128
        D = D_matrix(eigen_report(assemble_Lblock(wave, N)))
        assert max(abs(D[0, 1]), abs(D[1, 0])) <= 1e-13 * wave.L
        for op, holds in ((assemble_L1(wave, N), [[0], [1], [0], [0]]),
                          (assemble_Lblock(wave, N), [[0, 0], [1, 0], [0, 0], [0, 0], [0, 1]])):
            bases = sector_bases(op.kind, N)
            kernel = grid_kernel(wave, N, op.kind)
            scale = np.max(np.abs(kernel))
            assert np.max(np.abs(bases[0] @ op.kernel_vector - kernel)) <= 1e-12 * scale
            E = np.kron(np.eye(op.dim // N), np.ones((N, 1)))
            held = [np.any(np.abs(q.T @ E) > 1e-12 * math.sqrt(N), axis=0) for q in bases]
            assert [h.astype(int).tolist() for h in held] == holds


def lame_edges(wave, N):
    """The five band edges of L1 as (eigenvalue, eigenfunction, (r, t)) on the grid.

    With y = bx, (1 + k^2) L1 = -d^2/dy^2 + 6 k^2 sn^2 - (1 + k^2) is the
    n = 2 Lame operator (Arscott, 1964): its simple edges are lam0 and the
    top edge (the two quadratic-in-sn^2 pairs), 0 with cn dn, 3 k^2/(1 + k^2)
    with sn dn and 3/(1 + k^2) with sn cn.  sn is odd and cn, dn are even;
    sn and cn change sign under the half-period shift (u -> u + 2K) and dn
    does not.
    """
    k2 = wave.k.value ** 2
    sn, cn, dn = jacobi_sn_cn_dn(wave.b * grid_points(wave.L, N), wave.k.value)
    pair0, pair4 = closed_form_eigenpairs(wave, N)
    return [
        (pair0.lam, pair0.f, (1, 1)),
        (0.0, cn * dn, (1, -1)),
        (3.0 * k2 / (1.0 + k2), sn * dn, (-1, -1)),
        (3.0 / (1.0 + k2), sn * cn, (-1, 1)),
        (pair4.lam, pair4.f, (1, 1)),
    ]


def sector_spectra(wave, N):
    """Eigenvalues of each (R, T) sector block of L1, keyed by the sector's character."""
    op = assemble_L1(wave, N)
    return {chars[0]: np.linalg.eigvalsh(b) for chars, b in zip(SECTOR_LAYOUT["L1"], op.blocks)}


class TestLameEdges:
    """All five Lame edges of L1, each in the (R, T) sector its eigenfunction predicts."""

    @pytest.mark.parametrize("L,c", SECTOR_POINTS)
    def test_edges_are_grid_eigenpairs_of_their_parity(self, L, c):
        wave = solve_modulus(L, c)
        grid = dense_L1(wave, 256)
        for lam, f, (r, t) in lame_edges(wave, 256):
            scale = np.max(np.abs(f))
            assert np.max(np.abs(np.roll(f[::-1], 1) - r * f)) <= 1e-12 * scale
            assert np.max(np.abs(np.roll(f, -128) - t * f)) <= 1e-12 * scale
            assert np.max(np.abs(grid @ f - lam * f)) <= 1e-8 * scale

    @pytest.mark.parametrize("L,c", SECTOR_POINTS)
    def test_each_edge_found_in_its_sector(self, L, c):
        wave = solve_modulus(L, c)
        sectors = sector_spectra(wave, 256)
        for lam, _, char in lame_edges(wave, 256):
            for other, vals in sectors.items():
                if other == char:
                    assert np.min(np.abs(vals - lam)) <= 1e-10
                else:
                    assert np.min(np.abs(vals - lam)) >= 1e-3  # a simple edge: absent there

    @pytest.mark.parametrize("N", [128, 256])
    @pytest.mark.parametrize("L,c", SECTOR_POINTS)
    def test_odd_edges_in_the_reported_sector_spectra(self, L, c, N):
        # sn dn and sn cn, the two R-odd edges, to roundoff among the sector
        # eigenvalues that eigen_report keeps, on both grids
        wave = solve_modulus(L, c)
        sectors = eigen_report(assemble_L1(wave, N)).sector_eigenvalues
        for lam, _, char in lame_edges(wave, N)[2:4]:
            assert char[0] == -1
            assert np.min(np.abs(sectors[_SECTORS.index(char)] - lam)) <= 1e-12

    def test_edges_converge_under_grid_doubling(self):
        # a steep wave (fraction 0.06 of the window): the distance of each
        # edge to its sector's nearest eigenvalue drops by 50x or more per
        # doubling of N (spectral convergence) until it reaches roundoff
        wave = solve_modulus(L_CANON, math.sqrt(1.0 - 0.06 * 0.25))
        errors = []
        for N in (16, 32, 64, 128):
            sectors = sector_spectra(wave, N)
            errors.append([np.min(np.abs(sectors[c] - lam)) for lam, _, c in lame_edges(wave, N)])
        errors = np.array(errors)
        assert np.all(errors[0] >= 1e-2)
        assert np.all(errors[1:] <= np.maximum(errors[:-1] / 50.0, 1e-12))
        assert np.all(errors[-1] <= 1e-12)


FINITE_GAP_POINTS = [(math.pi, 0.95), (3.0, 0.9), (5.0, 0.8)]


class TestFiniteGap:
    """By Ince's theorem the n = 2 Lame potential has exactly two open gaps
    (Arscott, 1964; Magnus & Winkler, Hill's Equation, 1966), so every L1
    eigenvalue above the top edge lam4 is double: a cosine-like and a
    sine-like eigenfunction of one T-character, in the R-even and the R-odd
    sector of that character."""

    @pytest.mark.parametrize("N", [128, 256])
    @pytest.mark.parametrize("L,c", FINITE_GAP_POINTS)
    def test_eigenvalues_above_the_top_edge_pair_across_reflection(self, L, c, N):
        # (even, T-even) with (odd, T-even) and (even, T-odd) with
        # (odd, T-odd), over the lowest quarter above lam4 of the reported
        # sector eigenvalues; higher up the grid stops resolving the pairs,
        # and the Nyquist cosine has no sine partner at all
        wave = solve_modulus(L, c)
        _, pair4 = closed_form_eigenpairs(wave, N)
        sectors = eigen_report(assemble_L1(wave, N)).sector_eigenvalues
        for t in (1, -1):
            even, odd = (sectors[_SECTORS.index((r, t))] for r in (1, -1))
            even, odd = (vals[vals > pair4.lam + 1e-6] for vals in (even, odd))
            m = min(even.size, odd.size) // 4
            assert m >= N // 32 - 1
            assert np.max(np.abs(even[:m] - odd[:m]) / odd[:m]) <= 1e-11


class TestSymmetricSampling:
    """`sample_wave` fills three quarters of the grid by the wave's symmetries;
    restoring pointwise sampling moves the spectra and the flow by roundoff
    only."""

    POINTS = [(math.pi, 0.5), (2.0, 0.3), (5.0, 0.7), (4.0, 0.9), (3.0, 0.2), (2.5, 0.6)]

    @staticmethod
    def pointwise(wave, N):
        return profile_eval(wave, grid_points(wave.L, N))

    def test_reports_match_pointwise_sampling(self, monkeypatch):
        # measured: eigenvalues within 4.5e-15 of the spectral radius and
        # D1_numeric within 4.6e-14 relative
        def report(L, fraction, N, sampler):
            monkeypatch.setattr(spectral, "sample_wave", sampler)
            _sector_parts.cache_clear()
            c = math.sqrt(1.0 - fraction * admissible_omega_window(L)[1])
            return full_report(L, c, N)

        for L, fraction in self.POINTS:
            for N in (128, 256, 512):
                exact = report(L, fraction, N, self.pointwise)
                filled = report(L, fraction, N, sample_wave)
                for key in ("counts", "n0", "z0"):
                    assert filled[key] == exact[key]
                for kind, values in exact["eigenvalues"].items():
                    values = np.array(values)
                    radius = np.max(np.abs(values))
                    assert np.max(np.abs(np.array(filled["eigenvalues"][kind]) - values)) \
                        <= 1e-13 * radius
                assert abs(filled["D1_numeric"] - exact["D1_numeric"]) \
                    <= 1e-12 * abs(exact["D1_numeric"])

    def test_flow_matches_pointwise_sampling(self, monkeypatch):
        # measured: E and F within 9.3e-16 and the orbit distance within
        # 1.4e-13 of each column's largest value; the orbit distance is a
        # difference of O(1) fields, so at eps = 1e-3 the same roundoff
        # reads 5e-13 to 8e-13 of it
        wave = solve_modulus(L_CANON, C_CANON)
        pair = evolution.perturbation_random(wave.L, 128, 1)
        traces = []
        for sampler in (self.pointwise, sample_wave):
            monkeypatch.setattr(evolution, "sample_wave", sampler)
            traces.extend(evolution.run_experiment(wave, [(1e-2, pair)], 1.0, 1e-3, 50, N=128))
        for name in ("E", "F", "orbit_distance"):
            exact, filled = (trace.column(name) for trace in traces)
            assert np.max(np.abs(filled - exact)) <= 1e-12 * np.max(np.abs(exact))
