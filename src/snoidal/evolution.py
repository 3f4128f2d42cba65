"""Time evolution of the zero-mean projected phi^4 flow and orbit tracking.

The field equation phi_tt = phi_xx + phi - phi^3 + mean(phi^3) (the mean
term only in projected mode) is split into

  linear part:    phi_tt = phi_xx + phi   -- exact per Fourier mode; every
                  nonzero mode oscillates with frequency sqrt(xi_n^2 - 1)
                  since L < 2 pi makes xi_n^2 > 1, and mode 0 is pinned to
                  zero under projection (cosh/sinh growth otherwise);
  nonlinear kick: phidot -= dt * (phi^3 - mean phi^3).

Strang composition [half linear, kick, half linear] is symmetric, hence
time-reversible and second-order, and the exact linear flow removes any
CFL restriction from phi_xx.

`SplitStepper.advance` is the only stepping entry point; it carries the
state as the rfft coefficients (ph, pt) of (phi, phi_t), with wavenumbers
xi_n = 2 pi n / L, n = 0..N/2, from `waves.wavenumbers`.  A step is 10
numpy calls on 129 modes at N = 256, so their per-call overhead is most of
what a step costs beyond its two transforms, and the loop is written to
make few of them:

  - the state is one (2,) + shape buffer [p, q], so a rotation is two
    products with the tables [cos, cos] and [-sin om, sin/om] and two sums;
  - the force comes out of rfft already scaled by dt;
  - each kick stores phi^2 in a row of a chunk buffer, and one max over it
    per _CHECK_KICKS kicks tests the sup-norm ceiling the call was given; a
    trip is traced back to its first kick and row, and the up to
    _CHECK_KICKS - 1 kicks run past it have their floating-point warnings
    silenced.

The ceiling is an argument of `advance`, not state of the stepper, which
depends on (L, N, dt, projected) alone.  It is a per-run guard, not a
property of the flow: `run_experiment` sets it to _CEILING_FACTOR max |h|
of its wave, where the zero-mean flow's energy bound would fix one per
initial datum.

A call allocates its buffers once and no step allocates: the FFTs and
every product write into them, and a rotation's sums overwrite the state
its two products have read.  A batch's rotation tables are copied to the
state's shape once per call, and the stepper keeps no state between
calls.  The caller's ph and pt are only read, copied into [p, q] before
the first flow, so a block can be redone from them after a blow-up.  The
arithmetic and its order are those of the plain expressions
cos ph + sin/om pt and pt - dt rfft(phi^3), so every nonzero coefficient
has their bits (an exact zero may differ in its sign; see
`SplitStepper.advance`).  The step's two
transforms call numpy's pocketfft ufuncs (`numpy.fft._pocketfft_umath`,
numpy >= 2.0) directly, with the scale factors 1/N and dt: at N = 256 the
np.fft wrapper's per-call checks cost about as much as the transform, and
the buffers already have the shapes those checks verify.  The ufuncs and
constants the loop uses are bound to locals once per call, and outputs are
passed positionally.

The state is a batch: (B, N/2 + 1) coefficients hold B trajectories on one
grid, one per row, and `advance` takes and returns that form only; inside
the call a one-row batch steps on (N/2 + 1,) buffers, since numpy
broadcasts (1, N/2 + 1) operands more slowly.  `advance` gives each row
the bits it gets alone, and a batch pays numpy's call overhead once for
all its rows: its FFTs run over the last axis, and its rotation tables are
real values stored complex, so each product scales both components of a
coefficient exactly.
`conserved` and the orbit distance take and return blocks of sample rows,
(rows, N/2 + 1) coefficients in and one value per row out, and they too
work row by row.  `run_experiment` takes a list of (eps, perturbation)
members of one wave, steps them as one batch, which may hold a single
member, and returns one outcome per member; it batches only the stepping
and evaluates each member's trace rows on their own.  A member's trace is
then its solo trace by construction, not because every numpy call of the
diagnostics gives a row the same bits in any block (numpy's elision of
temporaries can break that; see the orbit distance's Newton loop).  A
member that leaves the sup-norm ceiling drops out at its own blow-up time
and the others go on.

Each trace row is one pass over those coefficients, and `run_experiment`
makes them in blocks of _SAMPLE_BLOCK_ROWS rows.  `advance` always returns
sample rows, one per interval of `every` steps, the last ending at nsteps,
so one call with `every` = sample_every steps a block and returns the state
at each of its samples: the first block holds the t = 0 row and 15
intervals, later ones 16, and a short last interval is the last block's
last row.  The block comes back as (rows, B, N/2 + 1) arrays for any B,
and each member's column of them goes, copied to one contiguous
(rows, N/2 + 1) array, through one `conserved` and one orbit-distance
call: the calls, on the same arrays, that its solo run makes.  A member
that blows up leaves before its block is evaluated, and the others redo
the block from its start, so no row of a departed member is evaluated.
`conserved` reads each row with Parseval sums and one irfft for
integral(phi^4).  The orbit distance uses the energy-space norm
||(p, q)||^2 = integral(p^2 + p_x^2) + integral(q^2) with the Parseval
weights w_n of `ynorm_sq`.  A shift s multiplies mode n by exp(i xi_n s)
and keeps |ph_n| and |pt_n|, so dist_sq(s) = const - 2 G(s) with
G(s) = sum_n w_n Re(cross_n exp(i xi_n s)), where cross pairs the state
with (h, c h').  The wave's samples satisfy h_{j + N/2} = -h_j, so
(h, c h') has no even modes: G runs over the odd n, and the even modes add
a Parseval sum that no shift changes.  One irfft of cross gives G at the
grid shifts, and Newton steps on G'(s) = 0 refine the best of them; the
odd modes' phases exp(i xi_n s) = e_1 (e_1^2)^m, e_1 = exp(i xi_1 s), take
one exp per row, and Newton's first phases are the grid shift's, which the
final dist_sq reuses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.fft import _pocketfft_umath

from .errors import BlowUpError
from .waves import WaveParameters, grid_points, sample_wave, wavenumbers

__all__ = [
    "BlowUpError",
    "EvolutionTrace",
    "TRACE_COLUMNS",
    "SplitStepper",
    "conserved",
    "perturbation_random",
    "ynorm_sq",
    "horizon_steps",
    "run_experiment",
]

TRACE_COLUMNS = ("t", "E", "F", "mean_phi", "mean_phidot", "orbit_distance")

_NEWTON_STEPS = 8  # per orbit-distance row; the ensemble workload's blocks take 3
_CEILING_FACTOR = 10.0  # run_experiment's blow-up ceiling, in units of max |h|
_SAMPLE_BLOCK_ROWS = 16  # trace rows per advance, conserved and orbit-distance call
_CHECK_KICKS = 64  # kicks per ceiling test in SplitStepper.advance
# horizon_steps refuses a horizon of more steps: about 3 h at 10 us a step,
# so no run, and no sweep job ahead of others, goes on without bound
MAX_STEPS = 10**9


@dataclass(frozen=True)
class EvolutionTrace:
    """Rows of (t, E, F, mean_phi, mean_phidot, orbit_distance)."""

    samples: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", rows)
        if rows.ndim != 2 or rows.shape[1] != len(TRACE_COLUMNS):
            raise ValueError(f"trace rows must have {len(TRACE_COLUMNS)} columns")
        if np.any(np.diff(rows[:, 0]) <= 0.0):
            raise ValueError("trace times must be strictly increasing")

    def column(self, name: str) -> np.ndarray:
        return self.samples[:, TRACE_COLUMNS.index(name)]


class _Modes(NamedTuple):
    xi: np.ndarray       # rfft wavenumbers xi_n
    w: np.ndarray        # Parseval weights
    xi_sq: np.ndarray    # xi_n^2
    omega2: np.ndarray   # xi_n^2 - 1, the linear part's squared frequency
    w_xi: np.ndarray     # w_n xi_n, the momentum's weights


@functools.lru_cache(maxsize=16)
def _modes(L: float, N: int) -> _Modes:
    """Read-only rfft wavenumbers, Parseval weights and their products on the N-point grid.

    Built once per (L, N); the weights turn |rfft|^2 sums into integrals over
    one period, and the products are the loop-invariant factors of
    `conserved` and the orbit distance.
    """
    xi = wavenumbers(L, N)
    w = np.full(N // 2 + 1, 2.0 * L / (N * N))
    w[0] = w[-1] = L / (N * N)
    xi_sq = xi * xi
    modes = _Modes(xi, w, xi_sq, xi_sq - 1.0, w * xi)
    for a in modes:
        a.setflags(write=False)
    return modes


class SplitStepper:
    """Strang splitting with precomputed per-mode linear rotations.

    One instance is bound to (L, N, dt, projected) and holds nothing else;
    the sup-norm ceiling is an argument of `advance`.  The rotation of mode
    0 is cosh/sinh unprojected and zero when projected, so one linear flow
    serves every mode.

    `advance` holds the state as one (2,) + shape buffer [p, q], so a
    rotation is four ufunc calls: y = [cos, cos] [p, q] and
    z = [-sin om, sin/om] [p, q] in two products, then p' = y[0] + z[1] and
    q' = y[1] + z[0].  Those are the sums cos p + sin/om q and
    -sin om p + cos q, the second with its terms swapped, which IEEE
    addition does not see.  All three flows, the opening half, the fused
    full and the closing half, take this form.  The two tables of each flow
    are kept for one row, and each `advance` call on B >= 2 rows copies
    them to its (2, B, N/2 + 1) shape: multiplying by a contiguous
    table of the state's own shape is faster than broadcasting a per-mode
    one over its rows.  The kick transforms through pocketfft's irfft and
    rfft_n_even ufuncs with the scale factors 1/N and dt, so it gets
    np.fft's bits without the wrapper's per-call cost; rfft_n_even needs
    the grid rule's even N.
    """

    def __init__(self, L: float, N: int, dt: float, projected: bool = True):
        if dt == 0.0 or not math.isfinite(dt):
            raise ValueError(f"time step must be nonzero and finite, got {dt}")
        # dt < 0 steps backward; with exact sub-flows this inverts the
        # forward step to roundoff (Strang symmetry).
        if not (0.0 < L < 2.0 * math.pi):
            raise ValueError(f"period must lie in (0, 2*pi), got {L}")
        grid_points(L, N)  # the grid rule: N even and >= 16
        self.L, self.N, self.dt = L, N, dt
        self.projected = projected
        om = np.sqrt(_modes(L, N).omega2[1:])  # > 0 for every nonzero mode when L < 2 pi
        rotations = []  # the half flow's and the full flow's
        for tau in (0.5 * dt, dt):
            ch, sh = (0.0, 0.0) if projected else (math.cosh(tau), math.sinh(tau))
            cos = np.r_[ch, np.cos(om * tau)]
            sin = np.sin(om * tau)
            # [cos, cos] and [-sin om, sin/om], stored complex: numpy
            # multiplies a real array into a complex one by casting it to
            # complex first, so the bits are the same, but the cast costs a
            # buffered pass per product
            rotations.append((np.array([cos, cos], complex),
                              np.array([np.r_[sh, -sin * om], np.r_[sh, sin / om]], complex)))
        self._rotations = tuple(rotations)

    def _trip(self, squares, first, start, every, ceiling):
        """Raise BlowUpError for the first kick and row of `squares` over `ceiling`.

        squares holds phi^2 of kicks first, first + 1, ... of the call, one
        per leading index; max |phi| is read off it as sqrt(max phi^2), exact
        away from under- and overflow.  Kick j is kick k = j % every of
        interval i = j // every, at time (start + i every) dt + (k + 1/2) dt:
        the time a call of its own from the interval's first step gives it.
        """
        sups = np.sqrt(np.max(squares, axis=-1)).reshape(len(squares), -1)  # (kick, row)
        over = ~(sups <= ceiling)  # NaN trips it too
        kick = int(np.argmax(over.any(axis=1)))
        member = int(np.argmax(over[kick]))
        sup, dt = float(sups[kick, member]), self.dt
        interval, local = divmod(first + kick, every)
        t = (start + interval * every) * dt + (local + 0.5) * dt
        raise BlowUpError(
            f"||phi||_inf = {sup:.6g} exceeded ceiling {ceiling:.6g} at t = {t:.6g}",
            time=t, member=member,
        )

    def advance(self, ph, pt, nsteps: int, start: int, every: int, ceiling: float):
        """nsteps Strang steps after `start` whole steps, fusing interior half flows.

        ph, pt are the rfft coefficients of (phi, phi_t) of B trajectories,
        both of shape (B, N/2 + 1) with B >= 1, the one form it takes: any
        other raises ValueError naming it, after the check of `every`.
        B = 1 steps on (N/2 + 1,) buffers, which numpy multiplies faster
        than (1, N/2 + 1) ones.  A step is ten ufunc calls, nine
        unprojected: the four of the rotation, then the kick's irfft,
        phi^2, phi^3 = phi^2 phi, the rfft scaled by dt, mode 0 of the
        force set to dt's (signed) zero in projected mode, and q -= force.
        The call allocates its buffers once and no step allocates; a
        rotation's sums overwrite the state its products have read.  The
        FFTs call the pocketfft ufuncs behind np.fft.irfft and
        np.fft.rfft, with 1/N and dt as scale factors.  pocketfft scales
        each real component by dt, which gives the values of the complex128
        product dt * force; only a component that is exactly zero can take
        the other sign of zero (the zero state at dt = -0.05 does), and no
        sum with a nonzero value sees it.  Mode 0 gets copysign(0, dt) + 0j,
        the product's dt * 0j.

        It returns two (ceil(nsteps / every), B, N/2 + 1) arrays, views of
        one buffer, whatever B is (nsteps < 1 gives no rows, and
        every = nsteps one), row i the state after min((i + 1) every,
        nsteps) steps, so a short last interval ends in the last row.  Each
        row has the bits of chained calls, one per interval: at a sample the
        closing half flow goes into the row and the opening one starts from
        it.

        Each kick writes phi^2 into the next row of a
        (min(nsteps, _CHECK_KICKS),) + phi.shape buffer, and one max over
        it per chunk of _CHECK_KICKS kicks, which may span samples, tests
        ||phi||_inf of every row against `ceiling`, one float for the call
        (NaN trips even an infinite one).  A trip raises BlowUpError naming
        the first kick and row over it, timed as the chained call that makes
        that kick would time it (see `_trip`).
        Up to _CHECK_KICKS - 1 kicks run past a trip, so the loop runs with
        overflow and invalid-value warnings off, and a trip whose phi^2
        overflowed reports ||phi||_inf = inf.  ph and pt are copied into
        [p, q], which every flow rotates with the same four calls, so the
        inputs are never written -- `run_experiment` redoes a block from
        them after a blow-up -- and the rows returned, two halves of one
        buffer, share no memory with them.  BlowUpError.member names the
        tripping row.
        """
        if every < 1:
            raise ValueError(f"every must be at least 1, got {every}")
        if ph.shape != pt.shape or ph.shape[1:] != (self.N // 2 + 1,) or not len(ph):
            raise ValueError(f"advance takes (B, {self.N // 2 + 1}) batches with B >= 1, "
                             f"got {ph.shape} and {pt.shape}")
        samples = -(-max(nsteps, 0) // every)
        out = np.empty((2, samples) + ph.shape, complex)  # the sample rows, [p, q] each
        if not samples:
            return out[0], out[1]
        # a lone row steps as (N/2 + 1,): numpy broadcasts (1, N/2 + 1) operands more slowly
        state = ph.shape[1:] if len(ph) == 1 else ph.shape
        sampled = out.reshape((2, samples) + state)  # out's rows in the state's shape, a view
        half, full = self._rotations
        if len(ph) > 1:  # contiguous (2, B, N/2 + 1) copies: broadcasting over the rows is slower
            half, full = ([np.repeat(table[:, None], len(ph), axis=1) for table in flow]
                          for flow in (half, full))
        N, dt, projected = self.N, self.dt, self.projected
        inv_n = 1.0 / N
        zero = complex(math.copysign(0.0, dt), 0.0)  # mode 0 of dt * rfft(phi^3 - mean)
        # bound here, not at import, so a patched _pocketfft_umath is seen
        irfft, rfft = _pocketfft_umath.irfft, _pocketfft_umath.rfft_n_even
        multiply, add, subtract = np.multiply, np.add, np.subtract
        # s = [p, q] holds the state and y, z a rotation's two products,
        # whose sums go back into s; the kick's force goes into y[0]
        s, y, z = (np.empty((2,) + state, complex) for _ in range(3))
        (p, q), (y0, y1), (z0, z1) = s, y, z
        force0 = y0[..., 0]
        phi = np.empty(state[:-1] + (N,))
        cube = np.empty_like(phi)
        squares = np.empty((min(nsteps, _CHECK_KICKS),) + phi.shape)  # phi^2 per kick of a chunk
        rows = list(squares)
        p[...] = ph
        q[...] = pt
        # the flows before kick j, each (tables, source, (p, q) target): the
        # fused full flow inside an interval; the opening half flow at j = 0;
        # at an interior sample, the closing half flow into the sample row,
        # then the opening half flow from that row
        fused = ((full, s, (p, q)),)
        starts = [((half, s, (p, q)),)] + [
            ((half, s, (sampled[0, i], sampled[1, i])), (half, sampled[:, i], (p, q)))
            for i in range(samples - 1)]
        with np.errstate(over="ignore", invalid="ignore"):
            for first in range(0, nsteps, _CHECK_KICKS):
                kicks = min(nsteps - first, _CHECK_KICKS)
                for j, square in enumerate(rows[:kicks], first):
                    for (cos, sin), source, (target_p, target_q) in (
                            fused if j % every else starts[j // every]):
                        multiply(cos, source, y)
                        multiply(sin, source, z)
                        add(y0, z1, target_p)
                        add(y1, z0, target_q)
                    # the kick: q -= dt (phi^3 - mean phi^3)
                    irfft(p, inv_n, phi)
                    multiply(phi, phi, square)
                    multiply(square, phi, cube)
                    rfft(cube, dt, y0)
                    if projected:
                        force0.fill(zero)  # subtracting the mean of phi^3, exactly
                    subtract(q, y0, q)
                # sqrt(fl(x^2)) = |x| in binary64 away from under- and
                # overflow, so this is max |phi| over the chunk and batch;
                # NaN trips it too
                if not math.sqrt(np.maximum.reduce(squares[:kicks], None)) <= ceiling:
                    self._trip(squares[:kicks], first, start, every, ceiling)
        cos, sin = half  # the closing half flow, into the last sample row
        multiply(cos, s, y)
        multiply(sin, s, z)
        add(y0, z1, sampled[0, -1])
        add(y1, z0, sampled[1, -1])
        return out[0], out[1]


def _h1_semi_sq(values: np.ndarray, L: float) -> float:
    """integral of (d/dx)^2 via Parseval, Nyquist included."""
    modes = _modes(L, values.size)
    return float(np.sum(modes.w * (modes.xi * np.abs(np.fft.rfft(values))) ** 2))


def conserved(ph: np.ndarray, pt: np.ndarray, L: float) -> tuple:
    """(E, F, mean phi, mean phi_t) of each row of the rfft coefficient block (ph, pt).

    E = 1/2 integral(phi_x^2 + phi_t^2 - phi^2 + phi^4 / 2), F = integral(phi_x
    phi_t) on N = 2 (ph.shape[1] - 1) points.  Quadratic terms are Parseval
    sums; phi_x keeps the Nyquist mode in E, as `ynorm_sq` does, and drops it
    in F, since the grid's spectral first derivative maps the sawtooth mode
    to zero.  integral(phi^4) takes one irfft.  A (rows, N/2 + 1) block
    gives four arrays of one value per row.
    """
    N = 2 * (ph.shape[1] - 1)
    modes = _modes(L, N)
    phi_sq = np.fft.irfft(ph, N) ** 2  # squared twice: phi**4 is a slow pow
    quadratic = modes.omega2 * (ph.real**2 + ph.imag**2) + pt.real**2 + pt.imag**2
    energy = 0.5 * (np.sum(modes.w * quadratic, axis=1)
                    + 0.5 * L / N * np.sum(phi_sq * phi_sq, axis=1))
    flux = modes.w_xi * (ph.real * pt.imag - ph.imag * pt.real)
    return energy, np.sum(flux[:, :-1], axis=1), ph[:, 0].real / N, pt[:, 0].real / N


def ynorm_sq(p: np.ndarray, q: np.ndarray, L: float) -> float:
    """Squared energy-space norm: integral(p^2 + p_x^2) + integral(q^2)."""
    quad = L / p.size
    return quad * float(np.sum(p**2)) + _h1_semi_sq(p, L) + quad * float(np.sum(q**2))


class _OrbitDistance:
    """Shift-minimized energy-space distance to a fixed wave pair (h, c h').

    h_{j + N/2} = -h_j on the grid, so the DFTs of h and h' have no even
    modes: exact zeros at N = 2^m, residues r_n of about 1e-16 max |rfft|
    elsewhere.  The even modes add sum w ((1 + xi^2) |ph_n - r_n|^2 +
    |pt_n - c r'_n|^2) to dist_sq, which keeps the sampled wave at distance
    0; Newton and the shifted terms run on the K odd modes (N/2 odd adds the
    half-weight Nyquist mode), with exp(i xi_n s) = e_1 (e_1^2)^m.
    """

    def __init__(self, wave: WaveParameters, h: np.ndarray, h1: np.ndarray):
        self.L, self.N = wave.L, h.size
        modes = _modes(wave.L, h.size)
        odd, even = slice(1, None, 2), slice(0, None, 2)
        hhat, hthat = np.fft.rfft(h), wave.c * np.fft.rfft(h1)
        self.hhat, self.hthat = hhat[odd], hthat[odd]
        # the even modes: their residues, and the Parseval weights of their sum
        self.even = hhat[even], hthat[even], (modes.w * (1.0 + modes.xi_sq))[even], modes.w[even]
        self.ixi1 = 1j * modes.xi[1]
        self.xi, self.weight, self.xi_sq = modes.xi[odd], modes.w[odd], modes.xi_sq[odd]
        self.sobolev = 1.0 + self.xi_sq
        # Complex factors of the complex products.  numpy multiplies a real
        # array into a complex one by casting it to complex first, so these
        # give the same bits without the cast's extra pass.
        self.cross_factors = (self.sobolev.astype(complex), np.conj(self.hhat),
                              np.conj(self.hthat), self.weight.astype(complex))

    def _phases(self, s: np.ndarray, out: np.ndarray) -> np.ndarray:
        """exp(i xi_n s) of the odd modes into the (len(s), K) array `out`, one exp per shift."""
        e1 = np.exp(self.ixi1 * s)
        out[:, 0] = e1
        out[:, 1:] = (e1 * e1)[:, None]
        return np.multiply.accumulate(out, axis=-1, out=out)

    def __call__(self, ph: np.ndarray, pt: np.ndarray):
        """Distance to the orbit of each row of the rfft coefficient block (ph, pt).

        A (rows, N/2 + 1) block gives an array of one distance per row.  The
        grid shifts, their brackets, the Newton shifts and the mask of rows
        still stepping are arrays over the rows; each Newton iteration takes
        one exp per row and two row sums over the odd modes, and the first
        reuses the grid shift's phases, so n iterations make n + 1 exp calls
        of one element per row.
        """
        N, L, xi, xi_sq = self.N, self.L, self.xi, self.xi_sq
        sobolev_c, hhat_conj, hthat_conj, weight_c = self.cross_factors
        ph_odd, pt_odd = ph[:, 1::2], pt[:, 1::2]
        # Coarse pass: one irfft gives G at every grid shift (it supplies the
        # conjugate modes, so no Parseval weights); the exact grid shift, whose
        # phase is exactly representable, stays in the candidate set.
        cross = sobolev_c * ph_odd * hhat_conj + pt_odd * hthat_conj
        spectrum = np.zeros(ph.shape, complex)
        spectrum[:, 1::2] = cross
        best = np.argmax(np.fft.irfft(spectrum, N), axis=-1)
        lo, s, hi = ((best + k) * L / N for k in (-1, 0, 1))  # the grid shift and its bracket
        # Newton on G'(s) = 0 inside each row's bracket; z holds the terms of
        # G(s).  Newton starts at the grid shift, whose phases the final
        # dist_sq needs too; the Newton shift's go into phase[0].
        phase = np.empty((2,) + cross.shape, complex)
        self._phases(s, phase[1])
        wcross = weight_c * cross
        live = np.ones(len(s), bool)
        # a dead row may divide 0 by 0; an overflowed quotient is clipped to the bracket
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for k in range(_NEWTON_STEPS):
                # np.multiply, not wcross * ...: numpy computes a product
                # with a temporary of 256 KiB or more in that temporary, with
                # the operands swapped, and a complex product's bits depend on
                # their order, so the rows' bits would depend on their number
                z = np.multiply(wcross, self._phases(s, phase[0]) if k else phase[1])
                slope = -(xi * z.imag).sum(axis=-1)
                curvature = -(xi_sq * z.real).sum(axis=-1)
                live &= curvature < 0.0  # otherwise G has no maximum to step toward
                step = np.minimum(np.maximum(s - slope / curvature, lo), hi) - s
                s = np.where(live, s + step, s)
                live &= ~(np.abs(step) <= 1e-15 * L)
                if not live.any():
                    break
        # dist_sq at the Newton shift and at the grid shift, in the stable
        # form: difference per mode first, then square, so the result has no
        # cancellation floor near the orbit.
        self._phases(s, phase[0])
        dp = np.multiply(ph_odd, phase) - self.hhat
        dq = np.multiply(pt_odd, phase) - self.hthat
        odd_sq = np.sum(self.weight * (
            self.sobolev * (dp.real**2 + dp.imag**2) + dq.real**2 + dq.imag**2
        ), axis=-1)
        hhat_even, hthat_even, w_sobolev, w = self.even
        dp, dq = ph[:, ::2] - hhat_even, pt[:, ::2] - hthat_even
        even_sq = np.sum(w_sobolev * (dp.real**2 + dp.imag**2) + w * (dq.real**2 + dq.imag**2),
                         axis=-1)
        return np.sqrt(np.minimum(*odd_sq) + even_sq)


def perturbation_random(L: float, N: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-Y-norm random zero-mean pair, band-limited to modes 1..min(max(2, N/8), 32).

    Reproducible by construction: amplitudes and phases are uniform doubles
    drawn from a PCG64 stream seeded with `seed` (two draws per mode and
    component, in mode order, phi before phi_t), with a 1/m^2 falloff.  The
    band is N/8 modes up to N = 256 and 32 modes above, so every grid with
    N >= 256 samples one perturbation per seed, and a stability ratio can be
    checked by refining the grid.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    x = grid_points(L, N)
    m = np.arange(1, min(max(2, N // 8), 32) + 1)[:, None]
    draws = rng.random((2, m.size, 2))  # (amplitude, phase) per field and mode, in that order
    amp = (2.0 * draws[..., :1] - 1.0) / (m * m)
    phase = 2.0 * math.pi * draws[..., 1:]
    p, q = np.sum(amp * np.cos(2.0 * math.pi * m / L * x + phase), axis=1)
    scale = 1.0 / math.sqrt(ynorm_sq(p, q, L))
    return scale * p, scale * q


def horizon_steps(T: float, dt: float) -> int:
    """Number of dt steps that make up the horizon T.

    Raises ValueError unless dt and T are positive and finite, T/dt
    rounds to at most MAX_STEPS (T/dt may overflow to inf), and T is a
    whole number of steps, |T/dt - round(T/dt)| <= 1e-9 T/dt, so that no
    horizon is silently rounded to a different one.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"time step must be positive and finite, got {dt}")
    if not 0.0 < T < math.inf:
        raise ValueError(f"time horizon must be positive and finite, got {T}")
    steps = T / dt
    if not steps <= MAX_STEPS + 0.5:  # round(steps) > MAX_STEPS, or T / dt overflowed to inf
        raise ValueError(f"time horizon {T} is over MAX_STEPS = {MAX_STEPS:.0e} steps of {dt}")
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError(f"time horizon {T} is not a whole number of {dt} steps")
    return int(round(steps))


def run_experiment(
    wave: WaveParameters,
    members,
    T: float,
    dt: float,
    sample_every: int,
    N: int = 256,
    projected: bool = True,
) -> list:
    """Evolve (h, c h') + eps * (p, q) per member and record the orbit diagnostics.

    `members` is a non-empty sequence of (eps, pair) tuples, eps a scalar
    and pair a (p, q) tuple of (N,) arrays on the wave's grid or None; a
    member with eps = 0 ignores its pair.  Every amplitude and pair is
    checked before the wave is sampled.  T must be a whole number of dt
    steps (see :func:`horizon_steps`).  Samples are taken at t = 0 and
    every `sample_every` steps; each row holds (t, E, F, mean phi,
    mean phi_t, orbit distance).

    The members evolve as one (B, N/2 + 1) batch from start to end, a lone
    member too, and the call returns a list holding
    each member's EvolutionTrace, or the BlowUpError it would have raised
    alone: blow-up, ||phi||_inf above _CEILING_FACTOR max |h|, takes a
    member out of the batch at its own time, and the others redo the
    current sample block from its start.  Every member's trace is bit for
    bit the one it gets alone, because only the stepping is batched.

    Rows are stepped and evaluated in blocks of _SAMPLE_BLOCK_ROWS, one
    `advance` call per block from the whole steps made before it, as the
    module docstring describes; a trip's time counts whole steps, as the t
    column does.  A short last interval is the last block's last row.
    """
    if not members:
        raise ValueError("run_experiment needs at least one (eps, pair) member")
    for index, (amplitude, pair) in enumerate(members):
        if np.ndim(amplitude):
            raise ValueError(f"member {index} is not an (eps, pair) tuple: "
                             f"its eps has shape {np.shape(amplitude)}")
        if not 0.0 <= amplitude < math.inf:
            raise ValueError(f"perturbation amplitude must be nonnegative and finite, "
                             f"got {amplitude}")
        if pair is not None and amplitude != 0.0:
            p, q = pair
            if np.shape(p) != (N,) or np.shape(q) != (N,):
                raise ValueError(f"perturbation shapes {np.shape(p)}, {np.shape(q)} "
                                 f"do not match the wave grid ({N},)")
    nsteps = horizon_steps(T, dt)
    if sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")
    h, h1, _ = sample_wave(wave, N)
    phidot = wave.c * h1
    # an amplitude near the largest double may overflow the state or its
    # transform; the first kick then trips the ceiling, as in `advance`
    with np.errstate(over="ignore", invalid="ignore"):
        starts = [(h, phidot) if pair is None or eps == 0.0
                  else (h + eps * pair[0], phidot + eps * pair[1]) for eps, pair in members]
        ph, pt = (np.fft.rfft(np.array(part)) for part in zip(*starts))

    ceiling = _CEILING_FACTOR * float(np.max(np.abs(h)))
    stepper = SplitStepper(wave.L, N, dt, projected)
    distance = _OrbitDistance(wave, h, h1)
    rows = [[] for _ in members]
    outcomes = [None] * len(members)
    live = list(range(len(members)))  # the member held in each batch row
    ends = [*range(0, nsteps, sample_every), nsteps]  # steps made at each trace row
    first = 0  # the block's first trace row
    while live and first < len(ends):
        marks = ends[first:first + _SAMPLE_BLOCK_ROWS]
        done = ends[first - 1] if first else 0
        try:
            block = stepper.advance(ph, pt, marks[-1] - done, done, sample_every, ceiling=ceiling)
        except BlowUpError as exc:  # ph and pt still hold the block's start
            outcomes[live.pop(exc.member)] = exc
            ph, pt = (np.delete(a, exc.member, axis=0) for a in (ph, pt))
            continue
        if not first:  # the t = 0 row opens the first block
            block = [np.concatenate([a[None], rows_a]) for a, rows_a in zip((ph, pt), block)]
        t = np.array(marks) * dt
        for b, member in enumerate(live):  # each member's rows alone, as its solo run stacks them
            ph_b, pt_b = (np.ascontiguousarray(a[:, b]) for a in block)
            values = np.array([t, *conserved(ph_b, pt_b, wave.L), distance(ph_b, pt_b)])
            rows[member].extend(values.T.tolist())
        ph, pt = (a[-1].copy() for a in block)  # not views that keep the block's samples alive
        first += len(marks)
    for member in live:
        outcomes[member] = EvolutionTrace(np.array(rows[member]))
    return outcomes
