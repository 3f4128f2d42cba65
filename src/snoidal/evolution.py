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
xi_n = 2 pi n / L, n = 0..N/2, from `waves.wavenumbers`.  A call allocates
its buffers once -- two pairs of state buffers, one complex scratch, and
real ones for phi and phi^2 (then phi^3) -- and no step allocates: the
FFTs and every product write into those buffers, and each full rotation
writes the other state pair, which one tuple assignment then swaps in.
The rotation tables are broadcast to the state's shape once and cached on
the stepper per shape.  The caller's ph and pt are only read, by the first
half flow, so a block can be redone from them after a blow-up.  The
arithmetic and its order are those of the plain expressions
cos ph + sin/om pt and pt - dt rfft(phi^3), so the bits are too.  The
step's two transforms call numpy's pocketfft ufuncs
(`numpy.fft._pocketfft_umath`, numpy >= 2.0) directly, with the scale
factors np.fft.irfft and np.fft.rfft pass for the default norm, 1/N and 1:
at N = 256 the np.fft wrapper's per-call checks cost about as much as the
transform, and the buffers already have the shapes those checks verify.
A step is 14 numpy calls on 129 modes at N = 256, so the Python between
them counts too: the loop is written out with every flow inline, the
ufuncs and constants it uses are bound to locals once per call, and
outputs are passed positionally.

The state may carry a leading batch axis: (B, N/2 + 1) coefficients hold B
trajectories on one grid, one per row, and (N/2 + 1,) ones are the B = 1
case of the same code.  `advance`, `conserved` and the orbit distance work
row by row -- FFTs and sums run over the last axis -- so each row gets the
same bits it would get alone, and a batch pays numpy's call overhead once
for all its rows.  `run_experiment` evolves several (eps, perturbation)
members of one wave as such a batch; a member that leaves the sup-norm
ceiling drops out at its own blow-up time and the others go on.

Each trace row is one pass over those coefficients, and `run_experiment`
makes them in blocks: it buffers its samples, and one `conserved` and one
orbit-distance call read the stacked (rows, N/2 + 1) coefficients of
_SAMPLE_BLOCK_ROWS or more rows, from several samples and members.
`conserved` reads each row with Parseval sums and one irfft for
integral(phi^4).  The orbit distance uses the energy-space norm
||(p, q)||^2 = integral(p^2 + p_x^2) + integral(q^2) with the Parseval
weights w_n of `ynorm_sq`.  A shift s multiplies mode n by exp(i xi_n s)
and keeps |ph_n| and |pt_n|, so dist_sq(s) = const - 2 G(s) with
G(s) = sum_n w_n Re(cross_n exp(i xi_n s)), where cross pairs the state
with (h, c h').  One irfft of cross gives G at the grid shifts, and
Newton steps on G'(s) = 0 refine the best of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.fft import _pocketfft_umath

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

_NEWTON_STEPS = 8  # per orbit-distance row; about three suffice
_CEILING_FACTOR = 10.0  # run_experiment's blow-up ceiling, in units of max |h|
_SAMPLE_BLOCK_ROWS = 16  # trace rows per conserved and orbit-distance call


class BlowUpError(RuntimeError):
    """Sup-norm ceiling exceeded; carries the blow-up time and the batch row."""

    def __init__(self, message: str, time: float, member: int = 0):
        super().__init__(message)
        self.time = time
        self.member = member


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

    One instance is bound to (L, N, dt, projected); `ceiling` bounds
    ||phi||_inf of every batch row and trips BlowUpError, naming the first
    row over it, when exceeded during a kick.  The rotation of mode 0 is
    cosh/sinh unprojected and zero when projected, so one linear flow serves
    every mode.

    The rotation tables are kept per mode, shape (N/2 + 1,), and are
    broadcast to the shape of the state once: the copies for the last shape
    `advance` saw are cached, so a batch pays for them once per run and again
    only when a blown-up member leaves it.  A 1-D state uses the per-mode
    tables themselves.  Multiplying by a contiguous table of the state's own
    shape is faster than broadcasting an (N/2 + 1,) one over its rows.  The
    kick transforms through pocketfft's irfft and rfft_n_even ufuncs with
    numpy's own scale factors, so it gets np.fft's bits without the
    wrapper's per-call cost; rfft_n_even needs the grid rule's even N.
    `advance` runs each flow as six ufunc calls written out in its loop,
    two products and a sum per component, through one complex scratch.
    """

    def __init__(self, L: float, N: int, dt: float, projected: bool = True,
                 ceiling: float = np.inf):
        if dt == 0.0 or not math.isfinite(dt):
            raise ValueError(f"time step must be nonzero and finite, got {dt}")
        # dt < 0 steps backward; with exact sub-flows this inverts the
        # forward step to roundoff (Strang symmetry).
        if not (0.0 < L < 2.0 * math.pi):
            raise ValueError(f"period must lie in (0, 2*pi), got {L}")
        grid_points(L, N)  # the grid rule: N even and >= 16
        self.L, self.N, self.dt = L, N, dt
        self.projected = projected
        self.ceiling = ceiling
        om = np.sqrt(_modes(L, N).omega2[1:])  # > 0 for every nonzero mode when L < 2 pi
        rotations = []  # the half flow's and the full flow's
        for tau in (0.5 * dt, dt):
            cos = np.cos(om * tau)
            sin = np.sin(om * tau)
            ch, sh = (0.0, 0.0) if projected else (math.cosh(tau), math.sinh(tau))
            # stored complex: numpy multiplies a real array into a complex one
            # by casting it to complex first, so the bits are the same, but
            # the cast costs a buffered pass per product
            rotations.append(tuple(np.asarray(np.r_[a, b], dtype=complex) for a, b in
                                   ((ch, cos), (sh, sin / om), (sh, -sin * om))))
        self._rotations = tuple(rotations)
        self._shape, self._shaped = (N // 2 + 1,), self._rotations

    def _tables(self, shape):
        """The half and full flows' rotation tables broadcast to `shape`, cached per shape."""
        if shape != self._shape:
            self._shape = shape
            self._shaped = tuple(tuple(np.ascontiguousarray(np.broadcast_to(a, shape))
                                       for a in table) for table in self._rotations)
        return self._shaped

    def _trip(self, phi, t):
        """Raise BlowUpError for the first row whose exact max |phi| is over the ceiling."""
        for member, sup in enumerate(np.max(np.abs(phi), axis=-1).reshape(-1).tolist()):
            if not sup <= self.ceiling:
                raise BlowUpError(
                    f"||phi||_inf = {sup:.6g} exceeded ceiling {self.ceiling:.6g} at t = {t:.6g}",
                    time=t, member=member,
                )

    def advance(self, ph, pt, nsteps: int, t0: float):
        """nsteps Strang steps from time t0, fusing interior half flows.

        ph, pt are the rfft coefficients of (phi, phi_t), of shape
        (N/2 + 1,) or (B, N/2 + 1).  The call allocates its buffers once and
        no step allocates: the FFTs and products write into them, and each
        full rotation writes the other pair of state buffers, which then
        swaps with the state pair.  Mode 0 of the force is zeroed through a
        view taken once, and dt multiplies as the complex128 numpy would
        cast it to in each kick.  The FFTs call the pocketfft ufuncs behind
        np.fft.irfft and np.fft.rfft with the scale factors those pass (1/N
        and 1): the same bits, without the wrapper's norm, dtype, axis and
        shape handling, which the buffers make redundant.  The first half
        flow reads ph and pt into those buffers, so the inputs are never
        written -- `run_experiment` redoes a block from them after a
        blow-up -- and the arrays returned share no memory with them
        (nsteps < 1 returns the inputs as they are).
        BlowUpError.member names the tripping row.
        """
        if nsteps < 1:
            return ph, pt
        half, full = self._tables(ph.shape)
        hcos, hsin_over, hneg_sin_times = half
        cos, sin_over, neg_sin_times = full
        N, dt, ceiling, projected = self.N, self.dt, self.ceiling, self.projected
        inv_n = 1.0 / N
        # the complex128 that numpy would cast dt to in every kick's product
        dt_c = np.array(dt, complex)
        # bound here, not at import, so a patched _pocketfft_umath is seen
        irfft, rfft = _pocketfft_umath.irfft, _pocketfft_umath.rfft_n_even
        multiply, add, subtract = np.multiply, np.add, np.subtract
        peak, sqrt = np.maximum.reduce, math.sqrt
        # (p, q) holds the state and (p_next, q_next) receives each full rotation
        p, q, p_next, q_next, work = (np.empty(ph.shape, complex) for _ in range(5))
        force0 = work[..., 0]  # mode 0 of the force in a kick; work is a product in a rotation
        phi = np.empty(ph.shape[:-1] + (N,))
        cube = np.empty_like(phi)  # phi^2 until the ceiling test, then phi^3
        # the half flow (p, q) = (cos ph + sin/om pt, -sin om ph + cos pt)
        multiply(hcos, ph, p)
        multiply(hsin_over, pt, work)
        add(p, work, p)
        multiply(hneg_sin_times, ph, q)
        multiply(hcos, pt, work)
        add(q, work, q)
        for j in range(nsteps):
            if j:  # the full flow, written into the other pair
                multiply(cos, p, p_next)
                multiply(sin_over, q, work)
                add(p_next, work, p_next)
                multiply(neg_sin_times, p, q_next)
                multiply(cos, q, work)
                add(q_next, work, q_next)
                p, q, p_next, q_next = p_next, q_next, p, q
            # the kick: q -= dt (phi^3 - mean phi^3)
            irfft(p, inv_n, phi)
            multiply(phi, phi, cube)
            # sqrt(fl(x^2)) = |x| in binary64 away from under- and overflow,
            # so this is max |phi| over the batch, read off the square the
            # cube needs
            if not sqrt(peak(cube, None)) <= ceiling:  # NaN trips it too
                self._trip(phi, t0 + (j + 0.5) * dt)
            multiply(cube, phi, cube)
            rfft(cube, 1.0, work)
            if projected:
                force0.fill(0.0)  # subtracting the mean of phi^3, exactly
            # dt stays out of rfft's scale factor: for dt < 0 that would keep
            # mode 0's projected zero +0.0 where dt * 0.0 gives -0.0
            multiply(dt_c, work, work)
            subtract(q, work, q)
        # the closing half flow, into the other pair
        multiply(hcos, p, p_next)
        multiply(hsin_over, q, work)
        add(p_next, work, p_next)
        multiply(hneg_sin_times, p, q_next)
        multiply(hcos, q, work)
        add(q_next, work, q_next)
        return p_next, q_next


def _h1_semi_sq(values: np.ndarray, L: float) -> float:
    """integral of (d/dx)^2 via Parseval, Nyquist included."""
    modes = _modes(L, values.size)
    return float(np.sum(modes.w * (modes.xi * np.abs(np.fft.rfft(values))) ** 2))


def conserved(ph: np.ndarray, pt: np.ndarray, L: float) -> tuple:
    """(E, F, mean phi, mean phi_t) of the state with rfft coefficients (ph, pt).

    E = 1/2 integral(phi_x^2 + phi_t^2 - phi^2 + phi^4 / 2), F = integral(phi_x
    phi_t) on N = 2 (ph.shape[-1] - 1) points.  Quadratic terms are Parseval
    sums; phi_x keeps the Nyquist mode in E, as `ynorm_sq` does, and drops it
    in F, since the grid's spectral first derivative maps the sawtooth mode
    to zero.  integral(phi^4) takes one irfft.  A (B, N/2 + 1) batch gives four
    arrays of B values, a single state four floats.
    """
    N = 2 * (ph.shape[-1] - 1)
    modes = _modes(L, N)
    phi_sq = np.fft.irfft(ph, N) ** 2  # squared twice: phi**4 is a slow pow
    quadratic = modes.omega2 * (ph.real**2 + ph.imag**2) + pt.real**2 + pt.imag**2
    energy = 0.5 * (np.sum(modes.w * quadratic, axis=-1)
                    + 0.5 * L / N * np.sum(phi_sq * phi_sq, axis=-1))
    flux = modes.w_xi * (ph.real * pt.imag - ph.imag * pt.real)
    values = (energy, np.sum(flux[..., :-1], axis=-1), ph[..., 0].real / N, pt[..., 0].real / N)
    return tuple(map(float, values)) if ph.ndim == 1 else values


def ynorm_sq(p: np.ndarray, q: np.ndarray, L: float) -> float:
    """Squared energy-space norm: integral(p^2 + p_x^2) + integral(q^2)."""
    quad = L / p.size
    return quad * float(np.sum(p**2)) + _h1_semi_sq(p, L) + quad * float(np.sum(q**2))


class _OrbitDistance:
    """Shift-minimized energy-space distance to a fixed wave pair (h, c h')."""

    def __init__(self, wave: WaveParameters, h: np.ndarray, h1: np.ndarray):
        self.L, self.N = wave.L, h.size
        self.hhat = np.fft.rfft(h)
        self.hthat = wave.c * np.fft.rfft(h1)
        modes = _modes(wave.L, h.size)
        self.xi, self.weight, self.xi_sq = modes.xi, modes.w, modes.xi_sq
        self.sobolev = 1.0 + self.xi_sq
        # Complex factors of the complex products.  numpy multiplies a real
        # array into a complex one by casting it to complex first, so these
        # give the same bits without the cast's extra pass.
        self.ixi = 1j * self.xi
        self.cross_factors = (self.sobolev.astype(complex), np.conj(self.hhat),
                              np.conj(self.hthat), self.weight.astype(complex))

    def __call__(self, ph: np.ndarray, pt: np.ndarray):
        """Distance of the state with rfft coefficients (ph, pt) to the orbit.

        A (B, N/2 + 1) batch gives an array of B distances, a single state a
        float.  Each Newton iteration takes one exp and two row sums for the
        whole batch; the per-row stop and bracket bookkeeping is scalar.
        """
        N, L, xi, xi_sq, ixi = self.N, self.L, self.xi, self.xi_sq, self.ixi
        sobolev, hhat_conj, hthat_conj, weight = self.cross_factors
        single = ph.ndim == 1
        ph, pt = np.atleast_2d(ph), np.atleast_2d(pt)
        # Coarse pass: one irfft gives G at every grid shift (it supplies the
        # conjugate modes, so no Parseval weights); the exact grid shift, whose
        # phase is exactly representable, stays in the candidate set.
        cross = sobolev * ph * hhat_conj + pt * hthat_conj
        best = np.argmax(np.fft.irfft(cross, N), axis=-1).tolist()
        grid = [j * L / N for j in best]
        bracket = [((j - 1) * L / N, (j + 1) * L / N) for j in best]
        # Newton on G'(s) = 0 inside each row's grid bracket; z holds the
        # terms of G(s).
        wcross = weight * cross
        s = list(grid)
        live = list(range(len(s)))
        for _ in range(_NEWTON_STEPS):
            z = wcross * np.exp(ixi * np.array(s)[:, None])
            slopes = (xi * z.imag).sum(axis=-1).tolist()
            curvatures = (xi_sq * z.real).sum(axis=-1).tolist()
            for b in list(live):
                slope, curvature = -slopes[b], -curvatures[b]
                if not curvature < 0.0:
                    live.remove(b)  # no maximum of G to step toward
                    continue
                lo, hi = bracket[b]
                step = min(max(s[b] - slope / curvature, lo), hi) - s[b]
                s[b] += step
                if abs(step) <= 1e-15 * L:
                    live.remove(b)
            if not live:
                break
        # dist_sq at the Newton shift and at the grid shift, in the stable
        # form: difference per mode first, then square, so the result has no
        # cancellation floor near the orbit.
        phase = np.exp(ixi * np.array([s, grid])[..., None])
        dp = ph * phase - self.hhat
        dq = pt * phase - self.hthat
        dist_sq = np.sum(self.weight * (
            self.sobolev * (dp.real**2 + dp.imag**2) + dq.real**2 + dq.imag**2
        ), axis=-1).tolist()
        dist = [math.sqrt(min(a, b)) for a, b in zip(*dist_sq)]
        return dist[0] if single else np.array(dist)


def perturbation_random(L: float, N: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-Y-norm random zero-mean pair, band-limited to modes 1..N/8.

    Reproducible by construction: amplitudes and phases are uniform doubles
    drawn from a PCG64 stream seeded with `seed` (two draws per mode and
    component, in mode order, phi before phi_t), with a 1/m^2 falloff.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    x = grid_points(L, N)
    m = np.arange(1, max(2, N // 8) + 1)[:, None]
    fields = []
    for _ in range(2):
        draws = rng.random((m.size, 2))  # (amplitude, phase) per mode, in mode order
        amp = (2.0 * draws[:, :1] - 1.0) / (m * m)
        phase = 2.0 * math.pi * draws[:, 1:]
        fields.append(np.sum(amp * np.cos(2.0 * math.pi * m / L * x + phase), axis=0))
    p, q = fields
    scale = 1.0 / math.sqrt(ynorm_sq(p, q, L))
    return scale * p, scale * q


def horizon_steps(T: float, dt: float) -> int:
    """Number of dt steps that make up the horizon T.

    Raises ValueError unless dt and T are positive and finite and T is a
    whole number of steps, |T/dt - round(T/dt)| <= 1e-9 T/dt, so that no
    horizon is silently rounded to a different one.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"time step must be positive and finite, got {dt}")
    if not 0.0 < T < math.inf:
        raise ValueError(f"time horizon must be positive and finite, got {T}")
    steps = T / dt
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError(f"time horizon {T} is not a whole number of {dt} steps")
    return int(round(steps))


def _lone_row_1d(rows: np.ndarray) -> np.ndarray:
    """A batch of one row as a 1-D array: numpy broadcasts (1, n) arrays more slowly."""
    return rows[0] if len(rows) == 1 else rows


def run_experiment(
    wave: WaveParameters,
    perturbation,
    eps,
    T: float,
    dt: float,
    sample_every: int,
    N: int = 256,
    projected: bool = True,
):
    """Evolve (h, c h') + eps * perturbation and record the orbit diagnostics.

    Samples at t = 0 and every `sample_every` steps; each row holds
    (t, E, F, mean phi, mean phi_t, orbit distance).  T must be a whole
    number of dt steps (see :func:`horizon_steps`), and the perturbation a
    pair of (N,) arrays on the wave's grid or None.  Blow-up, ||phi||_inf
    above _CEILING_FACTOR max |h| during the run, propagates as BlowUpError.

    A sequence of amplitudes for `eps`, with one perturbation (or None) per
    amplitude in `perturbation`, evolves those members as one batch and
    returns a list holding each member's EvolutionTrace, or the BlowUpError
    it would have raised alone: a member that trips leaves the batch at its
    own time, and the others redo the current sample block from its start.
    Every member's trace is bit for bit the one it gets alone.

    A sample only records its time, the members in the batch and their
    state; once _SAMPLE_BLOCK_ROWS trace rows are pending, and once more at
    the end, one `conserved` and one orbit-distance call evaluate them all.
    The rows of a member that blows up leave with its trace.
    """
    batched = np.ndim(eps) == 1
    if not batched:
        members = [(eps, perturbation)]
    elif len(eps) == len(perturbation) > 0:
        members = list(zip(eps, perturbation))
    else:
        raise ValueError(f"a batch needs one perturbation per amplitude and at least one "
                         f"member, got {len(eps)} and {len(perturbation)}")
    for amplitude, _ in members:
        if not 0.0 <= amplitude < math.inf:
            raise ValueError(f"perturbation amplitude must be nonnegative and finite, "
                             f"got {amplitude}")
    nsteps = horizon_steps(T, dt)
    if sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")
    h, h1, _ = sample_wave(wave, N)
    phis, phidots = [], []
    for amplitude, pair in members:
        phi = h
        phidot = wave.c * h1
        if pair is not None and amplitude != 0.0:
            p, q = pair
            if np.shape(p) != (N,) or np.shape(q) != (N,):
                raise ValueError(f"perturbation shapes {np.shape(p)}, {np.shape(q)} "
                                 f"do not match the wave grid ({N},)")
            phi = phi + amplitude * p
            phidot = phidot + amplitude * q
        phis.append(phi)
        phidots.append(phidot)

    ceiling = _CEILING_FACTOR * float(np.max(np.abs(h)))
    stepper = SplitStepper(wave.L, N, dt, projected, ceiling)
    distance = _OrbitDistance(wave, h, h1)
    rows = [[] for _ in members]
    outcomes = [None] * len(members)
    live = list(range(len(members)))  # the member held in each batch row

    pending, phs, pts = [], [], []  # (t, member) per pending trace row; their states

    def sample(t, ph, pt):
        pending.extend((t, member) for member in live)
        phs.append(ph)  # advance returns new arrays, so no copy
        pts.append(pt)
        if len(pending) >= _SAMPLE_BLOCK_ROWS:
            evaluate()

    def evaluate():
        ph, pt = np.vstack(phs), np.vstack(pts)
        values = np.array([*conserved(ph, pt, wave.L), distance(ph, pt)])
        for (t, member), row in zip(pending, values.T.tolist()):
            rows[member].append((t, *row))
        for buffer in (pending, phs, pts):
            buffer.clear()

    ph = _lone_row_1d(np.fft.rfft(np.array(phis)))
    pt = _lone_row_1d(np.fft.rfft(np.array(phidots)))
    sample(0.0, ph, pt)
    done = 0
    while done < nsteps:
        block = min(sample_every, nsteps - done)
        try:
            ph_next, pt_next = stepper.advance(ph, pt, block, done * dt)
        except BlowUpError as exc:
            outcomes[live.pop(exc.member)] = exc
            if not live:
                break
            ph = _lone_row_1d(np.delete(ph, exc.member, axis=0))
            pt = _lone_row_1d(np.delete(pt, exc.member, axis=0))
            continue
        ph, pt = ph_next, pt_next
        done += block
        sample(done * dt, ph, pt)
    if pending:
        evaluate()
    for member in live:
        outcomes[member] = EvolutionTrace(np.array(rows[member]))
    if batched:
        return outcomes
    if isinstance(outcomes[0], BlowUpError):
        raise outcomes[0]
    return outcomes[0]
