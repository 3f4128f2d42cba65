"""Projected splitting integrator: conservation, reversibility, orbit distance."""

import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from snoidal.evolution import (
    MAX_STEPS,
    BlowUpError,
    SplitStepper,
    conserved,
    horizon_steps,
    perturbation_random,
    run_experiment,
    ynorm_sq,
)
from snoidal.evolution import (
    _CEILING_FACTOR,
    _CHECK_KICKS,
    _NEWTON_STEPS,
    _SAMPLE_BLOCK_ROWS,
    _h1_semi_sq,
    _OrbitDistance,
)
from snoidal.waves import grid_points, profile_eval, sample_wave, solve_modulus, wavenumbers

L, C = math.pi, 0.95
N = 128


@pytest.fixture(scope="module")
def wave():
    return solve_modulus(L, C)


@pytest.fixture(scope="module")
def wave_state(wave):
    """Grid samples (phi, phi_t) = (h, c h') of the wave."""
    h, h1, _ = sample_wave(wave, N)
    return h, wave.c * h1


def final_state(stepper, ph, pt, nsteps, start=0, ceiling=math.inf):
    """The (B, N/2 + 1) batch after nsteps steps: the one row of `advance` at every = nsteps."""
    (ph,), (pt,) = stepper.advance(ph, pt, nsteps, start, max(nsteps, 1), ceiling)
    return ph, pt


def advance_state(stepper, state, nsteps=1, ceiling=math.inf):
    """nsteps steps of grid samples (phi, phi_t) through SplitStepper.advance, as one row."""
    phi, phidot = state
    ph, pt = final_state(stepper, np.fft.rfft([phi]), np.fft.rfft([phidot]), nsteps,
                         ceiling=ceiling)
    return np.fft.irfft(ph[0], stepper.N), np.fft.irfft(pt[0], stepper.N)


def orbit_distance(phi, phidot, wave):
    """Orbit distance of one state given as grid samples (phi, phi_t), a one-row block."""
    h, h1, _ = sample_wave(wave, len(phi))
    [dist] = _OrbitDistance(wave, h, h1)(np.fft.rfft([phi]), np.fft.rfft([phidot]))
    return float(dist)


def translate_state(wave, n, shift):
    h, h1, _ = profile_eval(wave, grid_points(wave.L, n) - shift)
    return h, wave.c * h1


def spectral_derivative(values, L_):
    """Spectral first derivative of grid samples, Nyquist mode mapped to zero."""
    coeff = 1j * wavenumbers(L_, values.size) * np.fft.rfft(values)
    coeff[-1] = 0.0
    return np.fft.irfft(coeff, values.size)


def rotation_tables(L_, n, tau, projected=True):
    """Per-mode (cos, sin/om, -sin om) of the exact linear flow over a time tau."""
    xi = wavenumbers(L_, n)
    om = np.sqrt((xi * xi - 1.0)[1:])
    cos, sin = np.cos(om * tau), np.sin(om * tau)
    ch, sh = (0.0, 0.0) if projected else (math.cosh(tau), math.sinh(tau))
    return np.r_[ch, cos], np.r_[sh, sin / om], np.r_[sh, -sin * om]


def linear_flow(ph, pt, table):
    cos, sin_over, neg_sin_times = table
    return cos * ph + sin_over * pt, neg_sin_times * ph + cos * pt


def reference_advance(stepper, ph, pt, nsteps, t0, ceiling=math.inf):
    """The allocating Strang loop whose arithmetic SplitStepper.advance runs in buffers.

    Real tables, a fresh array per product and the exact per-row max |phi|
    against `ceiling`; a row over it raises BlowUpError with its member, time
    and message.
    """
    n, dt = stepper.N, stepper.dt
    half = rotation_tables(stepper.L, n, 0.5 * dt, stepper.projected)
    full = rotation_tables(stepper.L, n, dt, stepper.projected)

    def kick(ph, pt, t):
        phi = np.fft.irfft(ph, n)
        for member, sup in enumerate(np.max(np.abs(phi), axis=-1).reshape(-1)):
            if not sup <= ceiling:
                raise BlowUpError(f"||phi||_inf = {sup:.6g} exceeded ceiling "
                                  f"{ceiling:.6g} at t = {t:.6g}", time=t, member=member)
        force = np.fft.rfft(phi * phi * phi)
        if stepper.projected:
            force[..., 0] = 0.0
        return ph, pt - dt * force

    ph, pt = linear_flow(ph, pt, half)
    for j in range(nsteps - 1):
        ph, pt = kick(ph, pt, t0 + (j + 0.5) * dt)
        ph, pt = linear_flow(ph, pt, full)
    ph, pt = kick(ph, pt, t0 + (nsteps - 0.5) * dt)
    return linear_flow(ph, pt, half)


def odd_mode_phases(distance, s):
    """exp(i xi_n s) of the odd modes n = 2m + 1, as e_1 (e_1^2)^m with e_1 = exp(i xi_1 s).

    One row of phases per shift, along a new last axis.
    """
    e1 = np.exp(distance.ixi1 * np.asarray(s, float))[..., None]
    squares = np.repeat(e1 * e1, distance.xi.size - 1, axis=-1)
    return np.cumprod(np.concatenate([e1, squares], axis=-1), axis=-1)


def reference_orbit_distance(distance, ph, pt):
    """_OrbitDistance.__call__ with each phase computed where it is used.

    Newton runs row by row on the odd modes, its first iteration on the
    phases of the grid shifts, and the final dist_sq takes the odd modes'
    phases at the Newton and the grid shifts together; the even modes add
    their unshifted difference to (h, c h').
    """
    N, L, xi, xi_sq = distance.N, distance.L, distance.xi, distance.xi_sq
    weight, sobolev, hhat, hthat = distance.weight, distance.sobolev, distance.hhat, distance.hthat
    ph_odd, pt_odd = ph[:, 1::2], pt[:, 1::2]
    cross = sobolev.astype(complex) * ph_odd * np.conj(hhat) + pt_odd * np.conj(hthat)
    spectrum = np.zeros(ph.shape, complex)
    spectrum[:, 1::2] = cross
    best = np.argmax(np.fft.irfft(spectrum, N), axis=-1).tolist()
    grid = [j * L / N for j in best]
    bracket = [((j - 1) * L / N, (j + 1) * L / N) for j in best]
    wcross = weight.astype(complex) * cross
    s = list(grid)
    live = list(range(len(s)))
    for _ in range(_NEWTON_STEPS):
        z = np.multiply(wcross, odd_mode_phases(distance, s))
        slopes = (xi * z.imag).sum(axis=-1).tolist()
        curvatures = (xi_sq * z.real).sum(axis=-1).tolist()
        for b in list(live):
            slope, curvature = -slopes[b], -curvatures[b]
            if not curvature < 0.0:
                live.remove(b)
                continue
            lo, hi = bracket[b]
            step = min(max(s[b] - slope / curvature, lo), hi) - s[b]
            s[b] += step
            if abs(step) <= 1e-15 * L:
                live.remove(b)
        if not live:
            break
    phase = odd_mode_phases(distance, [s, grid])
    dp = np.multiply(ph_odd, phase) - hhat
    dq = np.multiply(pt_odd, phase) - hthat
    odd_sq = np.sum(weight * (sobolev * (dp.real**2 + dp.imag**2) + dq.real**2 + dq.imag**2),
                    axis=-1).tolist()
    hhat_even, hthat_even, w_sobolev, w = distance.even
    dp, dq = ph[:, ::2] - hhat_even, pt[:, ::2] - hthat_even
    even_sq = np.sum(w_sobolev * (dp.real**2 + dp.imag**2) + w * (dq.real**2 + dq.imag**2),
                     axis=-1).tolist()
    return np.array([math.sqrt(min(a, b) + e) for a, b, e in zip(*odd_sq, even_sq)])


def all_mode_orbit_distance(wave, h, h1, ph, pt):
    """The orbit distance with the shift applied to every mode, even ones included.

    G(s) and its Newton steps run over all N/2 + 1 modes with one exp per
    mode, from the grid shift of the irfft's maximum, and dist_sq is the
    smaller of its values at the Newton and the grid shift.
    """
    L, n = wave.L, h.size
    xi = wavenumbers(L, n)
    w = np.full(n // 2 + 1, 2.0 * L / (n * n))
    w[0] = w[-1] = L / (n * n)
    hhat, hthat = np.fft.rfft(h), wave.c * np.fft.rfft(h1)
    cross = (1.0 + xi * xi) * ph * np.conj(hhat) + pt * np.conj(hthat)
    best = np.argmax(np.fft.irfft(cross, n), axis=-1)
    lo, s, hi = ((best + k) * L / n for k in (-1, 0, 1))
    grid = s
    live = np.ones(len(s), bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            z = w * cross * np.exp(1j * xi * s[:, None])
            slope, curvature = -(xi * z.imag).sum(axis=-1), -(xi * xi * z.real).sum(axis=-1)
            live &= curvature < 0.0
            step = np.minimum(np.maximum(s - slope / curvature, lo), hi) - s
            s = np.where(live, s + step, s)
            live &= ~(np.abs(step) <= 1e-15 * L)
    phase = np.exp(1j * xi * np.array([s, grid])[..., None])
    dp, dq = ph * phase - hhat, pt * phase - hthat
    dist_sq = np.sum(w * ((1.0 + xi * xi) * np.abs(dp) ** 2 + np.abs(dq) ** 2), axis=-1)
    return np.sqrt(np.minimum(*dist_sq))


def reference_run(wave, perturbations, amplitudes, T, dt, every, n, projected=True):
    """Per member, its trace rows or BlowUpError, each sample evaluated on its own.

    The stepping is run_experiment's: one batch from t = 0, a sample every
    `every` steps and after a short last interval, and a member over the
    ceiling leaves while the others redo the interval, one `advance` call per
    interval.  The diagnostics are those of the per-sample loop: one
    `conserved` and one orbit-distance call per member and sample, on its
    row as a one-row block, at the moment it is sampled.
    """
    h, h1, _ = sample_wave(wave, n)
    distance = _OrbitDistance(wave, h, h1)
    stepper = SplitStepper(wave.L, n, dt, projected)
    ceiling = _CEILING_FACTOR * float(np.max(np.abs(h)))
    phi = [h if eps == 0.0 else h + eps * p for eps, (p, _) in zip(amplitudes, perturbations)]
    phidot = [wave.c * h1 if eps == 0.0 else wave.c * h1 + eps * q
              for eps, (_, q) in zip(amplitudes, perturbations)]
    ph, pt = np.fft.rfft(np.array(phi)), np.fft.rfft(np.array(phidot))
    live = list(range(len(amplitudes)))
    rows = [[] for _ in live]
    outcomes = [None] * len(live)

    def sample(t):
        for b, member in enumerate(live):
            ph_b, pt_b = ph[b:b + 1], pt[b:b + 1]
            [row] = np.transpose([*conserved(ph_b, pt_b, wave.L), distance(ph_b, pt_b)])
            rows[member].append((t, *row))

    nsteps, done = horizon_steps(T, dt), 0
    sample(0.0)
    while done < nsteps:
        block = min(every, nsteps - done)
        try:
            (ph_next,), (pt_next,) = stepper.advance(ph, pt, block, done, block, ceiling)
        except BlowUpError as exc:
            outcomes[live.pop(exc.member)] = exc
            if not live:
                break
            ph, pt = np.delete(ph, exc.member, axis=0), np.delete(pt, exc.member, axis=0)
            continue
        ph, pt = ph_next, pt_next
        done += block
        sample(done * dt)
    for member in live:
        outcomes[member] = np.array(rows[member])
    return outcomes


class TestStep:
    def test_zero_state_is_fixed_point(self):
        z = np.zeros(N)
        phi, phidot = advance_state(SplitStepper(L, N, 1e-3), (z, z))
        assert np.all(phi == 0.0)
        assert np.all(phidot == 0.0)

    def test_one_step_tracks_exact_translate(self, wave, wave_state):
        # the pair (h, c h') rides the orbit h(x + c t); one step stays
        # within O(dt^3) of the exact translate
        errs = []
        for dt in (2e-3, 1e-3):
            out = advance_state(SplitStepper(L, N, dt), wave_state)
            ref = translate_state(wave, N, -wave.c * dt)
            errs.append(max(np.max(np.abs(out[0] - ref[0])), np.max(np.abs(out[1] - ref[1]))))
        assert errs[0] <= 1e-8
        assert 6.0 <= errs[0] / errs[1] <= 10.0  # halving dt cuts the error ~8x

    def test_means_preserved_over_many_steps(self, wave, wave_state):
        stepper = SplitStepper(L, N, 1e-3)
        ph, pt = np.fft.rfft([wave_state[0]]), np.fft.rfft([wave_state[1]])
        ph, pt = final_state(stepper, ph, pt, 10_000)
        phi = np.fft.irfft(ph, N)
        phidot = np.fft.irfft(pt, N)
        assert abs(np.mean(phi)) <= 1e-12
        assert abs(np.mean(phidot)) <= 1e-12

    def test_reversible(self, wave_state):
        fwd = SplitStepper(L, N, 1e-3)
        bwd = SplitStepper(L, N, -1e-3)
        st = wave_state
        for _ in range(500):
            st = advance_state(fwd, st)
        for _ in range(500):
            st = advance_state(bwd, st)
        assert np.max(np.abs(st[0] - wave_state[0])) <= 1e-9
        assert np.max(np.abs(st[1] - wave_state[1])) <= 1e-9

    def test_second_order_global_error(self, wave_state):
        def final(dt):
            stepper = SplitStepper(L, N, dt)
            ph, pt = np.fft.rfft([wave_state[0]]), np.fft.rfft([wave_state[1]])
            ph, pt = final_state(stepper, ph, pt, int(round(1.0 / dt)))
            return np.fft.irfft(ph, N)

        ref = final(1e-3 / 16)
        errs = [np.max(np.abs(final(dt) - ref)) for dt in (4e-3, 2e-3, 1e-3)]
        orders = [math.log(a / b) / math.log(2.0) for a, b in zip(errs, errs[1:])]
        assert all(1.9 <= o <= 2.1 for o in orders)

    def test_blowup_detection(self, wave, wave_state):
        big = (50.0 * wave_state[0], np.zeros(N))
        ceiling = 10.0 * float(np.max(np.abs(wave_state[0])))
        stepper = SplitStepper(L, N, 1e-3)
        with pytest.raises(BlowUpError) as info:
            st = big
            for _ in range(10):
                st = advance_state(stepper, st, ceiling=ceiling)
        assert info.value.time >= 0.0

    @pytest.mark.parametrize("projected", [False, True])
    def test_mode_zero_flow(self, projected):
        # phi_tt = phi for the mean: cosh/sinh growth unprojected, pinned
        # to zero under projection
        delta = 1e-8
        st = (np.full(N, delta), np.zeros(N))
        phi, phidot = advance_state(SplitStepper(L, N, 1e-2, projected=projected), st, 100)
        if projected:
            assert np.mean(phi) == 0.0 and np.mean(phidot) == 0.0
        else:
            assert abs(np.mean(phi) / (delta * math.cosh(1.0)) - 1.0) <= 1e-12
            assert abs(np.mean(phidot) / (delta * math.sinh(1.0)) - 1.0) <= 1e-12

    def test_nan_state_trips_blowup(self):
        # a NaN sup-norm compares false against any ceiling; it must still trip
        ph = np.full((1, N // 2 + 1), np.nan, dtype=complex)
        with pytest.raises(BlowUpError):
            SplitStepper(L, N, 1e-3).advance(ph, np.zeros_like(ph), 1, 0, 1, math.inf)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            SplitStepper(L, N, 0.0)
        with pytest.raises(ValueError):
            SplitStepper(2.0 * math.pi + 0.1, N, 1e-3)

    @pytest.mark.parametrize("n", [15, 8])
    def test_grid_rule_enforced(self, n):
        # the rule of grid_points: N even and >= 16
        with pytest.raises(ValueError):
            SplitStepper(L, n, 1e-3)


class TestConserved:
    def test_zero_state(self):
        z = np.zeros(N)
        [E], [F], _, _ = conserved(np.fft.rfft([z]), np.fft.rfft([z]), L)
        assert E == 0.0 and F == 0.0

    def test_wave_momentum_sign_and_value(self, wave, wave_state):
        _, [F], _, _ = conserved(np.fft.rfft([wave_state[0]]), np.fft.rfft([wave_state[1]]), L)
        _, h1, _ = sample_wave(wave, N)
        expected_f = wave.c * (L / N) * float(np.sum(h1**2))
        assert F > 0.0
        assert abs(F - expected_f) <= 1e-10 * abs(expected_f)

    def test_energy_matches_direct_quadrature(self, wave_state):
        phi, pt = wave_state
        [E] = conserved(np.fft.rfft([phi]), np.fft.rfft([pt]), L)[0]
        direct = 0.5 * (L / N) * float(np.sum(
            spectral_derivative(phi, L) ** 2 + pt**2 - phi**2 + 0.5 * phi**4
        ))
        assert abs(E - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_short_horizon_drift(self, wave, wave_state):
        [trace] = run_experiment(wave, [(0.0, None)], 5.0, 1e-3, 100, N=N)
        e = trace.column("E")
        f = trace.column("F")
        assert np.max(np.abs(e - e[0])) / abs(e[0]) <= 1e-8
        assert np.max(np.abs(f - f[0])) / abs(f[0]) <= 1e-8


class TestOrbitDistance:
    def test_zero_on_the_orbit(self, wave, wave_state):
        assert orbit_distance(*wave_state, wave) <= 1e-10

    @pytest.mark.parametrize("shift", [0.3721, 1.911, -0.77])
    def test_translation_invariance(self, wave, shift):
        assert orbit_distance(*translate_state(wave, N, shift), wave) <= 1e-8

    def test_small_bump_bounds(self, wave, wave_state):
        eps = 1e-3
        p, q = perturbation_random(L, N, seed=4)
        d = orbit_distance(wave_state[0] + eps * p, wave_state[1] + eps * q, wave)
        assert 0.0 < d <= 2.0 * eps * math.sqrt(ynorm_sq(p, q, L))

    @pytest.mark.parametrize("L_, c_, n, seed", [
        (math.pi, 0.95, 128, 4), (2.0, 0.97, 128, 5), (5.0, 0.7, 256, 6),
    ])
    def test_matches_grid_shift_oracle(self, L_, c_, n, seed):
        # independent of the Fourier shift: translate the exact profile on
        # the grid and minimize ynorm_sq of the difference over s
        from scipy.optimize import minimize_scalar

        w = solve_modulus(L_, c_)
        eps = 1e-3
        p, q = perturbation_random(L_, n, seed=seed)
        h, h1, _ = sample_wave(w, n)
        phi = h + eps * p
        phidot = w.c * h1 + eps * q
        x = grid_points(L_, n)

        def dist_sq(s):
            g, g1, _ = profile_eval(w, x - s)
            return ynorm_sq(phi - g, phidot - w.c * g1, L_)

        shifts = np.linspace(0.0, L_, 2000, endpoint=False)
        s0 = shifts[int(np.argmin([dist_sq(s) for s in shifts]))]
        step_s = L_ / 2000
        res = minimize_scalar(dist_sq, bounds=(s0 - step_s, s0 + step_s),
                              method="bounded", options={"xatol": 1e-12})
        oracle = math.sqrt(res.fun)
        assert abs(orbit_distance(phi, phidot, w) - oracle) <= 1e-10 * oracle

    @pytest.mark.parametrize("rows", [1, 16])
    def test_one_sample_takes_at_most_ten_exp_elements_per_row(self, wave, monkeypatch, rows):
        # one exp per row and shift: the grid shift's, at most 7 more Newton
        # steps and the final dist_sq's at the Newton shift
        ph, pt = TestBatch.states(wave, N, [1e-3 * (1 + k % 5) for k in range(rows)])
        h, h1, _ = sample_wave(wave, N)
        distance = _OrbitDistance(wave, h, h1)
        elements = []
        exp = np.exp

        def counting_exp(x, *args, **kwargs):
            elements.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        assert np.all(distance(ph, pt) > 0.0)
        assert 0 < sum(elements) <= 10 * rows

    @pytest.mark.parametrize("n", [16, 64, 66, 128, 130, 256, 1024, 1026])
    @pytest.mark.parametrize("L_, c_", [(math.pi, 0.95), (2.0, 0.97), (5.0, 0.7)])
    def test_sampled_wave_has_no_even_modes(self, L_, c_, n):
        # sample_wave fills f_{j + N/2} = -f_j exactly, so the DFT's even
        # modes vanish: pocketfft's are exact zeros at N = 2^m and rounding
        # residues elsewhere
        h, h1, _ = sample_wave(solve_modulus(L_, c_), n)
        for values in (h, h1):
            coeff = np.abs(np.fft.rfft(values))
            if n & (n - 1) == 0:
                assert np.all(coeff[::2] == 0.0)
            else:
                assert np.max(coeff[::2]) <= 1e-13 * np.max(coeff)

    @pytest.mark.parametrize("rows", [1, 4, "dead row"])
    @pytest.mark.parametrize("n", [64, 66, 128, 130, 256, 1024])
    @pytest.mark.parametrize("L_, c_", [(math.pi, 0.95), (2.0, 0.97), (5.0, 0.7)])
    def test_agrees_with_the_all_mode_formula(self, L_, c_, n, rows):
        # shifting the even modes too, with one exp per mode, moves the
        # distance by at most 1e-15 ||(h, c h')||_Y: the rows are the wave
        # itself, small and large perturbations after 7 steps, and the dead
        # row phi = 0.3
        w = solve_modulus(L_, c_)
        h, h1, _ = sample_wave(w, n)
        ph, pt = final_state(SplitStepper(L_, n, 1e-3),
                             *TestBatch.states(w, n, [1e-3, 0.0, 0.3, 4e-4]), 7)
        if rows == "dead row":
            ph, pt = np.insert(ph, 2, 0.0, axis=0), np.insert(pt, 2, 0.0, axis=0)
            ph[2, 0] = 0.3 * n
        else:
            ph, pt = ph[:rows], pt[:rows]
        got = _OrbitDistance(w, h, h1)(ph, pt)
        want = all_mode_orbit_distance(w, h, h1, ph, pt)
        assert np.max(np.abs(got - want)) <= 1e-15 * math.sqrt(ynorm_sq(h, w.c * h1, L_))

    @pytest.mark.parametrize("rows", [1, 4, 16, "dead row"])
    def test_matches_the_formula_with_the_grid_phase_recomputed(self, wave, rows):
        # Newton's first phase is the grid shift's, reused by the final
        # dist_sq; 3 to 12 steps in, some rows' minimum is at the grid shift.
        # The dead row, phi = 0.3 and phi_t = 0, meets the wave only at
        # xi = 0, so its curvature is exactly 0 from the first iteration:
        # it must stay at its grid shift among live rows, and its 0/0 must
        # not warn (warnings are errors here).
        h, h1, _ = sample_wave(wave, N)
        distance = _OrbitDistance(wave, h, h1)
        ph, pt = TestBatch.states(wave, N, [1e-3, 0.0, 0.3, 4e-4])
        stepper = SplitStepper(L, N, 1e-3)
        states = [final_state(stepper, ph, pt, 3 * k) for k in range(1, 5)]
        ph, pt = (np.vstack(a) for a in zip(*states))
        if rows == "dead row":
            constant = np.zeros(N // 2 + 1, complex)
            constant[0] = 0.3 * N
            ph = np.insert(ph[:4], 2, constant, axis=0)
            pt = np.insert(pt[:4], 2, 0.0, axis=0)
        else:
            ph, pt = ph[:rows], pt[:rows]
        got, want = distance(ph, pt), reference_orbit_distance(distance, ph, pt)
        assert got.tobytes() == want.tobytes()
        solo = [distance(ph[b:b + 1], pt[b:b + 1]) for b in range(len(ph))]
        assert got.tobytes() == np.concatenate(solo).tobytes()


class TestPerturbations:
    def test_random_unit_norm_zero_mean(self):
        p, q = perturbation_random(L, N, seed=9)
        assert abs(math.sqrt(ynorm_sq(p, q, L)) - 1.0) <= 1e-12
        assert abs(np.mean(p)) <= 1e-14
        assert abs(np.mean(q)) <= 1e-14

    def test_random_reproducible(self):
        a = perturbation_random(L, N, seed=123)
        b = perturbation_random(L, N, seed=123)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        c = perturbation_random(L, N, seed=124)
        assert not np.array_equal(a[0], c[0])

    @pytest.mark.parametrize("L_", [0.7, math.pi, 6.0])
    @pytest.mark.parametrize("n", [16, 128, 2048])
    @pytest.mark.parametrize("seed", [0, 90001])
    def test_random_matches_per_mode_loop(self, L_, n, seed):
        # oracle: one mode at a time, amplitude then phase draw per mode
        rng = np.random.Generator(np.random.PCG64(seed))
        x = grid_points(L_, n)
        fields = []
        for _ in range(2):
            vals = np.zeros(n)
            for m in range(1, min(max(2, n // 8), 32) + 1):
                amp = (2.0 * rng.random() - 1.0) / (m * m)
                phase = 2.0 * math.pi * rng.random()
                vals += amp * np.cos(2.0 * math.pi * m / L_ * x + phase)
            fields.append(vals)
        scale = 1.0 / math.sqrt(ynorm_sq(*fields, L_))
        p, q = perturbation_random(L_, n, seed)
        assert np.array_equal(p, scale * fields[0])
        assert np.array_equal(q, scale * fields[1])


class TestRunExperiment:
    def test_trace_shape_and_monotone_time(self, wave):
        [trace] = run_experiment(wave, [(0.0, None)], 0.5, 1e-3, 50, N=N)
        assert trace.samples.shape == (11, 6)
        assert np.all(np.diff(trace.column("t")) > 0.0)

    def test_wave_sampled_once(self, wave, monkeypatch):
        # the orbit distance reuses run_experiment's samples of (h, h')
        import snoidal.evolution as evolution

        calls = []
        real = evolution.sample_wave

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(evolution, "sample_wave", counting)
        p, q = perturbation_random(L, N, seed=2)
        run_experiment(wave, [(1e-3, (p, q))], 0.1, 1e-3, 50, N=N)
        assert len(calls) == 1

    def test_modes_built_once_per_run(self, wave, monkeypatch):
        # the stepper and the cached (xi, w) of the trace rows: one build each
        import snoidal.evolution as evolution

        calls = []
        real = evolution.wavenumbers

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(evolution, "wavenumbers", counting)
        evolution._modes.cache_clear()
        p, q = perturbation_random(L, N, seed=4)
        [trace] = run_experiment(wave, [(1e-3, (p, q))], 0.06, 1e-3, 1, N=N)
        assert trace.samples.shape[0] >= 50
        assert len(calls) <= 2

    def test_means_stay_zero(self, wave):
        p, q = perturbation_random(L, N, seed=1)
        [trace] = run_experiment(wave, [(1e-3, (p, q))], 2.0, 1e-3, 100, N=N)
        assert np.max(np.abs(trace.column("mean_phi"))) <= 1e-10
        assert np.max(np.abs(trace.column("mean_phidot"))) <= 1e-10

    def test_projected_means_exactly_zero_after_start(self, wave):
        # the projected flow zeroes mode 0, and the means read mode 0 directly
        ones = np.ones(N)
        [trace] = run_experiment(wave, [(1e-6, (ones, ones))], 1.0, 1e-3, 100, N=N)
        assert trace.column("mean_phi")[0] != 0.0
        assert np.all(trace.column("mean_phi")[1:] == 0.0)
        assert np.all(trace.column("mean_phidot")[1:] == 0.0)

    def test_trace_matches_grid_quadrature_of_stepper_state(self, wave):
        # the row's Parseval sums agree with a grid quadrature of the same state
        eps, dt, every, blocks = 1e-3, 1e-3, 100, 3
        p, q = perturbation_random(L, N, seed=3)
        [trace] = run_experiment(wave, [(eps, (p, q))], blocks * every * dt, dt, every, N=N)
        h, h1, _ = sample_wave(wave, N)
        ph = np.fft.rfft([h + eps * p])
        pt = np.fft.rfft([wave.c * h1 + eps * q])
        stepper = SplitStepper(L, N, dt)
        for b in range(blocks):
            ph, pt = final_state(stepper, ph, pt, every, b * every)
        phi = np.fft.irfft(ph[0], N)
        phidot = np.fft.irfft(pt[0], N)
        phi_x = spectral_derivative(phi, L)
        energy = 0.5 * (L / N) * float(np.sum(phi_x**2 + phidot**2 - phi**2 + 0.5 * phi**4))
        momentum = (L / N) * float(np.sum(phi_x * phidot))
        assert abs(trace.column("E")[-1] - energy) <= 1e-13 * abs(energy)
        assert abs(trace.column("F")[-1] - momentum) <= 1e-13 * abs(momentum)

    def test_nan_eps_rejected(self, wave):
        with pytest.raises(ValueError):
            run_experiment(wave, [(float("nan"), None)], 1.0, 1e-3, 10, N=N)

    def test_pure_wave_rides_the_orbit(self, wave):
        [trace] = run_experiment(wave, [(0.0, None)], 5.0, 1e-3, 250, N=N)
        assert np.max(trace.column("orbit_distance")) <= 1e-6

    def test_poincare_wirtinger_and_apriori_bound(self, wave):
        p, q = perturbation_random(L, N, seed=5)
        h, h1, _ = sample_wave(wave, N)
        phi = h + 1e-3 * p
        pdot = wave.c * h1 + 1e-3 * q
        st = (phi, pdot)
        [e0] = conserved(np.fft.rfft([phi]), np.fft.rfft([pdot]), L)[0]
        stepper = SplitStepper(L, N, 1e-3)
        for i in range(1000):
            st = advance_state(stepper, st)
            if i % 100 == 0:
                v = st[0]
                l2 = L / N * float(np.sum(v * v))
                h1s = _h1_semi_sq(v, L)
                assert l2 <= (L / (2.0 * math.pi)) ** 2 * h1s + 1e-15
                kin = h1s + L / N * float(np.sum(st[1] ** 2))
                assert kin <= 2.0 * e0 + L / 2.0

    def test_no_complex_fft(self, wave, monkeypatch):
        # the stepper's rfft coefficients are the only Fourier representation
        def forbidden(*args, **kwargs):
            raise AssertionError("complex FFT called")

        for name in ("fft", "ifft", "fftfreq"):
            monkeypatch.setattr(np.fft, name, forbidden)
        p, q = perturbation_random(L, N, seed=2)
        [trace] = run_experiment(wave, [(1e-3, (p, q))], 0.5, 1e-3, 50, N=N)
        assert np.all(np.isfinite(trace.column("orbit_distance")))
        assert orbit_distance(np.ones(N), np.zeros(N), wave) > 0.0

    def test_unprojected_mean_contrast_demo(self, wave):
        # contrast mode, demonstrative only: without projection a
        # mean-carrying perturbation keeps an O(eps) wandering mean, while
        # the projected flow pins both means at zero
        eps = 1e-6
        ones = np.ones(N)
        zero = np.zeros(N)
        [trace] = run_experiment(wave, [(eps, (ones, zero))], 4.0, 1e-3, 500,
                                 N=N, projected=False)
        means = trace.column("mean_phi")
        assert np.max(np.abs(means - means[0])) > 0.3 * eps
        [pinned] = run_experiment(wave, [(eps, (ones, zero))], 4.0, 1e-3, 500,
                                  N=N, projected=True)
        # row 0 records the raw mean-carrying data; projection acts from step 1
        assert np.max(np.abs(pinned.column("mean_phi")[1:])) <= 1e-10

    def test_input_validation(self, wave, monkeypatch):
        # every case fails before the wave is sampled
        import snoidal.evolution as evolution

        def unreachable(*args, **kwargs):
            raise AssertionError("sample_wave ran before the inputs were checked")

        monkeypatch.setattr(evolution, "sample_wave", unreachable)
        with pytest.raises(ValueError):
            run_experiment(wave, [(-1.0, None)], 1.0, 1e-3, 10, N=N)
        with pytest.raises(ValueError):
            run_experiment(wave, [(0.0, None)], 1.0, -1e-3, 10, N=N)
        p, q = perturbation_random(L, 64, seed=0)
        with pytest.raises(ValueError):
            run_experiment(wave, [(1e-3, (p, q))], 1.0, 1e-3, 10, N=N)
        with pytest.raises(ValueError):
            run_experiment(wave, [(1e-3, (p[None, :], q))], 1.0, 1e-3, 10, N=64)
        with pytest.raises(ValueError):
            run_experiment(wave, [(math.inf, (p, q))], 1.0, 1e-3, 10, N=64)

    def test_sample_every_below_one_rejected(self, wave, monkeypatch):
        import snoidal.evolution as evolution

        def unreachable(*args, **kwargs):
            raise AssertionError("sample_wave ran before the inputs were checked")

        monkeypatch.setattr(evolution, "sample_wave", unreachable)
        with pytest.raises(ValueError, match="^sample_every must be at least 1, got 0$"):
            run_experiment(wave, [(0.0, None)], 1.0, 1e-3, 0, N=N)

    @pytest.mark.parametrize("T", [-5.0, 0.0105])
    def test_horizon_not_a_whole_number_of_steps_rejected(self, wave, T):
        with pytest.raises(ValueError):
            horizon_steps(T, 1e-3)
        with pytest.raises(ValueError):
            run_experiment(wave, [(0.0, None)], T, 1e-3, 10, N=N)

    def test_whole_step_horizon_accepted(self):
        # 0.7 / 0.001 is 699.9999999999999 in floating point
        assert horizon_steps(0.7, 1e-3) == 700

    @pytest.mark.parametrize("dt", [1.0, 0.5, 1e-3])
    def test_step_cap_is_the_last_horizon_accepted(self, dt):
        # MAX_STEPS steps pass, and the next whole step count is refused
        assert horizon_steps(MAX_STEPS * dt, dt) == MAX_STEPS
        T = (MAX_STEPS + 1) * dt
        with pytest.raises(ValueError, match=rf"^time horizon {T} is over MAX_STEPS = "
                                             rf"1e\+09 steps of {dt}$"):
            horizon_steps(T, dt)

    @pytest.mark.parametrize("T, dt", [(1e300, 1e-3), (1.0, 1e-300), (1e300, 1e-300)])
    def test_horizon_over_the_step_cap_rejected_before_sampling(self, wave, monkeypatch, T, dt):
        # 1e303 and 1e300 steps: left to run, either goes on until it is
        # killed; 1e600 overflows T / dt to inf, and is over the cap too
        import snoidal.evolution as evolution

        def unreachable(*args, **kwargs):
            raise AssertionError("sample_wave ran before the horizon was checked")

        monkeypatch.setattr(evolution, "sample_wave", unreachable)
        with pytest.raises(ValueError, match="is over MAX_STEPS"):
            run_experiment(wave, [(0.0, None)], T, dt, 10, N=N)


class TestBatch:
    """A (B, N/2 + 1) batch gives each row the bits it gets alone."""

    @staticmethod
    def states(wave, n, amplitudes):
        """rfft coefficients of (h, c h') + eps (p, q), one row per amplitude."""
        h, h1, _ = sample_wave(wave, n)
        rows = []
        for seed, eps in enumerate(amplitudes):
            p, q = perturbation_random(wave.L, n, seed)
            rows.append((np.fft.rfft(h + eps * p), np.fft.rfft(wave.c * h1 + eps * q)))
        return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])

    @staticmethod
    def same_bits(a, b):
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("projected", [True, False])
    @pytest.mark.parametrize("B", [1, 2, 3])
    def test_advance_rows_match_single_calls(self, wave, projected, B):
        ph, pt = self.states(wave, N, [0.0, 1e-3, 0.3][:B])
        stepper = SplitStepper(L, N, 1e-3, projected)
        bph, bpt = final_state(stepper, ph, pt, 25, ceiling=20.0)
        assert bph.shape == ph.shape
        for b in range(B):
            rph, rpt = final_state(stepper, ph[b:b + 1], pt[b:b + 1], 25, ceiling=20.0)
            assert self.same_bits(bph[b:b + 1], rph) and self.same_bits(bpt[b:b + 1], rpt)

    @pytest.mark.parametrize("B", [1, 2, 3])
    def test_conserved_and_distance_rows_match_single_calls(self, wave, B):
        ph, pt = self.states(wave, N, [0.0, 1e-3, 0.3][:B])
        h, h1, _ = sample_wave(wave, N)
        distance = _OrbitDistance(wave, h, h1)
        batch = (*conserved(ph, pt, L), distance(ph, pt))
        assert all(isinstance(v, np.ndarray) and v.shape == (B,) for v in batch)
        for b in range(B):
            ph_b, pt_b = ph[b:b + 1], pt[b:b + 1]
            alone = (*conserved(ph_b, pt_b, L), distance(ph_b, pt_b))
            assert all(isinstance(v, np.ndarray) and v.shape == (1,) for v in alone)
            assert self.same_bits([v[b] for v in batch], np.concatenate(alone))

    @pytest.mark.parametrize("projected", [True, False])
    @pytest.mark.parametrize("B", [1, 2, 3])
    def test_run_experiment_members_match_solo_runs(self, wave, projected, B):
        amplitudes = [1e-3, 0.0, 4e-4][:B]
        perturbations = [perturbation_random(L, N, seed) for seed in (5, 6, 7)][:B]
        members = list(zip(amplitudes, perturbations))
        traces = run_experiment(wave, members, 0.3, 1e-3, 20, N=N, projected=projected)
        assert isinstance(traces, list) and len(traces) == B
        for trace, member in zip(traces, members):
            [solo] = run_experiment(wave, [member], 0.3, 1e-3, 20, N=N, projected=projected)
            assert self.same_bits(trace.samples, solo.samples)

    @staticmethod
    def sweep_members(wave, B, n=256):
        """B members (1e-4 (1 + 0.37 i), pair), perturbation_random seeds 1, 2, 3, 4, 1, ..."""
        pairs = [perturbation_random(wave.L, n, seed) for seed in (1, 2, 3, 4)]
        return [(1e-4 * (1 + 0.37 * i), pairs[i % 4]) for i in range(B)]

    @classmethod
    def sweep_states(cls, wave, B, n=256):
        """rfft coefficients of the sweep_members' initial states, one row per member."""
        h, h1, _ = sample_wave(wave, n)
        members = cls.sweep_members(wave, B, n)
        ph = np.fft.rfft(np.array([h + eps * p for eps, (p, _) in members]))
        pt = np.fft.rfft(np.array([wave.c * h1 + eps * q for eps, (_, q) in members]))
        return ph, pt

    @pytest.mark.parametrize("B", [64, 128])
    def test_large_batch_members_match_solo_runs(self, B):
        # the members fill a sample block together, but each member's rows are
        # evaluated on their own; evaluated in blocks of every member's rows,
        # 4 of these 16 members (B = 64) and 14 (B = 128) got other last
        # digits than their solo runs
        wave = solve_modulus(3.7, 0.9)
        members = self.sweep_members(wave, B)
        traces = run_experiment(wave, members, 0.1, 1e-3, 1, N=256)
        for m in range(0, B, B // 16):
            [solo] = run_experiment(wave, members[m:m + 1], 0.1, 1e-3, 1, N=256)
            assert self.same_bits(traces[m].samples, solo.samples), m

    @pytest.mark.parametrize("projected", [True, False])
    def test_members_match_solo_runs_when_a_sample_spans_check_chunks(self, projected):
        # 80 steps per sample: every advance call runs a full chunk of
        # _CHECK_KICKS kicks and a partial one, three blocks in a row
        every = 80
        assert every > _CHECK_KICKS
        wave = solve_modulus(3.14159, 0.95)
        pair = perturbation_random(wave.L, 64, 1)
        members = [(eps, pair) for eps in (1e-3, 5e-4, 2e-4)]
        traces = run_experiment(wave, members, 0.24, 1e-3, every, N=64, projected=projected)
        for trace, member in zip(traces, members):
            assert trace.samples.shape == (4, 6)
            [solo] = run_experiment(wave, [member], 0.24, 1e-3, every, N=64, projected=projected)
            assert self.same_bits(trace.samples, solo.samples)

    def test_large_advance_batch_rows_match_single_calls(self):
        # the stepper's rotation tables are real values stored complex, so its
        # products scale each component exactly, and every call names its output
        wave = solve_modulus(3.7, 0.9)
        ph, pt = self.sweep_states(wave, 128)
        stepper = SplitStepper(wave.L, 256, 1e-3)
        bph, bpt = final_state(stepper, ph, pt, 50, ceiling=20.0)
        for b in range(0, 128, 7):
            rph, rpt = final_state(stepper, ph[b:b + 1], pt[b:b + 1], 50, ceiling=20.0)
            assert self.same_bits(bph[b:b + 1], rph) and self.same_bits(bpt[b:b + 1], rpt), b

    def test_large_distance_block_rows_match_single_calls(self):
        # 128 rows at N = 256 make Newton's complex products 264 KiB, where
        # numpy would compute wcross * exp(...) in the exp's temporary with
        # the operands swapped; that gave 25 of these rows other bits
        wave = solve_modulus(3.7, 0.9)
        ph, pt = final_state(SplitStepper(wave.L, 256, 1e-3),
                             *self.sweep_states(wave, 128), 5, ceiling=20.0)
        h, h1, _ = sample_wave(wave, 256)
        distance = _OrbitDistance(wave, h, h1)
        solo = [distance(ph[b:b + 1], pt[b:b + 1]) for b in range(len(ph))]
        assert self.same_bits(distance(ph, pt), np.concatenate(solo))

    def test_eps_zero_member_is_the_wave(self, wave):
        # an eps = 0 member evolves (h, c h') whatever its perturbation
        p, q = perturbation_random(L, N, 3)
        with_pair, without = run_experiment(wave, [(0.0, (p, q)), (0.0, None)], 0.1, 1e-3, 10, N=N)
        [solo] = run_experiment(wave, [(0.0, None)], 0.1, 1e-3, 10, N=N)
        assert self.same_bits(with_pair.samples, solo.samples)
        assert self.same_bits(without.samples, solo.samples)

    def test_blowup_is_per_member(self, wave):
        # at dt = 0.1, eps = 35 leaves the ceiling at t = 1.95, ten sample
        # blocks in, and eps = 60 at the first kick; the members beside them
        # run on and match their solo runs
        amplitudes = [1e-3, 35.0, 60.0, 20.0]
        pair = perturbation_random(L, N, 1)
        outcomes = run_experiment(wave, [(eps, pair) for eps in amplitudes], 3.0, 0.1, 2, N=N)
        for outcome, eps in zip(outcomes, amplitudes):
            [solo] = run_experiment(wave, [(eps, pair)], 3.0, 0.1, 2, N=N)
            if isinstance(solo, BlowUpError):
                assert isinstance(outcome, BlowUpError)
                assert (str(outcome), outcome.time) == (str(solo), solo.time)
            else:
                assert self.same_bits(outcome.samples, solo.samples)
        assert [type(o).__name__ for o in outcomes] == [
            "EvolutionTrace", "BlowUpError", "BlowUpError", "EvolutionTrace"]
        assert math.isclose(outcomes[1].time, 1.95) and outcomes[2].time == 0.05

    @pytest.mark.parametrize("amplitudes", [[1e-3] * 15 + [1e200], [1e200, 1e-3]],
                             ids=["last_of_16", "first_of_2"])
    def test_overflowing_member_leaves_without_a_warning(self, amplitudes):
        # phi^4 of an eps = 1e200 state overflows; its t = 0 row leaves the
        # batch with it at the first kick, unevaluated, so nothing warns even
        # where the t = 0 rows alone fill a sample block
        wave = solve_modulus(3.14159, 0.95)
        pair = perturbation_random(wave.L, 64, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = run_experiment(wave, [(eps, pair) for eps in amplitudes],
                                      0.05, 1e-3, 10, N=64)
            [solo] = run_experiment(wave, [(1e-3, pair)], 0.05, 1e-3, 10, N=64)
            [alone] = run_experiment(wave, [(1e200, pair)], 0.05, 1e-3, 10, N=64)
        assert isinstance(alone, BlowUpError)
        for outcome, eps in zip(outcomes, amplitudes):
            if eps == 1e200:
                assert isinstance(outcome, BlowUpError) and outcome.time == 0.0005
            else:
                assert self.same_bits(outcome.samples, solo.samples)

    def test_single_member_batch_returns_its_blowup(self, wave):
        pair = perturbation_random(L, N, 1)
        [outcome] = run_experiment(wave, [(100.0, pair)], 1.0, 1e-3, 10, N=N)
        assert isinstance(outcome, BlowUpError) and outcome.time == 0.0005

    def test_stepper_names_the_tripping_row(self, wave):
        ph, pt = self.states(wave, N, [1e-3, 100.0, 200.0])
        with pytest.raises(BlowUpError) as info:
            SplitStepper(L, N, 1e-3).advance(ph, pt, 5, 0, 5, 10.0)
        assert info.value.member == 1
        with pytest.raises(BlowUpError) as alone:
            SplitStepper(L, N, 1e-3).advance(ph[1:2], pt[1:2], 5, 0, 5, 10.0)
        assert str(info.value) == str(alone.value) and alone.value.member == 0

    def test_ceiling_compares_the_exact_sup(self, wave):
        # the kick reads max |phi| as sqrt(max phi^2); a ceiling at the exact
        # sup passes, one ulp below it trips with the exact sup in the message
        ph, pt = self.states(wave, N, [1e-3, 0.2])
        half, _ = linear_flow(ph, pt, rotation_tables(L, N, 0.5e-3))
        sups = np.max(np.abs(np.fft.irfft(half, N)), axis=-1)
        top = float(np.max(sups))
        SplitStepper(L, N, 1e-3).advance(ph, pt, 1, 0, 1, top)
        with pytest.raises(BlowUpError) as info:
            SplitStepper(L, N, 1e-3).advance(ph, pt, 1, 0, 1, math.nextafter(top, 0.0))
        assert info.value.member == int(np.argmax(sups))
        assert f"||phi||_inf = {top:.6g} exceeded" in str(info.value)

    def test_ceiling_is_an_argument_of_each_call(self, wave):
        # one stepper and one state: a ceiling at the exact sup passes, one
        # ulp below it trips at the first kick with the sup and that ceiling
        # in its line, and an infinite ceiling never trips
        ph, pt = self.states(wave, N, [0.2])
        stepper = SplitStepper(L, N, 1e-3)
        half, _ = linear_flow(ph, pt, rotation_tables(L, N, 0.5e-3))
        top = float(np.max(np.abs(np.fft.irfft(half, N))))
        below = math.nextafter(top, 0.0)
        passed = stepper.advance(ph, pt, 1, 0, 1, top)
        with pytest.raises(BlowUpError) as info:
            stepper.advance(ph, pt, 1, 0, 1, below)
        assert (info.value.member, info.value.time) == (0, 0.5e-3)
        assert str(info.value) == (f"||phi||_inf = {top:.6g} exceeded ceiling {below:.6g} "
                                   "at t = 0.0005")
        with pytest.raises(BlowUpError) as ref:
            reference_advance(stepper, ph, pt, 1, 0.0, below)
        assert str(ref.value) == str(info.value)
        unbounded = stepper.advance(ph, pt, 1, 0, 1, math.inf)
        assert TestBatch.same_bits(unbounded, passed)
        assert not hasattr(stepper, "ceiling")

    def test_batch_input_validation(self, wave, monkeypatch):
        # every case fails before the wave is sampled
        import snoidal.evolution as evolution

        def unreachable(*args, **kwargs):
            raise AssertionError("sample_wave ran before the inputs were checked")

        monkeypatch.setattr(evolution, "sample_wave", unreachable)
        pair = perturbation_random(L, N, 1)
        with pytest.raises(ValueError):
            run_experiment(wave, [], 0.1, 1e-3, 10, N=N)
        with pytest.raises(ValueError):
            run_experiment(wave, [(1e-3, pair), (-1.0, pair)], 0.1, 1e-3, 10, N=N)
        with pytest.raises(ValueError, match=r"member 1 is not an \(eps, pair\) tuple: "
                                             rf"its eps has shape \({N},\)"):  # a bare (p, q) pair
            run_experiment(wave, [(1e-3, pair), pair], 0.1, 1e-3, 10, N=N)


class TestBufferedAdvance:
    """advance runs the reference loop's arithmetic in its own buffers, bit for bit."""

    @staticmethod
    def states(wave, rows, n=N):
        """The first `rows` rows of TestBatch.states, or the middle one alone (rows=None)."""
        ph, pt = TestBatch.states(wave, n, [1e-3, 0.3, 0.0])
        rows = slice(1, 2) if rows is None else slice(rows)
        return ph[rows].copy(), pt[rows].copy()

    @staticmethod
    def same_bits(got, want):
        return all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, want))

    # the reference loop transforms through np.fft, advance through the
    # pocketfft ufuncs it binds: N = 16 is the grid floor, and N = 130 has an
    # odd N/2
    @pytest.mark.parametrize("nsteps", [1, 2, 7, 2 * _CHECK_KICKS + 5])
    @pytest.mark.parametrize("dt", [1e-3, -1e-3])
    @pytest.mark.parametrize("projected", [True, False])
    @pytest.mark.parametrize("rows", [None, 1, 3])
    @pytest.mark.parametrize("n", [16, N, 130])
    def test_matches_reference_loop(self, wave, n, rows, projected, dt, nsteps):
        ph, pt = self.states(wave, rows, n)
        stepper = SplitStepper(L, n, dt, projected)
        got = stepper.advance(ph, pt, nsteps, 125, nsteps, 20.0)
        assert got[0].shape == got[1].shape == (1,) + ph.shape
        want = reference_advance(stepper, ph, pt, nsteps, 125 * dt, 20.0)
        assert self.same_bits((got[0][-1], got[1][-1]), want)

    @pytest.mark.parametrize("projected", [True, False])
    def test_matches_reference_loop_at_benchmark_shape(self, wave, projected):
        # the stability workload's grid and step, over one 500-step block
        ph, pt = self.states(wave, None, 256)
        stepper = SplitStepper(L, 256, 1e-3, projected)
        got = final_state(stepper, ph, pt, 500, ceiling=20.0)
        assert self.same_bits(got, reference_advance(stepper, ph, pt, 500, 0.0, 20.0))

    def test_tables_follow_the_state_shape(self, wave):
        # one stepper on a (3, n) batch, then (2, n) -- a member has left --
        # then a lone row, which steps on 1-D buffers, then (3, n) again; it
        # keeps no state between calls
        stepper = SplitStepper(L, N, 1e-3)
        before = dict(vars(stepper))  # attribute names and the objects they hold
        for rows in (3, 2, None, 3):
            ph, pt = self.states(wave, rows)
            got = final_state(stepper, ph, pt, 7, ceiling=20.0)
            assert self.same_bits(got, reference_advance(stepper, ph, pt, 7, 0.0, 20.0))
        after = vars(stepper)
        assert after.keys() == before.keys() and all(after[k] is v for k, v in before.items())

    @pytest.mark.parametrize("rows", [None, 3])
    def test_inputs_untouched_and_unshared(self, wave, rows):
        ph, pt = self.states(wave, rows)
        before = ph.copy(), pt.copy()
        ph.setflags(write=False)  # a write into the inputs raises
        pt.setflags(write=False)
        stepper = SplitStepper(L, N, 1e-3)
        first = stepper.advance(ph, pt, 7, 0, 7, math.inf)
        second = stepper.advance(ph, pt, 7, 0, 7, math.inf)
        assert self.same_bits((ph, pt), before)
        assert self.same_bits(first, second)
        arrays = (ph, pt, *first, *second)
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert a is ph and b is pt or not np.shares_memory(a, b)

    @pytest.mark.parametrize("row", [0, 2])
    @pytest.mark.parametrize("n", [16, N, 130])
    def test_nan_row_trips_with_its_member_and_time(self, wave, n, row):
        ph, pt = self.states(wave, 3, n)
        ph[row] = np.nan
        stepper = SplitStepper(L, n, 1e-3)
        with pytest.raises(BlowUpError) as info:
            stepper.advance(ph, pt, 7, 250, 7, 20.0)
        with pytest.raises(BlowUpError) as ref:
            reference_advance(stepper, ph, pt, 7, 250 * 1e-3, 20.0)
        assert info.value.member == ref.value.member == row
        assert info.value.time == ref.value.time == 0.25 + 0.5e-3
        assert str(info.value).startswith("||phi||_inf = nan exceeded ceiling 20 at t = 0.2505")

    # the first new sup comes at kick 18 for dt = 0.03 and kick 11 for
    # dt = 0.05, after an even and an odd number of buffer swaps; rolling the
    # rows puts the tripping one first, in the middle and last
    @pytest.mark.parametrize("projected", [True, False])
    @pytest.mark.parametrize("roll", [0, 1, 2])
    @pytest.mark.parametrize("dt", [0.03, 0.05])
    @pytest.mark.parametrize("n", [N, 130])
    def test_trip_after_the_buffers_swap(self, wave, monkeypatch, n, dt, roll, projected):
        # the ceiling is the largest sup of the kicks before the first kick
        # j >= 3 that exceeds it, so the trip comes after full rotations have
        # swapped the state buffers
        ph, pt = (np.roll(a, roll, axis=0) for a in self.states(wave, 3, n))
        start, sups, irfft = 5, [], np.fft.irfft
        t0 = start * dt

        def recording(a, n_):
            phi = irfft(a, n_)
            sups.append(np.max(np.abs(phi), axis=-1))
            return phi

        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "irfft", recording)
            reference_advance(SplitStepper(L, n, dt, projected), ph, pt, 40, t0)
        sups = np.array(sups)  # (kick, row)
        top = np.maximum.accumulate(sups.max(axis=1))
        j = next(k for k in range(3, len(top)) if top[k] > top[k - 1])
        ceiling = float(top[j - 1])
        stepper = SplitStepper(L, n, dt, projected)
        with pytest.raises(BlowUpError) as info:
            stepper.advance(ph, pt, 40, start, 40, ceiling)
        with pytest.raises(BlowUpError) as ref:
            reference_advance(stepper, ph, pt, 40, t0, ceiling)
        member = int(np.argmax(sups[j] > ceiling))
        assert info.value.member == ref.value.member == member
        assert info.value.time == ref.value.time == t0 + (j + 0.5) * dt
        assert str(info.value).startswith(f"||phi||_inf = {sups[j, member]:.6g} exceeded")

    # rows 0 and 1, 1 and 2, or 2 alone have the largest amplitude; the
    # kicks are the last of the first chunk, the first of the second and one
    # inside the final partial chunk of 150 kicks
    @pytest.mark.parametrize("kick, amplitudes, member", [
        (_CHECK_KICKS - 1, [3.0, 3.0, 1.0], 0),
        (_CHECK_KICKS, [1.0, 3.0, 3.0], 1),
        (140, [1.0, 2.0, 3.0], 2),
    ])
    def test_trip_across_chunk_boundaries(self, wave, monkeypatch, kick, amplitudes, member):
        # phi = 0 and phi_t = A cos(2 pi x / L): every row's sup grows as
        # (A / om) sin(om t) for the 150 kicks of dt = 5e-3, so a ceiling at
        # the largest sup of kick j - 1 first trips at kick j
        n, dt, start, nsteps = 130, 5e-3, 50, 150
        t0 = start * dt
        x = grid_points(L, n)
        pt = np.fft.rfft(1e-3 * np.array(amplitudes)[:, None] * np.cos(2.0 * math.pi * x / L))
        ph = np.zeros_like(pt)
        sups, irfft = [], np.fft.irfft

        def recording(a, n_):
            phi = irfft(a, n_)
            sups.append(np.max(np.abs(phi), axis=-1))
            return phi

        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "irfft", recording)
            reference_advance(SplitStepper(L, n, dt), ph, pt, nsteps, t0)
        sups = np.array(sups)  # (kick, row)
        assert np.all(np.diff(sups, axis=0) > 0.0)
        stepper, ceiling = SplitStepper(L, n, dt), float(sups[kick - 1].max())
        with pytest.raises(BlowUpError) as info:
            stepper.advance(ph, pt, nsteps, start, nsteps, ceiling)
        with pytest.raises(BlowUpError) as ref:
            reference_advance(stepper, ph, pt, nsteps, t0, ceiling)
        assert info.value.member == ref.value.member == member
        assert info.value.time == ref.value.time == t0 + (kick + 0.5) * dt
        assert str(info.value) == str(ref.value)

    def test_overflow_past_a_trip_stays_silent(self, wave):
        # at dt = 0.1 the eps = 100 row leaves the ceiling at the first kick,
        # and the kicks after it, which run to the end of the chunk, overflow:
        # with no finite ceiling the same call trips only on NaN at kick 7
        ph, pt = TestBatch.states(wave, N, [1e-3, 100.0, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stepper = SplitStepper(L, N, 0.1)
            with pytest.raises(BlowUpError) as unbounded:
                stepper.advance(ph, pt, _CHECK_KICKS, 0, _CHECK_KICKS, math.inf)
            with pytest.raises(BlowUpError) as info:
                stepper.advance(ph, pt, _CHECK_KICKS, 0, _CHECK_KICKS, 20.0)
        assert str(unbounded.value).startswith("||phi||_inf = nan exceeded ceiling inf")
        assert unbounded.value.time == 0.75
        with pytest.raises(BlowUpError) as ref:
            reference_advance(stepper, ph, pt, _CHECK_KICKS, 0.0, 20.0)
        assert (info.value.member, info.value.time) == (ref.value.member, ref.value.time) == (1, 0.05)
        assert str(info.value) == str(ref.value)

    def test_ffts_call_the_bound_pocketfft_ufuncs(self, wave, monkeypatch):
        # two transforms per step, each a call of the pocketfft ufunc that
        # evolution binds, not of the np.fft wrapper
        import snoidal.evolution as evolution

        ph, pt = self.states(wave, 3)
        stepper = SplitStepper(L, N, 1e-3)
        plain = stepper.advance(ph, pt, 7, 0, 7, math.inf)
        calls = []

        def counting(ufunc, transform):
            def call(*args, **kwargs):
                calls.append(transform)
                return ufunc(*args, **kwargs)

            return call

        bound = evolution._pocketfft_umath
        monkeypatch.setattr(evolution, "_pocketfft_umath", SimpleNamespace(
            irfft=counting(bound.irfft, "irfft"), rfft_n_even=counting(bound.rfft_n_even, "rfft")))
        assert self.same_bits(stepper.advance(ph, pt, 7, 0, 7, math.inf), plain)
        assert calls == ["irfft", "rfft"] * 7


class TestSampledAdvance:
    """advance(..., every=k) returns the states of chained calls of k steps, bit for bit."""

    @staticmethod
    def chained(stepper, ph, pt, nsteps, start, every, ceiling=math.inf):
        """The states after calls of `every` steps (the last one of the rest), each from its start step."""
        rows = []
        for first in range(0, nsteps, every):
            ph, pt = final_state(stepper, ph, pt, min(every, nsteps - first), start + first, ceiling)
            rows.append((ph, pt))
        return rows

    # samples fall on (64), inside (7) and across (65, 80) the chunks of
    # _CHECK_KICKS kicks; the every - 1 steps past the third sample end in a
    # fourth row (every = 1 has none)
    @pytest.mark.parametrize("every", [1, 7, _CHECK_KICKS, _CHECK_KICKS + 1, 80])
    @pytest.mark.parametrize("projected", [True, False])
    @pytest.mark.parametrize("rows", [None, 1, 3])
    def test_rows_are_the_chained_calls(self, wave, rows, projected, every):
        ph, pt = TestBufferedAdvance.states(wave, rows)
        stepper = SplitStepper(L, N, 1e-3, projected)
        nsteps = 3 * every + every - 1
        got = stepper.advance(ph, pt, nsteps, 125, every, ceiling=20.0)
        assert got[0].shape == got[1].shape == (3 + (every > 1),) + ph.shape
        want = self.chained(stepper, ph, pt, nsteps, 125, every, 20.0)
        assert len(want) == len(got[0])
        for i, state in enumerate(want):
            assert TestBufferedAdvance.same_bits((got[0][i], got[1][i]), state), i
        assert not np.shares_memory(got[0], got[1])

    @pytest.mark.parametrize("projected", [True, False])
    @pytest.mark.parametrize("rows", [None, 1, 3])
    def test_fewer_steps_than_every_give_one_short_row(self, wave, rows, projected):
        ph, pt = TestBufferedAdvance.states(wave, rows)
        stepper = SplitStepper(L, N, 1e-3, projected)
        got = stepper.advance(ph, pt, 6, 0, 7, ceiling=20.0)
        assert got[0].shape == got[1].shape == (1,) + ph.shape
        want = final_state(stepper, ph, pt, 6, ceiling=20.0)
        assert TestBufferedAdvance.same_bits((got[0][0], got[1][0]), want)

    @pytest.mark.parametrize("nsteps, every", [(0, 3), (-2, 1), (0, 1), (-1, 5)])
    def test_no_steps_give_no_rows(self, wave, nsteps, every):
        ph, pt = TestBufferedAdvance.states(wave, 3)
        got = SplitStepper(L, N, 1e-3).advance(ph, pt, nsteps, 0, every, ceiling=20.0)
        assert got[0].shape == got[1].shape == (0,) + ph.shape

    @pytest.mark.parametrize("every", [0, -3])
    def test_every_below_one_rejected(self, wave, every):
        ph, pt = TestBufferedAdvance.states(wave, 3)
        with pytest.raises(ValueError, match="every must be at least 1"):
            SplitStepper(L, N, 1e-3).advance(ph, pt, 10, 0, every, math.inf)

    @pytest.mark.parametrize("ph_shape, pt_shape", [
        ((9,), (9,)), ((0, 9), (0, 9)), ((1, 9), (1, 8)), ((1, 8), (1, 8))],
        ids=["one-state", "empty-batch", "mismatched", "wrong-modes"])
    def test_malformed_batch_rejected(self, ph_shape, pt_shape):
        # advance takes (B, N/2 + 1) batches, B >= 1, alone; at N = 16 that is (B, 9)
        ph, pt = np.zeros(ph_shape, complex), np.zeros(pt_shape, complex)
        with pytest.raises(ValueError, match=re.escape(
                f"advance takes (B, 9) batches with B >= 1, got {ph_shape} and {pt_shape}")):
            SplitStepper(L, 16, 1e-3).advance(ph, pt, 10, 0, 1, math.inf)

    @pytest.mark.parametrize("rows", [None, 3])
    def test_inputs_untouched_and_unshared(self, wave, rows):
        ph, pt = TestBufferedAdvance.states(wave, rows)
        before = ph.copy(), pt.copy()
        ph.setflags(write=False)  # a write into the inputs raises
        pt.setflags(write=False)
        stepper = SplitStepper(L, N, 1e-3)
        first = stepper.advance(ph, pt, 21, 0, 7, math.inf)
        second = stepper.advance(ph, pt, 21, 0, 7, math.inf)
        assert TestBufferedAdvance.same_bits((ph, pt), before)
        assert TestBufferedAdvance.same_bits(first, second)
        for a in (*first, *second):
            assert not np.shares_memory(a, ph) and not np.shares_memory(a, pt)

    # the kicks are inside the first interval, the first of the second,
    # the last of a chunk, the first of the next, inside later intervals
    # that straddle a chunk edge, and inside a short last interval of 22
    # steps that opens a chunk; the call runs kick // every + 2 intervals,
    # or nsteps steps where given
    @pytest.mark.parametrize("every, kick, nsteps", [
        (7, 3, None), (7, 7, None), (_CHECK_KICKS, _CHECK_KICKS - 1, None),
        (_CHECK_KICKS, _CHECK_KICKS, None), (_CHECK_KICKS + 1, 130, None), (80, 140, None),
        (1, 100, None), (3, 121, None), (_CHECK_KICKS, 140, 150),
    ])
    def test_trip_is_the_chained_calls_trip(self, wave, monkeypatch, every, kick, nsteps):
        # phi = 0 and phi_t = A cos(2 pi x / L): every row's sup grows for
        # the 150 kicks of dt = 5e-3, so a ceiling at the largest sup of
        # kick j - 1 of the reference loop trips at about kick j, in row 2.
        # The call starts after 135 steps, and interval i at step
        # 135 + i every, as run_experiment counts them (5 of these 9 trips
        # would name another last bit from 135 dt + i every dt).
        n, dt, start = 130, 5e-3, 135
        x = grid_points(L, n)
        pt = np.fft.rfft(1e-3 * np.array([1.0, 2.0, 3.0])[:, None] * np.cos(2.0 * math.pi * x / L))
        ph = np.zeros_like(pt)
        sups, irfft = [], np.fft.irfft

        def recording(a, n_):
            phi = irfft(a, n_)
            sups.append(np.max(np.abs(phi), axis=-1))
            return phi

        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "irfft", recording)
            reference_advance(SplitStepper(L, n, dt), ph, pt, 150, start * dt)
        sups = np.array(sups)  # (kick, row)
        assert np.all(np.diff(sups, axis=0) > 0.0)
        stepper, ceiling = SplitStepper(L, n, dt), float(sups[kick - 1].max())
        nsteps = nsteps or (kick // every + 2) * every
        with pytest.raises(BlowUpError) as info:
            stepper.advance(ph, pt, nsteps, start, every, ceiling=ceiling)
        with pytest.raises(BlowUpError) as chained:
            self.chained(stepper, ph, pt, nsteps, start, every, ceiling)
        assert info.value.member == chained.value.member == 2
        assert info.value.time == chained.value.time
        assert str(info.value) == str(chained.value)
        # the chained calls' half flows at each sample round other bits than
        # the reference's fused flows, so their sups may cross one kick early
        t0 = start * dt
        assert abs(info.value.time - (t0 + (kick + 0.5) * dt)) <= 1.01 * dt
        if nsteps % every:  # the trip is in the short last interval
            assert info.value.time > t0 + nsteps // every * every * dt


class TestSampleBlocks:
    """Trace rows evaluated in blocks are the rows evaluated one sample at a time, bit for bit."""

    @staticmethod
    def assert_matches_reference(outcomes, reference):
        assert len(outcomes) == len(reference)
        for got, want in zip(outcomes, reference):
            if isinstance(want, BlowUpError):
                assert isinstance(got, BlowUpError)
                assert (str(got), got.time) == (str(want), want.time)
            else:
                assert got.samples.tobytes() == want.tobytes()

    # 1 + intervals rows per member, in blocks of `block` rows per member
    # whatever B is: blocks of 16 end inside, at and just past the last
    # sample, and blocks of 1 and 3 put a boundary after every row or third
    @pytest.mark.parametrize("block", [1, 3, _SAMPLE_BLOCK_ROWS])
    @pytest.mark.parametrize("intervals", [1, 14, 15, 16, 17, 36, 37])
    @pytest.mark.parametrize("projected", [True, False])
    @pytest.mark.parametrize("B", [1, 3])
    def test_matches_per_sample_reference(self, wave, B, projected, intervals, block,
                                          monkeypatch):
        import snoidal.evolution as evolution

        monkeypatch.setattr(evolution, "_SAMPLE_BLOCK_ROWS", block)
        amplitudes = [1e-3, 4e-4, 0.0][:B]
        pairs = [perturbation_random(L, N, seed) for seed in (3, 4, 5)][:B]
        every, dt = 3, 1e-3
        T = intervals * every * dt
        outcomes = run_experiment(wave, list(zip(amplitudes, pairs)), T, dt, every, N=N,
                                  projected=projected)
        assert all(o.samples.shape[0] == intervals + 1 for o in outcomes)
        self.assert_matches_reference(
            outcomes, reference_run(wave, pairs, amplitudes, T, dt, every, N, projected))

    @pytest.mark.parametrize("projected", [True, False])
    def test_sample_every_past_the_horizon_gives_two_rows(self, wave, projected):
        # 50 steps with a sample every 80: the t = 0 row and the short
        # interval's row
        amplitudes = [1e-3, 4e-4, 0.0]
        pairs = [perturbation_random(L, N, seed) for seed in (3, 4, 5)]
        outcomes = run_experiment(wave, list(zip(amplitudes, pairs)), 0.05, 1e-3, 80, N=N,
                                  projected=projected)
        assert all(o.samples.shape[0] == 2 for o in outcomes)
        self.assert_matches_reference(
            outcomes, reference_run(wave, pairs, amplitudes, 0.05, 1e-3, 80, N, projected))

    def test_single_member_call_matches_reference(self, wave):
        pair = perturbation_random(L, N, 2)
        [trace] = run_experiment(wave, [(1e-3, pair)], 0.052, 1e-3, 3, N=N)
        self.assert_matches_reference([trace], reference_run(wave, [pair], [1e-3], 0.052,
                                                             1e-3, 3, N))

    @pytest.mark.parametrize("amplitudes,T,dt,every", [
        # eps = 100 trips at the first kick, with its t = 0 row still pending
        ([1e-3, 100.0, 4e-4], 0.05, 1e-3, 1),
        # the batch of test_blowup_is_per_member: eps = 60 trips at the first
        # kick and eps = 35 at t = 1.95, each with rows pending
        ([1e-3, 35.0, 60.0, 20.0], 3.0, 0.1, 2),
        # one step per row: eps = 35 trips in the second block of rows, at
        # 19 dt + dt / 2 = 1.9500000000000002, where 15 dt + 4 dt + dt / 2
        # is 1.95
        ([1e-3, 35.0, 60.0, 20.0], 3.0, 0.1, 1),
        # 20 steps of 7 (19) per row: eps = 35 trips at kick 19, in the
        # short last interval of 6 steps (1 step)
        ([1e-3, 35.0, 20.0], 2.0, 0.1, 7),
        ([1e-3, 35.0, 20.0], 2.0, 0.1, 19),
    ], ids=["eps100", "eps35_eps60", "eps35_second_block", "eps35_short_interval_of_6",
            "eps35_short_interval_of_1"])
    def test_blowup_while_rows_are_pending(self, wave, amplitudes, T, dt, every):
        pairs = [perturbation_random(L, N, 1)] * len(amplitudes)
        outcomes = run_experiment(wave, list(zip(amplitudes, pairs)), T, dt, every, N=N)
        reference = reference_run(wave, pairs, amplitudes, T, dt, every, N)
        assert any(isinstance(o, BlowUpError) for o in reference)
        assert any(not isinstance(o, BlowUpError) for o in reference)
        self.assert_matches_reference(outcomes, reference)

    def test_departed_member_rows_are_not_evaluated(self, monkeypatch):
        # eps = 100 trips at the first kick, and its pending t = 0 row leaves
        # with it: conserved sees only the survivor's 101 rows
        import snoidal.evolution as evolution

        rows = []
        real_conserved = evolution.conserved

        def counting_conserved(ph, pt, L_):
            rows.append(len(ph))
            return real_conserved(ph, pt, L_)

        monkeypatch.setattr(evolution, "conserved", counting_conserved)
        wave = solve_modulus(3.14159, 0.95)
        pair = perturbation_random(wave.L, 64, 1)
        blowup, trace = run_experiment(wave, [(100.0, pair), (1e-3, pair)], 1.0, 1e-3, 10, N=64)
        assert isinstance(blowup, BlowUpError) and blowup.time == 0.0005
        assert trace.samples.shape == (101, 6)
        assert sum(rows) == 101

    def test_501_samples_take_at_most_32_calls(self, wave, monkeypatch):
        import snoidal.evolution as evolution

        calls = {"conserved": 0, "distance": 0}
        real_conserved, real_distance = evolution.conserved, _OrbitDistance.__call__

        def counting_conserved(*args, **kwargs):
            calls["conserved"] += 1
            return real_conserved(*args, **kwargs)

        def counting_distance(self, *args, **kwargs):
            calls["distance"] += 1
            return real_distance(self, *args, **kwargs)

        monkeypatch.setattr(evolution, "conserved", counting_conserved)
        monkeypatch.setattr(_OrbitDistance, "__call__", counting_distance)
        p, q = perturbation_random(L, N, 1)
        [trace] = run_experiment(wave, [(1e-3, (p, q))], 0.5, 1e-3, 1, N=N)
        assert trace.samples.shape[0] == 501
        assert 0 < calls["conserved"] <= 32 and 0 < calls["distance"] <= 32

    @pytest.mark.parametrize("T, every, calls", [(0.5, 1, 32), (0.502, 3, 11)])
    def test_one_advance_call_per_block(self, wave, monkeypatch, T, every, calls):
        # 501 rows: 15 intervals after the t = 0 row, then 16 per block;
        # 169 rows, the last after a short interval of 1 step, take 11
        # calls, the short interval ending the last one's rows.  One member
        # and two alike pass advance a (B, N/2 + 1) batch on every call.
        real_advance = SplitStepper.advance

        def counting_advance(self, ph, pt, nsteps, start, every, ceiling):
            steps.append((nsteps, every))
            shapes.add((ph.shape, pt.shape))
            ceilings.add(ceiling)
            return real_advance(self, ph, pt, nsteps, start, every, ceiling)

        monkeypatch.setattr(SplitStepper, "advance", counting_advance)
        pair = perturbation_random(L, N, 1)
        for B in (1, 2):
            steps, shapes, ceilings = [], set(), set()
            traces = run_experiment(wave, [(1e-3, pair)] * B, T, 1e-3, every, N=N)
            assert shapes == {((B, N // 2 + 1),) * 2}
            # every call gets run_experiment's one ceiling, 10 max |h|
            assert ceilings == {_CEILING_FACTOR * float(np.max(np.abs(sample_wave(wave, N)[0])))}
            assert len(steps) == calls <= 33
            assert sum(n for n, _ in steps) == horizon_steps(T, 1e-3)
            assert all(trace.samples.shape[0] == 1 + sum(-(-n // k) for n, k in steps)
                       for trace in traces)


class TestStateInvariants:
    def test_trace_requires_increasing_time(self):
        from snoidal.evolution import EvolutionTrace

        rows = np.zeros((3, 6))
        rows[:, 0] = [0.0, 1.0, 1.0]
        with pytest.raises(ValueError):
            EvolutionTrace(rows)

    @pytest.mark.parametrize("shape", [(3, 5), (3, 7), (6,)])
    def test_trace_requires_six_columns(self, shape):
        from snoidal.evolution import EvolutionTrace

        with pytest.raises(ValueError, match="^trace rows must have 6 columns$"):
            EvolutionTrace(np.zeros(shape))
