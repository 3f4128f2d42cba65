"""Snoidal profile construction: dispersion relation, residuals, grid samples."""

import math
from dataclasses import replace

import numpy as np
import pytest

import snoidal.waves as waves
from snoidal.elliptic import complete_K
from snoidal.waves import (
    ModulusBoundaryError,
    OutOfRangeError,
    WaveParameters,
    admissible_omega_window,
    grid_points,
    ode_residual,
    profile_eval,
    sample_wave,
    solve_modulus,
    wavenumbers,
)

CANONICAL = (math.pi, 0.95)


def spectral_derivative(values, L):
    """Spectral first derivative of grid samples, Nyquist mode mapped to zero."""
    coeff = 1j * wavenumbers(L, values.size) * np.fft.rfft(values)
    coeff[-1] = 0.0
    return np.fft.irfft(coeff, values.size)


@pytest.fixture(scope="module")
def wave():
    return solve_modulus(*CANONICAL)


def speeds_for(L, fracs=(0.1, 0.3, 0.5, 0.7, 0.9)):
    """Admissible speeds hitting the given fractions of the omega window."""
    _, hi = admissible_omega_window(L)
    return [math.sqrt(1.0 - f * hi) for f in fracs]


class TestSolveModulus:
    def test_dispersion_residual(self, wave):
        big_k = complete_K(wave.k)
        res = abs(16.0 * big_k**2 * (1.0 + wave.k.value**2) * wave.omega
                  - wave.L**2) / wave.L**2
        assert res <= 1e-12

    def test_parameter_relations(self, wave):
        k = wave.k.value
        assert abs(wave.b**2 * wave.omega * (1.0 + k * k) - 1.0) <= 1e-10
        assert abs(wave.a**2 - 2.0 * wave.b**2 * k * k * wave.omega) <= 1e-10
        assert abs(wave.b * wave.L - 4.0 * complete_K(wave.k)) <= 1e-10 * wave.b * wave.L

    def test_out_of_window_rejected(self):
        # omega = 0.75 > pi^2/(4 pi^2) = 0.25
        with pytest.raises(OutOfRangeError):
            solve_modulus(math.pi, 0.5)

    def test_period_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            solve_modulus(7.0, 0.1)
        with pytest.raises(OutOfRangeError):
            solve_modulus(-1.0, 0.99)

    def test_boundary_modulus_refused(self):
        # omega at 2% of the window needs k within ~1e-6 of 1, beyond what a
        # double-precision modulus can represent at the 1e-12 residual level
        _, hi = admissible_omega_window(math.pi)
        with pytest.raises(ModulusBoundaryError):
            solve_modulus(math.pi, math.sqrt(1.0 - 0.02 * hi))

    def test_newton_step_leaving_the_bracket_refused(self, monkeypatch):
        # a NaN derivative sends the first Newton step out of (eps, 1 - eps);
        # the bisection before it never reads dK/dk
        monkeypatch.setattr(waves, "_dK_dk", lambda k: math.nan)
        with pytest.raises(ModulusBoundaryError,
                           match=r"^Newton polishing left the modulus bracket at k=nan$"):
            solve_modulus(math.pi, 0.95)

    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0, math.pi, 5.0, 6.2])
    def test_small_omega_rejection_is_one_interval(self, L):
        # the residual's rounding floor rises monotonically as omega falls,
        # so one edge splits refused from accepted speeds, whatever the last
        # bits of c; k depends on the fraction of the window alone, so the
        # edge (measured: 0.0289246) is the same at every L
        _, hi = admissible_omega_window(L)
        fractions = np.linspace(0.005, 0.06, 221)
        accepted = []
        for fraction in fractions:
            try:
                solve_modulus(L, math.sqrt(1.0 - fraction * hi))
            except ModulusBoundaryError:
                accepted.append(False)
            else:
                accepted.append(True)
        edge = accepted.index(True)
        assert accepted == [False] * edge + [True] * (len(fractions) - edge)
        assert 0.0285 < fractions[edge] <= 0.0295

    def test_speed_sign_irrelevant(self):
        plus = solve_modulus(math.pi, 0.95)
        minus = solve_modulus(math.pi, -0.95)
        assert plus.k.value == minus.k.value
        assert plus.a == minus.a

    def test_small_modulus_end_of_window(self):
        # omega -> window top forces k -> 0 (K -> pi/2)
        _, hi = admissible_omega_window(math.pi)
        w = solve_modulus(math.pi, math.sqrt(1.0 - 0.995 * hi))
        assert w.k.value < 0.1

    def test_k_strictly_decreasing_in_omega(self):
        _, hi = admissible_omega_window(math.pi)
        ks = [solve_modulus(math.pi, math.sqrt(1.0 - f * hi)).k.value
              for f in np.linspace(0.06, 0.95, 18)]
        assert all(a > b for a, b in zip(ks, ks[1:]))

    def test_tampered_parameters_rejected(self, wave):
        with pytest.raises(ValueError):
            replace(wave, a=wave.a * (1.0 + 1e-6))
        with pytest.raises(ValueError):
            replace(wave, omega=wave.omega * (1.0 + 1e-6))

    def test_period_speed_relation_checked_at_its_own_tolerance(self, wave):
        # L off by 1e-11 passes b L = 4 K(k) at 1e-10, but not the period-speed
        # relation at 1e-12
        with pytest.raises(ValueError, match="period-speed relation violated"):
            replace(wave, L=wave.L * (1.0 + 1e-11))


class TestProfile:
    def test_origin_values(self, wave):
        h, h1, h2 = profile_eval(wave, 0.0)
        assert h == 0.0
        assert abs(h1 - wave.a * wave.b) <= 1e-14
        assert abs(h2) <= 1e-14

    def test_quarter_period_peak(self, wave):
        h, _, _ = profile_eval(wave, wave.L / 4.0)
        assert abs(h - wave.a) <= 1e-12

    def test_periodicity_and_oddness(self, wave):
        for x in np.linspace(0.1, 2.0, 7):
            assert abs(profile_eval(wave, x + wave.L)[0] - profile_eval(wave, x)[0]) <= 1e-10
            assert abs(profile_eval(wave, -x)[0] + profile_eval(wave, x)[0]) <= 1e-13

    def test_derivative_against_central_difference(self, wave):
        x0, errs = 0.37, []
        for d in (1e-4, 5e-5):
            hp = profile_eval(wave, x0 + d)[0]
            hm = profile_eval(wave, x0 - d)[0]
            errs.append(abs(profile_eval(wave, x0)[1] - (hp - hm) / (2.0 * d)))
        assert errs[0] <= 1e-6
        assert errs[1] <= 0.3 * errs[0]  # O(d^2) decay

    def test_second_derivative_against_central_difference(self, wave):
        x0, d = 0.83, 1e-4
        hp = profile_eval(wave, x0 + d)[0]
        hm = profile_eval(wave, x0 - d)[0]
        h0, _, h2 = profile_eval(wave, x0)
        assert abs(h2 - (hp - 2.0 * h0 + hm) / (d * d)) <= 1e-5


class TestSampling:
    def test_zero_mean(self, wave):
        h, h1, _ = sample_wave(wave, 256)
        assert abs(np.mean(h)) <= 1e-13
        assert abs(np.mean(h1)) <= 1e-13

    def test_trapezoid_mean_equals_discrete_mean(self, wave):
        h, _, _ = sample_wave(wave, 64)
        # periodic trapezoid rule with uniform weights is the plain average
        assert float(np.mean(h)) == float(np.sum(h) / h.size)

    def test_spectral_derivative_matches_analytic(self, wave):
        h, h1, _ = sample_wave(wave, 256)
        assert np.max(np.abs(spectral_derivative(h, wave.L) - h1)) <= 1e-8

    def test_one_sn_call_on_the_grid(self, wave, monkeypatch):
        # one call on the quarter period x_j, j <= N // 4, bit for bit profile_eval there
        sizes = []
        real = waves.jacobi_sn_cn_dn

        def counting(u, k):
            sizes.append(np.size(u))
            return real(u, k)

        monkeypatch.setattr(waves, "jacobi_sn_cn_dn", counting)
        for N in (1024, 1026):
            sizes.clear()
            samples = sample_wave(wave, N)
            assert sizes == [N // 4 + 1]
            quarter = profile_eval(wave, grid_points(wave.L, N)[:N // 4 + 1])
            for f, q in zip(samples, quarter):
                assert f[:N // 4 + 1].tobytes() == q.tobytes()

    @pytest.mark.parametrize("N", [16, 18, 64, 66, 130, 1024, 2050, 8192])
    def test_symmetries_hold_bit_for_bit(self, wave, N):
        # the half-period shift f_{j + N/2} = -f_j and the reflection
        # f_{N/2 - j} = s f_j, for every index pair the reflection does not fix
        half = N // 2
        j = np.array([j for j in range(1, half) if 2 * j != half])
        for f, s in zip(sample_wave(wave, N), waves.REFLECTION_SIGNS):
            assert f[half:].tobytes() == (-f[:half]).tobytes()
            assert f[half - j].tobytes() == (s * f[j]).tobytes()
        h, h1, _ = sample_wave(wave, N)
        # h(L/2) = -h(0): the sign of zero is the shift's
        assert h[0] == 0.0 and not np.signbit(h[0])
        assert h[half] == 0.0 and np.signbit(h[half])
        if N % 4 == 0:  # h'(L/4) keeps cn(K)'s evaluated residue
            assert abs(h1[N // 4]) <= 1e-15 * np.max(np.abs(h1))

    def test_close_to_pointwise_across_the_window(self):
        # the filled samples against profile_eval at every grid point; the
        # largest measured deviation is 2.73e-14 of max |f| (h'' at L = pi,
        # fraction 0.03, N = 8192), where k is nearest 1
        for L in (0.5, 1.0, 2.0, math.pi, 5.0, 6.2):
            for c in speeds_for(L, (0.03, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)):
                w = solve_modulus(L, c)
                for N in (16, 18, 130, 1024, 8192):
                    exact = profile_eval(w, grid_points(w.L, N))
                    for f, g in zip(sample_wave(w, N), exact):
                        assert np.max(np.abs(f - g)) <= 1e-13 * np.max(np.abs(g))

    def test_odd_sample_count_rejected(self, wave):
        with pytest.raises(ValueError):
            sample_wave(wave, 255)
        with pytest.raises(ValueError):
            sample_wave(wave, 8)


class TestOdeResidual:
    @pytest.mark.parametrize("L", [1.0, 2.0, math.pi, 5.0, 6.0])
    def test_residual_across_window(self, L):
        for c in speeds_for(L):
            w = solve_modulus(L, c)
            assert ode_residual(w, sample_wave(w, 256)) <= 1e-10

    def test_large_grid(self):
        w = solve_modulus(1.0, 0.99)
        assert ode_residual(w, sample_wave(w, 512)) <= 1e-10

    def test_corrupted_amplitude_detected(self, wave, monkeypatch):
        exact = waves.profile_eval
        monkeypatch.setattr(waves, "profile_eval",
                            lambda p, x: tuple((1.0 + 1e-3) * v for v in exact(p, x)))
        assert ode_residual(wave, sample_wave(wave, 256)) > 1e-4


class TestGridPoints:
    def test_rejects_bad_grids(self):
        # N even and >= 16, L > 0: the rule every sampled array inherits
        for L, N in ((1.0, 15), (1.0, 8), (0.0, 16), (math.nan, 16)):
            with pytest.raises(ValueError):
                grid_points(L, N)
