"""Elliptic integrals/functions against independent quadrature, ODE and nome-series oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad, solve_ivp

from snoidal.elliptic import EllipticModulus, complete_E, complete_K, jacobi_sn_cn_dn

# Frozen oracle values: adaptive quadrature of the defining integrals
# (scipy.integrate.quad, epsabs=epsrel=1e-14).
K_INV_SQRT2 = 1.8540746773013719
K_HALF = 1.6857503548125961
E_HALF = 1.4674622093394272


def quad_K(k):
    return quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                0.0, math.pi / 2, epsabs=1e-14, epsrel=1e-14)[0]


def quad_E(k):
    return quad(lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                0.0, math.pi / 2, epsabs=1e-14, epsrel=1e-14)[0]


def jacobi_ode(k, u):
    """Integrate sn' = cn dn, cn' = -sn dn, dn' = -k^2 sn cn from (0, 1, 1)."""

    def rhs(_, y):
        s, c, d = y
        return [c * d, -s * d, -k * k * s * c]

    sol = solve_ivp(rhs, (0.0, u), [0.0, 1.0, 1.0], rtol=1e-12, atol=1e-14,
                    method="DOP853")
    return sol.y[:, -1]


def nome_series(u, k, terms=400):
    """(sn, cn, dn) from their Fourier series in the nome (DLMF 22.11.1-3).

    q = exp(-pi K' / K) with K' = K(k'), and zeta = pi u / (2 K):
    sn = 2 pi / (K k) sum_n q^(n + 1/2) sin((2n + 1) zeta) / (1 - q^(2n + 1)),
    cn the same with cos and 1 + q^(2n + 1), and
    dn = pi / (2 K) + 2 pi / K sum_{n >= 1} q^n cos(2n zeta) / (1 + q^(2n)).
    """
    big_k = complete_K(k)
    q = math.exp(-math.pi * complete_K(math.sqrt(1.0 - k * k)) / big_k)
    zeta = math.pi * np.asarray(u, float) / (2.0 * big_k)
    n = np.arange(terms)[:, None]
    odd = 2 * n + 1
    sn = 2.0 * math.pi / (big_k * k) * np.sum(q ** (n + 0.5) * np.sin(odd * zeta)
                                              / (1.0 - q**odd), axis=0)
    cn = 2.0 * math.pi / (big_k * k) * np.sum(q ** (n + 0.5) * np.cos(odd * zeta)
                                              / (1.0 + q**odd), axis=0)
    m = n[1:]
    dn = math.pi / (2.0 * big_k) + 2.0 * math.pi / big_k * np.sum(
        q**m * np.cos(2 * m * zeta) / (1.0 + q ** (2 * m)), axis=0)
    return sn, cn, dn


class TestModulus:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.5, 1e-13, 1.0 - 1e-13])
    def test_rejects_boundary(self, bad):
        with pytest.raises(ValueError):
            EllipticModulus(bad)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            EllipticModulus(float("nan"))


class TestCompleteIntegrals:
    def test_frozen_values(self):
        assert abs(complete_K(1.0 / math.sqrt(2.0)) - K_INV_SQRT2) <= 1e-12
        assert abs(complete_K(0.5) - K_HALF) <= 1e-12
        assert abs(complete_E(0.5) - E_HALF) <= 1e-12

    @pytest.mark.parametrize("k", [0.05, 0.2, 0.5, 0.8, 0.95, 0.999])
    def test_against_quadrature(self, k):
        assert abs(complete_K(k) - quad_K(k)) <= 2e-12
        assert abs(complete_E(k) - quad_E(k)) <= 2e-12

    def test_small_modulus_limits(self):
        # integrands tend to 1, so both integrals tend to pi/2
        assert abs(complete_K(1e-9) - math.pi / 2) <= 1e-12
        assert abs(complete_E(1e-9) - math.pi / 2) <= 1e-12

    def test_E_limit_at_one(self):
        # E -> integral of cos = 1
        assert abs(complete_E(1.0 - 1e-11) - 1.0) <= 1e-9

    def test_K_monotone_and_bounded_below(self):
        ks = np.linspace(0.01, 0.99, 50)
        vals = [complete_K(k) for k in ks]
        assert all(v > math.pi / 2 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("k", np.linspace(0.05, 0.95, 10))
    def test_bound_chain(self, k):
        big_k, big_e = complete_K(k), complete_E(k)
        assert (1.0 - k * k) * big_k < big_e < big_k

    @pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_legendre_relation(self, k):
        kp = math.sqrt(1.0 - k * k)
        lhs = (complete_E(k) * complete_K(kp) + complete_E(kp) * complete_K(k)
               - complete_K(k) * complete_K(kp))
        assert abs(lhs - math.pi / 2) <= 1e-12


class TestJacobiFunctions:
    def test_origin(self):
        for k in (0.1, 0.5, 0.9):
            assert jacobi_sn_cn_dn(0.0, k) == (0.0, 1.0, 1.0)

    def test_degenerate_modulus_is_trigonometric(self):
        for u in (-2.0, 0.3, 1.7):
            sn, cn, dn = jacobi_sn_cn_dn(u, 1e-9)
            assert abs(sn - math.sin(u)) <= 1e-12
            assert abs(cn - math.cos(u)) <= 1e-12
            assert abs(dn - 1.0) <= 1e-12

    def test_quarter_period(self):
        k = 0.5
        big_k = complete_K(k)
        sn, cn, dn = jacobi_sn_cn_dn(big_k, k)
        ref = jacobi_ode(k, big_k)
        assert abs(sn - 1.0) <= 1e-10 and abs(sn - ref[0]) <= 1e-9
        assert abs(cn) <= 1e-10 and abs(cn - ref[1]) <= 1e-9
        assert abs(dn - math.sqrt(0.75)) <= 1e-10

    @pytest.mark.parametrize("k", [0.2, 0.5, 0.8, 0.95])
    def test_against_ode_oracle(self, k):
        for u in np.linspace(0.05, 11.0, 12):
            triple = jacobi_sn_cn_dn(u, k)
            ref = jacobi_ode(k, u)
            assert np.max(np.abs(np.array(triple) - ref)) <= 1e-9

    @pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
    def test_against_nome_series(self, k):
        # an oracle independent of the AGM ladder, on four whole periods;
        # the largest difference was 3.4e-15 (at k = 0.99)
        big_k = complete_K(k)
        u = np.linspace(-4.0 * big_k, 4.0 * big_k, 1001)
        for got, want in zip(jacobi_sn_cn_dn(u, k), nome_series(u, k)):
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_identities_on_mesh(self):
        # 10^3-point (u, k) mesh
        for k in np.arange(0.1, 0.95, 0.1):
            for u in np.linspace(-20.0, 20.0, 112):
                sn, cn, dn = jacobi_sn_cn_dn(u, k)
                assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
                assert abs(dn * dn + k * k * sn * sn - 1.0) <= 1e-12

    @pytest.mark.parametrize("k", [0.1, 0.5, 0.9])
    def test_periodicity(self, k):
        big_k = complete_K(k)
        for u in np.linspace(-5.0, 5.0, 41):
            sn, _, _ = jacobi_sn_cn_dn(u, k)
            sn4, _, _ = jacobi_sn_cn_dn(u + 4.0 * big_k, k)
            assert abs(sn4 - sn) <= 1e-10

    @pytest.mark.parametrize("k", [0.1, 0.5, 0.9])
    def test_sn_odd_cn_even(self, k):
        for u in np.linspace(0.0, 8.0, 33):
            sn_p, cn_p, _ = jacobi_sn_cn_dn(u, k)
            sn_m, cn_m, _ = jacobi_sn_cn_dn(-u, k)
            assert abs(sn_m + sn_p) <= 1e-13
            assert abs(cn_m - cn_p) <= 1e-13

    def test_rejects_nonfinite_argument(self):
        with pytest.raises(ValueError):
            jacobi_sn_cn_dn(float("inf"), 0.5)
        with pytest.raises(ValueError):
            jacobi_sn_cn_dn(np.array([0.0, 1.0, float("nan")]), 0.5)


class TestArrayArgument:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(u=arrays(np.float64, st.integers(1, 40),
                    elements=st.floats(-1e3, 1e3, allow_nan=False)),
           k=st.floats(0.05, 0.99))
    def test_array_call_equals_elementwise_calls(self, u, k):
        triple = jacobi_sn_cn_dn(u, k)
        per_point = np.array([jacobi_sn_cn_dn(float(x), k) for x in u]).T
        for got, ref in zip(triple, per_point):
            assert got.shape == u.shape
            assert got.tobytes() == ref.tobytes()
        # Equal as values; sn(-0.0) may be +0.0 when the last AGM c_n rounds negative.
        assert np.array_equal(jacobi_sn_cn_dn(-u, k)[0], -triple[0])

    def test_shape_preserved(self):
        u = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert all(f.shape == (3, 4) for f in jacobi_sn_cn_dn(u, 0.7))
