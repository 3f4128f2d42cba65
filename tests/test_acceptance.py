"""Acceptance gate: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion both prints its measurement and asserts its stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from snoidal.elliptic import complete_E, complete_K, jacobi_sn_cn_dn
from snoidal.evolution import (
    SplitStepper,
    perturbation_random,
    run_experiment,
)
from snoidal.spectral import (
    D1_closed,
    D1_numeric,
    D_matrix,
    assemble_L1,
    assemble_Lblock,
    closed_form_eigenpairs,
    coercivity_constant,
    constrain_zero_mean,
    d_second_derivative,
    eigen_report,
    verify_index_counts,
)
from snoidal.waves import (
    admissible_omega_window,
    ode_residual,
    sample_wave,
    solve_modulus,
)

N_GRID = 256
# (L, c) set used by the spectral criteria; moduli span 0.14 .. 0.87.
SPECTRAL_PARAMS = [
    (math.pi, 0.95),
    (math.pi, 0.92),
    (math.pi, 0.90),
    (2.0, 0.96),
    (2.5, 0.93),
    (5.0, 0.80),
    (5.0, 0.62),
]


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def spectral_suite():
    """Assembled operators, reports, and index data for the parameter set."""
    out = []
    for L, c in SPECTRAL_PARAMS:
        wave = solve_modulus(L, c)
        m1 = assemble_L1(wave, N_GRID)
        mb = assemble_Lblock(wave, N_GRID)
        rb = eigen_report(mb)
        out.append({
            "wave": wave,
            "m1": m1,
            "mb": mb,
            "r1": eigen_report(m1),
            "rb": rb,
            "m1c": constrain_zero_mean(m1),
            "mbc": constrain_zero_mean(mb),
            "D": D_matrix(rb),
        })
    return out


def test_criterion_01_wave_construction():
    tic = time.perf_counter()
    worst_ode = worst_disp = 0.0
    for L in (1.0, 2.0, math.pi, 5.0, 6.0):
        _, hi = admissible_omega_window(L)
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            wave = solve_modulus(L, math.sqrt(1.0 - frac * hi))
            worst_ode = max(worst_ode, ode_residual(wave, sample_wave(wave, N_GRID)))
            big_k = complete_K(wave.k)
            disp = abs(16.0 * big_k**2 * (1.0 + wave.k.value**2) * wave.omega
                       - L * L) / (L * L)
            worst_disp = max(worst_disp, disp)
    elapsed = time.perf_counter() - tic
    ok = worst_ode <= 1e-10 and worst_disp <= 1e-12 and elapsed < 1.0
    report(1, "wave-construction", ok,
           f"ode residual {worst_ode:.2e}, dispersion {worst_disp:.2e}, {elapsed:.2f} s")


def test_criterion_02_elliptic_identities():
    worst_sncn = worst_dn = 0.0
    chain_ok = True
    for k in np.arange(0.1, 0.95, 0.1):          # 9 moduli x 112 points ~ 10^3 mesh
        for u in np.linspace(-20.0, 20.0, 112):
            sn, cn, dn = jacobi_sn_cn_dn(u, k)
            worst_sncn = max(worst_sncn, abs(sn * sn + cn * cn - 1.0))
            worst_dn = max(worst_dn, abs(dn * dn + k * k * sn * sn - 1.0))
        big_k, big_e = complete_K(k), complete_E(k)
        chain_ok &= (1.0 - k * k) * big_k < big_e < big_k
    worst_leg = 0.0
    for k in np.arange(0.1, 0.95, 0.1):
        kp = math.sqrt(1.0 - k * k)
        worst_leg = max(worst_leg, abs(
            complete_E(k) * complete_K(kp) + complete_E(kp) * complete_K(k)
            - complete_K(k) * complete_K(kp) - math.pi / 2.0))
    ok = worst_sncn <= 1e-12 and worst_dn <= 1e-12 and worst_leg <= 1e-12 and chain_ok
    report(2, "elliptic-identities", ok,
           f"sn2+cn2 {worst_sncn:.1e}, dn2+k2sn2 {worst_dn:.1e}, legendre {worst_leg:.1e}, "
           f"bound chain {'strict' if chain_ok else 'violated'}")


def test_criterion_03_L1_spectrum(spectral_suite):
    entry = spectral_suite[0]  # canonical L = pi, c = 0.95
    r1 = entry["r1"]
    pair0, _ = closed_form_eigenpairs(entry["wave"], N_GRID)
    gap = abs(float(r1.eigenvalues[0]) - pair0.lam)
    simple = float(r1.eigenvalues[1] - r1.eigenvalues[0]) > 1e-3
    ok = (r1.n, r1.z) == (1, 1) and simple and r1.kernel_residual <= 1e-8 and gap <= 1e-8
    report(3, "L1-spectrum", ok,
           f"n={r1.n} z={r1.z}, kernel residual {r1.kernel_residual:.1e}, "
           f"ground-state gap {gap:.1e}")


def test_criterion_04_Lblock_spectrum(spectral_suite):
    worst_res = 0.0
    counts_ok = True
    for entry in spectral_suite:
        rb = entry["rb"]
        counts_ok &= (rb.n, rb.z) == (1, 1)
        worst_res = max(worst_res, rb.kernel_residual)
    ok = counts_ok and worst_res <= 1e-8
    report(4, "pair-operator-spectrum", ok,
           f"(n,z)=(1,1) at {len(spectral_suite)} parameter sets, "
           f"worst kernel residual {worst_res:.1e}")


def test_criterion_05_D1_agreement(spectral_suite):
    worst_rel = 0.0
    all_negative = True
    for entry in spectral_suite:
        d_closed = D1_closed(entry["wave"])
        d_num = D1_numeric(entry["r1"])
        worst_rel = max(worst_rel, abs(d_num - d_closed) / abs(d_closed))
        all_negative &= d_closed < 0.0 and d_num < 0.0
    ok = worst_rel <= 1e-6 and all_negative
    report(5, "D1-agreement", ok,
           f"worst relative gap {worst_rel:.1e}, all negative: {all_negative}")


def test_criterion_06_D_matrix_structure(spectral_suite):
    worst_off = worst_lr = 0.0
    for entry in spectral_suite:
        D, L = entry["D"], entry["wave"].L
        worst_off = max(worst_off, max(abs(D[0, 1]), abs(D[1, 0])) / L)
        worst_lr = max(worst_lr, abs(D[1, 1] - L) / L)
    ok = worst_off <= 1e-8 and worst_lr <= 1e-8
    report(6, "constraint-matrix-structure", ok,
           f"off-diagonal/L {worst_off:.1e}, lower-right rel gap {worst_lr:.1e}")


def test_criterion_07_index_theorem(spectral_suite):
    ok = True
    for entry in spectral_suite:
        r1c = eigen_report(entry["m1c"])
        rbc = eigen_report(entry["mbc"])
        D1 = np.array([[D1_numeric(entry["r1"])]])
        ok &= verify_index_counts(entry["r1"], D1, r1c) == (0, 1)
        ok &= verify_index_counts(entry["rb"], entry["D"], rbc) == (0, 1)
        ok &= (r1c.n, r1c.z) == (0, 1) and (rbc.n, rbc.z) == (0, 1)
    report(7, "index-theorem-cross-check", ok,
           f"predicted = direct = (0,1) for both constrained operators at "
           f"{len(spectral_suite)} parameter sets")


def test_criterion_08_coercivity(spectral_suite):
    values = [coercivity_constant(eigen_report(entry["mbc"])) for entry in spectral_suite]
    ok = all(v >= 1e-3 for v in values)
    report(8, "coercivity-floor", ok,
           f"smallest nonkernel eigenvalue in [{min(values):.4f}, {max(values):.4f}]")


def test_criterion_09_action_concavity():
    _, hi = admissible_omega_window(math.pi)
    speeds = [math.sqrt(1.0 - f * hi) for f in np.linspace(0.06, 0.94, 20)]
    values = [d_second_derivative(math.pi, c, 1e-4) for c in speeds]
    all_negative = all(v < 0.0 for v in values)
    worst_var = 0.0
    for c in (speeds[0], speeds[9], speeds[-1]):
        a = d_second_derivative(math.pi, c, 1e-4)
        b = d_second_derivative(math.pi, c, 5e-5)
        worst_var = max(worst_var, abs(a - b) / abs(a))
    ok = all_negative and worst_var <= 5e-4
    report(9, "action-second-derivative", ok,
           f"negative at 20 speeds, step-halving variation {worst_var:.1e}")


def test_criterion_10_conservation():
    wave = solve_modulus(math.pi, 0.95)
    tic = time.perf_counter()
    [trace] = run_experiment(wave, [(0.0, None)], 100.0, 1e-3, 500, N=N_GRID)
    elapsed = time.perf_counter() - tic
    e = trace.column("E")
    f = trace.column("F")
    drift_e = float(np.max(np.abs(e - e[0])) / abs(e[0]))
    drift_f = float(np.max(np.abs(f - f[0])) / abs(f[0]))
    mean_sup = max(float(np.max(np.abs(trace.column("mean_phi")))),
                   float(np.max(np.abs(trace.column("mean_phidot")))))
    ok = drift_e <= 1e-6 and drift_f <= 1e-6 and mean_sup <= 1e-10 and elapsed < 120.0
    report(10, "conservation", ok,
           f"E drift {drift_e:.1e}, F drift {drift_f:.1e}, means {mean_sup:.1e}, "
           f"{elapsed:.0f} s")


def test_criterion_11_orbital_stability():
    wave = solve_modulus(math.pi, 0.95)
    perturbation = perturbation_random(wave.L, N_GRID, seed=2026)
    amplitudes = (1e-3, 5e-4)
    traces = run_experiment(wave, [(eps, perturbation) for eps in amplitudes], 100.0, 1e-3, 500,
                            N=N_GRID)
    ratios = [float(np.max(trace.column("orbit_distance"))) / eps
              for trace, eps in zip(traces, amplitudes)]
    bounded = ratios[0] <= 50.0
    linear = max(ratios) / min(ratios) < 2.0
    ok = bounded and linear
    report(11, "orbital-stability", ok,
           f"max distance / eps = {ratios[0]:.3f} (bound 50), "
           f"ratio change under eps halving {max(ratios) / min(ratios):.3f}x")


def test_criterion_12_integrator_order():
    wave = solve_modulus(math.pi, 0.95)
    h, h1, _ = sample_wave(wave, N_GRID)
    ph0 = np.fft.rfft([h])
    pt0 = np.fft.rfft([wave.c * h1])

    def final(dt):
        stepper = SplitStepper(wave.L, N_GRID, dt)
        nsteps = int(round(1.0 / dt))
        (ph,), (pt,) = stepper.advance(ph0, pt0, nsteps, 0, nsteps, math.inf)
        return np.fft.irfft(ph, N_GRID)

    ref = final(1e-3 / 16.0)
    errs = [float(np.max(np.abs(final(dt) - ref))) for dt in (4e-3, 2e-3, 1e-3)]
    orders = [math.log(a / b) / math.log(2.0) for a, b in zip(errs, errs[1:])]
    ok = all(1.9 <= o <= 2.1 for o in orders)
    report(12, "integrator-order", ok,
           "measured orders " + ", ".join(f"{o:.3f}" for o in orders))
