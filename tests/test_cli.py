"""CLI contract: exit codes, file outputs, determinism, sweep fan-out."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import snoidal.cli as cli
import snoidal.evolution as evolution
import snoidal.spectral as spectral

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestWaveCommand:
    def test_writes_profile_and_parameters(self, tmp_path):
        out = str(tmp_path / "wv")
        code = cli.main(["wave", "--L", "3.14159", "--c", "0.95", "--N", "256",
                         "--out", out])
        assert code == 0
        lines = (tmp_path / "wv.csv").read_text().splitlines()
        assert lines[0] == "x,h,h1,h2"
        assert len(lines) == 257
        meta = json.loads((tmp_path / "wv.json").read_text())
        assert meta["ode_residual"] <= 1e-10
        assert 0.0 < meta["k"] < 1.0
        assert meta["format"] == "csv"

    def test_modulus_boundary_maps_to_2(self, tmp_path, monkeypatch, capsys):
        import snoidal.waves as waves

        monkeypatch.setattr(waves, "_dK_dk", lambda k: math.nan)
        assert cli.main(["wave", "--L", "3.14159", "--c", "0.95", "--N", "64",
                         "--out", str(tmp_path / "w")]) == 2
        assert capsys.readouterr().err == (
            "invalid parameters: Newton polishing left the modulus bracket at k=nan\n")
        assert list(tmp_path.iterdir()) == []

    def test_samples_round_trip_bit_for_bit(self, tmp_path):
        from snoidal.waves import grid_points, sample_wave, solve_modulus

        wave = solve_modulus(3.14159, 0.95)
        h, h1, h2 = sample_wave(wave, 64)
        expected = np.column_stack([grid_points(wave.L, 64), h, h1, h2])
        assert cli.main(["wave", "--L", "3.14159", "--c", "0.95", "--N", "64",
                         "--out", str(tmp_path / "c")]) == 0
        lines = (tmp_path / "c.csv").read_text().splitlines()[1:]
        from_csv = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert from_csv.tobytes() == expected.tobytes()

    def test_one_sn_call(self, tmp_path, monkeypatch):
        # the rows and the ODE residual read one evaluation of the quarter period
        import snoidal.waves as waves

        sizes = []
        real = waves.jacobi_sn_cn_dn

        def counting(u, k):
            sizes.append(np.size(u))
            return real(u, k)

        monkeypatch.setattr(waves, "jacobi_sn_cn_dn", counting)
        assert cli.main(["wave", "--L", "3.14159", "--c", "0.95", "--N", "1024",
                         "--out", str(tmp_path / "wv")]) == 0
        assert sizes == [1024 // 4 + 1]
        assert len((tmp_path / "wv.csv").read_text().splitlines()) == 1025

    def test_inadmissible_speed_exits_2(self, tmp_path, capsys):
        code = cli.main(["wave", "--L", "3.14159", "--c", "0.5",
                         "--out", str(tmp_path / "bad")])
        assert code == 2
        err = capsys.readouterr().err
        assert "admissible window" in err  # message names the omega window

    def test_period_too_long_exits_2(self, tmp_path):
        assert cli.main(["wave", "--L", "7.0", "--c", "0.1",
                         "--out", str(tmp_path / "bad")]) == 2


class TestSpectrumCommand:
    def test_report_contents(self, tmp_path):
        out = str(tmp_path / "sp")
        code = cli.main(["spectrum", "--L", "3.14159", "--c", "0.95",
                         "--N", "128", "--out", out])
        assert code == 0
        rec = json.loads((tmp_path / "sp.json").read_text())
        assert rec["counts"]["Lblock"] == [1, 1]
        assert rec["counts"]["Lblock_constrained"] == [0, 1]
        assert rec["d2"] < 0.0
        assert abs(rec["D1_numeric"] - rec["D1_closed"]) <= 1e-6 * abs(rec["D1_closed"])

    def test_byte_stable(self, tmp_path):
        args = ["spectrum", "--L", "3.14159", "--c", "0.92", "--N", "96"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("L,c,N", [("2.777464166478283", "0.9947955763339402", "256"),
                                       ("2.903435269870336", "0.9874725020262703", "512")])
    def test_small_omega_corner_fails_cleanly_or_passes(self, tmp_path, monkeypatch, L, c, N):
        # two small-omega benchmark inputs: exit 3 with no report written, or
        # a report that passes the benchmark's own output check
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from run import check_spectrum

        out = tmp_path / "sp"
        code = cli.main(["spectrum", "--L", L, "--c", c, "--N", N, "--out", str(out)])
        if code == 3:
            assert list(tmp_path.iterdir()) == []
        else:
            assert code == 0
            check_spectrum(out)

    def test_reports_at_both_nyquist_parities(self, tmp_path):
        # N = 512 = 0 (mod 4) has an even Nyquist wavenumber N/2; at N = 130
        # it is odd, and its cosine sits in a T-odd sector
        recs = {}
        for n in (512, 130):
            assert cli.main(["spectrum", *WAVE, "--N", str(n), "--out", str(tmp_path / "s")]) == 0
            text = (tmp_path / "s.json").read_text()
            rec = recs[n] = json.loads(text)
            assert text == json.dumps(rec, sort_keys=True, indent=2) + "\n"
            counts = rec["counts"]
            assert counts["L1"] == counts["Lblock"] == [1, 1]
            assert counts["L1_constrained"] == counts["Lblock_constrained"] == [0, 1]
            assert rec["n0"] == 1
            sizes = {kind: len(values) for kind, values in rec["eigenvalues"].items()}
            assert sizes == {"L1": n, "Lblock": 2 * n, "L1_constrained": n - 1,
                             "Lblock_constrained": 2 * n - 2}
            assert rec["residuals"]["D1_relative_gap"] <= 1e-13
            # psi's constant is an exact eigenvector of Lblock, its own 1 x 1
            # block [[1.0]], so D is diagonal and D[1][1] is the grid inner
            # product (L/N) (sqrt(N))^2
            assert 1.0 in rec["eigenvalues"]["Lblock"]
            D, L_ = rec["Dmatrix"], rec["parameters"]["L"]
            assert D[0][1] == D[1][0] == 0.0
            assert abs(D[1][1] - L_) <= 1e-15 * L_
        # d2 is d''(c) in closed form, so it does not depend on the grid
        assert recs[512]["d2"] == recs[130]["d2"] < 0.0

    def test_failed_eigensolve_maps_to_3(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, which would otherwise read as exit 2
        def unconverged(*a, **k):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", unconverged)
        assert cli.main(["spectrum", *WAVE, "--N", "64", "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "internal consistency violation: eigensolve failed for kind L1: "
            "Eigenvalues did not converge"]
        assert list(tmp_path.iterdir()) == []

    def test_grid_floor_is_the_spectral_layers(self, tmp_path, monkeypatch, capsys):
        # the CLI's spectrum floor, full_report's and D1_numeric's are one constant
        monkeypatch.setattr(spectral, "MIN_SPECTRUM_N", 96)
        assert cli.main(["spectrum", *WAVE, "--N", "64", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "invalid parameters: --N must be even and at least 96, got 64\n")
        with pytest.raises(ValueError, match="^full_report needs an even N of at least 96"):
            spectral.full_report(3.14159, 0.95, 64)
        wave = spectral.solve_modulus(3.14159, 0.95)
        with pytest.raises(ValueError, match="^D1_numeric needs an even N of at least 96"):
            spectral.D1_numeric(spectral.eigen_report(spectral.assemble_L1(wave, 64)))
        assert list(tmp_path.iterdir()) == []

    def test_index_mismatch_maps_to_3(self, tmp_path, monkeypatch):
        from snoidal.spectral import IndexMismatchError

        def boom(*a, **k):
            raise IndexMismatchError("synthetic")

        monkeypatch.setattr(spectral, "full_report", boom)
        assert cli.main(["spectrum", "--L", "3.14159", "--c", "0.95",
                         "--out", str(tmp_path / "x")]) == 3

    def test_singular_solve_maps_to_3(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, which would otherwise read as exit 2
        def singular(*a, **k):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        assert cli.main(["spectrum", "--L", "3.14159", "--c", "0.95", "--N", "64",
                         "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "internal consistency violation: solve failed for kind Lblock: Singular matrix"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("L,fraction,N,message", [
        (3.14159, 0.05, 128, "expected a one-dimensional discrete kernel for kind Lblock, "
                             "classified 2 eigenvalues within 1.639e-08 of zero"),
        (3.14159, 0.05, 512, "expected a one-dimensional discrete kernel for kind Lblock, "
                             "classified 2 eigenvalues within 2.621e-07 of zero"),
        (1.0, 0.999, 128, "retained spectrum of kind Lblock nearly singular: "
                          "min |eigenvalue| 5.065e-05 at tau_zero 1.617e-07"),
        (2.0, 0.9999, 128, "retained spectrum of kind Lblock nearly singular: "
                           "min |eigenvalue| 2.026e-05 at tau_zero 4.042e-08"),
        (0.5, 0.5, 512, "retained spectrum of kind Lblock nearly singular: "
                        "min |eigenvalue| 2.815e-03 at tau_zero 1.035e-05"),
    ])
    def test_kernel_guards_at_real_inputs(self, tmp_path, capsys, L, fraction, N, message):
        # the known exit-3 corners of the constraint solve's kernel guards,
        # reached by the pipeline's own reports: at small omega Lblock's
        # negative eigenvalue falls within tau_zero (z = 2), and near either
        # end of the window the retained spectrum comes within 1e3 tau_zero
        c = math.sqrt(1.0 - fraction * L * L / (4.0 * math.pi**2))
        assert cli.main(["spectrum", "--L", repr(L), "--c", repr(c), "--N", str(N),
                         "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"internal consistency violation: {message}"]
        assert list(tmp_path.iterdir()) == []


# (L, c, eps) of the stability-ratio checks; at L = 3 and 5,
# c = sqrt(1 - fraction L^2 / 4 pi^2) at fractions 0.3 and 0.8
RATIO_POINTS = [
    (3.14159, 0.95, "1e-3"),
    (3.0, math.sqrt(1.0 - 0.3 * 9.0 / (4.0 * math.pi**2)), "1e-3"),
    (5.0, math.sqrt(1.0 - 0.8 * 25.0 / (4.0 * math.pi**2)), "1e-2"),
]


class TestEvolveCommands:
    def test_trace_and_metadata(self, tmp_path):
        out = str(tmp_path / "ev")
        code = cli.main(["evolve", "--L", "3.14159", "--c", "0.95", "--N", "64",
                         "--T", "1.0", "--dt", "1e-3", "--eps", "1e-3",
                         "--seed", "7", "--out", out])
        assert code == 0
        lines = (tmp_path / "ev.csv").read_text().splitlines()
        assert lines[0] == "t,E,F,mean_phi,mean_phidot,orbit_distance"
        meta = json.loads((tmp_path / "ev.json").read_text())
        for key in ("L", "c", "k", "N", "dt", "T", "eps", "seed", "projected"):
            assert key in meta
        assert meta["projected"] is True
        assert meta["format"] == "csv"

    def test_same_seed_identical_bytes(self, tmp_path):
        args = ["evolve", "--L", "3.14159", "--c", "0.95", "--N", "64",
                "--T", "0.5", "--dt", "1e-3", "--eps", "1e-3", "--seed", "3"]
        assert cli.main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "r2")]) == 0
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    # 1100 steps sampled every 2; 1003 steps every 2, the last row after a
    # 1-step tail; 999 steps every step, the longest trace (1000 rows)
    @pytest.mark.parametrize("T, rows", [("1.1", 551), ("1.003", 503), ("0.999", 1000)])
    @pytest.mark.parametrize("command", ["evolve", "stability"])
    def test_csv_is_the_trace_row_by_row(self, command, T, rows, tmp_path):
        # the trace leaves through `_table_blocks` in the bytes of a
        # row-by-row writer of its samples
        argv = [command, *WAVE, "--N", "64", "--T", T, "--dt", "1e-3",
                "--eps", "1e-3", "--seed", "5", "--out", str(tmp_path / "ev")]
        assert cli.main(argv) == 0
        _, _, trace = cli._evolve_batch([cli.build_parser().parse_args(argv)])[0]
        assert trace.samples.shape == (rows, 6)
        assert trace.samples[-1, 0] == evolution.horizon_steps(float(T), 1e-3) * 1e-3
        expected = reference_csv(evolution.TRACE_COLUMNS, trace.samples)
        assert (tmp_path / "ev.csv").read_bytes() == expected

    def test_stability_ratio_written(self, tmp_path):
        out = str(tmp_path / "st")
        code = cli.main(["stability", "--L", "3.14159", "--c", "0.95", "--N", "64",
                         "--T", "1.0", "--dt", "1e-3", "--eps", "1e-3",
                         "--seed", "7", "--out", out])
        assert code == 0
        meta = json.loads((tmp_path / "st.json").read_text())
        assert meta["stability_ratio"] == meta["max_orbit_distance"] / meta["eps"]
        assert meta["stability_ratio"] < 50.0

    @pytest.mark.parametrize("L, c, eps", RATIO_POINTS)
    def test_stability_ratio_converges_under_grid_refinement(self, L, c, eps, tmp_path):
        # every grid with N >= 256 draws the same perturbation of a seed, so
        # the ratio at N = 512 repeats N = 256's up to roundoff
        ratios = []
        for n in ("256", "512"):
            assert cli.main(["stability", "--L", repr(L), "--c", repr(c), "--N", n, "--T", "2",
                             "--dt", "1e-3", "--eps", eps, "--seed", "1",
                             "--out", str(tmp_path / n)]) == 0
            ratios.append(json.loads((tmp_path / f"{n}.json").read_text())["stability_ratio"])
        assert abs(ratios[1] - ratios[0]) <= 1e-10

    # T = 5: at T <= 2 the (3, 0.3) ratio is its t = 0 value at every dt,
    # and the quotient is 0/0
    @pytest.mark.parametrize("L, c, eps", RATIO_POINTS)
    def test_stability_ratio_is_second_order_in_dt(self, L, c, eps, tmp_path):
        # Strang splitting: each halving of dt shrinks the ratio's change 4x
        ratios = []
        for dt in ("2e-3", "1e-3", "5e-4"):
            assert cli.main(["stability", "--L", repr(L), "--c", repr(c), "--N", "256",
                             "--T", "5", "--dt", dt, "--eps", eps, "--seed", "1",
                             "--out", str(tmp_path / dt)]) == 0
            ratios.append(json.loads((tmp_path / f"{dt}.json").read_text())["stability_ratio"])
        assert 3.6 <= (ratios[0] - ratios[1]) / (ratios[1] - ratios[2]) <= 4.4

    def test_stability_ratio_must_be_finite(self, tmp_path, capsys):
        # max distance 2.6e-7 / 1e-320 overflows, and JSON has no Infinity
        code = cli.main(["stability", *WAVE, "--N", "64", "--T", "1", "--dt", "1e-3",
                         "--eps", "1e-320", "--seed", "1", "--out", str(tmp_path / "s")])
        assert code == 2
        assert list(tmp_path.iterdir()) == []
        assert "--eps" in capsys.readouterr().err

    def test_stability_needs_positive_eps(self, tmp_path):
        assert cli.main(["stability", "--L", "3.14159", "--c", "0.95",
                         "--N", "64", "--T", "0.1",
                         "--out", str(tmp_path / "s0")]) == 2

    @pytest.mark.parametrize("eps", ["50", "1e200"])
    def test_blowup_exits_4_with_time_on_stderr(self, tmp_path, capsys, eps):
        # eps far outside the basin trips the sup-norm ceiling immediately;
        # at 1e200 phi^4 of the t = 0 state overflows, but that row leaves
        # with the member unevaluated, so the blow-up line is all of stderr
        code = cli.main(["evolve", "--L", "3.14159", "--c", "0.95", "--N", "64",
                         "--T", "1.0", "--dt", "1e-3", "--eps", eps, "--seed", "1",
                         "--out", str(tmp_path / "bl")])
        assert code == 4
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("blow-up at t = ")

    # eps = 100 leaves the sup-norm ceiling at the first kick; at 1e200 phi^2
    # overflows to inf, and at 1e308 the t = 0 state itself overflows, so
    # the first kick's phi is nan
    @pytest.mark.parametrize("eps, sup", [("100", "24.0178"), ("1e200", "inf"),
                                          ("1e308", "nan")])
    def test_blowup_line_names_the_kick_and_the_ceiling(self, tmp_path, capsys, eps, sup):
        code = cli.main(["stability", *WAVE, "--N", "128", "--T", "1", "--dt", "1e-3",
                         "--eps", eps, "--seed", "1", "--out", str(tmp_path / "blow")])
        assert code == 4
        assert capsys.readouterr().err == (
            f"blow-up at t = 0.0005: ||phi||_inf = {sup} exceeded ceiling 8.75982 "
            "at t = 0.0005\n")
        assert list(tmp_path.iterdir()) == []

    def test_odd_nyquist_grid_conserves_E_and_F(self, tmp_path):
        # N = 130: N/2 = 65 is odd, and the Strang step's transforms are
        # numpy's pocketfft ufuncs
        assert cli.main(["stability", *WAVE, "--N", "130", "--T", "0.2", "--dt", "1e-3",
                         "--eps", "1e-3", "--seed", "1", "--out", str(tmp_path / "st")]) == 0
        trace = np.loadtxt(tmp_path / "st.csv", delimiter=",", skiprows=1)
        assert trace.shape == (201, 6)
        for col in (1, 2):  # E, F
            drift = np.max(np.abs(trace[:, col] - trace[0, col])) / abs(trace[0, col])
            assert drift <= 1e-6, col

    def test_unprojected_flag(self, tmp_path):
        out = str(tmp_path / "up")
        code = cli.main(["evolve", "--L", "3.14159", "--c", "0.95", "--N", "64",
                         "--T", "0.1", "--dt", "1e-3", "--unprojected",
                         "--out", out])
        assert code == 0
        assert json.loads((tmp_path / "up.json").read_text())["projected"] is False


class TestSweepCommand:
    def test_fan_out(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# three speeds at one period\n"
            "command = spectrum\n"
            "L = 3.14159\n"
            "c = 0.90,0.92,0.95\n"
            "N = 96\n"
        )
        code = cli.main(["sweep", str(cfg), "--out", str(tmp_path / "sw")])
        assert code == 0
        recs = [json.loads((tmp_path / f"sw_{i:04d}.json").read_text())
                for i in range(3)]
        assert [r["parameters"]["c"] for r in recs] == [0.9, 0.92, 0.95]
        signatures = {json.dumps(r["counts"], sort_keys=True) for r in recs}
        assert len(signatures) == 1

    def test_one_worker_loads_no_pool(self, tmp_path):
        # every command, sweep included, runs in the calling process and
        # imports no process pool
        (tmp_path / "s.cfg").write_text("command = stability\nL = 3.14159\nc = 0.95\nN = 16\n"
                                        "T = 0.05\ndt = 1e-3\neps = 1e-3,5e-4\nseed = 1\n")
        wave = "'--L', '3.14159', '--c', '0.95'"
        code = (
            "import sys; import snoidal.cli as cli; "
            f"assert cli.main(['wave', {wave}, '--N', '64', '--out', 'w']) == 0; "
            f"assert cli.main(['spectrum', {wave}, '--N', '64', '--out', 'sp']) == 0; "
            f"assert cli.main(['stability', {wave}, '--N', '16', '--T', '0.05', "
            "'--eps', '1e-3', '--seed', '1', '--out', 'st']) == 0; "
            "assert cli.main(['sweep', 's.cfg', '--out', 'sw', '--workers', '1']) == 0; "
            "loaded = {'concurrent.futures', 'multiprocessing'} & set(sys.modules); "
            "assert not loaded, loaded"
        )
        src = str(Path(cli.__file__).resolve().parent.parent)
        subprocess.run([sys.executable, "-c", code], check=True, cwd=tmp_path,
                       env={**os.environ, "PYTHONPATH": src})

    @pytest.mark.parametrize("argv, unloaded", [
        ("['wave', {wave}, '--N', '64', '--out', 'w']", ["spectral", "evolution"]),
        ("['spectrum', {wave}, '--N', '64', '--out', 'sp']", ["evolution"]),
        ("['stability', {wave}, '--N', '16', '--T', '0.05', '--eps', '1e-3', '--seed', '1', "
         "'--out', 'st']", ["spectral"]),
        ("['sweep', 's.cfg', '--out', 'sw', '--workers', '1']", ["spectral"]),
    ], ids=["wave", "spectrum", "stability", "sweep"])
    def test_command_loads_only_its_layers(self, argv, unloaded, tmp_path):
        # cli imports errors and waves at the top, spectral only in spectrum
        # and evolution only in evolve/stability
        (tmp_path / "s.cfg").write_text("command = stability\nL = 3.14159\nc = 0.95\nN = 16\n"
                                        "T = 0.05\ndt = 1e-3\neps = 1e-3,5e-4\nseed = 1\n")
        argv = argv.format(wave="'--L', '3.14159', '--c', '0.95'")
        modules = {f"snoidal.{name}" for name in unloaded}
        code = (
            "import sys; import snoidal.cli as cli; "
            f"assert cli.main({argv}) == 0; "
            f"loaded = {modules!r} & set(sys.modules); "
            "assert not loaded, loaded"
        )
        src = str(Path(cli.__file__).resolve().parent.parent)
        subprocess.run([sys.executable, "-c", code], check=True, cwd=tmp_path,
                       env={**os.environ, "PYTHONPATH": src})

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("L = 1.0\n")  # no command
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("text, message", [
        ("command = wave\nL 3.14159\n", "{cfg}:2: expected 'key = value', got 'L 3.14159\\n'"),
        ("command = sweep\nL = 3.14159\n", "{cfg}: cannot sweep command 'sweep'"),
    ], ids=["no-equals-sign", "sweep-of-sweeps"])
    def test_malformed_config_exits_2_before_any_job(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"invalid parameters: {message.format(cfg=cfg)}\n"
        assert list(tmp_path.glob("x*")) == []

    def test_default_out_prefix_names_the_command(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["wave", "--L", "3.14159", "--c", "0.95", "--N", "64"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snoidal_wave.csv",
                                                              "snoidal_wave.json"]

    def test_failing_job_propagates_worst_code(self, tmp_path, capsys):
        cfg = tmp_path / "mix.cfg"
        cfg.write_text("command = wave\nL = 3.14159\nc = 0.95,0.5\n")
        code = cli.main(["sweep", str(cfg), "--out", str(tmp_path / "mx")])
        assert code == 2
        assert "failed with exit 2" in capsys.readouterr().err


class TestFormatting:
    def test_shortest_roundtrip(self):
        for x in (0.1, 1.0 / 3.0, 2.202412709683325, 1e-300):
            assert float(cli._fmt(x)) == x
        assert cli._fmt(0.1) == "0.1"


# JSON trees with the values the indenting encoder and the C encoder could
# spell differently: non-finite, signed-zero and subnormal floats, bools (an
# int subclass), and strings holding brackets, quotes, escapes and non-ASCII;
# tuples and int keys, which json encodes as lists and strings, ride along.
_TEXT = st.text(alphabet=st.sampled_from('[]{}",:\\ \n\tab\u00e9\u2603\U0001d54a'), max_size=6)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310]),
    _TEXT, st.text(max_size=4),
)
# Lists of flat dicts, which `_json_text` encodes item by item, mostly with
# plain keys like a table's column names.
_FLAT_DICTS = st.dictionaries(st.one_of(st.text(alphabet="xh12", max_size=3), _TEXT), _SCALARS,
                              max_size=4)
_TREES = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=5),
                           st.lists(kids, max_size=5).map(tuple),  # encoded as lists
                           st.dictionaries(_TEXT, kids, max_size=5),
                           st.dictionaries(st.integers(), kids, max_size=3),
                           st.lists(_FLAT_DICTS, max_size=5)),
    max_leaves=24,
)


class TestJsonWriter:
    """`_write_json` writes the bytes of json.dump(sort_keys=True, indent=2) plus a newline."""

    @staticmethod
    def expected(obj) -> bytes:
        return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()

    @pytest.mark.parametrize("argv", [
        ["spectrum", *"--L 3.14159 --c 0.95 --N 64".split()],
        ["spectrum", *"--L 3.14159 --c 0.95 --N 130".split()],
        ["wave", *"--L 3.14159 --c 0.95 --N 64".split()],
        ["stability", *"--L 3.14159 --c 0.95 --N 16 --T 0.01 --eps 1e-3 --seed 1".split()],
    ], ids=["spectrum64", "spectrum130", "wave", "stability"])
    def test_command_outputs(self, argv, tmp_path, monkeypatch):
        written = []
        real = cli._write_json

        def recording(path, obj):
            written.append((path, obj))
            real(path, obj)

        monkeypatch.setattr(cli, "_write_json", recording)
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 0
        assert written
        for path, obj in written:
            assert Path(path).read_bytes() == self.expected(obj), path
        if argv[0] == "wave":  # the metadata; the samples go to the CSV
            assert [Path(path).name for path, _ in written] == ["o.json"]

    @pytest.mark.parametrize("obj", [
        [{"x": np.float64(0.1), "h": -2.5e-310}, {"x": 1, "h": None}],
        [{"a": 1}, {}],
        [{}, {"a": 1}],
        [{"a": "{}"}, {"b": "},\n      {"}],
        [{"a": "}"}, {"b": "{"}],
        [{"a": [1, 2]}, {"b": 2}],
        [{"a": (1,)}],
        [{"a": {"b": 1}}],
        [{"a": 1}, [2]],
        [{"b": 1, "a": 2}, 3],
        [{"a": 1}, "{"],
        {"a": (1, 2), "b": 1},
        [{2: "x", 1: "y"}, {"z": math.nan}],
        {"rows": [{"x": 1.5, "h": -0.0}], "n": 1},
        {"b": 1, "a": "[", "c": True},
    ])
    def test_lists_and_dicts_of_scalars(self, obj, tmp_path):
        path = tmp_path / "flat.json"
        cli._write_json(str(path), obj)
        assert path.read_bytes() == self.expected(obj)

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(obj=_TREES)
    def test_json_trees(self, obj, tmp_path):
        path = tmp_path / "tree.json"
        cli._write_json(str(path), obj)
        assert path.read_bytes() == self.expected(obj)


def reference_csv(header, rows) -> bytes:
    """The bytes of a row-by-row CSV writer: the header, then `repr` of each value."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows.tolist()]
    return "".join(line + "\n" for line in lines).encode()


def _table(nrows, ncols, seed=0):
    """Values of many magnitudes and both signs, so that the reprs differ in length."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((nrows, ncols)) * 10.0 ** rng.integers(-20, 21, (nrows, ncols))


_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-4, 2.0**53, math.nan, math.inf, -math.inf]


class TestCsvWriter:
    """`_write_csv` writes in blocks the bytes of a row-by-row writer."""

    @staticmethod
    def written(table, tmp_path):
        header = tuple(f"c{j}" for j in range(table.shape[1]))
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), header, cli._table_blocks(table))
        return path.read_bytes(), reference_csv(header, table)

    @pytest.mark.parametrize("ncols", [1, 4, 6])
    # 2: the shortest trace; 503 and 551: T = 1.003 and 1.1; 1000: the longest trace
    @pytest.mark.parametrize("nrows", [0, 1, 2, 503, 551, 999, 1000])
    def test_row_counts(self, nrows, ncols, tmp_path):
        got, expected = self.written(_table(nrows, ncols, seed=nrows + ncols), tmp_path)
        assert got == expected
        assert got.count(b"\n") == nrows + 1

    def test_special_values(self, tmp_path):
        values = np.array(_SPECIAL * 6).reshape(-1, 6)  # each value in every column
        got, expected = self.written(values, tmp_path)
        assert got == expected
        assert got.splitlines()[1] == b"-0.0,0.0,5e-324,-5e-324,1e+16,1e-05"
        assert got.splitlines()[2] == b"0.0001,9007199254740992.0,nan,inf,-inf,-0.0"

    def test_column_views(self, tmp_path):
        # trace samples and stacked columns need not be C-contiguous
        table = _table(1030, 8)[:, ::2]
        got, expected = self.written(table, tmp_path)
        assert got == expected

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=hnp.arrays(np.float64, st.tuples(st.integers(0, 9), st.integers(1, 6)),
                            elements=st.one_of(st.floats(), st.sampled_from(_SPECIAL))))
    def test_float64_tables(self, table, tmp_path):
        got, expected = self.written(table, tmp_path)
        assert got == expected

    @pytest.mark.parametrize("nrows", [0, 1, 2, 1000])
    def test_one_write_per_block(self, nrows, tmp_path, monkeypatch):
        writes = []

        class Counting:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, text):
                writes.append(len(text))
                return self.fh.write(text)

        monkeypatch.setattr(cli, "open", lambda *a, **k: Counting(open(*a, **k)), raising=False)
        got, expected = self.written(_table(nrows, 4), tmp_path)
        assert got == expected
        assert len(writes) == (2 if nrows else 1)  # the header, then the table's one block

    @pytest.mark.parametrize("block", [1, 3, 256])
    @pytest.mark.parametrize("N", [16, 18, 64, 66, 130, 1000, 2050, 8192])
    def test_wave_from_its_quarter_period(self, N, block, tmp_path, monkeypatch):
        # the quarter's strings, reversed and negated as text, give the bytes
        # of the array writer on the stacked samples; small blocks put a
        # boundary on every row
        from snoidal.waves import grid_points, sample_wave, solve_modulus

        monkeypatch.setattr(cli, "_WAVE_BLOCK_ROWS", block)
        wave = solve_modulus(3.14159, 0.95)
        rows = np.column_stack([grid_points(wave.L, N), *sample_wave(wave, N)])
        cli._write_csv(str(tmp_path / "a.csv"), ("x", "h", "h1", "h2"), cli._table_blocks(rows))
        assert cli.main(["wave", "--L", "3.14159", "--c", "0.95", "--N", str(N),
                         "--out", str(tmp_path / "w")]) == 0
        got = (tmp_path / "w.csv").read_bytes()
        assert got == (tmp_path / "a.csv").read_bytes()
        # x = L/2 carries h = -h(0) = -0.0, and x = 0 carries h = 0.0
        lines = got.decode().splitlines()
        assert lines[1].split(",")[:2] == ["0.0", "0.0"]
        assert lines[N // 2 + 1].split(",")[1] == "-0.0"

    @pytest.mark.parametrize("N", [16, 66, 8192])
    def test_wave_formats_each_quarter_cell_once(self, N, tmp_path, monkeypatch):
        # every x cell, and each (h, h1, h2) cell of the quarter period once
        calls = 0

        def counting_repr(value):
            nonlocal calls
            calls += 1
            return repr(value)

        monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
        assert cli.main(["wave", *WAVE, "--N", str(N), "--out", str(tmp_path / "w")]) == 0
        assert calls == N + 3 * (N // 4 + 1)

    def test_wave_across_blocks(self, tmp_path):
        # N = 2050 is eight full blocks and 2 rows
        from snoidal.waves import grid_points, sample_wave, solve_modulus

        wave = solve_modulus(3.14159, 0.95)
        rows = np.column_stack([grid_points(wave.L, 2050), *sample_wave(wave, 2050)])
        assert cli.main(["wave", "--L", "3.14159", "--c", "0.95", "--N", "2050",
                         "--out", str(tmp_path / "w")]) == 0
        assert (tmp_path / "w.csv").read_bytes() == reference_csv(("x", "h", "h1", "h2"), rows)


WAVE = ["--L", "3.14159", "--c", "0.95"]


class TestInputValidation:
    """Invalid flags exit 2 before any compute runs or any file is written."""

    @pytest.mark.parametrize("argv", [
        ["stability", *WAVE, "--N", "64", "--T", "0.1", "--eps", "0"],
        ["evolve", *WAVE, "--N", "64", "--T", "-5"],
        ["evolve", *WAVE, "--N", "64", "--T", "0.0105", "--dt", "0.001"],
        ["wave", *WAVE, "--N", "0"],
        ["wave", *WAVE, "--N", "15"],
        ["spectrum", *WAVE, "--N", "32"],
        ["wave", *WAVE, "--N", "64", "--out", "{tmp}/"],
        ["stability", *WAVE, "--N", "64", "--T", "0.1", "--eps", "1e-3", "--seed", "-1"],
        ["stability", *WAVE, "--N", "64", "--T", "0.1", "--eps", "inf"],
    ], ids=["stability-eps-0", "evolve-negative-T", "evolve-T-not-whole-steps",
            "wave-N-0", "wave-N-odd", "spectrum-N-below-64", "wave-out-empty-basename",
            "stability-negative-seed", "stability-infinite-eps"])
    def test_exits_2_without_compute_or_output(self, argv, tmp_path, monkeypatch, capsys):
        def no_compute(*a, **k):
            raise AssertionError("compute ran before the flags were checked")

        monkeypatch.setattr(cli, "solve_modulus", no_compute)
        monkeypatch.setattr(spectral, "full_report", no_compute)
        argv = [a.format(tmp=tmp_path) for a in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert "invalid parameters" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["wave", *WAVE, "--N", "64"],
        ["sweep", "job.cfg"],
    ], ids=["wave", "sweep"])
    def test_missing_out_directory_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        def no_compute(*a, **k):
            raise AssertionError("compute ran before the flags were checked")

        monkeypatch.setattr(cli, "solve_modulus", no_compute)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "job.cfg").write_text("command = wave\nL = 3.14159\nc = 0.95\n")
        assert cli.main(argv + ["--out", "nodir/x"]) == 2
        assert "nodir" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["job.cfg"]

    @pytest.mark.parametrize("command", ["wave", "spectrum", "evolve", "stability"])
    def test_no_command_takes_format(self, command, tmp_path):
        with pytest.raises(SystemExit) as info:
            cli.main([command, *WAVE, "--N", "64", "--format", "json",
                      "--out", str(tmp_path / "f")])
        assert info.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_whole_step_horizon_accepted(self, tmp_path):
        # 0.7 / 0.001 is 699.9999999999999 in floating point: within tolerance
        assert cli.main(["evolve", *WAVE, "--N", "16", "--T", "0.7", "--dt", "0.001",
                         "--out", str(tmp_path / "ok")]) == 0
        assert len((tmp_path / "ok.csv").read_text().splitlines()) == 702


class TestSweepRobustness:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert cli.main(["sweep", str(tmp_path / "missing.cfg"),
                         "--out", str(tmp_path / "x")]) == 2
        assert "cannot read sweep config" in capsys.readouterr().err

    @pytest.mark.parametrize("keys, failed, flag", [
        ("N = 64,sixty\n", {1}, "--N sixty"),
        ("N = 64,66\nformat = json\n", {0, 1}, "--format json"),  # no command takes it
    ], ids=["N-sixty", "format-json"])
    def test_job_with_bad_flags_does_not_stop_the_sweep(self, keys, failed, flag,
                                                        tmp_path, capsys):
        cfg = tmp_path / "two.cfg"
        cfg.write_text("command = wave\nL = 3.14159\nc = 0.95\n" + keys)
        code = cli.main(["sweep", str(cfg), "--out", str(tmp_path / "tw")])
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err
        for idx in (0, 1):
            written = sorted(p.name for p in tmp_path.glob(f"tw_{idx:04d}*"))
            if idx in failed:
                assert written == [] and f"sweep job {idx} failed with exit 2" in err
            else:
                assert written == [f"tw_{idx:04d}.csv", f"tw_{idx:04d}.json"]
                assert f"sweep job {idx}" not in err

    def test_job_that_raises_does_not_stop_the_sweep(self, tmp_path, monkeypatch, capsys):
        exact = spectral.full_report

        def out_of_memory(L, c, N):
            if N == 96:
                raise MemoryError("cannot allocate the operator")
            return exact(L, c, N)

        monkeypatch.setattr(spectral, "full_report", out_of_memory)
        cfg = tmp_path / "two.cfg"
        cfg.write_text("command = spectrum\nL = 3.14159\nc = 0.95\nN = 96,64\n")
        code = cli.main(["sweep", str(cfg), "--out", str(tmp_path / "om"), "--workers", "1"])
        assert code == 1
        assert (tmp_path / "om_0001.json").exists()
        assert not (tmp_path / "om_0000.json").exists()
        err = capsys.readouterr().err
        assert "sweep job 0 raised MemoryError: cannot allocate the operator" in err
        assert "sweep job 0 failed with exit 1" in err and "sweep job 1" not in err

    def test_projected_value_outside_its_spellings_exits_2(self, tmp_path, capsys):
        # a typo must not fall through to the plain flow
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("command = evolve\nL = 3.14159\nc = 0.95\nN = 64\nT = 0.01\n"
                       "projected = ture\n")
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "ty")]) == 2
        assert list(tmp_path.glob("ty*")) == []
        err = capsys.readouterr().err
        assert err.startswith("invalid parameters: projected must be one of "
                              "true, 1, yes, false, 0, no (any case), got 'ture'\n")
        assert "sweep job 0 failed with exit 2: evolve " in err and "--projected=ture" in err

    def test_repeated_key_fails_the_sweep_before_any_job(self, tmp_path, capsys):
        # the second N used to override the first silently
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("command = spectrum\nL = 3.14159\nc = 0.95\nN = 64\n# again\nN = 128\n")
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "tw")]) == 2
        assert list(tmp_path.glob("tw_0000*")) == []
        assert capsys.readouterr().err.splitlines() == [
            f"invalid parameters: {cfg}:6: key 'N' given twice, on lines 4 and 6"]

    def test_out_key_fails_the_sweep_before_any_job(self, tmp_path, capsys):
        # the --out that sweep appends to each job used to win silently
        cfg = tmp_path / "out.cfg"
        cfg.write_text(f"command = wave\nL = 3.14159\nc = 0.95\nN = 64\n"
                       f"out = {tmp_path / 'elsewhere'}\n")
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert list(tmp_path.glob("run*")) == list(tmp_path.glob("elsewhere*")) == []
        assert capsys.readouterr().err.splitlines() == [
            f"invalid parameters: {cfg}:5: key 'out' cannot be swept; "
            f"sweep --out sets every job's output prefix"]

    def test_projected_spellings_any_case(self, tmp_path):
        spellings = ["no", "0", "FALSE", "yes", "1", "True"]
        cfg = tmp_path / "pj.cfg"
        cfg.write_text("command = evolve\nL = 3.14159\nc = 0.95\nN = 64\nT = 0.01\n"
                       f"projected = {','.join(spellings)}\n")
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "pj")]) == 0
        got = [json.loads((tmp_path / f"pj_{i:04d}.json").read_text())["projected"]
               for i in range(len(spellings))]
        assert got == [False, False, False, True, True, True]

    @pytest.mark.parametrize("workers", ["0", "-3", "2", "64"])
    def test_workers_other_than_one_exits_2(self, workers, tmp_path, monkeypatch, capsys):
        def no_compute(*a, **k):
            raise AssertionError("a sweep job ran before the flags were checked")

        monkeypatch.setattr(cli, "_run_sweep_job", no_compute)
        cfg = tmp_path / "two.cfg"
        cfg.write_text("command = wave\nL = 3.14159\nc = 0.95,0.9\nN = 64\n")
        with pytest.raises(SystemExit) as info:
            cli.main(["sweep", str(cfg), "--out", str(tmp_path / "wk"), "--workers", workers])
        assert info.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert list(tmp_path.glob("wk*")) == []

    def test_workers_1_given_or_left_out_writes_same_bytes(self, tmp_path, capsys):
        # a batch of two good jobs and a bad-flag job, so stderr is not empty
        cfg = tmp_path / "g.cfg"
        cfg.write_text("command = stability\nL = 3.14159\nc = 0.95\nN = 16\nT = 0.05\n"
                       "dt = 1e-3\neps = 1e-3,5e-4\nseed = 1,-1\n")
        runs = {}
        for name, flag in (("given", ["--workers", "1"]), ("left", [])):
            (tmp_path / name).mkdir()
            code = cli.main(["sweep", str(cfg), "--out", str(tmp_path / name / "g"), *flag])
            err = capsys.readouterr().err.replace(str(tmp_path / name), "<dir>")
            files = {f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())}
            runs[name] = (code, err, files)
        assert runs["given"] == runs["left"]
        code, err, files = runs["left"]
        assert code == 2 and err.count("failed with exit 2") == 2
        assert sorted(files) == ["g_0000.csv", "g_0000.json", "g_0002.csv", "g_0002.json"]


class TestSweepBatching:
    """evolve/stability jobs that differ only in eps, seed and --out run as one batch."""

    BASE = "L = 3.14159\nc = 0.95\nN = 64\nT = 0.2\ndt = 1e-3\n"

    @staticmethod
    def record_units(monkeypatch):
        units = []
        real = cli._run_sweep_job

        def recording(unit):
            units.append([idx for idx, _, _ in unit])
            return real(unit)

        monkeypatch.setattr(cli, "_run_sweep_job", recording)
        return units

    @staticmethod
    def solo(argv_text, out):
        """Run one sweep job's flags alone, writing to `out`."""
        argv = argv_text.split()
        argv[argv.index("--out") + 1] = str(out)
        return cli.main(argv)

    @staticmethod
    def failures(err):
        """{job index: (exit code, argv text)} of a sweep's failure lines."""
        return {int(i): (int(code), text) for i, code, text in
                re.findall(r"^sweep job (\d+) failed with exit (\d+): (.*)$", err, re.M)}

    @pytest.mark.parametrize("command, eps", [("stability", "1e-3,5e-4"), ("evolve", "0,1e-3")])
    def test_files_byte_identical_to_solo_runs(self, command, eps, tmp_path, monkeypatch):
        units = self.record_units(monkeypatch)
        cfg = tmp_path / "b.cfg"
        cfg.write_text(f"command = {command}\n{self.BASE}eps = {eps}\nseed = 1,2\n"
                       "projected = true,false\n")
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "b")]) == 0
        jobs = cli._parse_sweep_config(str(cfg))
        assert len(jobs) == 8 and sorted(len(u) for u in units) == [4, 4]
        parser = cli.build_parser()
        for idx, job in enumerate(jobs):
            _, _, text = cli._check_sweep_job(parser, idx, job, str(tmp_path / "b"))
            assert self.solo(text, tmp_path / "solo") == 0
            for ext in (".csv", ".json"):
                batched = (tmp_path / f"b_{idx:04d}{ext}").read_bytes()
                assert batched == (tmp_path / f"solo{ext}").read_bytes(), (idx, ext)

    # at 3e307 and 1e308 the t = 0 state or its rfft overflows, and the
    # suite's RuntimeWarnings-as-errors would fail the job with exit 1
    @pytest.mark.parametrize("eps", ["100", "1e200", "3e307", "1e308"])
    def test_blowup_member_exits_4_alone(self, eps, tmp_path, capsys):
        cfg = tmp_path / "u.cfg"
        cfg.write_text(f"command = stability\n{self.BASE}eps = 1e-3,{eps}\nseed = 1\n")
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "u")]) == 4
        err = capsys.readouterr().err
        assert not (tmp_path / "u_0001.csv").exists() and not (tmp_path / "u_0001.json").exists()
        [(code, text)] = self.failures(err).values()
        assert code == 4 and f"--eps {eps}" in text and "_0001" in text
        assert self.solo(text, tmp_path / "alone") == 4
        [solo_line] = capsys.readouterr().err.splitlines()
        assert solo_line.startswith("blow-up at t = 0.0005: ")
        assert err == f"{solo_line}\nsweep job 1 failed with exit 4: {text}\n"
        sibling = text.replace(f"--eps {eps}", "--eps 1e-3")
        assert self.solo(sibling, tmp_path / "sib") == 0
        for ext in (".csv", ".json"):
            assert (tmp_path / f"u_0000{ext}").read_bytes() == (tmp_path / f"sib{ext}").read_bytes()

    # the member that blows up sits in the middle of three, or overflows at
    # t = 0 first of two; the batch goes on without it
    @pytest.mark.parametrize("eps, bad", [("1e-3,100,2e-4", 1), ("1e308,1e-3", 0)],
                             ids=["middle_of_3", "first_of_2"])
    def test_blowup_member_leaves_the_batch_at_any_row(self, eps, bad, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(f"command = stability\n{self.BASE}eps = {eps}\nseed = 1\n")
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "m")]) == 4
        err = capsys.readouterr().err
        [(idx, (code, text))] = self.failures(err).items()
        assert (idx, code) == (bad, 4) and list(tmp_path.glob(f"m_{bad:04d}*")) == []
        assert self.solo(text, tmp_path / "alone") == 4
        [solo_line] = capsys.readouterr().err.splitlines()
        assert err == f"{solo_line}\nsweep job {bad} failed with exit 4: {text}\n"
        amplitudes = eps.split(",")
        for idx, amplitude in enumerate(amplitudes):
            if idx != bad:
                sibling = text.replace(f"--eps {amplitudes[bad]}", f"--eps {amplitude}")
                assert self.solo(sibling, tmp_path / "sib") == 0
                for ext in (".csv", ".json"):
                    assert (tmp_path / f"m_{idx:04d}{ext}").read_bytes() == \
                        (tmp_path / f"sib{ext}").read_bytes()

    def test_bad_flag_and_raising_jobs_fail_alone(self, tmp_path, monkeypatch, capsys):
        exact = evolution.perturbation_random

        def out_of_memory(L, N, seed):
            if seed == 2:
                raise MemoryError("cannot allocate the perturbation")
            return exact(L, N, seed)

        monkeypatch.setattr(evolution, "perturbation_random", out_of_memory)
        cfg = tmp_path / "f.cfg"
        # jobs (eps, seed): 0 (1e-3, 1), 1 (1e-3, -1), 2 (1e-3, 2), 3 (5e-4, 1), ...
        cfg.write_text(f"command = stability\n{self.BASE}eps = 1e-3,5e-4\nseed = 1,-1,2\n")
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert "sweep job 2 raised MemoryError: cannot allocate the perturbation" in err
        assert "sweep job 5 raised MemoryError" in err
        failures = self.failures(err)
        assert {idx: code for idx, (code, _) in failures.items()} == {1: 2, 2: 1, 4: 2, 5: 1}
        monkeypatch.setattr(evolution, "perturbation_random", exact)
        for idx, bad in ((0, 1), (3, 4)):
            text = failures[bad][1].replace("--seed -1", "--seed 1")
            assert self.solo(text, tmp_path / "s") == 0
            for ext in (".csv", ".json"):
                assert (tmp_path / f"f_{idx:04d}{ext}").read_bytes() == \
                    (tmp_path / f"s{ext}").read_bytes()

    def test_flags_checked_before_any_job_runs(self, tmp_path, monkeypatch, capsys):
        seen = []
        real = cli._run_sweep_job

        def first_look(unit):
            seen.append(capsys.readouterr().err)
            return real(unit)

        monkeypatch.setattr(cli, "_run_sweep_job", first_look)
        cfg = tmp_path / "o.cfg"
        cfg.write_text(f"command = evolve\n{self.BASE}eps = 1e-3\nseed = 1,2,-3\n")
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert len(seen) == 1 and "--seed must be nonnegative, got -3" in seen[0]

    def test_one_batch_per_group(self, tmp_path, monkeypatch):
        seen = self.record_units(monkeypatch)
        cfg = tmp_path / "p.cfg"
        # two groups of three (one per speed), each run as one batch
        cfg.write_text("command = stability\nL = 3.14159\nc = 0.95,0.94\nN = 16\n"
                       "T = 0.01\ndt = 1e-3\neps = 1e-3,5e-4,2e-4\nseed = 1\n")
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "p")]) == 0
        assert seen == [[0, 1, 2], [3, 4, 5]]

    @pytest.mark.parametrize("command", ["wave", "spectrum"])
    def test_other_commands_run_one_job_per_unit(self, command, tmp_path, monkeypatch):
        seen = self.record_units(monkeypatch)
        cfg = tmp_path / "a.cfg"
        # the same flags but --out, yet only evolve/stability jobs are batched
        cfg.write_text(f"command = {command}\nL = 3.14159\nc = 0.95,0.95,0.94\nN = 64\n")
        assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert seen == [[0], [1], [2]]


class TestParserReuse:
    """`main` and `cmd_sweep` share one parser, built on first use."""

    SWEEP = ("command = stability\nL = 3.14159\nc = 0.95\nN = 16\nT = 0.05\n"
             "dt = 1e-3\neps = 1e-3,5e-4\nseed = 1\n")

    def run_sequence(self, out, capsys):
        """spectrum, evolve at its default --T, an argparse rejection, a sweep and
        stability, in one process; returns the rejection's stderr."""
        (out / "s.cfg").write_text(self.SWEEP)
        assert cli.main(["spectrum", *WAVE, "--N", "64", "--out", str(out / "sp")]) == 0
        assert cli.main(["evolve", *WAVE, "--N", "16", "--dt", "0.05",
                         "--out", str(out / "ev")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as rejected:
            cli.main(["evolve", *WAVE, "--N", "sixteen", "--out", str(out / "bad")])
        assert rejected.value.code == 2
        err = capsys.readouterr().err
        assert cli.main(["sweep", str(out / "s.cfg"), "--out", str(out / "sw")]) == 0
        assert cli.main(["stability", *WAVE, "--N", "16", "--T", "0.05", "--eps", "1e-3",
                         "--seed", "2", "--out", str(out / "st")]) == 0
        return err

    def test_one_parser_same_bytes_as_fresh_parsers(self, tmp_path, monkeypatch, capsys):
        built = []
        real = cli.build_parser

        def counting():
            built.append(real())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        shared.mkdir()
        fresh.mkdir()
        shared_err = self.run_sequence(shared, capsys)
        assert len(built) == 1
        monkeypatch.setattr(cli, "_parser", real)  # a new parser on every call
        fresh_err = self.run_sequence(fresh, capsys)
        assert shared_err == fresh_err and "invalid int value: 'sixteen'" in shared_err
        names = sorted(p.name for p in shared.iterdir())
        assert names == sorted(p.name for p in fresh.iterdir())
        assert len([n for n in names if n.endswith(".json")]) == 5
        for name in names:
            assert (shared / name).read_bytes() == (fresh / name).read_bytes(), name
        assert json.loads((shared / "ev.json").read_text())["T"] == 100.0

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_import_builds_no_parser(self):
        code = ("import snoidal.cli as cli; "
                "assert cli._parser.cache_info().currsize == 0")
        src = str(Path(cli.__file__).resolve().parent.parent)
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})
