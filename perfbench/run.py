#!/usr/bin/env python3
"""Closed-loop benchmark of the snoidal command line.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seconds 18

One client calls ``snoidal.cli.main(argv)`` in-process and issues each op
only after the previous one returned (closed loop, one client), with outputs
going to a temporary directory inside the checkout.  Every op's output files
are checked against the acceptance-gate tolerances; an op that fails its
check or exits non-zero counts in ``failed``.  The inputs (L, c, eps and
perturbation seeds) come from ``--seed``; the program sees only them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the layer
functions (see spans.py) and reports per-layer metrics instead.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  ``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# (L, c) points: L uniform in L_RANGE, omega = 1 - c^2 at a fraction of the
# admissible window (0, L^2 / 4 pi^2) drawn from FRACTION_RANGE
# (solve_modulus rejects fractions above about 0.95).  Below about 0.1-0.2 of
# the window, depending on L and N, `snoidal spectrum` exits 3 with a
# SingularSystemError; those ops count in `failed`.
L_RANGE = (2.0, 6.0)
FRACTION_RANGE = (0.05, 0.90)

SETUP_REPEATS = 11
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy, snoidal; "
              "snoidal.solve_modulus(float(sys.argv[2]), float(sys.argv[3]))")
# Set-up times are normalized to a process that imports numpy alone, taken
# to last IMPORT_REFERENCE_NOMINAL_S (roughly its time on the tuning machine).
IMPORT_REFERENCE_CODE = "import numpy"
IMPORT_REFERENCE_NOMINAL_S = 0.2

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "elliptic.sn_calls": "count",
    "elliptic.sn_ms": "ms",
    "elliptic.K_calls": "count",
    "waves.solve_modulus_ms": "ms",
    "waves.sample_wave_ms.N128": "ms",
    "waves.sample_wave_ms.N256": "ms",
    "waves.sample_wave_ms.N512": "ms",
    "waves.ode_residual_ms": "ms",
    "spectral.assemble_ms": "ms",
    "spectral.constrain_ms": "ms",
    "spectral.eigen_report_ms": "ms",
    "spectral.D_matrix_ms": "ms",
    "spectral.D1_numeric_ms": "ms",
    "spectral.d2_ms": "ms",
    "spectral.coercivity_ms": "ms",
    "spectral.full_report_self_ms": "ms",
    "spectral.eigensolves": "count",
    "spectral.eigensolve_flops": "flop",
    "evolution.step_us": "us",
    "evolution.fft_per_step": "count",
    "evolution.orbit_distance_ms": "ms",
    "evolution.orbit_samples": "count",
    "evolution.conserved_ms": "ms",
    "evolution.run_experiment_self_ms": "ms",
    "cli.self_ms": "ms",
    "cli.bytes_written": "B",
    "cli.sweep_jobs": "count",
    "trace.ops_per_s": "1/s",
    "trace.coverage": "fraction",
}

# Counters that must repeat bit-for-bit between two traced runs of one seed.
EXACT_COUNTERS = ("spectral.eigensolves", "elliptic.sn_calls", "evolution.fft_per_step",
                  "evolution.orbit_samples", "cli.sweep_jobs")

# Problem sizes: "full" is the benchmark; "tiny" is for the harness self-test.
# `stability` runs T = 50 (the ROADMAP's run is T = 100) and `ensemble` two
# jobs, so that a run holds five or six ops: op latency normalized to the
# reference kernel still varies by about 5% from op to op, and a median of
# three ops spread by up to 9% between runs.
# Spectrum stays at N = 128 there: at N = 64 the grid is too coarse for the
# 1e-8 D1_relative_gap gate, which some (L, c) then miss.
SIZES = {
    "full": {"spectrum_N": (128, 256, 512), "evolve_N": 256, "stability_T": 50.0,
             "ensemble_T": 5.0, "profiles_N": 8192, "warm_T": 0.5},
    "tiny": {"spectrum_N": (128, 128, 128), "evolve_N": 64, "stability_T": 0.2,
             "ensemble_T": 0.1, "profiles_N": 256, "warm_T": 0.05},
}
DT = 1e-3
ENSEMBLE_EPS = 2       # eps values per sweep
ENSEMBLE_SEEDS = 1     # perturbation seeds per sweep


class CheckFailed(Exception):
    """An op's output violates an acceptance-gate tolerance."""


class LayerNotSeen(RuntimeError):
    """A traced run never entered a span its workload must reach."""


# -- inputs -----------------------------------------------------------------

class WavePoints:
    """(L, c) points that cover L_RANGE x FRACTION_RANGE evenly.

    Point j is the R2 low-discrepancy sequence (Roberts, 2018: steps 1/g and
    1/g^2 with g the plastic number) shifted by a random offset drawn from
    `rng`, so that any run of points spreads over the whole square.  Whether
    and how fast an op passes depends on where its point lies, and with
    independent random draws the share of failing `spectrum` ops, and with it
    ops_per_s, differed between seeds by more than the benchmark's noise.
    """

    G = 1.324717957244746  # plastic number: the real root of g^3 = g + 1

    def __init__(self, rng: random.Random):
        self.offset = (rng.random(), rng.random())
        self.j = 0

    def __next__(self) -> tuple[float, float]:
        self.j += 1
        x = (self.offset[0] + self.j / self.G) % 1.0
        y = (self.offset[1] + self.j / self.G ** 2) % 1.0
        L = L_RANGE[0] + (L_RANGE[1] - L_RANGE[0]) * x
        fraction = FRACTION_RANGE[0] + (FRACTION_RANGE[1] - FRACTION_RANGE[0]) * y
        omega = fraction * L * L / (4.0 * math.pi ** 2)
        return L, math.sqrt(1.0 - omega)


def draw_eps(rng: random.Random) -> float:
    """Log-uniform perturbation amplitude in [2e-4, 1e-3]."""
    return 10.0 ** rng.uniform(math.log10(2e-4), -3.0)


def wave_flags(L: float, c: float, N: int) -> list[str]:
    return ["--L", repr(L), "--c", repr(c), "--N", str(N)]


# -- output checks ------------------------------------------------------------

def _load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_spectrum(prefix: Path) -> None:
    report = _load_json(prefix.with_suffix(".json"))
    counts = report["counts"]
    expected = {"L1": [1, 1], "Lblock": [1, 1], "L1_constrained": [0, 1],
                "Lblock_constrained": [0, 1]}
    for kind, want in expected.items():
        if counts[kind] != want:
            raise CheckFailed(f"counts[{kind}] = {counts[kind]}, expected {want}")
    if report["n0"] != 1:
        raise CheckFailed(f"n0 = {report['n0']}, expected 1")
    gap = report["residuals"]["D1_relative_gap"]
    if not gap <= 1e-8:
        raise CheckFailed(f"D1_relative_gap = {gap:.3e} > 1e-8")
    if not report["d2"] < 0.0:
        raise CheckFailed(f"d2 = {report['d2']} is not negative")


def check_stability(prefix: Path) -> None:
    meta = _load_json(prefix.with_suffix(".json"))
    ratio = meta["stability_ratio"]
    if not ratio <= 50.0:
        raise CheckFailed(f"stability_ratio = {ratio:.3f} > 50")
    with open(prefix.with_suffix(".csv")) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh]
    for name in ("E", "F"):
        j = header.index(name)
        first = rows[0][j]
        drift = max(abs(r[j] - first) for r in rows) / abs(first)
        if not drift <= 1e-6:
            raise CheckFailed(f"relative {name} drift {drift:.3e} > 1e-6")


def check_profiles(prefix: Path, N: int) -> None:
    meta = _load_json(prefix.with_suffix(".json"))
    if not meta["ode_residual"] <= 1e-10:
        raise CheckFailed(f"ode_residual = {meta['ode_residual']:.3e} > 1e-10")
    with open(prefix.with_suffix(".csv")) as fh:
        lines = sum(1 for _ in fh)
    if lines != N + 1:
        raise CheckFailed(f"{lines - 1} profile rows, expected {N}")


# -- workloads ----------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    argv: list[str]
    prefix: Path
    check: object          # callable(prefix) raising CheckFailed
    variant: int = 0       # index into the workload's variants (spectrum: which N)
    steps: int = 0         # Strang steps the op advances, summed over trajectories


def _spectrum_op(rng, variant, L, c, prefix, sizes, warm):
    N = sizes["spectrum_N"][variant]
    return Op(["spectrum", *wave_flags(L, c, N), "--out", str(prefix)], prefix, check_spectrum,
              variant)


def _stability_op(rng, variant, L, c, prefix, sizes, warm):
    T = sizes["warm_T"] if warm else sizes["stability_T"]
    eps, seed = draw_eps(rng), rng.randrange(2 ** 31)
    argv = ["stability", *wave_flags(L, c, sizes["evolve_N"]), "--T", repr(T),
            "--dt", repr(DT), "--eps", repr(eps), "--seed", str(seed), "--out", str(prefix)]
    return Op(argv, prefix, check_stability, steps=round(T / DT))


def _ensemble_op(rng, variant, L, c, prefix, sizes, warm):
    T = sizes["warm_T"] if warm else sizes["ensemble_T"]
    eps = [draw_eps(rng) for _ in range(ENSEMBLE_EPS)]
    seeds = [rng.randrange(2 ** 31) for _ in range(ENSEMBLE_SEEDS)]
    config = prefix.with_suffix(".cfg")
    config.write_text(
        "command = stability\n"
        f"L = {L!r}\nc = {c!r}\nN = {sizes['evolve_N']}\nT = {T!r}\ndt = {DT!r}\n"
        f"eps = {','.join(repr(e) for e in eps)}\n"
        f"seed = {','.join(str(s) for s in seeds)}\n")
    jobs = ENSEMBLE_EPS * ENSEMBLE_SEEDS

    def check(pfx):
        for i in range(jobs):
            check_stability(Path(f"{pfx}_{i:04d}"))

    # One worker: the jobs run in the client's process, where SpeedReference
    # can follow them.  With --workers 2 the jobs run in two processes whose
    # speed a kernel in the client does not track, and the wall-clock spread
    # between runs reached 8-12% against at most 6% for the other workloads.
    argv = ["sweep", str(config), "--out", str(prefix), "--workers", "1"]
    return Op(argv, prefix, check, steps=jobs * round(T / DT))


def _profiles_op(rng, variant, L, c, prefix, sizes, warm):
    N = sizes["profiles_N"]
    return Op(["wave", *wave_flags(L, c, N), "--out", str(prefix)], prefix,
              lambda pfx: check_profiles(pfx, N))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    reference: str         # SpeedReference kernel with the shape of the op's hot path
    make_op: object        # callable(rng, variant, L, c, prefix, sizes, warm) -> Op
    # Spans a traced run must enter at least once; a run that misses one can
    # no longer measure the layer, and fails.
    reaches: tuple
    # Wall seconds of one cycle on the tuning machine (2 vCPUs of an Intel
    # Xeon) at the benchmark's first commit.  A run does cycles(seconds) of
    # them: the op count depends on --seconds alone, never on the speed of
    # the machine, so `attempted` and `failed` are the same for every run of
    # one seed.  A run that ended on a clock would let the op count, and with
    # it the number of failing spectrum ops, differ between runs of one seed.
    cycle_s: float
    # Op shapes (spectrum: one per N), each with its own (L, c) points.  A
    # cycle runs each once.
    variants: int = 1

    def cycles(self, seconds: float) -> int:
        return max(1, round(seconds / self.cycle_s))


WORKLOADS = {
    "spectrum": Workload(
        "spectrum", "snoidal spectrum at N = 128/256/512: dense 2N x 2N eigensolves take ~90%, "
                    "the work diagonalizing once must cut; evolution idle; ~10% of ops exit 3 "
                    "(a known defect at small omega)",
        variants=3, cycle_s=1.2, reference="blas", make_op=_spectrum_op,
        reaches=("spectral.full_report", "spectral.D_matrix", "waves.sample_wave")),
    "stability": Workload(
        "stability", "snoidal stability, N = 256, T = 50: Strang stepping ~65%, orbit distance ~28%; one "
                     "trajectory, so a batched stepper has nothing to batch here",
        cycle_s=3.5, reference="loop", make_op=_stability_op,
        reaches=("evolution.run_experiment", "evolution.advance",
                 "evolution.orbit_distance_sample", "cli.write")),
    "ensemble": Workload(
        "ensemble", "sweep of 2 short stability jobs (2 eps x 1 seed, T = 5), one worker: "
                    "orbit distance ~70%; the only workload with several trajectories per call",
        cycle_s=2.9, reference="loop", make_op=_ensemble_op,
        reaches=("cli.sweep_job", "evolution.advance", "evolution.orbit_distance_sample")),
    "profiles": Workload(
        "profiles", "snoidal wave at N = 8192: per-point sn/cn/dn ~73%, CSV writing ~27%; the "
                    "only workload where vectorized sn/cn/dn shows",
        cycle_s=0.19, reference="loop", make_op=_profiles_op,
        reaches=("elliptic.sn", "waves.profile_eval", "waves.ode_residual", "cli.write")),
}


def op_stream(wl: Workload, rng: random.Random, directory: Path, name: str, sizes: dict):
    """The workload's ops, in order, with inputs drawn from `rng`."""
    points = [WavePoints(rng) for _ in range(wl.variants)]
    index = 0
    while True:
        for variant in range(wl.variants):
            L, c = next(points[variant])
            yield wl.make_op(rng, variant, L, c, directory / f"{name}{index}", sizes, False)
            index += 1


def warm_ops(wl: Workload, rng: random.Random, directory: Path, sizes: dict):
    """One short op per variant, so that FFT plans, BLAS threads and
    first-touch allocations are in place before timing."""
    points = WavePoints(rng)
    for variant in range(wl.variants):
        L, c = next(points)
        yield wl.make_op(rng, variant, L, c, directory / f"warm{variant}", sizes, True)


# -- machine ------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple[str, object]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        vendor = "unknown"
    threads = None
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    if threads is None:
        threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return vendor, threads


def _source_revision() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "snoidal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def machine_info(seed: int) -> dict:
    import numpy

    vendor, threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": vendor,
        "blas_threads": threads,
        **_source_revision(),
        "seed": seed,
    }


# -- measurement --------------------------------------------------------------

def measure_setup(L: float, c: float) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import numpy and snoidal and solve one
    modulus, and of reference processes that import numpy alone, interleaved.
    The first set-up process also compiles bytecode and is not counted.

    Process start-up drifts with the machine (by 40% within 15 minutes on the
    tuning machine) but not in step with SpeedReference's in-process kernels,
    so setup_s (see setup_seconds) compares each set-up process with the
    reference processes run just before and after it.
    """
    def timed(code, *args):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        return time.perf_counter() - t0

    setup, reference = [], [timed(IMPORT_REFERENCE_CODE)]
    for i in range(SETUP_REPEATS + 1):
        elapsed = timed(SETUP_CODE, str(SRC), repr(L), repr(c))
        if i:
            setup.append(elapsed)
        reference.append(timed(IMPORT_REFERENCE_CODE))
    return setup, reference


def setup_seconds(setup: list[float], reference: list[float]) -> float:
    """Median over set-up processes of set-up time x IMPORT_REFERENCE_NOMINAL_S
    / the mean time of the two reference processes around it.

    `reference` holds one more process before the first counted set-up one
    (the uncounted compiling process sits between them).
    """
    return IMPORT_REFERENCE_NOMINAL_S * statistics.median(
        t / (0.5 * (reference[i + 1] + reference[i + 2])) for i, t in enumerate(setup))


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, with its label."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n} ops (fewer than 11, so no percentile has 10 beyond)"
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    beyond = sum(1 for x in ordered if x > ordered[rank - 1])
    return ordered[rank - 1], f"p{pct} of {n} ops, {beyond} beyond"


def run_cli(main, argv: list[str]) -> int:
    """Exit code of one in-process command-line call."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash fails this op; the run goes on
        traceback.print_exc()
        return 1


def run_op(cli, op: Op, tracer=None, index=None):
    """Run one op; returns ((start, end) in s, failure reason or None, whether
    the op exited 0 with outputs that fail their check, bytes written)."""
    if tracer is None:
        t0 = time.perf_counter()
        code = run_cli(cli.main, op.argv)
        interval = (t0, time.perf_counter())
    else:
        tracer.op = index
        node = tracer.open("op")
        try:
            code = run_cli(cli.main, op.argv)
        finally:
            tracer.close(node)
        interval = (node.start * 1e-9, node.end * 1e-9)
    reason, wrong = None, False
    if code != 0:
        reason = f"exit {code}"
    else:
        try:
            op.check(op.prefix)
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            reason, wrong = f"wrong output: {type(exc).__name__}: {exc}", True
    written = sum(p.stat().st_size for p in op.prefix.parent.glob(op.prefix.name + "*")
                  if p.suffix != ".cfg")
    return interval, reason, wrong, written


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool, size: str) -> dict:
    sys.path.insert(0, str(SRC))
    import snoidal.cli as cli  # noqa: E402  (needs SRC on the path)

    from spans import Tracer, layer_metrics
    from speed import SpeedReference

    sizes = SIZES[size]
    rng = random.Random(f"{wl.name}:{seed}")
    setup, setup_reference = ([], []) if traced else measure_setup(
        *next(WavePoints(random.Random(f"{wl.name}:{seed}:setup"))))

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    tracer = Tracer() if traced else None
    reference = SpeedReference(wl.reference)
    intervals, wall, failures, written = [], [], [], []
    warm_failures, wrong = [], 0
    groups = [[] for _ in range(wl.variants)]  # ids of passed ops, per variant
    ok = []  # whether each op passed
    # The traced run samples only between ops: a timer sample inside an op
    # would land inside whatever span was open.
    periodic = not traced
    try:
        for op in warm_ops(wl, random.Random(f"{wl.name}:{seed}:warm-up"), workdir, sizes):
            _, reason, bad, _ = run_op(cli, op)
            wrong += bad
            if reason is not None:
                warm_failures.append(f"warm-up ({op.argv[0]}): {reason}")
        _clear(workdir)

        if tracer is not None:
            tracer.install()
        steps = 0
        reference.sample()
        if periodic:
            reference.start_periodic()
        ops = itertools.islice(op_stream(wl, rng, workdir, "op", sizes),
                               wl.cycles(seconds) * wl.variants)
        for index, op in enumerate(ops):
            paused = reference.paused if periodic else 0.0
            interval, reason, bad, nbytes = run_op(cli, op, tracer, index)
            if periodic:  # the timer's samples are not part of the op
                paused = reference.paused - paused
            intervals.append(interval)
            wall.append(interval[1] - interval[0] - paused)
            reference.sample()
            written.append(nbytes)
            steps += op.steps
            wrong += bad
            if reason is not None:
                failures.append(f"op {index} ({op.argv[0]}): {reason}")
            else:
                groups[op.variant].append(index)
            ok.append(reason is None)
            _clear(workdir)
    finally:
        if periodic:
            reference.stop_periodic()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [w * f for w, f in zip(wall, reference.scales(intervals))]
    n = len(latencies)
    busy = sum(latencies)
    # Latency percentiles are over the ops that passed: a failed op delivers
    # nothing, and its (often shorter) time must not read as a fast op.
    ok_latencies = [x for x, good in zip(latencies, ok) if good]
    ok_wall = [x for x, good in zip(wall, ok) if good]
    if not all(groups):
        raise RuntimeError(f"some {wl.name} variant had no op pass its check: {failures[:3]}")
    result = {
        "workload": wl.name,
        "seed": seed,
        "traced": traced,
        "size": size,
        "ops": n,
        "failed_ops": len(failures),
        "wrong_outputs": wrong,
        "failures": failures[:20],
        "warm_up_failures": warm_failures,
        "reference": {"kind": wl.reference, "nominal_s": SpeedReference.NOMINAL[wl.reference],
                      "median_s": reference.median(), "samples": reference.samples,
                      "sampled_during_ops": periodic},
        "latencies_s": latencies,
        "wall_latencies_s": wall,
        "op_intervals_s": intervals,
        "bytes_per_op": sum(written) / n,
        "steps_per_s": steps / busy if steps else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_wall_s_samples": setup,
        "setup_reference_s_samples": setup_reference,
        "machine": machine_info(seed),
    }
    if traced:
        seen = {node.name for node in tracer.nodes}
        seen |= {name.rsplit(".", 1)[0] for name in seen}  # waves.sample_wave.N<N>
        missing = [name for name in wl.reaches if name not in seen]
        if missing:
            raise LayerNotSeen(f"the traced {wl.name} run never entered {missing}; the "
                               f"program no longer goes through these layer functions")
        # Layer times are rescaled by the run's overall normalization factor.
        factor = busy / sum(wall)
        layers = layer_metrics(tracer.nodes, groups, factor)
        result["layer_self_ms"] = layers.pop("layer_self_ms")
        layers["cli.bytes_written"] = statistics.fmean(
            statistics.fmean(written[i] for i in ops) for ops in groups)
        layers["trace.ops_per_s"] = balanced_rate(latencies, groups)
        result["metrics"] = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
        spans_dir = OUT_DIR / "spans"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"{wl.name}-seed{seed}.jsonl",
                     {k: v for k, v in result.items() if not k.endswith("latencies_s")})
    else:
        tail, tail_label = tail_latency(ok_latencies)
        wall_tail, _ = tail_latency(ok_wall)
        result["op_tail_label"] = tail_label
        values = {
            "setup_s": setup_seconds(setup, setup_reference),
            "ops_per_s": balanced_rate(latencies, groups),
            "op_p50_ms": statistics.median(ok_latencies) * 1e3,
            "op_tail_ms": tail * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        result["wall"] = {
            "setup_s": statistics.median(setup),
            "ops_per_s": balanced_rate(wall, groups),
            "op_p50_ms": statistics.median(ok_wall) * 1e3,
            "op_tail_ms": wall_tail * 1e3,
        }
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    return result


def balanced_rate(latencies: list[float], groups: list[list[int]]) -> float:
    """Ops that passed per second of their own time, each variant weighted
    equally: 1 / mean over variants of the variant's mean latency.

    Failed ops are left out (they count in `failed`), and so is the mix of
    variants among the ops that passed, which the failures would shift.
    """
    return 1.0 / statistics.fmean(statistics.fmean(latencies[i] for i in ops) for ops in groups)


def _clear(directory: Path) -> None:
    for path in directory.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()


def report_lines(result: dict) -> list[str]:
    """Human-readable lines: machine, every metric by name and unit, notes."""
    lines = [f"machine: {json.dumps(result['machine'], sort_keys=True)}",
             f"workload {result['workload']} seed {result['seed']} "
             f"({'traced' if result['traced'] else 'untraced'}, {result['size']} sizes): "
             f"{result['ops']} ops, {result['failed_ops']} failed "
             f"({result['wrong_outputs']} of them with wrong output), "
             f"failed_frac {result['failed_ops'] / result['ops']:.4g}"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    ref = result["reference"]
    lines.append(f"  times are normalized to the '{ref['kind']}' reference kernel at "
                 f"{ref['nominal_s'] * 1e3:g} ms; it took a median "
                 f"{ref['median_s'] * 1e3:.4g} ms in this run (see perfbench/speed.py)")
    if not result["traced"]:
        lines.append("  wall (not normalized): " + ", ".join(
            f"{k} {v:.6g}" for k, v in result["wall"].items()))
        lines.append(f"  op_tail_ms is the {result['op_tail_label']}")
        if result["steps_per_s"] is not None:
            lines.append(f"  steps_per_s {result['steps_per_s']:.6g} 1/s (Strang steps, "
                         f"summed over trajectories)")
    else:
        shares = ", ".join(f"{k} {v:.4g}" for k, v in result["layer_self_ms"].items())
        lines.append(f"  layer self time per op (ms): {shares}")
    for failure in result["warm_up_failures"] + result["failures"]:
        lines.append(f"  FAILED {failure}")
    return lines


def summary(result: dict) -> dict:
    """The result line.  `failed` counts every op that exited non-zero or whose
    outputs failed their check; `correct` is false when any op, warm-up
    included, exited 0 with outputs that fail their check (a wrong answer
    delivered as a success)."""
    return {"correct": result["wrong_outputs"] == 0, "attempted": result["ops"],
            "failed": result["failed_ops"], "metrics": result["metrics"]}


def run_all(args) -> int:
    """Every workload in its own fresh process; metrics keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="problem sizes; 'tiny' is for the harness self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "snoidal" / "cli.py").is_file():
        print(f"snoidal sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), args.size)
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    print("\n".join(report_lines(result)), flush=True)
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
