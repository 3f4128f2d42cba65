"""Command-line front end for the snoidal wave laboratory.

Subcommands
-----------
wave       construct one profile: samples CSV (x, h, h1, h2) + parameter JSON
spectrum   full linearized-operator report as JSON (field names are stable:
           parameters, counts, eigenvalues, D1_closed, D1_numeric, Dmatrix,
           n0, z0, d2, residuals, coercivity)
evolve     run the (projected) flow, write the trace CSV
           `t,E,F,mean_phi,mean_phidot,orbit_distance` plus a metadata JSON
stability  evolve + record the measured ratio max orbit distance / eps
sweep      run every job of a key=value config file (comma lists expand to
           a cartesian product) in the calling process; one output file set
           per job

Exit codes: 0 success, 2 invalid parameters, 3 internal consistency
violation, 4 blow-up (blow-up time goes to stderr).  Flags must be spelled
in full: the parser matches no prefix, so `--ep` is an unknown flag, not
--eps, and a sweep key `ep` fails its job.  Flags are checked before any
compute runs or any file is written: the directory of the
--out prefix must exist and the prefix must end in a file name, N must be
even and at least 16 (64 for spectrum), T a positive whole number of dt
steps, at most 1e9 of them (`evolution.MAX_STEPS`), seed nonnegative,
eps nonnegative and finite (positive for stability), sweep --workers 1,
its only value, each key of a sweep config given on one line only and
none of them `out`, and a sweep's `projected` key true, 1 or yes
(--projected) or false, 0 or no (--unprojected), in any case.  One
check needs the run: a stability ratio, max orbit distance / eps, that
is not finite (an eps so small that the ratio overflows) exits
2 after the run and before any file is written, since JSON has no inf.
A sweep job that fails, even on its flags, is reported with its exit code
and the other jobs still run; a job that raises an exception counts as
exit 1.

A sweep checks every job's flags before any job runs.  evolve/stability
jobs that differ only in eps, seed and --out form a group, run through
`run_experiment` as one trajectory batch: the members share the stepper on
a leading array axis, but each member's trace rows are evaluated on their
own, by the calls of its solo run, so each job writes the bytes of that
run whatever the batch's size; a member that blows up exits 4 alone.
The batches run one after another in the calling process; a batch that
raises anything else reruns its jobs one by one, so that a failure stays
with its own job.  Each command loads only the layers it runs.  The module
imports `errors`, the exception classes behind the exit codes, and
`waves`; `spectrum` loads `spectral`, and `evolve`, `stability` and
sweeps of them load `evolution`, so `wave` loads neither.

All floating-point output uses shortest round-trip decimal strings, so a
repeated run with the same flags and seed is byte-identical.  `wave`'s CSV
formats h, h1 and h2 on the quarter period only: each cell is formatted
once and negated once as text, and `waves.fill_runs`, the rule by which
`sample_wave` fills its arrays from the quarter period, fills each column
from those strings; the bytes are those `repr` would give each cell.
Every JSON file holds the bytes `json.dump(obj, fh, sort_keys=True,
indent=2)` writes, plus a newline, built as one string and written in one
call; its lists and dicts of scalars go through the standard library's C
encoder.  `main` and `sweep` parse with one parser per process, built on
first use, so importing the module builds none; `build_parser()` returns
a new one on every call.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from .errors import (
    BlowUpError,
    EigenSolveError,
    IndexMismatchError,
    ModulusBoundaryError,
    OutOfRangeError,
    SingularSystemError,
)
from .waves import fill_runs, grid_points, ode_residual, sample_wave, solve_modulus

__all__ = ["main", "build_parser"]


def _fmt(x: float) -> str:
    """Shortest decimal string that round-trips the double."""
    return repr(float(x))


def _json_text(obj, indent: str = "\n") -> str:
    """The text of `json.dumps(obj, sort_keys=True, indent=2)`, nested at `indent`.

    A dict with str keys and no list or dict value, and a list whose first
    item is neither, go through the C encoder, which the standard library
    uses only without `indent`, with the newline and indent as its item
    separator; the text is kept when no item held a list or dict after all.
    Other dicts with str keys and other lists, lists of dicts among them,
    recurse.  Anything else goes through the indenting encoder, re-indented
    after each newline (JSON text has no raw newlines of its own, so every
    newline is a separator's).
    """
    inner = indent + "  "
    if isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        if not any(isinstance(value, (dict, list)) for value in obj.values()):
            text = _encoder(inner)(obj)
            if _flat(text):
                return "{" + inner + text[1:-1] + indent + "}"
        items = (f"{json.dumps(key)}: {_json_text(value, inner)}"
                 for key, value in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, list) and obj:
        if not isinstance(obj[0], (dict, list)):
            text = _encoder(inner)(obj)
            if _flat(text):
                return "[" + inner + text[1:-1] + indent + "]"
        items = (_json_text(item, inner) for item in obj)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", indent)


@functools.cache
def _encoder(inner: str):
    """The C encoder's `encode`, sorting keys, with `inner` after each item's comma."""
    return json.JSONEncoder(sort_keys=True, separators=("," + inner, ": ")).encode


def _flat(text: str) -> bool:
    """Whether no item of the encoded list or dict `text` is a list or dict."""
    return text.find("[", 1) < 0 and text.find("{", 1) < 0


def _write_json(path: str, obj) -> None:
    text = _json_text(obj) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


_WAVE_BLOCK_ROWS = 256  # a wave block's x cells are formatted at once


def _write_csv(path: str, header: tuple[str, ...], blocks) -> None:
    """Write `header` as one comma-joined line, then each text block of whole lines as it comes."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.write(block)


def _table_blocks(rows):
    """The lines of the 2-D array `rows` as one block, or no block for no rows.

    Each value is written as its `repr`.  The cells are grouped into lines
    by `zip`ping one iterator once per column, so no Python code runs per
    row or per value; the bytes are those of a row-by-row
    `",".join(map(repr, row))` loop.  A trace has at most 1000 rows
    (`_evolve_batch` samples every max(1, steps // 500) steps).
    """
    if len(rows):
        cells = map(repr, rows.ravel().tolist())
        yield "\n".join(map(",".join, zip(*[cells] * rows.shape[1]))) + "\n"


def _wave_blocks(x, samples):
    """The lines of the wave table (x, h, h', h''), with one `repr` per quarter-period cell.

    Each of h, h' and h'' is one list of cell strings, filled from its
    quarter-period cells by `fill_runs`, the rule `sample_wave` fills its
    arrays by, with `_negated` for the negation; so each quarter cell is
    formatted once and negated once, and the other cells reuse those two
    strings.  x has no such symmetry; its cells are formatted per block of
    `_WAVE_BLOCK_ROWS` rows.
    """
    N = len(x)
    quarters = [list(map(repr, f[:N // 4 + 1].tolist())) for f in samples]
    columns = [list(itertools.chain(*runs)) for runs in fill_runs(quarters, _negated, N)]
    for start in range(0, N, _WAVE_BLOCK_ROWS):
        stop = start + _WAVE_BLOCK_ROWS
        block = [map(repr, x[start:stop].tolist()), *(cells[start:stop] for cells in columns)]
        yield "\n".join(map(",".join, zip(*block))) + "\n"


def _negated(cells: list) -> list:
    """The strings of the negated values of the `repr` strings `cells`, made as text.

    repr(-v) is "-" + repr(v), or repr(v) without its "-" for a negative v.
    """
    return ("-" + ",".join(cells).replace(",", ",-")).replace("--", "").split(",")


def _metadata(args, wave, **extra) -> dict:
    meta = {
        "command": args.command,
        "L": wave.L,
        "c": wave.c,
        "omega": wave.omega,
        "k": wave.k.value,
        "N": args.N,
        "format": "csv",
    }
    for name in ("dt", "T", "eps", "seed", "projected"):
        if hasattr(args, name):
            meta[name] = getattr(args, name)
    meta.update(extra)
    return meta


def cmd_wave(args) -> int:
    wave = solve_modulus(args.L, args.c)
    samples = sample_wave(wave, args.N)
    x = grid_points(wave.L, args.N)
    _write_csv(args.out + ".csv", ("x", "h", "h1", "h2"), _wave_blocks(x, samples))
    _write_json(args.out + ".json", _metadata(args, wave, a=wave.a, b=wave.b,
                                               ode_residual=ode_residual(wave, samples)))
    return 0


def cmd_spectrum(args) -> int:
    from .spectral import full_report  # only `spectrum` loads the spectral layer

    report = full_report(args.L, args.c, args.N)
    _write_json(args.out + ".json", report)
    return 0


def _evolve_batch(group: list) -> list:
    """Evolve jobs that differ only in eps, seed and --out as one trajectory batch.

    Returns (wave, sample_every, trace or BlowUpError) per job, in order; each
    trace is bit for bit the one the job gets alone.
    """
    from .evolution import horizon_steps, perturbation_random, run_experiment

    lead = group[0]
    wave = solve_modulus(lead.L, lead.c)
    sample_every = max(1, horizon_steps(lead.T, lead.dt) // 500)
    members = [(job.eps, perturbation_random(wave.L, job.N, job.seed) if job.eps > 0.0 else None)
               for job in group]
    outcomes = run_experiment(wave, members, lead.T, lead.dt, sample_every,
                              N=lead.N, projected=lead.projected)
    return [(wave, sample_every, outcome) for outcome in outcomes]


def cmd_evolve(args, run=None) -> int:
    """Write one job's trace and metadata; `run` is its entry of an
    `_evolve_batch`, and None evolves the job alone."""
    from .evolution import TRACE_COLUMNS

    wave, sample_every, trace = run or _evolve_batch([args])[0]
    if isinstance(trace, BlowUpError):
        raise trace
    meta = _metadata(args, wave, sample_every=sample_every)
    if args.command == "stability":
        max_dist = float(np.max(trace.column("orbit_distance")))
        ratio = max_dist / args.eps
        if not math.isfinite(ratio):  # JSON has no inf or nan
            raise OutOfRangeError(f"--eps {args.eps!r} is too small: stability ratio {ratio!r}")
        meta.update(max_orbit_distance=max_dist, stability_ratio=ratio)
    _write_csv(args.out + ".csv", TRACE_COLUMNS, _table_blocks(trace.samples))
    _write_json(args.out + ".json", meta)
    return 0


def _parse_sweep_config(path: str) -> list[dict]:
    """key = value lines; comma-separated values expand to a cartesian product.

    A key given on two lines is an error, not an override, and so is an
    `out` key, which `sweep --out` would override.
    """
    entries: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    try:
        with open(path) as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read sweep config {path}: {exc.strerror}") from exc
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ValueError(f"{path}:{lineno}: key {key!r} given twice, "
                             f"on lines {entries[key][0]} and {lineno}")
        entries[key] = (lineno, value)
    if "command" not in entries:
        raise ValueError(f"{path}: sweep config needs a 'command' entry")
    if entries["command"][1] not in ("wave", "spectrum", "evolve", "stability"):
        raise ValueError(f"{path}: cannot sweep command {entries['command'][1]!r}")
    if "out" in entries:  # each job's --out is sweep --out's prefix and its index
        raise ValueError(f"{path}:{entries['out'][0]}: key 'out' cannot be swept; "
                         f"sweep --out sets every job's output prefix")
    keys = sorted(entries)
    values = ([v.strip() for v in entries[k][1].split(",")] for k in keys)
    return [dict(zip(keys, combo)) for combo in itertools.product(*values)]


# A sweep job's `projected` value, case-insensitively, -> its flag.
_PROJECTED_FLAGS = {"true": "--projected", "1": "--projected", "yes": "--projected",
                    "false": "--unprojected", "0": "--unprojected", "no": "--unprojected"}


def _check_sweep_job(parser, idx: int, job: dict, out_prefix: str):
    """Parse and check one job's flags: (args or None, exit code, argv text)."""
    argv = [job["command"]]
    for key, value in job.items():
        if key == "command":
            continue
        if key == "projected":
            argv.append(_PROJECTED_FLAGS.get(value.lower(), f"--projected={value}"))
        else:
            argv.extend([f"--{key}", value])
    argv.extend(["--out", f"{out_prefix}_{idx:04d}"])
    text = " ".join(argv)
    try:
        projected = job.get("projected")
        if projected is not None and projected.lower() not in _PROJECTED_FLAGS:
            raise ValueError(f"projected must be one of {', '.join(_PROJECTED_FLAGS)} "
                             f"(any case), got {projected!r}")
        args = parser.parse_args(argv)
        _check_args(args)
    except SystemExit:  # argparse rejected the job's keys and printed why
        return None, 2, text
    except _DOCUMENTED as exc:
        return None, _report(exc), text
    return args, 0, text


def _work_units(checked: list) -> list:
    """Group the checked (idx, args, argv text) jobs into batches.

    evolve/stability jobs that differ only in eps, seed and --out form one
    batch; every other job runs alone.
    """
    groups: dict = {}
    for idx, args, text in checked:
        key = (idx,)
        if args.command in ("evolve", "stability"):
            key = tuple(sorted((k, v) for k, v in vars(args).items()
                               if k not in ("eps", "seed", "out")))
        groups.setdefault(key, []).append((idx, args, text))
    return list(groups.values())


def _run_sweep_job(unit: list) -> list[tuple[int, int, str]]:
    """Run one batch of checked (idx, args, argv text) jobs: (idx, exit code, argv text) each."""
    runs = [None] * len(unit)
    if len(unit) > 1:
        try:
            runs = _evolve_batch([args for _, args, _ in unit])
        except Exception:  # each job reruns alone, so that a failure stays its own
            pass
    results = []
    for (idx, args, text), run in zip(unit, runs):
        try:
            code = _dispatch(args, run)
        except Exception as exc:  # one job's failure must not stop the others
            print(f"sweep job {idx} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
        results.append((idx, code, text))
    return results


def cmd_sweep(args) -> int:
    parser = _parser()
    results, checked = [], []
    for idx, job in enumerate(_parse_sweep_config(args.config)):
        job_args, code, text = _check_sweep_job(parser, idx, job, args.out)
        if job_args is None:
            results.append((idx, code, text))
        else:
            checked.append((idx, job_args, text))
    for unit in _work_units(checked):
        results.extend(_run_sweep_job(unit))
    worst = 0
    for idx, code, argv in sorted(results):
        if code != 0:
            print(f"sweep job {idx} failed with exit {code}: {argv}", file=sys.stderr)
            worst = max(worst, code)
    return worst


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: a sweep key such as `ep` must not be read as --eps
    parser = argparse.ArgumentParser(
        prog="snoidal", allow_abbrev=False,
        description="Snoidal traveling waves of the phi^4 equation: profiles, "
                    "spectra, and orbital-stability experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_wave_flags(p):
        p.add_argument("--L", type=float, required=True, help="spatial period, in (0, 2*pi)")
        p.add_argument("--c", type=float, required=True, help="wave speed")
        p.add_argument("--N", type=int, default=256, help="grid size (even)")
        p.add_argument("--out", type=str, default=None, help="output path prefix")

    p_wave = sub.add_parser("wave", allow_abbrev=False, help="construct one snoidal profile")
    add_wave_flags(p_wave)

    p_spec = sub.add_parser("spectrum", allow_abbrev=False,
                            help="linearized-operator spectral report")
    add_wave_flags(p_spec)

    for name, help_text in (("evolve", "run the projected flow"),
                            ("stability", "evolve and report max distance / eps")):
        p = sub.add_parser(name, allow_abbrev=False, help=help_text)
        add_wave_flags(p)
        p.add_argument("--dt", type=float, default=1e-3, help="time step")
        p.add_argument("--T", type=float, default=100.0, help="time horizon")
        p.add_argument("--eps", type=float, default=0.0, help="perturbation amplitude")
        p.add_argument("--seed", type=int, default=0, help="perturbation RNG seed (PCG64)")
        p.add_argument("--projected", dest="projected", action="store_true", default=True,
                       help="evolve the zero-mean projected flow (default)")
        p.add_argument("--unprojected", dest="projected", action="store_false",
                       help="evolve the plain flow (contrast mode)")

    p_sweep = sub.add_parser("sweep", allow_abbrev=False,
                             help="run a config file's jobs in this process")
    p_sweep.add_argument("config", type=str, help="key = value file; comma lists sweep")
    p_sweep.add_argument("--out", type=str, default=None, help="output path prefix")
    p_sweep.add_argument("--workers", type=int, choices=(1,), default=1,
                         help="1 only: every sweep runs in the calling process")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` and `cmd_sweep` share, built on first use, not at import."""
    return build_parser()


def _check_args(args) -> None:
    """Reject invalid flags before any compute runs or any file is written."""
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        raise ValueError(f"--out directory {out_dir!r} does not exist")
    if not os.path.basename(args.out):
        raise ValueError(f"--out {args.out!r} names a directory, not a file prefix")
    if args.command == "sweep":
        return  # cmd_sweep checks each job's flags before any job runs
    min_N = 16
    if args.command == "spectrum":  # the grid floor of the layer it loads anyway
        from .spectral import MIN_SPECTRUM_N as min_N
    if args.N < min_N or args.N % 2 != 0:
        raise ValueError(f"--N must be even and at least {min_N}, got {args.N}")
    if args.command not in ("evolve", "stability"):
        return
    from .evolution import horizon_steps  # only evolve/stability load the evolution layer

    horizon_steps(args.T, args.dt)
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    if not 0.0 <= args.eps < math.inf:
        raise ValueError(f"--eps must be nonnegative and finite, got {args.eps}")
    if args.command == "stability" and args.eps == 0.0:
        raise OutOfRangeError("stability runs need a positive --eps")


_DISPATCH = {
    "wave": cmd_wave,
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "stability": cmd_evolve,
    "sweep": cmd_sweep,
}


_DOCUMENTED = (BlowUpError, IndexMismatchError, SingularSystemError, EigenSolveError,
               OutOfRangeError, ModulusBoundaryError, ValueError)


def _report(exc: Exception) -> int:
    """Print the stderr line of a documented failure; returns its exit code."""
    if isinstance(exc, BlowUpError):
        print(f"blow-up at t = {_fmt(exc.time)}: {exc}", file=sys.stderr)
        return 4
    if isinstance(exc, (IndexMismatchError, SingularSystemError, EigenSolveError)):
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return 3
    print(f"invalid parameters: {exc}", file=sys.stderr)
    return 2


def _dispatch(args, run=None) -> int:
    """Run checked flags; `run` is the job's entry of an `_evolve_batch`, if any."""
    try:
        return _DISPATCH[args.command](args) if run is None else cmd_evolve(args, run)
    except _DOCUMENTED as exc:
        return _report(exc)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "out", None) is None:
        args.out = f"snoidal_{args.command}"
    try:
        _check_args(args)
    except _DOCUMENTED as exc:
        return _report(exc)
    return _dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
