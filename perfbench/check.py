#!/usr/bin/env python3
"""Steadiness checks of the benchmark itself.

    python3 perfbench/check.py --workload stability
    python3 perfbench/check.py --workload all

For each workload this runs perfbench/run.py in fresh processes, for
BENCHMARK.json's run_seconds each, and reports:

* failures: failed_frac of every set, which must be 0, and no wrong output;
* spread: for every end-to-end metric and each of two sets of ten runs (seeds
  SET_SEEDS), the distance between the first and third quartile of the runs
  (``statistics.quantiles(values, n=4)``) as a share of their median, which
  must stay within the metric's bound in BENCHMARK.json;
* sets: the second set's median may not be worse than the first set's by
  more than the bound;
* held-out seed: one run on HELD_OUT_SEED, outside both sets, which may
  differ from the first set's median by no more than the bound, either way;
* exact counters: two traced runs of one seed, whose exact counters
  (run.EXACT_COUNTERS) must be identical;
* span coverage: at least 0.9 in each traced run;
* tracing overhead: traced ops_per_s beside the untraced median.

Exit status 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import EXACT_COUNTERS, OUT_DIR, ROOT, WORKLOADS

SET_SEEDS = (range(1, 11), range(11, 21))
HELD_OUT_SEED = 90001
TRACED_SEED = 1


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    print(f"  {workload} seed {seed} trace {trace}: attempted {result['attempted']}, "
          f"failed {result['failed']}, "
          + ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()
                      if trace == 0 or k in EXACT_COUNTERS or k == "trace.ops_per_s"),
          flush=True)
    return result


def worse_by(value: float, reference: float, better: str) -> float:
    """How much worse `value` is than `reference`, as a share of the reference."""
    change = (value - reference) / reference
    return change if better == "lower" else -change


def check_failures(label: str, runs: list[dict]) -> bool:
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    correct = all(r["correct"] for r in runs)
    good = failed == 0 and correct
    print(f"  {label}: failed_frac {failed / attempted:.4g} ({failed} of {attempted} ops), "
          f"{'no' if correct else 'SOME'} wrong outputs: {'ok' if good else 'FAIL'}")
    return good


def check_workload(workload: str, spec: dict) -> tuple[bool, dict]:
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    ok = True
    record = {"workload": workload, "seconds": seconds, "sets": []}

    print(f"== {workload}: {len(SET_SEEDS)} sets of runs, {seconds} s each", flush=True)
    medians = []
    for s, seeds in enumerate(SET_SEEDS):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        ok &= check_failures(f"set {s + 1}", runs)
        set_medians = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            set_medians[m["name"]] = q2
            good = spread <= m["bound"]
            ok &= good
            note = "" if spread < m["bound"] / 3 else "  (above a third of the bound)"
            print(f"  set {s + 1} {m['name']:12s} median {q2:.6g} {m['unit']}, spread "
                  f"{spread:.4f} vs bound {m['bound']}: {'ok' if good else 'FAIL'}{note}")
        medians.append(set_medians)
        record["sets"].append({"seeds": list(seeds), "results": runs, "medians": set_medians})

    for s in range(1, len(SET_SEEDS)):
        for m in metrics:
            w = worse_by(medians[s][m["name"]], medians[0][m["name"]], m["better"])
            good = w <= m["bound"]
            ok &= good
            print(f"  set {s + 1} vs set 1 {m['name']:12s} worse by {w:+.4f} (bound "
                  f"{m['bound']}): {'ok' if good else 'FAIL'}")

    held = run_once(workload, HELD_OUT_SEED, seconds, 0)
    ok &= check_failures(f"held-out seed {HELD_OUT_SEED}", [held])
    for m in metrics:
        w = worse_by(held["metrics"][m["name"]]["value"], medians[0][m["name"]], m["better"])
        good = abs(w) <= m["bound"]
        ok &= good
        print(f"  held-out seed {HELD_OUT_SEED} {m['name']:12s} worse by {w:+.4f} than the "
              f"set-1 median (|change| within {m['bound']}): {'ok' if good else 'FAIL'}")
    record["held_out"] = held

    traced = [run_once(workload, TRACED_SEED, seconds, 1) for _ in range(2)]
    ok &= check_failures("traced runs", traced)
    for name in EXACT_COUNTERS:
        a, b = (t["metrics"][name]["value"] for t in traced)
        same = a == b
        ok &= same
        print(f"  exact counter {name}: {a!r} and {b!r}: {'identical' if same else 'DIFFER'}")
    untraced = medians[0]["ops_per_s"]
    for t in traced:
        tops = t["metrics"]["trace.ops_per_s"]["value"]
        cover = t["metrics"]["trace.coverage"]["value"]
        ok &= cover >= 0.9
        print(f"  tracing: ops_per_s {tops:.5g} traced vs {untraced:.5g} untraced median, "
              f"overhead {1.0 - tops / untraced:+.3f}; span coverage {cover:.4f} "
              f"(at least 0.9: {'ok' if cover >= 0.9 else 'FAIL'})")
    record["traced"] = traced
    return ok, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="steadiness checks of the benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    args = parser.parse_args(argv)
    spec = bench_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_ok = True
    OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        ok, record = check_workload(name, spec)
        all_ok &= ok
        (OUT_DIR / f"check-{name}.json").write_text(json.dumps(record, indent=1))
        print(f"== {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
