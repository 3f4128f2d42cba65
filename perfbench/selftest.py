#!/usr/bin/env python3
"""Fast self-test of the benchmark harness on tiny problem sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the workloads and metrics run.py
measures, that one command (`run.py --workload all`) prints every metric by
name and unit with and without tracing, that no op exits 0 with outputs
that fail their check, that the exact counters repeat between two traced
runs, and that run.py fails without printing a result where the snoidal
sources are missing.  Takes well under a minute; exit status 0 when everything passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import E2E_UNITS, EXACT_COUNTERS, LAYER_UNITS, OUT_DIR, ROOT, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}", flush=True)
    if not ok:
        failures.append(message)


def check_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json has exactly the required keys")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           f"BENCHMARK.json workloads are {list(WORKLOADS)}")
    expect(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"]), "each workload has a one-line why")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    expect({k: m["unit"] for k, m in e2e.items()} == E2E_UNITS,
           "end_to_end metrics and units match run.E2E_UNITS")
    expect(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               and m["better"] in ("lower", "higher") for m in e2e.values()),
           "end_to_end entries carry better and a bound of at most 0.25")
    expect(e2e.get("setup_s", {}).get("better") == "lower"
           and e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()),
           "setup_s is lower-is-better with the largest bound")
    layer = {m["name"]: m for m in spec["per_layer"]}
    expect({k: m["unit"] for k, m in layer.items()} == LAYER_UNITS,
           "per_layer metrics and units match run.LAYER_UNITS")
    expect(all(set(m) == {"name", "unit", "better"} for m in layer.values()),
           "per_layer entries have name, unit and better only")
    names = [w["name"] for w in spec["workloads"]] + list(e2e) + list(layer)
    expect(all(NAME.match(n) for n in names) and len(set(list(e2e) + list(layer)))
           == len(e2e) + len(layer), "names are well formed and unique")
    expect(all(UNIT.match(m["unit"]) for m in [*e2e.values(), *layer.values()]),
           "units are well formed")


def run_all(trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
           "--size", "tiny", "--seconds", "1", "--seed", "7", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    expect(proc.returncode == 0, f"run.py --workload all --trace {trace} exits 0")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == RESULT_KEYS,
           f"trace {trace}: last line has exactly {sorted(RESULT_KEYS)}")
    expect(result["correct"] and result["attempted"] >= 1,
           f"trace {trace}: no op exited 0 with outputs that fail their check "
           f"({result['failed']} of {result['attempted']} ops failed)")
    units = LAYER_UNITS if trace else E2E_UNITS
    missing = []
    for workload in WORKLOADS:
        for name, unit in units.items():
            got = result["metrics"].get(f"{workload}.{name}", {})
            printed = any(re.search(rf"\s{re.escape(name)}\s+\S+ {re.escape(unit)}$", line)
                          for line in lines[:-1])
            if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)) \
                    or not printed:
                missing.append(f"{workload}.{name}")
    expect(not missing, f"trace {trace}: every metric of every workload printed by name and "
                        f"unit{f' (missing {missing})' if missing else ''}")
    return result


def check_bare_directory() -> None:
    """Only BENCHMARK.json and perfbench/: run.py must fail without a result line."""
    OUT_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectrum",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and "correct" not in proc.stdout,
               "without the snoidal sources run.py exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    check_spec()
    run_all(0)
    first = run_all(1)
    second = run_all(1)
    differ = [f"{w}.{n}" for w in WORKLOADS for n in EXACT_COUNTERS
              if first["metrics"][f"{w}.{n}"]["value"] != second["metrics"][f"{w}.{n}"]["value"]]
    expect(not differ, f"exact counters repeat between two traced runs"
                       f"{f' (differ: {differ})' if differ else ''}")
    check_bare_directory()
    print(f"selftest: {'PASS' if not failures else f'{len(failures)} FAILED'}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
