"""Smoke check of the benchmark itself, at a tiny size (about a minute).

    python3 bench/smoke.py

Runs every workload untraced and traced with `--size tiny --seconds 1` and
checks that each run is correct, prints every metric by name with its unit,
and ends with the JSON line that BENCHMARK.json describes. It also checks
that a copy of the benchmark without the package's sources fails without
printing a result. It is not part of the test suite under tests/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, root: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          stdout=subprocess.PIPE, text=True, cwd=root, timeout=180)


def check_run(workload: str, trace: int) -> None:
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}"
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result

    gated = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in gated}, result["metrics"]
    for metric in gated:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], (metric, reported)
        assert isinstance(reported["value"], (int, float)), reported

    kind, units = ("layer", run.LAYER_UNITS) if trace else (
        "metric", {**run.END_TO_END_UNITS, **run.INFO_UNITS})
    printed = {}
    for line in lines[:-1]:
        words = line.split()
        if words[0] == kind:
            printed[words[1]] = words[3]
    assert printed == units, f"{workload}: printed {printed}, expected {units}"
    print(f"ok {workload} trace {trace}: {len(printed)} metrics, "
          f"{result['attempted']} operations checked")


def check_without_sources() -> None:
    bare = run.HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "bench", ignore=shutil.ignore_patterns("out"))
        proc = bench("--workload", "sweep-global", "--seed", "1", "--seconds", "1",
                     "--trace", "0", root=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    finally:
        shutil.rmtree(bare)
    print("ok without sources: exit", proc.returncode)


def main() -> int:
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
