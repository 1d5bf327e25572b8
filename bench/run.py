"""bidarena benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 bench/run.py --workload verify-small|dynamics-random|sweep-global \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from anywhere inside a checkout: the package is imported from the
checkout's `src/`, and nothing outside the checkout is read or written
(working files go to `bench/out/`). Each measurement runs in a child process
(`worker.py`), one at a time: one process sets up and measures, and
SETUP_SAMPLES - 1 more, half before it and half after, only set up, so set-up
time, including the import, is a median over fresh processes.

With `--trace 0` the last line reports the end-to-end metrics: wall_s (mean
time of one pass over the workload's inputs), setup_s, peak_rss_mb (of the
measuring process) and mean_den_digits (digits of the largest final
multiplier denominator of a dynamics run, averaged over the pass's runs). With `--trace 1` it reports the per-layer metrics from traced
passes. The lines before it print every metric, including those not gated,
the exact invariants of the run, and the run's metadata. The last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

wall_s is a mean, not a median, because the speed of a shared machine drifts
over tens of seconds: the mean weighs every second of the timed phase
equally, and on a shared 2-core machine its spread across runs was about
two thirds of the median's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import VERIFY_FAMILIES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-small", "dynamics-random", "sweep-global")
SETUP_SAMPLES = 9
DEADLINE_S = 175  # the whole run, children included, must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "mean_den_digits": "digits"}
# Printed beside the end-to-end metrics but not gated: failed_share is 0 on a
# correct run, converged_share is 0 on dynamics-random at a 4-round cap, and
# max_den_digits, set by the single worst run, swings from 5 to 59 digits
# between verify-small seed windows.
INFO_UNITS = {"failed_share": "ratio", "converged_share": "ratio", "max_den_digits": "digits"}
LAYER_UNITS = {
    "bestresponse.best_response.calls": "count",
    "bestresponse.best_response.self_ms": "ms",
    "bestresponse.contested": "count/call",
    "bestresponse.move_ratio": "ratio",
    "bestresponse.oracle.ms": "ms",
    "bestresponse.quasilinear_check.ms": "ms",
    "mechanisms.min_winning_bid.calls": "count",
    "mechanisms.min_winning_bid.ms": "ms",
    "mechanisms.run_auction.calls": "count",
    "mechanisms.run_auction.ms": "ms",
    "mechanisms.run_all.calls": "count",
    "mechanisms.run_all.self_ms": "ms",
    "mechanisms.calibrate_ms": "ms",
    "model.optimal_welfare.calls": "count",
    "model.optimal_welfare.ms": "ms",
    "model.bids_from.ms": "ms",
    "equilibrium.rounds": "count",
    "equilibrium.round_ms": "ms",
    "equilibrium.run_dynamics.self_ms": "ms",
    "equilibrium.diagnostics.ms": "ms",
    "rationals.threshold_digits_max": "digits",
    "verify.checks": "count",
    **{f"verify.{family}.ms": "ms" for family in VERIFY_FAMILIES},
    "instances.generate_ms": "ms",
    "cli.format_ms": "ms",
    "trace.overhead_s": "s",
}
# Times that some workload never spends are printed but not gated, so that no
# gated time reads 0 on every run of a workload.
NOT_EVERY_WORKLOAD = {"bestresponse.oracle.ms", "bestresponse.quasilinear_check.ms",
                      "mechanisms.calibrate_ms", "equilibrium.diagnostics.ms",
                      "cli.format_ms", *(n for n in LAYER_UNITS if n.startswith("verify.")
                                         and n.endswith(".ms"))}
PER_LAYER_UNITS = {n: u for n, u in LAYER_UNITS.items() if n not in NOT_EVERY_WORKLOAD}


def metadata(seed: int) -> dict:
    """Where and on what the run happened; information, not gated metrics."""
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        sha = ref
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"git_sha": sha, "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg(),
            "seed": seed, "src_lines": src_lines}


def run_worker(config: dict, deadline: float) -> dict:
    """Run worker.py to completion (killed at the deadline) and parse its result."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(config)],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "bidarena" / "__init__.py").is_file():
        print(f"bench: no bidarena sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    meta = metadata(args.seed)
    config = {"root": str(ROOT), "workload": args.workload, "seed": args.seed,
              "size": args.size, "seconds": args.seconds, "trace": args.trace}
    # Set-up samples are split around the measurement, so that their median
    # spans the same stretch of machine load as the passes.
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        setups = [run_worker({**config, "mode": "setup"}, deadline)["setup_s"]
                  for _ in range(extra // 2)]
        result = run_worker({**config, "mode": "measure"}, deadline)
        setups.append(result["setup_s"])
        setups += [run_worker({**config, "mode": "setup"}, deadline)["setup_s"]
                   for _ in range(extra - extra // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    passes = result["pass_s"]
    runs = result["dynamics_runs"]
    end_to_end = {
        "wall_s": statistics.fmean(passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "mean_den_digits": result["mean_den_digits"],
    }
    info = {"failed_share": result["failed"] / result["attempted"],
            "converged_share": result["converged"] / runs if runs else 0.0,
            "max_den_digits": result["max_den_digits"]}
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    print("meta " + json.dumps(meta))
    print(f"passes untraced {len(passes)} {[round(p, 4) for p in passes]} "
          f"traced {len(result['traced_pass_s'])} "
          f"{[round(p, 4) for p in result['traced_pass_s']]}; "
          f"set-up samples {[round(s, 4) for s in setups]}")
    if args.trace:
        # End-to-end figures come only from untraced runs; none are printed here.
        layers = result["layers"]
        for name, unit in LAYER_UNITS.items():
            print(f"layer {name} {layers[name]} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        for name, unit in END_TO_END_UNITS.items():
            print(f"metric {name} {end_to_end[name]} {unit}")
        for name, unit in INFO_UNITS.items():
            print(f"metric {name} {info[name]} {unit}")
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(f"invariant dynamics_runs {runs} converged {result['converged']}")
    for digest in result["sha256"]:
        print(f"invariant output_sha256 {digest}")
    for key, value in result["invariants"].items():
        print(f"invariant {key} {value}")
    for failure in result["failures"]:
        print(f"failure {failure}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
