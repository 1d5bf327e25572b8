"""One benchmark process: import bidarena, set up a workload, measure it.

    python3 bench/worker.py '{"root": ..., "workload": ..., "seed": ..., "size": ...,
                              "seconds": ..., "mode": "setup" | "measure", "trace": ...}'

`run.py` starts this process once per set-up sample and once for the
measurement, one at a time, and reads the JSON object it prints last. The
set-up time runs from before `import bidarena` to the end of the workload's
`setup`. A measurement repeats passes over the same inputs while the next
pass is likely to end within `seconds` (always at least one pass). Untraced passes observe only the reports `run_dynamics`
returns; with `trace`, untraced and traced passes alternate, the set-up and
the traced passes record spans of every layer, and each per-layer metric is
the median over traced passes of the set-up's and one pass's spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def main(config: dict) -> dict:
    root = Path(config["root"])
    started = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import bidarena  # noqa: F401  (timed as part of set-up)
    if not Path(bidarena.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"bidarena was imported from {bidarena.__file__}, not {root / 'src'}")
    import tracing
    import workloads

    workdir = root / "bench" / "out" / config["workload"]
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[config["workload"]](
        config["seed"], workloads.SIZES[config["size"]], workdir)
    setup_tracer = tracing.Tracer()
    with setup_tracer.active() if config["trace"] else contextlib.nullcontext():
        workload.setup()
    setup_s = time.perf_counter() - started
    if config["mode"] == "setup":
        return {"setup_s": setup_s}

    reports = []  # every report run_dynamics returned during the last pass

    def observe(run_dynamics):
        def observed(*args, **kwargs):
            report = run_dynamics(*args, **kwargs)
            reports.append(report)
            return report
        return observed

    untraced_s: list[float] = []
    traced_s: list[float] = []
    layers: list[dict[str, float]] = []
    digests: set[str] = set()
    attempted = 0
    failures: list[str] = []
    invariants: dict[str, str] = {}
    begin = time.perf_counter()
    while True:
        traced = bool(config["trace"]) and len(untraced_s) > len(traced_s)
        tracer = tracing.Tracer()
        tracer.spans.extend(setup_tracer.spans)
        reports.clear()
        with (tracing.patched({("bidarena.equilibrium", "run_dynamics"): observe}),
              tracer.active() if traced else contextlib.nullcontext()):
            t = time.perf_counter()
            output = workload.run_pass()
            elapsed = time.perf_counter() - t
        checked = workload.check(output)
        attempted += checked.attempted
        failures.extend(checked.failures)
        invariants.update(checked.invariants)
        digests.add(hashlib.sha256(output).hexdigest())
        if traced:
            traced_s.append(elapsed)
            layers.append(tracing.layer_metrics(tracer.spans))
            if len(layers) == 1:
                tracing.write_spans(tracer.spans, workdir / "spans.jsonl")
        else:
            untraced_s.append(elapsed)
        del tracer  # a live span list would slow the garbage collector in later passes
        # Stop before a pass that would likely end after `seconds`.
        done = time.perf_counter() - begin + elapsed > config["seconds"]
        if done and (traced_s or not config["trace"]):
            break

    if len(digests) != 1:
        failures.append(f"passes printed {len(digests)} different outputs")
        attempted += 1
    layer_medians = {name: statistics.median_low(d[name] for d in layers)
                     for name in layers[0]} if layers else {}
    if layers:
        layer_medians["trace.overhead_s"] = (statistics.fmean(traced_s)
                                             - statistics.fmean(untraced_s))
    # Per dynamics run: digits of the largest denominator among its final multipliers.
    den_digits = [max(len(str(t.denominator)) for t in r.profile.multipliers) for r in reports]
    return {
        "setup_s": setup_s,
        "pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "sha256": sorted(digests),
        "invariants": invariants,
        "dynamics_runs": len(reports),
        "converged": sum(r.converged for r in reports),
        "mean_den_digits": sum(den_digits) / len(den_digits) if den_digits else 0.0,
        "max_den_digits": max(den_digits, default=0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layer_medians,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
