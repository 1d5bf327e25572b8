"""Span tracing of bidarena's layers, applied from outside the package.

Each traced function is replaced, for the duration of a `patched` block, by a
wrapper that records a span (name, start, end, parent, attribute). The
package copies references with `from ... import`, so a function is replaced
under every name in every `bidarena` module that holds it, not only in the
module that defines it. Spans stay in memory; `layer_metrics` turns them into
per-layer counts and times, and `write_spans` stores them when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from typing import Callable, Iterator

# Span layer name -> (defining module, function). Calibration and instance
# production have several entry points; their names group them below.
LAYERS = {
    "bestresponse.best_response": ("bidarena.bestresponse", "best_response_against_bids"),
    "bestresponse.oracle": ("bidarena.bestresponse", "best_response_oracle"),
    "bestresponse.quasilinear_check": ("bidarena.bestresponse", "quasilinear_best_bid_check"),
    "mechanisms.min_winning_bid": ("bidarena.mechanisms", "min_winning_bid"),
    "mechanisms.run_auction": ("bidarena.mechanisms", "run_auction"),
    "mechanisms.run_all": ("bidarena.mechanisms", "run_all"),
    "mechanisms.mechanism_from_label": ("bidarena.mechanisms", "mechanism_from_label"),
    "mechanisms.compute_auction_params": ("bidarena.mechanisms", "compute_auction_params"),
    "mechanisms.compute_bidder_params": ("bidarena.mechanisms", "compute_bidder_params"),
    "mechanisms.calibrate_single_bidder": ("bidarena.mechanisms", "calibrate_single_bidder"),
    "model.optimal_welfare": ("bidarena.model", "optimal_welfare"),
    "model.bids_from": ("bidarena.model", "bids_from"),
    "equilibrium.run_dynamics": ("bidarena.equilibrium", "run_dynamics"),
    "equilibrium.diagnostics": ("bidarena.equilibrium", "diagnostics"),
    "instances.random_instance": ("bidarena.instances", "random_instance"),
    "instances.counterexample": ("bidarena.instances", "counterexample"),
    "instances.load": ("bidarena.instances", "load"),
    "instances.save": ("bidarena.instances", "save"),
    "cli.report_to_json": ("bidarena.cli", "report_to_json"),
    "cli.sweep_to_csv": ("bidarena.cli", "sweep_to_csv"),
}
VERIFY_FAMILIES = ("equilibrium_family", "single_bidder_family", "accounting_checks",
                   "truthfulness_probes", "myerson_checks", "oracle_agreement",
                   "welfare_cap_checks")
LAYERS.update({f"verify.{name}": ("bidarena.verify", name) for name in VERIFY_FAMILIES})

CALIBRATION = {"mechanisms.mechanism_from_label", "mechanisms.compute_auction_params",
               "mechanisms.compute_bidder_params", "mechanisms.calibrate_single_bidder"}
INSTANCES = {"instances.random_instance", "instances.counterexample", "instances.load",
             "instances.save"}
FORMATTING = {"cli.report_to_json", "cli.sweep_to_csv"}


def digits(x) -> int:
    """Decimal digits of the larger of a rational's numerator and denominator."""
    return max(len(str(abs(x.numerator))), len(str(x.denominator)))


def _threshold_attr(args, result):
    # Digits of a finite threshold, None for an infinite one.
    value = result.value
    return digits(value) if hasattr(value, "denominator") else None


def _moved_attr(args, result):
    # True when the reply differs from the multiplier the bidder's bid row shows.
    inst, _spec, bidder, bid_rows = args
    for v, bid in zip(inst.values[bidder], bid_rows[bidder]):
        if v:
            return bid != result.multiplier * v
    return False


def _checks_attr(args, result):
    return result.runs if hasattr(result, "runs") else result.checks


ATTRS: dict[str, Callable] = {
    "mechanisms.min_winning_bid": _threshold_attr,
    "bestresponse.best_response": _moved_attr,
    "equilibrium.run_dynamics": lambda args, result: result.rounds_used,
}
ATTRS.update({f"verify.{name}": _checks_attr for name in VERIFY_FAMILIES})


@contextlib.contextmanager
def patched(replacements: dict[tuple[str, str], Callable]) -> Iterator[None]:
    """Replace each (module, function) by factory(function) in every bidarena
    module that refers to it, and put the originals back on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "bidarena" or name.startswith("bidarena."))]
    undo = []
    try:
        for (module_name, attr), factory in replacements.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = factory(original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        yield
    finally:
        for module, key, original in reversed(undo):
            setattr(module, key, original)


class Tracer:
    """Collects spans as [name, start_ns, end_ns, parent_index, attribute]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _factory(self, name: str) -> Callable[[Callable], Callable]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        attr = ATTRS.get(name)

        def factory(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                record = [name, clock(), 0, stack[-1] if stack else -1, None]
                stack.append(len(spans))
                spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    record[2] = clock()
                if attr is not None:
                    record[4] = attr(args, result)
                return result
            return wrapper
        return factory

    def active(self) -> contextlib.AbstractContextManager:
        """Trace every layer in LAYERS while the block runs."""
        return patched({target: self._factory(name) for name, target in LAYERS.items()})


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times (ms) from one traced pass.

    Self time is a span's duration minus the time its direct children cover.
    """
    n = len(spans)
    child_ns = [0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for k, (name, start, end, parent, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + (end - start)
        self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[k])

    def top_level_ms(group: set[str]) -> float:
        # Time in a group of entry points, counting nested calls within the group once.
        return sum(end - start for name, start, end, parent, _ in spans
                   if name in group and (parent < 0 or spans[parent][0] not in group)) / 1e6

    br = "bestresponse.best_response"
    contested = moved = 0
    digits_max = 0
    rounds = 0
    loop_ns = 0
    first_run_all: dict[int, int] = {}
    checks = 0
    for name, start, end, parent, attr in spans:
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "mechanisms.min_winning_bid" and attr is not None:
            digits_max = max(digits_max, attr)
            if parent_name == br:
                contested += 1
        elif name == br and attr:
            moved += 1
        elif name == "mechanisms.run_all" and parent_name == "equilibrium.run_dynamics":
            first_run_all.setdefault(parent, start)
        elif name.startswith("verify.") and not (parent_name or "").startswith("verify."):
            checks += attr
    for k, (name, start, end, parent, attr) in enumerate(spans):
        if name == "equilibrium.run_dynamics":
            rounds += attr
            # The round loop is everything before the final run_all.
            loop_ns += first_run_all.get(k, end) - start

    def ms(table: dict[str, int], name: str) -> float:
        return table.get(name, 0) / 1e6

    br_calls = calls.get(br, 0)
    out = {
        "bestresponse.best_response.calls": br_calls,
        "bestresponse.best_response.self_ms": ms(self_ns, br),
        "bestresponse.contested": contested / br_calls if br_calls else 0.0,
        "bestresponse.move_ratio": moved / br_calls if br_calls else 0.0,
        "bestresponse.oracle.ms": ms(total_ns, "bestresponse.oracle"),
        "bestresponse.quasilinear_check.ms": ms(total_ns, "bestresponse.quasilinear_check"),
        "mechanisms.min_winning_bid.calls": calls.get("mechanisms.min_winning_bid", 0),
        "mechanisms.min_winning_bid.ms": ms(total_ns, "mechanisms.min_winning_bid"),
        "mechanisms.run_auction.calls": calls.get("mechanisms.run_auction", 0),
        "mechanisms.run_auction.ms": ms(total_ns, "mechanisms.run_auction"),
        "mechanisms.run_all.calls": calls.get("mechanisms.run_all", 0),
        "mechanisms.run_all.self_ms": ms(self_ns, "mechanisms.run_all"),
        "mechanisms.calibrate_ms": top_level_ms(CALIBRATION),
        "model.optimal_welfare.calls": calls.get("model.optimal_welfare", 0),
        "model.optimal_welfare.ms": ms(total_ns, "model.optimal_welfare"),
        "model.bids_from.ms": ms(total_ns, "model.bids_from"),
        "equilibrium.rounds": rounds,
        "equilibrium.round_ms": loop_ns / 1e6 / rounds if rounds else 0.0,
        "equilibrium.run_dynamics.self_ms": ms(self_ns, "equilibrium.run_dynamics"),
        "equilibrium.diagnostics.ms": ms(total_ns, "equilibrium.diagnostics"),
        "rationals.threshold_digits_max": digits_max,
        "verify.checks": checks,
        "instances.generate_ms": top_level_ms(INSTANCES),
        "cli.format_ms": top_level_ms(FORMATTING),
    }
    for family in VERIFY_FAMILIES:
        out[f"verify.{family}.ms"] = ms(total_ns, f"verify.{family}")
    return out


def write_spans(spans: list[list], path) -> None:
    """One JSON array per line: name, start_ns, end_ns, parent index, attribute."""
    with open(path, "w") as fh:
        for record in spans:
            fh.write(json.dumps(record, separators=(",", ":")))
            fh.write("\n")
