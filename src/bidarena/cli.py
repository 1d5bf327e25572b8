"""Command line interface.

    arena run <instance.json> --mechanism bidder-dep
    arena sweep-global --delta 1/4 --gamma 0:2:200 --out sweep.csv
    arena verify --seeds 200
    arena generate counterexample --delta 1/8 --out hard.json
    arena debug-br <instance.json> --mechanism auction-dep --bidder 0 --profile 1,3/2

Output is deterministic byte for byte: rationals are printed exactly ("p/q"
in reports, with a 12-significant-digit decimal mirror in CSV for plotting),
and nothing depends on iteration order or wall-clock time.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from .bestresponse import best_response_against_bids, threshold_table
from .equilibrium import Diagnostics, EquilibriumReport, run_dynamics
from .instances import counterexample, instance_to_json, load, random_instance, \
    RandomFamilyParams
from .mechanisms import Bids, GlobalCostMultiplier, mechanism_from_label, mechanism_label, \
    mechanism_to_json
from .model import MultiplierProfile
from .rationals import decimal_text, format_ratio, parse_rational
from .verify import run_verify_suite

CSV_HEADER = ["mechanism", "param_name", "param_value", "welfare", "opt", "ratio",
              "converged", "rounds", "param_value_dec", "welfare_dec", "opt_dec",
              "ratio_dec"]


def report_to_json(report: EquilibriumReport, mechanism) -> dict:
    return {
        "mechanism": mechanism_label(mechanism),
        "mechanism_params": mechanism_to_json(mechanism),
        "converged": report.converged,
        "rounds_used": report.rounds_used,
        "verified": report.verified,
        "profile": [format_ratio(t) for t in report.profile.multipliers],
        "winners": list(report.outcome.winners),
        "welfare": format_ratio(report.welfare),
        "opt": format_ratio(report.opt),
        "poa": None if report.poa is None else format_ratio(report.poa),
        "diagnostics": _diagnostics_to_json(report.diagnostics),
    }


def _diagnostics_to_json(diag: Diagnostics | None) -> dict | None:
    if diag is None:
        return None
    return {
        "core_auctions": [sorted(s) for s in diag.core_auctions],
        "aggressive": sorted(diag.aggressive),
        "conservative": sorted(diag.conservative),
        "core_welfare": format_ratio(diag.core_welfare),
        "payment_surplus": format_ratio(diag.payment_surplus),
    }


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_run(args: argparse.Namespace) -> int:
    inst = load(args.instance)
    mechanism = mechanism_from_label(args.mechanism, inst)
    report = run_dynamics(inst, mechanism, args.max_rounds)
    _write_out(json.dumps(report_to_json(report, mechanism), indent=2) + "\n", args.out)
    return 0


def parse_gamma_grid(spec: str) -> list[Fraction]:
    """Parse "start:stop:count" into count+1 evenly spaced exact points."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"gamma grid must be start:stop:count, got {spec!r}")
    start, stop = parse_rational(parts[0]), parse_rational(parts[1])
    count = int(parts[2])
    if count < 1 or stop <= start or start < 0:
        raise ValueError(f"bad gamma grid {spec!r}")
    step = (stop - start) / count
    return [start + step * k for k in range(count + 1)]


def sweep_global(delta: Fraction,
                 gammas: list[Fraction]) -> list[tuple[Fraction, EquilibriumReport]]:
    """(gamma, report) of the dynamics under every global multiplier on the
    worst-case instance, always including the critical multipliers 1 + delta^i."""
    inst = counterexample(delta)
    points = set(gammas)
    for i in range(1, inst.num_bidders + 2):
        points.add(1 + delta ** i)
    rows = []
    for gamma in sorted(points):
        report = run_dynamics(inst, GlobalCostMultiplier(gamma))
        assert report.opt > 0
        rows.append((gamma, report))
    return rows


def sweep_to_csv(rows: list[tuple[Fraction, EquilibriumReport]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for gamma, report in rows:
        writer.writerow([
            "global", "gamma", format_ratio(gamma), format_ratio(report.welfare),
            format_ratio(report.opt), format_ratio(report.poa),
            str(report.converged).lower(), report.rounds_used,
            decimal_text(gamma), decimal_text(report.welfare),
            decimal_text(report.opt), decimal_text(report.poa),
        ])
    peak = max(report.poa for _, report in rows)
    writer.writerow(["global", "max-ratio", format_ratio(peak), "", "",
                     format_ratio(peak), "", "", decimal_text(peak), "", "",
                     decimal_text(peak)])
    return buf.getvalue()


def cmd_sweep_global(args: argparse.Namespace) -> int:
    delta = parse_rational(args.delta)
    rows = sweep_global(delta, parse_gamma_grid(args.gamma))
    _write_out(sweep_to_csv(rows), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    try:
        summary = run_verify_suite(args.seeds)
    except RuntimeError as exc:  # too few positive-optimum seeds; exit 2 as for bad input
        raise ValueError(exc) from exc
    for line in summary.lines:
        print(line)
    if summary.violations:
        print(f"{len(summary.violations)} violation(s):", file=sys.stderr)
        for item in summary.violations[:20]:
            print(f"  {item}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "counterexample":
        inst = counterexample(parse_rational(args.delta))
    else:
        inst = random_instance(RandomFamilyParams(
            num_bidders=args.bidders, num_auctions=args.auctions, seed=args.seed,
            zero_cost_probability=parse_rational(args.zero_cost_prob)))
    _write_out(json.dumps(instance_to_json(inst), indent=2) + "\n", args.out)
    return 0


def cmd_debug_br(args: argparse.Namespace) -> int:
    """Print the threshold table behind one bidder's best response."""
    inst = load(args.instance)
    mechanism = mechanism_from_label(args.mechanism, inst)
    bids = Bids(mechanism, inst, MultiplierProfile.of(args.profile.split(",")))
    table = threshold_table(inst, mechanism, args.bidder, bids)
    reply = best_response_against_bids(inst, mechanism, args.bidder, bids)

    print("auction  threshold  inclusive  ratio  cum_value  cum_payment  feasible")
    cum_value = cum_payment = Fraction(0)
    for ratio, j, t, value in sorted(table):
        cum_value += value
        cum_payment += t.value
        print(f"{j:7d}  {format_ratio(t.value):>9}  {str(t.inclusive).lower():>9}  "
              f"{format_ratio(ratio):>5}  {format_ratio(cum_value):>9}  "
              f"{format_ratio(cum_payment):>11}  {str(cum_value >= cum_payment).lower()}")
    listed = {j for _, j, _, _ in table}
    skipped = [j for j, value in enumerate(inst.values[args.bidder])
               if value and j not in listed]
    if skipped:
        print(f"unwinnable auctions: {skipped}")
    print(f"best multiplier {format_ratio(reply.multiplier)}  "
          f"won {sorted(reply.won_auctions)}  value {format_ratio(reply.total_value)}  "
          f"payment {format_ratio(reply.total_payment)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `arena` parser, built once per process; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="arena",
        description="Deterministic autobidding auction simulator with user costs.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="best-response dynamics on an instance file")
    run.add_argument("instance")
    run.add_argument("--mechanism", required=True,
                     help="second-price | global:<gamma> | single-bidder | "
                          "auction-dep | bidder-dep")
    run.add_argument("--max-rounds", type=int, default=50)
    run.add_argument("--out", help="write JSON here instead of stdout")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep-global",
                           help="welfare of every global multiplier on the worst-case family")
    sweep.add_argument("--delta", required=True, help="family parameter in (0, 1/3)")
    sweep.add_argument("--gamma", default="0:2:200",
                       help="multiplier grid start:stop:count (exact rationals)")
    sweep.add_argument("--out", help="write CSV here instead of stdout")
    sweep.set_defaults(func=cmd_sweep_global)

    ver = sub.add_parser("verify", help="run the seeded property suite")
    ver.add_argument("--seeds", type=int, default=100, help="number of seeded instances")
    ver.set_defaults(func=cmd_verify)

    gen = sub.add_parser("generate", help="write an instance file")
    gen.add_argument("kind", choices=["counterexample", "random"])
    gen.add_argument("--delta", default="1/4", help="counterexample parameter")
    gen.add_argument("--bidders", type=int, default=3)
    gen.add_argument("--auctions", type=int, default=3)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--zero-cost-prob", default="1/8")
    gen.add_argument("--out", help="write JSON here instead of stdout")
    gen.set_defaults(func=cmd_generate)

    dbg = sub.add_parser("debug-br", help="threshold table behind one best response")
    dbg.add_argument("instance")
    dbg.add_argument("--mechanism", required=True)
    dbg.add_argument("--bidder", type=int, required=True)
    dbg.add_argument("--profile", required=True,
                     help="comma-separated rival multipliers (own entry ignored)")
    dbg.set_defaults(func=cmd_debug_br)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"arena: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
