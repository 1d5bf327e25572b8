"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Every bound is checked exactly (Fraction comparisons); runtime budgets are
asserted with wall-clock measurements. Lines are printed with capture
disabled so they stay visible in the normal pytest output.
"""

import time
from fractions import Fraction

from bidarena.cli import parse_gamma_grid, sweep_global
from bidarena.instances import counterexample
from bidarena.mechanisms import GlobalCostMultiplier, run_auction
from bidarena.model import Instance, optimal_welfare
from bidarena.verify import (HALF, QUARTER, equilibrium_family, family_instance,
                             accounting_checks, myerson_checks, oracle_agreement,
                             single_bidder_family, truthfulness_probes)

F = Fraction


def report(capsys, name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_global_multiplier_sweep(capsys):
    budget = 10.0
    expected_peak = {F(1, 4): F(5, 8), F(1, 8): F(11, 32), F(1, 16): F(23, 128)}
    grid = parse_gamma_grid("0:2:200")
    start = time.monotonic()
    peaks = {}
    for delta in (F(1, 4), F(1, 8), F(1, 16)):
        rows = sweep_global(delta, grid)
        assert len(rows) >= 201
        peaks[delta] = max(report.poa for _, report in rows)
    elapsed = time.monotonic() - start
    ok = elapsed < budget
    for delta, peak in peaks.items():
        ok = ok and peak <= 3 * delta and peak == expected_peak[delta]
    detail = ("max welfare ratio per delta " +
              ", ".join(f"{d}: {p} (cap {3 * d})" for d, p in peaks.items()) +
              f"; grid 201 points plus critical multipliers; {elapsed:.2f}s < {budget:.0f}s")
    report(capsys, "criterion 1 (global multiplier sweep stays under 3*delta)", ok, detail)


def test_criterion_02_counterexample_structure(capsys):
    budget = 1.0
    delta = F(1, 4)
    start = time.monotonic()
    inst = counterexample(delta)
    n = inst.num_bidders
    ok = optimal_welfare(inst) == 4 == n
    for i in range(1, n + 1):
        v = inst.values[i - 1][2 * i - 1]
        c = inst.costs[i - 1][2 * i - 1]
        total_v = sum(inst.values[i - 1], F(0))
        total_c = sum(inst.costs[i - 1], F(0))
        ok = ok and v / c == 1 + delta ** i
        ok = ok and total_v / total_c > 1 + delta ** (i + 1)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < budget
    report(capsys, "criterion 2 (worst-case family structure)", ok,
           f"opt = 4 = bidder count; spike ratios 1+delta^i and per-bidder "
           f"value/cost ratios exact; {elapsed:.2f}s < {budget:.0f}s")


def test_criterion_03_auction_dependent_welfare_floor(capsys):
    budget = 60.0
    start = time.monotonic()
    stats = equilibrium_family("auction-dep", range(500), welfare_floor=HALF)
    elapsed = time.monotonic() - start
    rate = F(stats.converged, stats.runs)
    ok = (stats.runs == 500 and not stats.violations and rate >= F(9, 10)
          and elapsed < budget)
    report(capsys, "criterion 3 (auction-dependent equilibria keep half the optimum)", ok,
           f"runs=500 converged={stats.converged} (rate {rate}) "
           f"floor-checked={stats.bound_checked} violations={len(stats.violations)}; "
           f"{elapsed:.2f}s < {budget:.0f}s")


def test_criterion_04_bidder_dependent_welfare_floor(capsys):
    budget = 60.0
    start = time.monotonic()
    stats = equilibrium_family("bidder-dep", range(500), welfare_floor=QUARTER)
    elapsed = time.monotonic() - start
    rate = F(stats.converged, stats.runs)
    ok = (stats.runs == 500 and not stats.violations and rate >= F(9, 10)
          and elapsed < budget)
    report(capsys, "criterion 4 (bidder-dependent equilibria keep a quarter of the optimum)", ok,
           f"runs=500 converged={stats.converged} (rate {rate}) "
           f"floor-checked={stats.bound_checked} violations={len(stats.violations)}; "
           f"{elapsed:.2f}s < {budget:.0f}s")


def test_criterion_05_welfare_accounting_bounds(capsys):
    start = time.monotonic()
    stats = accounting_checks(range(500))
    elapsed = time.monotonic() - start
    ok = not stats.violations and stats.checks > 0
    report(capsys, "criterion 5 (core auctions keep half the margin; both accounting "
           "bounds stay under welfare)", ok,
           f"checks={stats.checks} violations={len(stats.violations)}; {elapsed:.2f}s")


def test_criterion_06_truthfulness_and_payment_consistency(capsys):
    budget = 30.0
    start = time.monotonic()
    multi = truthfulness_probes(range(200))
    single = truthfulness_probes(range(420), single_bidder=True)
    payments = myerson_checks(range(200))
    elapsed = time.monotonic() - start
    # Each of the five mechanisms is probed on every seed of its family, so
    # the per-mechanism probe count is the per-seed (bidder x auction) total.
    per_mechanism = sum(
        family_instance(s).num_bidders * family_instance(s).num_auctions
        for s in range(200))
    violations = len(multi.violations) + len(single.violations) + len(payments.violations)
    ok = (per_mechanism >= 1000 and single.checks >= 1000 and violations == 0
          and elapsed < budget)
    report(capsys, "criterion 6 (truthful bidding is optimal; payment equals the "
           "critical bid)", ok,
           f"probes per mechanism >= {min(per_mechanism, single.checks)} "
           f"(multi {multi.checks} across five, single-bidder {single.checks}), "
           f"cleared-auction payment checks {payments.checks}, "
           f"violations={violations}; {elapsed:.2f}s < {budget:.0f}s")


def test_criterion_07_single_bidder_full_efficiency(capsys):
    budget = 5.0
    start = time.monotonic()
    stats = single_bidder_family(200)
    elapsed = time.monotonic() - start
    ok = (stats.runs == 200 and stats.bound_checked == 200
          and not stats.violations and elapsed < budget)
    report(capsys, "criterion 7 (calibrated single-bidder markets settle at the optimum)", ok,
           f"runs=200 converged+verified={stats.bound_checked} poa=1 on all, "
           f"violations={len(stats.violations)}; {elapsed:.2f}s < {budget:.0f}s")


def test_criterion_08_second_price_zero_cost_floor(capsys):
    start = time.monotonic()
    stats = equilibrium_family("second-price", range(500), welfare_floor=HALF,
                               zero_cost_probability=F(1))
    elapsed = time.monotonic() - start
    ok = stats.runs == 500 and not stats.violations
    report(capsys, "criterion 8 (second price keeps half the optimum without user costs)", ok,
           f"runs=500 floor-checked={stats.bound_checked} "
           f"violations={len(stats.violations)}; {elapsed:.2f}s")


def test_criterion_09_best_response_matches_brute_force(capsys):
    budget = 30.0
    start = time.monotonic()
    stats = oracle_agreement(range(250))
    elapsed = time.monotonic() - start
    ok = stats.checks >= 1000 and not stats.violations and elapsed < budget
    report(capsys, "criterion 9 (exact best response agrees with the sampled oracle)", ok,
           f"problems={stats.checks} violations={len(stats.violations)}; "
           f"{elapsed:.2f}s < {budget:.0f}s")


def test_criterion_10_golden_auction(capsys):
    inst = Instance.from_rows([[5], [3], [4]], [[1], [2], [1]])
    result = run_auction(GlobalCostMultiplier(F(1)), inst, 0, [F(5), F(3), F(4)])
    ok = (result.winner == 0 and result.payment == F(4)
          and isinstance(result.payment, Fraction))
    report(capsys, "criterion 10 (three-bidder cost-adjusted golden auction)", ok,
           f"winner index {result.winner} (first bidder), payment {result.payment!r}")
