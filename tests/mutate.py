"""Seeded mutants that the tests must kill: `python3 tests/mutate.py [NAME ...]`.

Each entry of MUTANTS names one fault: an exact piece of text in one file of
the package (or of a test reference) and what replaces it. For each mutant in
turn the script copies `src/`, `tests/` and `pyproject.toml` into a fresh
temporary directory outside the checkout, writes the mutant into the copy and
runs `pytest -x` on the mutant's test files there, one process at a time,
under the `mutants` hypothesis profile of `tests/conftest.py`, which does not
shrink: the first failing example already kills a mutant. It prints each
mutant as killed or survived with its seconds, and exits 1 when a mutant
survives, when pytest cannot run its files (an error other than a
failing test), or when a mutant's old text does not occur exactly once in its
file, so the table keeps in step with the code. The checkout is only read.
Given names, it runs only the mutants whose names contain one of them as a
substring (`python3 tests/mutate.py reuse: rivals:`), and exits 1 when none
does; with none, the whole table.

The tests must pass on the unmutated tree, as tier-1 checks first; a mutant
is killed only by a failing test. Pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MECH, BR, EQ = "src/bidarena/mechanisms.py", "src/bidarena/bestresponse.py", \
    "src/bidarena/equilibrium.py"
KERNEL = ("tests/test_kernel_reference.py",)
SWEEP = ("tests/test_bestresponse_reference.py",)
DYNAMICS = ("tests/test_dynamics_reference.py",)

MUTANTS = [
    # The auction kernel, against `tests/reference_mechanisms.py`.
    Mutant("scan: a bid equal to its reserve is ineligible", MECH,
           "if r is None or (r and p < q * r):", "if r is None or (r and p <= q * r):", KERNEL),
    Mutant("scan: second place goes to the later of two tied bidders", MECH,
           "elif second_a is None or a * second_q > second_a * q:",
           "elif second_a is None or a * second_q >= second_a * q:", KERNEL + DYNAMICS),
    Mutant("least bid: a reserve tie is priced from the rival side", MECH,
           "if own * q <= price:", "if own * q < price:", KERNEL),
    Mutant("least bid: a score tie goes to the higher index", MECH,
           "return price, q, bidder < rival", "return price, q, bidder > rival", KERNEL),
    Mutant("priced: the payment drops the score's denominator", MECH,
           "Fraction(pay, q * mk.scale[auction])", "Fraction(pay, mk.scale[auction])", KERNEL),
    Mutant("threshold: read from auction 0's standing", MECH,
           "_least_bid(mk, auction, bidder, bids.standings[auction])",
           "_least_bid(mk, auction, bidder, bids.standings[0])", SWEEP + KERNEL),
    Mutant("threshold: a tie is admitted whether or not it is inclusive", MECH,
           "return mine > theirs or (mine == theirs and self.inclusive)",
           "return mine >= theirs", ("tests/test_mechanisms.py",)),
    Mutant("moved: a placed entry takes ties from lower indices", MECH,
           "if mine > theirs or (mine == theirs and bidder < rival):",
           "if mine > theirs or (mine == theirs and bidder > rival):", KERNEL + DYNAMICS),
    Mutant("bids: the constructor skips the last bidder's multiplier", MECH,
           "for i, theta in enumerate(profile.multipliers):",
           "for i, theta in enumerate(profile.multipliers[:-1]):", KERNEL),
    Mutant("move: walks every auction", MECH,
           "for j, _ in self.inst.valued[bidder]:", "for j in range(len(values)):",
           KERNEL + DYNAMICS),
    Mutant("seeds: keep one other bidder", "src/bidarena/model.py",
           "if i not in nonzero][:2]", "if i not in nonzero][:1]", KERNEL),
    # The market's int terms, against their Fraction reference.
    Mutant("market: d_j is the column scale L_j", MECH,
           "d = lcm(scale // g, den)", "d = scale", KERNEL),
    Mutant("market: a zero-cost auction-dep reserve is a third of the value", MECH,
           "_pair(inst.values[rw][j] / 2)", "_pair(inst.values[rw][j] / 3)", KERNEL),
    Mutant("calibration: alpha solves value = (1 + alpha) * cost", MECH,
           "return (value - cost) / (2 * cost) if cost else None",
           "return (value - cost) / cost if cost else None", ("tests/test_mechanisms.py",)),
    # The best-response sweep, against the candidate x auction loop.
    Mutant("sweep: stops at a candidate whose payment equals its value", BR,
           "if payment * d > value * b:", "if payment * d >= value * b:",
           ("tests/test_sweep_reference.py",) + SWEEP),
    Mutant("sweep: the midpoint moves to (2 * low + high) / 3", BR,
           "(key + following, 2 * one)", "(2 * key + following, 3 * one)", SWEEP),
    Mutant("sweep: a non-inclusive tie counts as won", BR,
           "            if inclusive:\n", "            if True:\n", SWEEP),
    # The brute-force oracle and the truthfulness probe, against their
    # Fraction references.
    Mutant("oracle: a sample whose payment equals its value is infeasible", BR,
           "if payment <= value and (best is None or value > best[0]):",
           "if payment < value and (best is None or value > best[0]):", SWEEP),
    Mutant("oracle: one sample between consecutive ratios", BR,
           "for k in range(1, 4))", "for k in range(2, 3))", SWEEP),
    Mutant("probe: no probe just above the threshold", BR,
           "probes += [(p, q), (p + step, q)]", "probes += [(p, q)]", SWEEP),
    Mutant("probe: writes into the Bids it reads", BR,
           "nums, dens = list(bids.nums[auction]), list(bids.dens[auction])",
           "nums, dens = bids.nums[auction], list(bids.dens[auction])",
           ("tests/test_bestresponse.py",)),
    # The dynamics, against `tests/reference_dynamics.py`.
    Mutant("dynamics: the raw reply pair is compared with theta's own pair", EQ,
           "if p * theta[i].denominator != q * theta[i].numerator:",
           "if (p, q) != theta[i].as_integer_ratio():", ("tests/test_equilibrium.py",) + DYNAMICS),
    Mutant("dynamics: verification ignores ROI", EQ,
           "if best * scale > achieved[i] * d or achieved[i] < paid[i]:",
           "if best * scale > achieved[i] * d:", ("tests/test_equilibrium.py",) + DYNAMICS),
    Mutant("dynamics: a bidder's second win replaces its first in the report sums", EQ,
           "achieved[w] += v * (scale // vq)", "achieved[w] = v * (scale // vq)",
           ("tests/test_equilibrium.py",) + DYNAMICS),
    Mutant("report: the net welfare drops the winner's cost", EQ,
           "spent += c * (scale // cq)", "spent += 0", DYNAMICS),
    Mutant("reuse: a move drops only the mover's own reply", EQ,
           "for k in rivals[i]:", "for k in [i]:", DYNAMICS),
    Mutant("rivals: a bidder's set misses its last valued auction", "src/bidarena/model.py",
           "for j, _ in row:\n                reach |= masks[j]",
           "for j, _ in row[:-1]:\n                reach |= masks[j]", DYNAMICS),
    Mutant("dynamics: a cycle jumps to its first profile", EQ,
           "at_cap = list(seen)[first + (max_rounds - first) % (rounds_used - first)]",
           "at_cap = list(seen)[first]", DYNAMICS),
    # Int sums, welfare and the worst-case family.
    Mutant("welfare: drops its first winner's cost", "src/bidarena/model.py",
           "[inst.costs[i][j] for i, j in won]))", "[inst.costs[i][j] for i, j in won[1:]]))",
           ("tests/test_model.py",) + DYNAMICS),
    Mutant("int sums: the common denominator ignores the losses", "src/bidarena/model.py",
           "d = lcm(*[q for _, q in plus], *[q for _, q in minus])",
           "d = lcm(*[q for _, q in plus])", DYNAMICS + ("tests/test_model.py",)),
    Mutant("counterexample: the spike auction is worth its cost", "src/bidarena/instances.py",
           "= d, 1 + spike", "= d, spike", ("tests/test_instances.py",)),
    # `arena verify`'s payment check and the report's text.
    Mutant("verify: the winning bid need not clear its threshold", "src/bidarena/verify.py",
           "if t.value != outcome.prices[j] or not t.admits(Fraction(p, q * d)):",
           "if t.value != outcome.prices[j]:", ("tests/test_verify.py",)),
    Mutant("myerson: raises the winner's bid in the Bids it reads", "src/bidarena/verify.py",
           "nums, dens = list(bids.nums[j]), list(bids.dens[j])",
           "nums, dens = bids.nums[j], list(bids.dens[j])", ("tests/test_verify.py",)),
    # `arena verify`'s driver: how it counts and describes the checks.
    Mutant("verify: a failure is described with the next seed", "src/bidarena/verify.py",
           "_describe(seed, inst, failure)", "_describe(seed + 1, inst, failure)",
           ("tests/test_verify.py",)),
    Mutant("verify: only failing checks are counted", "src/bidarena/verify.py",
           "stats.checks += 1\n            if failure is not None:\n",
           "if failure is not None:\n                stats.checks += 1\n",
           ("tests/test_verify.py",)),
    Mutant("decimal text: past the float range, trailing zeros are kept",
           "src/bidarena/rationals.py", "{exact.normalize():.12g}", "{exact:.12g}",
           ("tests/test_rationals.py",)),
]


def run(mutant: Mutant) -> tuple[str, float]:
    """(verdict, seconds) of one mutant: killed, survived, or why it could not run."""
    source = (ROOT / mutant.file).read_text()
    found = source.count(mutant.old)
    if found != 1:
        return f"old text found {found} times", 0.0
    with tempfile.TemporaryDirectory(prefix="bidarena-mutant-") as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=SKIP)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        (copy / mutant.file).write_text(source.replace(mutant.old, mutant.new))
        # No bytecode is written, so no cached copy of the unmutated file is read.
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        started = time.perf_counter()
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-profile=mutants", *mutant.tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        seconds = time.perf_counter() - started
    verdicts = {0: "survived", 1: "killed"}
    return verdicts.get(code, f"pytest exited {code}"), seconds


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or any(name in m.name for name in names)]
    if not chosen:
        print(f"no mutant name contains any of {names}")
        return 1
    failures = 0
    started = time.perf_counter()
    for mutant in chosen:
        verdict, seconds = run(mutant)
        failures += verdict != "killed"
        print(f"{verdict:>9}  {seconds:6.1f} s  {mutant.name}", flush=True)
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
