import dataclasses
import json
import re
from fractions import Fraction

import pytest

import bidarena.verify

from bidarena.bestresponse import ResponseResult, best_response_oracle
from bidarena.equilibrium import diagnostics, run_dynamics
from bidarena.instances import instance_from_json
from bidarena.mechanisms import (AuctionDependent, BidderDependent, Bids,
                                 GlobalCostMultiplier, SecondPrice,
                                 SingleBidderCalibrated, compute_bidder_params, run_all)
from bidarena.model import MultiplierProfile
from bidarena.verify import (equilibrium_family, family_instance,
                             accounting_checks, myerson_checks, oracle_agreement,
                             probe_profile, run_verify_suite,
                             single_bidder_family, standard_specs,
                             truthfulness_probes, welfare_cap_checks)

F = Fraction


def test_family_instance_is_seed_determined():
    assert family_instance(7) == family_instance(7)
    for seed in range(30):
        inst = family_instance(seed)
        assert 1 <= inst.num_bidders <= 4
        assert 1 <= inst.num_auctions <= 4
    assert family_instance(5, num_bidders=1).num_bidders == 1


def test_probe_profile_cycles():
    assert probe_profile(0, 3) == MultiplierProfile.of(["1", "3/2", "2"])
    assert probe_profile(1, 2) == MultiplierProfile.of(["3/2", "2"])


def test_standard_specs_cover_every_mechanism():
    multi = standard_specs(family_instance(1, num_bidders=3))
    assert [type(s) for s in multi] == [SecondPrice, GlobalCostMultiplier,
                                        GlobalCostMultiplier, AuctionDependent,
                                        BidderDependent]
    single = standard_specs(family_instance(1, num_bidders=1))
    assert isinstance(single[-1], SingleBidderCalibrated)
    assert len(single) == 6


def test_equilibrium_family_smoke():
    stats = equilibrium_family("auction-dep", range(25), welfare_floor=F(1, 2))
    assert stats.runs == 25
    assert stats.bound_checked <= stats.runs
    assert stats.violations == []
    assert 0 <= stats.converged <= stats.runs


def test_single_bidder_family_smoke():
    stats = single_bidder_family(12)
    assert stats.runs == 12
    assert stats.bound_checked == 12
    assert stats.violations == []


def test_property_checks_smoke():
    assert accounting_checks(range(15)).violations == []
    assert truthfulness_probes(range(10)).violations == []
    assert truthfulness_probes(range(10), single_bidder=True).violations == []
    assert myerson_checks(range(10)).violations == []
    assert oracle_agreement(range(8)).violations == []
    assert welfare_cap_checks(range(10)).violations == []


def _overstated_oracle(*args):
    result = best_response_oracle(*args)
    return ResponseResult(result.multiplier, result.won_auctions, result.total_value + 1,
                          result.total_payment)


def _inflated_diagnostics(*args):
    diag = diagnostics(*args)
    return dataclasses.replace(diag, core_welfare=diag.core_welfare + 10 ** 6)


# Each group call, a patch that makes its checks fail, and its failure text.
FAILING_GROUPS = {
    "truthfulness": (truthfulness_probes, "bidarena.verify.quasilinear_best_bid_check",
                     lambda *args: False, "prefers deviating from its value"),
    "single-bidder-truthfulness": (lambda seeds: truthfulness_probes(seeds, single_bidder=True),
                                   "bidarena.verify.quasilinear_best_bid_check",
                                   lambda *args: False, "prefers deviating from its value"),
    "payment-threshold": (myerson_checks, "bidarena.mechanisms.Threshold.admits",
                            lambda self, bid: False, " vs threshold Threshold("),
    "oracle-agreement": (oracle_agreement, "bidarena.verify.best_response_oracle",
                         _overstated_oracle, "exact value"),
    "welfare-accounting": (accounting_checks, "bidarena.verify.diagnostics",
                           _inflated_diagnostics, "exceed welfare"),
    "welfare-cap": (welfare_cap_checks, "bidarena.verify.welfare",
                    lambda inst, outcome: F(10**9), "welfare exceeds optimum"),
}


@pytest.mark.parametrize("group", FAILING_GROUPS)
def test_violations_replay_to_their_seeded_instance(group, monkeypatch):
    call, target, patch, text = FAILING_GROUPS[group]
    monkeypatch.setattr(target, patch)
    stats = call(range(3))
    # Only the truthful profile's diagnostics come through the patched name.
    assert len(stats.violations) == (3 if group == "welfare-accounting" else stats.checks) > 0
    num_bidders = 1 if group == "single-bidder-truthfulness" else None
    for line in stats.violations:
        match = re.fullmatch(r"seed=(\d+) (.*) instance=(\{.*\})", line)
        assert match and text in match[2]
        assert instance_from_json(json.loads(match[3])) == family_instance(
            int(match[1]), num_bidders=num_bidders)


def test_each_group_counts_its_checks_by_definition():
    seeds = range(12)
    expected = dict.fromkeys(("accounting", "truthfulness", "single-bidder truthfulness",
                              "myerson", "oracle", "welfare cap"), 0)
    for seed in seeds:
        inst = family_instance(seed)
        n, m, specs = inst.num_bidders, inst.num_auctions, standard_specs(inst)
        report = run_dynamics(inst, compute_bidder_params(inst))
        expected["accounting"] += n + 1 + (report.converged and report.verified)
        expected["truthfulness"] += len(specs) * m * n
        expected["single-bidder truthfulness"] += family_instance(
            seed, num_bidders=1).num_auctions
        expected["myerson"] += sum(  # one check per sold auction
            winner is not None for spec in specs
            for profile in (MultiplierProfile.uniform(n), probe_profile(seed, n))
            for winner in run_all(spec, inst, profile).winners)
        expected["oracle"] += len(specs)
        expected["welfare cap"] += 2 * len(specs)
    assert {
        "accounting": accounting_checks(seeds).checks,
        "truthfulness": truthfulness_probes(seeds).checks,
        "single-bidder truthfulness": truthfulness_probes(seeds, single_bidder=True).checks,
        "myerson": myerson_checks(seeds).checks,
        "oracle": oracle_agreement(seeds).checks,
        "welfare cap": welfare_cap_checks(seeds).checks,
    } == expected


def test_truthfulness_reports_a_first_price_rule(first_price):
    # A winner that pays its own bid gains by shading below its value.
    stats = truthfulness_probes(range(5))
    assert 0 < len(stats.violations) <= stats.checks
    assert all("prefers deviating from its value" in line for line in stats.violations)


def test_oracle_agreement_reports_each_disagreement(monkeypatch):
    exact = bidarena.verify.best_response_against_bids

    def overstated(*args):
        result = exact(*args)
        return ResponseResult(result.multiplier, result.won_auctions, result.total_value + 1,
                              result.total_payment)

    monkeypatch.setattr("bidarena.verify.best_response_against_bids", overstated)
    stats = oracle_agreement(range(3))
    assert len(stats.violations) == stats.checks > 0
    assert all("exact value" in line for line in stats.violations)


def test_checks_actually_count():
    stats = myerson_checks(range(10))
    assert stats.checks > 0
    stats = truthfulness_probes(range(5))
    assert stats.checks > 0


def test_run_verify_suite_reports_per_family():
    summary = run_verify_suite(8)
    assert summary.violations == []
    assert len(summary.lines) == 10  # four families plus six check groups
    assert summary.lines[0].startswith("equilibria [second-price")
    assert all("violations=0" in line for line in summary.lines)


# Each check group can report what it exists to catch.

def test_equilibrium_family_reports_a_run_below_its_floor():
    # Seed 13 settles at welfare 23/4 of an optimum 25/4.
    stats = equilibrium_family("auction-dep", range(12, 16), welfare_floor=F(1))
    assert 0 < len(stats.violations) <= stats.bound_checked
    assert stats.violations[0].startswith("seed=13 auction-dep: welfare 23/4 < 1 * opt 25/4")


def test_single_bidder_family_reports_an_unsettled_run(monkeypatch):
    dynamics = bidarena.verify.run_dynamics
    monkeypatch.setattr("bidarena.verify.run_dynamics", lambda inst, spec: dataclasses.replace(
        dynamics(inst, spec), converged=False))
    stats = single_bidder_family(3)
    assert len(stats.violations) == stats.runs == 3
    assert stats.bound_checked == 0
    assert all("single-bidder: did not settle" in line for line in stats.violations)


def test_single_bidder_family_reports_a_poa_other_than_one(monkeypatch):
    dynamics = bidarena.verify.run_dynamics
    monkeypatch.setattr("bidarena.verify.run_dynamics", lambda inst, spec: dataclasses.replace(
        dynamics(inst, spec), poa=F(1, 2)))
    stats = single_bidder_family(3)
    assert len(stats.violations) == stats.bound_checked == 3
    assert all("single-bidder: poa 1/2 != 1" in line for line in stats.violations)


def test_single_bidder_family_gives_up_past_its_seed_limit(monkeypatch):
    monkeypatch.setattr("bidarena.verify.SEED_LIMIT", 5)
    monkeypatch.setattr("bidarena.verify.optimal_welfare", lambda inst: F(0))
    with pytest.raises(RuntimeError, match="could not find enough positive-optimum seeds"):
        single_bidder_family(1)


def test_single_bidder_family_limits_the_seeds_it_skips(monkeypatch):
    # Seeds 1-4 have a zero optimum: four skips stay within a limit of five.
    monkeypatch.setattr("bidarena.verify.SEED_LIMIT", 5)
    dynamics, ran = bidarena.verify.run_dynamics, []
    monkeypatch.setattr("bidarena.verify.run_dynamics",
                        lambda inst, spec: ran.append(inst) or dynamics(inst, spec))
    assert single_bidder_family(6).runs == 6
    assert ran == [family_instance(seed, num_bidders=1) for seed in (0, 5, 6, 7, 8, 9)]


def test_accounting_reports_a_core_below_half_its_rightful_value(monkeypatch):
    monkeypatch.setattr("bidarena.verify.core_auctions",
                        lambda inst, spec: (frozenset(),) * inst.num_bidders)
    stats = accounting_checks(range(10))
    assert 0 < len(stats.violations) <= stats.checks
    assert all(re.search(r"bidder \d+: core value 0 < half of ", line)
               for line in stats.violations)


def test_accounting_reports_bounds_above_the_realized_welfare(monkeypatch):
    honest = bidarena.verify.diagnostics

    def inflated(*args):
        diag = honest(*args)
        return dataclasses.replace(diag, core_welfare=diag.core_welfare + 10 ** 6)

    monkeypatch.setattr("bidarena.verify.diagnostics", inflated)
    stats = accounting_checks(range(5))
    # Only the truthful profile's diagnostics come through the patched name.
    assert len(stats.violations) == 5 <= stats.checks
    assert all(re.search(r"profile \[.*\]: bounds \(.*\) exceed welfare ", line)
               for line in stats.violations)


def test_myerson_reports_a_payment_off_the_threshold(first_price):
    # A winner that pays its own bid pays above its threshold whenever it
    # outbids it.
    stats = myerson_checks(range(5))
    assert 0 < len(stats.violations) <= stats.checks
    assert all(re.search(r": auction \d+ payment .* vs threshold Threshold\(", line)
               for line in stats.violations)


def test_myerson_reports_a_winning_bid_below_its_threshold(monkeypatch):
    monkeypatch.setattr("bidarena.mechanisms.Threshold.admits", lambda self, bid: False)
    stats = myerson_checks(range(5))
    assert len(stats.violations) == stats.checks > 0
    assert all(re.search(r": auction \d+ payment .* vs threshold Threshold\(", line)
               for line in stats.violations)


def test_myerson_reports_a_winner_that_loses_after_raising(monkeypatch):
    # Every trial bid loses.
    monkeypatch.setattr("bidarena.mechanisms.Bids.trials",
                        lambda self, auction, bidder, bids: (None for _ in bids))
    stats = myerson_checks(range(5))
    # One report per checked winner: the first raise already loses.
    assert len(stats.violations) == stats.checks > 0
    assert all(re.search(r": auction \d+ winner \d+ lost after raising its bid to ", line)
               for line in stats.violations)


def test_myerson_leaves_the_bids_it_reads_unchanged(monkeypatch):
    # The raised bids are priced against a scan of the winner's rivals and
    # written nowhere; every `Bids` the check builds keeps the bids and
    # standings it was built with.
    built = []

    class Recorded(Bids):
        def __init__(self, *args):
            super().__init__(*args)
            built.append((self, [list(c) for c in self.nums], [list(c) for c in self.dens],
                          list(self.standings)))

    monkeypatch.setattr("bidarena.verify.Bids", Recorded)
    stats = myerson_checks(range(10))
    assert stats.violations == [] and stats.checks > 0 and len(built) > 50
    for bids, nums, dens, standings in built:
        assert (bids.nums, bids.dens, bids.standings) == (nums, dens, standings)
