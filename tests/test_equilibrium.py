from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from bidarena import equilibrium
from bidarena.bestresponse import best_response_against_bids
from bidarena.equilibrium import Diagnostics, diagnostics, run_dynamics
from bidarena.mechanisms import (Bids, SecondPrice, calibrate_single_bidder,
                                 compute_auction_params, compute_bidder_params,
                                 run_all)
from bidarena.model import (Instance, MultiplierProfile, optimal_welfare, roi_satisfied,
                            welfare)
from bidarena.verify import family_instance, standard_specs

import reference_dynamics as ref
from conftest import all_specs, small_instances

F = Fraction


def test_config_validation():
    inst = Instance.from_rows([[5], [3]], [[0], [0]])
    for rounds in (0, -1):
        with pytest.raises(ValueError, match="max_rounds must be >= 1"):
            run_dynamics(inst, SecondPrice(), max_rounds=rounds)


def test_single_bidder_dynamics_reach_the_balanced_multiplier():
    inst = Instance.from_rows([[2, 1, 1]], [[1, 1, 2]])
    spec = calibrate_single_bidder(inst)
    report = run_dynamics(inst, spec)
    assert report.profile == MultiplierProfile.of(["3/2"])
    assert report.converged and report.verified
    assert report.rounds_used == 2
    assert report.welfare == 1
    assert report.opt == 1
    assert report.poa == 1
    assert report.diagnostics is None


def test_dynamics_converge_immediately_when_truthful_is_stable():
    inst = Instance.from_rows([[5], [3]], [[0], [0]])
    report = run_dynamics(inst, SecondPrice())
    assert report.converged and report.verified
    assert report.rounds_used == 1
    assert report.profile == MultiplierProfile.uniform(2)
    assert report.welfare == 5 and report.opt == 5 and report.poa == 1


def test_round_cap_reports_instead_of_raising():
    inst = Instance.from_rows([[2, 1, 1]], [[1, 1, 2]])
    spec = calibrate_single_bidder(inst)
    report = run_dynamics(inst, spec, max_rounds=1)
    assert not report.converged
    assert report.rounds_used == 1
    # The single round already landed on the fixed point, so the independent
    # verification still succeeds.
    assert report.verified
    assert report.profile == MultiplierProfile.of(["3/2"])


def test_poa_undefined_when_nothing_is_worth_winning():
    inst = Instance.from_rows([[1]], [[2]])
    spec = compute_auction_params(inst)
    report = run_dynamics(inst, spec)
    assert report.opt == 0
    assert report.poa is None


def test_bidder_dependent_diagnostics_accounting():
    inst = Instance.from_rows([[4, 1], [2, 3]], [[1, 1], [1, 1]])
    spec = compute_bidder_params(inst)
    report = run_dynamics(inst, spec)
    assert report.converged and report.verified
    assert report.rounds_used == 1
    assert report.welfare == 5 and report.opt == 5
    diag = report.diagnostics
    assert diag == Diagnostics(
        core_auctions=(frozenset({0}), frozenset({1})),
        aggressive=frozenset({1}),
        conservative=frozenset({0}),
        core_welfare=F(3),
        payment_surplus=F(1),
    )
    assert max(diag.core_welfare, diag.payment_surplus) <= report.welfare


def test_diagnostics_standalone_matches_report():
    inst = Instance.from_rows([[4, 1], [2, 3]], [[1, 1], [1, 1]])
    spec = compute_bidder_params(inst)
    profile = MultiplierProfile.uniform(2)
    outcome = run_all(spec, inst, profile)
    assert diagnostics(inst, spec, profile, outcome) == \
        run_dynamics(inst, spec).diagnostics


def test_infinite_calibration_counts_as_conservative():
    inst = Instance.from_rows([[2, 1]], [[0, 3]])
    spec = compute_bidder_params(inst)
    profile = MultiplierProfile.of(["100"])
    outcome = run_all(spec, inst, profile)
    diag = diagnostics(inst, spec, profile, outcome)
    assert diag.conservative == frozenset({0})
    assert diag.aggressive == frozenset()
    assert diag.core_auctions == (frozenset({0}),)


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_converged_runs_always_verify(inst):
    for spec in all_specs(inst):
        report = run_dynamics(inst, spec, max_rounds=30)
        assert report.welfare <= report.opt
        if report.converged:
            assert report.verified
        # Welfare can go negative when a cost-blind rule clears an auction
        # nobody values, so only the upper bound is universal.
        if report.poa is not None:
            assert report.poa <= 1


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_bidder_dependent_bound_holds_at_equilibrium(inst):
    spec = compute_bidder_params(inst)
    report = run_dynamics(inst, spec, max_rounds=30)
    if report.converged and report.verified:
        diag = report.diagnostics
        assert max(diag.core_welfare, diag.payment_surplus) <= report.welfare


def independently_verified(inst, spec, report) -> bool:
    """The `verified` rule recomputed from scratch: every bidder's best
    response to the final profile gains it no value, and ROI holds."""
    for i in range(inst.num_bidders):
        achieved = sum((inst.values[i][j] for j, w in enumerate(report.outcome.winners)
                        if w == i), F(0))
        bids = Bids(spec, inst, report.profile)
        reply = best_response_against_bids(inst, spec, i, bids)
        if reply.total_value > achieved or not roi_satisfied(inst, report.outcome, i):
            return False
    return True


def test_verification_with_reused_replies_matches_a_fresh_recompute():
    # Cut-off runs (one to three rounds) end with replies computed against
    # older bids, so any reply kept past a rival's move would show up here.
    mismatches = []
    for seed in range(60):
        inst = family_instance(seed)
        for spec in standard_specs(inst):
            for rounds in (1, 2, 3):
                report = run_dynamics(inst, spec, max_rounds=rounds)
                if report.verified != independently_verified(inst, spec, report):
                    mismatches.append((seed, spec, rounds))
    assert mismatches == []


def test_converged_run_verifies_without_extra_best_responses(monkeypatch):
    calls = 0
    original = equilibrium.best_response_against_bids

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(equilibrium, "best_response_against_bids", counted)
    # A converged run computes exactly the replies the reference's replay
    # counts: a bidder recomputes only once another bidder that values one of
    # the same auctions (read from `inst.values`) has moved since its last
    # reply, and verification recomputes none.
    checked = reused = 0
    for seed in range(40):
        inst = family_instance(seed)
        for spec in standard_specs(inst):
            calls = 0
            report = run_dynamics(inst, spec)
            if report.converged:
                checked += 1
                assert calls == ref.run_dynamics(inst, spec).computed
                reused += report.rounds_used * inst.num_bidders - calls
    assert checked > 100
    assert reused > 50  # of the replies a run recomputing every one would compute


def test_optimum_follows_the_instance_when_two_alternate():
    # Same shape, different optima (5 and 4); each run reports its own.
    a = Instance.from_rows([[4, 1], [2, 3]], [[1, 0], [2, 1]])
    b = Instance.from_rows([[4, 1], [2, 3]], [[3, 2], [0, 1]])
    spec = SecondPrice()
    for inst, opt in ((a, 5), (b, 4), (a, 5), (b, 4), (a, 5)):
        assert run_dynamics(inst, spec).opt == optimal_welfare(inst) == opt
    # The views kept by the runs are no part of the instance's value.
    assert a == Instance.from_rows([[4, 1], [2, 3]], [[1, 0], [2, 1]])


def test_auction_dependent_half_is_attained():
    # The paper's auction-dep bound of 1/2 is tight: dynamics from truthful
    # bids reach an equilibrium with exactly half the optimum, and a second
    # profile passes the independent predicate at the same ratio.
    inst = Instance.from_rows([[1, 1, 1], [0, "3/2", 3]], [["11/4", 1, 1], [2, 2, 2]])
    spec = compute_auction_params(inst)
    report = run_dynamics(inst, spec)
    assert report.converged and report.verified and report.rounds_used == 2
    assert report.profile == MultiplierProfile.of([1, "7/3"])
    assert (report.welfare, report.opt, report.poa) == (F(1, 2), 1, F(1, 2))
    assert independently_verified(inst, spec, report)
    profile = MultiplierProfile.of([1, "3/2"])
    other = SimpleNamespace(profile=profile, outcome=run_all(spec, inst, profile))
    assert independently_verified(inst, spec, other)
    assert welfare(inst, other.outcome) / optimal_welfare(inst) == F(1, 2)
