"""The reserve-plus-shift auction kernel against the per-rule reference.

`reference_mechanisms` derives each rule's winner, payment and threshold from
the rule's own definition. Every comparison here covers the kernel's winner,
payment, threshold value and `inclusive` flag, at the given bids and again
with each bidder bidding exactly its threshold, where ties decide.
"""

import ast
import inspect
from fractions import Fraction

from hypothesis import given, settings

import reference_mechanisms as ref
from bidarena import mechanisms
from bidarena.mechanisms import GlobalCostMultiplier, SecondPrice, compute_bidder_params
from bidarena.model import Instance, MultiplierProfile, bids_from
from bidarena.rationals import Infinity

from conftest import all_specs, instances_with_profiles, seeded_market

F = Fraction


def check_auction(spec, inst, auction, column) -> int:
    """Assert agreement on one bid column; returns the number of comparisons."""
    assert mechanisms.run_auction(spec, inst, auction, column) == \
        ref.run_auction(spec, inst, auction, column)
    top = mechanisms.standing(spec, inst, auction, column)
    for i in range(inst.num_bidders):
        assert mechanisms.min_winning_bid(spec, inst, auction, i, top) == \
            ref.min_winning_bid(spec, inst, auction, i, column)
    return 1 + inst.num_bidders


def check_market(spec, inst, bid_rows) -> int:
    """Every auction at the given bids, then with each bidder in turn moved
    onto its own threshold. Returns the number of comparisons."""
    n = inst.num_bidders
    cases = 0
    for j in range(inst.num_auctions):
        column = [bid_rows[i][j] for i in range(n)]
        cases += check_auction(spec, inst, j, column)
        for i in range(n):
            t = ref.min_winning_bid(spec, inst, j, i, column)
            if not isinstance(t.value, Infinity):
                at_threshold = list(column)
                at_threshold[i] = t.value
                cases += check_auction(spec, inst, j, at_threshold)
    return cases


def check_seeds(seeds) -> int:
    """Every rule of `conftest.all_specs` on each seeded market."""
    cases = 0
    for seed in seeds:
        inst, bids = seeded_market(seed)
        for spec in all_specs(inst):
            cases += check_market(spec, inst, bids)
    return cases


@settings(max_examples=60, deadline=None)
@given(instances_with_profiles())
def test_kernel_matches_reference_on_profile_bids(pair):
    inst, profile = pair
    bids = bids_from(profile, inst)
    for spec in all_specs(inst):
        check_market(spec, inst, bids)


def test_kernel_matches_reference_on_seeded_random_bids():
    assert check_seeds(range(150)) > 10000


def test_kernel_terms_follow_spec_and_instance_between_calls():
    # Same shape, different costs: one spec object on both instances, and two
    # specs on one instance, interleaved, must each see their own terms.
    a = Instance.from_rows([[4, 1], [2, 3]], [[1, 0], [2, 1]])
    b = Instance.from_rows([[4, 1], [2, 3]], [[3, 2], [0, 1]])
    gamma = GlobalCostMultiplier(F(1))
    calibrated = compute_bidder_params(a)
    column = [F(4), F(3)]
    assert mechanisms.run_auction(gamma, a, 0, column) != mechanisms.run_auction(gamma, b, 0, column)
    assert mechanisms.run_auction(gamma, a, 0, column) != \
        mechanisms.run_auction(calibrated, a, 0, column)
    for spec, inst in [(gamma, a), (gamma, b), (calibrated, a), (gamma, a), (calibrated, b),
                       (SecondPrice(), b), (gamma, b), (calibrated, a)]:
        for j in range(inst.num_auctions):
            check_auction(spec, inst, j, column)
        check_market(spec, inst, bids_from(MultiplierProfile.of(["3/2", "1"]), inst))


def test_reference_imports_no_function_from_bidarena():
    # A convention shared with the kernel would agree with it even when wrong.
    tree = ast.parse(inspect.getsource(ref))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module.startswith("bidarena")
                for alias in node.names]
    assert "Threshold" in imported
    assert [name for name in imported if inspect.isfunction(getattr(ref, name))] == []
