from fractions import Fraction

import pytest
from hypothesis import given, settings

from bidarena.bestresponse import quasilinear_best_bid_check
from bidarena.equilibrium import run_dynamics
from bidarena.mechanisms import (NEVER, AuctionDependent, AuctionResult, BidderDependent, Bids,
                                 GlobalCostMultiplier, SecondPrice,
                                 SingleBidderCalibrated, Threshold,
                                 calibrate_single_bidder, compute_auction_params,
                                 compute_bidder_params, market, mechanism_from_label,
                                 mechanism_label, mechanism_to_json, min_winning_bid,
                                 rightful_winners,
                                 run_all, run_auction)
from bidarena.model import (Instance, MultiplierProfile, Outcome, bids_from,
                            optimal_welfare, welfare)

from conftest import all_specs, column_bids, instances_with_profiles, small_instances
from reference_mechanisms import threshold

F = Fraction


def winning_bid(spec, inst, auction, bidder, column):
    """`min_winning_bid` read from the `Bids` of one bid column."""
    return min_winning_bid(column_bids(spec, inst, auction, column), auction, bidder)


def one_auction(values, costs):
    return Instance.from_rows([[v] for v in values], [[c] for c in costs])


# --- second price ----------------------------------------------------------

def test_second_price_lone_bidder_pays_zero():
    inst = one_auction([7], [0])
    assert run_auction(SecondPrice(), inst, 0, [F(7)]) == AuctionResult(0, F(0))


def test_second_price_pays_second_highest():
    inst = one_auction([3, 5, 4], [0, 0, 0])
    result = run_auction(SecondPrice(), inst, 0, [F(3), F(5), F(4)])
    assert result == AuctionResult(1, F(4))


def test_second_price_tie_goes_to_lowest_index():
    inst = one_auction([5, 5], [0, 0])
    assert run_auction(SecondPrice(), inst, 0, [F(5), F(5)]) == AuctionResult(0, F(5))


def test_second_price_threshold_side_depends_on_index():
    inst = one_auction([0, 0, 0], [0, 0, 0])
    bids = [F(0), F(3), F(5)]
    assert winning_bid(SecondPrice(), inst, 0, 0, bids) == threshold(F(5), True)
    bids = [F(3), F(5), F(0)]
    assert winning_bid(SecondPrice(), inst, 0, 2, bids) == threshold(F(5), False)


def test_kernel_threshold_pair_behaves_like_its_fraction():
    # Scale 2 (a value of 1/2) and a rival bid of 1 make the kernel's pair
    # 2/2, which is not in lowest terms.
    inst = one_auction([F(1, 2), 1], [0, 0])
    t = winning_bid(SecondPrice(), inst, 0, 0, [F(1, 2), F(1)])
    assert (t.num, t.den) == (2, 2)
    reference = threshold(F(1), True)
    assert t == reference and not t != reference
    assert hash(t) == hash(reference) == hash((F(1), True))
    assert repr(t) == repr(reference) == "Threshold(value=Fraction(1, 1), inclusive=True)"
    assert type(t.value) is Fraction and t.value.denominator == 1
    assert t != threshold(F(1), False) and t != threshold(F(3, 2), True)
    assert t.admits(F(1)) and t.admits(F(3, 2)) and not t.admits(F(99, 100))
    assert Threshold(4, 4, True) == reference == Threshold(1, 1, True)
    never = threshold(None, False)
    assert never == NEVER and (never.num, never.den) == (1, 0) and never.value is None
    assert never != threshold(F(0), False) and never == threshold(None, False)
    assert repr(never) == "Threshold(value=None, inclusive=False)"
    assert hash(never) == hash((None, False))
    assert not never.admits(F(10 ** 9))
    # The one constructor takes the int pair; the old (value, inclusive) form fails loudly.
    with pytest.raises(TypeError):
        Threshold(F(1), True)


def test_threshold_is_never_equal_to_a_number():
    t = Threshold(1, 1, True)
    assert t.__eq__(1) is NotImplemented
    assert (t == 1) is False and (1 == t) is False and t != 1


def test_second_price_threshold_without_rivals_is_zero():
    inst = one_auction([7], [0])
    assert winning_bid(SecondPrice(), inst, 0, 0, [F(0)]) == threshold(F(0), True)


def test_threshold_rejects_a_bid_column_of_the_wrong_length():
    # A short column used to drop the rival bidding 5 and report threshold 0.
    inst = one_auction([1, 1], [0, 0])
    with pytest.raises(ValueError, match="expected 2 bid rows of 1 entries"):
        winning_bid(SecondPrice(), inst, 0, 0, [F(1)])
    with pytest.raises(ValueError, match="expected 2 bid rows of 1 entries"):
        winning_bid(SecondPrice(), inst, 0, 0, [F(1), F(5), F(0)])
    with pytest.raises(ValueError, match="expected 2 bids, got 1"):
        run_auction(SecondPrice(), inst, 0, [F(1)])


# --- global cost multiplier ------------------------------------------------

def test_cost_adjusted_second_price_golden():
    # Bids (5, 3, 4) with costs (1, 2, 1): scores (4, 1, 3); the winner pays
    # the lowest bid that still tops the field, 4.
    inst = one_auction([5, 3, 4], [1, 2, 1])
    result = run_auction(GlobalCostMultiplier(F(1)), inst, 0, [F(5), F(3), F(4)])
    assert result == AuctionResult(0, F(4))


def test_global_discards_negative_scores():
    inst = one_auction([1, 2], [3, 5])
    assert run_auction(GlobalCostMultiplier(F(1)), inst, 0, [F(1), F(2)]) == \
        AuctionResult(None, F(0))


def test_global_payment_includes_own_cost_share():
    inst = one_auction([5, 3], [1, 2])
    result = run_auction(GlobalCostMultiplier(F(2)), inst, 0, [F(5), F(3)])
    assert result == AuctionResult(0, F(2))  # rival score is negative


def test_global_threshold_adds_best_rival_score():
    inst = one_auction([0, 4], [1, F(1, 2)])
    t = winning_bid(GlobalCostMultiplier(F(2)), inst, 0, 0, [F(0), F(4)])
    assert t == threshold(F(5), True)  # own cost share 2 plus rival score 3
    inst = one_auction([4, 0], [F(1, 2), 1])
    t = winning_bid(GlobalCostMultiplier(F(2)), inst, 0, 1, [F(4), F(0)])
    assert t == threshold(F(5), False)  # same score, but the rival has the lower index


def test_global_gamma_zero_matches_second_price():
    inst = Instance.from_rows([[4, 1], [2, 3]], [[1, 2], [3, 1]])
    profile = MultiplierProfile.of(["3/2", "1"])
    assert run_all(GlobalCostMultiplier(F(0)), inst, profile) == \
        run_all(SecondPrice(), inst, profile)


def test_global_rejects_negative_gamma():
    with pytest.raises(ValueError):
        GlobalCostMultiplier(F(-1))
    with pytest.raises(TypeError, match="gamma must be a Fraction"):
        GlobalCostMultiplier(1)


# --- rightful winners and calibrated parameters ----------------------------

def test_rightful_winner_takes_best_margin():
    inst = one_auction([4, 3], [1, 2])
    assert rightful_winners(inst) == (0,)


def test_rightful_winner_breaks_ties_low():
    inst = one_auction([3, 4], [1, 2])  # both margins are 2
    assert rightful_winners(inst) == (0,)


def test_rightful_winner_absent_when_all_margins_negative():
    inst = one_auction([1, 0], [2, 1])
    assert rightful_winners(inst) == (None,)


def test_rightful_winner_present_at_zero_margin():
    inst = one_auction([2], [2])
    assert rightful_winners(inst) == (0,)


def test_auction_params_solve_value_equals_one_plus_two_alpha_cost():
    inst = one_auction([4, 3], [1, 2])
    params = compute_auction_params(inst)
    assert params == AuctionDependent((0,), (F(3, 2),))


def test_auction_params_zero_cost_winner_gets_infinite_alpha():
    inst = one_auction([4, 3], [0, 2])
    params = compute_auction_params(inst)
    assert params.rightful_winner == (0,)
    assert params.cost_multiplier[0] is None


def test_auction_params_absent_auction_has_no_alpha():
    inst = one_auction([1], [2])
    assert compute_auction_params(inst) == AuctionDependent((None,), (None,))


def test_bidder_params_calibrate_over_owned_auctions():
    inst = Instance.from_rows([[3, 7]], [[2, 2]])
    params = compute_bidder_params(inst)
    assert params.rightful_auctions == (frozenset({0, 1}),)
    assert params.cost_multiplier == (F(3, 4),)


def test_bidder_params_degenerate_cases():
    # Nothing owned: alpha 0. All-zero owned set: alpha 0. Zero cost with
    # positive value: alpha infinite.
    inst = Instance.from_rows([[1], [3]], [[1], [1]])
    assert compute_bidder_params(inst).cost_multiplier[0] == 0
    inst = Instance.from_rows([[0]], [[0]])
    assert compute_bidder_params(inst).cost_multiplier == (F(0),)
    inst = Instance.from_rows([[2]], [[0]])
    assert compute_bidder_params(inst).cost_multiplier[0] is None


def test_single_bidder_calibration_balances_value_and_cost():
    inst = Instance.from_rows([[2, 1, 1]], [[1, 1, 2]])
    assert calibrate_single_bidder(inst).cost_multiplier == F(3, 2)


def test_single_bidder_calibration_degenerate_cases():
    assert calibrate_single_bidder(Instance.from_rows([[0]], [[1]])).cost_multiplier == 1
    assert calibrate_single_bidder(Instance.from_rows([[0]], [[0]])).cost_multiplier == 1
    assert calibrate_single_bidder(Instance.from_rows([[1, 0]], [[0, 0]])).cost_multiplier is None


def test_single_bidder_calibration_needs_one_bidder():
    with pytest.raises(ValueError):
        calibrate_single_bidder(Instance.from_rows([[1], [1]], [[0], [0]]))


def test_single_bidder_alpha_below_one_rejected():
    with pytest.raises(ValueError):
        SingleBidderCalibrated(F(1, 2))


# --- reserve conventions ---------------------------------------------------

def test_infinite_alpha_times_zero_cost_is_half_rightful_value():
    # Bidder 0 rightfully wins both auctions: at zero cost in auction 0
    # (alpha infinite), and with value 8 = (1 + 2 * 3/2) * 2 in auction 1.
    inst = Instance.from_rows([[4, 8], [1, 1]], [[0, 2], [1, 0]])
    spec = compute_auction_params(inst)
    assert spec == AuctionDependent((0, 0), (None, F(3, 2)))
    mk = market(spec, inst)
    assert mk.reserves[0][0] == 2 * mk.scale[0]
    assert mk.reserves[0][1] is None
    assert mk.reserves[1][0] == 5 * mk.scale[1]


def test_bidder_prescreen_convention():
    # Bidder 0 owns auction 0 at zero cost (alpha infinite); bidder 1 owns
    # auction 1 with value 6 = (1 + 2 * 1) * 2.
    inst = Instance.from_rows([[2, 0], [0, 6]], [[0, 1], [0, 2]])
    spec = compute_bidder_params(inst)
    assert spec.cost_multiplier == (None, F(1))
    mk = market(spec, inst)
    assert mk.reserves[0][0] == 0
    assert mk.reserves[1][0] is None
    assert mk.reserves[1][1] == 4 * mk.scale[1]


# A calibrated spec on a market of another shape would otherwise drop the
# bidders or auctions it does not cover without a word.
MARKET_A = Instance.from_rows([[2, 2]], [[1, 1]])
MISFITS = [
    pytest.param(compute_bidder_params(MARKET_A),
                 Instance.from_rows([[2, 2], [5, 5]], [[1, 1], [1, 1]]),
                 id="bidder-dep-with-an-extra-bidder"),
    pytest.param(compute_auction_params(MARKET_A),
                 Instance.from_rows([[2, 2, 2]], [[1, 1, 1]]),
                 id="auction-dep-with-an-extra-auction"),
    pytest.param(SingleBidderCalibrated(F(3, 2)), one_auction([1, 9], [1, 1]),
                 id="single-bidder-with-two-bidders"),
]


@pytest.mark.parametrize("spec, inst", MISFITS)
def test_spec_that_does_not_fit_the_market_is_rejected(spec, inst):
    bids = [F(1), F(9)][:inst.num_bidders]
    with pytest.raises(ValueError, match="market has"):
        run_auction(spec, inst, 0, bids)
    with pytest.raises(ValueError, match="market has"):
        winning_bid(spec, inst, 0, 0, bids)
    with pytest.raises(ValueError, match="market has"):
        run_all(spec, inst, MultiplierProfile.uniform(inst.num_bidders))
    with pytest.raises(ValueError, match="market has"):
        run_dynamics(inst, spec)


# Hand-built specs naming a bidder or auction the market lacks; each used to
# fail with an IndexError, or not at all, somewhere past `market`.
STRAYS = [
    pytest.param(AuctionDependent((3, None), (None, None)), id="auction-dep-winner-3"),
    pytest.param(AuctionDependent((-1, None), (F(1), None)), id="auction-dep-winner-minus-1"),
    pytest.param(BidderDependent((frozenset({5}),), (F(1),)), id="bidder-dep-auction-5"),
    pytest.param(BidderDependent((), (F(1),)), id="bidder-dep-no-rightful-sets"),
]


@pytest.mark.parametrize("spec", STRAYS)
def test_spec_naming_a_bidder_or_auction_outside_the_market_is_rejected(spec):
    inst = Instance.from_rows([[2, 1]], [[1, 1]])
    with pytest.raises(ValueError, match="market"):
        market(spec, inst)
    with pytest.raises(ValueError, match="market"):
        run_auction(spec, inst, 0, [F(1)])
    with pytest.raises(ValueError, match="market"):
        run_dynamics(inst, spec)


def test_negative_bids_are_rejected():
    # A bid of -2 is below the zero reserve, yet a zero reserve admits a bid
    # without a comparison: the kernel needs every bid nonnegative.
    inst = Instance.from_rows([[2, 1]], [[1, 1]])
    bids = Bids(SecondPrice(), inst, MultiplierProfile.uniform(1))
    with pytest.raises(ValueError, match="multiplier must be nonnegative, got -1"):
        bids.move(0, F(-1))
    assert bids[0] == inst.values[0]
    # A `Bids` is built from a profile, and a profile holds no multiplier below 1.
    with pytest.raises(ValueError, match="multiplier 0 is -2, must be >= 1"):
        Bids(SecondPrice(), inst, MultiplierProfile((F(-2),)))
    with pytest.raises(ValueError, match="bids must be nonnegative, got -2"):
        run_auction(SecondPrice(), inst, 0, [F(-2)])
    # Zero is a bid like any other.
    bids.move(0, F(0))
    assert bids.outcome() == Outcome((0, 0), (F(0), F(0)))
    assert run_auction(SecondPrice(), inst, 0, [F(0)]) == AuctionResult(0, F(0))


def test_unknown_spec_is_rejected():
    inst = one_auction([1], [0])
    with pytest.raises(TypeError, match="unknown mechanism: 'first-price'"):
        market("first-price", inst)
    with pytest.raises(TypeError, match="unknown mechanism: 'first-price'"):
        mechanism_to_json("first-price")


@pytest.mark.parametrize("bidders", [
    pytest.param(1, id="too-few-bidders"),
    pytest.param(3, id="too-many-bidders"),
])
def test_bids_reject_a_profile_of_the_wrong_length(bidders):
    inst = Instance.from_rows([[1, 2], [3, 4]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match=f"profile has {bidders} bidders, instance has 2"):
        Bids(SecondPrice(), inst, MultiplierProfile.uniform(bidders))


@pytest.mark.parametrize("auction", [-1, 3])
def test_auction_out_of_range_is_rejected(auction):
    # Unchecked, auction -1 would be read as the last auction, and auction 3
    # would raise IndexError; both are rejected before a standing is read.
    inst = Instance.from_rows([[1, 2, 3], [2, 1, 1]], [[0, 0, 1], [1, 0, 0]])
    column = [F(1), F(2)]
    for spec in all_specs(inst):
        bids = column_bids(spec, inst, 0, column)
        with pytest.raises(ValueError, match=f"auction {auction} out of range"):
            run_auction(spec, inst, auction, column)
        with pytest.raises(ValueError, match=f"auction {auction} out of range"):
            min_winning_bid(bids, auction, 0)
        with pytest.raises(ValueError, match=f"auction {auction} out of range"):
            quasilinear_best_bid_check(inst, spec, auction, 0, bids)


@pytest.mark.parametrize("bidder", [-1, 2])
def test_bids_reject_a_bidder_out_of_range(bidder):
    # Unchecked, moving bidder -1 would write bidder 1's entries and add a
    # phantom entry beside bidder 1 in auction 0's standing, so bidder 1's
    # threshold there would read its own doubled bid, 6, and not 1.
    inst = Instance.from_rows([[1, 2], [3, 1]], [[0, 0], [0, 0]])
    bids = Bids(SecondPrice(), inst, MultiplierProfile.uniform(2))
    with pytest.raises(ValueError, match=f"bidder {bidder} out of range"):
        bids.move(bidder, F(2))
    with pytest.raises(ValueError, match=f"bidder {bidder} out of range"):
        bids[bidder]
    assert bids.standings == Bids(SecondPrice(), inst, MultiplierProfile.uniform(2)).standings
    assert min_winning_bid(bids, 0, 1).value == 1


# --- auction-dependent mechanism -------------------------------------------

def test_auction_dep_truthful_run():
    inst = one_auction([4, 3], [1, 2])
    spec = compute_auction_params(inst)
    result = run_auction(spec, inst, 0, [F(4), F(3)])
    # Required bids are 5/2 and 5; scores 3/2 and -2; the rival's negative
    # score is floored at zero in the payment.
    assert result == AuctionResult(0, F(5, 2))


def test_auction_dep_no_winner_when_top_score_negative():
    inst = one_auction([4, 3], [1, 2])
    spec = compute_auction_params(inst)
    assert run_auction(spec, inst, 0, [F(2), F(1)]) == AuctionResult(None, F(0))


def test_auction_dep_rw_absent_means_nobody_wins():
    inst = one_auction([1], [2])
    spec = compute_auction_params(inst)
    assert run_auction(spec, inst, 0, [F(100)]) == AuctionResult(None, F(0))
    assert winning_bid(spec, inst, 0, 0, [F(0)]) == threshold(None, False)


def test_auction_dep_zero_cost_auction_prices_at_half_value():
    inst = one_auction([4, 2], [0, 0])
    spec = compute_auction_params(inst)
    result = run_auction(spec, inst, 0, [F(4), F(2)])
    assert result == AuctionResult(0, F(2))  # rival score 0, required bid 2
    # A positive-cost bidder can never clear an infinite-alpha auction.
    inst = one_auction([4, 2], [0, 1])
    spec = compute_auction_params(inst)
    assert spec.cost_multiplier[0] is None
    assert winning_bid(spec, inst, 0, 1, [F(4), F(2)]) == threshold(None, False)
    assert run_auction(spec, inst, 0, [F(4), F(100)]).winner == 0


def test_auction_dep_winner_payment_covers_half_margin():
    inst = one_auction([4, 3], [1, 2])
    spec = compute_auction_params(inst)
    result = run_auction(spec, inst, 0, [F(4), F(3)])
    rw = spec.rightful_winner[0]
    assert result.winner == rw
    margin = inst.values[rw][0] - inst.costs[rw][0]
    assert result.payment >= inst.costs[rw][0] + margin / 2


def test_auction_dep_threshold_example():
    inst = one_auction([4, 3], [1, 2])
    spec = compute_auction_params(inst)
    assert winning_bid(spec, inst, 0, 0, [F(0), F(3)]) == threshold(F(5, 2), True)
    # Rival bidding 6 has score 1, so bidder 0 needs 5/2 + 1.
    assert winning_bid(spec, inst, 0, 0, [F(0), F(6)]) == threshold(F(7, 2), True)


# --- bidder-dependent mechanism --------------------------------------------

def bdep_inst():
    return Instance.from_rows([[4, 1], [2, 3]], [[1, 1], [1, 1]])


def test_bidder_dep_truthful_run():
    inst = bdep_inst()
    spec = compute_bidder_params(inst)
    assert spec.cost_multiplier == (F(3, 2), F(1))
    # Auction 0: both survive their prescreens (5/2 and 2); scores 3 and 1.
    assert run_auction(spec, inst, 0, [F(4), F(2)]) == AuctionResult(0, F(5, 2))
    # Auction 1: bidder 0 is prescreened out (1 < 5/2); bidder 1 pays its own floor.
    assert run_auction(spec, inst, 1, [F(1), F(3)]) == AuctionResult(1, F(2))


def test_bidder_dep_payment_rises_with_surviving_rival():
    inst = bdep_inst()
    spec = compute_bidder_params(inst)
    # Rival bid 3 survives with score 2, so the winner pays 2 + 1 > its floor.
    assert run_auction(spec, inst, 0, [F(4), F(3)]) == AuctionResult(0, F(3))


def test_bidder_dep_threshold_example():
    inst = bdep_inst()
    spec = compute_bidder_params(inst)
    assert winning_bid(spec, inst, 0, 1, [F(4), F(0)]) == threshold(F(4), False)
    assert winning_bid(spec, inst, 1, 1, [F(1), F(0)]) == threshold(F(2), True)


def test_bidder_dep_infinite_alpha_blocks_costly_bids_only():
    # Owned set is only the zero-cost auction, so the balance multiplier is
    # infinite; the other auction has a positive cost and is unreachable.
    inst = Instance.from_rows([[2, 1]], [[0, 3]])
    spec = compute_bidder_params(inst)
    assert spec.rightful_auctions == (frozenset({0}),)
    assert spec.cost_multiplier[0] is None
    assert run_auction(spec, inst, 0, [F(5)]) == AuctionResult(0, F(0))
    assert run_auction(spec, inst, 1, [F(5)]) == AuctionResult(None, F(0))


# --- single-bidder mechanism ------------------------------------------------

def test_single_bidder_reserves_and_run():
    inst = Instance.from_rows([[2, 1, 1]], [[1, 1, 2]])
    spec = calibrate_single_bidder(inst)
    out = run_all(spec, inst, MultiplierProfile.of(["3/2"]))
    assert out.winners == (0, 0, None)
    assert out.prices == (F(3, 2), F(3, 2), F(0))


def test_single_bidder_thresholds_are_reserves():
    inst = Instance.from_rows([[2, 1, 1]], [[1, 1, 2]])
    spec = calibrate_single_bidder(inst)
    for j, want in enumerate([F(3, 2), F(3, 2), F(3)]):
        assert winning_bid(spec, inst, j, 0, [F(0)]) == threshold(want, True)


def test_single_bidder_infinite_reserve_blocks_costly_auctions():
    inst = Instance.from_rows([[1, 1]], [[0, 2]])
    spec = calibrate_single_bidder(inst)
    assert spec.cost_multiplier is None
    assert run_auction(spec, inst, 0, [F(1)]) == AuctionResult(0, F(0))
    assert run_auction(spec, inst, 1, [F(100)]) == AuctionResult(None, F(0))


# --- labels and serialization -----------------------------------------------

def test_mechanism_labels_round_trip():
    inst = Instance.from_rows([[1]], [[1]])
    for label in ["second-price", "global:3/2", "single-bidder", "auction-dep",
                  "bidder-dep"]:
        assert mechanism_label(mechanism_from_label(label, inst)) == label


def test_mechanism_from_label_rejects_unknown():
    inst = Instance.from_rows([[1]], [[1]])
    with pytest.raises(ValueError, match="unknown mechanism"):
        mechanism_from_label("first-price", inst)


# --- cross-mechanism properties ----------------------------------------------

@settings(max_examples=60, deadline=None)
@given(instances_with_profiles())
def test_winner_pays_its_threshold_and_clears_it(pair):
    inst, profile = pair
    bids = bids_from(profile, inst)
    for spec in all_specs(inst):
        out = run_all(spec, inst, profile)
        kernel_bids = Bids(spec, inst, profile)
        for j, winner in enumerate(out.winners):
            if winner is None:
                continue
            column = [bids[i][j] for i in range(inst.num_bidders)]
            t = min_winning_bid(kernel_bids, j, winner)
            assert t.value == out.prices[j]
            assert t.value is not None
            assert t.admits(column[winner])


@settings(max_examples=60, deadline=None)
@given(instances_with_profiles())
def test_losers_fail_their_thresholds(pair):
    inst, profile = pair
    bids = bids_from(profile, inst)
    for spec in all_specs(inst):
        out = run_all(spec, inst, profile)
        kernel_bids = Bids(spec, inst, profile)
        for j in range(inst.num_auctions):
            column = [bids[i][j] for i in range(inst.num_bidders)]
            for i in range(inst.num_bidders):
                if out.winners[j] == i:
                    continue
                t = min_winning_bid(kernel_bids, j, i)
                assert not t.admits(column[i])


@settings(max_examples=60, deadline=None)
@given(instances_with_profiles())
def test_raising_a_winning_bid_keeps_winning(pair):
    inst, profile = pair
    bids = bids_from(profile, inst)
    for spec in all_specs(inst):
        out = run_all(spec, inst, profile)
        for j, winner in enumerate(out.winners):
            if winner is None:
                continue
            column = [bids[i][j] for i in range(inst.num_bidders)]
            column[winner] = 2 * column[winner] + 1
            assert run_auction(spec, inst, j, column).winner == winner


@settings(max_examples=60, deadline=None)
@given(instances_with_profiles())
def test_no_outcome_beats_optimal_welfare(pair):
    inst, profile = pair
    cap = optimal_welfare(inst)
    for spec in all_specs(inst):
        assert welfare(inst, run_all(spec, inst, profile)) <= cap


@settings(max_examples=30, deadline=None)
@given(small_instances())
def test_kept_instance_fields_leave_equality_and_hash_alone(inst):
    twin = Instance(inst.values, inst.costs)
    before = hash(inst)
    assert inst.valued == tuple(tuple((j, v) for j, v in enumerate(row) if v)
                                for row in inst.values)
    assert inst == twin and twin == inst
    assert hash(inst) == before == hash(twin)
    assert repr(inst) == repr(twin)
