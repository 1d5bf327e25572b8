from fractions import Fraction

import pytest
from hypothesis import given, settings

from bidarena.bestresponse import (ResponseResult, best_response_against_bids,
                                   best_response_oracle, quasilinear_best_bid_check,
                                   threshold_table)
from bidarena.mechanisms import (Bids, GlobalCostMultiplier, SecondPrice,
                                 calibrate_single_bidder, compute_auction_params,
                                 min_winning_bid, run_all)
from bidarena.model import Instance, MultiplierProfile, bids_from

from conftest import (all_specs, instances_with_profiles, off_grid_instance, row_bids,
                      seeded_market)
from reference_mechanisms import threshold

F = Fraction


def respond(inst, spec, bidder, profile):
    return best_response_against_bids(inst, spec, bidder,
                                      Bids(spec, inst, profile))


def play(inst, spec, profile, bidder, theta):
    """(valued auctions won, their value, total payment) when `bidder` plays
    `theta` against the rest of `profile` through `run_all`."""
    played = list(profile.multipliers)
    played[bidder] = theta
    outcome = run_all(spec, inst, MultiplierProfile(tuple(played)))
    won = frozenset(j for j, winner in enumerate(outcome.winners)
                    if winner == bidder and inst.values[bidder][j])
    value = sum((inst.values[bidder][j] for j in won), F(0))
    payment = sum((p for w, p in zip(outcome.winners, outcome.prices) if w == bidder), F(0))
    return won, value, payment


def test_problem_validation():
    inst = Instance.from_rows([[1]], [[0]])
    bids = Bids(SecondPrice(), inst, MultiplierProfile.uniform(1))
    for bidder in (1, -1):
        with pytest.raises(ValueError, match="out of range"):
            threshold_table(inst, SecondPrice(), bidder, bids)
        with pytest.raises(ValueError, match="out of range"):
            best_response_against_bids(inst, SecondPrice(), bidder, bids)
        with pytest.raises(ValueError, match="out of range"):
            best_response_oracle(inst, SecondPrice(), bidder, bids)
        with pytest.raises(ValueError, match="out of range"):
            min_winning_bid(bids, 0, bidder)
        with pytest.raises(ValueError, match="out of range"):
            quasilinear_best_bid_check(inst, SecondPrice(), 0, bidder, bids)
    with pytest.raises(ValueError, match="profile has 2 bidders"):
        bids_from(MultiplierProfile.uniform(2), inst)
    other = Instance.from_rows([[2]], [[0]])
    for wrong in (Bids(GlobalCostMultiplier(F(1)), inst, MultiplierProfile.uniform(1)),
                  Bids(SecondPrice(), other, MultiplierProfile.uniform(1))):
        for respond in (threshold_table, best_response_against_bids, best_response_oracle):
            with pytest.raises(ValueError, match="another mechanism or instance"):
                respond(inst, SecondPrice(), 0, wrong)
        with pytest.raises(ValueError, match="another mechanism or instance"):
            quasilinear_best_bid_check(inst, SecondPrice(), 0, 0, wrong)
    # Bids built for an equal spec and an equal instance are accepted.
    same = Bids(SecondPrice(), Instance(inst.values, inst.costs), MultiplierProfile.uniform(1))
    assert best_response_against_bids(inst, SecondPrice(), 0, same) == \
        best_response_against_bids(inst, SecondPrice(), 0, bids)


def test_thresholds_against_calibrated_reserves():
    inst = Instance.from_rows([[2, 1, 1]], [[1, 1, 2]])
    spec = calibrate_single_bidder(inst)
    bids = Bids(spec, inst, MultiplierProfile.uniform(1))
    assert threshold_table(inst, spec, 0, bids) == [
        (F(3, 4), 0, threshold(F(3, 2), True), F(2)),
        (F(3, 2), 1, threshold(F(3, 2), True), F(1)),
        (F(3), 2, threshold(F(3), True), F(1)),
    ]


def test_best_response_balances_roi_exactly():
    # Reserves 3/2, 3/2, 3 against values 2, 1, 1: raising the multiplier to
    # 3/2 wins the first two auctions with value 3 equal to payment 3; adding
    # the third would cost 6 for value 4.
    inst = Instance.from_rows([[2, 1, 1]], [[1, 1, 2]])
    spec = calibrate_single_bidder(inst)
    result = respond(inst, spec, 0, MultiplierProfile.uniform(1))
    assert result == ResponseResult(F(3, 2), frozenset({0, 1}), F(3), F(3))


def test_best_response_stretches_to_marginal_win():
    inst = Instance.from_rows([[2, 3], [1, 4]], [[0, 0], [0, 0]])
    result = respond(inst, SecondPrice(), 0, MultiplierProfile.uniform(2))
    assert result == ResponseResult(F(4, 3), frozenset({0, 1}), F(5), F(5))


def test_best_response_declines_an_unprofitable_stretch():
    inst = Instance.from_rows([[2, 3], [1, 5]], [[0, 0], [0, 0]])
    result = respond(inst, SecondPrice(), 0, MultiplierProfile.uniform(2))
    assert result == ResponseResult(F(1), frozenset({0}), F(2), F(1))


def test_reply_pairs_behave_like_their_fractions():
    # (6, 4) and (9, 6) are 3/2 at two scales, and (0, 7) and (0, 1) are zero.
    won = frozenset({0, 2})
    twin = ResponseResult(F(5, 4), won, F(3, 2), F(0))
    scaled = ResponseResult(F(5, 4), won, (6, 4), (0, 7))
    rescaled = ResponseResult(F(5, 4), won, (9, 6), (0, 1))
    assert scaled == twin == rescaled and not scaled != twin
    assert scaled.value_ratio == (6, 4) and twin.value_ratio == (3, 2)
    assert hash(scaled) == hash(twin) == hash(rescaled) == hash((F(5, 4), won, F(3, 2), F(0)))
    assert repr(scaled) == repr(twin) == (
        "ResponseResult(multiplier=Fraction(5, 4), won_auctions=frozenset({0, 2}), "
        "total_value=Fraction(3, 2), total_payment=Fraction(0, 1))")
    assert type(scaled.total_value) is Fraction and scaled.total_value.denominator == 2
    assert scaled.total_payment == 0
    assert scaled != ResponseResult(F(5, 4), won, (7, 4), (0, 7))
    assert scaled != ResponseResult(F(5, 4), won, (6, 4), (1, 7))
    assert scaled != ResponseResult(F(3, 2), won, (6, 4), (0, 7))
    assert scaled != ResponseResult(F(5, 4), frozenset({0}), (6, 4), (0, 7))
    assert scaled.__eq__((F(5, 4), won, F(3, 2), F(0))) is NotImplemented
    # The multiplier too: (10, 8) is 5/4 at another scale, and (12, 8) is not.
    paired = ResponseResult((10, 8), won, (6, 4), (0, 7))
    assert paired == twin and hash(paired) == hash(twin) and repr(paired) == repr(twin)
    assert paired.multiplier_ratio == (10, 8) and twin.multiplier_ratio == (5, 4)
    assert type(paired.multiplier) is Fraction and paired.multiplier.denominator == 4
    assert ResponseResult((12, 8), won, (6, 4), (0, 7)) != twin
    # The sweep hands over its pairs unreduced: here value 2 over the lcm 2
    # of the scales of 1/2 and 3/2.
    inst = Instance.from_rows([["1/2", "3/2"], [1, 1]], [[0, 0], [0, 0]])
    reply = respond(inst, SecondPrice(), 0, MultiplierProfile.uniform(2))
    assert reply.value_ratio == (4, 2) and reply.total_value == 2
    assert reply == ResponseResult(F(2), frozenset({0, 1}), F(2), F(2))


def test_replies_build_no_fraction_until_read(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr("bidarena.bestresponse.Fraction", counting)
    replies = []
    for seed in range(6):
        inst = off_grid_instance(seed)
        profile = MultiplierProfile(tuple(F(3 + i, 3) for i in range(inst.num_bidders)))
        for spec in all_specs(inst):
            bids = Bids(spec, inst, profile)
            for bidder in range(inst.num_bidders):
                replies.append(best_response_against_bids(inst, spec, bidder, bids))
                replies.append(best_response_oracle(inst, spec, bidder, bids))
    assert built == []
    thetas = {reply.multiplier for reply in replies}  # one Fraction per read
    assert len(built) == len(replies) and len(thetas) > 5


def test_best_response_ignores_zero_value_auctions():
    inst = Instance.from_rows([[0, 2]], [[0, 0]])
    result = respond(inst, SecondPrice(), 0, MultiplierProfile.uniform(1))
    assert result.won_auctions == frozenset({1})
    assert result.total_value == 2
    assert result.total_payment == 0


def test_best_response_with_nothing_winnable_stays_truthful():
    inst = Instance.from_rows([[1]], [[2]])
    spec = compute_auction_params(inst)
    result = respond(inst, spec, 0, MultiplierProfile.uniform(1))
    assert result == ResponseResult(F(1), frozenset(), F(0), F(0))


def test_best_response_against_bids_ignores_own_row():
    inst = Instance.from_rows([[2, 3], [1, 4]], [[0, 0], [0, 0]])
    rows_a = [[F(0), F(0)], [F(1), F(4)]]
    rows_b = [[F(99), F(99)], [F(1), F(4)]]
    spec = SecondPrice()
    assert best_response_against_bids(inst, spec, 0, row_bids(spec, inst, rows_a)) == \
        best_response_against_bids(inst, spec, 0, row_bids(spec, inst, rows_b))


def test_best_response_prefers_smallest_multiplier_on_ties():
    # Raising the bid past 1 cannot win anything new, so the tie at value 2
    # resolves to the truthful multiplier.
    inst = Instance.from_rows([[2], [5]], [[0], [0]])
    spec = SecondPrice()
    result = respond(inst, spec, 0, MultiplierProfile.uniform(2))
    assert result.multiplier == 1
    assert result.won_auctions == frozenset()


@settings(max_examples=50, deadline=None)
@given(instances_with_profiles())
def test_best_response_is_feasible_and_replayable(pair):
    inst, profile = pair
    for spec in all_specs(inst):
        for bidder in range(inst.num_bidders):
            result = respond(inst, spec, bidder, profile)
            assert result.multiplier >= 1
            assert result.total_value >= result.total_payment
            assert play(inst, spec, profile, bidder, result.multiplier) == \
                (result.won_auctions, result.total_value, result.total_payment)


@settings(max_examples=50, deadline=None)
@given(instances_with_profiles())
def test_best_response_beats_truthful_bidding(pair):
    inst, profile = pair
    for spec in all_specs(inst):
        for bidder in range(inst.num_bidders):
            result = respond(inst, spec, bidder, profile)
            # The reply, played, wins exactly what it claims ...
            assert play(inst, spec, profile, bidder, result.multiplier) == \
                (result.won_auctions, result.total_value, result.total_payment)
            # ... and truthful play is always available, so the reply cannot
            # be worth less than multiplier one when that is ROI-feasible.
            _, base_value, base_payment = play(inst, spec, profile, bidder, F(1))
            if base_value >= base_payment:
                assert result.total_value >= base_value


@settings(max_examples=25, deadline=None)
@given(instances_with_profiles())
def test_best_response_agrees_with_brute_force(pair):
    inst, profile = pair
    for spec in all_specs(inst):
        bids = Bids(spec, inst, profile)
        for bidder in range(inst.num_bidders):
            exact = best_response_against_bids(inst, spec, bidder, bids)
            sampled = best_response_oracle(inst, spec, bidder, bids)
            assert exact.total_value == sampled.total_value


def test_quasilinear_probe_accepts_truthful_second_price():
    inst = Instance.from_rows([[5, 2], [3, 4]], [[1, 0], [2, 1]])
    for spec in all_specs(inst):
        bids = Bids(spec, inst, MultiplierProfile.uniform(2))
        for j in range(inst.num_auctions):
            for i in range(2):
                assert quasilinear_best_bid_check(inst, spec, j, i, bids)


def test_quasilinear_probe_leaves_the_bids_it_reads_unchanged():
    # The probe sets the bidder's entry of the column it scans; that column
    # is a copy, so later probes and best responses on the same `Bids` see
    # the bids it was built from.
    checked = 0
    for seed in range(20):
        inst, rows = seeded_market(seed)
        for spec in all_specs(inst):
            bids = row_bids(spec, inst, rows)
            before = ([list(c) for c in bids.nums], [list(c) for c in bids.dens],
                      list(bids.standings))
            for j in range(inst.num_auctions):
                for i in range(inst.num_bidders):
                    quasilinear_best_bid_check(inst, spec, j, i, bids)
                    checked += 1
            assert (bids.nums, bids.dens, bids.standings) == before
    assert checked > 500
