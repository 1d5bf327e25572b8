"""The reserve-plus-shift auction kernel against the per-rule reference.

`reference_mechanisms` derives each rule's winner, payment and threshold from
the rule's own definition. Every comparison here covers the kernel's winner,
payment, threshold value and `inclusive` flag, at the given bids and again
with each bidder bidding exactly its threshold, where ties decide.
"""

import ast
import inspect
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings

import reference_mechanisms as ref
from bidarena import mechanisms
from bidarena.cli import parse_gamma_grid, sweep_global
from bidarena.instances import counterexample
from bidarena.mechanisms import (Bids, GlobalCostMultiplier, SecondPrice,
                                 SingleBidderCalibrated, compute_auction_params,
                                 compute_bidder_params, market, run_all)
from bidarena.model import Instance, MultiplierProfile, bids_from
from bidarena.verify import family_instance, probe_profile, standard_specs

from conftest import (all_specs, column_bids, coprime_profile, instances_with_profiles,
                      off_grid_instance, row_bids, seeded_market, small_instances)

F = Fraction


def check_auction(spec, inst, auction, column) -> int:
    """Assert agreement on one bid column; returns the number of comparisons."""
    assert mechanisms.run_auction(spec, inst, auction, column) == \
        ref.run_auction(spec, inst, auction, column)
    bids = column_bids(spec, inst, auction, column)
    for i in range(inst.num_bidders):
        assert mechanisms.min_winning_bid(bids, auction, i) == \
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
            if t.value is not None:
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
        check_bids(spec, inst, Bids(spec, inst, profile), bids)


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


def check_market_terms(spec, inst) -> int:
    """`market` against its Fraction-product reference, field by field; returns
    the number of auctions where the kernel's scale leaves out a cost
    denominator of the column's own scale (no cost counts there)."""
    mk = market(spec, inst)
    scale, values, reserves, shifts = ref.market(spec, inst)
    assert mk.scale == scale
    assert mk.values == values
    assert mk.reserves == reserves
    assert mk.shifts == shifts
    return sum(d < column[0] for d, column in zip(mk.scale, inst.columns))


def test_market_terms_match_the_fraction_reference():
    # The same d_j as Fraction products give, so the kernel's ints do not grow.
    specs = values_only = single = 0
    for seed in range(150):
        inst = family_instance(seed)
        for spec in standard_specs(inst):  # with single-bidder on 1-bidder markets
            values_only += check_market_terms(spec, inst)
            specs += 1
            single += isinstance(spec, SingleBidderCalibrated)
        inst = off_grid_instance(seed)
        for spec in all_specs(inst):
            values_only += check_market_terms(spec, inst)
            specs += 1
    delta = F(1, 8)
    inst = counterexample(delta)
    for i in range(1, inst.num_bidders + 2):
        check_market_terms(GlobalCostMultiplier(1 + delta ** i), inst)
    assert specs > 1500
    assert single > 30
    # Second price and global:0 on columns whose costs add a denominator.
    assert values_only > 200


def test_reference_imports_no_function_from_bidarena():
    # A convention shared with the kernel would agree with it even when wrong.
    tree = ast.parse(inspect.getsource(ref))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module.startswith("bidarena")
                for alias in node.names]
    assert "Threshold" in imported
    assert [name for name in imported if inspect.isfunction(getattr(ref, name))] == []


# The int kernel: `Bids` keeps each bid as a pair (P, Q) over the auction's
# scale d_j, and compares scores by cross-multiplying. The cases below make
# Q differ within a column, make d_j and Q long, leave most bidders of an
# auction on the zero-cost default terms, and give auction-dep its
# half-value reserves and its columns where nobody may win.


def check_bids(spec, inst, bids, rows) -> int:
    """A `Bids` against the reference on the Fraction rows it should hold:
    its rows, its outcome, and every threshold read from its standings.
    Returns the number of comparisons."""
    n = inst.num_bidders
    assert [list(bids[i]) for i in range(n)] == [list(row) for row in rows]
    outcome = bids.outcome()
    for j in range(inst.num_auctions):
        column = [row[j] for row in rows]
        want = ref.run_auction(spec, inst, j, column)
        assert (outcome.winners[j], outcome.prices[j]) == (want.winner, want.payment)
        for i in range(n):
            assert mechanisms.min_winning_bid(bids, j, i) == \
                ref.min_winning_bid(spec, inst, j, i, column)
    return inst.num_auctions * (1 + n)


def mixed_rows(rng, inst):
    """Non-uniform bid rows whose entries have denominators from 1 to 12."""
    return [[F(rng.randint(0, 60), rng.randint(1, 12)) for _ in range(inst.num_auctions)]
            for _ in range(inst.num_bidders)]


def unequal_dens_in_a_column(bids) -> bool:
    return any(len(set(dens)) > 1 for dens in bids.dens)


def moved_through(spec, inst, profiles, start=None) -> int:
    """`Bids` from the rows `start` (the truthful profile by default) whose bidders move,
    one at a time, to each profile in turn, checked against the reference
    after every move. A move sets the mover's bids on the auctions it values
    and keeps its bids on the others. From truthful rows, `run_all` on each
    full profile too. Returns the number of comparisons."""
    rows = [list(row) for row in (start or inst.values)]
    bids = row_bids(spec, inst, start) if start else \
        Bids(spec, inst, MultiplierProfile.uniform(inst.num_bidders))
    cases = check_bids(spec, inst, bids, rows)
    for profile in profiles:
        for i, theta in enumerate(profile.multipliers):
            bids.move(i, theta)
            rows[i] = [theta * v if v else bid for v, bid in zip(inst.values[i], rows[i])]
            cases += check_bids(spec, inst, bids, rows)
        if start is None:
            assert run_all(spec, inst, profile) == bids.outcome()
    return cases


def unvalued_bids(inst, rows) -> int:
    """Nonzero bids on auctions their bidder does not value."""
    return sum(bool(bid) and not v for row, values in zip(rows, inst.values)
               for bid, v in zip(row, values))


def test_bids_match_reference_on_rows_with_mixed_denominators():
    cases = unequal = 0
    for seed in range(80):
        inst = off_grid_instance(seed)
        rows = mixed_rows(random.Random(seed), inst)
        for spec in all_specs(inst):
            bids = row_bids(spec, inst, rows)
            cases += check_bids(spec, inst, bids, rows) + check_market(spec, inst, rows)
            unequal += unequal_dens_in_a_column(bids)
    assert cases > 25000
    assert unequal > 300


def test_moves_match_reference_under_long_coprime_multipliers():
    cases = unequal = long_scale = kept = 0
    for seed in range(50):
        inst = off_grid_instance(seed)
        rng = random.Random(seed)
        profiles = [coprime_profile(rng, inst.num_bidders) for _ in range(2)]
        start = mixed_rows(rng, inst)
        kept += unvalued_bids(inst, start)
        for spec in all_specs(inst):
            cases += moved_through(spec, inst, profiles)
            cases += moved_through(spec, inst, profiles, start)
            bids = Bids(spec, inst, profiles[0])
            unequal += unequal_dens_in_a_column(bids)
            long_scale += any(q * d > 10 ** 20 for dens, d in zip(bids.dens, bids.market.scale)
                              for q in dens)
    assert cases > 50000
    assert unequal > 200
    assert long_scale > 100
    assert kept > 80


def test_sparse_counterexample_markets_match_reference():
    # Each auction of the family has one bidder with a nonzero value or cost;
    # every other bidder takes the auction's zero-cost terms.
    cases = 0
    for delta in (F(1, 4), F(1, 8), F(1, 12)):
        inst = counterexample(delta)
        assert all(len(valued) == len(costed) == 1 for _, valued, costed, _, _ in inst.columns)
        n = inst.num_bidders
        gammas = [F(0), F(1, 2), F(1), F(2)] + [1 + delta ** i for i in range(1, n + 2)]
        rng = random.Random(n)
        profiles = [MultiplierProfile(tuple(1 + delta ** rng.randint(1, n) for _ in range(n))),
                    coprime_profile(rng, n)]
        for gamma in gammas:
            spec = GlobalCostMultiplier(gamma)
            cases += moved_through(spec, inst, profiles)
            rows = mixed_rows(rng, inst)
            cases += check_bids(spec, inst, row_bids(spec, inst, rows), rows)
    assert cases > 100000


def test_auction_dep_half_value_reserves_and_closed_auctions_match_reference():
    cases = half_value = closed = 0
    for seed in range(120):
        inst = off_grid_instance(seed, zero_share=0.45)
        spec = compute_auction_params(inst)
        mk = market(spec, inst)
        for j, (rw, alpha) in enumerate(zip(spec.rightful_winner, spec.cost_multiplier)):
            closed += rw is None
            # An infinite alpha on a zero cost: a reserve of half the rightful
            # winner's value, for every zero-cost bidder of the auction.
            half_value += rw is not None and alpha is None and \
                inst.values[rw][j] > 0 and any(
                    not inst.costs[i][j] and mk.reserves[j][i] * 2 == mk.values[j][rw]
                    for i in range(inst.num_bidders))
        rng = random.Random(seed)
        profiles = [coprime_profile(rng, inst.num_bidders) for _ in range(2)]
        cases += moved_through(spec, inst, profiles)
        rows = mixed_rows(rng, inst)
        cases += moved_through(spec, inst, profiles, rows)
        cases += check_bids(spec, inst, row_bids(spec, inst, rows), rows)
        cases += check_market(spec, inst, rows)
    assert cases > 15000
    assert half_value > 150
    assert closed > 40


@settings(max_examples=40, deadline=None)
@given(small_instances())
def test_a_built_market_leaves_instance_equality_hash_and_repr_alone(inst):
    twin = Instance(inst.values, inst.costs)
    before = (hash(inst), repr(inst))
    for spec in all_specs(inst):
        built = market(spec, inst)
        assert market(spec, inst) is built and built.spec is spec
        assert inst == twin and twin == inst
        assert (hash(inst), repr(inst)) == before == (hash(twin), repr(twin))


# Seeded standings: a `Bids` scans each column of truthful bids only over
# `Instance.seeds`, then moves in its profile. Its standings must equal a
# `_scan` of the whole column.


def full_scans(bids) -> list:
    mk = bids.market
    return [mechanisms._scan(*column)
            for column in zip(bids.nums, bids.dens, mk.reserves, mk.shifts)]


def check_seeded(spec, inst, profiles=()) -> int:
    """The `Bids` of the truthful profile and of each of `profiles` against
    full scans; returns the number of seeded columns checked."""
    for profile in (MultiplierProfile.uniform(inst.num_bidders), *profiles):
        bids = Bids(spec, inst, profile)
        assert bids.standings == full_scans(bids)
    return (1 + len(profiles)) * sum(seed is not None for seed in inst.seeds)


def test_seeded_truthful_standings_match_full_scans():
    seeded = 0
    for seed in range(80):
        for inst in (family_instance(seed), off_grid_instance(seed),
                     off_grid_instance(seed, zero_share=0.8)):
            for spec in all_specs(inst):
                seeded += check_seeded(spec, inst)
    assert seeded > 300


def test_seeded_standings_of_other_profiles_match_full_scans():
    # A bidder outside an auction's seeds has no value or cost there, so it
    # bids 0 under any multiplier: the seeds hold for every profile.
    built = seeded = 0
    for seed in range(80):
        rng = random.Random(seed)
        for inst in (family_instance(seed), off_grid_instance(seed),
                     off_grid_instance(seed, zero_share=0.8)):
            profiles = (probe_profile(seed, inst.num_bidders),
                        coprime_profile(rng, inst.num_bidders))
            for spec in all_specs(inst):
                seeded += check_seeded(spec, inst, profiles)
                built += 1 + len(profiles)
    for k in (4, 8, 12, 48):
        delta = F(1, k)
        inst = counterexample(delta)
        n = inst.num_bidders
        rng = random.Random(k)
        profiles = (probe_profile(k, n), coprime_profile(rng, n),
                    MultiplierProfile(tuple(1 + delta ** rng.randint(1, n) for _ in range(n))))
        for gamma in (F(0), F(1), 1 + delta, 1 + delta ** 2):
            seeded += check_seeded(GlobalCostMultiplier(gamma), inst, profiles)
            built += 1 + len(profiles)
    assert built > 4000
    assert seeded > 3000


def test_seeded_sweep_points_match_full_scans_and_run_all():
    grid = parse_gamma_grid("0:2:20")
    for k in (8, 48):
        delta = F(1, k)
        inst = counterexample(delta)
        assert all(len(seed) == 3 for seed in inst.seeds)
        gammas = grid + [1 + delta ** i for i in range(1, k + 2)]
        for spec in [SecondPrice()] + [GlobalCostMultiplier(g) for g in gammas]:
            check_seeded(spec, inst)
        # Above delta / (1 - delta) bidder 0's truthful bid misses its reserve
        # in auction a_1, which the two lowest zero-value, zero-cost bidders hold.
        spec = GlobalCostMultiplier(2 * delta / (1 - delta))
        assert [i for *_, i in Bids(spec, inst, MultiplierProfile.uniform(inst.num_bidders))
                .standings[0]] == [1, 2]
        for gamma, report in sweep_global(delta, grid):
            assert report.outcome == run_all(GlobalCostMultiplier(gamma), inst, report.profile)


# `Bids.trials` prices one bidder's trial bids in one auction against one
# scan of its rivals. Each yield must agree with the reference auction run on
# the Fraction column with that bid written in, and neither the `Bids` nor its
# `Market` may change.


def crowded_market(seed: int) -> tuple[Instance, list[list[Fraction]]]:
    """A 6-8 bidder `verify` family market with bids on the half grid up to 3,
    so the bidders holding a column's two places often tie a rival's score."""
    inst = family_instance(seed, num_bidders=6 + seed % 3)
    rng = random.Random(seed)
    return inst, [[F(rng.randrange(0, 7), 2) for _ in range(inst.num_auctions)]
                  for _ in range(inst.num_bidders)]


def check_trials(spec, inst, rows) -> tuple[int, int, int]:
    """Every bidder's trials in every auction of `row_bids(spec, inst, rows)`:
    0, its exact threshold, one kernel unit above it, and its raised bids
    b + 1 and 2b + 1. Returns (trials, trials lost at an exact threshold,
    those among them by a bidder holding one of the column's two places)."""
    bids = row_bids(spec, inst, rows)
    before = ([list(c) for c in bids.nums], [list(c) for c in bids.dens], list(bids.standings))
    reserves = [list(c) for c in bids.market.reserves]
    cases = tied = held = 0
    for j, d in enumerate(bids.market.scale):
        column = [row[j] for row in rows]
        places = [i for *_, i in bids.standings[j]]
        for i, bid in enumerate(column):
            trial = [F(0), bid + 1, 2 * bid + 1]
            t = ref.min_winning_bid(spec, inst, j, i, column)
            if t.value is not None:
                trial += [t.value, t.value + F(1, t.value.denominator * d)]
            got = list(bids.trials(j, i, [(b.numerator * d, b.denominator) for b in trial]))
            assert list(map(list, bids.market.reserves)) == reserves
            assert len(got) == len(trial)
            for b, price in zip(trial, got):
                want = ref.run_auction(spec, inst, j, column[:i] + [b] + column[i + 1:])
                if want.winner == i:
                    assert price is not None and F(price[0], price[1] * d) == want.payment
                else:
                    assert price is None
                lost_tie = b == t.value and not t.inclusive
                tied += lost_tie
                held += lost_tie and i in places
            cases += len(trial)
    assert (bids.nums, bids.dens, bids.standings) == before
    return cases, tied, held


def test_trials_match_reference_auctions():
    cases = tied = held = 0
    for seed in range(60):
        corpus = [seeded_market(seed), crowded_market(seed)]
        inst = off_grid_instance(seed)
        corpus.append((inst, mixed_rows(random.Random(seed), inst)))
        for inst, rows in corpus:
            for spec in all_specs(inst):
                counted = check_trials(spec, inst, rows)
                cases, tied, held = (a + b for a, b in zip((cases, tied, held), counted))
    # The crowded markets add about 29,400 trials and 3,200 lost ties, 800 of
    # those by a bidder holding one of its column's two places.
    assert cases > 53000
    assert tied > 4500
    assert held > 1800


def test_trials_scan_the_column_once(monkeypatch):
    # However many trial bids a call gets, and wherever its bidder stands in
    # the stored standing, the column is scanned once, over the rivals.
    scans = []
    scan = mechanisms._scan
    monkeypatch.setattr(mechanisms, "_scan", lambda *column: scans.append(column) or scan(*column))
    stood = set()
    for seed in range(6):
        inst, rows = crowded_market(seed)
        for spec in all_specs(inst):
            bids = row_bids(spec, inst, rows)
            for j, top in enumerate(bids.standings):
                places = [i for *_, i in top]
                for i in range(inst.num_bidders):
                    stood.add(places.index(i) if i in places else None)
                    for count in (1, 50):
                        scans.clear()
                        list(bids.trials(j, i, [(k, 2) for k in range(count)]))
                        assert len(scans) == 1
    assert stood == {0, 1, None}


def test_only_the_kernel_names_its_standing_helpers():
    # They read a standing's layout; every other module goes through `Bids`,
    # `min_winning_bid` and `Bids.trials`.
    helpers = {"_scan", "_price", "_least_bid", "_moved"}
    named = {}
    for path in sorted(Path(mechanisms.__file__).parent.glob("*.py")):
        named[path.name] = {
            name for node in ast.walk(ast.parse(path.read_text()))
            for name in ([alias.name for alias in node.names]
                         if isinstance(node, (ast.Import, ast.ImportFrom))
                         else [node.id] if isinstance(node, ast.Name)
                         else [node.attr] if isinstance(node, ast.Attribute) else [])
        } & helpers
    assert named.pop("mechanisms.py") == helpers
    assert len(named) >= 8 and not any(named.values()), named
