"""Deterministic simulator for autobidding ad auctions with user costs.

Exact rational arithmetic throughout: the auction kernel, the best responses
and the dynamics run on Python ints scaled by common denominators, and every
number the API takes or returns is a `fractions.Fraction`, so every reported
number is an exact fact about the instance, not an approximation.
"""

from .bestresponse import (ResponseResult, best_response_against_bids,
                           best_response_oracle, quasilinear_best_bid_check,
                           threshold_table)
from .equilibrium import Diagnostics, EquilibriumReport, diagnostics, run_dynamics
from .instances import RandomFamilyParams, counterexample, load, random_instance, save
from .mechanisms import (AuctionDependent, AuctionResult, BidderDependent, Bids,
                         GlobalCostMultiplier, MechanismSpec, SecondPrice,
                         SingleBidderCalibrated, Threshold, calibrate_single_bidder,
                         compute_auction_params, compute_bidder_params,
                         mechanism_from_label, min_winning_bid, rightful_winners,
                         run_all, run_auction)
from .model import (Instance, MultiplierProfile, Outcome, bids_from, optimal_welfare,
                    roi_satisfied, welfare)
from .rationals import as_fraction, parse_rational

__version__ = "0.1.0"

__all__ = [
    "AuctionDependent", "AuctionResult", "BidderDependent", "Bids",
    "Diagnostics", "EquilibriumReport", "GlobalCostMultiplier", "Instance",
    "MechanismSpec", "MultiplierProfile", "Outcome", "RandomFamilyParams",
    "ResponseResult", "SecondPrice", "SingleBidderCalibrated", "Threshold",
    "as_fraction", "best_response_against_bids", "best_response_oracle", "bids_from",
    "calibrate_single_bidder", "compute_auction_params", "compute_bidder_params",
    "counterexample", "diagnostics", "load", "mechanism_from_label",
    "min_winning_bid", "optimal_welfare", "parse_rational",
    "quasilinear_best_bid_check", "random_instance", "rightful_winners",
    "roi_satisfied", "run_all", "run_auction", "run_dynamics", "save",
    "threshold_table", "welfare",
]
