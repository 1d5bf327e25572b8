"""The benchmark's layer tracing still finds the functions it wraps.

`bench/tracing.py` replaces package functions by (module, name) and counts
calls per layer; a rename or a call that bypasses the module-level name would
silently zero a layer. This reads `bench/` without changing it.
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402

from bidarena import bestresponse, equilibrium  # noqa: E402
from bidarena.mechanisms import Bids, compute_bidder_params  # noqa: E402
from bidarena.model import Instance, MultiplierProfile  # noqa: E402


@pytest.mark.parametrize("layer", sorted(tracing.LAYERS))
def test_every_traced_layer_resolves(layer):
    module_name, function = tracing.LAYERS[layer]
    assert callable(getattr(importlib.import_module(module_name), function))


def test_thresholds_are_traced_under_the_best_response():
    inst = Instance.from_rows([[4, 1, 2], [2, 3, 2]], [[1, 1, 0], [1, 1, 1]])
    spec = compute_bidder_params(inst)
    bid_rows = Bids(spec, inst, MultiplierProfile.of([Fraction(3, 2), 1]))
    tracer = tracing.Tracer()
    with tracer.active():
        bestresponse.best_response_against_bids(inst, spec, 0, bid_rows)
    names = [span[0] for span in tracer.spans]
    assert names[0] == "bestresponse.best_response"
    thresholds = [span for span in tracer.spans if span[0] == "mechanisms.min_winning_bid"]
    assert len(thresholds) == inst.num_auctions
    assert all(span[3] == 0 for span in thresholds)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["mechanisms.min_winning_bid.calls"] == inst.num_auctions
    assert metrics["bestresponse.best_response.calls"] == 1


def test_dynamics_route_every_best_response_and_threshold_through_the_layers():
    # Every bidder values every auction, so each best response reads exactly
    # one threshold per auction. A dynamics loop that read thresholds or
    # best responses some other way would leave these counts short.
    inst = Instance.from_rows([[4, 2, 4, 1], [2, 4, 4, 2], [3, 2, 2, 4]],
                              [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 1]])
    spec = compute_bidder_params(inst)
    tracer = tracing.Tracer()
    with tracer.active():
        report = equilibrium.run_dynamics(inst, spec)
    assert report.converged and report.rounds_used == 3
    spans = tracer.spans
    replies = [k for k, span in enumerate(spans) if span[0] == "bestresponse.best_response"]
    # Three rounds of three bidders, less one: bidder 2's reply of round 2
    # is reused in the silent round 3, since no rival of bidder 2 moves after
    # it. Verification reuses the silent round's replies.
    assert len(replies) == report.rounds_used * inst.num_bidders - 1 == 8
    for k in replies:
        children = [span for span in spans
                    if span[3] == k and span[0] == "mechanisms.min_winning_bid"]
        assert len(children) == inst.num_auctions
    metrics = tracing.layer_metrics(spans)
    assert metrics["bestresponse.best_response.calls"] == len(replies)
    assert metrics["mechanisms.min_winning_bid.calls"] == len(replies) * inst.num_auctions
