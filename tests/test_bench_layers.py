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

from bidarena import bestresponse  # noqa: E402
from bidarena.mechanisms import compute_bidder_params  # noqa: E402
from bidarena.model import Instance, MultiplierProfile, bids_from  # noqa: E402


@pytest.mark.parametrize("layer", sorted(tracing.LAYERS))
def test_every_traced_layer_resolves(layer):
    module_name, function = tracing.LAYERS[layer]
    assert callable(getattr(importlib.import_module(module_name), function))


def test_thresholds_are_traced_under_the_best_response():
    inst = Instance.from_rows([[4, 1, 2], [2, 3, 2]], [[1, 1, 0], [1, 1, 1]])
    spec = compute_bidder_params(inst)
    bid_rows = bids_from(MultiplierProfile.of([Fraction(3, 2), 1]), inst)
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
