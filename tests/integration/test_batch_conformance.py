"""Batch-engine conformance: the eligibility predicate and the engine agree.

One cross-product over every registered policy family, every draw
discipline, and the channel and arrival models whose batch support
differs.  ``supports_batch_engine`` must be True exactly when
``BatchIntervalSimulator`` constructs (and runs); every refusal is a
``TypeError`` carrying :func:`repro.sim.batch_sim.batch_refusal`'s
message.  The expected verdict comes from the table below, not from the
gate, so a change to the gate that moves any cell shows up here.
"""

from __future__ import annotations

import pytest

from repro import (
    BernoulliChannel,
    GilbertElliottChannel,
    NetworkSpec,
    TimeVaryingReliability,
    idealized_timing,
    supports_batch_engine,
)
from repro.core import registry
from repro.core.dp_protocol import ConstantSwapBias, DPProtocol
from repro.sim.batch_sim import BatchIntervalSimulator, batch_refusal
from repro.sim.rng import RNG_MODES
from repro.traffic.arrivals import (
    BernoulliArrivals,
    BurstyVideoArrivals,
    MarkovModulatedArrivals,
    ParetoBurstArrivals,
)

N = 4
SEEDS = (0, 1)

#: Channel models and the vectorized disciplines that host them
#: (``"sync"`` hosts every model): stochastic state needs free draws,
#: a state that never succeeds cannot be pre-drawn at all, and a
#: deterministic schedule runs under either discipline.
CHANNELS = {
    "bernoulli": (lambda: BernoulliChannel.symmetric(N, 0.8), {"batch", "free"}),
    "ge": (lambda: GilbertElliottChannel(N), {"free"}),
    "ge-p_bad0": (lambda: GilbertElliottChannel(N, p_bad=0.0), set()),
    "tv": (
        lambda: TimeVaryingReliability.symmetric(
            N, 0.9, profile="drift", period=8, amplitude=0.2
        ),
        {"batch", "free"},
    ),
}

#: Arrival processes and the vectorized disciplines that host them.
ARRIVALS = {
    "bernoulli": (lambda: BernoulliArrivals.symmetric(N, 0.5), {"batch", "free"}),
    "bursty-video": (
        lambda: BurstyVideoArrivals.symmetric(N, 0.5),
        {"batch", "free"},
    ),
    "mmpp": (lambda: MarkovModulatedArrivals(N, 0.5), {"free"}),
    "pareto": (lambda: ParetoBurstArrivals(N, start_prob=0.3), {"free"}),
}


def _policy(name: str):
    if name == "DP":  # the generic protocol has no default factory
        return DPProtocol(bias=ConstantSwapBias(0.5))
    return registry.create(name)


@pytest.mark.parametrize("arrivals", sorted(ARRIVALS))
@pytest.mark.parametrize("channel", sorted(CHANNELS))
@pytest.mark.parametrize("mode", RNG_MODES)
@pytest.mark.parametrize("family", registry.available())
def test_predicate_matches_construction(family, mode, channel, arrivals):
    make_channel, channel_modes = CHANNELS[channel]
    make_arrivals, arrival_modes = ARRIVALS[arrivals]
    spec = NetworkSpec.from_delivery_ratios(
        arrivals=make_arrivals(),
        channel=make_channel(),
        timing=idealized_timing(6),
        delivery_ratios=0.4,
    )
    policy = _policy(family)
    expected = registry.has_kernel(policy) and (
        mode == "sync" or mode in channel_modes & arrival_modes
    )

    assert supports_batch_engine(spec, policy, rng=mode) is expected
    if expected:
        sim = BatchIntervalSimulator(spec, policy, SEEDS, rng=mode)
        sim.run(2)
        return
    with pytest.raises(TypeError) as err:
        BatchIntervalSimulator(spec, policy, SEEDS, rng=mode)
    assert str(err.value) == batch_refusal(spec, policy, mode)
    if not registry.has_kernel(policy):
        assert str(err.value).startswith("no batch kernel")
