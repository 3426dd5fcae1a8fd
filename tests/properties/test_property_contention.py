"""Property test: the FCSMA/DCF contention kernel equals the scalar round
loop on shared draws, whatever the stack shape, windows, arrivals, retry
blocks, timing and block length."""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BernoulliChannel,
    ConstantArrivals,
    DCFPolicy,
    DebtWindowMap,
    FCSMAPolicy,
    NetworkSpec,
    idealized_timing,
    video_timing,
)
from repro.sim import batch_kernels
from repro.sim.batch_kernels import make_batch_kernel
from tests.sim.contention_reference import ReferenceRun

_windows = st.lists(
    st.integers(min_value=1, max_value=300), min_size=1, max_size=4
).map(lambda ws: DebtWindowMap(windows=tuple(sorted(ws, reverse=True))))

_dcf = st.tuples(
    st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=6)
).map(lambda c: DCFPolicy(cw_min=c[0], cw_max=c[0] << c[1]))

_policies = st.one_of(_windows.map(FCSMAPolicy), _dcf)

_timings = st.one_of(
    st.integers(min_value=1, max_value=16).map(idealized_timing),
    st.just(video_timing()),
)


@given(
    policy=_policies,
    timing=_timings,
    rows=st.integers(min_value=1, max_value=4),
    links=st.integers(min_value=1, max_value=10),
    max_arrivals=st.integers(min_value=1, max_value=4),
    p=st.floats(min_value=0.3, max_value=1.0),
    block_elements=st.sampled_from([1, 8, 64, 1 << 15]),
    intervals=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_kernel_equals_scalar_round_loop(
    policy, timing, rows, links, max_arrivals, p, block_elements, intervals, seed
):
    spec = NetworkSpec.from_delivery_ratios(
        arrivals=ConstantArrivals.symmetric(links, max_arrivals),
        channel=BernoulliChannel.symmetric(links, 0.5),
        timing=timing,
        delivery_ratios=0.5,
    )
    kernel = make_batch_kernel(policy)
    with mock.patch.object(
        batch_kernels, "_CONTENTION_BLOCK_ELEMENTS", block_elements
    ):
        kernel.bind(spec, rows, rng="free")
    run = ReferenceRun(kernel, rows)
    rng = np.random.default_rng(seed)
    M = timing.max_transmissions
    for k in range(intervals):
        arrivals = rng.integers(0, max_arrivals + 1, size=(rows, links))
        debts = rng.uniform(0.0, 6.0, size=(rows, links))
        needed = np.cumsum(
            rng.geometric(p, size=(rows, links, max_arrivals)), axis=2
        ).astype(np.float32)
        run.interval(k, arrivals, debts, needed, rng.random((M, rows, links)))
