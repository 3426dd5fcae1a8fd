"""What the DP stack binds: the ordered-service solver's one-position
delivery count, the candidate-index fill, and a memory bound on a
single-pair dense DP kernel."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import DBDPPolicy
from repro.experiments.configs import video_symmetric_spec
from repro.sim import batch_kernels
from repro.sim.batch_kernels import _ChunkedArgmaxUniforms, solve_ordered_service
from repro.sim.batch_sim import BatchIntervalSimulator
from repro.sim.rng import RowBlockStreams


def _reference_deliveries(order, backlog, needed_cum, caps):
    """``min(count(needed_cum <= budget), backlog)`` per link, with the
    budget ``caps - attempts needed before`` of the link's position."""
    S, n, _ = needed_cum.shape
    tot = batch_kernels.drain_totals(needed_cum, backlog)
    out = np.zeros((S, n), dtype=np.int64)
    for s in range(S):
        before = 0
        for j in range(n):
            link = order[s, j]
            budget = caps[s, j] - before
            count = int(np.count_nonzero(needed_cum[s, link] <= budget))
            out[s, link] = min(count, backlog[s, link])
            before += tot[s, link]
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
@pytest.mark.parametrize("seed", range(6))
def test_truncated_position_count_matches_the_whole_axis_count(dtype, seed):
    rng = np.random.default_rng(seed)
    S, n, A = 40, 9, 6
    draws = np.maximum(np.ceil(rng.exponential(3.0, (S, n, A))), 1)
    needed_cum = np.cumsum(draws, axis=2).astype(dtype)
    backlog = rng.integers(0, A + 1, (S, n))
    backlog[rng.random((S, n)) < 0.3] = 0  # many empty buffers
    backlog[0] = 0  # a fully empty row
    order = np.argsort(rng.random((S, n)), axis=1)
    # Non-increasing ceilings: a staircase, some rows starved outright,
    # some exactly at a prefix of drain totals.
    caps = np.sort(rng.integers(-3, 80, (S, n)), axis=1)[:, ::-1].copy()
    caps[1] = 0
    caps[2] = -5
    tot = batch_kernels.drain_totals(needed_cum, backlog)
    for s in range(3, 8):
        tot_pos = tot[s, order[s]]
        cut = int(rng.integers(1, n + 1))
        caps[s] = np.sum(tot_pos[:cut])  # budget exactly at a drain total
    delivered, attempts, _ = solve_ordered_service(
        order, backlog, needed_cum, caps
    )
    expected = _reference_deliveries(order, backlog, needed_cum, caps)
    np.testing.assert_array_equal(delivered, expected)
    assert np.all(delivered[1:3] == 0)
    assert np.all(attempts <= tot)


def _whole_chunk_argmax(seed, depth, rows, m, blocks=None):
    """``1 + argmax`` of one whole-chunk ``random`` call (per block)."""
    if blocks is None:
        u = np.random.default_rng(seed).random((depth, rows, m))
        return 1 + u.argmax(axis=2)
    out = np.empty((depth, rows), dtype=np.intp)
    for i, (lo, hi) in enumerate(blocks):
        u = np.random.default_rng([seed, i]).random((depth, hi - lo, m))
        out[:, lo:hi] = 1 + u.argmax(axis=2)
    return out


@pytest.mark.parametrize("rows, m, depth", [(7, 19, 5), (600, 25, 40), (3, 80, 300)])
@pytest.mark.parametrize("blocked", [False, True])
def test_candidate_fill_by_slab_equals_the_whole_chunk_argmax(
    rows, m, depth, blocked
):
    blocks = None
    if blocked:
        cut = rows // 3 or 1
        blocks = [(0, cut), (cut, rows)]
        stream = RowBlockStreams(
            blocks, [np.random.default_rng([11, i]) for i in range(2)]
        )
    else:
        stream = np.random.default_rng(11)
    source = _ChunkedArgmaxUniforms(rows, m, depth=depth)
    got = np.stack([source.next(stream).copy() for _ in range(2 * depth)])
    first = _whole_chunk_argmax(11, depth, rows, m, blocks)
    assert np.array_equal(got[:depth], first)
    # The scratch never holds more than its bound, plus one row's slab.
    assert source._scratch.size <= max(
        batch_kernels._ARGMAX_SCRATCH_VALUES, rows * m
    )


def test_single_pair_dense_kernel_binds_a_bounded_footprint():
    """DB-DP on an (800, 26) stack: the bind traces under 5 MiB and bind
    plus one interval peak under 19 MiB (most of it the channel chunk) —
    no (S, N, A) delivery cube, no whole-chunk candidate uniforms, no
    single-pair timeline planes.  Without a plan every chunk is filled
    on this thread, so the trace is deterministic."""
    spec = video_symmetric_spec(0.55, num_links=26)
    tracemalloc.start()
    try:
        sim = BatchIntervalSimulator(
            spec, DBDPPolicy(), list(range(800)), record_traces=False,
            validate=False,
        )
        bound, _ = tracemalloc.get_traced_memory()
        sim.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sim.dp_state == "dense"
    assert bound < 5 * 2**20, bound / 2**20
    assert peak < 19 * 2**20, peak / 2**20
