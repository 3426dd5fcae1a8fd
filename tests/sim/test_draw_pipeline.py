"""The draw pipeline: chunks filled ahead on the draw thread.

Every chunked draw source fills its next chunk on one background thread
while the kernel reads the current one.  These tests pin that this only
moves *when* a fill runs:

* whole simulations are bit-identical with fills queued on the draw
  thread, run at once on the calling thread (the private pool swapped
  for a synchronous one), or made when each chunk is first read (no
  plan), across draw disciplines, channels (static, Gilbert-Elliott,
  time-varying; eager and lazy draws) and arrivals (stateless, MMPP);
* depth 1, the byte rule and depth 64 give the same per-interval blocks
  for every source the byte rule sizes;
* a fill's exception surfaces at the first read of its chunk, with the
  same type and message either way;
* simulations on several threads at once, under fast thread
  switching, still equal their synchronous runs;
* each generator has one reader, nothing is drawn past the plan or
  queued below the size that repays the hand-off, and forked workers
  started after the draw thread finish their work;
* arrival chunks hold the narrowest dtype that fits ``A_max`` in two
  reused buffers, never wrap a value, and hand each interval out as an
  int64 plane that the boundary masker may zero without touching them.
"""

from __future__ import annotations

import gc
import sys
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from repro import (
    BatchIntervalSimulator,
    BernoulliArrivals,
    BernoulliChannel,
    ConstantArrivals,
    DBDPPolicy,
    FCSMAPolicy,
    LDFPolicy,
    NetworkSpec,
    idealized_timing,
)
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.grid import run_sweep_fused
from repro.phy.channel import channel_from_spec
from repro.sim import batch_kernels, perf, rng as rng_mod
from repro.sim.batch_kernels import (
    _ChunkedArgmaxUniforms,
    _ChunkedChannelDraws,
    _ChunkedUniforms,
)
from repro.topology import TopologySimulator, grid_cells
from repro.traffic.arrivals import (
    BurstyVideoArrivals,
    ParetoBurstArrivals,
    arrivals_from_spec,
)
from tests.sim.dp_paths import dp_path

N = 8
SEEDS = (3, 4, 5)
INTERVALS = 300


class _SyncPool:
    """Stands in for the draw thread: runs each fill at once."""

    def submit(self, fill, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fill(*args))
        except BaseException as exc:
            future.set_exception(exc)
        return future


@pytest.fixture
def queue_all(monkeypatch):
    """Queue every chunk on the draw thread, however small."""
    monkeypatch.setattr(batch_kernels, "_QUEUE_MIN_BYTES", 0)


@pytest.fixture
def small_chunks(monkeypatch, queue_all):
    """Byte-sized chunks a few intervals deep, all queued, so a short run
    crosses many chunk boundaries of sources with different depths."""
    monkeypatch.setattr(rng_mod, "_DRAW_CHUNK_BYTES", 4096)


def _spec(channel: str, arrivals: str) -> NetworkSpec:
    return NetworkSpec.from_delivery_ratios(
        arrivals=(
            arrivals_from_spec("mmpp:0.7:0.1:0.8:0.85", N)
            if arrivals == "mmpp"
            else BurstyVideoArrivals.symmetric(N, 0.5)
        ),
        channel=(
            BernoulliChannel.symmetric(N, 0.7)
            if channel == "static"
            else channel_from_spec(
                {"ge": "ge:0.1:0.3", "tv": "tv:drift:50:0.2"}[channel], N
            )
        ),
        timing=idealized_timing(N),
        delivery_ratios=0.6,
    )


def _build(case) -> BatchIntervalSimulator:
    rng, channel, arrivals, dp_state, policy, tags = case
    seeds = SEEDS * 2 if tags else SEEDS
    with dp_path(dp_state):
        return BatchIntervalSimulator(
            _spec(channel, arrivals),
            policy(),
            seeds,
            rng=rng,
            stream_tag=["a"] * 3 + ["b"] * 3 if tags else None,
        )


def _simulate(case, drive: str, sim=None):
    """Traces of one run; ``drive`` is ``"run"`` (planned horizon) or
    ``"step"`` (no plan: every chunk filled when first read).  ``sim``
    is the case's simulator if already built."""
    if sim is None:
        sim = _build(case)
    if drive == "run":
        result = sim.run(INTERVALS)
    else:
        for _ in range(INTERVALS):
            sim.step()
        result = sim.result
    lazy = getattr(sim.kernel._channel_draws, "lazy", False)
    return lazy, [
        result.arrivals,
        result.deliveries,
        result.attempts,
        result.busy_time_us,
        result.overhead_time_us,
        result.collisions,
        sim.debts,
    ]


# (rng, channel, arrivals, dp_state, policy, per-row stream tags)
CASES = [
    ("batch", "static", "bursty", "dense", DBDPPolicy, False),
    ("batch", "static", "bursty", "incremental", DBDPPolicy, False),
    ("free", "static", "bursty", "incremental", DBDPPolicy, False),
    ("free", "static", "mmpp", "dense", DBDPPolicy, False),
    ("free", "ge", "bursty", "dense", DBDPPolicy, False),
    ("free", "ge", "bursty", "dense", DBDPPolicy, True),
    ("batch", "tv", "bursty", "dense", DBDPPolicy, False),
    ("free", "tv", "mmpp", "dense", DBDPPolicy, False),
    ("batch", "static", "bursty", "incremental", DBDPPolicy, True),
    ("batch", "static", "bursty", None, lambda: DBDPPolicy(num_pairs=2), False),
    ("batch", "tv", "bursty", None, LDFPolicy, False),
    ("free", "ge", "bursty", None, FCSMAPolicy, False),
    ("free", "static", "mmpp", "dense", DBDPPolicy, True),
]


@pytest.mark.usefixtures("small_chunks")
@pytest.mark.parametrize(
    "case",
    CASES,
    ids=[
        f"{c[0]}-{c[1]}-{c[2]}-{c[3]}-{i}{'-blocks' if c[5] else ''}"
        for i, c in enumerate(CASES)
    ],
)
def test_prefetch_is_bit_identical_to_synchronous_fills(case, monkeypatch):
    lazy, ahead = _simulate(case, "run")
    # Lazy (raw-draw) channel caches are what the incremental DP path
    # reads on a static channel.
    assert lazy == (case[3] == "incremental")
    _, unplanned = _simulate(case, "step")
    monkeypatch.setattr(batch_kernels, "_pool", _SyncPool())
    _, synchronous = _simulate(case, "run")
    for a, b, c in zip(ahead, synchronous, unplanned):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)


@pytest.mark.usefixtures("small_chunks")
def test_concurrent_simulations_under_fast_thread_switching(monkeypatch):
    """Three simulations on three threads share the one draw thread,
    with the interpreter switching threads every 10 us: each still
    equals its run with synchronous fills."""
    cases = [CASES[0], CASES[1], CASES[4]]
    with monkeypatch.context() as m:
        m.setattr(batch_kernels, "_pool", _SyncPool())
        expected = [_simulate(case, "run")[1] for case in cases]
    # Bound here: the DP path hook is one class attribute for the process.
    sims = [_build(case) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(cases)) as pool:
            futures = [
                pool.submit(_simulate, case, "run", sim)
                for case, sim in zip(cases, sims)
            ]
            got = [f.result(timeout=300)[1] for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for want, have in zip(expected, got):
        for a, b in zip(want, have):
            np.testing.assert_array_equal(a, b)


# -- depth ---------------------------------------------------------------
S, A = 3, 5


def _channel_source(kind: str, depth):
    probs = np.array([0.6, 0.75, 0.9, 0.8])
    state = None
    if kind in ("ge", "tv"):
        spec = {"ge": "ge:0.1:0.3", "tv": "tv:drift:7:0.2"}[kind]
        channel = channel_from_spec(spec, len(probs))
        state = type(channel).stack_rows((channel,) * S)
    source = _ChunkedChannelDraws(probs, S, A, depth=depth, state=state)
    if kind == "lazy":
        source.set_lazy()
    return source


SOURCES = {
    "channel": lambda depth: _channel_source("static", depth),
    "channel-lazy": lambda depth: _channel_source("lazy", depth),
    "channel-ge": lambda depth: _channel_source("ge", depth),
    "channel-tv": lambda depth: _channel_source("tv", depth),
    "uniforms": lambda depth: _ChunkedUniforms(S, 7, depth=depth),
    "argmax-uniforms": lambda depth: _ChunkedArgmaxUniforms(S, 7, depth=depth),
}


def _read(make, depth, intervals=70):
    source = make(depth)
    source.plan(intervals)
    streams = (np.random.default_rng(5), np.random.default_rng(6))
    if not isinstance(source, _ChunkedChannelDraws):
        streams = streams[:1]
    return source._depth, [
        source.next(*streams).copy() for _ in range(intervals)
    ]


@pytest.mark.usefixtures("small_chunks")
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_byte_rule_depth_leaves_blocks_unchanged(name):
    make = SOURCES[name]
    sized, by_bytes = _read(make, None)
    assert 1 < sized < 64, sized
    for depth in (1, 64):
        _, blocks = _read(make, depth)
        for k, (a, b) in enumerate(zip(by_bytes, blocks)):
            np.testing.assert_array_equal(a, b, err_msg=f"interval {k}")


def test_byte_rule_sizes_wide_caches_and_caps_small_ones():
    per_interval = 3200 * 26 * 6 * 4  # topology-10k's channel block
    assert rng_mod.draw_chunk_depth(64, per_interval) == max(
        1, rng_mod._DRAW_CHUNK_BYTES // per_interval
    )
    assert rng_mod.draw_chunk_depth(64, 48) == 64
    assert rng_mod.draw_chunk_depth(64, 1 << 40) == 1
    assert rng_mod.draw_chunk_depth(256) == 256


def test_free_draws_ignore_the_environment(monkeypatch):
    """Free-mode arrival and candidate blocks take their values from
    their depth, and the sweep cache keys neither the depth nor the
    environment: no variable may change it."""
    spec = _spec("static", "bursty")
    runs = []
    for chunk in (None, "5"):
        if chunk is not None:
            monkeypatch.setenv("REPRO_DRAW_CHUNK", chunk)
        result = BatchIntervalSimulator(
            spec, DBDPPolicy(), SEEDS, rng="free"
        ).run(40)
        runs.append((result.arrivals, result.deliveries, result.attempts))
    for a, b in zip(*runs):
        np.testing.assert_array_equal(a, b)


# -- exceptions ----------------------------------------------------------
class _FailingStream:
    """A generator stand-in whose ``fail_at``-th fill raises."""

    def __init__(self, fail_at: int):
        self._gen = np.random.default_rng(0)
        self._calls = 0
        self._fail_at = fail_at

    def random(self, out):
        self._calls += 1
        if self._calls == self._fail_at:
            raise ValueError(f"fill {self._calls} failed")
        return self._gen.random(out=out)


def _first_failure(intervals=10):
    source = _ChunkedUniforms(2, 3, depth=2)
    source.plan(intervals)
    stream = _FailingStream(fail_at=3)
    for k in range(intervals):
        try:
            source.next(stream)
        except ValueError as exc:
            return k, str(exc)
    return None


@pytest.mark.usefixtures("queue_all")
def test_fill_error_surfaces_at_the_interval_reading_its_chunk(monkeypatch):
    # The third chunk (intervals 4 and 5) is filled on the draw thread
    # while interval 2 is read; its error waits for interval 4.
    assert _first_failure() == (4, "fill 3 failed")
    monkeypatch.setattr(batch_kernels, "_pool", _SyncPool())
    assert _first_failure() == (4, "fill 3 failed")


def _failing_state_run(monkeypatch):
    """The interval at which a Gilbert-Elliott state fill's error
    surfaces in a simulation, and the error."""
    spec = _spec("ge", "bursty")
    rows_cls = type(type(spec.channel).stack_rows((spec.channel,)))
    original = rows_cls.evolve_block
    calls = []

    def evolve_block(self, depth, rng, out):
        calls.append(depth)
        if len(calls) == 3:
            raise FloatingPointError("state chunk 3 failed")
        return original(self, depth, rng, out)

    monkeypatch.setattr(rows_cls, "evolve_block", evolve_block)
    sim = BatchIntervalSimulator(spec, DBDPPolicy(), SEEDS, rng="free")
    sim.plan(INTERVALS)
    try:
        for k in range(INTERVALS):
            sim.step()
    except FloatingPointError as exc:
        return k, str(exc), sim.kernel._channel_draws._depth
    return None


@pytest.mark.usefixtures("small_chunks")
def test_fill_error_surfaces_at_the_same_simulation_interval(monkeypatch):
    ahead = _failing_state_run(monkeypatch)
    assert ahead is not None
    k, message, depth = ahead
    assert (k, message) == (2 * depth, "state chunk 3 failed")
    monkeypatch.setattr(batch_kernels, "_pool", _SyncPool())
    assert _failing_state_run(monkeypatch) == ahead


# -- ownership and horizon ----------------------------------------------
def test_a_generator_has_one_reader():
    gen = np.random.default_rng(1)
    first = _ChunkedUniforms(2, depth=4)
    first.next(gen)
    with pytest.raises(RuntimeError, match="one reader"):
        _ChunkedUniforms(2, depth=4).next(gen)
    with pytest.raises(RuntimeError, match="same random streams"):
        for _ in range(5):
            first.next(np.random.default_rng(2))
    # The claim goes with its reader.
    del first
    gc.collect()
    _ChunkedUniforms(2, depth=4).next(gen)


def test_contention_kernel_owns_its_policy_stream():
    sim = BatchIntervalSimulator(
        _spec("static", "bursty"), FCSMAPolicy(), SEEDS
    )
    sim.run(3)
    intruder = _ChunkedUniforms(S, depth=4)
    with pytest.raises(RuntimeError, match="one reader"):
        intruder.next(sim.rng.batch_stream("policy"))


class _CountingStream:
    def __init__(self):
        self._gen = np.random.default_rng(0)
        self.calls = 0

    def random(self, out):
        self.calls += 1
        return self._gen.random(out=out)


@pytest.mark.usefixtures("queue_all")
@pytest.mark.parametrize("intervals", [1, 2, 5, 6])
def test_nothing_is_drawn_past_the_plan(intervals):
    source = _ChunkedUniforms(2, depth=2)
    stream = _CountingStream()
    source.plan(intervals)
    for _ in range(intervals):
        source.next(stream)
    # The draw thread is FIFO: once a later job is done, so is any fill.
    batch_kernels._submit(lambda: None).result(timeout=60)
    assert stream.calls == -(-intervals // 2)


def test_small_chunks_are_filled_when_first_read():
    source = _ChunkedUniforms(2, depth=2)
    stream = _CountingStream()
    source.plan(6)
    source.next(stream)
    batch_kernels._submit(lambda: None).result(timeout=60)
    assert stream.calls == 1


# -- narrow arrival chunks -----------------------------------------------
ARRIVALS = {
    "bursty": lambda: BurstyVideoArrivals.symmetric(N, 0.5),
    "bernoulli": lambda: BernoulliArrivals.symmetric(N, 0.5),
    "mmpp": lambda: arrivals_from_spec("mmpp:0.7:0.1:0.8:0.85", N),
    "pareto": lambda: arrivals_from_spec("pareto:0.2:1.5:32", N),
    "constant-300": lambda: ConstantArrivals.symmetric(N, 300),
}


def _arrival_spec(arrivals) -> NetworkSpec:
    if isinstance(arrivals, str):
        arrivals = ARRIVALS[arrivals]()
    return NetworkSpec.from_delivery_ratios(
        arrivals=arrivals,
        channel=BernoulliChannel.symmetric(N, 0.7),
        timing=idealized_timing(N),
        delivery_ratios=0.6,
    )


@pytest.mark.parametrize(
    "rows, dtype",
    [
        (["bursty"], np.uint8),
        (["bernoulli"], np.uint8),
        (["mmpp"], np.uint8),
        (["pareto"], np.uint8),
        (["bursty", "bernoulli", "bursty"], np.uint8),
        (["mmpp", "bursty", "pareto"], np.uint8),
        (["constant-300"], np.uint16),
    ],
    ids=lambda v: "+".join(v) if isinstance(v, list) else np.dtype(v).name,
)
def test_arrival_chunks_take_the_narrowest_dtype(rows, dtype):
    specs = [_arrival_spec(name) for name in rows]
    stateful = any(spec.arrivals.has_state for spec in specs)
    sim = BatchIntervalSimulator(
        specs if len(specs) > 1 else specs[0],
        LDFPolicy(),
        SEEDS,
        rng="free" if stateful else "batch",
        record_traces=True,
    )
    result = sim.run(5)
    source = sim._arrival_draws
    assert source.dtype == dtype
    assert [b.dtype for b in source._buffers] == [np.dtype(dtype)]
    if rows == ["constant-300"]:
        assert np.all(result.arrivals == 300)


@pytest.mark.usefixtures("queue_all")
@pytest.mark.parametrize(
    "rng, depth, arrivals",
    [
        ("batch", batch_kernels.DRAW_CHUNK, "bursty"),
        ("free", batch_kernels.FREE_DRAW_CHUNK, "bursty"),
        ("free", batch_kernels.FREE_DRAW_CHUNK, "mmpp"),
    ],
)
def test_arrival_chunks_reuse_two_buffers(monkeypatch, rng, depth, arrivals):
    monkeypatch.setattr(perf.counters, "enabled", True)
    perf.counters.reset()
    sim = BatchIntervalSimulator(
        _arrival_spec(arrivals), DBDPPolicy(), SEEDS, rng=rng
    )
    source = sim._arrival_draws
    assert source._depth == depth
    sim.run(3 * depth + 1)  # four chunks
    buffers = source._buffers
    assert len(buffers) == 2 and buffers[0] is not buffers[1]
    assert any(source._chunk is b for b in buffers)
    assert perf.counters.stages["draws.arrival_refill"].allocs == 2
    perf.counters.reset()


class _LyingBursty(BurstyVideoArrivals):
    @property
    def max_per_link(self) -> int:
        return 1


class _LyingPareto(ParetoBurstArrivals):
    @property
    def max_per_link(self) -> int:
        return 1


@pytest.mark.parametrize(
    "arrivals, rng",
    [
        (_LyingBursty(alphas=(0.9,) * N), "batch"),
        (_LyingPareto(N, 0.9, peak=3), "free"),
    ],
    ids=["stateless", "stateful"],
)
def test_arrivals_above_the_declared_maximum_raise(arrivals, rng):
    sim = BatchIntervalSimulator(
        _arrival_spec(arrivals), LDFPolicy(), SEEDS, rng=rng
    )
    assert sim._arrival_draws.dtype == np.uint8
    with pytest.raises(AssertionError, match=r"outside \[0, 1\]"):
        sim.run(10)


def test_boundary_masks_reach_the_plane_not_the_chunk():
    """The boundary masker zeroes non-owner arrivals in the interval's
    int64 plane; the chunk keeps the values as drawn."""
    topology = grid_cells(60, 4, 0.2)
    spec = video_symmetric_spec(0.6, num_links=60)
    masked = TopologySimulator(spec, DBDPPolicy(), (0, 1), topology)
    unmasked = TopologySimulator(spec, DBDPPolicy(), (0, 1), topology)
    unmasked.sim._mask = None
    zeroed = 0
    for _ in range(20):
        masked.step()
        unmasked.step()
        source = masked.sim._arrival_draws
        row = source._chunk[source._pos - 1]
        plane = source._plane
        np.testing.assert_array_equal(row, unmasked.sim._arrival_draws._plane)
        assert plane.dtype == np.int64
        assert np.all((plane == row) | (plane == 0))
        zeroed += int(np.count_nonzero((plane == 0) & (row > 0)))
    assert zeroed > 0


@pytest.mark.parametrize(
    "rng, arrivals", [("batch", "bursty"), ("free", "bursty"), ("free", "mmpp")]
)
def test_interval_arrivals_are_int64(rng, arrivals):
    sim = BatchIntervalSimulator(
        _arrival_spec(arrivals), DBDPPolicy(), SEEDS, rng=rng,
        record_traces=True,
    )
    seen = []
    run_interval = sim.kernel.run_interval

    def spy(k, arrivals, *args):
        seen.append(arrivals.dtype)
        return run_interval(k, arrivals, *args)

    sim.kernel.run_interval = spy
    result = sim.run(70)
    assert set(seen) == {np.dtype(np.int64)}
    assert result.arrivals.dtype == np.int64


# -- forked workers --------------------------------------------------------
def small_builder(alpha: float):
    return video_symmetric_spec(alpha, num_links=6)


def topology_builder(alpha: float):
    return video_symmetric_spec(alpha, num_links=60)


def topology_grid(spec):
    return grid_cells(spec.num_links, 4, 0.1)


def test_forked_workers_run_after_the_parent_prefetched(monkeypatch):
    """Fork-based pools started after the parent's draw thread must
    start their own (the inherited thread does not exist in the child)."""
    monkeypatch.setattr(batch_kernels, "_QUEUE_MIN_BYTES", 0)
    BatchIntervalSimulator(
        video_symmetric_spec(0.5, num_links=6), DBDPPolicy(), (0, 1)
    ).run(200)
    assert batch_kernels._pool is not None

    topology = dict(
        parameter_name="alpha",
        values=[0.4, 0.5],
        spec_builder=topology_builder,
        policies={"DB-DP": DBDPPolicy},
        num_intervals=30,
        seeds=(0, 1),
        topology=topology_grid,
    )
    assert (
        run_sweep_fused(shards=2, **topology).points
        == run_sweep_fused(**topology).points
    )

    # Each pooled shard equals the same shard run in this process (an
    # unpicklable builder keeps the shards here).
    kwargs = dict(
        parameter_name="alpha",
        values=[0.4, 0.6],
        policies={"DB-DP": DBDPPolicy},
        num_intervals=80,
        seeds=(0, 1),
        shards=2,
    )
    pooled = run_sweep_fused(spec_builder=small_builder, **kwargs)
    with pytest.warns(UserWarning, match="not picklable"):
        local = run_sweep_fused(
            spec_builder=lambda alpha: small_builder(alpha), **kwargs
        )
    assert pooled.points == local.points
