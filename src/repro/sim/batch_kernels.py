"""Vectorized per-policy kernels for the batch simulation engine.

Each kernel advances one interval for a *stack* of ``S`` independent
replications at once, holding every piece of per-interval state — debts,
arrivals, priorities, backoffs, deliveries — as ``(S, N)`` NumPy arrays.
Kernels exist for the policies that dominate benchmark time:

* :class:`BatchDPKernel` — Algorithm 2 / DB-DP (single- and multi-pair
  swaps, Remark 6);
* :class:`BatchELDFKernel` — ELDF/LDF via a stable argsort on
  ``f(d^+) p``;
* :class:`BatchRoundRobinKernel` and :class:`BatchStaticPriorityKernel`;
* :class:`BatchFCSMAKernel` and :class:`BatchDCFKernel` — random-backoff
  contention rounds with collisions, each block of rounds solved at once
  as a fixed point over which links have drained.

The shared primitive is :func:`solve_ordered_service`: given pre-drawn
geometric retry counts, it resolves the whole "serve links in priority
order until time runs out" recursion with cumulative sums instead of a
per-link loop.  This works because the attempt ceiling is non-increasing
along the service order, so once one link is truncated every later link is
starved — exactly the scalar engine's semantics (see the derivation in the
function docstring).

Two implementation notes that matter for throughput at the target scale
(tens of seeds, tens of links — i.e. *small* arrays, where NumPy's Python
wrapper cost rivals its C time):

* all gather/scatter steps use raw integer fancy indexing
  (``a[rows, idx]``) rather than ``take_along_axis``/``put_along_axis``,
  whose index-building wrappers dominate at this size;
* random draws are made in chunks of several intervals per stream and
  sliced per interval, amortizing the Generator call overhead; while the
  kernel reads one chunk, a background thread fills the next
  (:class:`_ChunkedDraws`).  Chunking only re-orders consumption
  *within* a batch stream, which is a private namespace —
  reproducibility (same seeds, same trajectory) is unaffected, and chunk
  boundaries are independent of how ``run`` calls are split because the
  caches live on the kernel.

Kernels also accept **per-row spec parameters** (the grid-fused engine):
``bind`` takes either one shared spec or a
:class:`~repro.sim.spec_stack.SpecStack` with one spec per replication
row, in which case reliabilities and requirements become ``(S, N)``
matrices and rows may come from *different sweep cells* (different
``p_n``/``q_n``/arrival parameters, and — for the DP kernel — different
Glauber bias constants via ``row_policies``) as long as ``N``, the timing,
and the policy family match.

Every kernel also has an ``rng="sync"`` mode in which it drives one *scalar*
policy clone per seed with that seed's scalar-identical random streams
(:attr:`~repro.sim.rng.BatchRngBundle.bundles`).  That mode is the
cross-validation bridge: it is bit-identical to the scalar engine by
construction, while sharing the batch engine's debt and result
bookkeeping.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import threading
import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass
from decimal import Decimal
from types import SimpleNamespace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..core import registry
from ..core.dbdp import stack_swap_biases
from ..core.dcf import DCFPolicy
from ..core.dp_protocol import DPProtocol, max_swap_pairs
from ..core.eldf import ELDFPolicy
from ..core.fcsma import FCSMAPolicy
from ..core.permutations import priority_to_link_order, validate_priority_vector
from ..core.policies import IntervalMac
from ..core.requirements import NetworkSpec
from ..core.round_robin import RoundRobinPolicy
from ..core.static_priority import StaticPriorityPolicy
from ..phy.channel import ChannelStateRows
from . import perf
from .rng import BatchRngBundle, draw_chunk_depth, normalize_rng_mode
from .spec_stack import SpecStack

if TYPE_CHECKING:
    from concurrent.futures import Future, ThreadPoolExecutor

    from ..phy.timing import IntervalTiming

__all__ = [
    "BatchIntervalOutcome",
    "BatchPolicyKernel",
    "BatchDPKernel",
    "BatchELDFKernel",
    "BatchRoundRobinKernel",
    "BatchStaticPriorityKernel",
    "BatchFCSMAKernel",
    "BatchDCFKernel",
    "solve_ordered_service",
    "make_batch_kernel",
    "has_batch_kernel",
    "DRAW_CHUNK",
]

#: Intervals per chunk of the batch-mode arrival cache, and the deepest
#: chunk the byte-sized caches take (:func:`~repro.sim.rng.draw_chunk_depth`).
DRAW_CHUNK = 64

#: Chunk depth of the free-mode caches whose values depend on it (arrival
#: blocks, candidate integers).  Free mode has no lockstep-schedule
#: constraint, so it amortizes Generator call overhead over deeper blocks.
FREE_DRAW_CHUNK = 256


@dataclass
class BatchIntervalOutcome:
    """What happened during one interval, for every replication at once.

    The batch analogue of :class:`~repro.core.policies.IntervalOutcome`:
    per-link arrays are ``(S, N)``, per-interval scalars are ``(S,)``.

    ``attempts`` (like ``priorities``) is ``None`` when the kernel was
    bound with ``lite=True``: stats-only consumers never read it, and
    skipping the link-space scatter saves a hot-loop pass.
    """

    deliveries: np.ndarray  # (S, N) int64
    attempts: Optional[np.ndarray]  # (S, N) int64 or None (lite mode)
    busy_time_us: np.ndarray  # (S,) float
    overhead_time_us: np.ndarray  # (S,) float
    collisions: np.ndarray  # (S,) int64
    priorities: Optional[np.ndarray] = None  # (S, N) int64 or None


def drain_totals(needed_cum: np.ndarray, backlog: np.ndarray) -> np.ndarray:
    """Per-link total attempts needed to drain the backlog: ``(S, N)``.

    This is ``needed_cum[..., backlog - 1]`` (zero for empty buffers) in
    the draw dtype.  It depends only on the channel draws and the
    arrivals, not on any policy decision, so lockstep simulators sharing
    draw blocks also share this plane (``batch_sim._FanoutDraws``).
    """
    idx = np.maximum(backlog - 1, 0)
    tot = np.take_along_axis(needed_cum, idx[:, :, None], axis=2)[:, :, 0]
    return np.where(backlog > 0, tot, needed_cum.dtype.type(0))


def solve_ordered_service(
    order: np.ndarray,
    backlog: np.ndarray,
    needed_cum: np.ndarray,
    caps: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve sequential in-order service for all replications at once.

    Parameters
    ----------
    order:
        ``(S, N)`` — link ids in service order (a permutation per row).
    backlog:
        ``(S, N)`` — packets buffered per *link*.
    needed_cum:
        ``(S, N, A)`` — per link, cumulative attempts needed to deliver
        its first ``t+1`` packets (cumsum of geometric draws).  May be an
        integer or float array; float entries must hold exact integers
        (:class:`_ChunkedChannelDraws` guarantees this).
    caps:
        ``(S, N)`` int64 — per service *position*, the absolute attempt
        ceiling: the link in that position may finish at most
        ``caps - attempts_used_before_it`` attempts before its deadline.
        **Must be non-increasing along axis 1** (true for both constant
        attempt budgets and backoff-staircase budgets, since backoffs grow
        along the service order).

    Returns ``(delivered, attempts, attempts_pos)``: ``delivered`` and
    ``attempts`` are ``(S, N)`` int64 indexed by *link*; ``attempts_pos``
    is the same attempts indexed by service *position* (callers need both
    views, and the position view is a by-product here).

    Why no loop is needed: with ``G`` the cumulative attempts *needed* by
    the first ``j`` links, position ``j`` receives
    ``clip(caps_j - G_{j-1}, 0, needed_j)`` attempts.  This matches the
    sequential recursion because attempts-used equals attempts-needed for
    every link until the first truncated link, and after a truncation the
    non-increasing ceiling starves all later links — the same "budget
    exhausted" outcome the scalar engine produces.  Packet ``t`` of the
    link in position ``j`` is delivered iff ``G_{j-1} + needed_cum[t] <=
    caps_j``.

    The kernels run the same solver on buffers bound once per simulator
    (:meth:`BatchPolicyKernel._alloc_common_ws`).
    """
    S, n, A = needed_cum.shape
    w = _ordered_service_ws(S, n, A, needed_cum.dtype)
    np.add(order, w.row_off, out=w.oflat)
    tot_link = drain_totals(needed_cum, backlog)
    _solve_ordered(w, backlog, needed_cum, caps.astype(w.workf), tot_link)
    attempts = np.empty((S, n), dtype=np.int64)
    attempts.ravel()[w.oflat.ravel()] = w.att_pos.ravel()
    return w.delivered, attempts, w.att_pos.astype(np.int64)


def _ordered_service_ws(S: int, n: int, A: int, workf) -> SimpleNamespace:
    """Scratch buffers of :func:`_solve_ordered` for an ``(S, n, A)``
    draw block in dtype ``workf``.

    All buffers are C-contiguous and owned, so ``.ravel()`` on them is
    a view — flat ``np.take``/fancy-scatter on raveled planes is the
    cheapest gather/scatter at this array size.
    """
    w = SimpleNamespace()
    w.workf = np.dtype(workf)
    # Row offsets (S, 1) turn (S, n) link/position ids into flat
    # indices of a raveled (S, n) plane.
    w.row_off = (np.arange(S, dtype=np.int64) * n)[:, None]
    # Strict-upper-triangular ones: ``x @ mexcl`` is the exclusive
    # prefix sum of ``x`` along axis 1.  One small BLAS matmul beats
    # ``np.cumsum``'s short-segment scan on (S, n) planes, and stays
    # bit-exact (every product and partial sum is an exact small
    # integer, so the summation order cannot matter).
    w.mexcl = np.triu(np.ones((n, n), dtype=workf), 1)
    w.oflat = np.empty((S, n), dtype=np.int64)  # order + row_off
    w.tot_pos = np.empty((S, n), dtype=workf)
    w.cum = np.empty((S, n), dtype=workf)
    w.budget = np.empty((S, n), dtype=workf)
    w.att_pos = np.empty((S, n), dtype=workf)
    w.budget_link = np.empty((S, n), dtype=workf)
    w.serve3f = np.empty((S, n, A), dtype=workf)
    w.ones_af = np.ones(A, dtype=workf)
    w.countf = np.empty((S, n), dtype=workf)
    w.delivered = np.empty((S, n), dtype=np.int64)
    return w


def _solve_ordered(
    w: SimpleNamespace,
    backlog: np.ndarray,
    needed: np.ndarray,
    caps_f: np.ndarray,
    tot: np.ndarray,
) -> None:
    """:func:`solve_ordered_service` on the buffers of
    :func:`_ordered_service_ws`.

    Inputs: ``backlog`` (S, n) int64, ``needed`` the interval's
    cumulative (S, n, A) draw block, ``caps_f`` the per-position attempt
    ceilings in the draw dtype (non-increasing along axis 1) and ``tot``
    the per-link drain totals.  ``w.oflat`` must already hold ``order +
    w.row_off``.  Results land in ``w.delivered`` (int64, by link) and
    ``w.att_pos`` (draw dtype, by position).
    """
    tot.ravel().take(w.oflat.ravel(), out=w.tot_pos.ravel())
    np.matmul(w.tot_pos, w.mexcl, out=w.cum)  # attempts needed before
    np.subtract(caps_f, w.cum, out=w.budget)
    # clip(budget, 0, tot_pos) with tot_pos >= 0.
    np.minimum(w.budget, w.tot_pos, out=w.att_pos)
    np.maximum(w.att_pos, 0, out=w.att_pos)
    w.budget_link.ravel()[w.oflat.ravel()] = w.budget.ravel()
    # A packet is delivered iff its running attempt total fits the
    # link's budget: delivered[s, l] counts slots a < backlog with
    # needed_cum[s, l, a] <= budget_link[s, l].  The cumsums are
    # strictly increasing (every draw >= 1), so that prefix count is
    # ``min(count over the whole axis, backlog)`` — the whole-axis
    # count lands as one small matvec, far cheaper than a bool
    # ``sum(axis=2)`` reduction, and every value stays an exact
    # small integer.  Full drains count exactly backlog; exhausted
    # budgets (<= 0) count zero.
    A = needed.shape[-1]
    np.less_equal(
        needed, w.budget_link[:, :, None], out=w.serve3f, casting="unsafe"
    )
    np.matmul(w.serve3f.reshape(-1, A), w.ones_af, out=w.countf.ravel())
    np.copyto(w.delivered, w.countf, casting="unsafe")
    np.minimum(w.delivered, backlog, out=w.delivered)


#: The draw thread: one worker, so queued fills run one at a time in the
#: order they were queued.  Started on first use.
_pool: Optional[ThreadPoolExecutor] = None

#: Smallest chunk worth filling on the draw thread.  Handing a fill over
#: costs the reading thread interpreter-lock switches that a small fill
#: does not repay: queuing fig3's ~200 KB chunks made perfbench
#: ``fig3-paper`` 1-4 % slower in-process, while ~4 MB chunks
#: (``topology-10k``, ``large-n``) gain a third of the wall and 1-2 MB
#: chunks were within noise either way (docs/performance.md).
_QUEUE_MIN_BYTES = 1 << 20


def _submit(fill, *args) -> Future:
    """Queue ``fill(*args)`` on the draw thread."""
    global _pool
    if _pool is None:
        # Imported here: a run that never simulates (a sweep served from
        # the cache) does not pay for the import.
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-draws"
        )
    return _pool.submit(fill, *args)


def _forget_pool() -> None:
    # A forked child inherits the pool object but not its thread, so
    # fills queued there would never run: the child starts its own.
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)

#: ``id(stream) -> (weak reference to its reader, stream)``.  An entry
#: holds its stream, so the id cannot be reused while the entry lives.
_readers: dict = {}
_readers_lock = threading.Lock()


def _claim(reader, *streams) -> None:
    """Record ``reader`` as the one reader of each generator in
    ``streams`` (``None`` is skipped); a second reader raises.

    A draw source's fills run on the draw thread at times that depend
    on scheduling.  Values stay bit-identical only because nothing else
    calls the generators a source fills from.
    """
    with _readers_lock:
        for key in [k for k, (ref, _) in _readers.items() if ref() is None]:
            del _readers[key]
        for stream in streams:
            if stream is None:
                continue
            entry = _readers.get(id(stream))
            if entry is None:
                _readers[id(stream)] = (weakref.ref(reader), stream)
                continue
            holder = entry[0]()
            if holder is not reader:
                raise RuntimeError(
                    f"{type(reader).__name__} and {type(holder).__name__} "
                    "read the same random stream; each stream must have "
                    "one reader"
                )


class _ChunkedDraws:
    """Per-interval blocks cut from chunks ``depth`` intervals deep, the
    next chunk filled on the draw thread while this one is read.

    ``next(*streams)`` returns the next interval's block (a view, valid
    until the following call).  Subclasses make a chunk buffer
    (:meth:`_buffer`; ``None`` only for the free-mode candidate integers,
    whose fill allocates its own chunk) and fill it (:meth:`_fill`,
    which returns the chunk).  Chunk ``c`` lives in buffer ``c % 2``, so
    chunk ``c + 1`` can be filled while chunk ``c`` is read.

    The run loop says how many more intervals will be read
    (:meth:`plan`).  When a chunk is first read and the plan reaches
    past it, the next chunk is queued on the draw thread if it holds at
    least :data:`_QUEUE_MIN_BYTES`; nothing past the plan is drawn
    ahead, and otherwise every chunk is filled when it is first read.
    The generators are those of the first read (later reads must pass
    the same ones) and have no other reader (:func:`_claim`); one
    source's fills run one at a time in chunk order, so each generator
    makes the same calls in the same order as if every chunk were
    filled when first read.  An exception raised by a fill surfaces at
    the first read of its chunk.

    The consumer's time at a chunk boundary — the wait for a queued
    chunk, or a fill of its own — is reported under :attr:`_stage`.
    """

    #: The perf stage the consumer's chunk-boundary time goes to.
    _stage = "draws.uniform_refill"
    #: Arrays each fill allocates (sources without a reusable buffer).
    _fill_allocs = 0

    def __init__(self, depth: int, interval_bytes: int):
        self._depth = int(depth)
        self._ahead = self._depth * interval_bytes >= _QUEUE_MIN_BYTES
        self._chunk: Optional[np.ndarray] = None
        self._pos = self._depth
        self._start = -self._depth  # read index of the chunk's first row
        self._drawn = 0  # intervals of chunks filled or queued
        self._limit = 0  # reads the run loop has planned
        self._next: Optional[Future] = None
        self._buffers: list = []
        self._allocs = 0  # buffers made since the last report
        self._streams: Optional[tuple] = None

    def plan(self, num_intervals: int) -> None:
        """Allow drawing ahead through ``num_intervals`` further reads."""
        self._limit = self._start + self._pos + int(num_intervals)
        self._queue_next()

    def next(self, *streams) -> np.ndarray:
        if self._pos >= self._depth:
            self._advance(streams)
        block = self._chunk[self._pos]
        self._pos += 1
        return block

    def _advance(self, streams: tuple) -> None:
        counters = perf.counters
        if counters.enabled:
            t0 = perf.clock()
        if self._streams is None:
            _claim(self, *streams)
            self._streams = streams
        elif len(streams) != len(self._streams) or any(
            a is not b for a, b in zip(streams, self._streams)
        ):
            raise RuntimeError(
                f"{type(self).__name__} must read the same random streams "
                "on every interval"
            )
        if self._next is None:
            self._chunk = self._fill(self._next_buffer(), *streams)
        else:
            queued, self._next = self._next, None
            self._chunk = queued.result()
        self._start += self._depth
        self._pos = 0
        self._queue_next()
        if counters.enabled:
            allocs, self._allocs = self._allocs + self._fill_allocs, 0
            counters.add(self._stage, perf.clock() - t0, allocs)

    def _queue_next(self) -> None:
        if (
            self._ahead
            and self._next is None
            and self._streams is not None
            and self._drawn < self._limit
        ):
            self._next = _submit(
                self._fill, self._next_buffer(), *self._streams
            )

    def _next_buffer(self):
        """The buffer of the next chunk to draw (made on first use)."""
        i = (self._drawn // self._depth) % 2
        if i == len(self._buffers):
            buffer = self._buffer()
            self._allocs += buffer is not None
            self._buffers.append(buffer)
        self._drawn += self._depth
        return self._buffers[i]

    def _buffer(self):
        return None

    def _fill(self, buffer, *streams) -> np.ndarray:
        raise NotImplementedError


class _ChunkedChannelDraws(_ChunkedDraws):
    """Pre-drawn geometric retry counts, chunked by bytes.

    ``next(rng, state_rng)`` yields one interval's ``(S, N, A)``
    cumulative-attempt array from a ``(depth, S, N, A)`` chunk; the depth
    is :func:`~repro.sim.rng.draw_chunk_depth`'s byte rule (one
    ``standard_exponential`` call per chunk, so values do not depend on
    it).

    Draws use inverse-transform sampling, ``g = max(ceil(E / lambda), 1)``
    with ``E`` standard exponential and ``lambda = -log(1 - p)``, which is
    exactly geometric(p) and fills the block roughly twice as fast as
    ``Generator.geometric`` on broadcast probabilities.  The whole block —
    draws and running cumsum — stays in float32 whenever the largest
    reachable cumulative count is below ``2**24`` (small integers are exact
    in float32), halving the memory traffic of this hot path; pathological
    reliabilities fall back to float64, where the sums stay exact below
    ``2**53``.

    With ``state`` (a :class:`~repro.phy.channel.ChannelStateRows`) the
    probabilities are no longer a fixed plane: each fill evolves the
    channel state once per buffered interval (from ``state_rng`` when the
    state is random) and scales that interval's draws by its own
    ``(S, N)`` reliability plane, held with the chunk buffer.
    Inverse-transform sampling makes this nearly free — the exponential
    stream is probability-independent, so dynamic channels reuse the same
    bulk generation and only swap the per-interval scale.
    """

    _stage = "draws.channel_refill"

    def __init__(
        self,
        success_probs: np.ndarray,
        num_seeds: int,
        a_max: int,
        *,
        depth: Optional[int] = None,
        state: Optional[ChannelStateRows] = None,
    ):
        probs = np.asarray(success_probs, dtype=float)
        num_links = probs.shape[-1]
        if probs.ndim == 1:
            # One shared reliability vector: broadcast over replications.
            probs = probs[None, None, :, None]
        else:
            # Per-row reliabilities of a fused stack: (S, N) -> (1, S, N, 1).
            if probs.shape[0] != num_seeds:
                raise ValueError(
                    f"per-row reliabilities cover {probs.shape[0]} rows, "
                    f"stack has {num_seeds}"
                )
            probs = probs[None, :, :, None]
        with np.errstate(divide="ignore"):
            # p == 1 -> lambda = inf -> scale 0 -> g = max(ceil(0), 1) = 1.
            scale = -1.0 / np.log1p(-probs)
        if state is not None:
            # Dynamic planes: the dtype gate must cover the *worst* state
            # any (row, link) can visit, not the stationary plane.
            min_p = float(state.min_success_prob)
            if not 0.0 < min_p <= 1.0:
                raise ValueError(
                    f"channel-state rows report min success prob {min_p}; "
                    "geometric retry draws need 0 < p <= 1 in every state"
                )
            with np.errstate(divide="ignore"):
                worst_scale = float(-1.0 / np.log1p(-min_p))
        else:
            worst_scale = float(scale.max())
        # A float32 standard exponential never exceeds ~89 (= -log of the
        # smallest positive float32 the ziggurat can emit); 128 leaves slack.
        worst_cum = a_max * np.ceil(128.0 * worst_scale + 1.0)
        dtype = np.float32 if worst_cum < 2**24 else np.float64
        interval = (num_seeds, num_links, a_max)
        nbytes = int(np.prod(interval)) * np.dtype(dtype).itemsize
        if depth is None:
            depth = draw_chunk_depth(DRAW_CHUNK, nbytes)
        super().__init__(depth, nbytes)
        self._scale = scale.astype(dtype)
        self._shape = (self._depth, *interval)
        self._dtype = dtype
        # Drain-totals gather scratch, reused every interval: the flat
        # index of ``cum[s, l, backlog - 1]`` inside a raveled (S, N, A)
        # block is ``(s * N + l) * A + (backlog - 1)``.
        self._tot_base = (
            np.arange(num_seeds * num_links, dtype=np.int64) * a_max
        ).reshape(num_seeds, num_links)
        self._tot_idx = np.empty((num_seeds, num_links), dtype=np.int64)
        self._tot_mask = np.empty((num_seeds, num_links), dtype=bool)
        self._tot2 = np.empty((num_seeds, num_links), dtype=dtype)
        self._lazy = False
        self._state = state

    @property
    def dtype(self) -> np.dtype:
        """The draw dtype (float32 unless sums could exceed 2**24)."""
        return np.dtype(self._dtype)

    @property
    def lazy(self) -> bool:
        """True when :meth:`next` yields *raw* exponential draws."""
        return self._lazy

    @property
    def dynamic(self) -> bool:
        """True when a channel-state process evolves the planes."""
        return self._state is not None

    def set_lazy(self) -> None:
        """Switch to raw-draw mode: fills only generate exponentials.

        The scale/ceil/cumsum transform — four full passes over the
        ``(depth, S, N, A)`` block, the dominant ``kernel.dp.setup``
        cost at large N — is skipped; the caller applies it to whatever
        rows it actually gathers (the incremental path's K-sized serve
        set) via :meth:`scale_rows`.  Element order and arithmetic are
        unchanged, so transformed values are bit-identical to eager
        mode's.  Must be selected before the first draw.
        """
        if self._lazy:
            return
        if self._state is not None:
            # Lazy consumers scale gathered rows by a *static* (S, N)
            # plane (scale_rows); a state process makes that plane
            # per-interval, so the incremental path must stay eager.
            raise RuntimeError(
                "lazy channel draws are static-plane only; dynamic "
                "channel state requires eager (dense) draws"
            )
        if self._buffers:
            raise RuntimeError(
                "cannot switch channel-draw transform mode mid-stream"
            )
        self._lazy = True

    def scale_rows(self, num_seeds: int) -> np.ndarray:
        """``(S, N)`` per-(row, link) geometric scales, in draw dtype."""
        s2 = self._scale.reshape(self._scale.shape[1], self._scale.shape[2])
        return np.ascontiguousarray(np.broadcast_to(s2, (num_seeds, s2.shape[1])))

    def _buffer(self):
        # Each buffer has its own probability plane for dynamic channels.
        planes = (
            np.empty(self._shape[:3], dtype=np.float64)
            if self._state is not None
            else None
        )
        return np.empty(self._shape, dtype=self._dtype), planes

    def _fill(self, buffer, rng, state_rng=None) -> np.ndarray:
        draws, p = buffer
        rng.standard_exponential(dtype=self._dtype, out=draws)
        if self._lazy:
            # Raw mode: generation is the whole fill; consumers transform
            # the rows they gather.
            return draws
        if p is not None:
            # Evolve the state one step per buffered interval and turn
            # each interval's (S, N) probability plane into geometric
            # scales, all in place in the plane buffer: p -> -1 /
            # log1p(-p), with p == 1 -> scale 0 as in the static
            # precompute above.
            self._state.evolve_block(self._depth, state_rng, out=p)
            np.negative(p, out=p)
            np.log1p(p, out=p)
            with np.errstate(divide="ignore"):
                np.divide(-1.0, p, out=p)
            np.multiply(draws, p[..., None], out=draws)
        else:
            np.multiply(draws, self._scale, out=draws)
        np.ceil(draws, out=draws)
        np.maximum(draws, 1.0, out=draws)
        # Running cumsum along the arrival axis, in place.  The axis is
        # tiny (A slots), so A-1 whole-cube slice adds beat
        # ``np.cumsum``'s short-segment scan by ~5x at this shape —
        # identical values, every partial sum an exact small integer.
        flat = draws.reshape(-1, self._shape[-1])
        for a in range(1, self._shape[-1]):
            np.add(flat[:, a], flat[:, a - 1], out=flat[:, a])
        return draws

    def totals(self, needed_cum: np.ndarray, backlog: np.ndarray) -> np.ndarray:
        """Per-link drain totals for the interval's block (``(S, N)``).

        Same values as :func:`drain_totals` — the running cumsum gathered
        at slot ``backlog - 1``, zero for empty buffers — via one flat
        ``np.take`` into a reused buffer (callers must not mutate or
        retain it across intervals).  Lockstep fan-out wrappers override
        this with a per-serve-cycle cache (the plane depends only on
        draws and arrivals, both shared).
        """
        if self._lazy:
            raise RuntimeError(
                "totals() needs eager (transformed) draws; this instance "
                "is in lazy raw-draw mode"
            )
        np.subtract(backlog, 1, out=self._tot_idx)
        np.maximum(self._tot_idx, 0, out=self._tot_idx)
        np.add(self._tot_idx, self._tot_base, out=self._tot_idx)
        needed_cum.ravel().take(self._tot_idx.ravel(), out=self._tot2.ravel())
        np.greater(backlog, 0, out=self._tot_mask)
        np.multiply(self._tot2, self._tot_mask, out=self._tot2)
        return self._tot2


class _ChunkedUniforms(_ChunkedDraws):
    """Pre-drawn ``random()`` blocks of a fixed per-interval shape.

    Each chunk is one ``Generator.random`` call into a reused buffer,
    so the stream's values per interval are independent of ``depth``,
    which the byte rule of :func:`~repro.sim.rng.draw_chunk_depth` sets.
    """

    def __init__(self, *per_interval_shape: int, depth: Optional[int] = None):
        nbytes = 8 * int(np.prod(per_interval_shape))
        if depth is None:
            depth = draw_chunk_depth(DRAW_CHUNK, nbytes)
        super().__init__(depth, nbytes)
        self._shape = (self._depth, *per_interval_shape)

    def _buffer(self):
        return np.empty(self._shape)

    def _fill(self, buffer, rng) -> np.ndarray:
        rng.random(out=buffer)
        return buffer


class _ChunkedArgmaxUniforms(_ChunkedUniforms):
    """Single-pair DP candidate indices: ``1 + argmax`` of each row of an
    interval's ``(S, M)`` uniform slice, as ``(S,)`` intp.

    Both priority-state paths read the candidate this way, so they consume
    identical generator values.  The argmax over the whole ``(depth, S,
    M)`` chunk is taken at fill time: the same values
    (``block.argmax(axis=2)[pos] == block[pos].argmax(axis=1)``) with the
    reduction's call overhead amortized across the chunk.

    Only the ``(depth, S)`` indices outlive a fill, so each buffer slot
    holds just those; the ``(depth, S, M)`` uniforms go to one scratch
    block that both slots share, since one source's fills never overlap.
    """

    _uniforms: Optional[np.ndarray] = None

    def _buffer(self):
        if self._uniforms is None:
            self._uniforms = np.empty(self._shape)
        return np.empty(self._shape[:2], dtype=np.intp)

    def _fill(self, cands, rng) -> np.ndarray:
        uniforms = self._uniforms
        rng.random(out=uniforms)
        np.argmax(uniforms, axis=2, out=cands)
        np.add(cands, 1, out=cands)
        return cands


class _ChunkedIntegers(_ChunkedDraws):
    """Pre-drawn ``integers(low, high)`` blocks (free-rng discipline only).

    The single-pair DP candidate index is uniform on ``{1, .., n-1}``; the
    lockstep batch schedule derives it from an ``(S, n-1)`` uniform slice
    (:class:`_ChunkedArgmaxUniforms`).  The free discipline has no such
    constraint and draws the integers directly — ``(n-1)x`` less
    generated randomness for the identical distribution.  Bounded
    integers make values depend on the chunk depth, so ``depth`` is
    fixed by the caller.
    """

    # ``Generator.integers`` has no ``out=`` form: one allocation per
    # chunk.
    _fill_allocs = 1

    def __init__(self, low: int, high: int, *per_interval_shape: int, depth: int):
        super().__init__(depth, 8 * int(np.prod(per_interval_shape)))
        self._low = int(low)
        self._high = int(high)
        self._shape = (self._depth, *per_interval_shape)

    def _fill(self, buffer, rng) -> np.ndarray:
        return rng.integers(self._low, self._high, size=self._shape, dtype=np.int64)


class BatchPolicyKernel(ABC):
    """Base class: one policy family, vectorized across replications."""

    def __init__(self, policy: IntervalMac):
        self.policy = policy
        self.name = policy.name
        self._spec: Optional[NetworkSpec] = None
        self._stack: Optional[SpecStack] = None
        self._row_policies: Optional[List[IntervalMac]] = None
        self._clones: List[IntervalMac] = []

    @property
    def spec(self) -> NetworkSpec:
        """Row 0's spec (the shared spec for homogeneous stacks)."""
        if self._spec is None:
            raise RuntimeError(f"{type(self).__name__} is not bound; call bind()")
        return self._spec

    @property
    def stack(self) -> Optional[SpecStack]:
        """The per-row spec stack, or ``None`` for a single shared spec."""
        return self._stack

    @property
    def dp_state(self) -> str:
        """The priority-state path chosen at bind, for run reports:
        ``"dense"`` or ``"incremental"``.

        Only :class:`BatchDPKernel` has an incremental path, and it
        picks it from the network it binds; every other family reports
        ``"dense"``.
        """
        return "dense"

    @classmethod
    def timing_refusal(cls, timing: "IntervalTiming") -> Optional[str]:
        """Why this family's vectorized path cannot solve ``timing``, or
        ``None`` when it can (:func:`repro.sim.batch_sim.batch_refusal`
        asks it outside ``rng="sync"``)."""
        return None

    def bind(
        self,
        spec: "NetworkSpec | SpecStack | Sequence[NetworkSpec]",
        num_seeds: int,
        row_policies: Optional[Sequence[IntervalMac]] = None,
        *,
        lite: bool = False,
        rng: Optional[str] = None,
    ) -> None:
        """Attach to a network and reset all per-replication state.

        ``spec`` is either one shared :class:`NetworkSpec` (every
        replication simulates the same network — the plain batch engine)
        or a :class:`SpecStack` / sequence of specs, one per replication
        row (the grid-fused engine).  ``row_policies`` optionally supplies
        one policy instance per row; they must match the kernel's policy
        family and configuration except where the kernel supports per-row
        parameters (the DP kernel's swap-bias constants).  Sync mode
        clones *those* per row, so heterogeneous rows stay bit-identical
        to their scalar counterparts.

        ``lite=True`` lets the kernel skip materializing per-link
        attempts and priorities (``BatchIntervalOutcome`` carries
        ``None`` instead); only valid for stats-only consumers that never
        read them.

        ``rng`` picks the draw discipline (:data:`~repro.sim.rng.RNG_MODES`;
        ``None`` is ``"batch"``).  Under ``rng="free"`` the kernel draws
        demand-sized blocks from the bundle's independent free
        substreams instead of the lockstep batch schedule — statistically
        equivalent, not bit-identical.  Whether the spec can run under
        it at all is :func:`repro.sim.batch_sim.batch_refusal`'s call,
        made before binding.
        """
        if isinstance(spec, SpecStack):
            stack: Optional[SpecStack] = spec
        elif isinstance(spec, NetworkSpec):
            stack = None
        else:
            stack = SpecStack(spec)
        if stack is not None and stack.num_rows != int(num_seeds):
            raise ValueError(
                f"spec stack has {stack.num_rows} rows but the bundle has "
                f"{num_seeds} seeds; a fused stack needs one seed per row"
            )
        first = stack.specs[0] if stack is not None else spec
        if row_policies is not None:
            row_policies = list(row_policies)
            if len(row_policies) != int(num_seeds):
                raise ValueError(
                    f"{len(row_policies)} row policies for {num_seeds} rows"
                )
            for i, p in enumerate(row_policies):
                # Registry-backed family check: rows may mix concrete
                # classes served by the same kernel (DP and DB-DP, ELDF
                # and LDF); per-row *parameters* are vetted by each
                # kernel's _on_bind.
                if not registry.same_kernel_family(p, self.policy):
                    raise TypeError(
                        f"row policy {i} is {type(p).__name__}, kernel "
                        f"serves {type(self.policy).__name__}"
                    )
        self._spec = first
        self._stack = stack
        self._row_policies = row_policies
        self.num_seeds = int(num_seeds)
        timing = first.timing
        self._interval_us = timing.interval_us
        self._data_air = timing.data_airtime_us
        self._empty_air = timing.empty_airtime_us
        self._slot = timing.backoff_slot_us
        self._budget = timing.max_transmissions
        if stack is not None:
            self._a_max = stack.max_arrivals_per_link
            self._reliabilities = stack.reliability_matrix
        else:
            self._a_max = max(1, first.arrivals.max_per_link)
            self._reliabilities = first.reliabilities
        self._rng_mode = normalize_rng_mode(rng)
        self._free = self._rng_mode == "free"
        self._sync = sync = self._rng_mode == "sync"
        chan0 = first.channel
        self._lite = bool(lite) and not sync
        # Depth of the free-mode caches whose values depend on it
        # (arrival blocks, candidate integers); the channel and uniform
        # caches size themselves by bytes.
        self._depth = draw_chunk_depth(
            FREE_DRAW_CHUNK if self._free else DRAW_CHUNK
        )
        if sync or not chan0.has_state:
            chan_state = None
        else:
            chan_state = type(chan0).stack_rows(
                stack.channels if stack is not None else (chan0,) * self.num_seeds
            )
        self._chan_state_uses_rng = (
            chan_state is not None and chan_state.uses_rng
        )
        self._channel_draws = _ChunkedChannelDraws(
            self._reliabilities,
            self.num_seeds,
            self._a_max,
            state=chan_state,
        )
        self._rows = np.arange(self.num_seeds)[:, None]
        if sync:
            # One scalar clone per seed: the sync path drives the *scalar*
            # policy with scalar-identical streams, so its outcomes are
            # bit-identical to the scalar engine by construction.  Fused
            # stacks clone each row's own policy and bind each row's own
            # spec.
            sources = (
                row_policies
                if row_policies is not None
                else [self.policy] * self.num_seeds
            )
            row_specs = (
                stack.specs if stack is not None else (first,) * self.num_seeds
            )
            if chan0.has_state:
                # Rows may share one channel object (broadcast stacks);
                # each clone needs its own mutable state, reset exactly
                # like the scalar engine resets at construction.
                row_specs = tuple(
                    dataclasses.replace(rs, channel=copy.deepcopy(rs.channel))
                    for rs in row_specs
                )
                for rs in row_specs:
                    rs.channel.reset_state()
                self._sync_channels: Optional[list] = [
                    rs.channel for rs in row_specs
                ]
            else:
                self._sync_channels = None
            self._clones = [copy.deepcopy(p) for p in sources]
            for clone, row_spec in zip(self._clones, row_specs):
                clone.bind(row_spec)
        else:
            self._sync_channels = None
            self._clones = []
        self._on_bind()

    def _on_bind(self) -> None:
        """Hook for subclasses to (re)initialize batched state."""

    def _kstream(self, rng: BatchRngBundle, name: str) -> np.random.Generator:
        """The vectorized stream ``name`` under the bound rng discipline."""
        if self._free:
            return rng.free_stream(name)
        return rng.batch_stream(name)

    def _chan_rng(
        self, rng: BatchRngBundle
    ) -> Optional[np.random.Generator]:
        """The channel-state evolution stream, or ``None`` if stateless.

        A dedicated stream keeps the retry-draw stream untouched, so the
        Bernoulli draw schedule is bit-identical with or without this
        feature compiled in.
        """
        if getattr(self, "_chan_state_uses_rng", False):
            return self._kstream(rng, "channel-state")
        return None

    def plan(self, num_intervals: int) -> None:
        """Let the draw caches fill ahead through ``num_intervals``
        further intervals (:class:`_ChunkedDraws`)."""
        for source in self._draw_sources():
            source.plan(num_intervals)

    def _draw_sources(self) -> tuple:
        """The chunked draw caches :meth:`run_interval` reads."""
        return (self._channel_draws,)

    def run_interval(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: BatchRngBundle,
    ) -> BatchIntervalOutcome:
        if self._sync:
            return self._run_interval_sync(k, arrivals, positive_debts, rng)
        return self._run_interval_ws(k, arrivals, positive_debts, rng)

    @abstractmethod
    def _run_interval_ws(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: BatchRngBundle,
    ) -> BatchIntervalOutcome:
        """Advance one interval with vectorized draws on the workspace
        buffers bound in ``_on_bind``."""

    # -- workspace plumbing shared by the concrete kernels -----------------
    def _alloc_common_ws(self) -> SimpleNamespace:
        """Buffers every workspace kernel needs: the ordered-service
        solver's scratch (:func:`_ordered_service_ws`) plus flat-index
        and outcome planes for the gather/scatter steps."""
        S, n = self.num_seeds, self.spec.num_links
        w = _ordered_service_ws(S, n, self._a_max, self._channel_draws.dtype)
        workf = w.workf
        w.link_plane = np.tile(np.arange(n, dtype=np.int64), (S, 1))
        w.attempts_f = np.empty((S, n), dtype=workf)
        w.attempts_i = np.empty((S, n), dtype=np.int64)
        w.busy = np.empty(S, dtype=np.float64)
        # Row sums as one matvec against ones: a BLAS dot of n exact
        # small integers, bit-equal to ``np.sum`` but without the
        # reduction's per-call overhead.
        w.ones_wf = np.ones(n, dtype=workf)
        w.busyf = np.empty(S, dtype=workf)
        # Shared never-written zero planes for outcome fields the kernel
        # family never produces (safe to alias across intervals).
        w.zerof = np.zeros(S, dtype=np.float64)
        w.zeroi = np.zeros(S, dtype=np.int64)
        return w

    def _serve_ordered_ws(
        self, w: SimpleNamespace, backlog: np.ndarray, needed: np.ndarray
    ) -> None:
        """Run :func:`_solve_ordered` on the bound workspace, capped by
        ``w.caps_f`` (``w.oflat`` must hold ``order + w.row_off``)."""
        tot = self._channel_draws.totals(needed, backlog)
        _solve_ordered(w, backlog, needed, w.caps_f, tot)

    def _run_interval_sync(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: BatchRngBundle,
    ) -> BatchIntervalOutcome:
        """Advance one interval via per-seed scalar clones (exact mode)."""
        S, n = arrivals.shape
        deliveries = np.zeros((S, n), dtype=np.int64)
        attempts = np.zeros((S, n), dtype=np.int64)
        busy = np.zeros(S)
        overhead = np.zeros(S)
        collisions = np.zeros(S, dtype=np.int64)
        priorities = np.zeros((S, n), dtype=np.int64)
        if self._sync_channels is not None:
            # Mirror IntervalSimulator.step(): evolve each row's channel
            # once per interval from that seed's own "channel-state"
            # stream, so sync rows stay bit-identical to scalar runs.
            for ch, bundle in zip(self._sync_channels, rng.bundles):
                ch.begin_interval(bundle.stream("channel-state"))
        for s, (clone, bundle) in enumerate(zip(self._clones, rng.bundles)):
            outcome = clone.run_interval(
                k, arrivals[s], positive_debts[s], bundle
            )
            deliveries[s] = outcome.deliveries
            attempts[s] = outcome.attempts
            busy[s] = outcome.busy_time_us
            overhead[s] = outcome.overhead_time_us
            collisions[s] = outcome.collisions
            if outcome.priorities is not None:
                priorities[s] = outcome.priorities
        return BatchIntervalOutcome(
            deliveries=deliveries,
            attempts=attempts,
            busy_time_us=busy,
            overhead_time_us=overhead,
            collisions=collisions,
            priorities=priorities,
        )


class _BatchOrderedServeKernel(BatchPolicyKernel):
    """Shared machinery for "serve links in some order until time runs out"
    policies (ELDF/LDF, round-robin, static priority): constant attempt
    budget, no backoff slots, no empty packets."""

    def _on_bind(self) -> None:
        if self._sync:
            return
        w = self._alloc_common_ws()
        S, n = self.num_seeds, self.spec.num_links
        w.caps_f = np.full((S, n), self._budget, dtype=w.workf)
        w.rank_plane = np.tile(np.arange(1, n + 1, dtype=np.int64), (S, 1))
        w.prios = np.empty((S, n), dtype=np.int64)
        self._ws = w

    @abstractmethod
    def _service_orders(
        self, k: int, positive_debts: np.ndarray
    ) -> np.ndarray:
        """Return ``(S, N)`` link ids in service order for this interval."""

    def _run_interval_ws(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: BatchRngBundle,
    ) -> BatchIntervalOutcome:
        w = self._ws
        counters = perf.counters
        if counters.enabled:
            t0 = perf.clock()
        order = self._service_orders(k, positive_debts)
        needed = self._channel_draws.next(
            self._kstream(rng, "channel"), self._chan_rng(rng)
        )
        lite = self._lite
        np.add(order, w.row_off, out=w.oflat)
        if arrivals.any():
            self._serve_ordered_ws(w, arrivals, needed)
        else:
            # Fast path: nothing buffered anywhere in the stack — nobody
            # transmits (the draws above were still consumed, keeping the
            # stream aligned across intervals).
            w.att_pos.fill(0)
            w.delivered.fill(0)
        np.matmul(w.att_pos, w.ones_wf, out=w.busyf)
        # Multiply in float64: a float32 product rounds airtimes like 0.4 us.
        np.copyto(w.busy, w.busyf)
        np.multiply(w.busy, self._data_air, out=w.busy)
        if not lite:
            w.attempts_f.ravel()[w.oflat.ravel()] = w.att_pos.ravel()
            np.copyto(w.attempts_i, w.attempts_f, casting="unsafe")
            w.prios.ravel()[w.oflat.ravel()] = w.rank_plane.ravel()
        if counters.enabled:
            counters.add("kernel.serve.interval", perf.clock() - t0)
        return BatchIntervalOutcome(
            deliveries=w.delivered if lite else w.delivered.copy(),
            attempts=None if lite else w.attempts_i.copy(),
            busy_time_us=w.busy if lite else w.busy.copy(),
            overhead_time_us=w.zerof,
            collisions=w.zeroi,
            priorities=None if lite else w.prios.copy(),
        )


class BatchELDFKernel(_BatchOrderedServeKernel):
    """ELDF/LDF: stable argsort on ``f(d^+) p`` descending, per row."""

    def __init__(self, policy: ELDFPolicy):
        super().__init__(policy)
        self.influence = policy.influence

    def _on_bind(self) -> None:
        super()._on_bind()
        if self._row_policies is not None:
            for i, p in enumerate(self._row_policies):
                if p.influence != self.influence:
                    raise TypeError(
                        f"row {i} uses influence {p.influence!r}, the "
                        f"kernel uses {self.influence!r}; ELDF rows cannot "
                        "mix influence functions"
                    )
        if not self._sync:
            # Persistent (S, N) weight plane: f(d+) * p is evaluated into
            # this buffer every interval (influence functions accept
            # ``out=``), so the serve-order stage allocates nothing but
            # argsort's own output.
            self._ws.eldf_w = np.empty(
                (self.num_seeds, self.spec.num_links), dtype=np.float64
            )

    def _service_orders(self, k: int, positive_debts: np.ndarray) -> np.ndarray:
        # _reliabilities is (N,) or, for fused stacks, (S, N); either
        # broadcasts against the (S, N) debt weights.
        weights = self.influence.value_array(
            positive_debts, out=self._ws.eldf_w
        )
        np.multiply(weights, self._reliabilities, out=weights)
        if (
            weights.dtype == np.float64
            and weights.flags.c_contiguous
            and weights.min() >= 0.0
        ):
            # Same permutation, sorted as integers: non-negative float64
            # bit patterns order exactly like their values, so negating
            # the int64 view and stable-sorting equals the stable argsort
            # of ``-weights`` — and integer radix sort is measurably
            # faster than float mergesort at these shapes.  (Exotic
            # influence functions yielding negative weights fall through
            # to the float sort below.)
            keys = weights.view(np.int64)
            np.negative(keys, out=keys)
            return np.argsort(keys, axis=1, kind="stable")
        # Stable argsort of -weights: ties keep lowest link first, exactly
        # like the scalar policy's tie-break.
        return np.argsort(-weights, axis=1, kind="stable")


class BatchRoundRobinKernel(_BatchOrderedServeKernel):
    """Rotating strict priority; the rotation is deterministic, so all
    replications share one order per interval."""

    def _on_bind(self) -> None:
        super()._on_bind()
        self._offset = 0
        n = self.spec.num_links
        # All n rotations, precomputed: rotation r is row r.
        base = np.arange(n, dtype=np.int64)
        self._rotations = (base[None, :] + base[:, None]) % n

    def _service_orders(self, k: int, positive_debts: np.ndarray) -> np.ndarray:
        row = self._rotations[self._offset]
        self._offset = (self._offset + 1) % self.spec.num_links
        return np.broadcast_to(row, (self.num_seeds, row.size))


class BatchStaticPriorityKernel(_BatchOrderedServeKernel):
    """One fixed order for every interval and replication."""

    def __init__(self, policy: StaticPriorityPolicy):
        super().__init__(policy)
        self._configured = policy._configured

    def _on_bind(self) -> None:
        super()._on_bind()
        if self._row_policies is not None:
            for i, p in enumerate(self._row_policies):
                if p._configured != self._configured:
                    raise TypeError(
                        f"row {i} configures a different priority vector; "
                        "static-priority rows must share one ordering"
                    )
        n = self.spec.num_links
        if self._configured is None:
            sigma = tuple(range(1, n + 1))
        else:
            if len(self._configured) != n:
                raise ValueError(
                    f"priority vector covers {len(self._configured)} links, "
                    f"network has {n}"
                )
            sigma = validate_priority_vector(self._configured)
        self._order_row = np.asarray(priority_to_link_order(sigma), dtype=np.int64)

    def _service_orders(self, k: int, positive_debts: np.ndarray) -> np.ndarray:
        return np.broadcast_to(
            self._order_row, (self.num_seeds, self._order_row.size)
        )


#: Elements a contention block spans at most: a block solves about
#: ``_CONTENTION_BLOCK_ELEMENTS // (N * S)`` rounds at once (at least
#: one; at most 127, so running win counts fit a byte).
_CONTENTION_BLOCK_ELEMENTS = 1 << 15


def _contention_dtypes(budget: int, max_window: int) -> Tuple[np.dtype, np.dtype]:
    """The backoff-key dtype, the smallest unsigned one whose top bit
    (the drained-link mask) lies above every backoff ``floor(u * W) <=
    max_window - 1``, and the dtype of the idle-slot sums of an interval
    (at most ``budget * (max_window - 1)``)."""
    if budget * max_window >= 1 << 64:
        raise ValueError(
            f"contention windows up to {max_window} over {budget} rounds "
            "overflow 64-bit backoff sums"
        )
    for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
        if max_window <= 1 << (np.iinfo(dt).bits - 1):
            return np.dtype(dt), np.min_scalar_type(budget * (max_window - 1))


class _BatchContentionKernel(BatchPolicyKernel):
    """Random-backoff contention rounds with collisions (FCSMA, DCF).

    Per round, every backlogged link of a row draws a backoff on
    ``{0, ..., W - 1}``; the row's minimum wins after that many idle
    slots, and a tie is a collision that spends one data airtime and
    fails every transmitter.  A row stops when no link is backlogged,
    or when the next transmission would end past the interval.  The
    accounting is the scalar ``run_interval``'s.

    Draws:

    * A solo transmission of link ``l`` delivers when the link's solo
      attempt count reaches ``needed_cum[row, l, delivered]`` of the
      engine's geometric retry-count block, so channel models and draw
      sharing work exactly as for the ordered-service kernels.  The
      link drains once that count reaches the drain total.
    * Backoffs come from one ``(max_transmissions, S, N)`` uniform block
      per interval on the ``"policy"`` stream, ``b = floor(u * W)``: a
      row transmits at most ``max_transmissions`` times per interval,
      and the round after that can never fit, so the block covers every
      round that matters and the draw schedule does not depend on
      outcomes.  ``floor(u * W) < W`` holds in float64 for every
      ``u < 1`` and integer ``W``.

    Solve: the rounds are taken in blocks, and each block is solved as
    a fixed point over whole-block arrays.  A round depends on the
    rounds before it only through which links have drained, so a block

    1. guesses the drained mask of every (link, round, row); the first
       guess is that nobody drains inside the block;
    2. computes every round of the block at once from the guess: the
       row minimum of the integer backoff keys (a drained link's key
       carries the dtype's top bit, so it never wins or ties), the
       running idle-slot sum and whether the round fits, the ties and
       the solo wins;
    3. recomputes the mask from the running solo-win counts, and sweeps
       again until the mask stops changing.

    A round whose mask is right is computed right, and its mask depends
    only on earlier rounds, so every sweep fixes at least one more
    round and the fixed point is the sequential answer; a block takes
    about one sweep more than the number of its rounds in which some
    link drains.

    Blocks are ``_CONTENTION_BLOCK_ELEMENTS // (N * S)`` rounds (from 1
    to the budget): the whole interval at the paper's N = 20, while
    wide stacks, whose calls are long already, take short blocks and
    never redo many rounds.  Adaptive kernels (DCF) change windows
    every round, so their blocks are one round, solved in one sweep.
    Arrays are link-major, ``(N, rounds, S)``, when a block's rounds
    times rows outnumber its links, and link-minor, ``(rounds, S, N)``,
    otherwise, so that the reductions over links run along the longer
    contiguous extent.

    Fits: with ``B`` idle slots before round ``r``, the round fits iff
    ``(B + b) * slot + (r + 1) * air <= T``, i.e. the running sum of
    ``b`` is at most ``floor((T - (r + 1) * air) / slot)`` (no bound
    under free backoff slots), and a row whose links have all drained
    (a masked minimum) never fits.  Slots only grow and the cap only
    shrinks, so a row that stops fitting stays stopped.

    Subclasses name the parameters rows must share (:meth:`_row_config`)
    and the largest window (:meth:`_max_window`), and set the windows:
    :meth:`_interval_windows` once per interval, and
    :meth:`_update_windows` after each round when ``_adaptive`` (DCF's
    binary exponential backoff).
    """

    #: Whether windows change from round to round (DCF).
    _adaptive = False
    #: The ``"policy"`` stream each interval's backoff block is drawn from
    #: directly, with no draw cache: claimed (:func:`_claim`) so that no
    #: cache filling on the draw thread ever reads it too.
    _policy_stream = None

    def _on_bind(self) -> None:
        if self._row_policies is not None:
            for i, p in enumerate(self._row_policies):
                if self._row_config(p) != self._row_config(self.policy):
                    raise TypeError(
                        f"row {i} configures {self._row_config(p)!r}, the "
                        f"kernel uses {self._row_config(self.policy)!r}; "
                        f"{self.name} rows must share one configuration"
                    )
        if self._sync:
            return
        S, n, M = self.num_seeds, self.spec.num_links, self._budget
        wmax = int(self._max_window())
        kdt, sdt = _contention_dtypes(M, wmax)
        r = np.arange(M, dtype=np.float64)
        cap = (r + 1) * (wmax - 1)  # the largest live sum
        if self._slot > 0:
            after_airtimes = self._interval_us - (r + 1) * self._data_air
            cap = np.minimum(cap, np.floor(after_airtimes / self._slot))
        # A negative cap (float rounding at the budget's edge) never
        # fits: stop before it.
        num_rounds = int(np.count_nonzero(cap >= 0))
        R = 1 if self._adaptive else _CONTENTION_BLOCK_ELEMENTS // (n * S)
        R = min(max(R, 1), 127)
        num_blocks = -(-num_rounds // R)
        if num_blocks:
            R = -(-num_rounds // num_blocks)  # blocks of equal length
        major = R * S > n
        w = SimpleNamespace(link_major=major)
        w.link_axis, w.round_axis = (0, 1) if major else (2, 0)
        w.high = kdt.type(1 << (8 * kdt.itemsize - 1))
        w.scale = kdt.type(w.high // 128)

        def plane(r, dtype):
            return np.empty((n, r, S) if major else (r, S, n), dtype=dtype)

        def per_round(a):  # an (r, S) array as the 3-D reduced shape
            return a[None] if major else a[:, :, None]

        def rounds(a, lo, hi):  # rounds lo:hi of a 3-D array
            return a[:, lo:hi] if major else a[lo:hi]

        w.u = np.empty((M, S, n))  # backoff uniforms
        w.windows = np.empty((S, n))
        # Solo attempts each link still needs to drain its buffer, and
        # the windows, as link planes in the layout's orientation.
        w.left = np.empty((n, S) if major else (S, n), dtype=self._channel_draws.dtype)
        w.windows_plane = w.windows.T if major else w.windows
        left3 = w.left[:, None, :] if major else w.left[None]
        w.won = np.empty(left3.shape, dtype=np.uint8)
        w.dead = np.empty(w.left.shape, dtype=bool)
        w.dead_key = np.empty(w.left.shape, dtype=kdt)
        # Per block: the products u * W in draw order, backoff keys,
        # masked keys, and per round the row minimum, whether a link is
        # live there, and the transmitters.
        draws = np.empty((R, S, n))
        keys = plane(R, kdt)
        km = plane(R, kdt)
        bmin = np.empty((R, S), dtype=kdt)
        alive = np.empty((R, S), dtype=bool)
        cnt = np.empty((R, S), dtype=np.min_scalar_type(n))
        # Per link, ``run`` at round r is 128 plus the solo wins before
        # r less ``min(left, R)``, so its 128 bit is the drained mask; a
        # round's wins are written one round on and summed in place.
        # Two mask guesses, and the mask at the key's top bit when keys
        # are wider than a byte.
        run = plane(R + 1, np.uint8)
        mask = plane(R, np.uint8)
        mask2 = plane(R, np.uint8)
        kmask = mask if kdt.itemsize == 1 else plane(R, kdt)
        # Per round of the interval: running idle slots (``slots[r + 1]``
        # through round r, exact while the row has a live link), the
        # cap they must stay under, fits, solo wins and transmitters.
        w.cap = np.repeat(np.maximum(cap, 0).astype(sdt)[:, None], S, axis=1)
        w.slots = np.zeros((M + 1, S), dtype=sdt)
        w.fits = np.empty((M, S), dtype=bool)
        w.solo = np.empty((M, S), dtype=bool)
        w.eq = plane(M, bool)
        w.row_index = np.arange(S)
        # Views of every block, built once: slicing them per block would
        # cost as much as the one-round blocks' ufunc calls, which also
        # run on 2-D views (a squeezed round axis) for the same reason.
        w.blocks = []
        for lo in range(0, num_rounds, R):
            hi = min(lo + R, num_rounds)
            k = hi - lo
            b = SimpleNamespace(lo=lo, hi=hi, rounds=k, links=w.link_axis)
            b.u = w.u[lo:hi]
            b.keys = rounds(keys, 0, k)
            b.draws = draws[:k]
            b.draws_t = draws[:k].transpose(2, 0, 1) if major else b.draws
            b.km = rounds(km, 0, k)
            b.mask, b.mask2 = rounds(mask, 0, k), rounds(mask2, 0, k)
            b.kmask = rounds(kmask, 0, k)
            b.run = rounds(run, 0, k + 1)
            b.run_steps = [(run[i], run[i + 1]) for i in range(k)] if not major else ()
            b.head = rounds(run, 0, k)
            b.base = rounds(run, 0, 1)
            b.total = rounds(run, k, k + 1)
            b.wins = rounds(run, 1, k + 1).view(bool)
            b.left = left3
            b.bmin = per_round(bmin[:k])
            b.alive = per_round(alive[:k])
            b.cnt = per_round(cnt[:k])
            b.eq = rounds(w.eq, lo, hi)
            b.fits = per_round(w.fits[lo:hi])
            b.solo = per_round(w.solo[lo:hi])
            b.slots = per_round(w.slots[lo + 1 : hi + 1])
            b.slots0 = per_round(w.slots[lo : lo + 1])
            b.cap = per_round(w.cap[lo:hi])
            if k == 1:
                b.u, b.draws = b.u[0], b.draws[0]
                for name in (
                    "keys", "draws_t", "wins", "bmin", "alive", "cnt", "eq",
                    "fits", "solo", "slots", "slots0", "cap",
                ):
                    setattr(b, name, getattr(b, name).squeeze(w.round_axis))
                b.left, b.links = w.left, 0 if major else 1
            b.eq8 = b.eq.view(np.uint8)
            b.views = (
                b.keys, b.left, b.bmin, b.slots, b.slots0, b.cap, b.fits,
                b.alive, b.eq, b.eq8, b.cnt, b.solo, b.wins,
            )
            b.last_fits = w.fits[hi - 1]
            w.blocks.append(b)
        fdt = w.left.dtype
        w.serve3f = np.empty((S, n, self._a_max), dtype=fdt)
        w.ones_af = np.ones(self._a_max, dtype=fdt)
        w.countf = np.empty((S, n), dtype=fdt)
        self._ws = w

    @staticmethod
    @abstractmethod
    def _row_config(policy: IntervalMac):
        """The policy parameters every row of one stack must share."""

    @abstractmethod
    def _max_window(self) -> int:
        """The largest window any link can take."""

    def _interval_windows(self, positive_debts: np.ndarray, out: np.ndarray) -> None:
        """Set the ``(S, N)`` windows ``out`` at the interval start; by
        default they are per-link state and stay as they are."""

    def _update_windows(self, eq: np.ndarray, wins: np.ndarray) -> None:
        """Adapt the windows after a one-round block (``_adaptive``
        kernels): ``eq`` and ``wins`` are its transmitters and solo
        winners, shaped like ``self._ws.windows_plane``."""

    def _solve_block(self, w: SimpleNamespace, b: SimpleNamespace) -> None:
        """Solve one block's rounds to their fixed point (class docstring)."""
        high = w.high
        # One load for the views every sweep uses (the one-round blocks
        # of DCF pay this per round).
        (keys, left, bmin, slots, slots0, cap, fits, alive, eq, eq8, cnt,
         solo, wins) = b.views
        np.multiply(b.u, w.windows, out=b.draws)
        # Truncation is floor on u * W >= 0.
        np.copyto(keys, b.draws_t, casting="unsafe")
        one = b.rounds == 1
        if one:
            # One sweep is exact: mask the drained links' keys in place
            # (a ``where=`` ufunc measured ~30x slower at N = 2000).
            km = keys
            np.less_equal(left, 0, out=w.dead)
            np.multiply(w.dead, high, out=w.dead_key)
            np.bitwise_or(km, w.dead_key, out=km)
        else:
            km, base, mask, mask2 = b.km, b.base, b.mask, b.mask2
            np.minimum(left, b.rounds, out=base, casting="unsafe")
            np.subtract(128, base, out=base)
            # First guess: nobody drains inside the block.
            np.bitwise_and(base, 128, out=mask)
        links = b.links
        while True:
            if not one:
                kmask = mask
                if w.scale != 1:
                    kmask = b.kmask
                    np.multiply(mask, w.scale, out=kmask)
                np.bitwise_or(keys, kmask, out=km)
            np.minimum.reduce(km, axis=links, out=bmin, keepdims=True)
            if one:
                np.add(slots0, bmin, out=slots)
            else:
                np.add.accumulate(bmin, axis=w.round_axis, out=slots)
                np.add(slots, slots0, out=slots)
            np.less_equal(slots, cap, out=fits)
            np.less(bmin, high, out=alive)
            np.logical_and(fits, alive, out=fits)
            # Transmitters: the minimum's links, in rounds that fit.
            np.equal(km, bmin, out=eq)
            np.logical_and(eq, fits, out=eq)
            np.add.reduce(eq8, axis=links, out=cnt, keepdims=True)
            np.equal(cnt, 1, out=solo)
            np.logical_and(eq, solo, out=wins)
            if one:
                np.subtract(left, wins, out=left)
                return
            if w.link_major:
                np.add.accumulate(b.run, axis=1, out=b.run)
            else:
                # Accumulate runs its inner loop along the summed axis:
                # with rounds outermost, slab-wise adds are far faster.
                for prev, cur in b.run_steps:
                    np.add(prev, cur, out=cur)
            np.bitwise_and(b.head, 128, out=mask2)
            # Byte compare: far cheaper than a ufunc pass at this size.
            if mask2.tobytes() == mask.tobytes():
                break
            mask, mask2 = mask2, mask
        # Wins of the block: the last running count less the first.
        np.subtract(b.total, b.base, out=w.won)
        np.subtract(left, w.won, out=left)

    def _run_interval_ws(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: BatchRngBundle,
    ) -> BatchIntervalOutcome:
        w = self._ws
        counters = perf.counters
        needed = self._channel_draws.next(
            self._kstream(rng, "channel"), self._chan_rng(rng)
        )
        if counters.enabled:
            t0 = perf.clock()
        policy = self._kstream(rng, "policy")
        if policy is not self._policy_stream:
            _claim(self, policy)
            self._policy_stream = policy
        policy.random(out=w.u)
        if counters.enabled:
            t1 = perf.clock()
            counters.add("draws.uniform_refill", t1 - t0)
            t0 = t1
        tot = self._channel_draws.totals(needed, arrivals)
        np.copyto(w.left, tot.T if w.link_major else tot)
        self._interval_windows(positive_debts, w.windows)
        adaptive = self._adaptive
        rounds = 0
        for b in w.blocks if w.left.any() else ():
            self._solve_block(w, b)
            rounds = b.hi
            if adaptive:
                self._update_windows(b.eq, b.wins)
            if not np.logical_or.reduce(b.last_fits):
                break
        fits = w.fits[:rounds]
        transmissions = fits.sum(axis=0)
        collisions = transmissions - w.solo[:rounds].sum(axis=0)
        # Idle slots: the running sum through each row's last fitting
        # round (fitting rounds are a prefix).
        backoff_slots = w.slots[transmissions, w.row_index].astype(np.int64)
        # Solo attempts made, and the packets they delivered: packet t
        # is through once the count reaches needed_cum[t] (strictly
        # increasing, and never past the drain total, so the count over
        # the whole axis is the delivered count).
        solo_attempts = tot - (w.left.T if w.link_major else w.left)
        np.less_equal(
            needed, solo_attempts[:, :, None], out=w.serve3f, casting="unsafe"
        )
        np.matmul(w.serve3f.reshape(-1, self._a_max), w.ones_af, out=w.countf.ravel())
        deliveries = w.countf.astype(np.int64)
        attempts = None
        if not self._lite:
            eq = w.eq[:, :rounds] if w.link_major else w.eq[:rounds]
            attempts = eq.sum(axis=w.round_axis, dtype=np.int64)
            if w.link_major:
                attempts = np.ascontiguousarray(attempts.T)
        air = self._data_air
        if counters.enabled:
            counters.add("kernel.contention.interval", perf.clock() - t0)
        return BatchIntervalOutcome(
            deliveries=deliveries,
            attempts=attempts,
            busy_time_us=transmissions * air,
            overhead_time_us=backoff_slots * self._slot + collisions * air,
            collisions=collisions.astype(np.int64),
        )


class BatchFCSMAKernel(_BatchContentionKernel):
    """Discretized FCSMA: windows from the positive debts, per interval."""

    @staticmethod
    def _row_config(policy: FCSMAPolicy):
        return policy.window_map

    def _max_window(self) -> int:
        return max(self.policy.window_map.windows)

    def _interval_windows(self, positive_debts: np.ndarray, out: np.ndarray) -> None:
        self.policy.window_map.window_array(positive_debts, out)


class BatchDCFKernel(_BatchContentionKernel):
    """802.11 DCF: per-link windows persist across intervals, double on
    a collision up to ``cw_max`` and reset to ``cw_min`` after a decided
    transmission."""

    _adaptive = True

    def __init__(self, policy: DCFPolicy):
        super().__init__(policy)
        self._cw_min = float(policy.cw_min)
        self._cw_max = float(policy.cw_max)

    @staticmethod
    def _row_config(policy: DCFPolicy):
        return (policy.cw_min, policy.cw_max)

    def _max_window(self) -> int:
        return self.policy.cw_max

    def _on_bind(self) -> None:
        super()._on_bind()
        if not self._sync:
            self._ws.windows.fill(self._cw_min)

    def _update_windows(self, eq: np.ndarray, wins: np.ndarray) -> None:
        windows = self._ws.windows_plane
        np.ldexp(windows, eq, out=windows)  # doubles the transmitters'
        np.minimum(windows, self._cw_max, out=windows)
        np.copyto(windows, self._cw_min, where=wins)


class BatchDPKernel(BatchPolicyKernel):
    """Algorithm 2 (and DB-DP via its Glauber bias), vectorized.

    Per interval and replication: candidate pairs from the shared stream,
    biased coins, collision-free backoffs, the analytic interval timeline
    (staircase attempt ceilings set by backoff slots and empty-packet
    airtime), and the swap handshake of Eqs. (5)-(8).

    Empty priority-claiming packets couple the timeline: whether one fits
    depends on the airtime used before it, which depends on earlier
    service.  The kernel counts every wanted empty packet as aired and
    solves the whole stack in closed form.  That assumption fails often
    near overload (two thirds of the row-intervals of an N=2000 stack at
    alpha 0.45-0.65), yet changes no output on every timing the kernel
    accepts; see :meth:`timing_refusal` for the lemma and the timings it
    leaves to the scalar engine.
    """

    #: Test hook: ``"dense"`` or ``"incremental"`` replaces the sparse
    #: serve-set test (``n > max_transmissions + 1``) of the priority-state
    #: choice, so the test-suite can run both paths on one input; the
    #: structural limits (one pair, static channel, not sync) still apply.
    _force_dp_state: Optional[str] = None

    #: Whether the bound stack runs the incremental priority-state path.
    _use_inc = False

    @staticmethod
    def _time_units(timing: "IntervalTiming") -> Tuple[int, int, int, int]:
        """``timing``'s interval, data airtime, empty airtime and slot as
        integers, in the largest decimal unit (1 us, 0.1 us, ...) that
        makes all four integral: a 0.8 us slot is 8 units of 0.1 us.
        Each value is read as the decimal its float prints as."""
        values = [
            Decimal(repr(float(v))).normalize()
            for v in (
                timing.interval_us,
                timing.data_airtime_us,
                timing.empty_airtime_us,
                timing.backoff_slot_us,
            )
        ]
        digits = max(0, -min(v.as_tuple().exponent for v in values))
        T, air, empty, slot = (int(v.scaleb(digits)) for v in values)
        return T, air, empty, slot

    @classmethod
    def timing_refusal(cls, timing: "IntervalTiming") -> Optional[str]:
        """``None`` when the closed-form timeline is exact for ``timing``.

        The timeline runs in the integer units of :meth:`_time_units`.
        Lemma: with integer timings and ``empty_air <= data_air + slot``,
        counting every wanted claim as aired changes no output.  Let
        ``j0`` be the first position whose wanted claim does not fit: its
        start is exact (every claim before it fit) and exceeds ``T -
        empty_air`` (``>= T`` when ``empty_air == 0``).  Backoffs are
        distinct integers increasing along the service order, and attempts
        and fitting claims only accumulate, so every later position starts
        at least one slot after ``j0``: past ``T - empty_air + slot >= T -
        data_air``, where neither a data packet nor a claim fits.  The
        closed form counts ``j0``'s claim as aired, which only pushes those
        positions later, so it too gives them zero attempts, zero
        deliveries and no fit.  Only the workspace ``start`` of positions
        past ``j0`` is off, and the swap commit reads ``start`` only where
        a link transmitted.

        Every value, start and ceiling stays an exact float32 integer
        while the interval is under ``2**24`` units, and the float32
        divide that floors the attempt ceilings keeps its error (``q *
        2**-24 <= T / air * 2**-24``) below the ``1 / air`` distance of a
        non-integer quotient from the next integer.  The video (66 <= 330
        + 9), low-latency (66 <= 122 + 9) and idealized (0 <= 1 + 0)
        timings, and every :class:`~repro.phy.timing.Dot11aPhy` timing
        (a header-only frame is shorter than a data exchange), qualify;
        the others run under ``rng="sync"`` or on the scalar engine.
        """
        T, air, empty, slot = cls._time_units(timing)
        if T < 2**24 and empty <= air + slot:
            return None
        return (
            f"{timing} is outside the batch DP timeline, which needs "
            "empty_airtime_us <= data_airtime_us + backoff_slot_us and an "
            "interval under 2**24 decimal time units; use rng='sync' or "
            "engine='scalar'"
        )

    def __init__(self, policy: DPProtocol):
        super().__init__(policy)
        self.bias = policy.bias
        self.num_pairs = policy.num_pairs
        self._initial = policy._initial
        self._active_bias = policy.bias

    @property
    def dp_state(self) -> str:
        """The priority-state path chosen at bind.

        * ``"dense"`` — every interval rebuilds the inverse permutation,
          the service order and the full per-position timeline from
          ``sigma``: O(S*N) per interval.
        * ``"incremental"`` — the inverse permutation persists in the
          workspace across intervals and only the accepted adjacent
          swaps are applied; the timeline solve runs on the at-most
          ``max_transmissions + 1`` backlogged links that can transmit
          instead of all N, so per-interval cost tracks the protocol's
          O(1) moves rather than the network size.

        Both paths consume the same draws with the same exact-integer
        arithmetic and are bit-identical
        (``tests/sim/test_incremental_dp.py``).  :meth:`_on_bind` picks
        the incremental one exactly where it can win.
        """
        return "incremental" if self._use_inc else "dense"

    def _on_bind(self) -> None:
        if self._row_policies is not None:
            for i, p in enumerate(self._row_policies):
                if p.num_pairs != self.num_pairs:
                    raise TypeError(
                        f"row {i} uses {p.num_pairs} swap pairs, the kernel "
                        f"uses {self.num_pairs}; fused DP rows must agree"
                    )
                if p._initial != self._initial:
                    raise TypeError(
                        f"row {i} configures different initial priorities; "
                        "fused DP rows must share sigma(0)"
                    )
            # Per-row swap-bias constants (e.g. Glauber R) collapse into
            # one vectorized bias; incompatible mixes raise TypeError so
            # callers fall back to per-cell simulation.
            self._active_bias = stack_swap_biases(
                [p.bias for p in self._row_policies]
            )
        else:
            self._active_bias = self.bias
        n = self.spec.num_links
        if self._initial is not None:
            if len(self._initial) != n:
                raise ValueError(
                    f"initial priorities cover {len(self._initial)} links, "
                    f"network has {n}"
                )
            row = np.asarray(self._initial, dtype=np.int64)
        else:
            row = np.arange(1, n + 1, dtype=np.int64)
        self._sigma = np.tile(row, (self.num_seeds, 1))
        if n >= 2 and self.num_pairs > max_swap_pairs(n):
            raise ValueError(
                f"{self.num_pairs} pairs would make the priority chain "
                f"reducible on {n} links; the bound is {max_swap_pairs(n)}"
            )
        P = self.num_pairs if n >= 2 else 0
        self._coin_draws = _ChunkedUniforms(self.num_seeds, 2 * P)
        if P != 1:
            # Remark-6 pair subsets: the argsort of (S, M) uniforms.
            self._cand_draws = _ChunkedUniforms(
                self.num_seeds, max(0, (n - 1) - (P - 1))
            )
        elif self._free:
            # Free discipline: draw the single-pair candidate index as a
            # demand-sized integer block instead of (S, n-1) uniforms.
            self._cand_draws = _ChunkedIntegers(
                1, n, self.num_seeds, depth=self._depth
            )
        else:
            self._cand_draws = _ChunkedArgmaxUniforms(self.num_seeds, n - 1)
        self._pair_idx = np.arange(P, dtype=np.int64)[None, :]
        if not self._sync:
            refusal = self.timing_refusal(self.spec.timing)
            if refusal is not None:
                raise TypeError(refusal)
            # The timeline's comparisons and ceilings run in integer time
            # units (see timing_refusal); busy and overhead stay counts
            # times the microsecond constants.
            T, air, empty, slot = self._time_units(self.spec.timing)
            self._units = (float(T), float(air), float(empty), float(slot))
            self._budget = T // air
        # The incremental path (:attr:`dp_state`) needs one candidate
        # pair, a static channel plane (it scales lazy raw draws by a
        # fixed (S, N) plane) and the workspace path (sync drives the
        # scalar clones).  It wins only on a sparse serve set: when every
        # link fits in the interval's transmission budget (n <=
        # max_transmissions + 1, e.g. the paper's N=20 video grid with
        # budget 60) the timeline visits all n positions either way and
        # the serve-set selection is pure overhead (BENCH_LARGE_N.json
        # records ~0.8x at N=20).
        if self._force_dp_state is None:
            sparse = n > self._budget + 1
        else:
            sparse = self._force_dp_state == "incremental"
        self._use_inc = (
            sparse
            and P == 1
            and not self._sync
            and not self._channel_draws.dynamic
        )
        if self._use_inc:
            self._alloc_dp_ws_inc()
        elif not self._sync:
            self._alloc_dp_ws(P)

    def _alloc_dp_ws(self, P: int) -> None:
        """Workspace buffers for the in-place DP interval (see
        :meth:`_run_interval_ws`)."""
        w = self._alloc_common_ws()
        S, n = self.num_seeds, self.spec.num_links
        w.caps_f = np.empty((S, n), dtype=w.workf)
        # Link/position-space integer and boolean scratch.
        w.tmpi = np.empty((S, n), dtype=np.int64)
        w.tmpi2 = np.empty((S, n), dtype=np.int64)
        w.inv = np.empty((S, n), dtype=np.int64)
        w.order = np.empty((S, n), dtype=np.int64)
        w.backoff = np.empty((S, n), dtype=np.int64)
        w.bpos = np.empty((S, n), dtype=np.int64)
        w.posn = np.empty((S, n), dtype=np.int64)
        # Single-pair non-candidate backoffs by position have a closed
        # form ``j + 2 * (j > c)``; precomputing all n candidate rows
        # turns the per-interval build into one row gather.
        col = np.arange(n, dtype=np.int64)
        w.bpos_tab = col[None, :] + 2 * (col[None, :] > col[:, None])
        w.row_off_m1 = w.row_off - 1
        w.we = np.zeros((S, n), dtype=bool)
        w.iep = np.empty((S, n), dtype=bool)
        w.fits = np.empty((S, n), dtype=bool)
        w.tx = np.empty((S, n), dtype=bool)
        # Timeline planes in time units (see timing_refusal): every dead
        # time, start, ceiling and attempt prefix is an exact integer in
        # the solver dtype.
        w.iepf = np.empty((S, n), dtype=w.workf)
        w.ebf = np.empty((S, n), dtype=w.workf)
        w.dead = np.empty((S, n), dtype=w.workf)
        w.tmpf = np.empty((S, n), dtype=w.workf)
        w.attb = np.empty((S, n), dtype=w.workf)
        w.start = np.empty((S, n), dtype=w.workf)
        # Per-row reductions.
        w.idle = np.empty(S, dtype=np.int64)
        w.ne = np.empty(S, dtype=np.int64)
        w.eus = np.empty(S, dtype=np.float64)
        w.ovh = np.empty(S, dtype=np.float64)
        # Pair-space scratch (contiguous halves: ``w.xi[:, :P]`` views are
        # ufunc *inputs* only, never raveled out-targets).
        w.cands = np.empty((S, max(P, 1)), dtype=np.int64)[:, :P]
        w.down = np.empty((S, P), dtype=np.int64)
        w.up = np.empty((S, P), dtype=np.int64)
        w.pi = np.empty((S, P), dtype=np.int64)
        w.pi2 = np.empty((S, P), dtype=np.int64)
        w.vs = np.empty((S, P), dtype=np.int64)
        w.vs2 = np.empty((S, P), dtype=np.int64)
        w.bmin = np.empty((S, P), dtype=np.int64)
        w.bmax = np.empty((S, P), dtype=np.int64)
        w.cl = np.empty((S, 2 * P), dtype=np.int64)
        w.clflat = np.empty((S, 2 * P), dtype=np.int64)
        w.ac = np.empty((S, 2 * P), dtype=np.int64)
        w.acb = np.empty((S, 2 * P), dtype=bool)
        w.relc = np.empty((S, 2 * P), dtype=np.float64)
        w.dc = np.empty((S, 2 * P), dtype=np.float64)
        w.xib = np.empty((S, 2 * P), dtype=bool)
        w.xi = np.empty((S, 2 * P), dtype=np.int64)
        w.cd = np.empty((S, P), dtype=bool)
        w.cu = np.empty((S, P), dtype=bool)
        w.cc = np.empty((S, P), dtype=bool)
        w.empty_pairs = np.zeros((S, 0), dtype=np.int64)
        w.rel_flat = np.ascontiguousarray(
            np.broadcast_to(self._reliabilities, (S, n)), dtype=np.float64
        ).ravel()
        if perf.counters.enabled:
            perf.counters.alloc("kernel.dp.bind_workspace", 50)
        self._ws = w

    def _alloc_dp_ws_inc(self) -> None:
        """Workspace for the sparse incremental DP path (see
        :meth:`_run_interval_inc`).

        Deliberately *not* built on :meth:`_alloc_common_ws`: the dense
        solver's (n, n) prefix-sum mask and (S, n, A) compare cube are
        exactly the quadratic footprint this path exists to avoid.  The
        block scratch here is ``(S, K)`` with ``K = min(n,
        max_transmissions + 1)`` — the largest number of links that can
        possibly receive attempts in one interval plus the marginal
        starved one — so memory and per-interval math scale with the
        attempt budget, not the network size.
        """
        S, n = self.num_seeds, self.spec.num_links
        A = self._a_max
        workf = self._channel_draws.dtype
        K = min(n, self._budget + 1)
        self._inc_k = K
        self._inc_small = K >= n
        w = SimpleNamespace()
        w.workf = workf
        w.row_off = (np.arange(S, dtype=np.int64) * n)[:, None]
        w.row_off_m1 = w.row_off - 1
        w.link_plane = np.tile(np.arange(n, dtype=np.int64), (S, 1))
        w.tmpi = np.empty((S, n), dtype=np.int64)
        # The persistent sparse priority state: the inverse permutation
        # (priority position -> link), built once here by scatter and
        # afterwards maintained only by the O(commits) writes of the swap
        # commit — never rebuilt from sigma again.
        w.inv = np.empty((S, n), dtype=np.int64)
        np.add(self._sigma, w.row_off_m1, out=w.tmpi)
        w.inv.ravel()[w.tmpi.ravel()] = w.link_plane.ravel()
        # Persistent outcome planes.  Only entries named by the previous
        # interval's serve set (``prev_links``) can be nonzero, so each
        # interval zeroes those K entries instead of the whole plane.
        w.delivered = np.zeros((S, n), dtype=np.int64)
        w.attempts_i = np.zeros((S, n), dtype=np.int64)
        w.prev_links = np.zeros((S, K), dtype=np.int64)
        w.pfscr = np.empty((S, K), dtype=np.int64)
        # Serve-set selection scratch.  Small networks (K >= n) keep the
        # dense path's "copy inv + O(S) candidate fix-ups" order build;
        # large ones select the K lowest backlogged positions.
        if self._inc_small:
            w.order = np.empty((S, n), dtype=np.int64)
        else:
            w.posm = np.empty((S, n), dtype=np.int64)
            w.maskn = np.empty((S, n), dtype=bool)
            w.pflat = np.empty((S, K), dtype=np.int64)
            w.posk_un = np.empty((S, K), dtype=np.int64)
            w.posk = np.empty((S, K), dtype=np.int64)
            w.oflatk = np.empty((S, K), dtype=np.int64)
            w.row_off_k = (np.arange(S, dtype=np.int64) * K)[:, None]
        w.sel_flat = np.empty((S, K), dtype=np.int64)
        # (S, K) block scratch for the closed-form timeline.
        w.blk = np.empty((S, K), dtype=np.int64)
        w.tmpk_i = np.empty((S, K), dtype=np.int64)
        w.idx3 = np.empty((S, K), dtype=np.int64)
        w.delk = np.empty((S, K), dtype=np.int64)
        w.uki = np.empty((S, K), dtype=np.int64)
        w.bk = np.empty((S, K), dtype=np.int64)
        w.bki = np.empty((S, K), dtype=np.int64)
        w.ek = np.empty((S, K), dtype=np.int64)
        w.totk = np.empty((S, K), dtype=workf)
        w.cumk = np.empty((S, K), dtype=workf)
        w.budk = np.empty((S, K), dtype=workf)
        w.uk = np.empty((S, K), dtype=workf)
        w.uksel = np.empty((S, K), dtype=workf)
        w.countk = np.empty((S, K), dtype=workf)
        w.capk = np.empty((S, K), dtype=workf)
        w.deadk = np.empty((S, K), dtype=workf)
        w.tmpk = np.empty((S, K), dtype=workf)
        w.boolk = np.empty((S, K), dtype=bool)
        w.boolk2 = np.empty((S, K), dtype=bool)
        w.boolk3 = np.empty((S, K), dtype=bool)
        w.boolk4 = np.empty((S, K), dtype=bool)
        w.needk2 = np.empty((S * K, A), dtype=workf)
        w.needk3 = w.needk2.reshape(S, K, A)
        w.cmpk2 = np.empty((S * K, A), dtype=workf)
        w.cmpk3 = w.cmpk2.reshape(S, K, A)
        w.ones_k = np.ones(K, dtype=workf)
        w.ones_af = np.ones(A, dtype=workf)
        # Lazy channel draws: refills stop transforming the whole
        # (depth, S, N, A) block; this path transforms only the (S, K, A)
        # serve-set rows it gathers each interval.
        self._channel_draws.set_lazy()
        w.chan_scale = self._channel_draws.scale_rows(S)
        w.scalek = np.empty((S * K, 1), dtype=workf)
        w.skoff = (np.arange(S * K, dtype=np.int64) * A).reshape(S, K)
        # Pair scratch — same shapes as the dense path (P == 1 here).
        w.cands = np.empty((S, 1), dtype=np.int64)
        w.candm1 = np.empty((S, 1), dtype=np.int64)
        w.pi = np.empty((S, 1), dtype=np.int64)
        w.pi2 = np.empty((S, 1), dtype=np.int64)
        w.down = np.empty((S, 1), dtype=np.int64)
        w.up = np.empty((S, 1), dtype=np.int64)
        w.vs = np.empty((S, 1), dtype=np.int64)
        w.vs2 = np.empty((S, 1), dtype=np.int64)
        w.bmin = np.empty((S, 1), dtype=np.int64)
        w.bmax = np.empty((S, 1), dtype=np.int64)
        w.cl = np.empty((S, 2), dtype=np.int64)
        w.clflat = np.empty((S, 2), dtype=np.int64)
        w.ac = np.empty((S, 2), dtype=np.int64)
        w.acb = np.empty((S, 2), dtype=bool)
        w.relc = np.empty((S, 2), dtype=np.float64)
        w.dc = np.empty((S, 2), dtype=np.float64)
        w.xib = np.empty((S, 2), dtype=bool)
        w.xi = np.empty((S, 2), dtype=np.int64)
        w.cd = np.empty((S, 1), dtype=bool)
        w.cc = np.empty((S, 1), dtype=bool)
        w.wa = np.empty(S, dtype=bool)
        w.wb = np.empty(S, dtype=bool)
        # Per-row scalars of the candidate columns.
        w.att_tot_f = np.empty(S, dtype=workf)
        w.att_a = np.empty(S, dtype=workf)
        w.ua = np.empty(S, dtype=workf)
        w.att_b = np.empty(S, dtype=workf)
        w.start_a = np.empty(S, dtype=np.float64)
        w.start_b = np.empty(S, dtype=np.float64)
        w.tmps = np.empty(S, dtype=np.float64)
        w.fits_a = np.empty(S, dtype=bool)
        w.fits_b = np.empty(S, dtype=bool)
        w.txa = np.empty(S, dtype=bool)
        w.ne = np.empty(S, dtype=np.int64)
        w.idle = np.empty(S, dtype=np.int64)
        w.tmpi_s = np.empty(S, dtype=np.int64)
        w.eus = np.empty(S, dtype=np.float64)
        w.busy = np.empty(S, dtype=np.float64)
        w.ovh = np.empty(S, dtype=np.float64)
        w.zeroi = np.zeros(S, dtype=np.int64)
        w.rel_flat = np.ascontiguousarray(
            np.broadcast_to(self._reliabilities, (S, n)), dtype=np.float64
        ).ravel()
        if perf.counters.enabled:
            perf.counters.alloc("kernel.dp.bind_workspace", 60)
        self._ws = w

    def _run_interval_inc(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: BatchRngBundle,
    ) -> BatchIntervalOutcome:
        """One DP interval on the incrementally maintained sparse state.

        Same draws, same arithmetic, same outcomes as the dense
        :meth:`_run_interval_ws` — proven bit-identical in
        ``tests/sim/test_incremental_dp.py`` — but the per-interval work
        is reshaped around what one interval can actually change:

        * the inverse permutation persists in the workspace; the commit
          applies the accepted adjacent swap with O(commits) element
          writes instead of re-deriving the order from sigma (O(S*N));
        * only the serve set — the first ``K = min(n, budget + 1)``
          backlogged links in priority order, which provably covers every
          link that can receive an attempt — enters the timeline solve,
          so the block math is ``(S, K)`` instead of the dense solver's
          ``(S, N)`` planes and (n, n)/(S, N, A) products;
        * the two candidate positions (the only ones with data-dependent
          backoffs or empty claims) are handled by per-row scalar
          columns, which is what makes the serve-set reduction exact.

        Outcome planes persist across intervals with sparse zeroing of
        the previous serve set, so no O(S*N) fill appears anywhere in the
        steady-state loop (the dense path's per-interval ``sigma.copy()``
        for the outcome remains, and is skipped in lite mode).
        """
        w = self._ws
        counters = perf.counters
        S, n = arrivals.shape
        T, air, empty_air, slot = self._units
        lite = self._lite
        sigma = self._sigma
        sigma_out = None if lite else sigma.copy()
        K = self._inc_k
        if counters.enabled:
            t0 = perf.clock()

        # -- setup: candidate pair, coins, backoffs (all O(S)) -------------
        cands = self._draw_candidates(rng)
        np.add(cands, w.row_off, out=w.pi2)
        np.subtract(w.pi2, 1, out=w.pi)
        inv_flat = w.inv.ravel()
        inv_flat.take(w.pi.ravel(), out=w.down.ravel())
        inv_flat.take(w.pi2.ravel(), out=w.up.ravel())
        w.cl[:, :1] = w.down
        w.cl[:, 1:] = w.up
        np.add(w.cl, w.row_off, out=w.clflat)
        clflat = w.clflat.ravel()
        w.rel_flat.take(clflat, out=w.relc.ravel())
        positive_debts.ravel().take(clflat, out=w.dc.ravel())
        mu = self._active_bias.mu_batch(w.cl, w.dc, w.relc)
        if not (mu.min() > 0.0 and mu.max() < 1.0):
            raise ValueError(
                "swap bias returned mu outside (0, 1); Algorithm 2 "
                "requires a non-degenerate coin"
            )
        coins = self._coin_draws.next(self._kstream(rng, "policy"))
        np.less(coins, mu, out=w.xib)
        np.multiply(w.xib, 2, out=w.xi)
        np.subtract(w.xi, 1, out=w.xi)
        arrivals.ravel().take(clflat, out=w.ac.ravel())
        np.equal(w.ac, 0, out=w.acb)
        np.logical_not(w.xib[:, :1], out=w.cd)
        np.logical_and(w.cd, w.xib[:, 1:], out=w.cc)
        rc = np.flatnonzero(w.cc[:, 0])
        cdx = cands[rc, 0]
        cdm1 = cdx - 1
        np.subtract(cands, w.xi[:, :1], out=w.vs)
        np.subtract(cands, w.xi[:, 1:], out=w.vs2)
        np.add(w.vs2, 1, out=w.vs2)
        np.minimum(w.vs, w.vs2, out=w.bmin)
        np.maximum(w.vs, w.vs2, out=w.bmax)
        np.subtract(cands, 1, out=w.candm1)
        # Wants-empty by *position*: position c-1 holds the down-link
        # normally and the up-link on commit-coin rows, position c the
        # other one (exactly the dense path's iep fix-ups).
        np.copyto(w.wa, w.acb[:, 0])
        np.copyto(w.wb, w.acb[:, 1])
        if rc.size:
            w.wa[rc] = w.acb[rc, 1]
            w.wb[rc] = w.acb[rc, 0]
        needed = self._channel_draws.next(
            self._kstream(rng, "channel"), self._chan_rng(rng)
        )
        if counters.enabled:
            counters.add("kernel.dp.setup", perf.clock() - t0)
            t0 = perf.clock()

        inc_allocs = 0
        # -- incremental: sparse zeroing + serve-set selection ---------
        # Zero the entries the *previous* interval touched (its serve
        # set), then select this interval's serve set: the K lowest
        # backlogged priority positions, with the candidate pair's
        # position fix-ups applied on commit-coin rows.
        np.add(w.prev_links, w.row_off, out=w.pfscr)
        w.delivered.ravel()[w.pfscr.ravel()] = 0
        if not lite:
            w.attempts_i.ravel()[w.pfscr.ravel()] = 0
        if self._inc_small:
            order = w.order
            np.copyto(order, w.inv)
            if rc.size:
                order[rc, cdm1] = w.up[rc, 0]
                order[rc, cdx] = w.down[rc, 0]
            np.add(order, w.row_off, out=w.sel_flat)
            posk = w.link_plane
        else:
            np.subtract(sigma, 1, out=w.posm)
            if rc.size:
                w.posm[rc, w.down[rc, 0]] = cdx
                w.posm[rc, w.up[rc, 0]] = cdm1
            np.equal(arrivals, 0, out=w.maskn)
            np.copyto(w.posm, n, where=w.maskn)
            # The K smallest positions (argpartition), then sorted into
            # service order; np.argpartition/argsort have no out=
            # variant, so these are the path's two accepted per-interval
            # allocations (reported via the stage's alloc count).
            part = np.argpartition(w.posm, K - 1, axis=1)[:, :K]
            np.add(part, w.row_off, out=w.pflat)
            w.posm.ravel().take(w.pflat.ravel(), out=w.posk_un.ravel())
            ordk = np.argsort(w.posk_un, axis=1)
            np.add(ordk, w.row_off_k, out=w.oflatk)
            w.posk_un.ravel().take(w.oflatk.ravel(), out=w.posk.ravel())
            w.pflat.ravel().take(w.oflatk.ravel(), out=w.sel_flat.ravel())
            posk = w.posk
            inc_allocs = 2
        np.subtract(w.sel_flat, w.row_off, out=w.prev_links)
        if counters.enabled:
            counters.add("kernel.dp.incremental", perf.clock() - t0, inc_allocs)
            t0 = perf.clock()

        # -- timeline ------------------------------------------------------
        active = bool(arrivals.any())
        if active:
            arrivals.ravel().take(w.sel_flat.ravel(), out=w.blk.ravel())
            # Per-link drain totals, gathered only for the serve set.
            np.subtract(w.blk, 1, out=w.tmpk_i)
            np.maximum(w.tmpk_i, 0, out=w.tmpk_i)
            # Raw draws: gather the serve-set rows first, then apply the
            # scale/ceil/cumsum transform to just the (S, K, A) block —
            # same element order and arithmetic as the eager whole-block
            # transform, so the values are bit-identical.
            needed.reshape(S * n, -1).take(
                w.sel_flat.ravel(), axis=0, out=w.needk2
            )
            w.chan_scale.ravel().take(w.sel_flat.ravel(), out=w.scalek.ravel())
            np.multiply(w.needk2, w.scalek, out=w.needk2)
            np.ceil(w.needk2, out=w.needk2)
            np.maximum(w.needk2, 1.0, out=w.needk2)
            np.cumsum(w.needk2, axis=1, out=w.needk2)
            np.add(w.skoff, w.tmpk_i, out=w.idx3)
            w.needk2.ravel().take(w.idx3.ravel(), out=w.totk.ravel())
            np.greater(w.blk, 0, out=w.boolk)
            np.multiply(w.totk, w.boolk, out=w.totk)
            # Backoff staircase by position: j below the pair, j + 2
            # above it, the candidate pair's own backoffs in between.
            np.greater(posk, cands, out=w.boolk2)
            np.multiply(w.boolk2, 2, out=w.bk)
            np.add(w.bk, posk, out=w.bk)
            np.equal(posk, w.candm1, out=w.boolk3)
            np.copyto(w.bk, w.bmin, where=w.boolk3)
            np.equal(posk, cands, out=w.boolk4)
            np.copyto(w.bk, w.bmax, where=w.boolk4)
            # Empties *wanted* before each position: wa counts past
            # position c-1, wb past position c (the dense iep prefix).
            np.greater(posk, w.candm1, out=w.boolk3)
            np.logical_and(w.boolk3, w.wa[:, None], out=w.boolk3)
            np.greater(posk, cands, out=w.boolk4)
            np.logical_and(w.boolk4, w.wb[:, None], out=w.boolk4)
            np.copyto(w.ek, w.boolk3, casting="unsafe")
            np.add(w.ek, w.boolk4, out=w.ek)
            # Attempt ceilings (same divide/floor as dense).
            np.multiply(w.bk, slot, out=w.deadk)
            np.multiply(w.ek, empty_air, out=w.tmpk)
            np.add(w.deadk, w.tmpk, out=w.deadk)
            np.subtract(T, w.deadk, out=w.deadk)
            np.divide(w.deadk, air, out=w.capk)
            np.floor(w.capk, out=w.capk)
            np.cumsum(w.totk, axis=1, out=w.cumk)
            np.subtract(w.cumk, w.totk, out=w.cumk)  # exclusive prefix
            np.subtract(w.capk, w.cumk, out=w.budk)
            np.minimum(w.budk, w.totk, out=w.uk)
            np.maximum(w.uk, 0, out=w.uk)
            # Delivered counts off the serve set's draw rows only
            # (already gathered and transformed above).
            np.less_equal(
                w.needk3, w.budk[:, :, None], out=w.cmpk3,
                casting="unsafe",
            )
            np.matmul(w.cmpk2, w.ones_af, out=w.countk.ravel())
            np.copyto(w.delk, w.countk, casting="unsafe")
            np.minimum(w.delk, w.blk, out=w.delk)
            w.delivered.ravel()[w.sel_flat.ravel()] = w.delk.ravel()
            if not lite:
                np.copyto(w.uki, w.uk, casting="unsafe")
                w.attempts_i.ravel()[w.sel_flat.ravel()] = w.uki.ravel()
            np.greater(w.uk, 0, out=w.boolk)
            np.multiply(w.bk, w.boolk, out=w.bki)
            w.bki.max(axis=1, out=w.idle)
            np.matmul(w.uk, w.ones_k, out=w.att_tot_f)
            np.less(posk, w.candm1, out=w.boolk2)
            np.multiply(w.uk, w.boolk2, out=w.uksel)
            np.matmul(w.uksel, w.ones_k, out=w.att_a)
            np.equal(posk, w.candm1, out=w.boolk2)
            np.multiply(w.uk, w.boolk2, out=w.uksel)
            np.matmul(w.uksel, w.ones_k, out=w.ua)
        else:
            # Whole stack idle: draws were consumed, nothing transmits
            # data; candidate empty claims are still resolved below.
            w.att_tot_f.fill(0)
            w.att_a.fill(0)
            w.ua.fill(0)
            w.idle.fill(0)
        np.add(w.att_a, w.ua, out=w.att_b)
        # Candidate service starts with every wanted claim counted as
        # aired (see timing_refusal), then the fit check (dense
        # semantics verbatim).
        np.multiply(w.att_a, air, out=w.start_a)
        np.multiply(w.bmin[:, 0], slot, out=w.tmps)
        np.add(w.start_a, w.tmps, out=w.start_a)
        np.multiply(w.att_b, air, out=w.start_b)
        np.multiply(w.bmax[:, 0], slot, out=w.tmps)
        np.add(w.start_b, w.tmps, out=w.start_b)
        np.multiply(w.wa, empty_air, out=w.tmps)
        np.add(w.start_b, w.tmps, out=w.start_b)
        if empty_air > 0:
            np.less_equal(w.start_a, T - empty_air, out=w.fits_a)
            np.less_equal(w.start_b, T - empty_air, out=w.fits_b)
        else:
            np.less(w.start_a, T, out=w.fits_a)
            np.less(w.start_b, T, out=w.fits_b)
        np.logical_and(w.fits_a, w.wa, out=w.fits_a)
        np.logical_and(w.fits_b, w.wb, out=w.fits_b)
        np.greater(w.ua, 0, out=w.txa)
        np.logical_or(w.txa, w.fits_a, out=w.txa)
        np.copyto(w.ne, w.fits_a, casting="unsafe")
        np.add(w.ne, w.fits_b, out=w.ne)
        # Fitting empty claims also count as transmissions for the
        # idle-slot bound (dense: tx = attempts | fits by position).
        np.multiply(w.bmin[:, 0], w.fits_a, out=w.tmpi_s)
        np.maximum(w.idle, w.tmpi_s, out=w.idle)
        np.multiply(w.bmax[:, 0], w.fits_b, out=w.tmpi_s)
        np.maximum(w.idle, w.tmpi_s, out=w.idle)
        np.copyto(w.busy, w.att_tot_f)
        np.multiply(w.busy, self._data_air, out=w.busy)
        np.multiply(w.ne, self._empty_air, out=w.eus)
        np.add(w.busy, w.eus, out=w.busy)
        np.multiply(w.idle, self._slot, out=w.ovh)
        np.add(w.ovh, w.eus, out=w.ovh)
        if counters.enabled:
            counters.add("kernel.dp.timeline", perf.clock() - t0)
            t0 = perf.clock()

        # -- commit: O(commits) upkeep of sigma AND the persistent inverse -
        if rc.size:
            live = w.txa[rc] & (w.start_a[rc] + air <= T)
            rcc = rc[live]
            if rcc.size:
                csel = cands[rcc, 0]
                dl = w.down[rcc, 0]
                ul = w.up[rcc, 0]
                sigma[rcc, dl] = csel + 1
                sigma[rcc, ul] = csel
                w.inv[rcc, csel - 1] = ul
                w.inv[rcc, csel] = dl
        if counters.enabled:
            counters.add("kernel.dp.commit", perf.clock() - t0)
        return BatchIntervalOutcome(
            deliveries=w.delivered if lite else w.delivered.copy(),
            attempts=None if lite else w.attempts_i.copy(),
            busy_time_us=w.busy if lite else w.busy.copy(),
            overhead_time_us=w.ovh if lite else w.ovh.copy(),
            collisions=w.zeroi,
            priorities=sigma_out,
        )

    def _draw_sources(self) -> tuple:
        return (self._channel_draws, self._coin_draws, self._cand_draws)

    @property
    def priorities(self) -> np.ndarray:
        """Current ``(S, N)`` priority stack (sigma per replication)."""
        if self._clones:
            return np.asarray([c.priorities for c in self._clones], dtype=np.int64)
        return self._sigma.copy()

    def _draw_candidates(self, rng: BatchRngBundle) -> np.ndarray:
        """``(S, P)`` sorted non-consecutive candidate indices per row.

        A single pair's index comes straight from ``_cand_draws``: the
        ``1 + argmax`` of an ``(S, n-1)`` uniform slice, or under
        ``rng="free"`` a direct integer block (:class:`_ChunkedIntegers`)
        — same uniform-on-``{1..n-1}`` distribution, a fraction of the
        generated randomness.  Both priority-state paths draw through
        here, so they consume identical generator values in identical
        order.
        """
        draws = self._cand_draws.next(self._kstream(rng, "shared"))
        if self.num_pairs == 1:
            np.copyto(self._ws.cands[:, 0], draws)
            return self._ws.cands
        # Gap bijection (see draw_candidate_indices): uniform P-subsets of
        # [1, M] with M = (n - 1) - (P - 1), then shift the i-th smallest
        # by i.  The subset comes from the first P slots of a uniform
        # permutation (argsort of i.i.d. uniforms).
        P = self.num_pairs
        subset = np.sort(np.argsort(draws, axis=1)[:, :P] + 1, axis=1)
        return subset + self._pair_idx

    def _run_interval_ws(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: BatchRngBundle,
    ) -> BatchIntervalOutcome:
        """One DP interval over the bound workspace.

        Step 1: shared randomness picks the candidate priority indices.
        Step 2: candidates without arrivals claim with empty packets.
        Step 3: biased local coins for both candidates of each pair.
        Step 4: collision-free backoffs (candidate pair ``i`` works in a
        band shifted by ``2i``; non-candidates shift by the pairs below).
        Steps 5-6: the interval timeline — service order is backoff
        order, and each position's attempt ceiling is set by its backoff
        slots plus the empty packets transmitted before it — then the
        swap commit of Eqs. (7)-(8).

        Every (S, n)-sized intermediate lands in a preallocated buffer
        via ``out=`` ufuncs / flat ``np.take`` gathers, the inverse
        priority permutation comes from a scatter instead of an argsort,
        and the ordered-service solver and swap commit are
        short-circuited when provably idle.
        """
        if self._use_inc:
            return self._run_interval_inc(k, arrivals, positive_debts, rng)
        w = self._ws
        counters = perf.counters
        S, n = arrivals.shape
        rows = self._rows
        T, air, empty_air, slot = self._units
        lite = self._lite
        sigma = self._sigma
        sigma_out = None if lite else sigma.copy()
        if counters.enabled:
            t0 = perf.clock()

        if n >= 2:
            cands = self._draw_candidates(rng)
            P = cands.shape[1]
            # Inverse permutation by scatter (sigma is a permutation of
            # 1..n, so this equals argsort(sigma)).
            np.add(sigma, w.row_off_m1, out=w.tmpi)
            w.inv.ravel()[w.tmpi.ravel()] = w.link_plane.ravel()
            np.add(cands, w.row_off, out=w.pi2)
            np.subtract(w.pi2, 1, out=w.pi)
            inv_flat = w.inv.ravel()
            inv_flat.take(w.pi.ravel(), out=w.down.ravel())
            inv_flat.take(w.pi2.ravel(), out=w.up.ravel())
            w.cl[:, :P] = w.down
            w.cl[:, P:] = w.up
            np.add(w.cl, w.row_off, out=w.clflat)
            clflat = w.clflat.ravel()
            w.rel_flat.take(clflat, out=w.relc.ravel())
            positive_debts.ravel().take(clflat, out=w.dc.ravel())
            mu = self._active_bias.mu_batch(w.cl, w.dc, w.relc)
            if not (mu.min() > 0.0 and mu.max() < 1.0):
                raise ValueError(
                    "swap bias returned mu outside (0, 1); Algorithm 2 "
                    "requires a non-degenerate coin"
                )
            coins = self._coin_draws.next(self._kstream(rng, "policy"))
            np.less(coins, mu, out=w.xib)
            np.multiply(w.xib, 2, out=w.xi)
            np.subtract(w.xi, 1, out=w.xi)
            xi_down = w.xi[:, :P]
            xi_up = w.xi[:, P:]
            arrivals.ravel().take(w.clflat.ravel(), out=w.ac.ravel())
            np.equal(w.ac, 0, out=w.acb)
        else:
            P = 0
            cands = w.empty_pairs
            xi_down = xi_up = cands

        rc = cdm1 = None
        if P == 1:
            # Single pair (the paper's protocol): the service order and
            # its backoff staircase have closed forms, so the backoff
            # argsort collapses into an inv copy plus O(S) fix-ups.
            # Non-candidates keep priority order with backoff p - 1
            # (below the pair) or p + 1 (above it); the candidates land
            # in positions c-1 and c with backoffs c - xi_down and
            # c + 1 - xi_up, which orders down before up except when
            # both coins point "swap" (xi_down = -1, xi_up = +1) —
            # exactly the commit-coin condition.
            np.logical_not(w.xib[:, :1], out=w.cd)
            np.logical_and(w.cd, w.xib[:, 1:], out=w.cc)
            order = w.order
            np.copyto(order, w.inv)
            rc = np.flatnonzero(w.cc[:, 0])
            cdx = cands[rc, 0]
            cdm1 = cdx - 1
            if rc.size:
                order[rc, cdm1] = w.up[rc, 0]
                order[rc, cdx] = w.down[rc, 0]
            # Backoff by position: j below the pair, j + 2 above it,
            # min/max of the two candidate backoffs in between (w.pi /
            # w.pi2 are the flat indices of positions c-1 and c).
            w.bpos_tab.take(cands[:, 0], axis=0, out=w.bpos)
            np.subtract(cands, xi_down, out=w.vs)
            np.subtract(cands, xi_up, out=w.vs2)
            np.add(w.vs2, 1, out=w.vs2)
            np.minimum(w.vs, w.vs2, out=w.bmin)
            np.maximum(w.vs, w.vs2, out=w.bmax)
            w.bpos.ravel()[w.pi.ravel()] = w.bmin.ravel()
            w.bpos.ravel()[w.pi2.ravel()] = w.bmax.ravel()
            # Only candidates may claim with empty packets; they sit in
            # positions c-1 (down) and c (up), swapped on commit rows.
            w.iep.fill(False)
            w.iep.ravel()[w.pi.ravel()] = w.acb[:, 0]
            w.iep.ravel()[w.pi2.ravel()] = w.acb[:, 1]
            if rc.size:
                w.iep[rc, cdm1] = w.acb[rc, 1]
                w.iep[rc, cdx] = w.acb[rc, 0]
            np.add(order, w.row_off, out=w.oflat)
        else:
            # Multi-pair (Remark 6) and degenerate stacks are off the
            # benchmark path: service order is the argsort of backoffs.
            if P:
                pairs_below = (
                    cands[:, None, :] + 1 < sigma[:, :, None]
                ).sum(axis=2, dtype=np.int64)
                np.multiply(pairs_below, 2, out=w.backoff)
                np.add(w.backoff, sigma, out=w.backoff)
                np.subtract(w.backoff, 1, out=w.backoff)
                w.backoff[rows, w.down] = cands - xi_down + 2 * self._pair_idx
                w.backoff[rows, w.up] = cands + 1 - xi_up + 2 * self._pair_idx
                w.we.fill(False)
                w.we.ravel()[w.clflat.ravel()] = w.acb.ravel()
            else:
                np.subtract(sigma, 1, out=w.backoff)
                w.we.fill(False)
            order = np.argsort(w.backoff, axis=1)
            np.add(order, w.row_off, out=w.oflat)
            w.backoff.ravel().take(w.oflat.ravel(), out=w.bpos.ravel())
            w.we.ravel().take(w.oflat.ravel(), out=w.iep.ravel())
        oflat = w.oflat.ravel()
        needed = self._channel_draws.next(
            self._kstream(rng, "channel"), self._chan_rng(rng)
        )
        if counters.enabled:
            counters.add("kernel.dp.setup", perf.clock() - t0)
            t0 = perf.clock()

        # Exclusive prefix sums land as one small matmul against a
        # strict upper-triangular mask — bit-exact on these
        # integer-valued floats and faster than cumsum's short-row
        # scan at benchmark shapes.
        np.copyto(w.iepf, w.iep, casting="unsafe")
        np.matmul(w.iepf, w.mexcl, out=w.ebf)  # empties before
        np.multiply(w.bpos, slot, out=w.dead)
        np.multiply(w.ebf, empty_air, out=w.tmpf)
        np.add(w.dead, w.tmpf, out=w.dead)
        np.subtract(T, w.dead, out=w.tmpf)
        # floor(x / air) by divide + floor, straight into the solver
        # dtype: exact on integer units (see timing_refusal).
        np.divide(w.tmpf, air, out=w.caps_f)
        np.floor(w.caps_f, out=w.caps_f)
        if arrivals.any():
            self._serve_ordered_ws(w, arrivals, needed)
        else:
            # Whole stack idle: skip the solver, nothing transmits
            # data (empty claims are still resolved below).
            w.att_pos.fill(0)
            w.delivered.fill(0)
        np.matmul(w.att_pos, w.mexcl, out=w.attb)  # attempts before
        np.multiply(w.attb, air, out=w.start)
        np.add(w.start, w.dead, out=w.start)
        # start + empty_air <= T rewritten against the precomputed
        # bound T - empty_air: same exact-integer comparison, one
        # whole-plane add saved per interval.
        if empty_air > 0:
            np.less_equal(w.start, T - empty_air, out=w.fits)
        else:
            np.less(w.start, T, out=w.fits)
        np.logical_and(w.fits, w.iep, out=w.fits)
        np.matmul(w.att_pos, w.ones_wf, out=w.busyf)
        # Multiply in float64: a float32 product rounds airtimes like 0.4 us.
        np.copyto(w.busy, w.busyf)
        np.multiply(w.busy, self._data_air, out=w.busy)
        np.greater(w.att_pos, 0, out=w.tx)
        np.logical_or(w.tx, w.fits, out=w.tx)
        np.multiply(w.bpos, w.tx, out=w.tmpi2)
        w.tmpi2.max(axis=1, out=w.idle)
        np.sum(w.fits, axis=1, out=w.ne)
        np.multiply(w.ne, self._empty_air, out=w.eus)
        np.add(w.busy, w.eus, out=w.busy)
        np.multiply(w.idle, self._slot, out=w.ovh)
        np.add(w.ovh, w.eus, out=w.ovh)
        if counters.enabled:
            counters.add("kernel.dp.timeline", perf.clock() - t0)
            t0 = perf.clock()

        if P == 1:
            if rc.size:
                # Commit is confined to the rows where both coins said
                # "swap" (w.cc, computed during setup) — and on those
                # rows the up-link was served at position c - 1, so the
                # transmission test is two tiny gathers.  The in-place
                # sigma writes touch committed entries only.
                live = w.tx[rc, cdm1] & (w.start[rc, cdm1] + air <= T)
                rcc = rc[live]
                if rcc.size:
                    csel = cands[rcc, 0]
                    sigma[rcc, w.down[rcc, 0]] = csel + 1
                    sigma[rcc, w.up[rcc, 0]] = csel
        elif P:
            np.equal(xi_down, -1, out=w.cd)
            np.equal(xi_up, 1, out=w.cu)
            np.logical_and(w.cd, w.cu, out=w.cc)
            if w.cc.any():
                # A pair can only swap when both coins point "swap"; only
                # then is the transmission state worth gathering.  The
                # in-place sigma writes below touch committed entries
                # only (a non-committed pair keeps the values sigma
                # already holds).
                w.posn.ravel()[oflat] = w.link_plane.ravel()
                up_pos = w.posn[rows, w.up]
                committed = (
                    w.cc
                    & w.tx[rows, up_pos]
                    & (w.start[rows, up_pos] + air <= T)
                )
                rcp, pc = np.nonzero(committed)
                if rcp.size:
                    csel = cands[rcp, pc]
                    sigma[rcp, w.down[rcp, pc]] = csel + 1
                    sigma[rcp, w.up[rcp, pc]] = csel

        if not lite:
            w.attempts_f.ravel()[oflat] = w.att_pos.ravel()
            np.copyto(w.attempts_i, w.attempts_f, casting="unsafe")
        if counters.enabled:
            counters.add("kernel.dp.commit", perf.clock() - t0)
        return BatchIntervalOutcome(
            deliveries=w.delivered if lite else w.delivered.copy(),
            attempts=None if lite else w.attempts_i.copy(),
            busy_time_us=w.busy if lite else w.busy.copy(),
            overhead_time_us=w.ovh if lite else w.ovh.copy(),
            collisions=w.zeroi,
            priorities=sigma_out,
        )


def make_batch_kernel(policy: IntervalMac) -> BatchPolicyKernel:
    """Build the vectorized kernel for ``policy``; raises if unsupported.

    Dispatch is registry-driven: the policy's registered
    :class:`~repro.core.registry.PolicyDescriptor` names its kernel
    class, so new families plug in by registration instead of by
    extending a type switch here.
    """
    return registry.make_kernel(policy)


def has_batch_kernel(policy: IntervalMac) -> bool:
    """Whether :func:`make_batch_kernel` supports ``policy``."""
    return registry.has_kernel(policy)
