"""Random-stream management for reproducible simulations.

The DP protocol needs one *shared* random stream (Step 1 of Algorithm 2:
every device derives the same candidate index ``C(k)`` from a common seed,
e.g. coarse-synchronized system time) plus *local* streams per component
(arrivals, channel outcomes, per-link coin flips).  :class:`RngBundle`
derives all of them from one master seed via ``numpy.random.SeedSequence``
spawning, so any simulation is reproducible from a single integer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "RngBundle",
    "BatchRngBundle",
    "RowBlockStreams",
    "row_blocks",
    "draw_chunk_depth",
    "RNG_MODES",
    "normalize_rng_mode",
]

#: The three RNG disciplines a batch simulation can run under:
#:
#: * ``"sync"``  — per-seed scalar clone streams; bit-identical to the
#:   scalar engine (debug / cross-validation mode).
#: * ``"batch"`` — one vectorized stream per name over the whole stack;
#:   reproducible from the seed tuple, draws in lockstep with the shared
#:   scalar draw schedule (every kernel consumes the same block shapes,
#:   which keeps the dense and incremental DP-state paths bit-identical
#:   to each other).
#: * ``"free"``  — independently-derived per-(seed-tuple, stream)
#:   substreams where each kernel draws only what it actually consumes.
#:   Statistical equivalence with the other modes is the contract, not
#:   bit-identity (production throughput mode).
RNG_MODES = ("sync", "batch", "free")


def normalize_rng_mode(rng: Optional[str] = None) -> str:
    """Resolve an ``rng=`` argument to one of :data:`RNG_MODES`.

    ``None`` is the default lockstep ``"batch"`` discipline; names are
    case-insensitive and anything else raises ``ValueError``.
    """
    if rng is None:
        return "batch"
    mode = str(rng).lower()
    if mode not in RNG_MODES:
        raise ValueError(
            f"unknown rng mode {rng!r}; expected one of {RNG_MODES}"
        )
    return mode


#: Bytes per chunk for draw caches sized by :func:`draw_chunk_depth`.
#: Chunks are filled on a background thread while the kernel reads the
#: previous one, so depth buys nothing once the Generator call overhead
#: is amortized, and peak memory grows with it.  Measured over 1-16 MiB
#: on perfbench's ``topology-10k`` and ``large-n`` tasks
#: (docs/performance.md): 1 MiB was the slowest; 8-16 MiB ran
#: ``large-n`` up to 12 % faster than 4 MiB but raised both workloads'
#: peak memory, 16 MiB above what the old 64-deep chunks took.
_DRAW_CHUNK_BYTES = 4 << 20


def draw_chunk_depth(default: int = 64, interval_bytes: int = 0) -> int:
    """Chunk depth (intervals per chunk) for batch draw caches.

    ``REPRO_DRAW_CHUNK`` in the environment sets every depth.  Otherwise
    a cache that passes its per-interval size ``interval_bytes`` gets
    ``clamp(_DRAW_CHUNK_BYTES // interval_bytes, 1, default)``, and one
    that does not gets ``default``.

    Only caches whose values do not depend on the depth may pass
    ``interval_bytes``: those that fill a whole chunk with a *single*
    Generator call in interval order (channel retry draws via
    ``standard_exponential``, policy/shared uniforms via ``random``).
    A chunk of depth ``D`` consumes exactly ``D`` intervals' worth of
    the stream, so interval ``k`` reads the same generator values at any
    depth.  Arrival blocks are *not* such a cache — ``sample_batch`` of
    the bursty process makes two generator calls (uniforms, then
    integers) whose interleaving depends on the block size — and
    neither are ``Generator.integers`` blocks (bounded integers are
    drawn from 64-bit words whose unused half is dropped at the end of
    each call), so the byte rule never sizes those.
    """
    raw = os.environ.get("REPRO_DRAW_CHUNK", "")
    if not raw:
        if interval_bytes > 0:
            return max(1, min(int(default), _DRAW_CHUNK_BYTES // interval_bytes))
        return int(default)
    try:
        depth = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"REPRO_DRAW_CHUNK must be a positive integer, got {raw!r}"
        ) from exc
    if depth < 1:
        raise ValueError(
            f"REPRO_DRAW_CHUNK must be a positive integer, got {depth}"
        )
    return depth


class RngBundle:
    """Named, independent ``numpy.random.Generator`` streams from one seed.

    Streams are created lazily and deterministically: the stream named
    ``"channel"`` is the same generator sequence for a given master seed no
    matter how many other streams exist or in what order they were first
    requested (each name hashes to a fixed spawn key).
    """

    def __init__(self, seed: int):
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``."""
        if name not in self._streams:
            # Derive a per-name child seed from the master seed and a stable
            # hash of the name; SeedSequence mixes both into a full-entropy
            # state, so distinct names give independent streams.
            name_key = [ord(c) for c in name]
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=name_key)
            self._streams[name] = np.random.Generator(np.random.PCG64(seq))
        return self._streams[name]

    # Convenience accessors for the streams every simulation uses. ---------
    @property
    def arrivals(self) -> np.random.Generator:
        return self.stream("arrivals")

    @property
    def channel(self) -> np.random.Generator:
        return self.stream("channel")

    @property
    def policy(self) -> np.random.Generator:
        """Local policy randomness (per-link coin flips, backoff draws)."""
        return self.stream("policy")

    @property
    def shared(self) -> np.random.Generator:
        """The network-wide shared stream (candidate index ``C(k)``)."""
        return self.stream("shared")


class BatchRngBundle:
    """Random streams for a stack of ``S`` independent replications.

    Two families of streams coexist:

    * **Per-seed streams** (:attr:`bundles`, :meth:`per_seed`) — one
      :class:`RngBundle` per seed, constructed exactly as the scalar engine
      would.  Stream ``"channel"`` of seed ``s`` here is bit-identical to
      ``RngBundle(s).channel``, which is what makes scalar/batch
      cross-validation exact (the batch engine's ``rng="sync"`` mode draws
      from these in scalar consumption order).
    * **Batch streams** (:meth:`batch_stream`) — one generator per stream
      name that fills ``(S, ...)``-shaped arrays in single vectorized
      draws.  Its seed mixes the *whole* seed tuple, so a batch run is
      reproducible from the seed list, but individual slices are not meant
      to match any scalar stream.

    Batch stream names live in a ``"batch:"`` namespace so they can never
    collide with per-seed stream names.

    ``stream_tag`` shifts the whole batch-stream namespace: two bundles
    with the same seeds but different tags draw independent batch streams.
    The grid-fused sweep engine tags its mega-batches (``"fused"``) so a
    fused stack never replays the draws of a plain per-cell batch run that
    happens to share the same seed list — the two modes stay independent
    samples of the same distribution.  Per-seed bundles are unaffected by
    the tag (they must remain scalar-identical), and seeds may repeat: a
    fused stack has one row per (sweep cell, seed) pair, and each row gets
    its own scalar-identical :class:`RngBundle` exactly as the per-cell
    runner would construct it.

    ``stream_tag`` may also give one tag per row.  Consecutive rows that
    share a tag form a **row block**, and each block draws from the
    streams of ``BatchRngBundle(block_seeds, stream_tag=tag)`` — exactly
    what an independent run over those rows alone would draw.  The
    vectorized streams of a bundle with several blocks are then
    :class:`RowBlockStreams`; with one block the bundle is the same as
    passing that single tag.
    """

    def __init__(
        self,
        seeds: Sequence[int],
        stream_tag: Union[None, str, Sequence[Optional[str]]] = None,
    ):
        seeds = tuple(int(s) for s in seeds)
        if not seeds:
            raise ValueError("need at least one seed")
        self._seeds = seeds
        self._bundles = tuple(RngBundle(s) for s in seeds)
        self._streams: Dict[Tuple[str, str], object] = {}
        self._blocks: Tuple[Tuple[int, int, "BatchRngBundle"], ...] = ()
        if stream_tag is not None and not isinstance(stream_tag, str):
            tags = tuple(stream_tag)
            if len(tags) != len(seeds):
                raise ValueError(
                    f"{len(tags)} row stream tags for {len(seeds)} seeds"
                )
            starts = [0] + [
                i for i in range(1, len(tags)) if tags[i] != tags[i - 1]
            ]
            if len(starts) == 1:
                stream_tag = tags[0]
            else:
                bounds = zip(starts, starts[1:] + [len(tags)])
                self._blocks = tuple(
                    (lo, hi, BatchRngBundle(seeds[lo:hi], stream_tag=tags[lo]))
                    for lo, hi in bounds
                )
                stream_tag = tags
        self._stream_tag = stream_tag

    @property
    def seeds(self) -> Tuple[int, ...]:
        return self._seeds

    @property
    def num_seeds(self) -> int:
        return len(self._seeds)

    @property
    def bundles(self) -> Tuple[RngBundle, ...]:
        """The scalar-identical per-seed bundles (one per replication)."""
        return self._bundles

    def per_seed(self, name: str) -> Tuple[np.random.Generator, ...]:
        """The scalar-identical stream ``name`` of every seed, in order."""
        return tuple(b.stream(name) for b in self._bundles)

    @property
    def stream_tag(self):
        """The tag, or the per-row tag tuple when rows form several blocks."""
        return self._stream_tag

    @property
    def num_blocks(self) -> int:
        """How many row blocks draw from their own streams (at least 1)."""
        return max(1, len(self._blocks))

    def batch_stream(self, name: str):
        """One generator for vectorized ``(S, ...)`` draws of ``name``."""
        return self._vector_stream("batch", name)

    def free_stream(self, name: str):
        """One generator per stream name for the ``rng="free"`` discipline.

        Free streams use the same spawn-key derivation as
        :meth:`batch_stream` but live in a disjoint ``"free:"`` namespace,
        so a free-mode run never replays (or partially replays) the draws
        of a batch-mode run over the same seeds.  Kernels running free
        draw *only what they consume* from these substreams — block
        shapes, chunk depths, and per-interval consumption may all differ
        from the lockstep batch schedule, which is why free mode promises
        statistical equivalence rather than bit-identity.  Determinism is
        still exact: the stream is a pure function of (seed tuple,
        stream tag, name).
        """
        return self._vector_stream("free", name)

    def _vector_stream(self, kind: str, name: str):
        key = (kind, name)
        if key not in self._streams:
            if self._blocks:
                self._streams[key] = RowBlockStreams(
                    [(lo, hi) for lo, hi, _ in self._blocks],
                    [b._vector_stream(kind, name) for _, _, b in self._blocks],
                )
            else:
                namespace = f"{kind}:"
                if self._stream_tag is not None:
                    namespace = f"{kind}[{self._stream_tag}]:"
                seq = np.random.SeedSequence(
                    entropy=list(self._seeds),
                    spawn_key=[ord(c) for c in namespace + name],
                )
                self._streams[key] = np.random.Generator(np.random.PCG64(seq))
        return self._streams[key]

    # Convenience accessors mirroring :class:`RngBundle`. ------------------
    @property
    def arrivals(self) -> np.random.Generator:
        return self.batch_stream("arrivals")

    @property
    def channel(self) -> np.random.Generator:
        return self.batch_stream("channel")

    @property
    def policy(self) -> np.random.Generator:
        return self.batch_stream("policy")

    @property
    def shared(self) -> np.random.Generator:
        return self.batch_stream("shared")


class RowBlockStreams:
    """One vectorized stream per row block of a :class:`BatchRngBundle`.

    Stands in for a ``numpy.random.Generator`` in the batch draw objects,
    whose chunks hold rows on axis 1 (``(depth, rows, ...)``).  Each draw
    fills rows ``lo:hi`` from that block's own generator with the call an
    independent ``(depth, hi - lo, ...)`` draw would make, so a block's
    values never depend on the other blocks.
    """

    def __init__(
        self,
        bounds: Sequence[Tuple[int, int]],
        generators: Sequence[np.random.Generator],
    ):
        self.bounds = tuple(bounds)
        self.generators = tuple(generators)
        self.num_rows = self.bounds[-1][1]

    def _fill(
        self,
        draw: Callable[[np.random.Generator, np.ndarray], object],
        size,
        dtype,
        out: Optional[np.ndarray],
    ) -> np.ndarray:
        if out is None:
            out = np.empty(size, dtype=dtype)
        if out.ndim < 2 or out.shape[1] != self.num_rows:
            raise ValueError(
                f"row-block streams fill (depth, {self.num_rows}, ...) "
                f"arrays, got shape {out.shape}"
            )
        # One scratch buffer sized for the widest block; each block is
        # drawn contiguous, as its independent run would draw it.
        per_row = out.size // self.num_rows
        widest = max(hi - lo for lo, hi in self.bounds)
        scratch = np.empty(per_row * widest, dtype=out.dtype)
        for (lo, hi), gen in zip(self.bounds, self.generators):
            part = scratch[: per_row * (hi - lo)].reshape(
                (out.shape[0], hi - lo) + out.shape[2:]
            )
            draw(gen, part)
            out[:, lo:hi] = part
        return out

    def random(self, size=None, dtype=np.float64, out=None) -> np.ndarray:
        return self._fill(
            lambda gen, part: gen.random(dtype=part.dtype, out=part),
            size, dtype, out,
        )

    def standard_exponential(
        self, size=None, dtype=np.float64, out=None
    ) -> np.ndarray:
        return self._fill(
            lambda gen, part: gen.standard_exponential(
                dtype=part.dtype, out=part
            ),
            size, dtype, out,
        )

    def integers(self, low, high, size=None, dtype=np.int64) -> np.ndarray:
        return self._fill(
            lambda gen, part: np.copyto(
                part, gen.integers(low, high, size=part.shape, dtype=dtype)
            ),
            size, dtype, None,
        )


def row_blocks(rng, num_rows: int):
    """``(lo, hi, generator)`` per row block; a generator is one block."""
    if isinstance(rng, RowBlockStreams):
        return [
            (lo, hi, gen) for (lo, hi), gen in zip(rng.bounds, rng.generators)
        ]
    return [(0, num_rows, rng)]
