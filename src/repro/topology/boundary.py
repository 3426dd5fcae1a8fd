"""Per-interval conflict resolution for boundary links.

A boundary link belongs to two or more cells and would otherwise be
scheduled independently in each — double-counting deliveries and letting
one radio transmit in two collision domains at once.  The resolver
assigns every boundary link one *owner* membership per (interval, seed):
only the owner cell sees the link's arrivals that interval, so every
other membership has nothing to serve (frames are per-interval, so a
deliveries <= arrivals bound per cell row makes conservation structural,
and the batch engine asserts that bound every interval).

Ownership is drawn uniformly over the link's memberships from a
dedicated substream of the topology-level RNG bundle
(``BatchRngBundle(seeds, stream_tag="topology").free_stream("boundary")``
— the free-substream scheme), which makes the tie-break a pure function
of (topology, seeds), independent of the simulation's own RNG
discipline.  No cross-cell communication happens during an interval.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..sim.rng import BatchRngBundle
from .graph import TOPOLOGY_STREAM_TAG, CellTopology
from .pack import CellPacking

__all__ = ["BoundaryOwnerDraws", "BoundaryMasker"]

#: Owner draws per refill chunk.  The stream is consumed one block per
#: interval whatever the sim's draw discipline, so the depth affects only
#: amortization, never the trajectory (one ``random`` call per chunk).
OWNER_CHUNK = 256


class BoundaryOwnerDraws:
    """Chunked per-(interval, seed) owner draws for every boundary link.

    ``owners_at(k)`` must be called with consecutive ``k`` starting at 0
    (once per interval); the block for interval ``k`` is row ``k`` of the
    ``ceil`` chunk covering it.  Owners are uniform over each link's
    membership count via one ``floor(u * m)`` per draw.
    """

    def __init__(self, topology: CellTopology, seeds: Sequence[int]):
        self.topology = topology
        self._counts = np.array(
            [len(topology.memberships[l]) for l in topology.boundary_links],
            dtype=np.int64,
        )
        self._num_seeds = len(tuple(seeds))
        self._stream = BatchRngBundle(
            seeds, stream_tag=TOPOLOGY_STREAM_TAG
        ).free_stream("boundary")
        self._depth = OWNER_CHUNK
        self._cache: Optional[np.ndarray] = None
        self._pos = self._depth
        self._expect = 0

    def owners_at(self, k: int) -> np.ndarray:
        """Owner membership ordinal per (seed, boundary link) — ``(S, B)``."""
        if k != self._expect:
            raise RuntimeError(
                f"boundary owner draws consumed out of order: interval {k}, "
                f"expected {self._expect}"
            )
        self._expect = k + 1
        if self._pos >= self._depth:
            u = self._stream.random(
                (self._depth, self._num_seeds, len(self._counts))
            )
            owners = (u * self._counts).astype(np.int8)
            np.minimum(owners, (self._counts - 1).astype(np.int8), out=owners)
            self._cache = owners
            self._pos = 0
        block = self._cache[self._pos]
        self._pos += 1
        return block


class BoundaryMasker:
    """Zero non-owner memberships' arrivals in a packed ``(R, width)`` block
    whose rows are cell-major, ``S`` seeds per cell."""

    def __init__(self, packing: CellPacking, seeds: Sequence[int]):
        topology = packing.topology
        self.draws = BoundaryOwnerDraws(topology, seeds)
        self._num_seeds = len(tuple(seeds))
        # One entry per membership of each boundary link: its boundary
        # index, membership ordinal, and the (row, slot) of the
        # membership in every seed's packed row.
        b_idx, ordinal, rows, slots = [], [], [], []
        seed_idx = np.arange(self._num_seeds)
        for b, link in enumerate(topology.boundary_links):
            for j, (c, i) in enumerate(topology.memberships[link]):
                b_idx.append(b)
                ordinal.append(j)
                rows.append(c * self._num_seeds + seed_idx)
                slots.append(i)
        # (S, E) planes: seed s, entry e.
        self._boundary = np.array(b_idx, dtype=np.intp)
        self._ordinal = np.array(ordinal, dtype=np.int8)
        self._rows = np.array(rows, dtype=np.intp).reshape(-1, self._num_seeds).T
        self._slots = np.broadcast_to(
            np.array(slots, dtype=np.intp), self._rows.shape
        )

    def apply(self, k: int, arrivals: np.ndarray) -> np.ndarray:
        """Mask interval ``k``'s arrivals in place and return them."""
        owners = self.draws.owners_at(k)
        losers = owners[:, self._boundary] != self._ordinal
        arrivals[self._rows[losers], self._slots[losers]] = 0
        return arrivals
