"""Interference-graph topology model: links partitioned into cells.

The paper simulates one fully-interfering collision domain (every link
contends with every other).  Real deployments are many overlapping
domains: an interference *graph* whose cliques — "cells" here — each run
the protocol independently, with *boundary* links that belong to two or
more cells and contend in all of them (Singh–Kumar–Modiano's
interference-graph formulation, arXiv:1709.01672).

:class:`CellTopology` is the pure structural model: a link universe of
``num_links`` global link ids and a cover of cells, each cell a tuple of
global ids.  A link in exactly one cell is *interior*; a link in two or
more cells is a *boundary* link.  Topologies with no boundary links are
*disconnected* — every cell is an isolated collision domain, and the
multi-cell lowering is provably bit-identical to simulating each cell on
its own (see :mod:`repro.topology.engine`).

The model is deliberately simulator-agnostic: nothing here knows about
specs, kernels, or RNG.  Construction is validated eagerly so downstream
layers can trust the invariants.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Sequence, Tuple

__all__ = [
    "CellTopology",
    "TOPOLOGY_STREAM_TAG",
    "cell_stream_tag",
    "single_cell",
    "partition_cells",
    "grid_cells",
]

#: Stream-tag namespace for topology-level randomness (boundary ownership
#: draws).  Cell-level simulation randomness uses :func:`cell_stream_tag`.
TOPOLOGY_STREAM_TAG = "topology"


def cell_stream_tag(cell_index: int) -> str:
    """The RNG stream tag for cell ``cell_index``'s simulation draws.

    Keyed by the cell's index in the topology — *not* by its position in
    any packed batch — so a cell's random trajectory is invariant under
    re-packing, the presence of other cells, and the sweep shard that
    runs its topology.
    """
    return f"{TOPOLOGY_STREAM_TAG}:cell{int(cell_index)}"


@dataclass(frozen=True)
class CellTopology:
    """A cover of ``num_links`` global links by interfering cells.

    Parameters
    ----------
    num_links:
        Size of the global link universe; global ids are ``0..num_links-1``.
    cells:
        One tuple of global link ids per cell.  Every link must appear in
        at least one cell; within a cell ids must be unique.  Links in
        two or more cells are boundary links and contend in each of their
        cells (resolved per interval by the boundary layer).
    """

    num_links: int
    cells: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_links < 1:
            raise ValueError(f"num_links must be >= 1, got {self.num_links}")
        cells = tuple(tuple(int(l) for l in cell) for cell in self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise ValueError("a topology needs at least one cell")
        seen = [0] * self.num_links
        for c, cell in enumerate(cells):
            if not cell:
                raise ValueError(f"cell {c} is empty")
            if len(set(cell)) != len(cell):
                raise ValueError(f"cell {c} lists a link twice: {cell}")
            for l in cell:
                if not 0 <= l < self.num_links:
                    raise ValueError(
                        f"cell {c} references link {l}, universe has "
                        f"{self.num_links} links"
                    )
                seen[l] += 1
        missing = [l for l, k in enumerate(seen) if k == 0]
        if missing:
            raise ValueError(
                f"{len(missing)} links belong to no cell "
                f"(first: {missing[:5]})"
            )

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @cached_property
    def max_cell_size(self) -> int:
        return max(len(cell) for cell in self.cells)

    @cached_property
    def memberships(self) -> Dict[int, Tuple[Tuple[int, int], ...]]:
        """Global link id -> ``((cell, local_index), ...)`` memberships."""
        out: Dict[int, list] = {}
        for c, cell in enumerate(self.cells):
            for i, l in enumerate(cell):
                out.setdefault(l, []).append((c, i))
        return {l: tuple(ms) for l, ms in out.items()}

    @cached_property
    def boundary_links(self) -> Tuple[int, ...]:
        """Global ids of links in two or more cells, ascending."""
        return tuple(
            sorted(l for l, ms in self.memberships.items() if len(ms) > 1)
        )

    @property
    def is_disconnected(self) -> bool:
        """True when no link spans cells (cells are isolated domains)."""
        return not self.boundary_links

    # ------------------------------------------------------------------
    def fingerprint(self) -> dict:
        """Compact canonical identity for cache keys.

        The full cell lists can run to tens of thousands of ids, so the
        cache payload carries a digest of the canonical JSON encoding
        instead of the lists themselves.
        """
        canon = json.dumps(
            {"num_links": self.num_links, "cells": [list(c) for c in self.cells]},
            separators=(",", ":"),
        )
        return {
            "num_links": self.num_links,
            "num_cells": self.num_cells,
            "num_boundary": len(self.boundary_links),
            "digest": hashlib.sha256(canon.encode()).hexdigest(),
        }


# ----------------------------------------------------------------------
# Builders.  All deterministic pure functions of their arguments — the
# same arguments always name the same topology, which is what makes the
# sweep cache's topology fingerprints meaningful.
# ----------------------------------------------------------------------
def single_cell(num_links: int) -> CellTopology:
    """The paper's model: one fully-interfering collision domain."""
    return CellTopology(num_links, (tuple(range(num_links)),))


def _contiguous_split(num_links: int, num_cells: int) -> list:
    if num_cells < 1:
        raise ValueError(f"num_cells must be >= 1, got {num_cells}")
    if num_cells > num_links:
        raise ValueError(
            f"{num_cells} cells need at least that many links, got {num_links}"
        )
    base, extra = divmod(num_links, num_cells)
    cells, start = [], 0
    for c in range(num_cells):
        size = base + (1 if c < extra else 0)
        cells.append(list(range(start, start + size)))
        start += size
    return cells


def partition_cells(num_links: int, num_cells: int) -> CellTopology:
    """Disjoint contiguous cells — a disconnected topology (no boundary)."""
    return CellTopology(
        num_links, tuple(tuple(c) for c in _contiguous_split(num_links, num_cells))
    )


def grid_cells(
    num_links: int,
    num_cells: int,
    cross_cell_fraction: float = 0.0,
) -> CellTopology:
    """Contiguous cells on a ring with a fraction of boundary links.

    Starts from :func:`partition_cells` and promotes
    ``round(cross_cell_fraction * num_links)`` links to boundary links:
    the first link of cell ``c+1`` (mod ``num_cells``) additionally joins
    cell ``c``, on evenly spaced borders around the ring.  At most one
    boundary link per border, so the count is capped at ``num_cells``
    (``num_cells - 1`` for two cells, where the ring's two borders meet
    the same pair).  ``cross_cell_fraction=0`` reproduces the disjoint
    partition exactly.
    """
    if not 0.0 <= cross_cell_fraction <= 1.0:
        raise ValueError(
            f"cross_cell_fraction must lie in [0, 1], got {cross_cell_fraction}"
        )
    cells = _contiguous_split(num_links, num_cells)
    want = int(round(cross_cell_fraction * num_links))
    if num_cells == 1:
        want = 0
    cap = num_cells if num_cells > 2 else max(0, num_cells - 1)
    count = min(want, cap)
    if count:
        # Evenly spaced borders: border j sits between cell j and j+1 (ring).
        for i in range(count):
            j = (i * num_cells) // count
            neighbour = (j + 1) % num_cells
            link = cells[neighbour][0]
            if link not in cells[j]:
                cells[j].append(link)
    return CellTopology(num_links, tuple(tuple(c) for c in cells))
