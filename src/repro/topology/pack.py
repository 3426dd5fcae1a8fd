"""Lower a :class:`~repro.topology.graph.CellTopology` onto batch rows.

The multi-cell lowering turns one ``N``-link topology into ``C`` small
specs — one per cell — so every (seed, cell) pair becomes an independent
row of the existing batch engine.  :class:`CellPacking` owns that
translation:

* **slicing** — each cell's spec reuses the global spec's per-link
  parameters (arrival rates, reliabilities, requirements) at the cell's
  member links, rebuilt as the same process/channel classes so the cell
  spec is a first-class :class:`~repro.core.requirements.NetworkSpec`;
* **padding** — cells are padded to the topology's widest cell with
  zero-rate, zero-requirement links (reliability 1) so all rows share one
  width and stack into a single kernel invocation.  The protocol treats a
  pad exactly like a real link that never has traffic, which the paper's
  model already allows;
* **requirement splitting** — a boundary link's requirement is divided
  evenly across its memberships, so each cell's debt dynamics chase the
  share of the requirement that cell can actually serve (ownership
  rotates; see :mod:`repro.topology.boundary`).  Global deficiency is
  still measured against the full requirement via the summed deliveries.

Only cross-link-independent arrival processes can be sliced per cell
(:meth:`~repro.traffic.arrivals.ArrivalProcess.take_links`); correlated
or stateful processes raise ``TypeError``.
"""
from __future__ import annotations

from functools import cached_property
from typing import List, Tuple

import numpy as np

from ..core.requirements import NetworkSpec
from .graph import CellTopology

__all__ = ["CellPacking"]


class CellPacking:
    """Per-cell specs plus the index maps between rows and global links."""

    def __init__(self, spec: NetworkSpec, topology: CellTopology):
        if topology.num_links != spec.num_links:
            raise ValueError(
                f"topology covers {topology.num_links} links but the spec "
                f"has {spec.num_links}"
            )
        self.spec = spec
        self.topology = topology
        self.width = topology.max_cell_size
        mships = topology.memberships
        qs = spec.requirement_vector
        boundary = topology.boundary_links
        b_index = {l: b for b, l in enumerate(boundary)}

        specs: List[NetworkSpec] = []
        member = np.full((topology.num_cells, self.width), -1, dtype=np.int64)
        b_idx = np.full((topology.num_cells, self.width), -1, dtype=np.int32)
        for c, cell in enumerate(topology.cells):
            pad = self.width - len(cell)
            # Per-cell slices: pads never arrive and always deliver, so
            # they never consume airtime.  Families that cannot be sliced
            # per link raise a TypeError here (see ArrivalProcess.take_links
            # and ChannelModel.take_links).
            arrivals = spec.arrivals.take_links(cell, pad)
            channel = spec.channel.take_links(cell, pad)
            reqs = []
            for i, l in enumerate(cell):
                member[c, i] = l
                m = len(mships[l])
                reqs.append(float(qs[l]) / m)
                if m > 1:
                    b_idx[c, i] = b_index[l]
            specs.append(
                NetworkSpec(
                    arrivals=arrivals,
                    channel=channel,
                    timing=spec.timing,
                    requirements=tuple(reqs) + (0.0,) * pad,
                )
            )
        self.cell_specs: Tuple[NetworkSpec, ...] = tuple(specs)
        #: ``(C, width)`` global link id per (cell, local), -1 for pads.
        self.member_matrix = member
        #: ``(C, width)`` boundary-link index per (cell, local), -1 if the
        #: slot is interior or a pad.
        self.boundary_index_matrix = b_idx

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return self.topology.num_cells

    @cached_property
    def scatter_index(self) -> np.ndarray:
        """Flat ``(C * width,)`` global target per slot; pads -> num_links.

        Pads scatter into a sacrificial extra column so aggregation can
        run as one ``np.add.at`` without masking.
        """
        idx = self.member_matrix.ravel().copy()
        idx[idx < 0] = self.topology.num_links
        return idx

    def aggregate_rows(self, rows: np.ndarray, num_seeds: int) -> np.ndarray:
        """Sum per-row per-local values onto global links -> ``(S, N)``.

        ``rows`` is ``(C * S, width)`` in cell-major row order.  Each
        global link receives the sum over its packed memberships; the
        boundary layer guarantees at most one membership is nonzero per
        interval, so sums never double-count.  Pads scatter into a
        sacrificial extra column (see :attr:`scatter_index`).
        """
        C, W = self.num_cells, self.width
        S = int(num_seeds)
        if rows.shape != (C * S, W):
            raise ValueError(
                f"expected rows of shape {(C * S, W)}, got {rows.shape}"
            )
        idx = self.scatter_index
        out = np.zeros((S, self.topology.num_links + 1), dtype=rows.dtype)
        per_seed = rows.reshape(C, S, W).transpose(1, 0, 2).reshape(S, C * W)
        np.add.at(out, (slice(None), idx), per_seed)
        return out[:, : self.topology.num_links]
