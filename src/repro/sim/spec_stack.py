"""Heterogeneous spec stacks for the grid-fused batch engine.

The batch engine (:mod:`repro.sim.batch_sim`) advances a stack of
replications as ``(S, N)`` arrays.  Originally every row shared one
:class:`~repro.core.requirements.NetworkSpec`; a whole figure sweep then
still paid one engine pass per (parameter value, policy) cell.
:class:`SpecStack` removes that restriction: each row carries its *own*
spec — its own channel reliabilities, arrival parameters, and requirement
vector — so rows from different sweep cells can share a single kernel
invocation, as long as the specs agree on what the kernels hard-code:

* the link count ``N`` (array width),
* the interval timing (attempt budgets and airtimes are scalars inside the
  kernels),
* one channel family (per-row channel parameters stack the way arrival
  parameters do: stationary reliabilities become an ``(R, N)`` matrix,
  and stateful families expose vectorized per-row state through
  :meth:`~repro.phy.channel.ChannelModel.stack_rows` — a fused grid can
  sweep Gilbert-Elliott burst lengths the way it sweeps arrival rates).

Everything per-link that used to be an ``(N,)`` vector — reliabilities,
requirements — is exposed here as an ``(R, N)`` matrix; arrival draws come
from :meth:`SpecStack.sample_arrival_block`, which groups rows by identical
arrival process so one vectorized draw covers every row using that process.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.requirements import NetworkSpec
from ..phy.timing import IntervalTiming
from .rng import row_blocks

__all__ = ["SpecStack"]


class SpecStack:
    """An ordered stack of per-row network specs for one fused engine run.

    Parameters
    ----------
    specs:
        One :class:`NetworkSpec` per row.  All rows must share the link
        count, the interval timing, and the channel model class (kernels
        bind one draw pipeline per stack); a ``ValueError``/``TypeError``
        names the offending row otherwise.
    """

    def __init__(self, specs: Sequence[NetworkSpec]):
        specs = tuple(specs)
        if not specs:
            raise ValueError("need at least one spec")
        first = specs[0]
        n = first.num_links
        timing = first.timing
        for i, spec in enumerate(specs):
            if not isinstance(spec, NetworkSpec):
                raise TypeError(
                    f"row {i} is {type(spec).__name__}, expected NetworkSpec"
                )
            if spec.num_links != n:
                raise ValueError(
                    f"row {i} has {spec.num_links} links, row 0 has {n}; "
                    "a fused stack requires one common link count"
                )
            if spec.timing != timing:
                raise ValueError(
                    f"row {i} uses a different IntervalTiming than row 0; "
                    "kernels hold timing as scalars, so fused rows must "
                    "share it"
                )
            if type(spec.channel) is not type(first.channel):
                raise TypeError(
                    f"row {i} has {type(spec.channel).__name__} but row 0 "
                    f"has {type(first.channel).__name__}; a fused stack "
                    "requires one channel model class (kernels bind one "
                    "draw pipeline per stack)"
                )
        self._specs = specs
        self._n = n
        self._timing = timing
        self._arrival_groups_cache: Dict[
            Tuple[int, int], List[Tuple[NetworkSpec, List[int]]]
        ] = {}

    # ------------------------------------------------------------------
    @classmethod
    def broadcast(cls, spec: NetworkSpec, num_rows: int) -> "SpecStack":
        """A homogeneous stack: ``num_rows`` rows of the same spec."""
        if num_rows < 1:
            raise ValueError(f"num_rows must be >= 1, got {num_rows}")
        return cls((spec,) * num_rows)

    # ------------------------------------------------------------------
    @property
    def specs(self) -> Tuple[NetworkSpec, ...]:
        return self._specs

    @property
    def num_rows(self) -> int:
        return len(self._specs)

    @property
    def num_links(self) -> int:
        return self._n

    @property
    def timing(self) -> IntervalTiming:
        return self._timing

    @property
    def homogeneous(self) -> bool:
        """Whether every row equals row 0 (plain batch-engine semantics)."""
        first = self._specs[0]
        return all(spec == first for spec in self._specs[1:])

    @property
    def channels(self) -> Tuple:
        """The per-row channel models, in row order."""
        return tuple(spec.channel for spec in self._specs)

    @property
    def reliability_matrix(self) -> np.ndarray:
        """Per-row *stationary* channel reliabilities — shape ``(R, N)``.

        For stateful channel families these are the long-run values the
        policies configure from; the instantaneous per-interval planes
        come from the channel-state rows the kernels evolve.
        """
        return np.stack([spec.reliabilities for spec in self._specs])

    @property
    def requirement_matrix(self) -> np.ndarray:
        """Per-row requirements ``q`` — shape ``(R, N)``."""
        return np.stack([spec.requirement_vector for spec in self._specs])

    @property
    def max_arrivals_per_link(self) -> int:
        """The stack-wide ``A_max`` (kernels size packet axes with it)."""
        return max(
            max(1, spec.arrivals.max_per_link) for spec in self._specs
        )

    @property
    def has_state_arrivals(self) -> bool:
        """Whether any row's arrival process carries per-interval state."""
        return any(spec.arrivals.has_state for spec in self._specs)

    @property
    def arrival_state_uses_rng(self) -> bool:
        """Whether any row's arrival state evolves stochastically."""
        return any(
            spec.arrivals.has_state and spec.arrivals.state_uses_rng
            for spec in self._specs
        )

    # ------------------------------------------------------------------
    def _arrival_groups(
        self, lo: int, hi: int
    ) -> List[Tuple[NetworkSpec, List[int]]]:
        """Rows ``lo:hi`` grouped by identical arrival process
        (order-preserving).

        Computed once per row range and cached: the stack is immutable,
        and the pairwise equality scan is quadratic in distinct processes
        — too slow to repeat on every chunk refill of a long run.
        """
        cached = self._arrival_groups_cache.get((lo, hi))
        if cached is None:
            groups: List[Tuple[NetworkSpec, List[int]]] = []
            for i in range(lo, hi):
                spec = self._specs[i]
                for rep, rows in groups:
                    if spec.arrivals == rep.arrivals:
                        rows.append(i)
                        break
                else:
                    groups.append((spec, [i]))
            cached = self._arrival_groups_cache[(lo, hi)] = groups
        return cached

    def sample_arrival_block(
        self, rng, depth: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Draw ``depth`` intervals of arrivals for every row at once.

        Fills and returns ``out``, a ``(depth, R, N)`` array of any
        integer dtype that holds :attr:`max_arrivals_per_link` (a new
        int64 array when ``None``).  Rows sharing one arrival process are
        drawn in a single ``sample_batch`` call (i.i.d. across intervals
        and rows, so a flat oversized draw has the right joint
        distribution); a sweep with ``V`` distinct parameter values costs
        ``V`` generator calls per block instead of ``R``.  Under
        :class:`~repro.sim.rng.RowBlockStreams` each row block is grouped
        and drawn from its own generator.  The draws are int64 whatever
        ``out`` holds; ``sample_batch`` checks them against the process's
        ``max_per_link``, so a narrower ``out`` never wraps.
        """
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if out is None:
            out = np.empty((depth, self.num_rows, self._n), dtype=np.int64)
        for lo, hi, gen in row_blocks(rng, self.num_rows):
            for rep, rows in self._arrival_groups(lo, hi):
                flat = rep.arrivals.sample_batch(gen, depth * len(rows))
                out[:, _row_index(rows)] = flat.reshape(
                    depth, len(rows), self._n
                )
        return out


def _row_index(rows: List[int]):
    """``rows`` as a slice when they are contiguous (a strided copy),
    else the list itself (a fancy-index scatter)."""
    if rows[-1] - rows[0] == len(rows) - 1:
        return slice(rows[0], rows[-1] + 1)
    return rows
