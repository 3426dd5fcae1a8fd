"""The generic Decentralized Priority (DP) protocol — Algorithm 2.

Every link holds a unique 1-based priority index; the permutation
``sigma(k)`` evolves by adjacent transpositions negotiated *without any
control messages*, purely through carrier sensing and collision-free backoff
timers:

1. A shared random seed yields the candidate priority pair
   ``(C(k), C(k)+1)`` each interval (Step 1).  The multi-pair extension of
   Remark 6 draws several non-consecutive candidate indices.
2. Candidate links with no real arrivals enqueue one *empty* packet so their
   intent is observable on the channel (Step 2).
3. Each candidate flips a local coin ``xi_n`` with bias ``mu_n`` (Step 3) and
   derives its backoff ``beta_n = sigma_n - xi_n`` (Step 4); non-candidates
   use ``sigma_n - 1`` below the pair and ``sigma_n + 1`` above it, so all
   backoff values are distinct — the protocol is collision-free by
   construction.
4. Backoff counters decrement only while the channel is idle, so the link
   holding backoff ``beta`` begins transmitting after exactly ``beta`` idle
   slots; the swap handshake is read off the channel state at the instant a
   candidate's counter reaches 1 (Step 5, Eqs. (7)-(8)).
5. A link whose counter hits 0 transmits back-to-back until its buffer
   empties or the interval ends (Step 6); all buffers flush at the interval
   boundary (Step 7).

Swap-commit rule (see DESIGN.md "Implementation clarifications"): the pair
``(c, c+1)`` exchanges priorities iff the link at ``c`` drew ``xi = -1``, the
link at ``c+1`` drew ``xi = +1``, *and* the up-mover actually begins its
transmission within the interval — exactly the ``P{R_i + R_j >= 1}`` factor
of Eq. (9), and the only reading of Eqs. (7)-(8) under which ``sigma``
provably remains a permutation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.rng import RngBundle
from .permutations import (
    apply_swap_to_order,
    priority_to_link_order,
    validate_priority_vector,
)
from .policies import IntervalMac, IntervalOutcome, serve_link_attempts

__all__ = [
    "SwapBias",
    "max_swap_pairs",
    "ConstantSwapBias",
    "PerLinkSwapBias",
    "RowStackedConstantBias",
    "SwapDecision",
    "compute_backoffs",
    "draw_candidate_indices",
    "DPProtocol",
]


class SwapBias(ABC):
    """The coin-flip bias ``mu_n`` of Step 3.

    ``mu_n`` is the probability that link ``n`` draws ``xi_n = +1`` (the
    "keep / claim high priority" outcome).  DB-DP supplies a debt-dependent
    bias (Eq. 14); the generic protocol accepts any bias in ``(0, 1)``.
    """

    @abstractmethod
    def mu(self, link: int, positive_debt: float, reliability: float) -> float:
        """Return ``mu_n in (0, 1)`` for this interval."""

    def mu_batch(
        self,
        links: np.ndarray,
        positive_debts: np.ndarray,
        reliabilities: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`mu` over aligned arrays of any shape.

        The generic implementation loops over elements; biases used in hot
        paths (Glauber, constant, per-link) override it with array
        arithmetic for the batch simulation engine.
        """
        links = np.asarray(links)
        debts = np.asarray(positive_debts, dtype=float)
        rel = np.asarray(reliabilities, dtype=float)
        flat = np.array(
            [
                self.mu(int(l), float(d), float(p))
                for l, d, p in zip(links.ravel(), debts.ravel(), rel.ravel())
            ],
            dtype=float,
        )
        return flat.reshape(links.shape)


@dataclass(frozen=True)
class ConstantSwapBias(SwapBias):
    """The same ``mu`` for every link — the unbiased reordering baseline."""

    value: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.value < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {self.value}")

    def mu(self, link: int, positive_debt: float, reliability: float) -> float:
        return self.value

    def mu_batch(
        self,
        links: np.ndarray,
        positive_debts: np.ndarray,
        reliabilities: np.ndarray,
    ) -> np.ndarray:
        return np.full(np.shape(links), self.value)


@dataclass(frozen=True)
class PerLinkSwapBias(SwapBias):
    """Fixed per-link biases — used to verify Proposition 2's closed form."""

    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        for v in self.values:
            if not 0.0 < v < 1.0:
                raise ValueError(f"each mu must lie in (0, 1), got {v}")

    def mu(self, link: int, positive_debt: float, reliability: float) -> float:
        return self.values[link]

    def mu_batch(
        self,
        links: np.ndarray,
        positive_debts: np.ndarray,
        reliabilities: np.ndarray,
    ) -> np.ndarray:
        return np.asarray(self.values, dtype=float)[np.asarray(links)]


@dataclass(frozen=True)
class RowStackedConstantBias(SwapBias):
    """One constant ``mu`` per *replication row* of a fused batch stack.

    Batch-only: the scalar protocol has no row identity, so :meth:`mu`
    refuses.  :meth:`mu_batch` expects arrays whose leading axis indexes
    the stack rows (the batch kernels' ``(S, P)`` candidate layout).
    """

    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("need at least one row")
        for v in self.values:
            if not 0.0 < v < 1.0:
                raise ValueError(f"each mu must lie in (0, 1), got {v}")

    def mu(self, link: int, positive_debt: float, reliability: float) -> float:
        raise TypeError(
            "RowStackedConstantBias is defined per batch row; it cannot "
            "serve a scalar (row-less) protocol"
        )

    def mu_batch(
        self,
        links: np.ndarray,
        positive_debts: np.ndarray,
        reliabilities: np.ndarray,
    ) -> np.ndarray:
        shape = np.shape(links)
        rows = np.asarray(self.values, dtype=float)
        if len(shape) != 2 or shape[0] != rows.size:
            raise ValueError(
                f"expected (S, P) arrays with S = {rows.size} rows, got "
                f"shape {shape}"
            )
        return np.broadcast_to(rows[:, None], shape)


@dataclass(frozen=True)
class SwapDecision:
    """Record of one candidate pair's handshake in one interval."""

    candidate_priority: int  # C(k): the higher-priority slot of the pair
    down_link: int  # link holding priority C(k) (0-based)
    up_link: int  # link holding priority C(k) + 1
    xi_down: int  # +1 or -1
    xi_up: int
    committed: bool  # True iff the pair exchanged priorities


def max_swap_pairs(n: int) -> int:
    """Largest pair count that keeps the Remark-6 chain irreducible.

    Every candidate index ``c in {1, .., n-1}`` must belong to *some*
    admissible (non-consecutive) size-``P`` set, or the adjacent
    transposition at ``c`` becomes unreachable and the priority chain is
    reducible (e.g. ``n = 4, P = 2`` forces the set {1, 3} every interval,
    so priorities 2 and 3 can never swap).  The middle index is the
    binding one, giving ``P <= (n - 1) // 2`` (and at least 1 pair fits for
    any ``n >= 2``).  Verified exhaustively in
    ``tests/analysis/test_multipair.py``.
    """
    if n < 2:
        return 0
    return max(1, (n - 1) // 2)


def draw_candidate_indices(
    n: int, num_pairs: int, shared_rng: np.random.Generator
) -> Tuple[int, ...]:
    """Draw the candidate priority indices ``C(k)`` from the shared stream.

    Returns a sorted tuple of ``num_pairs`` non-consecutive integers in
    ``[1, n - 1]`` (Remark 6); with ``num_pairs = 1`` this is Step 1 of
    Algorithm 2 exactly.

    Uniform sampling over the admissible sets uses the classical gap
    bijection: sorted ``P``-subsets of ``[1, M]`` with pairwise gaps >= 2
    correspond one-to-one to plain ``P``-subsets of ``[1, M - P + 1]`` via
    ``c_i = y_i + (i - 1)``, so one sorted uniform combination suffices —
    no rejection loop (which is hopeless for large pair counts: 9 pairs on
    20 links accept only ~0.06% of plain draws).
    """
    if n < 2:
        return ()
    max_pairs = max_swap_pairs(n)
    if not 1 <= num_pairs <= max_pairs:
        raise ValueError(
            f"num_pairs must lie in [1, {max_pairs}] for {n} links "
            f"(irreducibility bound, see max_swap_pairs), got {num_pairs}"
        )
    if num_pairs == 1:
        return (int(shared_rng.integers(1, n)),)
    compressed_max = (n - 1) - (num_pairs - 1)  # M - P + 1 with M = n - 1
    draw = shared_rng.choice(
        np.arange(1, compressed_max + 1), size=num_pairs, replace=False
    )
    draw.sort()
    return tuple(int(y) + i for i, y in enumerate(draw))


def compute_backoffs(
    sigma: Sequence[int],
    candidates: Sequence[int],
    xi: Dict[int, int],
) -> Dict[int, int]:
    """Backoff timers for the interval (Step 4, extended per Remark 6).

    Parameters
    ----------
    sigma:
        Priority vector from the previous interval (``sigma(k-1)``).
    candidates:
        Sorted non-consecutive candidate priority indices.
    xi:
        Coin flips, keyed by (0-based) link, for every candidate link.

    Returns a map link -> backoff.  Each candidate pair ``i`` (0-based among
    the sorted candidates) operates in a backoff band shifted by ``2 i``;
    non-candidates shift by ``2 *`` (number of pairs entirely below their
    priority).  The returned values are always distinct (collision-free),
    which the test-suite asserts exhaustively for small ``N``.
    """
    sig = validate_priority_vector(sigma)
    cand_set = {}
    for pair_index, c in enumerate(candidates):
        cand_set[c] = pair_index
        cand_set[c + 1] = pair_index

    backoffs: Dict[int, int] = {}
    for link, s in enumerate(sig):
        if s in cand_set:
            offset = 2 * cand_set[s]
            backoffs[link] = s - xi[link] + offset
        else:
            pairs_below = sum(1 for c in candidates if c + 1 < s)
            backoffs[link] = s - 1 + 2 * pairs_below
    return backoffs


class DPProtocol(IntervalMac):
    """Algorithm 2 with pluggable swap bias and optional multi-pair swaps.

    Parameters
    ----------
    bias:
        The coin-flip bias ``mu_n`` (Step 3).  Use
        :class:`~repro.core.dbdp.GlauberDebtBias` for DB-DP.
    num_pairs:
        Candidate pairs per interval (1 = Algorithm 2; >1 = Remark 6).
    initial_priorities:
        Starting permutation ``sigma(0)``; identity by default.
    """

    name = "DP"

    def __init__(
        self,
        bias: SwapBias,
        num_pairs: int = 1,
        initial_priorities: Optional[Sequence[int]] = None,
    ):
        super().__init__()
        self.bias = bias
        if num_pairs < 1:
            raise ValueError(f"num_pairs must be >= 1, got {num_pairs}")
        self.num_pairs = num_pairs
        self._initial = (
            validate_priority_vector(initial_priorities)
            if initial_priorities is not None
            else None
        )
        self._sigma: Tuple[int, ...] = ()
        # Priority -> link view of sigma, maintained incrementally: each
        # committed adjacent swap touches two entries, so candidate-link
        # lookup is O(1) per pair instead of sigma.index's O(N) scan.
        self._order: List[int] = []

    # ------------------------------------------------------------------
    def _on_bind(self) -> None:
        n = self.spec.num_links
        if self._initial is not None:
            if len(self._initial) != n:
                raise ValueError(
                    f"initial priorities cover {len(self._initial)} links, "
                    f"network has {n}"
                )
            self._sigma = self._initial
        else:
            self._sigma = tuple(range(1, n + 1))
        self._order = list(priority_to_link_order(self._sigma))
        if n >= 2 and self.num_pairs > max_swap_pairs(n):
            raise ValueError(
                f"{self.num_pairs} pairs would make the priority chain "
                f"reducible on {n} links; the bound is "
                f"{max_swap_pairs(n)} (see max_swap_pairs)"
            )

    @property
    def priorities(self) -> Tuple[int, ...]:
        """Current priority vector ``sigma`` (1-based indices per link)."""
        return self._sigma

    def set_priorities(self, sigma: Sequence[int]) -> None:
        """Force the protocol state (used by tests and warm-started runs)."""
        sig = validate_priority_vector(sigma)
        if self._spec is not None and len(sig) != self.spec.num_links:
            raise ValueError("priority vector length mismatch")
        self._sigma = sig
        self._order = list(priority_to_link_order(sig))

    # ------------------------------------------------------------------
    def run_interval(
        self,
        k: int,
        arrivals: np.ndarray,
        positive_debts: np.ndarray,
        rng: RngBundle,
    ) -> IntervalOutcome:
        spec = self.spec
        timing = spec.timing
        n = spec.num_links
        sigma = self._sigma

        # Step 1: shared randomness -> candidate priority indices.
        if n >= 2:
            candidates = draw_candidate_indices(n, self.num_pairs, rng.shared)
        else:
            candidates = ()

        # Steps 2-3: identify candidate links, flip their local coins.
        candidate_links: Dict[int, Tuple[int, int]] = {}  # c -> (down, up)
        xi: Dict[int, int] = {}
        reliabilities = spec.reliabilities
        order = self._order
        for c in candidates:
            down = order[c - 1]
            up = order[c]
            candidate_links[c] = (down, up)
            for link in (down, up):
                mu = self.bias.mu(link, float(positive_debts[link]), float(reliabilities[link]))
                if not 0.0 < mu < 1.0:
                    raise ValueError(
                        f"swap bias returned mu={mu} for link {link}; "
                        "Algorithm 2 requires mu in (0, 1)"
                    )
                xi[link] = 1 if rng.policy.random() < mu else -1

        # Step 2: candidates without arrivals claim priority with an empty
        # packet.
        has_empty = {
            link
            for pair in candidate_links.values()
            for link in pair
            if arrivals[link] == 0
        }

        # Step 4: collision-free backoff timers.
        backoffs = compute_backoffs(sigma, candidates, xi) if candidates else {
            link: sigma[link] - 1 for link in range(n)
        }

        # Steps 5-6: run the interval timeline.  The link with backoff beta
        # starts after exactly beta idle slots (counters freeze while the
        # channel is busy), i.e. at busy_time + beta * slot.  Starts,
        # budgets and fit tests run in integer time units
        # (IntervalTiming.time_units); busy and overhead times stay sums
        # of the microsecond constants.
        T, air, empty, slot = timing.time_units
        deliveries = np.zeros(n, dtype=np.int64)
        attempts = np.zeros(n, dtype=np.int64)
        transmitted = [False] * n
        service_start = [float("inf")] * n  # in time units
        busy_us = 0.0
        empty_us = 0.0
        aired = 0  # data and empty airtime so far, in time units
        idle_slots_used = 0

        for link in sorted(range(n), key=lambda l: backoffs[l]):
            backlog = int(arrivals[link])
            wants_empty = link in has_empty
            if backlog == 0 and not wants_empty:
                continue
            start = aired + backoffs[link] * slot
            if backlog > 0:
                budget = (T - start) // air
                if budget <= 0:
                    continue  # Remark 4: cannot fit a packet; stay idle.
                served, used = serve_link_attempts(
                    link, backlog, budget, spec.channel, rng.channel
                )
                deliveries[link] = served
                attempts[link] = used
                busy_us += used * timing.data_airtime_us
                aired += used * air
                transmitted[link] = used > 0
                if used > 0:
                    service_start[link] = start
                    idle_slots_used = max(idle_slots_used, backoffs[link])
            else:
                # Empty priority-claiming packet.
                if empty > 0:
                    fits = start + empty <= T
                else:
                    # Idealized mode: a zero-length claim still needs a live
                    # instant on the channel (condition C1's spare capacity).
                    fits = start < T
                if fits:
                    empty_us += timing.empty_airtime_us
                    aired += empty
                    transmitted[link] = True
                    service_start[link] = start
                    idle_slots_used = max(idle_slots_used, backoffs[link])

        # Step 5 / Eqs. (7)-(8): commit swaps detected via carrier sensing.
        decisions: List[SwapDecision] = []
        new_sigma = list(sigma)
        for c in candidates:
            down, up = candidate_links[c]
            # Commit rule (DESIGN.md, "swap atomicity"): the handshake
            # instant — the up-mover's transmission start, which is also the
            # moment the down-mover's counter reads 1 — must leave at least
            # one data airtime before the deadline.  Both sides can evaluate
            # this locally (they know the time and the deadline), and it
            # removes the false-yield corner where the down-mover was merely
            # unable to fit its packet (Remark 4), keeping sigma a
            # permutation in all cases.
            committed = (
                xi[down] == -1
                and xi[up] == 1
                and transmitted[up]
                and service_start[up] + air <= T
            )
            decisions.append(
                SwapDecision(
                    candidate_priority=c,
                    down_link=down,
                    up_link=up,
                    xi_down=xi[down],
                    xi_up=xi[up],
                    committed=committed,
                )
            )
            if committed:
                new_sigma[down], new_sigma[up] = new_sigma[up], new_sigma[down]
                # Candidate indices are non-consecutive (Remark 6), so the
                # order-view swaps are disjoint and commute.
                apply_swap_to_order(order, c)
        self._sigma = tuple(new_sigma)

        overhead = idle_slots_used * timing.backoff_slot_us + empty_us
        return IntervalOutcome(
            deliveries=deliveries,
            attempts=attempts,
            busy_time_us=busy_us + empty_us,
            overhead_time_us=overhead,
            collisions=0,
            priorities=sigma,
            info={
                "candidates": candidates,
                "swaps": decisions,
                "backoffs": backoffs,
                "next_priorities": self._sigma,
            },
        )


# ----------------------------------------------------------------------
# Registry descriptor (repro.core.registry): the generic DP protocol.
# ----------------------------------------------------------------------
from . import registry as _registry  # noqa: E402  (self-registration)


def dp_family_config(policy: DPProtocol) -> dict:
    """Behaviour config shared by the whole DP family (DB-DP included)."""
    return {
        "bias": _registry.encode_config_value(policy.bias),
        "num_pairs": int(policy.num_pairs),
        "initial": _registry.encode_config_value(policy._initial),
    }


_registry.register(
    _registry.PolicyDescriptor(
        name="DP",
        policy_class=DPProtocol,
        to_config=dp_family_config,
        from_config=lambda config: DPProtocol(
            bias=_registry.decode_config_value(config["bias"]),
            num_pairs=int(config["num_pairs"]),
            initial_priorities=_registry.decode_config_value(
                config["initial"]
            ),
        ),
        factory=None,  # the generic protocol needs an explicit bias
        batch_kernel="repro.sim.batch_kernels:BatchDPKernel",
    )
)
