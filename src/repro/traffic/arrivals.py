"""Arrival processes (Section II-B).

Packets arrive at the beginning of each interval; the arrival vector
``A(k)`` is i.i.d. across intervals with per-link mean ``lambda_n`` and a
uniform bound ``A_max``.  Arrivals of different links *within* one interval
may be correlated (the model allows it; the paper's evaluation uses
independent links).

Processes used in the paper's evaluation:

* :class:`BurstyVideoArrivals` — ``A_n ~ Uniform{1..6}`` w.p. ``alpha_n``,
  else 0, so ``lambda_n = 3.5 * alpha_n`` (Section VI-A).
* :class:`BernoulliArrivals` — ``A_n ~ Bernoulli(lambda_n)``
  (Section VI-B).

Additional processes (:class:`ConstantArrivals`,
:class:`TruncatedPoissonArrivals`, :class:`CorrelatedBurstArrivals`,
:class:`MarkovModulatedArrivals`, :class:`ParetoBurstArrivals`) exercise
the general model — bounded support, possibly cross-link-correlated —
beyond the paper's two workloads.  Note :class:`MarkovModulatedArrivals`
and :class:`ParetoBurstArrivals` deliberately violate temporal
independence (for robustness experiments); their docstrings say so.

Stateful processes mirror the channel layer's capability surface
(:mod:`repro.phy.channel`): ``has_state`` / ``state_uses_rng`` /
``supports_batch_state`` answer the engines' dispatch questions,
``reset_state`` returns a process to its run-construction state (every
scalar/sync run calls it, so shared instances never leak chain state
between replications), and :meth:`ArrivalProcess.stack_rows` /
:class:`ArrivalStateRows` evolve the per-(seed, link) state vectorized
for the batch engines.  Batched state draws come from the dedicated
``"arrival-state"`` substream, so enabling it never perturbs the
Bernoulli/bursty draw schedules on the plain ``"arrivals"`` streams.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ArrivalProcess",
    "ArrivalStateRows",
    "BernoulliArrivals",
    "BurstyVideoArrivals",
    "ConstantArrivals",
    "TruncatedPoissonArrivals",
    "CorrelatedBurstArrivals",
    "MarkovModulatedArrivals",
    "ParetoBurstArrivals",
    "arrivals_from_spec",
]


class ArrivalStateRows(ABC):
    """Vectorized arrival state for a stack of replication rows.

    Built by :meth:`ArrivalProcess.stack_rows` (one process per row, all
    of one family); owned by the batch engine's arrival draw pipeline.
    Unlike channel-state rows (which return probability planes consumed
    by the kernels' retry draws), arrival-state rows return the interval's
    ``(rows, links)`` int64 arrival counts directly: :meth:`evolve`
    advances every row's modulating state by **one interval** and samples
    that interval's arrivals; :meth:`evolve_block` amortizes the
    per-call generator overhead over a whole draw chunk.
    """

    #: Whether evolution consumes random draws (Markov/burst state) or is
    #: a deterministic function of the interval index.
    uses_rng: bool = True

    @abstractmethod
    def evolve(self, rng: Optional[np.random.Generator]) -> np.ndarray:
        """Advance one interval; return ``(rows, links)`` int64 arrivals."""

    def evolve_block(
        self,
        depth: int,
        rng: Optional[np.random.Generator],
        out: np.ndarray,
    ) -> np.ndarray:
        """Advance ``depth`` intervals, filling ``out`` (depth, rows, links)."""
        for d in range(depth):
            out[d] = self.evolve(rng)
        return out


class ArrivalProcess(ABC):
    """Per-network arrival process: one ``sample`` per interval.

    Implementations must guarantee ``0 <= A_n <= max_per_link`` and expose
    the mean vector ``lambda`` for requirement bookkeeping.
    """

    @property
    @abstractmethod
    def num_links(self) -> int:
        """Number of links this process feeds."""

    @property
    @abstractmethod
    def mean_rates(self) -> np.ndarray:
        """``lambda_n`` — expected packets per interval per link."""

    @property
    @abstractmethod
    def max_per_link(self) -> int:
        """The uniform bound ``A_max`` on any single link's arrivals."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one interval's arrival vector ``A(k)`` (integer array)."""

    @property
    def supports_batch_sampling(self) -> bool:
        """Whether :meth:`sample_batch` yields independent replications.

        True for processes that are i.i.d. across intervals (everything the
        paper's model allows).  Stateful extensions whose ``sample`` mutates
        shared state (e.g. :class:`MarkovModulatedArrivals`) return False:
        a single generator cannot advance ``S`` independent copies of their
        modulating chains.  Such processes may still run vectorized through
        the batch-state plane when they declare
        :attr:`supports_batch_state`.
        """
        return True

    # -- capability surface (engines dispatch on these, never on types) ----
    @property
    def has_state(self) -> bool:
        """Whether the process carries per-interval state to reset/evolve."""
        return False

    @property
    def state_uses_rng(self) -> bool:
        """Whether the state evolution consumes random draws.

        Stochastic state restricts the batch engines to the ``rng="free"``
        discipline: lockstep batch streams cannot host the extra
        evolution draws without shifting every stateless schedule.
        """
        return False

    @property
    def supports_batch_state(self) -> bool:
        """Whether :meth:`stack_rows` can evolve this process vectorized.

        ``False`` degrades honestly to the scalar engine (or sync-mode
        per-row clones).
        """
        return False

    # -- per-interval state (no-ops for stateless processes) ---------------
    def reset_state(self) -> None:
        """Return the process to its initial state (run construction).

        Every scalar/sync-mode run calls this before its first interval,
        so a process instance shared across runs (or across replication
        rows) never leaks modulating-chain state from one run into the
        next.  Stateless processes inherit the no-op.
        """

    def begin_interval(self, rng: np.random.Generator) -> None:
        """Optional hook evolving state decoupled from sampling.

        The built-in stateful processes evolve inside :meth:`sample`
        (keeping every draw on the single per-seed ``"arrivals"`` stream,
        which is what makes sync-mode batch rows scalar-identical), so
        this is a no-op for them; it exists for extensions whose state
        advances even on intervals they do not sample.
        """

    # -- batch-state construction ------------------------------------------
    @classmethod
    def stack_rows(
        cls, processes: Sequence["ArrivalProcess"]
    ) -> Optional[ArrivalStateRows]:
        """Vectorized state for one process per replication row.

        ``None`` for stateless families: their batched draws go through
        :meth:`sample_batch`, bit-identical to the pre-state-layer
        behavior.
        """
        return None

    def init_state_batch(self, num_rows: int) -> Optional[ArrivalStateRows]:
        """:meth:`stack_rows` over ``num_rows`` copies of this process."""
        return type(self).stack_rows((self,) * int(num_rows))

    def evolve_batch(
        self, state: ArrivalStateRows, rng: Optional[np.random.Generator]
    ) -> np.ndarray:
        """Advance ``state`` one interval; the ``(rows, links)`` arrivals."""
        if state is None:
            raise TypeError(
                f"{type(self).__name__} is stateless and has no batch "
                "state to evolve"
            )
        return state.evolve(rng)

    def take_links(
        self, links: Sequence[int], pad: int = 0
    ) -> "ArrivalProcess":
        """Rebuild the process restricted to ``links`` plus ``pad`` dead
        links that never arrive (the topology layer's per-cell slicing).
        Exact when links are mutually independent (the joint law
        factorizes); other families must raise."""
        raise TypeError(
            f"{type(self).__name__} cannot be sliced per cell: the "
            "topology layer needs cross-link-independent arrivals (the joint "
            "law must factor across cells)"
        )

    def sample_batch(self, rng: np.random.Generator, num_seeds: int) -> np.ndarray:
        """Draw one interval's arrivals for ``num_seeds`` replications.

        Returns an ``(S, N)`` integer array of independent draws.  The
        generic implementation stacks ``S`` scalar draws; stateless
        processes override it with a single vectorized draw.  Either way
        the stacked result goes through :meth:`_check_batch`, so a
        subclass whose ``sample`` strays outside ``[0, max_per_link]``
        (or the ``(N,)`` shape) fails loudly here too.
        """
        if num_seeds < 1:
            raise ValueError(f"num_seeds must be >= 1, got {num_seeds}")
        if not self.supports_batch_sampling:
            raise TypeError(
                f"{type(self).__name__} is stateful across intervals and "
                "cannot produce independent batched replications"
            )
        return self._check_batch(
            np.stack([self.sample(rng) for _ in range(num_seeds)]), num_seeds
        )

    def _check(self, arrivals: np.ndarray) -> np.ndarray:
        if arrivals.shape != (self.num_links,):
            raise AssertionError(
                f"arrival vector shape {arrivals.shape} != ({self.num_links},)"
            )
        if np.any(arrivals < 0) or np.any(arrivals > self.max_per_link):
            raise AssertionError(
                f"arrivals {arrivals} outside [0, {self.max_per_link}]"
            )
        return arrivals

    def _check_batch(self, arrivals: np.ndarray, num_seeds: int) -> np.ndarray:
        if arrivals.shape != (num_seeds, self.num_links):
            raise AssertionError(
                f"batch arrival shape {arrivals.shape} != "
                f"({num_seeds}, {self.num_links})"
            )
        if np.any(arrivals < 0) or np.any(arrivals > self.max_per_link):
            raise AssertionError(
                f"batch arrivals outside [0, {self.max_per_link}]"
            )
        return arrivals


@dataclass(frozen=True)
class BernoulliArrivals(ArrivalProcess):
    """Independent ``A_n ~ Bernoulli(rate_n)`` per interval (Section VI-B)."""

    rates: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.rates:
            raise ValueError("need at least one link")
        for r in self.rates:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"Bernoulli rate must lie in [0, 1], got {r}")

    @classmethod
    def symmetric(cls, num_links: int, rate: float) -> "BernoulliArrivals":
        return cls(rates=(rate,) * num_links)

    @property
    def num_links(self) -> int:
        return len(self.rates)

    @property
    def mean_rates(self) -> np.ndarray:
        return np.asarray(self.rates, dtype=float)

    @property
    def max_per_link(self) -> int:
        return 1

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        draws = rng.random(self.num_links) < np.asarray(self.rates)
        return self._check(draws.astype(np.int64))

    def sample_batch(self, rng: np.random.Generator, num_seeds: int) -> np.ndarray:
        draws = rng.random((num_seeds, self.num_links)) < np.asarray(self.rates)
        return self._check_batch(draws.astype(np.int64), num_seeds)

    def take_links(
        self, links: Sequence[int], pad: int = 0
    ) -> "BernoulliArrivals":
        rates = tuple(self.rates[l] for l in links) + (0.0,) * int(pad)
        return BernoulliArrivals(rates=rates)


@dataclass(frozen=True)
class BurstyVideoArrivals(ArrivalProcess):
    """The paper's bursty video model (Section VI-A).

    With probability ``alpha_n`` link ``n`` receives a burst uniform on
    ``{1, ..., burst_max}`` (6 in the paper), else 0 packets; so
    ``lambda_n = alpha_n * (burst_max + 1) / 2 = 3.5 alpha_n``.
    """

    alphas: Tuple[float, ...]
    burst_max: int = 6

    def __post_init__(self) -> None:
        if not self.alphas:
            raise ValueError("need at least one link")
        for a in self.alphas:
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"alpha must lie in [0, 1], got {a}")
        if self.burst_max < 1:
            raise ValueError(f"burst_max must be >= 1, got {self.burst_max}")
        # The per-call comparand, converted once (not a field: equality,
        # hashing and the config codec see ``alphas`` only).
        object.__setattr__(self, "_alpha_vec", np.asarray(self.alphas))

    @classmethod
    def symmetric(cls, num_links: int, alpha: float, burst_max: int = 6):
        return cls(alphas=(alpha,) * num_links, burst_max=burst_max)

    @property
    def num_links(self) -> int:
        return len(self.alphas)

    @property
    def mean_rates(self) -> np.ndarray:
        return np.asarray(self.alphas) * (self.burst_max + 1) / 2.0

    @property
    def max_per_link(self) -> int:
        return self.burst_max

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        active = rng.random(self.num_links) < self._alpha_vec
        bursts = rng.integers(1, self.burst_max + 1, size=self.num_links)
        return self._check(np.where(active, bursts, 0).astype(np.int64))

    def sample_batch(self, rng: np.random.Generator, num_seeds: int) -> np.ndarray:
        shape = (num_seeds, self.num_links)
        active = rng.random(shape) < self._alpha_vec
        bursts = rng.integers(1, self.burst_max + 1, size=shape, dtype=np.int64)
        np.multiply(bursts, active, out=bursts)
        return self._check_batch(bursts, num_seeds)

    def take_links(
        self, links: Sequence[int], pad: int = 0
    ) -> "BurstyVideoArrivals":
        alphas = tuple(self.alphas[l] for l in links) + (0.0,) * int(pad)
        return BurstyVideoArrivals(alphas=alphas, burst_max=self.burst_max)


@dataclass(frozen=True)
class ConstantArrivals(ArrivalProcess):
    """Deterministic ``A_n = counts_n`` every interval.

    The classical Hou-Borkar-Kumar setting (exactly one packet per client
    per interval) is ``ConstantArrivals.symmetric(n, 1)``; with it,
    timely-throughput equals delivery ratio (Section II-C).
    """

    counts: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("need at least one link")
        for c in self.counts:
            if c < 0:
                raise ValueError(f"counts must be nonnegative, got {c}")

    @classmethod
    def symmetric(cls, num_links: int, count: int = 1) -> "ConstantArrivals":
        return cls(counts=(count,) * num_links)

    @property
    def num_links(self) -> int:
        return len(self.counts)

    @property
    def mean_rates(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float)

    @property
    def max_per_link(self) -> int:
        return max(self.counts) if self.counts else 0

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self._check(np.asarray(self.counts, dtype=np.int64))

    def sample_batch(self, rng: np.random.Generator, num_seeds: int) -> np.ndarray:
        row = np.asarray(self.counts, dtype=np.int64)
        return self._check_batch(np.tile(row, (num_seeds, 1)), num_seeds)

    def take_links(
        self, links: Sequence[int], pad: int = 0
    ) -> "ConstantArrivals":
        counts = tuple(self.counts[l] for l in links) + (0,) * int(pad)
        return ConstantArrivals(counts=counts)


@dataclass(frozen=True)
class TruncatedPoissonArrivals(ArrivalProcess):
    """Poisson arrivals truncated at ``cap`` to respect the ``A_max`` bound.

    The mean rates are computed exactly for the truncated distribution, not
    approximated by the raw Poisson rate.
    """

    poisson_rates: Tuple[float, ...]
    cap: int = 8

    def __post_init__(self) -> None:
        if not self.poisson_rates:
            raise ValueError("need at least one link")
        for r in self.poisson_rates:
            if r < 0:
                raise ValueError(f"rates must be nonnegative, got {r}")
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")

    @property
    def num_links(self) -> int:
        return len(self.poisson_rates)

    @property
    def mean_rates(self) -> np.ndarray:
        from scipy import stats

        means = []
        for lam in self.poisson_rates:
            ks = np.arange(self.cap + 1)
            pmf = stats.poisson.pmf(ks, lam)
            # All mass above the cap collapses onto the cap.
            pmf[-1] += stats.poisson.sf(self.cap, lam)
            means.append(float(np.dot(ks, pmf)))
        return np.asarray(means)

    @property
    def max_per_link(self) -> int:
        return self.cap

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        raw = rng.poisson(np.asarray(self.poisson_rates))
        return self._check(np.minimum(raw, self.cap).astype(np.int64))

    def sample_batch(self, rng: np.random.Generator, num_seeds: int) -> np.ndarray:
        rates = np.asarray(self.poisson_rates)
        raw = rng.poisson(rates, size=(num_seeds, self.num_links))
        return self._check_batch(np.minimum(raw, self.cap).astype(np.int64), num_seeds)

    def take_links(
        self, links: Sequence[int], pad: int = 0
    ) -> "TruncatedPoissonArrivals":
        rates = tuple(self.poisson_rates[l] for l in links) + (0.0,) * int(pad)
        return TruncatedPoissonArrivals(poisson_rates=rates, cap=self.cap)


@dataclass(frozen=True)
class CorrelatedBurstArrivals(ArrivalProcess):
    """Cross-link-correlated arrivals (allowed by the model, Section II-B).

    A single network-wide Bernoulli(``event_prob``) event decides whether
    *every* link receives a burst this interval; burst sizes are then drawn
    independently per link uniform on ``{1, ..., burst_max}``.  Temporally
    i.i.d., spatially fully correlated — the adversarial extreme of the
    paper's "arrivals of different links might still be correlated".
    """

    num_links_: int
    event_prob: float
    burst_max: int = 3

    def __post_init__(self) -> None:
        if self.num_links_ < 1:
            raise ValueError("need at least one link")
        if not 0.0 <= self.event_prob <= 1.0:
            raise ValueError(f"event_prob must lie in [0, 1], got {self.event_prob}")
        if self.burst_max < 1:
            raise ValueError(f"burst_max must be >= 1, got {self.burst_max}")

    @property
    def num_links(self) -> int:
        return self.num_links_

    @property
    def mean_rates(self) -> np.ndarray:
        mean_burst = (self.burst_max + 1) / 2.0
        return np.full(self.num_links_, self.event_prob * mean_burst)

    @property
    def max_per_link(self) -> int:
        return self.burst_max

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        if rng.random() >= self.event_prob:
            return self._check(np.zeros(self.num_links_, dtype=np.int64))
        bursts = rng.integers(1, self.burst_max + 1, size=self.num_links_)
        return self._check(bursts.astype(np.int64))

    def sample_batch(self, rng: np.random.Generator, num_seeds: int) -> np.ndarray:
        events = rng.random(num_seeds) < self.event_prob
        bursts = rng.integers(
            1, self.burst_max + 1, size=(num_seeds, self.num_links_)
        )
        out = np.where(events[:, None], bursts, 0).astype(np.int64)
        return self._check_batch(out, num_seeds)


#: Start-state choices for :class:`MarkovModulatedArrivals`.
MMPP_INITIAL_STATES = ("on", "off", "stationary")


class _MarkovModulatedRows(ArrivalStateRows):
    """Per-row ON/OFF modulating chains, evolved as ``(R, N)`` planes.

    Each interval consumes two uniform planes per row in the scalar
    ``sample`` order (stay-flip uniforms, then Bernoulli uniforms), so
    the vectorized chain has exactly the scalar law.
    """

    uses_rng = True

    def __init__(self, processes: Sequence["MarkovModulatedArrivals"]):
        self._on_rate = np.stack([p._rate_vec(True) for p in processes])
        self._off_rate = np.stack([p._rate_vec(False) for p in processes])
        self._stay_on = np.stack(
            [np.full(p.num_links, p.p_stay_on) for p in processes]
        )
        self._stay_off = np.stack(
            [np.full(p.num_links, p.p_stay_off) for p in processes]
        )
        # Every row starts in its process's initial state, matching the
        # scalar reset_state: the first evolve happens before interval 0
        # on every engine, so distributions line up exactly.
        self._on = np.stack([p._initial_state_vector() for p in processes])
        self._stay = np.empty(self._on.shape)
        self._rates = np.empty(self._on.shape)

    def _step(self, flip_u: np.ndarray, draw_u: np.ndarray) -> np.ndarray:
        np.copyto(self._stay, self._stay_off)
        np.copyto(self._stay, self._stay_on, where=self._on)
        self._on ^= flip_u >= self._stay
        np.copyto(self._rates, self._off_rate)
        np.copyto(self._rates, self._on_rate, where=self._on)
        return (draw_u < self._rates).astype(np.int64)

    def evolve(self, rng: Optional[np.random.Generator]) -> np.ndarray:
        u = rng.random((2,) + self._on.shape)
        return self._step(u[0], u[1])

    def evolve_block(
        self,
        depth: int,
        rng: Optional[np.random.Generator],
        out: np.ndarray,
    ) -> np.ndarray:
        # One generator call per chunk: (depth, 2, R, N) uniforms consumed
        # in interval order, then depth cheap (R, N) vector steps.
        u = rng.random((depth, 2) + self._on.shape)
        for d in range(depth):
            out[d] = self._step(u[d, 0], u[d, 1])
        return out


class MarkovModulatedArrivals(ArrivalProcess):
    """Two-state (ON/OFF) Markov-modulated Bernoulli arrivals.

    **Deliberately violates the paper's temporal-independence assumption** —
    used only in robustness experiments to probe DB-DP's behaviour outside
    its analyzed regime.  ``mean_rates`` reports the stationary mean.

    ``initial_state`` picks where each link's modulating chain starts:

    * ``"on"`` (default, the historical behavior) — every chain starts
      ON.  Short-horizon runs are then biased high relative to
      ``mean_rates``, which reports the *stationary* mean; the bias
      decays on the chain's mixing timescale ``1 / (2 - p_stay_on -
      p_stay_off)``.
    * ``"off"`` — every chain starts OFF (biased low symmetrically).
    * ``"stationary"`` — per-link start states drawn once from the
      stationary distribution, seeded deterministically from the process
      parameters (the same vector on every reset and on every
      replication row, so results stay reproducible and engines stay
      comparable); unbiased in expectation across links.

    The chain itself is mutable per-interval state, not a parameter:
    :meth:`reset_state` restores the initial state, equality and the
    config codec (:meth:`to_config` / :meth:`from_config`) cover
    parameters only.
    """

    def __init__(
        self,
        num_links: int,
        on_rate: float,
        off_rate: float = 0.0,
        p_stay_on: float = 0.9,
        p_stay_off: float = 0.9,
        initial_state: str = "on",
    ):
        if num_links < 1:
            raise ValueError("need at least one link")
        for name, value in [
            ("on_rate", on_rate),
            ("off_rate", off_rate),
            ("p_stay_on", p_stay_on),
            ("p_stay_off", p_stay_off),
        ]:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if initial_state not in MMPP_INITIAL_STATES:
            raise ValueError(
                f"initial_state must be one of {MMPP_INITIAL_STATES}, "
                f"got {initial_state!r}"
            )
        self._n = int(num_links)
        self._on_rate = float(on_rate)
        self._off_rate = float(off_rate)
        self._p_stay_on = float(p_stay_on)
        self._p_stay_off = float(p_stay_off)
        self._initial_state = str(initial_state)
        self._state_on = self._initial_state_vector()

    # -- parameter accessors (read-only; the chain is the only mutable) ----
    @property
    def on_rate(self) -> float:
        return self._on_rate

    @property
    def off_rate(self) -> float:
        return self._off_rate

    @property
    def p_stay_on(self) -> float:
        return self._p_stay_on

    @property
    def p_stay_off(self) -> float:
        return self._p_stay_off

    @property
    def initial_state(self) -> str:
        return self._initial_state

    def _rate_vec(self, on: bool) -> np.ndarray:
        return np.full(self._n, self._on_rate if on else self._off_rate)

    @property
    def _pi_on(self) -> float:
        """Stationary probability of the ON state."""
        leave_on = 1.0 - self._p_stay_on
        leave_off = 1.0 - self._p_stay_off
        if leave_on + leave_off == 0:
            # Both states absorbing: the chain freezes where it starts.
            return 1.0 if self._initial_state != "off" else 0.0
        return leave_off / (leave_on + leave_off)

    def _initial_state_vector(self) -> np.ndarray:
        """The per-link start states :meth:`reset_state` restores."""
        if self._initial_state == "on":
            return np.ones(self._n, dtype=bool)
        if self._initial_state == "off":
            return np.zeros(self._n, dtype=bool)
        # "stationary": one seeded draw, a pure function of the process
        # parameters — every reset (and every batch row) restores the
        # same vector, keeping runs reproducible and engines comparable.
        key = repr((
            "mmpp-stationary", self._n, self._on_rate, self._off_rate,
            self._p_stay_on, self._p_stay_off,
        ))
        digest = hashlib.sha256(key.encode()).digest()
        seq = np.random.SeedSequence(int.from_bytes(digest[:8], "little"))
        gen = np.random.Generator(np.random.PCG64(seq))
        return gen.random(self._n) < self._pi_on

    # ------------------------------------------------------------------
    @property
    def num_links(self) -> int:
        return self._n

    @property
    def mean_rates(self) -> np.ndarray:
        pi_on = self._pi_on
        mean = pi_on * self._on_rate + (1.0 - pi_on) * self._off_rate
        return np.full(self._n, mean)

    @property
    def max_per_link(self) -> int:
        return 1

    @property
    def supports_batch_sampling(self) -> bool:
        # The modulating chain is per-process state: one generator cannot
        # advance S independent copies of it, so lockstep batching is
        # refused; the batch-state plane (stack_rows) is the vectorized
        # path instead.
        return False

    @property
    def has_state(self) -> bool:
        return True

    @property
    def state_uses_rng(self) -> bool:
        return True

    @property
    def supports_batch_state(self) -> bool:
        return True

    def reset_state(self) -> None:
        self._state_on = self._initial_state_vector()

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        stay = np.where(self._state_on, self._p_stay_on, self._p_stay_off)
        flip = rng.random(self._n) >= stay
        self._state_on = np.where(flip, ~self._state_on, self._state_on)
        rates = np.where(self._state_on, self._on_rate, self._off_rate)
        draws = rng.random(self._n) < rates
        return self._check(draws.astype(np.int64))

    # ------------------------------------------------------------------
    @classmethod
    def stack_rows(
        cls, processes: Sequence["ArrivalProcess"]
    ) -> ArrivalStateRows:
        for p in processes:
            if not p.supports_batch_state:
                raise TypeError(
                    f"{type(p).__name__} declines batch state; run it on "
                    "the scalar engine or under rng='sync'"
                )
        return _MarkovModulatedRows(processes)

    # -- value semantics & config codec (parameters only, never the chain) -
    def _params(self) -> Tuple:
        return (
            self._n, self._on_rate, self._off_rate,
            self._p_stay_on, self._p_stay_off, self._initial_state,
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._params() == other._params()

    def __hash__(self) -> int:
        return hash((type(self).__name__,) + self._params())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_links={self._n}, "
            f"on_rate={self._on_rate}, off_rate={self._off_rate}, "
            f"p_stay_on={self._p_stay_on}, p_stay_off={self._p_stay_off}, "
            f"initial_state={self._initial_state!r})"
        )

    def to_config(self) -> Dict[str, object]:
        """Parameter dict for the registry's config codec (cache keys,
        scenario round-trips); the mutable chain is excluded."""
        return {
            "num_links": self._n,
            "on_rate": self._on_rate,
            "off_rate": self._off_rate,
            "p_stay_on": self._p_stay_on,
            "p_stay_off": self._p_stay_off,
            "initial_state": self._initial_state,
        }

    @classmethod
    def from_config(cls, config: Dict[str, object]) -> "MarkovModulatedArrivals":
        return cls(**config)


class _ParetoBurstRows(ArrivalStateRows):
    """Per-row heavy-tailed burst state, evolved as ``(R, N)`` planes.

    Each interval consumes two uniform planes per row in the scalar
    ``sample`` order (burst-start uniforms, then duration uniforms);
    the row-wise inverse-CDF lookup replaces the scalar searchsorted.
    """

    uses_rng = True

    def __init__(self, processes: Sequence["ParetoBurstArrivals"]):
        self._start_prob = np.stack(
            [np.full(p.num_links, p.start_prob) for p in processes]
        )
        self._peak = np.stack(
            [np.full(p.num_links, p.peak, dtype=np.int64) for p in processes]
        )
        # Per-row duration CDF tables, right-padded with 1.0 so rows with
        # shorter dur_max never draw past their own support.
        width = max(p.dur_max for p in processes)
        self._cdf = np.ones((len(processes), width))
        for i, p in enumerate(processes):
            self._cdf[i, : p.dur_max] = p._dur_cdf
        # Every row starts idle, matching the scalar reset_state.
        self._remaining = np.zeros(self._start_prob.shape, dtype=np.int64)

    def _step(self, start_u: np.ndarray, dur_u: np.ndarray) -> np.ndarray:
        rem = self._remaining
        start = (rem == 0) & (start_u < self._start_prob)
        # Row-wise searchsorted(side="right"): count cdf entries <= u.
        durations = (dur_u[:, :, None] >= self._cdf[:, None, :]).sum(axis=-1) + 1
        np.copyto(rem, durations, where=start)
        active = rem > 0
        out = np.where(active, self._peak, 0)
        rem[active] -= 1
        return out

    def evolve(self, rng: Optional[np.random.Generator]) -> np.ndarray:
        u = rng.random((2,) + self._start_prob.shape)
        return self._step(u[0], u[1])

    def evolve_block(
        self,
        depth: int,
        rng: Optional[np.random.Generator],
        out: np.ndarray,
    ) -> np.ndarray:
        u = rng.random((depth, 2) + self._start_prob.shape)
        for d in range(depth):
            out[d] = self._step(u[d, 0], u[d, 1])
        return out


@dataclass(frozen=True)
class ParetoBurstArrivals(ArrivalProcess):
    """Heavy-tailed ON-period bursts: truncated discrete Pareto durations.

    Each idle link starts a burst with probability ``start_prob`` per
    interval; a burst delivers ``peak`` packets per interval for ``L``
    consecutive intervals, with ``P(L = l) ∝ l**-tail`` on ``{1, ...,
    dur_max}`` — the heavy-tailed ON/OFF workload of the stability-
    boundary literature (Shneer–Stolyar, arXiv:1810.08711), truncated at
    ``dur_max`` so ``max_per_link`` stays bounded and means stay exact.

    **Deliberately violates the paper's temporal-independence
    assumption** (like :class:`MarkovModulatedArrivals`) — robustness
    experiments only.  The per-link remaining-burst counter is mutable
    state: :meth:`reset_state` returns every link to idle; equality and
    fingerprints cover the parameters only (dataclass fields).
    """

    num_links_: int
    start_prob: float
    tail: float = 1.5
    dur_max: int = 64
    peak: int = 1

    def __post_init__(self) -> None:
        if self.num_links_ < 1:
            raise ValueError("need at least one link")
        if not 0.0 < self.start_prob <= 1.0:
            raise ValueError(
                f"start_prob must lie in (0, 1], got {self.start_prob}"
            )
        if self.tail <= 0.0:
            raise ValueError(f"tail must be positive, got {self.tail}")
        if self.dur_max < 1:
            raise ValueError(f"dur_max must be >= 1, got {self.dur_max}")
        if self.peak < 1:
            raise ValueError(f"peak must be >= 1, got {self.peak}")
        lengths = np.arange(1, self.dur_max + 1, dtype=float)
        pmf = lengths ** -float(self.tail)
        pmf /= pmf.sum()
        cdf = np.cumsum(pmf)
        cdf[-1] = 1.0  # exact top end: uniforms in [0, 1) never overflow
        # Mutable per-interval state and the precomputed lookup table are
        # NOT dataclass fields: equality/hash/fingerprints skip them.
        object.__setattr__(self, "_dur_cdf", cdf)
        object.__setattr__(self, "_mean_duration", float(pmf @ lengths))
        object.__setattr__(
            self, "_remaining", np.zeros(self.num_links_, dtype=np.int64)
        )

    @property
    def num_links(self) -> int:
        return self.num_links_

    @property
    def mean_rates(self) -> np.ndarray:
        # Renewal cycle: mean (1 - q)/q idle intervals (geometric failures
        # before a start), then E[L] active intervals at `peak` packets.
        idle = (1.0 - self.start_prob) / self.start_prob
        mean = self.peak * self._mean_duration / (self._mean_duration + idle)
        return np.full(self.num_links_, mean)

    @property
    def max_per_link(self) -> int:
        return self.peak

    @property
    def supports_batch_sampling(self) -> bool:
        # Remaining-burst counters are per-process state: one generator
        # cannot advance S independent copies in lockstep; the batch-state
        # plane (stack_rows) is the vectorized path instead.
        return False

    @property
    def has_state(self) -> bool:
        return True

    @property
    def state_uses_rng(self) -> bool:
        return True

    @property
    def supports_batch_state(self) -> bool:
        return True

    def reset_state(self) -> None:
        self._remaining[:] = 0

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        rem = self._remaining
        start_u = rng.random(self.num_links_)
        dur_u = rng.random(self.num_links_)
        start = (rem == 0) & (start_u < self.start_prob)
        durations = np.searchsorted(self._dur_cdf, dur_u, side="right") + 1
        np.copyto(rem, durations, where=start)
        active = rem > 0
        out = np.where(active, self.peak, 0).astype(np.int64)
        rem[active] -= 1
        return self._check(out)

    @classmethod
    def stack_rows(
        cls, processes: Sequence["ArrivalProcess"]
    ) -> ArrivalStateRows:
        for p in processes:
            if not p.supports_batch_state:
                raise TypeError(
                    f"{type(p).__name__} declines batch state; run it on "
                    "the scalar engine or under rng='sync'"
                )
        return _ParetoBurstRows(processes)


def arrivals_from_spec(text: str, num_links: int) -> ArrivalProcess:
    """Build an arrival process from a CLI-style spec string.

    Formats (fields are colon-separated)::

        bernoulli:RATE               i.i.d. Bernoulli(RATE) on every link
        bursty:ALPHA[:BURST_MAX]     the paper's bursty video model
                                     (burst uniform on {1..BURST_MAX},
                                     default 6)
        constant:COUNT               COUNT packets per link per interval
        mmpp:ON[:OFF[:P_ON[:P_OFF[:INITIAL]]]]
                                     Markov-modulated Bernoulli; OFF
                                     defaults to 0, stay probabilities to
                                     0.9, INITIAL (on/off/stationary)
                                     to "on"
        pareto:START[:TAIL[:DUR_MAX[:PEAK]]]
                                     heavy-tailed bursts: start prob
                                     START, Pareto tail TAIL (default
                                     1.5), durations truncated at
                                     DUR_MAX (default 64), PEAK packets
                                     per burst interval (default 1)

    MMPP and Pareto carry stochastic per-interval state, so on the
    batch/fused engines they need ``rng="free"`` (statistically
    equivalent) or ``rng="sync"`` (bit-identical, scalar-speed).
    """
    parts = str(text).split(":")
    kind, args = parts[0].lower(), parts[1:]
    try:
        if kind == "bernoulli":
            (rate,) = args
            return BernoulliArrivals.symmetric(num_links, float(rate))
        if kind == "bursty":
            if len(args) == 1:
                (alpha,), burst_max = args, 6
            else:
                alpha, burst_max = args
            return BurstyVideoArrivals.symmetric(
                num_links, float(alpha), burst_max=int(burst_max)
            )
        if kind == "constant":
            (count,) = args
            return ConstantArrivals.symmetric(num_links, int(count))
        if kind == "mmpp":
            if not 1 <= len(args) <= 5:
                raise ValueError("expected 1-5 fields after 'mmpp'")
            on = float(args[0])
            off = float(args[1]) if len(args) > 1 else 0.0
            p_on = float(args[2]) if len(args) > 2 else 0.9
            p_off = float(args[3]) if len(args) > 3 else 0.9
            initial = args[4] if len(args) > 4 else "on"
            return MarkovModulatedArrivals(
                num_links,
                on_rate=on,
                off_rate=off,
                p_stay_on=p_on,
                p_stay_off=p_off,
                initial_state=initial,
            )
        if kind == "pareto":
            if not 1 <= len(args) <= 4:
                raise ValueError("expected 1-4 fields after 'pareto'")
            start = float(args[0])
            tail = float(args[1]) if len(args) > 1 else 1.5
            dur_max = int(args[2]) if len(args) > 2 else 64
            peak = int(args[3]) if len(args) > 3 else 1
            return ParetoBurstArrivals(
                num_links,
                start_prob=start,
                tail=tail,
                dur_max=dur_max,
                peak=peak,
            )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad arrivals spec {text!r}: {exc}") from exc
    raise ValueError(
        f"unknown arrivals kind {kind!r} in {text!r}; expected "
        "'bernoulli:rate', 'bursty:alpha[:burst_max]', 'constant:count', "
        "'mmpp:on[:off[:p_on[:p_off[:initial]]]]' or "
        "'pareto:start[:tail[:dur_max[:peak]]]'"
    )
