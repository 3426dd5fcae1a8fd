"""An exact sequential reference for the batch DP kernel, and a harness
that checks the kernel against it on the kernel's own draws.

``BatchDPKernel`` solves a whole stack's interval timeline in closed
form, in integer time units, counting every wanted empty claim as aired.
The reference walks one row at a time in service order, the way the
scalar protocol does, in exact rational microseconds: a claim that does
not fit costs no airtime.  Shared by ``test_dp_claim_repair.py``,
``test_incremental_dp.py`` and ``test_batch_kernels.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from repro.core.dp_protocol import compute_backoffs


def exact_timing(timing) -> SimpleNamespace:
    """``timing``'s four values as exact fractions of a microsecond, each
    read as the decimal its float prints as."""
    return SimpleNamespace(
        T=Fraction(repr(float(timing.interval_us))),
        air=Fraction(repr(float(timing.data_airtime_us))),
        empty=Fraction(repr(float(timing.empty_airtime_us))),
        slot=Fraction(repr(float(timing.backoff_slot_us))),
        us=timing,
    )


def reference_interval(sigma, cands, xi, arrivals, cum, timing, *, claims_fit=False):
    """One row's DP interval, walked in service order.

    ``sigma`` is the priority vector, ``cands`` the candidate indices,
    ``xi`` the coin of every candidate link (``link -> +-1``),
    ``arrivals`` the backlog per link, ``cum`` the ``(n, A)`` cumulative
    attempts each link needs for its first packets, and ``timing`` an
    :func:`exact_timing`.  ``claims_fit=True`` counts every wanted claim
    as aired when placing later links (the kernel's closed form) instead
    of only the claims that fit.

    Returns the deliveries and attempts per link, the busy and overhead
    time (counts times the microsecond constants, as the kernel forms
    them), the next priority vector, and how many claims did not fit.
    """
    n = len(sigma)
    if cands:
        backoffs = compute_backoffs(sigma, cands, xi)
    else:
        backoffs = {link: sigma[link] - 1 for link in range(n)}
    order = [0] * n
    for link, p in enumerate(sigma):
        order[p - 1] = link
    pairs = [(order[c - 1], order[c]) for c in cands]
    claimants = {link for pair in pairs for link in pair if arrivals[link] == 0}
    T, air, empty, slot = timing.T, timing.air, timing.empty, timing.slot
    deliveries = np.zeros(n, dtype=np.int64)
    attempts = np.zeros(n, dtype=np.int64)
    start_of = {}
    att_total = claims = aired = idle = misfits = 0
    for link in sorted(range(n), key=backoffs.__getitem__):
        backlog = int(arrivals[link])
        if backlog == 0 and link not in claimants:
            continue
        start = att_total * air + claims * empty + backoffs[link] * slot
        if backlog > 0:
            budget = (T - start) // air
            if budget <= 0:
                continue
            row = cum[link]
            tot = int(row[backlog - 1])
            if tot <= budget:
                used, served = tot, backlog
            else:
                used, served = int(budget), bisect_right(row, budget, 0, backlog)
            att_total += used
            deliveries[link] = served
            attempts[link] = used
        else:
            fits = start + empty <= T if empty > 0 else start < T
            if not fits:
                misfits += 1
                if claims_fit:
                    claims += 1
                continue
            claims += 1
            aired += 1
        start_of[link] = start
        idle = max(idle, backoffs[link])
    next_sigma = list(sigma)
    for down, up in pairs:
        if (
            xi[down] == -1
            and xi[up] == 1
            and up in start_of
            and start_of[up] + air <= T
        ):
            next_sigma[down], next_sigma[up] = sigma[up], sigma[down]
    us = timing.us
    empty_us = aired * us.empty_airtime_us
    return SimpleNamespace(
        deliveries=deliveries,
        attempts=attempts,
        busy=att_total * us.data_airtime_us + empty_us,
        overhead=idle * us.backoff_slot_us + empty_us,
        sigma=next_sigma,
        misfits=misfits,
    )


class ReferenceCheck:
    """Checks every interval a bound ``BatchDPKernel`` runs against
    :func:`reference_interval`, row by row, on the kernel's own
    candidates, coins, channel draws and arrivals.

    Wraps the kernel instance's ``run_interval`` and draw sources, so
    the simulator drives the kernel unchanged.  ``misfits`` counts the
    claims that did not fit, ``intervals`` the checked intervals.  With
    ``strict=False`` nothing is asserted: ``departures`` counts the rows
    whose attempts differ from the reference.
    """

    def __init__(self, kernel, *, strict=True):
        assert not kernel._sync, "sync rows run the scalar protocol itself"
        self.kernel = kernel
        self.timing = exact_timing(kernel.spec.timing)
        self.strict = strict
        self.misfits = 0
        self.departures = 0
        self.intervals = 0
        self._seen = {}
        self._spy("cands", kernel, "_draw_candidates")
        self._spy("coins", kernel._coin_draws, "next")
        self._spy("needed", kernel._channel_draws, "next")
        self._run = kernel.run_interval
        kernel.run_interval = self._run_interval

    def _spy(self, key, owner, name):
        inner = getattr(owner, name)

        def spied(*args, **kwargs):
            value = inner(*args, **kwargs)
            self._seen[key] = np.array(value)
            return value

        setattr(owner, name, spied)

    def _needed_cum(self, S):
        """The interval's ``(S, n, A)`` cumulative retry counts."""
        needed = self._seen["needed"]
        draws = self.kernel._channel_draws
        if not draws.lazy:
            return needed
        # Raw exponentials: the incremental path transforms the rows it
        # gathers; transform every row the same way.
        scaled = needed * draws.scale_rows(S)[:, :, None]
        return np.maximum(np.ceil(scaled), 1.0).cumsum(axis=2)

    def _run_interval(self, k, arrivals, positive_debts, rng):
        kernel = self.kernel
        sigma = kernel._sigma.copy()
        arrivals_in = arrivals.copy()
        debts = positive_debts.copy()
        self._seen.clear()
        got = self._run(k, arrivals, positive_debts, rng)
        S, n = sigma.shape
        cands = self._seen.get("cands", np.zeros((S, 0), dtype=np.int64))
        P = cands.shape[1]
        links = xi = np.zeros((S, 0), dtype=np.int64)
        if P:
            order = np.argsort(sigma, axis=1)
            rows = np.arange(S)[:, None]
            links = np.concatenate(
                [order[rows, cands - 1], order[rows, cands]], axis=1
            )
            rel = np.broadcast_to(kernel._reliabilities, (S, n))
            mu = kernel._active_bias.mu_batch(
                links, debts[rows, links], rel[rows, links]
            )
            xi = np.where(self._seen["coins"] < mu, 1, -1)
        needed = self._needed_cum(S)
        for s in range(S):
            want = reference_interval(
                sigma[s].tolist(),
                tuple(cands[s].tolist()),
                dict(zip(links[s].tolist(), xi[s].tolist())),
                arrivals_in[s],
                needed[s],
                self.timing,
            )
            self.misfits += want.misfits
            if not self.strict:
                self.departures += not np.array_equal(got.attempts[s], want.attempts)
                continue
            context = f"interval {k}, row {s}"
            np.testing.assert_array_equal(got.deliveries[s], want.deliveries, context)
            if got.attempts is not None:
                np.testing.assert_array_equal(got.attempts[s], want.attempts, context)
            assert got.busy_time_us[s] == want.busy, context
            assert got.overhead_time_us[s] == want.overhead, context
            assert got.collisions[s] == 0, context
            if got.priorities is not None:
                np.testing.assert_array_equal(got.priorities[s], sigma[s], context)
            np.testing.assert_array_equal(kernel._sigma[s], want.sigma, context)
        self.intervals += 1
        return got
