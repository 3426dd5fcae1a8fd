"""A scalar reference for the FCSMA/DCF contention kernel, and a helper
that feeds the kernel and the reference the same draws.

Shared by the kernel's example tests (``test_batch_kernels.py``) and its
property test (``tests/properties/test_property_contention.py``).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro import DCFPolicy
from repro.sim.batch_kernels import drain_totals


def reference_contention(u, windows, arrivals, needed, timing, dcf=None):
    """The scalar FCSMA/DCF round loop, one row at a time, on given
    draws: backoff ``floor(u[r, s, l] * W)`` and channel success when the
    solo-attempt count reaches ``needed[s, l, delivered]``.  ``dcf`` is
    ``(cw_min, cw_max)``; DCF windows in ``windows`` are updated in place.
    """
    S, n = arrivals.shape
    out = {
        key: np.zeros((S, n), dtype=np.int64) for key in ("deliveries", "attempts")
    }
    out.update(
        busy=np.zeros(S), overhead=np.zeros(S),
        collisions=np.zeros(S, dtype=np.int64),
    )
    for s in range(S):
        backlog = arrivals[s].astype(np.int64).copy()
        solo = np.zeros(n, dtype=np.int64)
        elapsed = backoff_us = collision_us = 0.0
        for r in range(u.shape[0]):
            contenders = np.flatnonzero(backlog > 0)
            if contenders.size == 0:
                break
            draws = np.floor(u[r, s, contenders] * windows[s, contenders])
            b_min = draws.min()
            start = elapsed + b_min * timing.backoff_slot_us
            if start + timing.data_airtime_us > timing.interval_us:
                break
            backoff_us += b_min * timing.backoff_slot_us
            elapsed = start + timing.data_airtime_us
            winners = contenders[draws == b_min]
            out["attempts"][s, winners] += 1
            if winners.size == 1:
                link = winners[0]
                solo[link] += 1
                if dcf is not None:
                    windows[s, link] = dcf[0]
                if solo[link] == needed[s, link, out["deliveries"][s, link]]:
                    out["deliveries"][s, link] += 1
                    backlog[link] -= 1
            else:
                out["collisions"][s] += 1
                collision_us += timing.data_airtime_us
                if dcf is not None:
                    windows[s, winners] = np.minimum(
                        windows[s, winners] * 2, dcf[1]
                    )
        out["busy"][s] = elapsed - backoff_us
        out["overhead"][s] = backoff_us + collision_us
    return out


class GivenDraws:
    """Stands in for the engine's draw objects with prepared blocks."""

    def __init__(self, blocks):
        self.blocks = iter(blocks)
        self.dtype = np.dtype(np.float32)

    # Channel draws: one cumulative retry-count block per interval.
    def next(self, rng, state_rng=None):
        return next(self.blocks)

    def totals(self, needed, backlog):
        return drain_totals(needed, backlog)

    # Streams: the "policy" stream fills the backoff block.
    def batch_stream(self, name):
        return self

    def random(self, out):
        out[...] = next(self.blocks)


class ReferenceRun:
    """Drives a kernel bound with ``rng="free"`` and the scalar reference
    interval by interval on the same draws, carrying the reference's
    DCF windows across intervals."""

    def __init__(self, kernel, num_rows: int):
        self.kernel = kernel
        self.timing = kernel.spec.timing
        n = kernel.spec.num_links
        self.dcf = None
        self.windows = None
        if isinstance(kernel.policy, DCFPolicy):
            self.dcf = (float(kernel.policy.cw_min), float(kernel.policy.cw_max))
            self.windows = np.full((num_rows, n), self.dcf[0])

    def interval(self, k, arrivals, debts, needed, u):
        """Run interval ``k`` on both, assert they agree, and return the
        kernel's outcome."""
        kernel = self.kernel
        kernel._channel_draws = GivenDraws([needed])
        got = kernel._run_interval_ws(
            k, arrivals, debts,
            SimpleNamespace(free_stream=lambda name: GivenDraws([u])),
        )
        windows = self.windows
        if self.dcf is None:
            window_map = kernel.policy.window_map
            windows = np.array(
                [[window_map.window(d) for d in row] for row in debts],
                dtype=float,
            )
        want = reference_contention(
            u, windows, arrivals, needed, self.timing, self.dcf
        )
        np.testing.assert_array_equal(got.deliveries, want["deliveries"])
        np.testing.assert_array_equal(got.attempts, want["attempts"])
        np.testing.assert_array_equal(got.collisions, want["collisions"])
        np.testing.assert_allclose(got.busy_time_us, want["busy"], rtol=1e-12)
        np.testing.assert_allclose(
            got.overhead_time_us, want["overhead"], rtol=1e-12, atol=1e-9
        )
        return got
