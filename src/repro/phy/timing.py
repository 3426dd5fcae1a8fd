"""802.11a PHY/MAC airtime accounting and interval timing.

The paper's evaluation runs on IEEE 802.11a at 54 Mbps with:

* backoff slot time 9 us ("to account for non-instantaneous carrier
  sensing"),
* ~330 us total airtime for a 1500 B data packet + ACK + interframe spacing
  (real-time video scenario, Section VI-A),
* ~120 us for a 100 B control packet + ACK (Section VI-B),
* ~70 us for an empty priority-claiming packet + interframe spacing
  (Section IV-C).

This module computes those airtimes from first principles (OFDM symbol
structure of 802.11a) and packages them into :class:`IntervalTiming`, the
time model shared by every policy and both simulators.  An *idealized*
timing (Definition 10: zero backoff-slot time, zero empty-packet time,
interval = ``T`` packet transmissions) supports the theory-facing tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal
from functools import cached_property
from typing import Tuple

__all__ = [
    "Dot11aPhy",
    "IntervalTiming",
    "video_timing",
    "low_latency_timing",
    "idealized_timing",
]


@dataclass(frozen=True)
class Dot11aPhy:
    """IEEE 802.11a OFDM PHY constants and airtime formulas.

    All times are microseconds.  Defaults follow the 1999 802.11a standard
    (reference [37] of the paper).
    """

    data_rate_mbps: float = 54.0
    control_rate_mbps: float = 24.0
    slot_time_us: float = 9.0
    sifs_us: float = 16.0
    difs_us: float = 34.0  # SIFS + 2 * slot
    phy_preamble_us: float = 16.0
    phy_signal_us: float = 4.0
    symbol_us: float = 4.0
    mac_header_bytes: int = 28  # MAC header (24-30 B) + FCS, typical data frame
    ack_bytes: int = 14
    service_tail_bits: int = 22  # 16 SERVICE + 6 tail bits
    guard_us: float = 4.0  # Rx/Tx turnaround + propagation margin ([36])

    def _ppdu_airtime_us(self, payload_bytes: int, rate_mbps: float) -> float:
        """Airtime of one PPDU carrying ``payload_bytes`` of MPDU payload."""
        if payload_bytes < 0:
            raise ValueError(f"payload must be nonnegative, got {payload_bytes}")
        bits = 8 * payload_bytes + self.service_tail_bits
        bits_per_symbol = rate_mbps * self.symbol_us
        n_symbols = math.ceil(bits / bits_per_symbol)
        return self.phy_preamble_us + self.phy_signal_us + n_symbols * self.symbol_us

    def data_frame_airtime_us(self, payload_bytes: int) -> float:
        """Airtime of a data frame (payload + MAC header) at the data rate."""
        if payload_bytes < 0:
            raise ValueError(f"payload must be nonnegative, got {payload_bytes}")
        return self._ppdu_airtime_us(
            payload_bytes + self.mac_header_bytes, self.data_rate_mbps
        )

    def ack_airtime_us(self) -> float:
        """Airtime of an ACK frame at the control rate."""
        return self._ppdu_airtime_us(self.ack_bytes, self.control_rate_mbps)

    def exchange_airtime_us(self, payload_bytes: int) -> float:
        """Total channel occupancy of one data transmission attempt.

        DATA + SIFS + ACK + DIFS (the guard before the next contention
        round), matching the paper's "total airtime required by sending a
        data packet plus an ACK and the interframe spacing".
        """
        return (
            self.data_frame_airtime_us(payload_bytes)
            + self.sifs_us
            + self.ack_airtime_us()
            + self.difs_us
            + self.guard_us
        )

    def empty_packet_airtime_us(self) -> float:
        """Airtime of a zero-payload priority-claiming frame + spacing.

        The paper quotes ~70 us for a no-payload packet plus interframe
        spacing in 802.11a; a header-only frame + DIFS lands there.
        """
        return self.data_frame_airtime_us(0) + self.difs_us + self.guard_us


@dataclass(frozen=True)
class IntervalTiming:
    """Time model of one interval, shared by policies and simulators.

    Parameters
    ----------
    interval_us:
        Interval length ``T`` in microseconds (the per-packet deadline).
    data_airtime_us:
        Channel time consumed by one data transmission attempt (success or
        failure — the ACK timeout on failure is assumed equal to the ACK
        airtime, as in slotted analyses).
    empty_airtime_us:
        Channel time of one empty priority-claiming packet.
    backoff_slot_us:
        Duration of one backoff slot.
    """

    interval_us: float
    data_airtime_us: float
    empty_airtime_us: float
    backoff_slot_us: float

    def __post_init__(self) -> None:
        if self.interval_us <= 0:
            raise ValueError(f"interval must be positive, got {self.interval_us}")
        if self.data_airtime_us <= 0:
            raise ValueError(
                f"data airtime must be positive, got {self.data_airtime_us}"
            )
        if self.empty_airtime_us < 0 or self.backoff_slot_us < 0:
            raise ValueError("empty airtime and slot time must be nonnegative")
        if self.data_airtime_us > self.interval_us:
            raise ValueError(
                "a single transmission does not fit in the interval: "
                f"{self.data_airtime_us} us > {self.interval_us} us"
            )

    @cached_property
    def time_units(self) -> Tuple[int, int, int, int]:
        """The interval, data airtime, empty airtime and slot as integers,
        in the largest decimal unit (1 us, 0.1 us, ...) that makes all
        four integral: a 0.8 us slot is 8 units of 0.1 us.  Each value is
        read as the decimal its float prints as.

        Every attempt budget and timeline comparison of the policies and
        kernels runs in these units, so a decimal timing never floors
        low in binary float (``1.2 // 0.4 == 2.0``).
        """
        values = [
            Decimal(repr(float(v))).normalize()
            for v in (
                self.interval_us,
                self.data_airtime_us,
                self.empty_airtime_us,
                self.backoff_slot_us,
            )
        ]
        digits = max(0, -min(v.as_tuple().exponent for v in values))
        T, air, empty, slot = (int(v.scaleb(digits)) for v in values)
        return T, air, empty, slot

    @property
    def max_transmissions(self) -> int:
        """Transmission opportunities per interval with zero contention.

        For the paper's video scenario this is 60 (20 ms / 330 us); for the
        low-latency scenario 16 (2 ms / 120 us).
        """
        T, air, _, _ = self.time_units
        return T // air

    @property
    def is_idealized(self) -> bool:
        """True when backoff slots and empty packets cost zero time."""
        return self.backoff_slot_us == 0 and self.empty_airtime_us == 0

    def with_slot_time(self, backoff_slot_us: float) -> "IntervalTiming":
        """Copy with a different backoff slot duration (ablation support)."""
        return replace(self, backoff_slot_us=backoff_slot_us)


def video_timing(phy: Dot11aPhy | None = None) -> IntervalTiming:
    """Real-time video scenario (Section VI-A): 1500 B payload, 20 ms deadline.

    The computed exchange airtime is ~330 us, giving 60 transmission
    opportunities per interval as the paper states.
    """
    phy = phy or Dot11aPhy()
    return IntervalTiming(
        interval_us=20_000.0,
        data_airtime_us=phy.exchange_airtime_us(1500),
        empty_airtime_us=phy.empty_packet_airtime_us(),
        backoff_slot_us=phy.slot_time_us,
    )


def low_latency_timing(phy: Dot11aPhy | None = None) -> IntervalTiming:
    """Ultra-low-latency control scenario (Section VI-B): 100 B, 2 ms deadline.

    The computed exchange airtime is ~120 us, giving 16 transmission
    opportunities per interval as the paper states.
    """
    phy = phy or Dot11aPhy()
    return IntervalTiming(
        interval_us=2_000.0,
        data_airtime_us=phy.exchange_airtime_us(100),
        empty_airtime_us=phy.empty_packet_airtime_us(),
        backoff_slot_us=phy.slot_time_us,
    )


def idealized_timing(transmissions_per_interval: int) -> IntervalTiming:
    """Idealized timing of Definition 10.

    One "time unit" is one packet transmission; backoff slots and empty
    packets are free.  ``transmissions_per_interval`` is the deadline ``T``
    measured in packet transmissions.
    """
    if transmissions_per_interval <= 0:
        raise ValueError(
            f"need at least one transmission per interval, got "
            f"{transmissions_per_interval}"
        )
    return IntervalTiming(
        interval_us=float(transmissions_per_interval),
        data_airtime_us=1.0,
        empty_airtime_us=0.0,
        backoff_slot_us=0.0,
    )
