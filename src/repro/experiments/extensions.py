"""Extension studies beyond the paper's figures.

Three add-on experiments the paper motivates but does not plot:

* :func:`baseline_panorama` — every implemented MAC on one stressed video
  scenario: the two debt-based policies (LDF, DB-DP), the three
  contention/TDMA references (FCSMA, DCF, round-robin), and frame-based
  CSMA ([23]).  Orders the design space in one table.
* :func:`burst_loss_robustness` — DB-DP vs LDF swept over channel
  burstiness at fixed stationary reliability (violating the i.i.d.
  channel assumption both policies were analyzed under); the fused
  engine batches the whole Gilbert-Elliott grid.
* :func:`correlated_traffic_robustness` — DB-DP vs LDF swept over
  *traffic* burstiness at fixed mean load: Markov-modulated ON/OFF
  arrivals (outside the model's temporal-independence assumption) with
  the i.i.d. Bernoulli base case at ``x = 0``; the fused engine batches
  the whole MMPP grid under ``rng="free"``.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.dbdp import DBDPPolicy
from ..core.dcf import DCFPolicy
from ..core.eldf import LDFPolicy
from ..core.fcsma import FCSMAPolicy
from ..core.frame_csma import FrameCSMAPolicy
from ..core.requirements import NetworkSpec
from ..core.round_robin import RoundRobinPolicy
from ..phy.channel import GilbertElliottChannel
from ..phy.timing import low_latency_timing
from ..sim.interval_sim import run_simulation
from ..traffic.arrivals import BernoulliArrivals, MarkovModulatedArrivals
from .configs import VIDEO_INTERVALS, scaled_intervals, video_symmetric_spec
from .figures import FigureResult, _check_engine, _sweep_to_figure
from .runner import run_sweep

__all__ = [
    "baseline_panorama",
    "burst_loss_robustness",
    "correlated_traffic_robustness",
]


def baseline_panorama(
    num_intervals: Optional[int] = None,
    alpha: float = 0.55,
    seed: int = 0,
    engine: str = "scalar",
) -> FigureResult:
    """Total deficiency of every implemented MAC on the video scenario.

    ``engine`` is accepted for harness uniformity but these single-trace
    studies always run on the scalar engine (one trace per policy has
    no replications to vectorize over).
    """
    _check_engine(engine)
    intervals = num_intervals or scaled_intervals(VIDEO_INTERVALS)
    spec = video_symmetric_spec(alpha, delivery_ratio=0.9)
    policies = {
        "LDF": LDFPolicy(),
        "DB-DP": DBDPPolicy(),
        "FrameCSMA": FrameCSMAPolicy(),
        "RoundRobin": RoundRobinPolicy(),
        "FCSMA": FCSMAPolicy(),
        "DCF": DCFPolicy(),
    }
    result = FigureResult(
        figure_id="ext-baselines",
        title=f"All baselines, symmetric video network (alpha* = {alpha:g})",
        x_label="metric",
        x_values=[0.0, 1.0, 2.0],
        notes="rows: total deficiency / collisions per interval / "
        "overhead us per interval",
    )
    for label, policy in policies.items():
        run = run_simulation(spec, policy, intervals, seed=seed)
        summary = run.summary()
        result.series[label] = [
            summary.total_deficiency,
            summary.total_collisions / intervals,
            summary.mean_overhead_us,
        ]
    return result


#: Burstiness grid for :func:`burst_loss_robustness`.  ``b = 0.7``
#: reproduces the study's historical single Gilbert-Elliott point
#: (``p_stay_good = 0.9``, ``p_stay_bad = 0.8``).
BURST_GRID = (0.0, 0.2, 0.4, 0.6, 0.7, 0.8, 0.9)
_BURST_LINKS = 10
#: Stationary P(good state) held fixed across the grid (2/3 with
#: ``p_good = 0.95``, ``p_bad = 0.2`` gives stationary reliability 0.70).
_BURST_PI_GOOD = 2.0 / 3.0


def _burst_channel(burstiness: float, num_links: int):
    """Gilbert-Elliott channel at mixing rate ``1 - burstiness``.

    The state chain's transition probabilities are ``p_gb = (1 - pi) r``
    and ``p_bg = pi r`` with ``r = 1 - burstiness``, so the stationary
    distribution (and hence the long-run reliability) is the same at
    every grid point while the mean bad-burst length ``1 / (pi r)``
    grows with ``burstiness``.  At ``burstiness = 0`` the chain is
    memoryless and the study uses the channel codec's
    ``with_stationary_reliability()`` reduction — the exact i.i.d.
    Bernoulli reference both policies were analyzed under (no
    ``isinstance`` dispatch: the conversion is a ``ChannelModel``
    method, mirroring the no-isinstance discipline for policies).
    """
    rate = 1.0 - burstiness
    ge = GilbertElliottChannel(
        num_links,
        p_good=0.95,
        p_bad=0.2,
        p_stay_good=1.0 - (1.0 - _BURST_PI_GOOD) * rate,
        p_stay_bad=1.0 - _BURST_PI_GOOD * rate,
    )
    if burstiness == 0.0:
        return ge.with_stationary_reliability()
    return ge


def _burst_spec(arrival_rate: float, burstiness: float) -> NetworkSpec:
    """Picklable spec builder for the burstiness sweep (the swept value
    lands on ``burstiness`` positionally)."""
    return NetworkSpec.from_delivery_ratios(
        arrivals=BernoulliArrivals.symmetric(_BURST_LINKS, arrival_rate),
        channel=_burst_channel(burstiness, _BURST_LINKS),
        timing=low_latency_timing(),
        delivery_ratios=0.9,
    )


def burst_loss_robustness(
    num_intervals: Optional[int] = None,
    arrival_rate: float = 0.6,
    seed: int = 0,
    engine: str = "fused",
    burstiness: Sequence[float] = BURST_GRID,
    seeds: Optional[Sequence[int]] = None,
    rng: Optional[str] = None,
    cache=None,
    shards: Optional[int] = None,
) -> FigureResult:
    """DB-DP vs LDF swept over channel burstiness at equal reliability.

    Every grid point is a Gilbert-Elliott channel with the *same*
    stationary reliability (~0.70) but a longer mean bad-burst as
    ``burstiness`` grows; ``x = 0`` is the i.i.d. Bernoulli reference at
    that reliability.  Policies use the stationary reliability in their
    weights, as the paper's "p_n obtained by probing or learning"
    prescription implies.  The default fused engine mega-batches the
    whole grid (Gilbert-Elliott rows under ``rng="free"``, which is the
    default here; the Bernoulli reference point fuses into its own
    stack).  ``seeds`` overrides the replication set (default:
    ``(seed,)``, keeping the legacy scalar-study signature).
    """
    intervals = num_intervals or scaled_intervals(VIDEO_INTERVALS)
    if seeds is None:
        seeds = (seed,)
    if rng is None and engine == "fused":
        # Lockstep draws cannot evolve Gilbert-Elliott state; free-draw
        # substreams are the statistically-equivalent vectorized path.
        rng = "free"
    sweep = run_sweep(
        parameter_name="burstiness",
        values=tuple(burstiness),
        spec_builder=functools.partial(_burst_spec, arrival_rate),
        policies=("DB-DP", "LDF"),
        num_intervals=intervals,
        seeds=tuple(seeds),
        engine=engine,
        rng=rng,
        cache=cache,
        shards=shards,
    )
    figure = _sweep_to_figure(
        sweep,
        "ext-burst-loss",
        "Robustness to bursty losses (equal stationary reliability)",
        "burstiness",
        notes="stationary reliability 0.70 at every point; x = 0 is the "
        "i.i.d. Bernoulli reference, mean bad-burst length is "
        "1 / (0.667 (1 - x)) intervals",
    )
    return figure


#: Traffic-burstiness grid for :func:`correlated_traffic_robustness`.
MMPP_GRID = (0.0, 0.2, 0.4, 0.6, 0.7, 0.8, 0.9)
_TRAFFIC_LINKS = 8
_TRAFFIC_RELIABILITY = 0.7


def _mmpp_process(mean_rate: float, burstiness: float, num_links: int):
    """Symmetric ON/OFF chain at mixing rate ``1 - burstiness``.

    Stay probabilities ``s = (1 + burstiness) / 2`` on both states give
    a stationary ON probability of 1/2 at every grid point, so the mean
    load is exactly ``mean_rate`` throughout while the mean ON(/OFF)
    dwell time ``1 / (1 - s) = 2 / (1 - burstiness)`` grows with
    ``burstiness``.  At ``burstiness = 0`` the chain is memoryless and
    the study uses the exact i.i.d. Bernoulli reference instead (the
    temporal structure both policies were analyzed under).
    """
    if burstiness == 0.0:
        return BernoulliArrivals.symmetric(num_links, mean_rate)
    stay = (1.0 + burstiness) / 2.0
    on_rate = min(1.0, 2.0 * mean_rate)
    off_rate = 2.0 * mean_rate - on_rate
    return MarkovModulatedArrivals(
        num_links,
        on_rate=on_rate,
        off_rate=off_rate,
        p_stay_on=stay,
        p_stay_off=stay,
        initial_state="stationary",
    )


def _mmpp_spec(mean_rate: float, burstiness: float) -> NetworkSpec:
    """Picklable spec builder for the traffic-burstiness sweep (the swept
    value lands on ``burstiness`` positionally)."""
    from ..phy.channel import BernoulliChannel

    return NetworkSpec.from_delivery_ratios(
        arrivals=_mmpp_process(mean_rate, burstiness, _TRAFFIC_LINKS),
        channel=BernoulliChannel.symmetric(
            _TRAFFIC_LINKS, _TRAFFIC_RELIABILITY
        ),
        timing=low_latency_timing(),
        delivery_ratios=0.9,
    )


def correlated_traffic_robustness(
    num_intervals: Optional[int] = None,
    mean_rate: float = 0.5,
    seed: int = 0,
    engine: str = "fused",
    burstiness: Sequence[float] = MMPP_GRID,
    seeds: Optional[Sequence[int]] = None,
    rng: Optional[str] = None,
    cache=None,
    shards: Optional[int] = None,
) -> FigureResult:
    """DB-DP vs LDF swept over traffic burstiness at equal mean load.

    Every grid point is a symmetric Markov-modulated ON/OFF arrival
    process with the *same* mean load but a longer mean dwell time as
    ``burstiness`` grows; ``x = 0`` is the i.i.d. Bernoulli reference at
    that load.  The default fused engine mega-batches the whole grid
    (MMPP rows evolve vectorized under ``rng="free"``, which is the
    default here; the Bernoulli reference point fuses into its own
    stack).  ``seeds`` overrides the replication set (default:
    ``(seed,)``, keeping the legacy scalar-study signature).
    """
    intervals = num_intervals or scaled_intervals(VIDEO_INTERVALS)
    if seeds is None:
        seeds = (seed,)
    if rng is None and engine == "fused":
        # Lockstep draws cannot evolve the modulating chains; free-draw
        # substreams are the statistically-equivalent vectorized path.
        rng = "free"
    sweep = run_sweep(
        parameter_name="burstiness",
        values=tuple(burstiness),
        spec_builder=functools.partial(_mmpp_spec, mean_rate),
        policies=("DB-DP", "LDF"),
        num_intervals=intervals,
        seeds=tuple(seeds),
        engine=engine,
        rng=rng,
        cache=cache,
        shards=shards,
    )
    return _sweep_to_figure(
        sweep,
        "ext-correlated-traffic",
        "Robustness to bursty traffic (equal mean load)",
        "burstiness",
        notes=f"mean load {mean_rate:g} per link at every point; x = 0 is "
        "the i.i.d. Bernoulli reference, mean ON/OFF dwell time is "
        "2 / (1 - x) intervals",
    )
