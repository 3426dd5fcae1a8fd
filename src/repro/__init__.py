"""repro — reproduction of Hsieh & Hou, "A Decentralized Medium Access
Protocol for Real-Time Wireless Ad Hoc Networks With Unreliable
Transmissions" (ICDCS 2018).

Public API quick map
--------------------
Core algorithms
    :class:`~repro.core.dbdp.DBDPPolicy` — the paper's DB-DP algorithm.
    :class:`~repro.core.dp_protocol.DPProtocol` — generic Algorithm 2.
    :class:`~repro.core.eldf.ELDFPolicy` / :class:`~repro.core.eldf.LDFPolicy`
    — centralized feasibility-optimal baselines (Algorithm 1).
    :class:`~repro.core.fcsma.FCSMAPolicy`, :class:`~repro.core.dcf.DCFPolicy`
    — contention-based baselines.
Model building blocks
    :class:`~repro.core.requirements.NetworkSpec`, arrival processes in
    :mod:`repro.traffic.arrivals`, channels in :mod:`repro.phy.channel`,
    timing in :mod:`repro.phy.timing`.
Simulation
    :func:`~repro.sim.interval_sim.run_simulation` (fast interval engine),
    :func:`~repro.sim.batch_sim.run_simulation_batch` (vectorized
    all-seeds-at-once engine), :mod:`repro.sim.event_sim` (microsecond
    event-driven engine).
Analysis
    :mod:`repro.analysis` — exact priority-chain analysis, feasibility
    bounds, metrics.
Experiments
    :mod:`repro.experiments.figures` — ``fig3()`` ... ``fig10()``.
Policy registry
    :mod:`repro.core.registry` — one :class:`~repro.core.registry.\
PolicyDescriptor` per policy family (name, config round-trip, batch
    kernel, incremental DP state); every engine, the sweep cache, and the
    CLI dispatch through it.  ``registry.available()`` lists the names.
"""

from .core import registry
from .core.dbdp import DBDPPolicy, GlauberDebtBias, PAPER_R
from .core.debt import DebtLedger
from .core.dcf import DCFPolicy
from .core.dp_protocol import (
    ConstantSwapBias,
    DPProtocol,
    PerLinkSwapBias,
    SwapBias,
)
from .core.eldf import ELDFPolicy, LDFPolicy
from .core.estimation import EstimatedDBDPPolicy, ReliabilityEstimator
from .core.fcsma import DebtWindowMap, FCSMAPolicy
from .core.frame_csma import FrameCSMAPolicy
from .core.round_robin import RoundRobinPolicy
from .core.influence import (
    DebtInfluenceFunction,
    LinearInfluence,
    LogInfluence,
    PaperLogInfluence,
    PowerInfluence,
)
from .core.policies import IntervalMac, IntervalOutcome
from .core.registry import PolicyDescriptor
from .core.requirements import NetworkSpec
from .core.static_priority import StaticPriorityPolicy
from .phy.channel import (
    BernoulliChannel,
    GilbertElliottChannel,
    TimeVaryingReliability,
    channel_from_spec,
)
from .phy.timing import (
    Dot11aPhy,
    IntervalTiming,
    idealized_timing,
    low_latency_timing,
    video_timing,
)
from .sim.batch_sim import (
    BatchIntervalSimulator,
    BatchSimulationResult,
    run_simulation_batch,
    supports_batch_engine,
)
from .sim.interval_sim import IntervalSimulator, run_simulation
from .sim.results import SimulationResult, SimulationSummary
from .sim.rng import BatchRngBundle, RngBundle
from .traffic.arrivals import (
    ArrivalProcess,
    BernoulliArrivals,
    BurstyVideoArrivals,
    ConstantArrivals,
    CorrelatedBurstArrivals,
    TruncatedPoissonArrivals,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # algorithms
    "DBDPPolicy",
    "DPProtocol",
    "ELDFPolicy",
    "LDFPolicy",
    "FCSMAPolicy",
    "DCFPolicy",
    "FrameCSMAPolicy",
    "RoundRobinPolicy",
    "EstimatedDBDPPolicy",
    "ReliabilityEstimator",
    "StaticPriorityPolicy",
    # protocol pieces
    "SwapBias",
    "ConstantSwapBias",
    "PerLinkSwapBias",
    "GlauberDebtBias",
    "PAPER_R",
    "DebtWindowMap",
    # influence functions
    "DebtInfluenceFunction",
    "LinearInfluence",
    "LogInfluence",
    "PaperLogInfluence",
    "PowerInfluence",
    # model
    "NetworkSpec",
    "DebtLedger",
    "BernoulliChannel",
    "GilbertElliottChannel",
    "TimeVaryingReliability",
    "channel_from_spec",
    "Dot11aPhy",
    "IntervalTiming",
    "video_timing",
    "low_latency_timing",
    "idealized_timing",
    "ArrivalProcess",
    "BernoulliArrivals",
    "BurstyVideoArrivals",
    "ConstantArrivals",
    "CorrelatedBurstArrivals",
    "TruncatedPoissonArrivals",
    # simulation
    "IntervalMac",
    "IntervalOutcome",
    "IntervalSimulator",
    "run_simulation",
    "BatchIntervalSimulator",
    "BatchSimulationResult",
    "run_simulation_batch",
    "supports_batch_engine",
    "SimulationResult",
    "SimulationSummary",
    "RngBundle",
    "BatchRngBundle",
    # policy registry
    "registry",
    "PolicyDescriptor",
]
