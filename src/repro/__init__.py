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

#: Public name -> the submodule that defines it.  ``import repro`` loads
#: none of them: :func:`__getattr__` imports a name's submodule the first
#: time the name is used, so a run pays only for the layers it reaches.
_SUBMODULE_OF = {
    name: submodule
    for submodule, names in {
        "core": ("registry",),
        "core.dbdp": ("DBDPPolicy", "GlauberDebtBias", "PAPER_R"),
        "core.debt": ("DebtLedger",),
        "core.dcf": ("DCFPolicy",),
        "core.dp_protocol": (
            "ConstantSwapBias", "DPProtocol", "PerLinkSwapBias", "SwapBias",
        ),
        "core.eldf": ("ELDFPolicy", "LDFPolicy"),
        "core.estimation": ("EstimatedDBDPPolicy", "ReliabilityEstimator"),
        "core.fcsma": ("DebtWindowMap", "FCSMAPolicy"),
        "core.frame_csma": ("FrameCSMAPolicy",),
        "core.round_robin": ("RoundRobinPolicy",),
        "core.influence": (
            "DebtInfluenceFunction", "LinearInfluence", "LogInfluence",
            "PaperLogInfluence", "PowerInfluence",
        ),
        "core.policies": ("IntervalMac", "IntervalOutcome"),
        "core.registry": ("PolicyDescriptor",),
        "core.requirements": ("NetworkSpec",),
        "core.static_priority": ("StaticPriorityPolicy",),
        "phy.channel": (
            "BernoulliChannel", "GilbertElliottChannel",
            "TimeVaryingReliability", "channel_from_spec",
        ),
        "phy.timing": (
            "Dot11aPhy", "IntervalTiming", "idealized_timing",
            "low_latency_timing", "video_timing",
        ),
        "sim.batch_sim": (
            "BatchIntervalSimulator", "BatchSimulationResult",
            "run_simulation_batch", "supports_batch_engine",
        ),
        "sim.interval_sim": ("IntervalSimulator", "run_simulation"),
        "sim.results": ("SimulationResult", "SimulationSummary"),
        "sim.rng": ("BatchRngBundle", "RngBundle"),
        "traffic.arrivals": (
            "ArrivalProcess", "BernoulliArrivals", "BurstyVideoArrivals",
            "ConstantArrivals", "CorrelatedBurstArrivals",
            "TruncatedPoissonArrivals",
        ),
    }.items()
    for name in names
}

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


def __getattr__(name: str):
    """``from .<submodule> import <name>`` on first access (PEP 562)."""
    submodule = _SUBMODULE_OF.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # fromlist gives import-statement semantics: a name that is itself a
    # submodule (``registry``) is imported as one.
    module = __import__(f"{__name__}.{submodule}", fromlist=(name,))
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
