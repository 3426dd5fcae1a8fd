"""Pinned outputs of the batch kernels' vectorized resolver.

The workspace NumPy path is the only vectorized interval resolver.  Its
outputs are pinned here as SHA-256 digests, recorded while the retired
pre-workspace implementation still ran next to it and produced the same
digests under the lockstep ``rng=None`` discipline.  Any change to the
draws, the closed-form timeline or the ordered-service solver shows up
as a digest mismatch:

* every :class:`~repro.sim.batch_sim.BatchSimulationResult` trace of the
  five kernel families, under ``rng=None`` and ``rng="free"``;
* the points of a fused DB-DP/LDF alpha sweep;
* a DB-DP run at N=200, where the dense and incremental priority-state
  paths must both reproduce the recorded digest.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import (
    DBDPPolicy,
    ELDFPolicy,
    LDFPolicy,
    RoundRobinPolicy,
    StaticPriorityPolicy,
    run_simulation_batch,
)
from repro.experiments.configs import video_symmetric_spec
from repro.experiments.grid import run_sweep_fused
from repro.sim.batch_sim import BatchIntervalSimulator
from tests.sim.dp_paths import dp_path

SEEDS = (0, 1, 2, 3)
INTERVALS = 250
ALPHAS = (0.45, 0.55, 0.65)
POLICIES = {"DB-DP": DBDPPolicy, "LDF": LDFPolicy}
FIELDS = (
    "arrivals", "deliveries", "attempts", "busy_time_us",
    "overhead_time_us", "collisions", "priorities",
)


def result_digest(result) -> str:
    """SHA-256 over every trace field, with its dtype and shape."""
    h = hashlib.sha256()
    for field in FIELDS:
        plane = np.ascontiguousarray(getattr(result, field))
        h.update(f"{plane.dtype.str}{plane.shape}".encode())
        h.update(plane.tobytes())
    return h.hexdigest()


def points_digest(points) -> str:
    """SHA-256 of the sweep points (floats print shortest-roundtrip)."""
    rows = [dataclasses.astuple(p) for p in points]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


DIRECT_DIGESTS = {
    (DBDPPolicy, None): "93e6d8d9e16bd79ae284883c2196278bf0fed7d04158dae8916f008ce1dce90b",
    (DBDPPolicy, "free"): "95caed46207bdd08ec4846e30156e4a076562cdaa7e102278815cd72579d5168",
    (ELDFPolicy, None): "e2638429a040077b9a41391c12a9f75385964a92314014002df5fe24ba43ef20",
    (ELDFPolicy, "free"): "3bb5f6a2b9ebc3e52f29cb2f6287d3585da8212949f3d411d0b680494768aa6f",
    (LDFPolicy, None): "e2638429a040077b9a41391c12a9f75385964a92314014002df5fe24ba43ef20",
    (LDFPolicy, "free"): "3bb5f6a2b9ebc3e52f29cb2f6287d3585da8212949f3d411d0b680494768aa6f",
    (RoundRobinPolicy, None): "91e296764e072689336d80aa7ee5e7a33f832f79161bb445b6043e4d5e7a0b95",
    (RoundRobinPolicy, "free"): "6b0a6628b89ffa7174c791df1467da871a6e4ed6891f48ab58c6ba73d9deb8c7",
    (StaticPriorityPolicy, None): "6ccb565f3f830b7a50d07115bf24d01b64f03955862662d8d37fc4551a924622",
    (StaticPriorityPolicy, "free"): "551a737e775510947e1e97eb9d0baff5b49c15b0d89385ff41c2775e43c3b961",
}
FUSED_DIGEST = "e5c6f8ad18289ba35d3684c61463f1be6299a1e53a77a7125153933ab530ecaa"
N200_DIGEST = "8b6909d5f6e973e2b550429cd48343eb90afbdc0890745d4266076037c1b0a51"


@pytest.mark.parametrize(
    "factory, rng",
    list(DIRECT_DIGESTS),
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_direct_batch_digest_pinned(factory, rng):
    result = run_simulation_batch(
        video_symmetric_spec(0.6, num_links=6), factory(), INTERVALS, SEEDS,
        record_priorities=True, rng=rng,
    )
    assert result_digest(result) == DIRECT_DIGESTS[(factory, rng)]


def test_fused_sweep_digest_pinned():
    sweep = run_sweep_fused(
        "alpha",
        ALPHAS,
        lambda a: video_symmetric_spec(a, delivery_ratio=0.9),
        POLICIES,
        INTERVALS,
        SEEDS,
        validate=False,
    )
    assert points_digest(sweep.points) == FUSED_DIGEST


@pytest.mark.parametrize("dp_state", ["dense", "incremental"])
def test_n200_dbdp_digest_pinned(dp_state):
    with dp_path(dp_state):
        sim = BatchIntervalSimulator(
            video_symmetric_spec(0.55, num_links=200),
            DBDPPolicy(),
            seeds=(0, 1, 2),
            record_traces=True,
            record_priorities=True,
            validate=False,
        )
    assert sim.dp_state == dp_state
    assert result_digest(sim.run(40)) == N200_DIGEST


def test_no_kernel_backend_option():
    """No entry point or CLI flag selects a kernel backend any more; the
    simulator still reports the one resolver it runs."""
    from repro.experiments.cli import build_parser

    spec = video_symmetric_spec(0.6, num_links=6)
    with pytest.raises(TypeError, match="backend"):
        run_simulation_batch(spec, DBDPPolicy(), 10, SEEDS, backend="numpy")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig3", "--backend", "numpy"])
    sim = BatchIntervalSimulator(spec, DBDPPolicy(), SEEDS)
    assert sim.backend == "numpy"
