"""The multi-cell lowering end to end: pinned results, wide cells, and
topology sweeps split into shards.

Row blocks of the packed simulator draw from their cells' own streams
(see :class:`~repro.sim.rng.BatchRngBundle`), so every bind-time decision
of the batch kernel — incremental DP state with lazy raw channel draws,
the draw dtype, channel state — applies to topology rows unchanged.
"""

import dataclasses
import hashlib
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from repro import (
    BernoulliChannel,
    ConstantArrivals,
    DBDPPolicy,
    ELDFPolicy,
    GilbertElliottChannel,
    NetworkSpec,
    video_timing,
)
from repro.experiments.configs import (
    video_asymmetric_spec,
    video_symmetric_spec,
)
from repro.experiments.cache import SweepCache
from repro.experiments.faults import SweepCellError
from repro.experiments.grid import run_sweep_fused
from repro.experiments.runner import run_sweep
from repro.topology import (
    TopologySimulator,
    grid_cells,
    partition_cells,
    run_topology_batch,
)
from tests.sim.dp_paths import dp_path

SEEDS = (0, 1, 2)
INTERVALS = 60


def _digest(result) -> str:
    h = hashlib.sha256()
    for plane in (
        result.delivery_sums,
        result.collision_sums,
        result.overhead_cell_rows,
    ):
        h.update(np.ascontiguousarray(plane).tobytes())
    return h.hexdigest()


def _boundary_spec():
    return video_symmetric_spec(0.6, num_links=24)


def _boundary_topology():
    topo = grid_cells(24, 4, 0.5)
    assert topo.boundary_links
    return topo


# Recorded with the earlier per-cell draw wrappers of the topology engine;
# the row-block streams must keep every bit.  The last key element names
# the kernel path the digest was recorded on (the retired pre-workspace
# path gave the same digests).
BOUNDARY_DIGESTS = {
    ("DB-DP", None, "numpy"): "d9c6557c4d657a336a63dccab1bf524d4c632655c60d0b1a65f8bb747a210bef",
    ("DB-DP", "free", "numpy"): "6b44ec697ba88fd8d1f6a6c77be588ee85af84d37685eab785056ffcdbd5f198",
    ("DB-DP", "sync", "numpy"): "6368cbb10174c55664e2305f75c9d9d67f9b45ca9a0ce8cd240d9ecfe9e3cc78",
    ("ELDF", None, "numpy"): "dd2f8157bbfe19f399d028f65522332c8b0354a159a253567cd316c7946b67fd",
}
POLICIES = {"DB-DP": DBDPPolicy, "ELDF": ELDFPolicy}


@pytest.mark.parametrize("family, rng, recorded_on", list(BOUNDARY_DIGESTS))
def test_boundary_topology_digests_pinned(family, rng, recorded_on):
    result = run_topology_batch(
        _boundary_spec(), POLICIES[family](), SEEDS, _boundary_topology(),
        INTERVALS, rng=rng,
    )
    assert _digest(result) == BOUNDARY_DIGESTS[(family, rng, recorded_on)]


def test_stateful_channel_digest_pinned():
    """Gilbert–Elliott state evolves per cell from each cell's own
    channel-state stream."""
    channel = GilbertElliottChannel(
        num_links=24, p_good=0.9, p_bad=0.4, p_stay_good=0.9, p_stay_bad=0.7
    )
    spec = dataclasses.replace(_boundary_spec(), channel=channel)
    result = run_topology_batch(
        spec, DBDPPolicy(), SEEDS, _boundary_topology(), INTERVALS, rng="free"
    )
    assert _digest(result) == (
        "81355ab961bd8a27a02993e63719adc41306539867a8e31f87409a2152684dd1"
    )


@pytest.mark.parametrize("rng", [None, "free"])
@pytest.mark.parametrize(
    "topo",
    [partition_cells(128, 2), grid_cells(400, 4, 0.04)],
    ids=["partition-128x2", "grid-400x4"],
)
def test_wide_cells_incremental_matches_dense(topo, rng):
    """Cells wider than max_transmissions + 1 bind the incremental DP
    state, bit-identical to the dense recompute."""
    spec = video_symmetric_spec(0.55, num_links=topo.num_links)
    traces = {}
    for path in (None, "dense"):
        with dp_path(path):
            sim = TopologySimulator(
                spec, DBDPPolicy(), SEEDS[:2], topo,
                rng=rng, record_traces=True,
            )
        sim.run(40)
        traces[sim.sim.dp_state] = sim.sim.result
    assert set(traces) == {"incremental", "dense"}
    for field in ("arrivals", "deliveries", "attempts", "collisions"):
        np.testing.assert_array_equal(
            getattr(traces["incremental"], field),
            getattr(traces["dense"], field),
            err_msg=field,
        )


def _boundary_builder(alpha):
    return video_symmetric_spec(alpha, num_links=24)


def _boundary_grid(spec):
    return grid_cells(spec.num_links, 4, 0.5)


def _boundary_sweep(**kwargs):
    kwargs.setdefault("topology", _boundary_grid)
    return run_sweep_fused(
        "alpha", (0.5, 0.6), _boundary_builder, ["DB-DP"], INTERVALS,
        seeds=SEEDS, **kwargs,
    )


def test_shard_exception_propagates(monkeypatch):
    """A topology cell that fails inside its shard's worker fails the
    sweep, naming the shard; it is not silently recomputed in the
    parent."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the failure is injected into forked workers")
    parent = os.getpid()
    run = TopologySimulator.run

    def run_in_parent_only(self, num_intervals):
        if os.getpid() != parent:
            raise RuntimeError("shard failed in its worker")
        return run(self, num_intervals)

    monkeypatch.setattr(TopologySimulator, "run", run_in_parent_only)
    with pytest.raises(SweepCellError, match="shard failed in its worker") as err:
        _boundary_sweep(shards=2)
    assert err.value.policy.startswith("shard ")
    assert isinstance(err.value.__cause__, RuntimeError)


def _mixed_a_max_spec(alpha):
    return NetworkSpec(
        arrivals=ConstantArrivals((1, 1, 2, 2)),
        channel=BernoulliChannel.symmetric(4, alpha),
        timing=video_timing(),
        requirements=(0.5,) * 4,
    )


@pytest.mark.parametrize("shards", [None, 2])
def test_cells_with_different_a_max_are_refused_at_any_shard_count(
    shards, tmp_path
):
    """Each cell of this topology slices to a different A_max, so every
    sweep cell is refused while the sweep plans, before any shard runs
    or any cell is cached."""
    cache = SweepCache(tmp_path)
    with pytest.raises(TypeError, match=r"one A_max .*: got \[1, 2\]"):
        run_sweep_fused(
            "p", (0.7, 0.8), _mixed_a_max_spec, ["DB-DP"], 5, seeds=SEEDS,
            topology=grid_cells(4, 2), shards=shards, cache=cache,
        )
    assert cache.stores == 0


def test_unpicklable_payload_runs_shards_in_process():
    """A topology builder that cannot be sent to a worker runs the shards
    in this process, announced once, with the pooled sweep's points."""
    pooled = _boundary_sweep(shards=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        local = _boundary_sweep(
            shards=2, topology=lambda spec: _boundary_grid(spec)
        )
    assert [
        w for w in caught if "not picklable" in str(w.message)
    ] == caught and len(caught) == 1
    assert local.points == pooled.points == _boundary_sweep().points


def test_topology_sweep_group_deficiency_pinned():
    """Per-group deficiency of a topology sweep (Figs. 7-8 report these)."""
    result = run_sweep(
        parameter_name="alpha",
        values=[0.9],
        spec_builder=video_asymmetric_spec,
        policies=["DB-DP", "LDF"],
        num_intervals=INTERVALS,
        seeds=(0, 1),
        engine="batch",
        topology=lambda spec: grid_cells(spec.num_links, 2, 0.3),
        groups=[0] * 10 + [1] * 10,
    )
    assert [
        (p.policy, p.total_deficiency, p.group_deficiency)
        for p in result.points
    ] == [
        ("DB-DP", 0.6554166666666666, (0.6295833333333333, 0.025833333333333375)),
        ("LDF", 0.6470833333333332, (0.6212499999999999, 0.025833333333333375)),
    ]
