"""Tests for the figure entry points (reduced horizons)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.figures import (
    ALL_FIGURES,
    fig3,
    fig5,
    fig6,
    fig7,
    fig9,
)


class TestRegistry:
    def test_all_eight_figures_present(self):
        assert set(ALL_FIGURES) == {
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
        }


class TestSweepFigures:
    def test_fig3_structure(self):
        result = fig3(num_intervals=60, alphas=(0.4, 0.7))
        assert result.figure_id == "fig3"
        assert set(result.series) == {"DB-DP", "LDF", "FCSMA"}
        assert result.x_values == [0.4, 0.7]
        assert all(len(s) == 2 for s in result.series.values())
        assert all(v >= 0 for s in result.series.values() for v in s)

    def test_fig7_has_group_series(self):
        result = fig7(num_intervals=60, alphas=(0.7,))
        labels = set(result.series)
        assert "LDF (group 1)" in labels and "LDF (group 2)" in labels
        assert "FCSMA (group 1)" in labels

    def test_fig9_uses_low_latency_grid(self):
        result = fig9(num_intervals=60, lambdas=(0.6, 0.9))
        assert result.x_label == "lambda*"
        assert result.x_values == [0.6, 0.9]

    def test_channel_kwarg_swaps_the_channel(self):
        from repro import GilbertElliottChannel
        from repro.experiments.figures import _with_channel

        result = fig3(
            num_intervals=40,
            alphas=(0.5,),
            policies=("LDF",),
            engine="fused",
            rng="free",
            channel="ge:0.1:0.3",
        )
        assert result.x_values == [0.5]
        # The picklable builder wrap resolves spec strings, channel
        # instances, and spec -> channel callables alike.
        import functools

        from repro.experiments.configs import video_symmetric_spec

        builder = functools.partial(video_symmetric_spec, delivery_ratio=0.9)
        spec = _with_channel(builder, "ge:0.1:0.3", 0.5)
        assert type(spec.channel) is GilbertElliottChannel
        ch = GilbertElliottChannel(spec.num_links)
        assert _with_channel(builder, ch, 0.5).channel is ch
        assert (
            type(
                _with_channel(
                    builder,
                    lambda s: GilbertElliottChannel(s.num_links),
                    0.5,
                ).channel
            )
            is GilbertElliottChannel
        )


class TestSingleRunFigures:
    def test_fig5_running_throughput(self):
        result = fig5(num_intervals=200, sample_every=50)
        assert set(result.series) == {"DB-DP", "LDF"}
        assert len(result.x_values) == 4
        assert result.x_values[0] == 50.0
        # Running throughput is a packets/interval quantity.
        assert all(0 <= v <= 6 for v in result.series["LDF"])
        assert "requirement" in result.notes

    def test_fig6_per_priority_throughput(self):
        result = fig6(num_intervals=300)
        series = result.series["StaticPriority"]
        assert len(series) == 20
        # Top priority markedly better than bottom; bottom non-zero.
        assert series[0] > series[-1]
        assert series[-1] >= 0.0
        top_half = np.mean(series[:10])
        bottom_half = np.mean(series[10:])
        assert top_half > bottom_half

    def test_row_accessor(self):
        result = fig3(num_intervals=50, alphas=(0.5,))
        row = result.row(0.5)
        assert set(row) == {"DB-DP", "LDF", "FCSMA"}


#: SHA-256 prefixes of every sweep figure's full output (metadata plus
#: series) at a tiny horizon, recorded before the figures became table
#: rows.  Any change to a figure's grid, builder, labels or numbers shows
#: up here; regenerate only for an intended change of results.
GOLDEN_FIGURE_DIGESTS = {
    ("fig3", "scalar"): "45a60a880a258fde",
    ("fig4", "scalar"): "f06afa5725f09ad3",
    ("fig7", "scalar"): "85e61eab056d1606",
    ("fig8", "scalar"): "a82048879db4b5c9",
    ("fig9", "scalar"): "6a395e86ae32b525",
    ("fig10", "scalar"): "1587ac7cac5ef144",
    # The fused engine runs FCSMA on the contention-round batch kernel.
    ("fig3", "fused"): "45c1f6495c6137e5",
    ("fig4", "fused"): "16c1d128447d127a",
    ("fig7", "fused"): "beed091f1491d992",
    ("fig8", "fused"): "0cf681d2dc35e6e8",
    ("fig9", "fused"): "373edc82a0e22c5a",
    ("fig10", "fused"): "dffb5ca7052d2ea2",
    # rng="sync" drives scalar clones through the fused engine: the
    # scalar digests, exactly.
    ("fig3", "fused-sync"): "45a60a880a258fde",
    ("fig4", "fused-sync"): "f06afa5725f09ad3",
    ("fig7", "fused-sync"): "85e61eab056d1606",
    ("fig8", "fused-sync"): "a82048879db4b5c9",
    ("fig9", "fused-sync"): "6a395e86ae32b525",
    ("fig10", "fused-sync"): "1587ac7cac5ef144",
}


@pytest.mark.parametrize(
    "name,engine", sorted(GOLDEN_FIGURE_DIGESTS), ids="-".join
)
def test_sweep_figure_output_is_pinned(name, engine):
    import hashlib

    engine_name, _, rng = engine.partition("-")
    result = ALL_FIGURES[name](
        num_intervals=20, seeds=(0, 1), engine=engine_name, rng=rng or None
    )
    blob = repr((
        result.figure_id,
        result.title,
        result.x_label,
        result.x_values,
        sorted(result.series.items()),
        result.notes,
        result.y_label,
    ))
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    assert digest == GOLDEN_FIGURE_DIGESTS[(name, engine)], blob
