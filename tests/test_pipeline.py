"""Tests for the end-to-end pipeline and experiment harnesses (smoke scale)."""

import dataclasses

import numpy as np
import pytest

from repro import run_pipeline
from repro.baselines import SAConfig, simulated_annealing
from repro.circuits import get_circuit
from repro.experiments import (
    interquartile_mean,
    iqm_and_std,
    render_mask_ascii,
    run_fig5,
    run_table2,
)
from repro.experiments.figures import Fig7Result
from repro.experiments.table1 import METHOD_ORDER, Table1Cell, format_table1
from repro.experiments.table2 import Table2Row, format_table2
from repro.pipeline import default_floorplanner


def fast_floorplanner(circuit):
    return simulated_annealing(
        circuit, SAConfig(moves_per_temperature=8, cooling=0.8, seed=0))


class TestPipeline:
    @pytest.fixture(scope="class")
    def result(self):
        return run_pipeline(get_circuit("ota_small"), floorplanner=fast_floorplanner)

    def test_all_stages_produce_artifacts(self, result):
        assert len(result.floorplan.rects) == 3
        assert result.route.num_nets > 0
        assert len(result.channels) > 0
        assert len(result.detail.wires) > 0
        assert len(result.layout) > 0

    def test_timings_recorded(self, result):
        for stage in ("floorplan", "global_route", "channels",
                      "detailed_route", "layout", "signoff"):
            assert stage in result.timings
            assert result.timings[stage] >= 0
        assert result.total_time > 0

    def test_signoff_reports(self, result):
        assert result.drc is not None
        assert result.lvs is not None
        assert isinstance(result.signoff_clean, bool)

    def test_summary_renders(self, result):
        text = result.summary()
        assert "OTA-small" in text
        assert "area=" in text

    def test_default_floorplanner(self):
        result = default_floorplanner(get_circuit("ota_small"))
        assert len(result.rects) == 3

    def test_routing_ready_no_overlap_with_wires(self, result):
        """Wires must exist outside blocks or on upper metals — the layout
        generator must not produce zero wires for a multi-net circuit."""
        assert result.detail.total_wire_length > 0


class TestStats:
    def test_iqm_plain_mean_for_small_samples(self):
        assert interquartile_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_iqm_robust_to_outliers(self):
        values = [1.0] * 10 + [1000.0]
        assert interquartile_mean(values) == pytest.approx(1.0)

    def test_iqm_and_std(self):
        m, s = iqm_and_std([2.0, 2.0, 2.0, 2.0])
        assert m == 2.0 and s == 0.0

    def test_empty_degrades_gracefully(self):
        # Hardened contract: empty input yields 0.0, never a crash or NaN
        # (full coverage in tests/test_stats.py).
        assert interquartile_mean([]) == 0.0
        assert iqm_and_std([]) == (0.0, 0.0)


class TestFigureHarnesses:
    def test_fig5_masks(self):
        result = run_fig5("ota2", placed=3)
        assert result.wire.shape == (32, 32)
        assert result.dead_space.shape == (32, 32)
        assert result.placed_blocks == 3
        assert (result.wire >= 0).all() and (result.wire <= 1).all()
        assert (result.dead_space >= 0).all() and (result.dead_space <= 1).all()

    def test_fig5_rejects_fully_placed(self):
        with pytest.raises(ValueError):
            run_fig5("ota_small", placed=3)

    def test_mask_ascii_render(self):
        mask = np.linspace(0, 1, 32 * 32).reshape(32, 32)
        text = render_mask_ascii(mask)
        assert len(text.splitlines()) == 32


class TestTable2:
    def test_rows_structure(self):
        # SA-based "Ours" (no agent) at smoke scale via default circuits
        rows = run_table2(circuits=["ota_small"])
        assert len(rows) == 2
        ours = next(r for r in rows if r.method == "Ours")
        manual = next(r for r in rows if r.method == "Manual")
        assert ours.area > 0 and manual.area > 0
        assert ours.template_seconds is not None
        assert manual.template_seconds is None
        assert manual.total_hours == 8.0

    def test_automated_time_far_below_manual(self):
        """The paper's headline: layout time drops by double-digit %."""
        rows = run_table2(circuits=["ota_small"])
        ours = next(r for r in rows if r.method == "Ours")
        manual = next(r for r in rows if r.method == "Manual")
        assert ours.total_hours < manual.total_hours

    def test_format_renders_deltas(self):
        rows = run_table2(circuits=["ota_small"])
        text = format_table2(rows)
        assert "% area" in text
        assert "OTA-small" in text


class TestGoldensCarryNoTimings:
    """The tracked ``results/`` goldens render from ``timings=False``:
    inputs that differ only in wall-clock fields must render identically,
    so tier-1 never rewrites them with timing noise."""

    def test_table1(self):
        def cells(runtime):
            return [Table1Cell(circuit="OTA-1", num_blocks=5, unseen=False,
                               method=method, runtime=runtime,
                               dead_space=(24.5, 1.25), hpwl=(90.1, 2.5),
                               reward=(2.49, 0.01))
                    for method in METHOD_ORDER]

        fast, slow = cells((0.03, 0.0)), cells((3.59, 0.06))
        assert format_table1(fast) != format_table1(slow)
        assert (format_table1(fast, timings=False)
                == format_table1(slow, timings=False))
        assert "runtime" not in format_table1(fast, timings=False)

    def test_table2(self):
        def rows(template_seconds):
            return [
                Table2Row("Driver", "Ours", area=2.3e4, dead_space=86.35,
                          template_seconds=template_seconds,
                          improvement_hours=7.1,
                          total_hours=template_seconds / 3600.0 + 7.1),
                Table2Row("Driver", "Manual", area=3.7e3, dead_space=16.24,
                          template_seconds=None, improvement_hours=None,
                          total_hours=32.0),
            ]

        fast, slow = rows(1.0), rows(33.6)
        assert format_table2(fast) != format_table2(slow)
        assert (format_table2(fast, timings=False)
                == format_table2(slow, timings=False))

    def test_fig7(self):
        result = run_pipeline(get_circuit("ota_small"),
                              floorplanner=fast_floorplanner)
        stages = list(result.timings)

        def fig7(seconds):
            timed = dataclasses.replace(
                result, timings={stage: seconds for stage in stages})
            return Fig7Result(automated=timed, manual=timed)

        fast, slow = fig7(0.001), fig7(33.4)
        assert fast.format() != slow.format()
        assert fast.format(timings=False) == slow.format(timings=False)
        assert "time=" not in fast.format(timings=False)
