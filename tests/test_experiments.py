"""Integration tests for the experiment runners (tiny scale)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (DELTA, EXPERIMENTS, NONE, SCALES, Arm, Cell,
                               ExperimentResult, PairedDelta, PretrainCache,
                               aggregate, paired_delta, paired_rows,
                               run_experiment, transfer_trial)

from . import golden_experiments


def run_checked(name: str) -> ExperimentResult:
    """Run the tiny slice of ``name`` and hold every recorded cell and the
    pre-training count to ``tests/fixtures/golden_experiments.npz``."""
    result, pretrain_calls = golden_experiments.run_slice(name)
    current = golden_experiments.cells(name, result, pretrain_calls)
    for key, expected in golden_experiments.recorded(name).items():
        assert key in current, key
        # assert_array_equal treats NaN == NaN (an undefined AUC stays one).
        np.testing.assert_array_equal(current[key], expected, err_msg=key)
    # Every row carries the paired column; the control's is exactly 0.
    assert DELTA in result.columns
    control = result.rows[0][DELTA]
    assert (control.mean, control.low, control.high) == (0.0, 0.0, 0.0)
    assert all(isinstance(row[DELTA], PairedDelta) for row in result.rows)
    return result


class TestPlumbing:
    def test_registry_covers_every_paper_artifact(self):
        expected = {"table4", "table5_6", "table7", "table8", "table9",
                    "table10", "table11", "figure5", "figure6", "figure7",
                    "figure8", "ablations"}
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("table99")

    def test_scales_defined(self):
        assert {"tiny", "default", "full"} <= set(SCALES)

    def test_aggregate_mean_std(self):
        cell = aggregate([0.5, 0.7])
        assert cell.mean == pytest.approx(0.6)
        assert cell.std == pytest.approx(0.1)
        assert cell.n_seeds == 2
        assert "±" in str(cell)

    def test_aggregate_handles_nan(self):
        cell = aggregate([0.5, float("nan")])
        assert cell.mean == pytest.approx(0.5)

    def test_result_table_and_lookup(self):
        result = ExperimentResult(experiment="demo", columns=["a", "b"])
        result.add_row(a="x", b=aggregate([1.0]))
        table = result.format_table()
        assert "demo" in table and "x" in table
        assert result.cell("b", a="x").mean == 1.0
        with pytest.raises(KeyError):
            result.cell("b", a="missing")

    def test_pretrain_cache_memoises(self):
        cache = PretrainCache()
        calls = []
        cache.get(("k",), lambda: calls.append(1) or "v")
        cache.get(("k",), lambda: calls.append(1) or "v")
        assert len(calls) == 1


class TestPairedDelta:
    """``ΔAUC vs none``: per-seed paired differences, their mean and a
    fixed-seed percentile-bootstrap interval."""

    ARM = [0.62, 0.58, 0.71, 0.66, 0.60]
    CONTROL = [0.60, 0.61, 0.65, 0.64, 0.55]

    def test_control_against_itself_is_exactly_zero_with_no_width(self):
        delta = paired_delta(self.CONTROL, self.CONTROL)
        assert delta.per_seed == (0.0,) * len(self.CONTROL)
        assert (delta.mean, delta.low, delta.high) == (0.0, 0.0, 0.0)

    def test_delta_is_the_mean_of_per_seed_differences(self):
        delta = paired_delta(self.ARM, self.CONTROL)
        diffs = np.subtract(self.ARM, self.CONTROL)
        assert delta.per_seed == tuple(diffs.tolist())
        assert delta.mean == diffs.mean()

    def test_interval_is_deterministic_and_contains_the_mean(self):
        first = paired_delta(self.ARM, self.CONTROL)
        second = paired_delta(self.ARM, self.CONTROL)
        assert (first.low, first.high) == (second.low, second.high)
        assert first.low < first.mean < first.high
        assert "[" in str(first) and str(first).startswith("+")

    def test_one_seed_collapses_the_interval_to_the_point(self):
        delta = paired_delta([0.7], [0.6])
        assert delta.low == delta.mean == delta.high == 0.7 - 0.6

    def test_seeds_with_an_undefined_auc_drop_out(self):
        delta = paired_delta([0.7, float("nan")], [0.6, 0.5])
        assert delta.mean == delta.low == delta.high == 0.7 - 0.6
        assert str(paired_delta([float("nan")], [0.5])) == "NaN"

    def test_rows_pair_each_seed_with_its_own_control(self):
        exp = replace(SCALES["tiny"], seeds=(0, 1))
        data = exp.resolve("amazon:beauty", "time", "arts")
        arms = [Arm("cpdg", strategy="full")]
        control, cpdg = paired_rows(exp, data, arms, backbone="tgn")
        assert control["arm"] == NONE and cpdg["arm"] == "cpdg"
        trials = [transfer_trial(exp, seed, data.pretrain, data.downstream,
                                 arms, backbone="tgn") for seed in exp.seeds]
        diffs = [t["cpdg"].auc - t[NONE].auc for t in trials]
        assert cpdg[DELTA].per_seed == tuple(diffs)
        assert cpdg[DELTA].mean == np.mean(diffs)
        assert cpdg["AUC"].mean == np.mean([t["cpdg"].auc for t in trials])
        assert cpdg[DELTA].low <= cpdg[DELTA].mean <= cpdg[DELTA].high
        assert control[DELTA].per_seed == (0.0, 0.0)

    def test_every_arm_is_scored_on_the_same_test_negatives(self,
                                                            monkeypatch):
        import repro.tasks.link_prediction as link_prediction

        exp = SCALES["tiny"]
        data = exp.resolve("amazon:beauty", "time", "arts")
        test_passes = []
        batches = link_prediction.chronological_batches

        def recording(stream, *args, **kwargs):
            negatives = []
            if stream is data.downstream.test:
                test_passes.append(negatives)
            for batch in batches(stream, *args, **kwargs):
                negatives.append(batch.neg_dst.copy())
                yield batch

        monkeypatch.setattr(link_prediction, "chronological_batches",
                            recording)
        trial = transfer_trial(exp, 0, data.pretrain, data.downstream,
                               [Arm("eie-gru")])
        assert list(trial) == [NONE, "eie-gru"]
        assert len(test_passes) == 2        # one test evaluation per arm
        none, eie = (np.concatenate(p) for p in test_passes)
        np.testing.assert_array_equal(none, eie)


class TestRunnersTiny:
    """Each runner must complete and emit the expected row structure."""

    def test_dataset_stats(self):
        result = run_experiment("table5_6", scale="tiny", verbose=False)
        datasets = {row["dataset"] for row in result.rows}
        assert "meituan" in datasets
        assert any(d.startswith("amazon/") for d in datasets)
        assert all(row["# Edges"] > 0 for row in result.rows)

    def test_table4_orders_strategy_cost(self):
        result = run_experiment("table4", scale="tiny", verbose=False)
        times = {row["strategy"]: row["seconds/epoch"] for row in result.rows}
        assert set(times) == {"full", "eie-mean", "eie-attn", "eie-gru"}
        assert all(v > 0 for v in times.values())
        # EIE-GRU fuses L checkpoints sequentially: strictly more work
        # than plain full fine-tuning.  Ordered by recorded autograd ops,
        # not by two ~20 ms wall times.
        ops = {row["strategy"]: row["graph ops"] for row in result.rows}
        assert ops["eie-gru"] > ops["eie-mean"] > ops["full"] > 0

    def test_table8_rows(self):
        result = run_checked("table8")
        methods = [row["method"] for row in result.rows]
        assert methods == ["none", "jodie", "cpdg(jodie)"]
        for row in result.rows:
            assert isinstance(row["AUC"], Cell)
            assert isinstance(row[DELTA], PairedDelta)

    def test_table7_slice(self):
        result = run_checked("table7")
        assert len(result.rows) == 3
        assert ({row["method"] for row in result.rows}
                == {"none", "tgn", "cpdg(tgn)"})

    def test_table9_slice(self):
        result = run_checked("table9")
        assert len(result.rows) == 3
        for row in result.rows:
            assert np.isnan(row["AUC"].mean) or 0.0 <= row["AUC"].mean <= 1.0

    def test_table10_slice(self):
        result = run_checked("table10")
        methods = [row["method"] for row in result.rows]
        assert methods[0] == "No Pre-train"
        assert "CPDG (T)" in methods
        assert len(result.rows) == 4

    def test_table11_strategies(self):
        result = run_checked("table11")
        strategies = [row["strategy"] for row in result.rows]
        assert strategies == ["none", "Full", "EIE-mean", "EIE-attn",
                              "EIE-GRU"]

    def test_figure6_beta_series(self):
        result = run_checked("figure6")
        betas = [row["beta"] for row in result.rows]
        assert betas == ["none", 0.1, 0.9]

    def test_figure7_grid(self):
        result = run_checked("figure7")
        assert len(result.rows) == 3
        assert {row["depth"] for row in result.rows} == {"none", 1, 2}

    def test_figure8_lengths(self):
        result = run_checked("figure8")
        assert [row["L"] for row in result.rows] == ["none", 1, 3]

    def test_figure5_variants(self):
        result = run_checked("figure5")
        variants = {row["variant"] for row in result.rows}
        assert variants == {"none", "CPDG", "w/o TC", "w/o SC", "w/o EIE"}
        datasets = {row["dataset"] for row in result.rows}
        assert datasets == {"beauty", "luxury", "wikipedia", "reddit"}
