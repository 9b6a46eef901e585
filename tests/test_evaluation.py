import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbundle.config import PipelineConfig
from flowbundle.evaluation import (
    ConfusionCounts,
    f1,
    kfold_evaluate,
    ordered_classes,
    precision,
    recall,
    render_report_text,
    run_experiment,
    stratified_folds,
)
from flowbundle.features import SchemaError, flow_table
from flowbundle.mlp import TrainingConfig

from conftest import flow_segments
from test_features import random_flow


def counts_for(tp, fp, fn, cls="attack"):
    return ConfusionCounts(
        classes=[cls], tp={cls: tp}, fp={cls: fp}, fn={cls: fn}
    )


class TestMetrics:
    def test_recall_direct(self):
        assert recall(counts_for(50, 0, 50), "attack").value == 0.5

    def test_precision_direct(self):
        assert precision(counts_for(9, 1, 0), "attack").value == 0.9

    def test_f1_hand_evaluated(self):
        metric = f1(counts_for(50, 50, 0), "attack")
        assert metric.value == pytest.approx(100 / 150)
        assert round(metric.value, 4) == 0.6667

    def test_zero_denominators_flagged(self):
        c = counts_for(0, 0, 0)
        for fn in (precision, recall, f1):
            metric = fn(c, "attack")
            assert metric.value == 0.0
            assert metric.defined is False

    @given(st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000))
    @settings(max_examples=200, deadline=None)
    def test_formulas_match_direct_evaluation(self, tp, fp, fn):
        c = counts_for(tp, fp, fn)
        if tp + fp:
            assert precision(c, "attack").value == tp / (tp + fp)
        if tp + fn:
            assert recall(c, "attack").value == tp / (tp + fn)
        if 2 * tp + fp + fn:
            assert f1(c, "attack").value == 2 * tp / (2 * tp + fp + fn)

    @given(st.integers(1, 500), st.integers(1, 500), st.integers(1, 500))
    @settings(max_examples=100, deadline=None)
    def test_f1_is_harmonic_mean(self, tp, fp, fn):
        c = counts_for(tp, fp, fn)
        p = precision(c, "attack").value
        r = recall(c, "attack").value
        assert f1(c, "attack").value == pytest.approx(2 * p * r / (p + r))

    def test_from_predictions_conservation(self, rng):
        classes = ["benign", "a", "b"]
        y_true = rng.integers(0, 3, size=200)
        y_pred = rng.integers(0, 3, size=200)
        counts = ConfusionCounts.from_predictions(y_true, y_pred, classes)
        assert sum(counts.tp.values()) + sum(counts.fn.values()) == 200
        for cls in classes:
            assert counts.tp[cls] >= 0
            assert counts.fp[cls] >= 0


class TestStratifiedFolds:
    def test_fold_sizes(self):
        y = np.array([0] * 50 + [1] * 50)
        folds = stratified_folds(y, 5, seed=0)
        assert [len(f) for f in folds] == [20] * 5
        for fold in folds:
            assert (y[fold] == 0).sum() == 10
            assert (y[fold] == 1).sum() == 10

    def test_proportions_within_one_sample(self, rng):
        y = rng.integers(0, 3, size=157)
        folds = stratified_folds(y, 5, seed=1)
        all_idx = np.concatenate(folds)
        assert sorted(all_idx.tolist()) == list(range(157))
        for cls in range(3):
            per_fold = [(y[f] == cls).sum() for f in folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_small_class_error_names_class(self):
        y = np.array([0] * 40 + [1] * 3)
        with pytest.raises(ValueError, match="'rare'"):
            stratified_folds(y, 5, seed=0, class_names=["common", "rare"])


class TestKfoldEvaluate:
    def test_separable_data_perfect_recall(self, rng):
        X = np.vstack([rng.normal(-3, 0.3, size=(60, 2)),
                       rng.normal(3, 0.3, size=(60, 2))])
        y = np.array([0] * 60 + [1] * 60)
        report = kfold_evaluate(
            X, y, ["benign", "attack"], 5,
            training=TrainingConfig(learning_rate=0.2, epochs=150, seed=0),
            hidden_size=3, seed=0,
        )
        for metrics in report.classes.values():
            assert metrics.recall_mean == 1.0
            assert metrics.recall_std == 0.0
            assert metrics.f1_mean == 1.0

    def test_deterministic(self, rng):
        X = rng.normal(size=(80, 3))
        y = np.array([0, 1] * 40)
        training = TrainingConfig(learning_rate=0.05, epochs=20, seed=0)
        r1 = kfold_evaluate(X, y, ["a", "b"], 4, training, hidden_size=3, seed=3)
        r2 = kfold_evaluate(X, y, ["a", "b"], 4, training, hidden_size=3, seed=3)
        assert r1 == r2


def rows_for(label, n, rng, redraw_num_flows=None):
    """n random flows with random bundle columns; redraw_num_flows, when
    given, draws each row's num_flows a second time."""
    flows, num_flows, deltas = [], [], []
    for _ in range(n):
        flows.append(random_flow(rng))
        num_flows.append(int(rng.integers(1, 30)))
        deltas.append(float(rng.uniform(0, 3000)))
        if redraw_num_flows:
            num_flows[-1] = redraw_num_flows()
    return dataclasses.replace(
        flow_table(flow_segments(flows), [label] * n),
        num_flows=np.array(num_flows, dtype=np.int64),
        src_ports_delta=np.array(deltas, dtype=float),
    )


class TestRunExperiment:
    @staticmethod
    def _fast_kwargs(seed=0, **settings):
        return dict(cfg=PipelineConfig(
            folds=3, seed=seed, learning_rate=0.3, epochs=60,
            rfe_learning_rate=0.4, rfe_epochs=40, **settings,
        ))

    def test_binary_design_two_rows(self, rng):
        classes = {
            "benign": rows_for("benign", 30, rng),
            "slowloris": rows_for(
                "slowloris", 30, rng,
                redraw_num_flows=lambda: int(rng.integers(50, 80)),
            ),
        }
        report, selection = run_experiment(
            "binary", classes, with_aggregation=True, **self._fast_kwargs()
        )
        assert list(report.classes) == ["benign", "slowloris"]
        assert len(selection.selected) == 5
        assert report.with_aggregation is True
        text = render_report_text(report, title="binary")
        assert "slowloris" in text and "%" in text

    def test_three_class_requires_portscan(self, rng):
        classes = {
            "benign": rows_for("benign", 20, rng),
            "a": rows_for("a", 20, rng),
            "b": rows_for("b", 20, rng),
        }
        with pytest.raises(ValueError, match="portscan"):
            run_experiment("three_class", classes, with_aggregation=False,
                           **self._fast_kwargs())

    def test_three_class_row_count(self, rng):
        classes = {
            "benign": rows_for("benign", 20, rng),
            "portscan": rows_for("portscan", 20, rng),
            "slowloris": rows_for("slowloris", 20, rng),
        }
        report, _ = run_experiment("three_class", classes, with_aggregation=False,
                                   **self._fast_kwargs())
        assert list(report.classes) == ["benign", "portscan", "slowloris"]

    def test_binary_rejects_extra_attacks(self, rng):
        classes = {
            "benign": rows_for("benign", 10, rng),
            "a": rows_for("a", 10, rng),
            "b": rows_for("b", 10, rng),
        }
        with pytest.raises(ValueError, match="binary"):
            run_experiment("binary", classes, with_aggregation=False,
                           **self._fast_kwargs())

    def test_five_class_extended_uses_ten_features_and_eight_hidden(self, rng):
        classes = {"benign": rows_for("benign", 18, rng)}
        for name in ("portscan", "hulk", "slowloris", "slowhttptest"):
            classes[name] = rows_for(name, 18, rng)
        report, selection = run_experiment(
            "five_class", classes, with_aggregation=True, extended=True,
            **self._fast_kwargs()
        )
        assert len(selection.selected) == 10
        assert len(report.selected_features) == 10
        assert report.hidden_size == 8
        assert len(report.classes) == 5

    def test_network_settings_reach_both_designs(self, rng):
        classes = {"benign": rows_for("benign", 18, rng)}
        for name in ("portscan", "hulk", "slowloris", "slowhttptest"):
            classes[name] = rows_for(name, 18, rng)
        settings = dict(rfe_k=4, hidden_size=2, extended_hidden_size=6)
        for extended, k, hidden in ((False, 4, 2), (True, 10, 6)):
            report, selection = run_experiment(
                "five_class", classes, with_aggregation=True, extended=extended,
                **self._fast_kwargs(**settings)
            )
            assert len(selection.selected) == k
            assert report.hidden_size == hidden

    def test_without_aggregation_excludes_bundle_features(self, rng):
        classes = {
            "benign": rows_for("benign", 25, rng),
            "x": rows_for("x", 25, rng),
        }
        _, selection = run_experiment(
            "binary", classes, with_aggregation=False, **self._fast_kwargs()
        )
        pool = set(selection.selected) | set(selection.eliminated)
        assert "num_flows" not in pool
        assert "src_ports_delta" not in pool

    def test_with_aggregation_requires_populated_slots(self, rng):
        classes = {
            "benign": flow_table(flow_segments([random_flow(rng) for _ in range(12)]),
                                 ["benign"] * 12),
            "x": flow_table(flow_segments([random_flow(rng) for _ in range(12)]),
                            ["x"] * 12),
        }
        with pytest.raises(SchemaError, match="aggregation"):
            run_experiment("binary", classes, with_aggregation=True,
                           **self._fast_kwargs())

    def test_empty_class_rejected(self, rng):
        classes = {"benign": rows_for("benign", 10, rng), "x": rows_for("x", 0, rng)}
        with pytest.raises(ValueError, match="no feature rows"):
            run_experiment("binary", classes, with_aggregation=False,
                           **self._fast_kwargs())


def test_ordered_classes():
    assert ordered_classes(["z", "portscan", "benign", "a"]) == [
        "benign", "portscan", "a", "z",
    ]


def test_report_to_dict_round_trip_shape(rng):
    X = rng.normal(size=(40, 2))
    y = np.array([0, 1] * 20)
    training = TrainingConfig(learning_rate=0.05, epochs=10, seed=0)
    report = kfold_evaluate(X, y, ["a", "b"], 4, training, hidden_size=3, seed=0,
                            selected_features=["x", "y"])
    doc = report.to_dict()
    assert doc["folds"] == 4
    assert doc["selected_features"] == ["x", "y"]
    assert set(doc["classes"]) == {"a", "b"}
    assert set(doc["classes"]["a"]) == {
        "precision_mean", "precision_std", "recall_mean", "recall_std",
        "f1_mean", "f1_std",
    }
