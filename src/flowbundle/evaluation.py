"""Cross-validated experiments with per-class precision, recall and F1.

Metrics use one-vs-rest confusion tallies: precision = TP/(TP+FP),
recall = TP/(TP+FN), F1 = 2TP/(2TP+FP+FN); a zero denominator reports
0 with the ``defined`` flag cleared.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import PipelineConfig
from .features import (
    ALL_FEATURE_NAMES,
    FLOW_FEATURE_NAMES,
    FlowTable,
    feature_matrix,
    read_features_csv,
)
from .mlp import TrainingConfig, init_classifier, predict_classes, train
from .rfe import RfeConfig, RfeResult, rfe_select

DESIGNS = ("binary", "three_class", "five_class")
# the extended five-class design keeps the paper's 10 features
EXTENDED_FEATURES = 10


class Metric(NamedTuple):
    value: float
    defined: bool


@dataclass
class ConfusionCounts:
    """One-vs-rest TP/FP/FN tallies per class."""

    classes: list[str]
    tp: dict[str, int]
    fp: dict[str, int]
    fn: dict[str, int]

    @classmethod
    def from_predictions(
        cls, y_true: np.ndarray, y_pred: np.ndarray, classes: list[str]
    ) -> "ConfusionCounts":
        tp: dict[str, int] = {}
        fp: dict[str, int] = {}
        fn: dict[str, int] = {}
        for idx, name in enumerate(classes):
            tp[name] = int(np.sum((y_pred == idx) & (y_true == idx)))
            fp[name] = int(np.sum((y_pred == idx) & (y_true != idx)))
            fn[name] = int(np.sum((y_pred != idx) & (y_true == idx)))
        return cls(classes=list(classes), tp=tp, fp=fp, fn=fn)


def precision(counts: ConfusionCounts, cls: str) -> Metric:
    denom = counts.tp[cls] + counts.fp[cls]
    if denom == 0:
        return Metric(0.0, False)
    return Metric(counts.tp[cls] / denom, True)


def recall(counts: ConfusionCounts, cls: str) -> Metric:
    denom = counts.tp[cls] + counts.fn[cls]
    if denom == 0:
        return Metric(0.0, False)
    return Metric(counts.tp[cls] / denom, True)


def f1(counts: ConfusionCounts, cls: str) -> Metric:
    denom = 2 * counts.tp[cls] + counts.fp[cls] + counts.fn[cls]
    if denom == 0:
        return Metric(0.0, False)
    return Metric(2 * counts.tp[cls] / denom, True)


@dataclass
class ClassMetrics:
    precision_mean: float
    precision_std: float
    recall_mean: float
    recall_std: float
    f1_mean: float
    f1_std: float


@dataclass
class ExperimentReport:
    classes: dict[str, ClassMetrics]
    folds: int
    hidden_size: int
    selected_features: list[str] = field(default_factory=list)
    with_aggregation: bool = False

    def to_dict(self) -> dict:
        return {
            "folds": self.folds,
            "with_aggregation": self.with_aggregation,
            "hidden_size": self.hidden_size,
            "selected_features": self.selected_features,
            "classes": {
                name: vars(metrics) for name, metrics in self.classes.items()
            },
        }


def stratified_folds(
    y: np.ndarray, folds: int, seed: int, class_names: list[str] | None = None
) -> list[np.ndarray]:
    """Shuffled per-class chunking; fold proportions match within 1 sample."""
    if folds < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    assignments: list[list[int]] = [[] for _ in range(folds)]
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        if len(idx) < folds:
            name = class_names[cls] if class_names else str(cls)
            raise ValueError(
                f"class {name!r} has {len(idx)} samples, fewer than {folds} folds"
            )
        idx = rng.permutation(idx)
        splits = np.array_split(idx, folds)
        for f in range(folds):
            assignments[f].extend(splits[f].tolist())
    return [np.array(sorted(a), dtype=int) for a in assignments]


def kfold_evaluate(
    X: np.ndarray,
    y: np.ndarray,
    class_names: list[str],
    folds: int,
    training: TrainingConfig,
    hidden_size: int,
    seed: int,
    selected_features: list[str] | None = None,
    with_aggregation: bool = False,
) -> ExperimentReport:
    """Stratified k-fold training of ``init_classifier`` networks; returns
    per-class mean/std metrics."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    fold_indices = stratified_folds(y, folds, seed, class_names)
    per_class: dict[str, dict[str, list[float]]] = {
        name: {"precision": [], "recall": [], "f1": []} for name in class_names
    }
    for f, test_idx in enumerate(fold_indices):
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[test_idx] = False
        fold_cfg = replace(training, loss="cross_entropy", seed=seed + f)
        model = init_classifier(X.shape[1], hidden_size, len(class_names), seed + f)
        trained, _ = train(model, X[train_mask], y[train_mask], fold_cfg, record_loss=False)
        y_pred = predict_classes(trained, X[test_idx])
        counts = ConfusionCounts.from_predictions(y[test_idx], y_pred, class_names)
        for name in class_names:
            per_class[name]["precision"].append(precision(counts, name).value)
            per_class[name]["recall"].append(recall(counts, name).value)
            per_class[name]["f1"].append(f1(counts, name).value)

    classes = {}
    for name in class_names:
        stats = per_class[name]
        classes[name] = ClassMetrics(
            precision_mean=float(np.mean(stats["precision"])),
            precision_std=float(np.std(stats["precision"])),
            recall_mean=float(np.mean(stats["recall"])),
            recall_std=float(np.std(stats["recall"])),
            f1_mean=float(np.mean(stats["f1"])),
            f1_std=float(np.std(stats["f1"])),
        )
    return ExperimentReport(
        classes=classes,
        folds=folds,
        hidden_size=hidden_size,
        selected_features=selected_features or [],
        with_aggregation=with_aggregation,
    )


def _validate_design(design: str, class_names: list[str]) -> None:
    if design not in DESIGNS:
        raise ValueError(f"design must be one of {DESIGNS}")
    if "benign" not in class_names:
        raise ValueError("every design needs a 'benign' class")
    n_attacks = len(class_names) - 1
    if design == "binary" and n_attacks != 1:
        raise ValueError("binary design needs benign plus exactly one attack")
    if design == "three_class":
        if n_attacks != 2:
            raise ValueError(
                "three_class design needs benign, portscan and one more attack"
            )
        if "portscan" not in class_names:
            raise ValueError("three_class design requires a 'portscan' class")
    if design == "five_class" and n_attacks != 4:
        raise ValueError("five_class design needs benign plus four attacks")


def ordered_classes(class_names: list[str]) -> list[str]:
    """Benign first, then portscan, then the rest alphabetically."""
    rest = sorted(n for n in class_names if n not in ("benign", "portscan"))
    out = [n for n in ("benign", "portscan") if n in class_names]
    return out + rest


def run_experiment(
    design: str,
    class_rows: dict[str, FlowTable | str | Path],
    with_aggregation: bool,
    extended: bool = False,
    *,
    cfg: PipelineConfig,
) -> tuple[ExperimentReport, RfeResult]:
    """RFE then k-fold evaluation for one experiment design.

    class_rows maps each class name to its flow table or a CSV path; the
    name, not the rows' labels, sets the class.  Without aggregation the
    two bundle features are excluded from RFE entirely.  RFE keeps
    cfg.rfe_k features for cfg.hidden_size hidden neurons; the extended
    mode keeps 10 for cfg.extended_hidden_size.
    """
    tables: dict[str, FlowTable] = {}
    for name, source in class_rows.items():
        table = (
            read_features_csv(source) if isinstance(source, (str, Path)) else source
        )
        if not len(table):
            raise ValueError(f"class {name!r} has no feature rows")
        tables[name] = table
    class_names = ordered_classes(list(tables))
    _validate_design(design, class_names)

    candidates = list(ALL_FEATURE_NAMES) if with_aggregation else list(
        FLOW_FEATURE_NAMES
    )
    # one matrix per class, stacked in class order; y follows the lengths
    X_all = np.vstack([feature_matrix(tables[name], candidates) for name in class_names])
    y = np.repeat(np.arange(len(class_names)), [len(tables[name]) for name in class_names])

    k, hidden = (
        (EXTENDED_FEATURES, cfg.extended_hidden_size)
        if extended
        else (cfg.rfe_k, cfg.hidden_size)
    )
    rfe_cfg = RfeConfig(
        k=min(k, len(candidates)),
        inner_training=cfg.rfe_training(),
        hidden_size=hidden,
    )
    selection = rfe_select(X_all, y, candidates, rfe_cfg)

    keep = [candidates.index(name) for name in selection.selected]
    X_sel = X_all[:, keep]
    report = kfold_evaluate(
        X_sel,
        y,
        class_names,
        cfg.folds,
        cfg.classifier_training(),
        hidden,
        cfg.seed,
        selected_features=selection.selected,
        with_aggregation=with_aggregation,
    )
    return report, selection


def render_report_text(report: ExperimentReport, title: str = "") -> str:
    """Aligned table of per-class metrics, percentages at 2 d.p."""
    lines = []
    if title:
        lines.append(title)
    header = f"{'Class':<16}{'Precision':>20}{'Recall':>20}{'F1':>20}"
    lines.append(header)
    lines.append("-" * len(header))

    def cell(mean: float, std: float) -> str:
        return f"{100 * mean:6.2f}% ± {100 * std:5.2f}%"

    for name, m in report.classes.items():
        lines.append(
            f"{name:<16}"
            f"{cell(m.precision_mean, m.precision_std):>20}"
            f"{cell(m.recall_mean, m.recall_std):>20}"
            f"{cell(m.f1_mean, m.f1_std):>20}"
        )
    lines.append(
        f"(folds={report.folds}, aggregation="
        f"{'on' if report.with_aggregation else 'off'}, "
        f"features={', '.join(report.selected_features)})"
    )
    return "\n".join(lines)
