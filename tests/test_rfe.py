import numpy as np
import pytest

from flowbundle.features import ALL_FEATURE_NAMES
from flowbundle.mlp import TrainingConfig
from flowbundle.rfe import (
    RfeConfig,
    load_selection,
    rfe_select,
    save_selection,
)


def planted_dataset(rng, n=200, n_noise=9):
    """Label depends only on feature 0; the rest is uniform noise."""
    X = rng.uniform(0, 1, size=(n, 1 + n_noise))
    y = (X[:, 0] > 0.5).astype(int)
    return X, y


def fast_cfg(seed, k=1):
    return RfeConfig(
        k=k,
        inner_training=TrainingConfig(learning_rate=0.4, epochs=80, seed=seed),
        hidden_size=3,
    )


def test_k_equals_total_returns_everything():
    rng = np.random.default_rng(0)
    X, y = planted_dataset(rng)
    names = [f"f{i}" for i in range(X.shape[1])]
    result = rfe_select(X, y, names, fast_cfg(seed=0, k=len(names)))
    assert sorted(result.selected) == names
    assert result.eliminated == []


def test_planted_informative_feature_wins_across_seeds():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        X, y = planted_dataset(rng)
        names = [f"f{i}" for i in range(X.shape[1])]
        result = rfe_select(X, y, names, fast_cfg(seed=seed))
        hits += result.selected == ["f0"]
    assert hits >= 95, f"planted feature selected in only {hits}/100 seeds"


def test_partition_and_trace_properties():
    rng = np.random.default_rng(3)
    X, y = planted_dataset(rng, n_noise=11)
    names = [f"f{i}" for i in range(X.shape[1])]
    result = rfe_select(X, y, names, fast_cfg(seed=3, k=4))
    assert len(result.selected) == 4
    assert len(result.eliminated) == len(names) - 4
    assert set(result.selected) & set(result.eliminated) == set()
    assert set(result.selected) | set(result.eliminated) == set(names)
    assert list(result.importances) == result.selected  # ranked strongest first
    scores = list(result.importances.values())
    assert scores == sorted(scores, reverse=True)


def test_duplicated_column_never_crowds_out_planted_feature():
    failures = 0
    for seed in range(5):
        rng = np.random.default_rng(50 + seed)
        X, y = planted_dataset(rng, n_noise=5)
        X = np.hstack([X, X[:, [3]]])  # exact duplicate of a noise column
        names = [f"f{i}" for i in range(6)] + ["f3_copy"]
        result = rfe_select(X, y, names, fast_cfg(seed=seed, k=2))
        both_copies = {"f3", "f3_copy"} <= set(result.selected)
        if both_copies and "f0" not in result.selected:
            failures += 1
    assert failures == 0


def test_constant_column_loses_to_informative():
    rng = np.random.default_rng(6)
    X, y = planted_dataset(rng, n_noise=3)
    X[:, 2] = 7.0  # constant
    names = ["f0", "f1", "const", "f3"]
    result = rfe_select(X, y, names, fast_cfg(seed=6, k=1))
    assert result.selected == ["f0"]
    assert "const" in result.eliminated


def test_k_larger_than_features_rejected():
    rng = np.random.default_rng(7)
    X, y = planted_dataset(rng, n_noise=2)
    with pytest.raises(ValueError, match="exceeds"):
        rfe_select(X, y, ["a", "b", "c"], fast_cfg(seed=0, k=9))


def test_single_class_rejected():
    X = np.random.default_rng(0).uniform(size=(20, 3))
    y = np.zeros(20, dtype=int)
    with pytest.raises(ValueError, match="two classes"):
        rfe_select(X, y, ["a", "b", "c"], fast_cfg(seed=0))


def test_deterministic_given_seed():
    rng = np.random.default_rng(8)
    X, y = planted_dataset(rng)
    names = [f"f{i}" for i in range(X.shape[1])]
    r1 = rfe_select(X, y, names, fast_cfg(seed=8, k=3))
    r2 = rfe_select(X, y, names, fast_cfg(seed=8, k=3))
    assert r1.selected == r2.selected
    assert r1.eliminated == r2.eliminated


def test_selection_manifest_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    X, y = planted_dataset(rng)
    # a selection holds feature names of the pipeline
    names = ALL_FEATURE_NAMES[:X.shape[1]]
    result = rfe_select(X, y, names, fast_cfg(seed=9, k=2))
    path = tmp_path / "selection.json"
    save_selection(result, path)
    assert load_selection(path) == result.selected


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"format_version": 1}', "missing key 'selected'"),
        ('{"format_version": 2, "selected": []}', "unsupported selection format"),
        ('["f0"]', "expected a JSON object"),
    ],
)
def test_selection_manifest_defects_name_the_file(tmp_path, text, message):
    path = tmp_path / "selection.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"{path}: {message}"):
        load_selection(path)


def test_config_validation():
    with pytest.raises(ValueError):
        fast_cfg(seed=0, k=0)
