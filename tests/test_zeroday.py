import math

import numpy as np
import pytest

from flowbundle import aggregation, features, flows, synth
from flowbundle.mlp import MlpModel, TrainingConfig
from flowbundle.zeroday import (
    DEFAULT_THRESHOLDS,
    ThresholdPolicy,
    detect,
    fit_benign,
)

from conftest import TIMEOUTS


def accuracy_at(report, threshold):
    for outcome in report.outcomes:
        if math.isclose(outcome.threshold, threshold):
            return outcome.accuracy
    raise KeyError(f"no outcome for threshold {threshold}")


def zero_output_autoencoder(d):
    return MlpModel(
        layer_sizes=[d, 2, d],
        weights=[np.zeros((d, 2)), np.zeros((2, d))],
        biases=[np.zeros(2), np.zeros(d)],
        output_activation="identity",
    )


class TestThresholdRule:
    def test_error_above_threshold_flagged(self):
        model = zero_output_autoencoder(4)
        x = np.full((1, 4), np.sqrt(0.2))  # reconstruction error 0.2
        report = detect(model, x, ThresholdPolicy((0.15,)), kind="attack")
        assert report.outcomes[0].flagged == 1
        assert accuracy_at(report, 0.15) == 1.0

    def test_error_exactly_at_threshold_not_flagged(self):
        model = zero_output_autoencoder(4)
        x = np.full((1, 4), 0.5)
        from flowbundle.mlp import reconstruction_errors

        err = float(reconstruction_errors(model, x)[0])  # exactly 0.25
        report = detect(model, x, ThresholdPolicy((err,)), kind="attack")
        assert report.outcomes[0].flagged == 0

    def test_benign_accuracy_is_unflagged_rate(self):
        model = zero_output_autoencoder(2)
        X = np.array([[1.0, 1.0], [0.01, 0.01]])  # errors 1.0 and 1e-4
        report = detect(model, X, ThresholdPolicy((0.05,)), kind="benign")
        assert report.outcomes[0].flagged == 1
        assert accuracy_at(report, 0.05) == 0.5

    def test_default_thresholds(self):
        assert ThresholdPolicy().thresholds == DEFAULT_THRESHOLDS

    def test_threshold_range_validated(self):
        with pytest.raises(ValueError):
            ThresholdPolicy((0.0,))
        with pytest.raises(ValueError):
            ThresholdPolicy((1.5,))
        with pytest.raises(ValueError):
            ThresholdPolicy((float("nan"),))
        assert ThresholdPolicy((1.0,)).thresholds == (1.0,)

    def test_monotone_in_threshold(self, rng):
        model = zero_output_autoencoder(3)
        X = rng.uniform(0, 1, size=(50, 3))
        attack = detect(model, X, ThresholdPolicy((0.15, 0.10, 0.05)), "attack")
        acc = [o.accuracy for o in attack.outcomes]
        assert acc[0] <= acc[1] <= acc[2]
        benign = detect(model, X, ThresholdPolicy((0.15, 0.10, 0.05)), "benign")
        bacc = [o.accuracy for o in benign.outcomes]
        assert bacc[0] >= bacc[1] >= bacc[2]

    def test_thresholds_evaluated_independently(self, rng):
        model = zero_output_autoencoder(3)
        X = rng.uniform(0, 1, size=(30, 3))
        joint = detect(model, X, ThresholdPolicy((0.15, 0.05)), "attack")
        for threshold in (0.15, 0.05):
            alone = detect(model, X, ThresholdPolicy((threshold,)), "attack")
            assert accuracy_at(alone, threshold) == accuracy_at(joint, threshold)

    def test_schema_mismatch(self):
        model = zero_output_autoencoder(4)
        with pytest.raises(ValueError, match="features"):
            detect(model, np.zeros((2, 3)), ThresholdPolicy())


class TestFitBenign:
    def test_constant_matrix_reconstructs_trivially(self):
        X = np.full((40, 6), 3.7)
        cfg = TrainingConfig(learning_rate=1.0, epochs=2000, loss="mse", seed=0)
        model, history = fit_benign(X, cfg)
        from flowbundle.mlp import reconstruction_errors

        assert float(reconstruction_errors(model, X).max()) < 1e-3
        assert history[-1] <= history[0]

    def test_zero_learning_rate_still_runs(self, rng):
        X = rng.uniform(0, 1, size=(20, 4))
        cfg = TrainingConfig(learning_rate=0.0, epochs=3, loss="mse", seed=1)
        model, _ = fit_benign(X, cfg)
        report = detect(model, X, ThresholdPolicy(), kind="benign")
        assert len(report.outcomes) == 3

    def test_architecture_halves_input(self, rng):
        X = rng.uniform(0, 1, size=(10, 7))
        cfg = TrainingConfig(learning_rate=0.1, epochs=2, loss="mse", seed=0)
        model, _ = fit_benign(X, cfg)
        assert model.layer_sizes == [7, 4, 7]
        assert model.output_activation == "sigmoid"
        assert model.scaler is not None

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_benign(np.zeros((0, 4)),
                       TrainingConfig(learning_rate=0.05, epochs=500, loss="mse"))

    def test_wrong_loss_rejected(self, rng):
        with pytest.raises(ValueError, match="mse"):
            fit_benign(rng.uniform(size=(5, 3)),
                       TrainingConfig(learning_rate=0.05, epochs=500,
                                      loss="cross_entropy"))


@pytest.fixture(scope="module")
def scenario_rows():
    traffic = synth.build_scenario("mimicking", seed=5, scale="small")
    flow_list = flows.assemble_flows(traffic.packets, **TIMEOUTS)
    labels = synth.match_labels(flow_list, traffic.manifest)
    return aggregation.aggregate_features(features.flow_table(flow_list, labels))


class TestMimickingScenario:
    def test_benign_validation_error_below_attack_error(self, scenario_rows):
        benign = scenario_rows.take(scenario_rows.label == "benign")
        attack = scenario_rows.take(scenario_rows.label != "benign")
        names = list(features.ALL_FEATURE_NAMES)
        rng = np.random.default_rng(5)
        order = rng.permutation(len(benign))
        cut = int(0.7 * len(benign))
        X_train = features.feature_matrix(benign.take(order[:cut]), names)
        X_val = features.feature_matrix(benign.take(order[cut:]), names)
        X_att = features.feature_matrix(attack, names)
        cfg = TrainingConfig(learning_rate=0.05, epochs=500, loss="mse", seed=5)
        model, _ = fit_benign(X_train, cfg)
        from flowbundle.mlp import reconstruction_errors

        assert reconstruction_errors(model, X_val).mean() < reconstruction_errors(
            model, X_att
        ).mean()

    def test_aggregation_columns_zeroed_lowers_detection(self, scenario_rows):
        # the bundle features carry the detection signal for mimics
        benign = scenario_rows.take(scenario_rows.label == "benign")
        attack = scenario_rows.take(scenario_rows.label != "benign")
        names = list(features.ALL_FEATURE_NAMES)
        X_benign = features.feature_matrix(benign, names)
        X_attack = features.feature_matrix(attack, names)
        agg_cols = [names.index("num_flows"), names.index("src_ports_delta")]
        Xb0, Xa0 = X_benign.copy(), X_attack.copy()
        Xb0[:, agg_cols] = 0.0
        Xa0[:, agg_cols] = 0.0
        cfg = TrainingConfig(learning_rate=0.05, epochs=500, loss="mse", seed=5)
        policy = ThresholdPolicy((0.05,))
        with_model, _ = fit_benign(X_benign, cfg)
        without_model, _ = fit_benign(Xb0, cfg)
        acc_with = accuracy_at(detect(with_model, X_attack, policy, "attack"), 0.05)
        acc_without = accuracy_at(detect(without_model, Xa0, policy, "attack"), 0.05)
        assert acc_without <= acc_with
