import json

import numpy as np
import pytest

from flowbundle.mlp import (
    MinMaxScaler,
    MlpModel,
    ModelArtifact,
    TrainingConfig,
    TrainingDivergedError,
    forward,
    forward_batch,
    init_model,
    load_model,
    loss_and_gradients,
    predict_class,
    predict_classes,
    reconstruction_error,
    reconstruction_errors,
    save_model,
    train,
)


def finite_difference_grads(model, X, T, loss, eps=1e-5):
    """Central-difference gradient oracle over every weight and bias."""
    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]
    for layer, w in enumerate(model.weights):
        flat = w.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + eps
            up, _, _ = loss_and_gradients(model, X, T, loss)
            flat[i] = old - eps
            down, _, _ = loss_and_gradients(model, X, T, loss)
            flat[i] = old
            grads_w[layer].reshape(-1)[i] = (up - down) / (2 * eps)
    for layer, b in enumerate(model.biases):
        for i in range(b.size):
            old = b[i]
            b[i] = old + eps
            up, _, _ = loss_and_gradients(model, X, T, loss)
            b[i] = old - eps
            down, _, _ = loss_and_gradients(model, X, T, loss)
            b[i] = old
            grads_b[layer].reshape(-1)[i] = (up - down) / (2 * eps)
    return grads_w, grads_b


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-7)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def make_blobs(rng, n=100, spread=0.5):
    X0 = rng.normal((-2, -2), spread, size=(n, 2))
    X1 = rng.normal((2, 2), spread, size=(n, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * n + [1] * n)
    return X, y


class TestForward:
    def test_zero_network_identity_output(self):
        model = init_model([3, 2], output_activation="identity", seed=0)
        model.weights[0][:] = 0.0
        assert np.array_equal(forward(model, [1.0, 2.0, 3.0]), [0.0, 0.0])

    def test_single_neuron_relu_hand_evaluated(self):
        model = MlpModel(
            layer_sizes=[2, 1],
            weights=[np.array([[0.5], [-0.25]])],
            biases=[np.array([0.1])],
            output_activation="identity",
        )
        out = forward(model, [1.0, 2.0])
        # relu applies on hidden layers; a 1-layer net with identity output
        # realises the same value because the pre-activation is positive
        assert out[0] == pytest.approx(0.1)
        hidden = MlpModel(
            layer_sizes=[2, 1, 1],
            weights=[np.array([[0.5], [-0.25]]), np.array([[1.0]])],
            biases=[np.array([0.1]), np.array([0.0])],
            hidden_activation="relu",
            output_activation="identity",
        )
        assert forward(hidden, [1.0, 2.0])[0] == pytest.approx(0.1)

    def test_sigmoid_at_zero(self):
        model = init_model([2, 1], output_activation="sigmoid", seed=0)
        model.weights[0][:] = 0.0
        assert forward(model, [3.0, -1.0])[0] == pytest.approx(0.5)

    def test_softmax_sums_to_one(self, rng):
        model = init_model([4, 3, 5], seed=1)
        X = rng.normal(size=(20, 4))
        probs = forward_batch(model, X)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((probs > 0) & (probs < 1))

    def test_dimension_mismatch(self):
        model = init_model([3, 2], seed=0)
        with pytest.raises(ValueError):
            forward(model, [1.0, 2.0])

    def test_non_finite_input_rejected(self):
        model = init_model([2, 2], seed=0)
        with pytest.raises(ValueError):
            forward(model, [np.nan, 1.0])


class TestGradients:
    @pytest.mark.parametrize("hidden_activation", ["tanh", "sigmoid", "relu"])
    def test_cross_entropy_gradcheck(self, rng, hidden_activation):
        model = init_model([4, 3, 2], hidden_activation=hidden_activation, seed=7)
        X = rng.normal(size=(6, 4))
        T = np.eye(2)[rng.integers(0, 2, size=6)]
        _, gw, gb = loss_and_gradients(model, X, T, "cross_entropy")
        fw, fb = finite_difference_grads(model, X, T, "cross_entropy")
        assert max_relative_error(gw + gb, fw + fb) < 1e-4

    @pytest.mark.parametrize("output_activation", ["identity", "sigmoid"])
    def test_mse_gradcheck(self, rng, output_activation):
        model = init_model(
            [3, 4, 3], hidden_activation="tanh",
            output_activation=output_activation, seed=3,
        )
        X = rng.normal(size=(5, 3))
        T = rng.uniform(0.2, 0.8, size=(5, 3))
        _, gw, gb = loss_and_gradients(model, X, T, "mse")
        fw, fb = finite_difference_grads(model, X, T, "mse")
        assert max_relative_error(gw + gb, fw + fb) < 1e-4

    def test_unsupported_pairings_rejected(self, rng):
        model = init_model([2, 2], output_activation="identity", seed=0)
        with pytest.raises(ValueError):
            loss_and_gradients(model, np.zeros((1, 2)), np.zeros((1, 2)),
                               "cross_entropy")
        softmax = init_model([2, 2], output_activation="softmax", seed=0)
        with pytest.raises(ValueError):
            loss_and_gradients(softmax, np.zeros((1, 2)), np.zeros((1, 2)), "mse")


# The original straightforward implementation of loss_and_gradients,
# kept verbatim as the bit-exact reference for the in-place hot path.
def _ref_sigmoid(z):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _ref_hidden(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    return _ref_sigmoid(z)


def _ref_hidden_grad(z, activation, kind):
    if kind == "relu":
        return (z > 0).astype(float)
    if kind == "tanh":
        return 1.0 - activation**2
    return activation * (1.0 - activation)


def _ref_output(z, kind):
    if kind == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    if kind == "sigmoid":
        return _ref_sigmoid(z)
    return z


def reference_loss_and_gradients(model, X, targets, loss):
    out_kind = model.output_activation
    n = X.shape[0]
    activations = [X]
    pre = []
    a = X
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre.append(z)
        a = _ref_output(z, out_kind) if i == last else _ref_hidden(
            z, model.hidden_activation
        )
        activations.append(a)
    output = activations[-1]

    if loss == "cross_entropy":
        clipped = np.clip(output, 1e-12, 1.0)
        value = float(-(targets * np.log(clipped)).sum() / n)
        delta = (output - targets) / n
    else:
        diff = output - targets
        value = float((diff**2).mean())
        delta = 2.0 * diff / diff.size
        if out_kind == "sigmoid":
            delta = delta * output * (1.0 - output)

    grads_w = [np.empty(0)] * len(model.weights)
    grads_b = [np.empty(0)] * len(model.weights)
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * _ref_hidden_grad(
                pre[layer - 1], activations[layer], model.hidden_activation
            )
    return value, grads_w, grads_b


def _study_like_model(sizes, hidden, output, seed):
    """A model with non-zero biases and weights scaled up as training does."""
    model = init_model(sizes, hidden_activation=hidden,
                       output_activation=output, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for w, b in zip(model.weights, model.biases):
        w *= 3.0
        b[:] = rng.normal(scale=0.5, size=b.shape)
    return model


def _assert_matches_reference(model, X, T, loss):
    before = (X.copy(), T.copy(), [w.copy() for w in model.weights],
              [b.copy() for b in model.biases])
    value, gw, gb = loss_and_gradients(model, X, T, loss)
    after = (X, T, model.weights, model.biases)
    ref_value, ref_gw, ref_gb = reference_loss_and_gradients(model, X, T, loss)
    assert value == ref_value
    for got, want in zip(gw + gb, ref_gw + ref_gb):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])
    for old, new in zip(before[2] + before[3], after[2] + after[3]):
        assert np.array_equal(old, new)


class TestReferenceOracle:
    """The in-place loss_and_gradients is bit-identical to the reference."""

    @pytest.mark.parametrize("hidden", ["tanh", "relu", "sigmoid"])
    @pytest.mark.parametrize(
        "sizes",
        [[20, 3, 2], [20, 3, 3], [10, 8, 5], [12, 1, 3], [9, 4, 9], [6, 2]],
    )
    def test_cross_entropy(self, rng, hidden, sizes):
        model = _study_like_model(sizes, hidden, "softmax", seed=sizes[-1])
        X = rng.uniform(size=(751, sizes[0]))
        X[:, 0] = 0.0  # a constant column, as min-max scaling leaves them
        T = np.eye(sizes[-1])[np.arange(751) % sizes[-1]]
        _assert_matches_reference(model, X, T, "cross_entropy")

    @pytest.mark.parametrize("output", ["sigmoid", "identity"])
    @pytest.mark.parametrize("sizes", [[36, 18, 36], [2, 1, 2], [5, 3, 5]])
    def test_mse(self, rng, output, sizes):
        model = _study_like_model(sizes, "relu", output, seed=4)
        X = rng.uniform(size=(403, sizes[0]))
        _assert_matches_reference(model, X, X.copy(), "mse")

    def test_training_matches_reference_updates(self, rng):
        model = _study_like_model([20, 3, 2], "tanh", "softmax", seed=1)
        X = rng.uniform(size=(745, 20))
        y = np.arange(745) % 2
        cfg = TrainingConfig(learning_rate=0.4, epochs=25, input_scaling=False)
        trained, history = train(model, X, y, cfg)
        expected = model.copy()
        T = np.eye(2)[y]
        for epoch in range(cfg.epochs):
            value, gw, gb = reference_loss_and_gradients(
                expected, X, T, "cross_entropy"
            )
            assert history[epoch] == value
            for layer in range(len(expected.weights)):
                expected.weights[layer] -= cfg.learning_rate * gw[layer]
                expected.biases[layer] -= cfg.learning_rate * gb[layer]
        for got, want in zip(trained.weights + trained.biases,
                             expected.weights + expected.biases):
            assert np.array_equal(got, want)


class TestTrain:
    def test_zero_learning_rate_freezes_weights(self, rng):
        model = init_model([3, 2, 2], seed=5)
        before = [w.copy() for w in model.weights]
        X = rng.normal(size=(10, 3))
        y = rng.integers(0, 2, size=10)
        y[:2] = [0, 1]
        trained, history = train(
            model, X, y, TrainingConfig(learning_rate=0.0, epochs=5, seed=0)
        )
        assert len(history) == 5
        for w0, w1 in zip(before, trained.weights):
            assert np.array_equal(w0, w1)

    def test_update_rule_matches_gradient_step(self, rng):
        model = init_model([3, 2, 2], seed=9)
        X = rng.normal(size=(8, 3))
        y = rng.integers(0, 2, size=8)
        y[:2] = [0, 1]
        cfg = TrainingConfig(learning_rate=0.1, epochs=1, seed=0,
                             input_scaling=False)
        T = np.eye(2)[y]
        _, gw, gb = loss_and_gradients(model, X, T, "cross_entropy")
        trained, _ = train(model, X, y, cfg)
        for layer in range(len(model.weights)):
            expected = model.weights[layer] - 0.1 * gw[layer]
            assert np.array_equal(trained.weights[layer], expected)
            assert np.array_equal(
                trained.biases[layer], model.biases[layer] - 0.1 * gb[layer]
            )

    def test_separable_blobs_reach_high_accuracy(self, rng):
        X, y = make_blobs(rng)
        model = init_model([2, 3, 2], hidden_activation="tanh", seed=2)
        trained, history = train(
            model, X, y, TrainingConfig(learning_rate=0.1, epochs=200, seed=2)
        )
        accuracy = (predict_classes(trained, X) == y).mean()
        assert accuracy >= 0.99
        assert history[-1] < history[0]
        for w in trained.weights:
            assert np.all(np.isfinite(w))

    def test_held_out_blob_point_classified(self, rng):
        X, y = make_blobs(rng)
        model = init_model([2, 3, 2], hidden_activation="tanh", seed=2)
        trained, _ = train(
            model, X, y, TrainingConfig(learning_rate=0.1, epochs=200, seed=2)
        )
        assert predict_class(trained, np.array([-2.1, -1.9])) == 0
        assert predict_class(trained, np.array([2.1, 1.9])) == 1

    def test_seeded_determinism(self, rng):
        X, y = make_blobs(rng, n=40)
        cfg = TrainingConfig(learning_rate=0.05, epochs=50, batch_size=16, seed=4)
        runs = []
        for _ in range(2):
            model = init_model([2, 3, 2], seed=4)
            _, history = train(model, X, y, cfg)
            runs.append(history)
        assert runs[0] == runs[1]

    def test_nan_loss_aborts_with_epoch(self, rng):
        model = init_model([2, 2, 2], output_activation="identity", seed=0)
        X = rng.normal(size=(4, 2)) * 1e3
        T = rng.normal(size=(4, 2)) * 1e3
        cfg = TrainingConfig(learning_rate=1e9, epochs=50, loss="mse", seed=0,
                             input_scaling=False)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            with np.errstate(over="ignore", invalid="ignore"):
                train(model, X, T, cfg)

    def test_missing_class_rejected(self, rng):
        model = init_model([2, 2, 3], seed=0)
        X = rng.normal(size=(6, 2))
        y = np.array([0, 0, 1, 1, 0, 1])  # class 2 absent
        with pytest.raises(ValueError, match="class index 2"):
            train(model, X, y, TrainingConfig(epochs=1))

    def test_original_model_untouched(self, rng):
        model = init_model([2, 2, 2], seed=1)
        before = [w.copy() for w in model.weights]
        X, y = make_blobs(rng, n=10)
        train(model, X, y, TrainingConfig(learning_rate=0.1, epochs=3, seed=0))
        for w0, w1 in zip(before, model.weights):
            assert np.array_equal(w0, w1)


class TestPredict:
    def _identity_model(self, n):
        return MlpModel(
            layer_sizes=[n, n],
            weights=[np.eye(n)],
            biases=[np.zeros(n)],
            output_activation="identity",
        )

    def test_argmax(self):
        assert predict_class(self._identity_model(3), [0.1, 0.7, 0.2]) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert predict_class(self._identity_model(2), [0.5, 0.5]) == 0


class TestReconstruction:
    def test_identity_autoencoder_zero_error(self, rng):
        model = MlpModel(
            layer_sizes=[3, 3],
            weights=[np.eye(3)],
            biases=[np.zeros(3)],
            output_activation="identity",
        )
        x = rng.normal(size=3)
        assert reconstruction_error(model, x) == 0.0

    def test_zero_output_autoencoder_mean_square(self):
        model = MlpModel(
            layer_sizes=[4, 2, 4],
            weights=[np.zeros((4, 2)), np.zeros((2, 4))],
            biases=[np.zeros(2), np.zeros(4)],
            output_activation="identity",
        )
        x = np.array([0.5, -0.5, 0.5, -0.5])  # mean square 0.25
        assert reconstruction_error(model, x) == pytest.approx(0.25)

    def test_non_autoencoder_shape_rejected(self):
        model = init_model([4, 2, 3], seed=0)
        with pytest.raises(ValueError, match="autoencoder"):
            reconstruction_error(model, np.zeros(4))

    def test_trained_benign_validation_below_95th_percentile(self, rng):
        X = rng.normal(0.5, 0.1, size=(200, 6)).clip(0, 1)
        model = init_model([6, 3, 6], output_activation="sigmoid", seed=0)
        trained, _ = train(
            model, X, X,
            TrainingConfig(learning_rate=0.5, epochs=400, loss="mse", seed=0,
                           input_scaling=False),
        )
        train_errors = reconstruction_errors(trained, X)
        validation_point = rng.normal(0.5, 0.1, size=6).clip(0, 1)
        assert reconstruction_error(trained, validation_point) < np.quantile(
            train_errors, 0.95
        )


class TestScaler:
    def test_min_to_zero_max_to_one_exact(self, rng):
        X = rng.normal(size=(30, 4)) * 10
        scaler = MinMaxScaler().fit(X)
        S = scaler.transform(X)
        assert np.array_equal(S.min(axis=0), np.zeros(4))
        assert np.array_equal(S.max(axis=0), np.ones(4))

    def test_constant_column_maps_to_zero(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0]])
        S = MinMaxScaler().fit(X).transform(X)
        assert np.array_equal(S[:, 1], [0.0, 0.0])

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            MinMaxScaler().transform(np.zeros((1, 2)))

    def test_training_attaches_scaler(self, rng):
        X, y = make_blobs(rng, n=20)
        model = init_model([2, 2, 2], seed=0)
        trained, _ = train(
            model, X, y, TrainingConfig(learning_rate=0.1, epochs=5, seed=0)
        )
        assert trained.scaler is not None
        assert trained.scaler.feature_min is not None


class TestSerialization:
    def test_round_trip_preserves_outputs(self, rng, tmp_path):
        X, y = make_blobs(rng, n=30)
        model = init_model([2, 3, 2], seed=6)
        trained, _ = train(
            model, X, y, TrainingConfig(learning_rate=0.1, epochs=30, seed=6)
        )
        path = tmp_path / "model.json"
        save_model(
            ModelArtifact(model=trained, feature_names=["a", "b"],
                          class_names=["benign", "attack"]),
            path,
        )
        loaded = load_model(path)
        assert loaded.feature_names == ["a", "b"]
        assert loaded.class_names == ["benign", "attack"]
        probe = rng.normal(size=(5, 2))
        assert np.array_equal(
            predict_classes(trained, probe), predict_classes(loaded.model, probe)
        )
        errors = np.abs(
            forward_batch(trained, probe) - forward_batch(loaded.model, probe)
        )
        assert errors.max() == 0.0

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("key", ["layer_sizes", "weights", "output_activation"])
    def test_missing_key_names_file_and_key(self, rng, tmp_path, key):
        path = tmp_path / "model.json"
        save_model(ModelArtifact(model=init_model([2, 2], seed=0)), path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{path}: missing key '{key}'"):
            load_model(path)

    def test_missing_scaler_bound_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(ModelArtifact(model=init_model([2, 2], seed=0)), path)
        doc = json.loads(path.read_text())
        doc["scaler"] = {"feature_min": [0.0, 0.0]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="missing key 'scaler.feature_max'"):
            load_model(path)

    @pytest.mark.parametrize("text", ["[1, 2]", "{not json"])
    def test_malformed_json_names_file(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=str(path)):
            load_model(path)


class TestConfigValidation:
    def test_negative_learning_rate(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=-0.1)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one(self, epochs):
        with pytest.raises(ValueError, match="epochs"):
            TrainingConfig(epochs=epochs)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)

    def test_bad_loss(self):
        with pytest.raises(ValueError):
            TrainingConfig(loss="hinge")

    def test_bad_activations(self):
        with pytest.raises(ValueError):
            init_model([2, 2], hidden_activation="gelu")
        with pytest.raises(ValueError):
            init_model([2, 2], output_activation="relu")
