"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  The seed-sweep criteria share one scenario cache.
"""

import json
import statistics
import time

import numpy as np
import pytest

from flowbundle import aggregation, evaluation, features, flows, mlp, rfe, synth, zeroday
from flowbundle.cli import main as cli_main
from flowbundle.config import PipelineConfig

from conftest import TIMEOUTS
from test_features import brute_force_stats, make_flow, random_flow
from test_mlp import finite_difference_grads, max_relative_error, split_grad

SWEEP_SEEDS = range(10)


def report_line(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


_scenario_cache: dict[int, dict] = {}


def mimicking_by_class(seed):
    """Aggregated flow tables of the desk-scale mimicking scenario, by class."""
    if seed not in _scenario_cache:
        traffic = synth.build_scenario("mimicking", seed)
        assembled = flows.assemble_flows(traffic.packets, **TIMEOUTS)
        labels = synth.match_labels(assembled, traffic.manifest)
        table = aggregation.aggregate_features(features.flow_table(assembled, labels))
        _scenario_cache[seed] = {
            name: table.take(table.label == name) for name in sorted(set(labels))
        }
    return _scenario_cache[seed]


def test_01_ports_delta_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        ports = rng.integers(0, 65536, size=n).tolist()
        got = aggregation.ports_delta(ports)
        ordered = sorted(ports)
        diffs = [abs(ordered[i + 1] - ordered[i]) for i in range(len(ordered) - 1)]
        expected = sum(diffs) / len(diffs) if diffs else 0.0
        assert got == expected, f"mismatch on {ports[:5]}..."
    elapsed = time.monotonic() - start
    report_line(
        1,
        "ports delta matches brute force on 1,000 random lists",
        elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_02_arithmetic_port_sequences():
    rng = np.random.default_rng(102)
    for _ in range(100):
        start = int(rng.integers(0, 30000))
        step = int(rng.integers(1, 250))
        count = int(rng.integers(2, 120))
        ports = [start + i * step for i in range(count)]
        assert aggregation.ports_delta(ports) == float(step)
    report_line(2, "arithmetic port sequences yield delta == step exactly", True)


def test_03_gradient_check_20_networks():
    rng = np.random.default_rng(103)
    start = time.monotonic()
    worst = 0.0
    for _ in range(20):
        sizes = [
            int(rng.integers(2, 11)),
            int(rng.integers(2, 9)),
            int(rng.integers(2, 6)),
        ]
        hidden = str(rng.choice(["tanh", "sigmoid", "relu"]))
        if rng.random() < 0.5:
            output, loss = "softmax", "cross_entropy"
            T = np.eye(sizes[-1])[rng.integers(0, sizes[-1], size=6)]
        else:
            output, loss = str(rng.choice(["identity", "sigmoid"])), "mse"
            T = rng.uniform(0.1, 0.9, size=(6, sizes[-1]))
        model = mlp.init_model(sizes, hidden_activation=hidden,
                               output_activation=output,
                               seed=int(rng.integers(0, 10_000)))
        X = rng.normal(size=(6, sizes[0]))
        gw, gb = split_grad(model, mlp.loss_and_gradients(model, X, T, loss)[1])
        fw, fb = finite_difference_grads(model, X, T, loss, eps=1e-5)
        worst = max(worst, max_relative_error(gw + gb, fw + fb))
    elapsed = time.monotonic() - start
    report_line(
        3,
        "analytic gradients match central differences on 20 networks",
        worst < 1e-4 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_04_metric_oracle_500_tallies():
    rng = np.random.default_rng(104)
    checked_zero = 0
    for i in range(500):
        if i % 10 == 0:
            tp, fp, fn = 0, 0, int(rng.integers(0, 2))
        else:
            tp = int(rng.integers(0, 1000))
            fp = int(rng.integers(0, 1000))
            fn = int(rng.integers(0, 1000))
        counts = evaluation.ConfusionCounts(
            classes=["c"], tp={"c": tp}, fp={"c": fp}, fn={"c": fn}
        )
        p = evaluation.precision(counts, "c")
        r = evaluation.recall(counts, "c")
        f = evaluation.f1(counts, "c")
        if tp + fp == 0:
            assert p == (0.0, False)
            checked_zero += 1
        else:
            assert abs(p.value - tp / (tp + fp)) < 1e-12 and p.defined
        if tp + fn == 0:
            assert r == (0.0, False)
        else:
            assert abs(r.value - tp / (tp + fn)) < 1e-12 and r.defined
        if 2 * tp + fp + fn == 0:
            assert f == (0.0, False)
        else:
            assert abs(f.value - 2 * tp / (2 * tp + fp + fn)) < 1e-12 and f.defined
    report_line(
        4,
        "precision/recall/F1 match their formulas on 500 tallies",
        checked_zero >= 25,
        f"{checked_zero} zero-denominator cases flagged",
    )


def test_05_flow_statistic_oracle_200_flows():
    rng = np.random.default_rng(105)
    for _ in range(200):
        fwd, bwd = random_flow(rng, max_packets=50)
        stats = features.extract_features(make_flow(fwd, bwd))[0]
        vec = dict(zip(features.FLOW_FEATURE_NAMES, stats))
        for direction, packets in (("fwd", fwd), ("bwd", bwd)):
            for stat, expected in brute_force_stats(packets).items():
                got = vec[f"{direction}_{stat}"]
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)
    report_line(5, "all 34 flow statistics match brute force on 200 flows", True)


def test_06_fig2_replay_bundles():
    traffic = synth.fig2_traffic()
    assembled = flows.assemble_flows(traffic.packets, **TIMEOUTS)
    table = features.flow_table(assembled, ["benign"] * len(assembled))
    bundles = aggregation.bundle_flows(table)
    sizes = sorted(bundles.num_flows.tolist(), reverse=True)
    stamped = aggregation.aggregate_features(table)
    all_stamped = (
        stamped.aggregated
        and len(stamped.num_flows) == len(stamped.src_ports_delta) == len(table)
    )
    host_a = stamped.num_flows[stamped.initiator_ip == "10.0.0.1"]
    report_line(
        6,
        "bundle replay yields sizes {4, 2, 1, 1} and stamps every row",
        sizes == [4, 2, 1, 1] and all_stamped
        and len(host_a) == 4 and all(host_a == 4),
        f"sizes {sizes}",
    )


def test_07_recall_lift_over_10_seeds():
    start = time.monotonic()
    with_recall, without_recall = [], []
    for seed in SWEEP_SEEDS:
        by_class = mimicking_by_class(seed)
        cfg = PipelineConfig(seed=seed)
        rep_with, _ = evaluation.run_experiment(
            "binary", by_class, with_aggregation=True, cfg=cfg
        )
        rep_without, _ = evaluation.run_experiment(
            "binary", by_class, with_aggregation=False, cfg=cfg
        )
        with_recall.append(rep_with.classes["slowloris"].recall_mean)
        without_recall.append(rep_without.classes["slowloris"].recall_mean)
    elapsed = time.monotonic() - start
    median_with = statistics.median(with_recall)
    median_without = statistics.median(without_recall)
    dominance = all(w > o for w, o in zip(with_recall, without_recall))
    report_line(
        7,
        "attack recall: median without <= 0.60, with >= 0.95, "
        "with > without in every seed",
        median_without <= 0.60 and median_with >= 0.95 and dominance
        and elapsed < 120.0,
        f"median with {median_with:.3f}, without {median_without:.3f}, "
        f"{elapsed:.0f}s",
    )


def test_08_rfe_selects_aggregation_features():
    names = list(features.ALL_FEATURE_NAMES)
    hits = 0
    for seed in SWEEP_SEEDS:
        by_class = mimicking_by_class(seed)
        y = np.array(
            [0] * len(by_class["benign"]) + [1] * len(by_class["slowloris"])
        )
        X = np.vstack([
            features.feature_matrix(by_class[name], names)
            for name in ("benign", "slowloris")
        ])
        cfg = PipelineConfig(seed=seed)
        result = rfe.rfe_select(
            X, y, names,
            rfe.RfeConfig(k=7, inner_training=cfg.rfe_training(),
                          hidden_size=cfg.hidden_size),
        )
        if {"num_flows", "src_ports_delta"} <= set(result.selected):
            hits += 1
    report_line(
        8,
        "RFE (k=7, 36 columns) keeps both bundle features in >= 8/10 seeds",
        hits >= 8,
        f"{hits}/10 seeds",
    )


def test_09_zero_day_monotone_and_lift():
    start = time.monotonic()
    policy = zeroday.ThresholdPolicy((0.15, 0.10, 0.05))
    acc_with, acc_without = [], []
    monotone = True
    for seed in SWEEP_SEEDS:
        by_class = mimicking_by_class(seed)
        benign = by_class["benign"]
        attack = by_class["slowloris"]
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(benign))
        cut = int(0.7 * len(benign))
        train_rows = benign.take(order[:cut])
        for names, sink in (
            (list(features.ALL_FEATURE_NAMES), acc_with),
            (list(features.FLOW_FEATURE_NAMES), acc_without),
        ):
            cfg = mlp.TrainingConfig(
                learning_rate=0.05, epochs=500, loss="mse", seed=seed
            )
            model, _ = zeroday.fit_benign(
                features.feature_matrix(train_rows, names), cfg
            )
            det = zeroday.detect(
                model, features.feature_matrix(attack, names), policy, "attack"
            )
            table = {o.threshold: o.accuracy for o in det.outcomes}
            if not table[0.15] <= table[0.10] <= table[0.05]:
                monotone = False
            sink.append(table)
    elapsed = time.monotonic() - start
    at_005 = [t[0.05] for t in acc_with]
    median_with = statistics.median(at_005)
    median_without = statistics.median(t[0.05] for t in acc_without)
    report_line(
        9,
        "zero-day: monotone thresholds, >= 0.90 at 0.05 with aggregation, "
        "median exceeds the run without",
        monotone and min(at_005) >= 0.90 and median_with > median_without
        and elapsed < 120.0,
        f"min@0.05 {min(at_005):.3f}, medians {median_with:.3f} vs "
        f"{median_without:.3f}, {elapsed:.0f}s",
    )


def test_10_replicate_is_byte_deterministic(tmp_path):
    reports = []
    for run in ("one", "two"):
        out = tmp_path / run
        code = cli_main(["replicate", "--seed", "7", "--out", str(out)])
        assert code == 0
        reports.append((out / "report.json").read_bytes())
    identical = reports[0] == reports[1]
    doc = json.loads(reports[0])
    report_line(
        10,
        "replicate --seed 7 twice produces byte-identical reports",
        identical and doc["seed"] == 7,
        f"{len(reports[0])} bytes each",
    )
