import json

import pytest

from flowbundle.cli import main
from flowbundle.features import read_features_csv


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def fig2_capture(tmp_path_factory):
    base = tmp_path_factory.mktemp("fig2")
    pcap = base / "fig2.pcap"
    labels = base / "labels.csv"
    assert run(["synth", "--scenario", "fig2", "--seed", "0",
                "--out", str(pcap), "--labels", str(labels)]) == 0
    return pcap, labels


@pytest.fixture(scope="module")
def mimicking_csvs(tmp_path_factory):
    """small mimicking scenario taken through extract + aggregate."""
    base = tmp_path_factory.mktemp("mimicking")
    pcap = base / "m.pcap"
    labels = base / "labels.csv"
    assert run(["synth", "--scenario", "mimicking", "--scale", "small",
                "--seed", "2", "--out", str(pcap), "--labels", str(labels)]) == 0
    flows_csv = base / "flows.csv"
    assert run(["extract", "--pcap", str(pcap), "--labels", str(labels),
                "--out", str(flows_csv)]) == 0
    agg_csv = base / "agg.csv"
    assert run(["aggregate", "--in", str(flows_csv), "--out", str(agg_csv)]) == 0
    rows = read_features_csv(agg_csv)
    benign_csv = base / "benign.csv"
    attack_csv = base / "slowloris.csv"
    from flowbundle.features import write_features_csv

    write_features_csv([r for r in rows if r.label == "benign"], benign_csv)
    write_features_csv([r for r in rows if r.label == "slowloris"], attack_csv)
    return base, agg_csv, benign_csv, attack_csv


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["--help"])
    assert excinfo.value.code == 0
    assert "flowbundle" in capsys.readouterr().out


def test_extract_matches_flow_assembly(fig2_capture, tmp_path):
    pcap, labels = fig2_capture
    out = tmp_path / "flows.csv"
    assert run(["extract", "--pcap", str(pcap), "--labels", str(labels),
                "--out", str(out)]) == 0
    rows = read_features_csv(out)
    assert len(rows) == 8
    assert all(r.num_flows is None for r in rows)


def test_aggregate_fills_slots(fig2_capture, tmp_path):
    pcap, labels = fig2_capture
    flows_csv = tmp_path / "flows.csv"
    agg_csv = tmp_path / "agg.csv"
    run(["extract", "--pcap", str(pcap), "--labels", str(labels),
         "--out", str(flows_csv)])
    assert run(["aggregate", "--in", str(flows_csv), "--out",
                str(agg_csv)]) == 0
    rows = read_features_csv(agg_csv)
    assert sorted({r.num_flows for r in rows}, reverse=True) == [4, 2, 1]


def test_aggregate_window_flag(fig2_capture, tmp_path):
    pcap, labels = fig2_capture
    flows_csv = tmp_path / "flows.csv"
    run(["extract", "--pcap", str(pcap), "--labels", str(labels),
         "--out", str(flows_csv)])
    assert run(["aggregate", "--in", str(flows_csv), "--out",
                str(tmp_path / "a.csv"), "--window", "none"]) == 0
    assert run(["aggregate", "--in", str(flows_csv), "--out",
                str(tmp_path / "b.csv"), "--window", "0"]) == 1


def test_rfe_writes_manifest(mimicking_csvs, tmp_path):
    _, agg_csv, _, _ = mimicking_csvs
    manifest = tmp_path / "sel.json"
    assert run(["rfe", "--in", str(agg_csv), "--k", "5",
                "--out", str(manifest)]) == 0
    doc = json.loads(manifest.read_text())
    assert len(doc["selected"]) == 5
    assert "num_flows" in doc["selected"]


def test_rfe_exclude_aggregation(mimicking_csvs, tmp_path):
    _, agg_csv, _, _ = mimicking_csvs
    manifest = tmp_path / "sel.json"
    assert run(["rfe", "--in", str(agg_csv), "--k", "3",
                "--exclude-aggregation", "--out", str(manifest)]) == 0
    doc = json.loads(manifest.read_text())
    assert "num_flows" not in doc["selected"] + doc["eliminated"]


def test_train_then_model_loads(mimicking_csvs, tmp_path):
    _, agg_csv, _, _ = mimicking_csvs
    manifest = tmp_path / "sel.json"
    run(["rfe", "--in", str(agg_csv), "--k", "5", "--out", str(manifest)])
    model_path = tmp_path / "model.json"
    assert run(["train", "--in", str(agg_csv), "--selection", str(manifest),
                "--model", str(model_path), "--epochs", "50"]) == 0
    from flowbundle.mlp import load_model

    artifact = load_model(model_path)
    assert artifact.class_names == ["benign", "slowloris"]
    assert len(artifact.feature_names) == 5


def test_eval_design_report(mimicking_csvs, tmp_path):
    _, _, benign_csv, attack_csv = mimicking_csvs
    report_path = tmp_path / "report.json"
    assert run([
        "eval", "--design", "binary", "--benign", str(benign_csv),
        "--attack", f"slowloris={attack_csv}", "--with-aggregation",
        "--folds", "3", "--seed", "1", "--report", str(report_path),
    ]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["folds"] == 3
    assert set(doc["classes"]) == {"benign", "slowloris"}
    assert doc["with_aggregation"] is True


def test_eval_scores_saved_model(mimicking_csvs, tmp_path):
    base, agg_csv, benign_csv, attack_csv = mimicking_csvs
    manifest = tmp_path / "sel.json"
    run(["rfe", "--in", str(agg_csv), "--k", "5", "--out", str(manifest)])
    model_path = tmp_path / "model.json"
    run(["train", "--in", str(agg_csv), "--selection", str(manifest),
         "--model", str(model_path), "--epochs", "200"])
    report_path = tmp_path / "scored.json"
    assert run(["eval", "--model", str(model_path), "--benign", str(benign_csv),
                "--attack", f"slowloris={attack_csv}",
                "--report", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert set(doc["classes"]) == {"benign", "slowloris"}
    assert 0.0 <= doc["classes"]["slowloris"]["recall"] <= 1.0


def test_eval_needs_design_or_model(mimicking_csvs):
    _, _, benign_csv, _ = mimicking_csvs
    assert run(["eval", "--benign", str(benign_csv)]) == 1


def test_eval_bad_attack_pair(mimicking_csvs):
    _, _, benign_csv, attack_csv = mimicking_csvs
    assert run(["eval", "--design", "binary", "--benign", str(benign_csv),
                "--attack", "nonsense"]) == 1


def test_zeroday_fit_and_detect(mimicking_csvs, tmp_path):
    _, _, benign_csv, attack_csv = mimicking_csvs
    model_path = tmp_path / "ae.json"
    assert run(["zeroday", "fit", "--benign", str(benign_csv),
                "--model", str(model_path), "--epochs", "200"]) == 0
    report_path = tmp_path / "zd.json"
    assert run(["zeroday", "detect", "--model", str(model_path),
                "--in", str(attack_csv), "--thresholds", "0.15,0.1,0.05",
                "--report", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["kind"] == "attack"
    assert [o["threshold"] for o in doc["outcomes"]] == [0.15, 0.1, 0.05]


@pytest.mark.parametrize("command", ["train", "zeroday"])
def test_zero_epochs_rejected(mimicking_csvs, tmp_path, capsys, command):
    _, agg_csv, benign_csv, _ = mimicking_csvs
    model_path = tmp_path / "model.json"
    if command == "train":
        argv = ["train", "--in", str(agg_csv)]
    else:
        argv = ["zeroday", "fit", "--benign", str(benign_csv)]
    assert run(argv + ["--model", str(model_path), "--epochs", "0"]) == 1
    assert "error: epochs must be >= 1" in capsys.readouterr().err
    assert not model_path.exists()


@pytest.mark.parametrize("command", ["zeroday detect", "eval --model", "train"])
def test_manifest_missing_key_rejected(mimicking_csvs, tmp_path, capsys, command):
    _, agg_csv, benign_csv, attack_csv = mimicking_csvs
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"format_version": 1}')
    if command == "zeroday detect":
        argv = ["zeroday", "detect", "--model", str(manifest), "--in", str(attack_csv)]
        key = "layer_sizes"
    elif command == "eval --model":
        argv = ["eval", "--model", str(manifest), "--benign", str(benign_csv)]
        key = "layer_sizes"
    else:
        argv = ["train", "--in", str(agg_csv), "--selection", str(manifest),
                "--model", str(tmp_path / "model.json")]
        key = "selected"
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {manifest}: missing key {key!r}\n"


def test_missing_file_is_io_error(tmp_path):
    assert run(["extract", "--pcap", str(tmp_path / "nope.pcap"),
                "--out", str(tmp_path / "x.csv")]) == 2


def test_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.pcap"
    bad.write_bytes(b"\x00" * 64)
    assert run(["extract", "--pcap", str(bad),
                "--out", str(tmp_path / "x.csv")]) == 1


def test_config_precedence(mimicking_csvs, tmp_path):
    _, _, benign_csv, attack_csv = mimicking_csvs
    config = tmp_path / "pipeline.ini"
    config.write_text(
        "[evaluation]\nfolds = 3\n\n[training]\nepochs = 40\n"
        "\n[rfe]\nepochs = 30\n"
    )
    # config file value used when no flag
    report_path = tmp_path / "r1.json"
    assert run(["eval", "--config", str(config), "--design", "binary",
                "--benign", str(benign_csv), "--attack",
                f"slowloris={attack_csv}", "--report", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["folds"] == 3
    # CLI flag wins over config file
    report_path2 = tmp_path / "r2.json"
    assert run(["eval", "--config", str(config), "--design", "binary",
                "--benign", str(benign_csv), "--attack",
                f"slowloris={attack_csv}", "--folds", "4",
                "--report", str(report_path2)]) == 0
    assert json.loads(report_path2.read_text())["folds"] == 4


def test_unknown_config_key_rejected(mimicking_csvs, tmp_path):
    _, agg_csv, _, _ = mimicking_csvs
    config = tmp_path / "bad.ini"
    config.write_text("[flow]\nwarp_speed = 9\n")
    assert run(["aggregate", "--config", str(config), "--in", str(agg_csv),
                "--out", str(tmp_path / "x.csv")]) == 1


def test_custom_scenario_spec(tmp_path):
    spec = {
        "seed": 5,
        "duration": 20.0,
        "classes": [
            {"label": "benign", "n_sources": 2, "flows_per_source": [2, 3]}
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    pcap = tmp_path / "c.pcap"
    assert run(["synth", "--spec", str(spec_path), "--out", str(pcap),
                "--labels", str(tmp_path / "l.csv")]) == 0
    assert pcap.stat().st_size > 24


def test_replicate_small_deterministic(tmp_path):
    r1 = tmp_path / "run1"
    r2 = tmp_path / "run2"
    assert run(["replicate", "--seed", "5", "--scale", "small",
                "--out", str(r1)]) == 0
    assert run(["replicate", "--seed", "5", "--scale", "small",
                "--out", str(r2)]) == 0
    report1 = (r1 / "report.json").read_bytes()
    report2 = (r2 / "report.json").read_bytes()
    assert report1 == report2
    doc = json.loads(report1)
    assert set(doc["experiments"]) == {
        "binary", "three_class", "five_class", "five_class_extended",
    }
    for design in doc["experiments"].values():
        assert set(design) == {"with_aggregation", "without_aggregation"}
    assert (r1 / "scenario.pcap").read_bytes() == (r2 / "scenario.pcap").read_bytes()
    assert (r1 / "flows_aggregated.csv").read_bytes() == (
        r2 / "flows_aggregated.csv"
    ).read_bytes()
