import json

import numpy as np
import pytest

from flowbundle.cli import main
from flowbundle.config import ConfigError, load_config
from flowbundle.features import ALL_FEATURE_NAMES, read_features_csv


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
    table = read_features_csv(agg_csv)
    benign_csv = base / "benign.csv"
    attack_csv = base / "slowloris.csv"
    from flowbundle.features import write_features_csv

    write_features_csv(table.take(table.label == "benign"), benign_csv)
    write_features_csv(table.take(table.label == "slowloris"), attack_csv)
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
    table = read_features_csv(out)
    assert len(table) == 8
    assert not table.aggregated


def test_aggregate_fills_slots(fig2_capture, tmp_path):
    pcap, labels = fig2_capture
    flows_csv = tmp_path / "flows.csv"
    agg_csv = tmp_path / "agg.csv"
    run(["extract", "--pcap", str(pcap), "--labels", str(labels),
         "--out", str(flows_csv)])
    assert run(["aggregate", "--in", str(flows_csv), "--out",
                str(agg_csv)]) == 0
    table = read_features_csv(agg_csv)
    assert sorted(set(table.num_flows.tolist()), reverse=True) == [4, 2, 1]


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


def test_train_saves_the_kfold_network(mimicking_csvs, tmp_path, monkeypatch):
    # the model train saves has the activations of the networks k-fold scores
    from flowbundle import evaluation, mlp

    fits = []

    def recording_train(model, *args, **kwargs):
        fits.append((model.hidden_activation, model.output_activation))
        return mlp.train(model, *args, **kwargs)

    monkeypatch.setattr(evaluation, "train", recording_train)
    evaluation.kfold_evaluate(np.eye(4)[[0, 1, 2, 3] * 2], np.array([0, 1] * 4), ["a", "b"],
                              2, mlp.TrainingConfig(learning_rate=0.1, epochs=1), 3, 0)
    _, agg_csv, _, _ = mimicking_csvs
    model_path = tmp_path / "model.json"
    assert run(["train", "--in", str(agg_csv), "--model", str(model_path),
                "--epochs", "1"]) == 0
    model = mlp.load_model(model_path).model
    assert set(fits) == {(model.hidden_activation, model.output_activation)}


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


@pytest.mark.parametrize(
    "extra",
    [["--design", "binary"], ["--folds", "1"], ["--seed", "-5"],
     ["--config", "/nonexistent.ini"], ["--with-aggregation"], ["--extended"]],
)
def test_eval_model_rejects_kfold_options(mimicking_csvs, tmp_path, capsys, extra):
    """Scoring a saved model runs no k-fold, so its options are an error."""
    _, agg_csv, benign_csv, _ = mimicking_csvs
    model_path = tmp_path / "model.json"
    assert run(["train", "--in", str(agg_csv), "--model", str(model_path),
                "--epochs", "1"]) == 0
    capsys.readouterr()
    assert run(["eval", "--model", str(model_path), "--benign", str(benign_csv),
                *extra]) == 1
    assert capsys.readouterr().err == (
        f"error: --model scores a saved model; it takes no {extra[0]}\n"
    )


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


def test_zeroday_detect_accepts_threshold_one(mimicking_csvs, tmp_path):
    _, _, benign_csv, attack_csv = mimicking_csvs
    model_path = tmp_path / "ae.json"
    assert run(["zeroday", "fit", "--benign", str(benign_csv),
                "--model", str(model_path), "--epochs", "1"]) == 0
    report_path = tmp_path / "zd.json"
    assert run(["zeroday", "detect", "--model", str(model_path),
                "--in", str(attack_csv), "--thresholds", "1,0.05",
                "--report", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert [o["threshold"] for o in doc["outcomes"]] == [1.0, 0.05]


@pytest.mark.parametrize("command", ["train", "zeroday"])
def test_zero_epochs_rejected(mimicking_csvs, tmp_path, capsys, command):
    _, agg_csv, benign_csv, _ = mimicking_csvs
    model_path = tmp_path / "model.json"
    if command == "train":
        argv = ["train", "--in", str(agg_csv)]
    else:
        argv = ["zeroday", "fit", "--benign", str(benign_csv)]
    assert run(argv + ["--model", str(model_path), "--epochs", "0"]) == 1
    assert "error: bad value '0' for --epochs: must be >= 1" in capsys.readouterr().err
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
        "\n[rfe]\nepochs = 30\nk = 4\n\n[network]\nhidden_size = 4\n"
    )
    # config file value used when no flag
    report_path = tmp_path / "r1.json"
    assert run(["eval", "--config", str(config), "--design", "binary",
                "--benign", str(benign_csv), "--attack",
                f"slowloris={attack_csv}", "--report", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["folds"] == 3
    assert doc["hidden_size"] == 4
    assert len(doc["selected_features"]) == 4
    # CLI flag wins over config file
    report_path2 = tmp_path / "r2.json"
    assert run(["eval", "--config", str(config), "--design", "binary",
                "--benign", str(benign_csv), "--attack",
                f"slowloris={attack_csv}", "--folds", "4",
                "--report", str(report_path2)]) == 0
    assert json.loads(report_path2.read_text())["folds"] == 4


def test_run_seed_reaches_rfe(mimicking_csvs, tmp_path):
    _, agg_csv, _, _ = mimicking_csvs
    config = tmp_path / "seed.ini"
    config.write_text("[run]\nseed = 3\n\n[rfe]\nepochs = 20\n")
    manifests = []
    for extra in ([], ["--seed", "3"]):
        manifests.append(tmp_path / f"sel{len(manifests)}.json")
        assert run(["rfe", "--in", str(agg_csv), "--config", str(config),
                    "--out", str(manifests[-1])] + extra) == 0
    assert manifests[0].read_bytes() == manifests[1].read_bytes()


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_config_line_ends(tmp_path, end):
    config = tmp_path / "seed.ini"
    config.write_bytes(end.join(["[run]", "seed = 3", "[flow]", "idle_timeout_s = 9", ""]).encode())
    cfg = load_config(config)
    assert (cfg.seed, cfg.idle_timeout_s) == (3, 9.0)
    # a syntax error is named on the line the other loaders count
    config.write_bytes(end.join(["[run]", "seed = 3", "[run]", ""]).encode())
    with pytest.raises(ConfigError, match=r":3: duplicate section \[run\]$"):
        load_config(config)


def test_unknown_config_key_rejected(mimicking_csvs, tmp_path):
    _, agg_csv, _, _ = mimicking_csvs
    config = tmp_path / "bad.ini"
    config.write_text("[flow]\nwarp_speed = 9\n")
    assert run(["aggregate", "--config", str(config), "--in", str(agg_csv),
                "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize(
    "text", ["[DEFAULT]\nseed = 3\nk = 9\n", "[rfe]\nk = 4\n[DEFAULT]\nseed = 3\n"])
def test_default_config_section_rejected(fig2_capture, tmp_path, capsys, text):
    # [DEFAULT] is no section of the schema: its keys are neither dropped
    # nor blamed on another section
    pcap, _ = fig2_capture
    config = tmp_path / "default.ini"
    config.write_text(text)
    assert run(["extract", "--pcap", str(pcap), "--config", str(config),
                "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == f"error: {config}: unknown config section [DEFAULT]\n"


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


def test_replicate_small_deterministic(tmp_path, capsys):
    r1 = tmp_path / "run1"
    r2 = tmp_path / "run2"
    assert run(["replicate", "--seed", "5", "--scale", "small",
                "--out", str(r1)]) == 0
    capsys.readouterr()
    assert run(["replicate", "--seed", "5", "--scale", "small",
                "--out", str(r2)]) == 0
    printed = capsys.readouterr().out
    report1 = (r1 / "report.json").read_bytes()
    report2 = (r2 / "report.json").read_bytes()
    assert report1 == report2
    doc = json.loads(report1)
    # the zero-day table prints the benign validation flag rate per mode
    assert printed.count("benign (val)") == 2
    for mode, section in doc["zero_day"].items():
        cells = ", ".join(f"{o['threshold']:0.2f}->{100 * o['flagged_rate']:.1f}%"
                          for o in section["benign_validation"]["outcomes"])
        assert f"  {mode}:\n    benign (val)   {cells}\n" in printed
    assert set(doc["experiments"]) == {
        "binary", "three_class", "five_class", "five_class_extended",
    }
    for design in doc["experiments"].values():
        assert set(design) == {"with_aggregation", "without_aggregation"}
    assert (r1 / "scenario.pcap").read_bytes() == (r2 / "scenario.pcap").read_bytes()
    assert (r1 / "flows_aggregated.csv").read_bytes() == (
        r2 / "flows_aggregated.csv"
    ).read_bytes()


@pytest.mark.parametrize(
    "row, problem",
    [
        ("10.0.0.1,40000,10.0.0.2,80,TCP,1.000000\n", "expected 7 fields, got 6"),
        ("10.0.0.1,http,10.0.0.2,80,TCP,1.000000,benign\n",
         "column initiator_port: 'http' is not a number"),
        ("10.0.0.1,40000,10.0.0.2,80,TCP,inf,benign\n",
         "column start_time: 'inf' is not a pcap time from 0 to 2**32 s"),
        ("10.0.0.1,40000,10.0.0.2,80,TCP,nan,benign\n",
         "column start_time: 'nan' is not a pcap time from 0 to 2**32 s"),
        ("10.0.0.1,40000,10.0.0.2,65536,TCP,1.000000,benign\n",
         "column responder_port: '65536' is not a port from 0 to 65535"),
    ],
)
def test_malformed_labels_csv_rejected(fig2_capture, tmp_path, capsys, row, problem):
    pcap, labels = fig2_capture
    lines = labels.read_text().splitlines(keepends=True)
    bad = tmp_path / "labels.csv"
    bad.write_text(lines[0] + lines[1] + row + lines[2])
    assert run(["extract", "--pcap", str(pcap), "--labels", str(bad),
                "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == f"error: {bad}:3: {problem}\n"


def test_conflicting_labels_rejected(fig2_capture, tmp_path, capsys):
    pcap, labels = fig2_capture
    lines = labels.read_text().splitlines(keepends=True)
    bad = tmp_path / "labels.csv"
    bad.write_text("".join(lines) + lines[1].replace(",benign", ",attack"))
    assert run(["extract", "--pcap", str(pcap), "--labels", str(bad),
                "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{len(lines) + 1}: flow "), err
    assert err.endswith(" is labelled 'attack' here but 'benign' on line 2\n"), err


@pytest.mark.parametrize("column", [0, 2])
@pytest.mark.parametrize("spelling", ["10.0.0.01", " 10.0.0.1", "010.0.0.1", "10.0.0.1 "])
def test_labels_match_addresses_by_exact_spelling(fig2_capture, tmp_path, capsys, column,
                                                  spelling):
    # a labels row names a flow's address only in the flow CSV's own spelling
    pcap, labels = fig2_capture
    lines = labels.read_text().splitlines(keepends=True)
    fields = lines[1].rstrip("\r\n").split(",")
    flow = (fields[0], int(fields[1]), fields[2], int(fields[3]), fields[4],
            round(float(fields[5]) * 1_000_000))
    canonical = fields[column]
    bad = tmp_path / "labels.csv"
    for spelled, code in ((spelling.replace("10.0.0.1", canonical), 1), (canonical, 0)):
        fields[column] = spelled
        bad.write_text("".join([lines[0], ",".join(fields) + "\r\n", *lines[2:]]))
        assert run(["extract", "--pcap", str(pcap), "--labels", str(bad),
                    "--out", str(tmp_path / "x.csv")]) == code
        assert capsys.readouterr().err == ("" if code == 0 else (
            f"error: {bad}: assembled flow {flow} has no manifest entry; "
            "scenario and capture are out of sync\n"))


def test_respelled_flow_is_another_flow(fig2_capture, tmp_path, capsys):
    # a second label under another spelling of the flow's address is no
    # conflict; under the same spelling it is, named by file and line
    pcap, labels = fig2_capture
    lines = labels.read_text().splitlines(keepends=True)
    respelled = lines[1].replace("10.0.0.1,", "10.0.0.01,", 1).replace(",benign", ",attack")
    bad = tmp_path / "labels.csv"
    bad.write_text("".join(lines) + respelled)
    out = tmp_path / "x.csv"
    assert run(["extract", "--pcap", str(pcap), "--labels", str(bad), "--out", str(out)]) == 0
    assert read_features_csv(out).label.tolist() == ["benign"] * 8
    capsys.readouterr()
    bad.write_text("".join(lines) + respelled + lines[1].replace(",benign", ",attack"))
    assert run(["extract", "--pcap", str(pcap), "--labels", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{len(lines) + 2}: flow ('10.0.0.1', "), err
    assert err.endswith(" is labelled 'attack' here but 'benign' on line 2\n"), err


@pytest.mark.parametrize("command", ["extract", "aggregate"])
def test_non_utf8_csv_rejected(fig2_capture, tmp_path, capsys, command):
    pcap, labels = fig2_capture
    flows = tmp_path / "flows.csv"
    assert run(["extract", "--pcap", str(pcap), "--labels", str(labels),
                "--out", str(flows)]) == 0
    source = labels if command == "extract" else flows
    data = source.read_bytes().splitlines(keepends=True)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"".join(data[:2]) + b"\xff" + b"".join(data[2:]))
    argv = (["extract", "--pcap", str(pcap), "--labels", str(bad)] if command == "extract"
            else ["aggregate", "--in", str(bad)])
    capsys.readouterr()
    assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == f"error: {bad}:3: byte 0xff is not UTF-8\n"


def _csv_source(fig2_capture, tmp_path, source):
    """The fig. 2 labels CSV, or the flow CSV extract writes from it."""
    pcap, labels = fig2_capture
    if source == "labels":
        return labels
    flows = tmp_path / "flows.csv"
    assert run(["extract", "--pcap", str(pcap), "--labels", str(labels),
                "--out", str(flows)]) == 0
    return flows


def _read_csv_source(pcap, source, bad):
    """Run extract on a bad labels CSV, or aggregate on a bad flow CSV."""
    argv = (["extract", "--pcap", str(pcap), "--labels", str(bad)] if source == "labels"
            else ["aggregate", "--in", str(bad)])
    return run(argv + ["--out", str(bad.with_name("x.csv"))])


@pytest.mark.parametrize(
    "source, column, raw, problem",
    [
        ("flows", "fwd_byte_count", "abc", "column fwd_byte_count: 'abc' is not a number"),
        ("flows", "label", None, "expected 43 fields, got 42"),
        ("flows", "num_flows", "4", "column src_ports_delta: empty while num_flows is filled"),
        ("flows", "fwd_iat_mean", "inf", "column fwd_iat_mean: non-finite value 'inf'"),
        ("labels", "responder_port", "65536",
         "column responder_port: '65536' is not a port from 0 to 65535"),
        ("labels", "initiator_port", "http", "column initiator_port: 'http' is not a number"),
        ("labels", "label", "attack", "is labelled 'attack' here but 'benign' on line 4"),
    ],
)
def test_line_after_quoted_line_break_named(fig2_capture, tmp_path, capsys, source, column,
                                            raw, problem):
    # row 1's label holds a line break, so row 2 starts on line 4 and row 3
    # on line 5; a labels case with label "attack" repeats row 2 relabelled
    import csv

    with open(_csv_source(fig2_capture, tmp_path, source), newline="") as handle:
        records = list(csv.reader(handle))
    records[1][-1] = "be\nnign"
    at = records[0].index(column)
    if raw is None:
        del records[3][at]
    elif column == "label":
        row = records[2]
        key = (row[0], int(row[1]), row[2], int(row[3]), row[4], round(float(row[5]) * 1e6))
        records.append(row[:-1] + [raw])
        problem = f"flow {key} {problem}"
    else:
        records[3][at] = raw
    bad = tmp_path / "bad.csv"
    with open(bad, "w", newline="") as handle:
        csv.writer(handle).writerows(records)
    capsys.readouterr()
    assert _read_csv_source(fig2_capture[0], source, bad) == 1
    line = len(records) + 1 if column == "label" and raw else 5
    assert capsys.readouterr().err == f"error: {bad}:{line}: {problem}\n"


@pytest.mark.parametrize("source, column, raw", [
    ("flows", "fwd_byte_count", "abc"), ("labels", "initiator_port", "http"),
])
def test_cr_only_csv_lines_counted_as_the_reader_counts(fig2_capture, tmp_path, capsys,
                                                        source, column, raw):
    # a lone CR ends a line for csv.reader; a byte that is not UTF-8 and a
    # bad field on the same line name the same line
    data = _csv_source(fig2_capture, tmp_path, source).read_bytes().replace(b"\r\n", b"\r")
    lines = data.splitlines(keepends=True)
    header, fields = (lines[i].decode().rstrip("\r").split(",") for i in (0, 3))
    fields[header.index(column)] = raw
    bad = tmp_path / "bad.csv"
    for text, problem in (
        (lines[:3] + [b"\xff" + lines[3]] + lines[4:], "byte 0xff is not UTF-8"),
        (lines[:3] + [",".join(fields).encode() + b"\r"] + lines[4:],
         f"column {column}: {raw!r} is not a number"),
    ):
        bad.write_bytes(b"".join(text))
        capsys.readouterr()
        assert _read_csv_source(fig2_capture[0], source, bad) == 1
        assert capsys.readouterr().err == f"error: {bad}:4: {problem}\n"


@pytest.mark.parametrize("loader", ["spec", "config", "selection", "model"])
def test_non_utf8_input_file_rejected(mimicking_csvs, tmp_path, capsys, loader):
    _, agg_csv, _, attack_csv = mimicking_csvs
    bad, never = tmp_path / "bad", str(tmp_path / "never")
    # each file has the byte 0xff on its line 2
    text, argv = {
        "spec": (b'{"seed": 1,\n"duration": 5\xff}',
                 ["synth", "--spec", str(bad), "--out", never]),
        "config": (b"[flow]\nidle_timeout_s = 1\xff0\n",
                   ["aggregate", "--in", never, "--config", str(bad), "--out", never]),
        "selection": (b'{"format_version": 1,\n"selected": ["\xff"]}',
                      ["train", "--in", str(agg_csv), "--selection", str(bad),
                       "--model", never]),
        "model": (b'{"format_version": 1,\n"\xff": 0}',
                  ["zeroday", "detect", "--model", str(bad), "--in", str(attack_csv)]),
    }[loader]
    bad.write_bytes(text)
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}:2: byte 0xff is not UTF-8\n"
    assert not (tmp_path / "never").exists()


def test_missing_config_rejected(tmp_path, capsys):
    missing, never = tmp_path / "missing.ini", str(tmp_path / "never")
    assert run(["aggregate", "--in", never, "--config", str(missing), "--out", never]) == 1
    assert capsys.readouterr().err == f"error: config file {missing} not found or unreadable\n"


@pytest.mark.parametrize(
    "column, raw, problem",
    [
        ("fwd_iat_mean", "nan", "non-finite value 'nan'"),
        ("bwd_pkt_len_std", "-inf", "non-finite value '-inf'"),
        ("start_time", "1e999", "non-finite value '1e999'"),
        ("src_ports_delta", "NaN", "non-finite value 'NaN'"),
        ("fwd_byte_count", "abc", "'abc' is not a number"),
        ("responder_port", "http", "'http' is not a number"),
        ("num_flows", "2.5", "'2.5' is not a number"),
        ("responder_port", "1" + "0" * 30, f"'1{'0' * 30}' does not fit in 64 bits"),
        ("num_flows", str(2**63), f"'{2**63}' does not fit in 64 bits"),
        ("initiator_port", "-5", "'-5' is not a port from 0 to 65535"),
        ("responder_port", str(2**62), f"'{2**62}' is not a port from 0 to 65535"),
        ("initiator_port", "65536", "'65536' is not a port from 0 to 65535"),
    ],
)
def test_bad_flow_csv_value_rejected(mimicking_csvs, tmp_path, capsys, column, raw,
                                     problem):
    import csv

    from flowbundle.features import CSV_COLUMNS

    _, agg_csv, _, _ = mimicking_csvs
    with open(agg_csv, newline="") as handle:
        records = list(csv.reader(handle))
    records[3][CSV_COLUMNS.index(column)] = raw
    bad = tmp_path / "bad.csv"
    with open(bad, "w", newline="") as handle:
        csv.writer(handle).writerows(records)
    assert run(["aggregate", "--in", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == f"error: {bad}:4: column {column}: {problem}\n"


@pytest.mark.parametrize(
    "edits, problem",
    [
        # within a record, the first column's defect is named
        ({(3, "bwd_byte_count"): "x", (3, "fwd_iat_mean"): "nan"},
         "column fwd_iat_mean: non-finite value 'nan'"),
        ({(3, "responder_port"): str(2**64), (3, "start_time"): "x"},
         f"column responder_port: '{2**64}' does not fit in 64 bits"),
        # an earlier record's defect is named before a later one's
        ({(4, "fwd_pkt_count"): "x", (3, "num_flows"): "4"},
         "column src_ports_delta: empty while num_flows is filled"),
    ],
)
def test_flow_csv_names_first_defect(mimicking_csvs, tmp_path, capsys, edits, problem):
    import csv

    from flowbundle.features import CSV_COLUMNS

    base = mimicking_csvs[0]
    with open(base / "flows.csv", newline="") as handle:
        records = list(csv.reader(handle))
    for (row, column), raw in edits.items():
        records[row][CSV_COLUMNS.index(column)] = raw
    bad = tmp_path / "bad.csv"
    with open(bad, "w", newline="") as handle:
        csv.writer(handle).writerows(records)
    assert run(["aggregate", "--in", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == f"error: {bad}:4: {problem}\n"


_MIXED = "the bundle columns must be all empty or all filled"


@pytest.mark.parametrize(
    "source, num_flows, delta, problem",
    [
        ("agg", "", "", f"column num_flows: empty here but filled on line 2; {_MIXED}"),
        ("agg", "", None, "column num_flows: empty while src_ports_delta is filled"),
        ("agg", None, "", "column src_ports_delta: empty while num_flows is filled"),
        ("flows", "4", "1.5",
         f"column num_flows: filled here but empty on line 2; {_MIXED}"),
        ("flows", "4", None, "column src_ports_delta: empty while num_flows is filled"),
        ("flows", None, "1.5", "column num_flows: empty while src_ports_delta is filled"),
    ],
)
@pytest.mark.parametrize("command", ["aggregate", "rfe"])
def test_mixed_bundle_columns_rejected(mimicking_csvs, tmp_path, capsys, source,
                                       num_flows, delta, problem, command):
    # a file aggregated on some rows only would make rfe, train and
    # zeroday fit drop both bundle features without a word
    import csv

    from flowbundle.features import CSV_COLUMNS

    base, agg_csv, _, _ = mimicking_csvs
    with open(agg_csv if source == "agg" else base / "flows.csv", newline="") as handle:
        records = list(csv.reader(handle))
    for column, raw in (("num_flows", num_flows), ("src_ports_delta", delta)):
        if raw is not None:
            records[3][CSV_COLUMNS.index(column)] = raw
    bad = tmp_path / "bad.csv"
    with open(bad, "w", newline="") as handle:
        csv.writer(handle).writerows(records)
    argv = [command, "--in", str(bad)]
    if command == "aggregate":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}:4: {problem}\n"


def test_extract_and_aggregate_report_counts(fig2_capture, tmp_path, capsys):
    # perfbench's ingest check parses the extract line
    pcap, labels = fig2_capture
    flows_csv, agg_csv = tmp_path / "flows.csv", tmp_path / "agg.csv"
    assert run(["extract", "--pcap", str(pcap), "--labels", str(labels),
                "--out", str(flows_csv)]) == 0
    assert capsys.readouterr().out == f"64 packets (0 skipped) -> 8 flows -> {flows_csv}\n"
    for window, bundles, shown in (("none", 4, "whole capture"), ("1", 5, "1.0")):
        assert run(["aggregate", "--in", str(flows_csv), "--out", str(agg_csv),
                    "--window", window]) == 0
        assert capsys.readouterr().out == (
            f"8 flows -> {bundles} bundles (window={shown}) -> {agg_csv}\n"
        )


def test_aggregate_tiny_window_makes_every_flow_a_bundle(fig2_capture, tmp_path, capsys):
    # the window indices pass 2**63: they stay exact and distinct
    pcap, labels = fig2_capture
    flows_csv, agg_csv = tmp_path / "flows.csv", tmp_path / "agg.csv"
    assert run(["extract", "--pcap", str(pcap), "--labels", str(labels),
                "--out", str(flows_csv)]) == 0
    capsys.readouterr()
    assert run(["aggregate", "--in", str(flows_csv), "--out", str(agg_csv),
                "--window", "1e-10"]) == 0
    assert capsys.readouterr().out == f"8 flows -> 8 bundles (window=1e-10) -> {agg_csv}\n"
    table = read_features_csv(agg_csv)
    assert table.num_flows.tolist() == [1] * 8
    assert table.src_ports_delta.tolist() == [0.0] * 8


def test_aggregate_window_without_finite_index_exits_1(fig2_capture, tmp_path, capsys):
    pcap, labels = fig2_capture
    flows_csv, agg_csv = tmp_path / "flows.csv", tmp_path / "agg.csv"
    assert run(["extract", "--pcap", str(pcap), "--labels", str(labels),
                "--out", str(flows_csv)]) == 0
    capsys.readouterr()
    assert run(["aggregate", "--in", str(flows_csv), "--out", str(agg_csv),
                "--window", "1e-300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not agg_csv.exists()
    assert captured.err.startswith("error: bundle window 1e-300 s is too small for start "
                                   "times up to ")
    assert captured.err.endswith(" s: no finite window index\n")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


# sha256 of the capture, the labels and the flow CSVs of `synth --scenario
# full --scale small --seed 3` as the per-packet-object synth and writer and
# the row-object CSV writer produced them: the table code keeps every byte
_GOLDEN_SHA256 = {
    "full.pcap": "990b19df524ab655f303465e67a03f5b70e1a44aed592faf322bfc8312515f32",
    "labels.csv": "9f706c9af3f024d5698de859da30901b6f0475b9c9cb5ea7acae0533f28f845a",
    "flows.csv": "22070710254e02a44c531fce357ae686fbd3ed4d7067f693c6666a86bca2d6b2",
    "none.csv": "158701de9db9de7b8753ed77913a493df23ff00c5aef400932d660d3fcc7bf20",
    "60.csv": "58438000ba1f7e1bdf4fd2b551ba2937ca039b51eef931ee7463d238a6ed4a8b",
}


def test_flow_csv_golden_bytes(tmp_path):
    import hashlib

    pcap, labels = tmp_path / "full.pcap", tmp_path / "labels.csv"
    assert run(["synth", "--scenario", "full", "--scale", "small", "--seed", "3",
                "--out", str(pcap), "--labels", str(labels)]) == 0
    assert run(["extract", "--pcap", str(pcap), "--labels", str(labels),
                "--out", str(tmp_path / "flows.csv")]) == 0
    for window in ("none", "60"):
        assert run(["aggregate", "--in", str(tmp_path / "flows.csv"),
                    "--out", str(tmp_path / f"{window}.csv"), "--window", window]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in _GOLDEN_SHA256
    }
    assert digests == _GOLDEN_SHA256


# sha256 of the capture and the labels of the benchmark's capture input: the
# 10x scenario at seed 1 with each class's sources cut to a twentieth, as the
# per-packet generator loop and the per-packet record writer produced them
_CAPTURE_SHARD_SHA256 = {
    "capture.pcap": "0ed5243c9afabd96fa4c143f43a5270a53fb150cce63d58513dc75563e89f1d1",
    "labels.csv": "82507b83e7e5f26bf676c3e4a248824dd29e04839a5fcae84b0517a0feb3a83f",
}


def test_capture_shard_golden_bytes(tmp_path):
    import hashlib
    from pathlib import Path

    scenario = Path(__file__).resolve().parents[1] / "perfbench" / "scenario_10x.json"
    doc = json.loads(scenario.read_text())
    doc["seed"] = 1
    for cls in doc["classes"]:
        cls["n_sources"] //= 20
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert run(["synth", "--spec", str(spec), "--out", str(tmp_path / "capture.pcap"),
                "--labels", str(tmp_path / "labels.csv")]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in _CAPTURE_SHARD_SHA256
    }
    assert digests == _CAPTURE_SHARD_SHA256


@pytest.mark.parametrize(
    "text, problem",
    [
        ("[flow]\nidle_timeout_s = 10\nidle_timeout_s = 20\n",
         ":3: duplicate key 'idle_timeout_s' in [flow]"),
        ("idle_timeout_s = 10\n", ":1: key before any [section] header"),
        ("[flow]\n[bundle]\n[flow]\n", ":3: duplicate section [flow]"),
        ("[flow]\nidle_timeout_s\n", ":2: cannot parse 'idle_timeout_s\\n'"),
    ],
)
@pytest.mark.parametrize("command", ["extract", "aggregate"])
def test_ini_syntax_error_rejected(fig2_capture, tmp_path, capsys, text, problem,
                                   command):
    pcap, _ = fig2_capture
    config = tmp_path / "bad.ini"
    config.write_text(text)
    if command == "extract":
        argv = ["extract", "--pcap", str(pcap)]
    else:
        argv = ["aggregate", "--in", str(tmp_path / "never-read.csv")]
    argv += ["--config", str(config), "--out", str(tmp_path / "x.csv")]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {config}{problem}\n"


@pytest.mark.parametrize(
    "key, value, problem",
    [
        ("weights", 5, "key 'weights' must be a list of 2 layers"),
        ("biases", [[0.0], [0.0]], "key 'biases[0]' must be a list of"),
        ("weights", [[0.5], [0.5]], "key 'weights[0]' must be a list of"),
        ("layer_sizes", [36, "8", 36], "key 'layer_sizes' must be a list of"),
        ("layer_sizes", 36, "key 'layer_sizes' must be a list of"),
        ("feature_names", 5, "key 'feature_names' must be a list of 36 distinct names"),
        ("feature_names", ALL_FEATURE_NAMES[:-1] + ["bogus"],
         "key 'feature_names': 'bogus' is not a feature name"),
        ("feature_names", ALL_FEATURE_NAMES[:-1],
         "key 'feature_names' must be a list of 36 distinct names"),
        ("feature_names", ALL_FEATURE_NAMES[:-1] + ALL_FEATURE_NAMES[:1],
         "key 'feature_names' must be a list of 36 distinct names"),
        ("class_names", ["benign", "benign"] + [f"c{i}" for i in range(34)],
         "key 'class_names' must be a list of 36 distinct names"),
        ("class_names", ["benign"], "key 'class_names' must be a list of 36 distinct names"),
        ("class_names", list(range(36)), "key 'class_names' must be a list of 36 distinct"),
    ],
)
def test_mistyped_model_rejected(mimicking_csvs, tmp_path, capsys, key, value, problem):
    _, _, benign_csv, attack_csv = mimicking_csvs
    model_path = tmp_path / "ae.json"
    assert run(["zeroday", "fit", "--benign", str(benign_csv),
                "--model", str(model_path), "--epochs", "1"]) == 0
    doc = json.loads(model_path.read_text())
    doc[key] = value
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["zeroday", "detect", "--model", str(model_path),
                "--in", str(attack_csv)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {model_path}: {problem}")


def test_model_without_feature_names_rejected(mimicking_csvs, tmp_path, capsys):
    """A 36-input autoencoder that names no features does not fit the 34 flow
    features detect falls back to: the error names the model file."""
    _, _, benign_csv, attack_csv = mimicking_csvs
    model_path = tmp_path / "ae.json"
    assert run(["zeroday", "fit", "--benign", str(benign_csv),
                "--model", str(model_path), "--epochs", "1"]) == 0
    doc = json.loads(model_path.read_text())
    doc["feature_names"] = None
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["zeroday", "detect", "--model", str(model_path),
                "--in", str(attack_csv)]) == 1
    assert capsys.readouterr().err == (
        f"error: {model_path}: names none of its 36 inputs\n")


def test_class_unknown_to_model_names_the_model(mimicking_csvs, tmp_path, capsys):
    _, agg_csv, benign_csv, attack_csv = mimicking_csvs
    model_path = tmp_path / "model.json"
    assert run(["train", "--in", str(agg_csv), "--model", str(model_path),
                "--epochs", "1"]) == 0
    doc = json.loads(model_path.read_text())
    doc["class_names"] = ["benign", "other"]
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["eval", "--model", str(model_path), "--benign", str(benign_csv),
                "--attack", f"slowloris={attack_csv}"]) == 1
    assert capsys.readouterr().err == (
        f"error: {model_path}: class 'slowloris' unknown to the model "
        "(trained on ['benign', 'other'])\n")



@pytest.mark.parametrize(
    "selected, problem",
    [
        (["bogus"], "key 'selected': 'bogus' is not a feature name"),
        (["fwd_pkt_count", "bogus"], "key 'selected': 'bogus' is not a feature name"),
        ("fwd_pkt_count", "key 'selected' must be a non-empty list of distinct names"),
        ([], "key 'selected' must be a non-empty list of distinct names"),
        (["fwd_pkt_count", "fwd_pkt_count"],
         "key 'selected' must be a non-empty list of distinct names"),
        ([5], "key 'selected' must be a non-empty list of distinct names"),
        (None, "key 'selected' must be a non-empty list of distinct names"),
    ],
)
def test_bad_selection_names_rejected(mimicking_csvs, tmp_path, capsys, selected,
                                      problem):
    _, agg_csv, _, _ = mimicking_csvs
    selection = tmp_path / "sel.json"
    selection.write_text(json.dumps({"format_version": 1, "selected": selected}))
    capsys.readouterr()
    assert run(["train", "--in", str(agg_csv), "--selection", str(selection),
                "--model", str(tmp_path / "model.json"), "--epochs", "1"]) == 1
    assert capsys.readouterr().err == f"error: {selection}: {problem}\n"
    assert not (tmp_path / "model.json").exists()


_SPEC_CLASS = '"label": "benign", "n_sources": 2, "flows_per_source": [2, 3]'


@pytest.mark.parametrize(
    "top, extra, problem",
    [
        ("", '"flows_per_source": [1]', "flows_per_source must be [low, high]"),
        ("", '"flows_per_source": [3, 2]', "flows_per_source must be [low, high]"),
        ("", '"flows_per_source": 4', "flows_per_source must be [low, high]"),
        ("", '"data_exchanges": [2, 1]', "data_exchanges must be [low, high]"),
        ("", '"pkt_len_std": -5', "pkt_len_std must be a finite number >= 0"),
        ("", '"iat_mean": -1', "iat_mean must be in [0, "),
        ("", '"pkt_len_mean": 1e400', "pkt_len_mean must be a finite number, got inf"),
        ("", '"pkt_len_mean": NaN', "pkt_len_mean must be a finite number, got nan"),
        ("", '"n_sources": 2.5', "n_sources must be 1 to 64000 source hosts"),
        ("", '"port_pattern": "sequential", "port_step": 20000', "port_step must be"),
        ("", '"port_pattern": "fixed", "fixed_port": 70000', "fixed_port must be a port"),
        ("", '"flow_shape": "scan", "scan_port_base": 65535', "scan_port_base must be"),
        ('"duration": 1e10, ', "", "duration must be positive and at most"),
        ('"seed": -1, ', "", "seed must be an integer >= 0"),
        ('"seed": 7.9, ', "", "seed must be an integer >= 0, got 7.9"),
        ('"n_servers": 2.5, ', "", "n_servers must be 1 to 246, got 2.5"),
        ('"duration": 1e400, ', "", "duration must be positive and at most"),
        ('"n_servers": 300, ', "", "n_servers must be 1 to 246"),
    ],
)
def test_malformed_scenario_spec_rejected(tmp_path, capsys, top, extra, problem):
    # a repeated key overrides the one before it, in JSON as parsed here
    entry = _SPEC_CLASS + (", " + extra if extra else "")
    spec = tmp_path / "spec.json"
    spec.write_text('{"seed": 5, "duration": 20.0, ' + top + '"classes": [{' + entry + "}]}")
    assert run(["synth", "--spec", str(spec), "--out", str(tmp_path / "x.pcap")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: invalid scenario spec (")
    assert problem in err


def test_invalid_spec_json_names_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"seed": 1,')
    assert run(["synth", "--spec", str(spec), "--out", str(tmp_path / "x.pcap")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {spec}:1: invalid scenario spec (")


@pytest.mark.parametrize(
    "text, problem",
    [
        ("[training]\nepochs = 0\n", "'0' for [training] epochs: must be >= 1"),
        ("[rfe]\nk = 0\n", "'0' for [rfe] k: must be >= 1"),
        ("[rfe]\nepochs = -3\n", "'-3' for [rfe] epochs: must be >= 1"),
        ("[autoencoder]\nepochs = 0\n", "'0' for [autoencoder] epochs: must be >= 1"),
        ("[network]\nhidden_size = 0\n", "'0' for [network] hidden_size: must be >= 1"),
        ("[network]\nextended_hidden_size = 0\n",
         "'0' for [network] extended_hidden_size: must be >= 1"),
        ("[training]\nbatch_size = 0\n", "'0' for [training] batch_size: must be >= 1"),
        ("[evaluation]\nfolds = 1\n", "'1' for [evaluation] folds: must be >= 2"),
        ("[run]\nseed = -1\n", "'-1' for [run] seed: must be >= 0"),
        # a % is part of the value, not the start of an interpolation
        ("[run]\nseed = 3%\n",
         "'3%' for [run] seed: invalid literal for int() with base 10: '3%'"),
        ("[training]\nlearning_rate = 0\n",
         "'0' for [training] learning_rate: must be a finite number > 0"),
        ("[rfe]\nlearning_rate = nan\n",
         "'nan' for [rfe] learning_rate: must be a finite number > 0"),
        ("[flow]\nidle_timeout_s = -1\n",
         "'-1' for [flow] idle_timeout_s: must be a finite number > 0"),
        ("[flow]\nactive_timeout_s = inf\n",
         "'inf' for [flow] active_timeout_s: must be a finite number > 0"),
        ("[bundle]\nwindow_s = 0\n", "'0' for [bundle] window_s: must be a finite number > 0"),
        ("[zeroday]\nthresholds = 0.1,0\n",
         "'0.1,0' for [zeroday] thresholds: each must lie in (0, 1]"),
        ("[zeroday]\nthresholds = 1.5\n",
         "'1.5' for [zeroday] thresholds: each must lie in (0, 1]"),
        ("--idle-timeout nan", "'nan' for --idle-timeout: must be a finite number > 0"),
        ("--hidden 0", "'0' for --hidden: must be >= 1"),
        ("--window nan", "'nan' for --window: must be a finite number > 0"),
        ("--k 0", "'0' for --k: must be >= 1"),
        ("--folds 1", "'1' for --folds: must be >= 2"),
        ("--thresholds 0", "'0' for --thresholds: each must lie in (0, 1]"),
    ],
)
def test_config_value_out_of_range_rejected(fig2_capture, tmp_path, capsys, text, problem):
    """An INI value (text is the file) or a flag (text is the flag and value)."""
    pcap, _ = fig2_capture
    if text.startswith("--"):
        # the command that carries the flag; the bad value stops it before
        # any of these files is read or written
        never = str(tmp_path / "never")
        argv = {
            "--idle-timeout": ["extract", "--pcap", never, "--out", never],
            "--hidden": ["train", "--in", never, "--model", never],
            "--window": ["aggregate", "--in", never, "--out", never],
            "--k": ["rfe", "--in", never],
            "--folds": ["eval", "--design", "binary", "--benign", never],
            "--thresholds": ["zeroday", "detect", "--model", never, "--in", never],
        }[text.split()[0]] + text.split()
        where = ""
    else:
        config = tmp_path / "range.ini"
        config.write_text(text)
        argv = ["extract", "--pcap", str(pcap), "--config", str(config),
                "--out", str(tmp_path / "x.csv")]
        where = f"{config}: "
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {where}bad value {problem}\n"
    assert not (tmp_path / "never").exists()


def test_config_values_in_range_accepted(fig2_capture, tmp_path):
    pcap, _ = fig2_capture
    config = tmp_path / "edge.ini"
    config.write_text(
        "[flow]\nactive_timeout_s = none\n[bundle]\nwindow_s = none\n"
        "[training]\nepochs = 1\nbatch_size = 1\n[evaluation]\nfolds = 2\n"
        "[zeroday]\nthresholds = 1,0.001\n[run]\nseed = 0\n"
    )
    assert run(["extract", "--pcap", str(pcap), "--config", str(config),
                "--out", str(tmp_path / "x.csv")]) == 0
