"""Command-line entry point wiring the pipeline end to end.

Subcommands: synth, extract, aggregate, rfe, train, eval, zeroday,
replicate.  Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import aggregation, evaluation, features, flows, mlp, rfe, synth, zeroday
from .config import ConfigError, PipelineConfig, load_config
from .pcap import PcapFormatError, read_pcap


# PipelineConfig field -> the flag that overrides it; the flag's dest is the field
_FLAGS = {
    "idle_timeout_s": "--idle-timeout",
    "active_timeout_s": "--active-timeout",
    "window_s": "--window",
    "rfe_k": "--k",
    "hidden_size": "--hidden",
    "epochs": "--epochs",
    "autoencoder_epochs": "--epochs",
    "folds": "--folds",
    "seed": "--seed",
    "thresholds": "--thresholds",
}


def _load_pipeline_config(args) -> PipelineConfig:
    """The INI file's settings (or the defaults), then the flags given."""
    cfg = load_config(args.config) if getattr(args, "config", None) else PipelineConfig()
    for field, flag in _FLAGS.items():
        raw = getattr(args, field, None)
        if raw is not None:
            cfg.set_text(field, raw, flag)
    return cfg


def _attack_pairs(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            raise ConfigError(
                f"--attack expects NAME=PATH, got {pair!r}"
            )
        if name in out:
            raise ConfigError(f"duplicate attack class {name!r}")
        out[name] = path
    return out


def _write_report(path: str | None, doc: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))
        print(f"report -> {path}")


def _feature_names(table, exclude_aggregation: bool = False) -> list[str]:
    """Every feature when the table is aggregated, else the flow ones."""
    has_agg = table.aggregated and not exclude_aggregation
    return list(features.ALL_FEATURE_NAMES if has_agg else features.FLOW_FEATURE_NAMES)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_synth(args) -> int:
    if args.spec:
        traffic = synth.generate(synth.load_scenario_spec(args.spec))
    else:
        traffic = synth.build_scenario(args.scenario, args.seed, args.scale)
    synth.write_pcap(traffic.packets, args.out)
    if args.labels:
        synth.write_labels_csv(traffic.manifest, args.labels)
    print(
        f"wrote {len(traffic.packets)} packets / {len(traffic.manifest)} flows "
        f"to {args.out}"
    )
    return 0


def _extract_table(pcap_path, labels_path, cfg: PipelineConfig):
    capture = read_pcap(pcap_path)
    flow_list = flows.assemble_flows(capture.packets, cfg.idle_timeout_s, cfg.active_timeout_s)
    if labels_path:
        manifest = synth.read_labels_csv(labels_path)
        try:
            labels = synth.match_labels(flow_list, manifest)
        except synth.LabelError as exc:
            raise synth.LabelError(f"{labels_path}: {exc}") from None
    else:
        labels = ["benign"] * len(flow_list)
    return capture, features.flow_table(flow_list, labels)


def _cmd_extract(args) -> int:
    cfg = _load_pipeline_config(args)
    capture, table = _extract_table(args.pcap, args.labels, cfg)
    features.write_features_csv(table, args.out)
    print(
        f"{len(capture.packets)} packets ({capture.skipped} skipped) -> "
        f"{len(table)} flows -> {args.out}"
    )
    return 0


def _cmd_aggregate(args) -> int:
    window = _load_pipeline_config(args).window_s
    table = features.read_features_csv(args.infile)
    aggregated = aggregation.aggregate_features(table, window)
    features.write_features_csv(aggregated, args.out)
    print(
        f"{len(table)} flows -> {len(aggregation.bundle_flows(table, window))} bundles "
        f"(window={'whole capture' if window is None else window}) -> {args.out}"
    )
    return 0


def _cmd_rfe(args) -> int:
    cfg = _load_pipeline_config(args)
    table = features.read_features_csv(args.infile)
    y, class_names = features.label_classes(table)
    if len(class_names) < 2:
        raise ConfigError("RFE needs at least two label classes in the CSV")
    names = _feature_names(table, args.exclude_aggregation)
    X = features.feature_matrix(table, names)
    result = rfe.rfe_select(
        X,
        y,
        names,
        rfe.RfeConfig(
            k=cfg.rfe_k,
            inner_training=cfg.rfe_training(),
            hidden_size=cfg.hidden_size,
        ),
    )
    print("selected features (strongest first):")
    for name in result.selected:
        print(f"  {name}  (importance {result.importances[name]:.4f})")
    if args.out:
        rfe.save_selection(result, args.out)
        print(f"selection manifest -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_pipeline_config(args)
    table = features.read_features_csv(args.infile)
    y, class_names = features.label_classes(table)
    names = rfe.load_selection(args.selection) if args.selection else _feature_names(table)
    X = features.feature_matrix(table, names)
    model = mlp.init_classifier(len(names), cfg.hidden_size, len(class_names), cfg.seed)
    trained, history = mlp.train(model, X, y, cfg.classifier_training())
    mlp.save_model(
        mlp.ModelArtifact(
            model=trained, feature_names=names, class_names=class_names
        ),
        args.model,
    )
    print(
        f"trained {len(names)}-{cfg.hidden_size}-{len(class_names)} classifier on "
        f"{len(table)} flows; final loss {history[-1]:.6f} -> {args.model}"
    )
    return 0


def _eval_saved_model(args) -> int:
    artifact = mlp.load_model(args.model)
    if artifact.feature_names is None or artifact.class_names is None:
        raise ConfigError(
            f"{args.model} lacks feature/class metadata; was it written by train?"
        )
    class_rows = {"benign": args.benign}
    class_rows.update(_attack_pairs(args.attack))
    matrices = []
    for name, path in class_rows.items():
        if name not in artifact.class_names:
            raise ConfigError(
                f"{args.model}: class {name!r} unknown to the model (trained on "
                f"{artifact.class_names})"
            )
        table = features.read_features_csv(path)
        matrices.append(features.feature_matrix(table, artifact.feature_names))
    X = np.vstack(matrices)
    y = np.repeat(
        [artifact.class_names.index(name) for name in class_rows],
        [len(m) for m in matrices],
    )
    y_pred = mlp.predict_classes(artifact.model, X)
    counts = evaluation.ConfusionCounts.from_predictions(
        y, y_pred, artifact.class_names
    )
    doc = {"model": args.model, "classes": {}}
    print(f"saved-model evaluation ({len(y)} samples):")
    for name in artifact.class_names:
        p = evaluation.precision(counts, name)
        r = evaluation.recall(counts, name)
        f = evaluation.f1(counts, name)
        doc["classes"][name] = {
            "precision": p.value, "recall": r.value, "f1": f.value,
            "tp": counts.tp[name], "fp": counts.fp[name], "fn": counts.fn[name],
        }
        print(
            f"  {name:<16} precision {100 * p.value:6.2f}%  "
            f"recall {100 * r.value:6.2f}%  f1 {100 * f.value:6.2f}%"
        )
    _write_report(args.report, doc)
    return 0


# eval's k-fold options (dest -> flag), which scoring a saved model ignores
_KFOLD_ONLY = {
    "design": "--design",
    "config": "--config",
    "folds": "--folds",
    "seed": "--seed",
    "with_aggregation": "--with-aggregation",
    "extended": "--extended",
}


def _cmd_eval(args) -> int:
    if args.model:
        given = [flag for dest, flag in _KFOLD_ONLY.items()
                 if getattr(args, dest) not in (None, False)]
        if given:
            raise ConfigError(
                f"--model scores a saved model; it takes no {', '.join(given)}"
            )
        return _eval_saved_model(args)
    if not args.design:
        raise ConfigError("eval needs --design (k-fold mode) or --model")
    cfg = _load_pipeline_config(args)
    class_rows: dict[str, str] = {"benign": args.benign}
    class_rows.update(_attack_pairs(args.attack))
    report, _selection = evaluation.run_experiment(
        design=args.design,
        class_rows=class_rows,
        with_aggregation=args.with_aggregation,
        extended=args.extended,
        cfg=cfg,
    )
    print(evaluation.render_report_text(report, title=f"design: {args.design}"))
    _write_report(args.report, report.to_dict())
    return 0


def _cmd_zeroday_fit(args) -> int:
    cfg = _load_pipeline_config(args)
    table = features.read_features_csv(args.benign)
    names = _feature_names(table, args.exclude_aggregation)
    X = features.feature_matrix(table, names)
    model, history = zeroday.fit_benign(X, cfg.autoencoder_training())
    mlp.save_model(
        mlp.ModelArtifact(model=model, feature_names=names), args.model
    )
    print(
        f"autoencoder {model.layer_sizes} trained on {len(table)} benign flows; "
        f"final loss {history[-1]:.6f} -> {args.model}"
    )
    return 0


def _cmd_zeroday_detect(args) -> int:
    policy = zeroday.ThresholdPolicy(_load_pipeline_config(args).thresholds)
    artifact = mlp.load_model(args.model)
    table = features.read_features_csv(args.infile)
    names = artifact.feature_names or list(features.FLOW_FEATURE_NAMES)
    if len(names) != artifact.model.layer_sizes[0]:  # unnamed, not the flow features
        raise ConfigError(f"{args.model}: names none of its {artifact.model.layer_sizes[0]} inputs")
    X = features.feature_matrix(table, names)
    report = zeroday.detect(artifact.model, X, policy, kind=args.kind)
    print(f"{args.kind} set, {len(table)} samples:")
    for outcome in report.outcomes:
        print(
            f"  threshold {outcome.threshold:0.2f}: flagged {outcome.flagged}"
            f"/{outcome.total}, accuracy {100 * outcome.accuracy:.2f}%"
        )
    _write_report(args.report, report.to_dict())
    return 0


def _cmd_zeroday(args) -> int:
    if args.zeroday_command == "fit":
        return _cmd_zeroday_fit(args)
    return _cmd_zeroday_detect(args)


# ---------------------------------------------------------------------------
# replicate: the whole desk-scale study


def _experiment_designs(class_names: list[str]) -> dict[str, list[str]]:
    attacks = [n for n in class_names if n != "benign"]
    mimicking = "slowloris" if "slowloris" in attacks else attacks[0]
    designs = {"binary": ["benign", mimicking]}
    if "portscan" in attacks:
        designs["three_class"] = ["benign", "portscan", mimicking]
    if len(attacks) >= 4:
        designs["five_class"] = ["benign"] + attacks[:4]
    return designs


def _cmd_replicate(args) -> int:
    cfg = _load_pipeline_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"[1/6] generating scenario (seed={cfg.seed}, scale={args.scale})")
    traffic = synth.build_scenario("full", cfg.seed, args.scale)
    pcap_path = out_dir / "scenario.pcap"
    labels_path = out_dir / "labels.csv"
    synth.write_pcap(traffic.packets, pcap_path)
    synth.write_labels_csv(traffic.manifest, labels_path)

    print("[2/6] extracting bidirectional flows")
    capture, table = _extract_table(pcap_path, labels_path, cfg)
    features.write_features_csv(table, out_dir / "flows.csv")

    print("[3/6] aggregating flow bundles")
    aggregated = aggregation.aggregate_features(table, cfg.window_s)
    features.write_features_csv(aggregated, out_dir / "flows_aggregated.csv")

    class_names = evaluation.ordered_classes(list(set(aggregated.label.tolist())))
    by_class = {name: aggregated.take(aggregated.label == name) for name in class_names}
    for name in class_names:
        features.write_features_csv(by_class[name], out_dir / f"{name}.csv")

    report: dict = {
        "seed": cfg.seed,
        "scale": args.scale,
        "config": cfg.to_dict(),
        "scenario": {
            "packets": len(capture.packets),
            "skipped": capture.skipped,
            "flow_counts": {name: len(by_class[name]) for name in class_names},
        },
        "experiments": {},
        "recall_lift": {},
        "zero_day": {},
    }

    print(f"[4/6] classification experiments (RFE + {cfg.folds}-fold, both feature sets)")
    designs = _experiment_designs(class_names)
    runs = list(designs.items())
    if "five_class" in designs:
        runs.append(("five_class_extended", designs["five_class"]))
    for design_name, members in runs:
        design = (
            "five_class" if design_name.startswith("five_class") else design_name
        )
        extended = design_name.endswith("_extended")
        report["experiments"][design_name] = {}
        report["recall_lift"][design_name] = {}
        for with_aggregation in (False, True):
            experiment, _sel = evaluation.run_experiment(
                design=design,
                class_rows={name: by_class[name] for name in members},
                with_aggregation=with_aggregation,
                extended=extended,
                cfg=cfg,
            )
            mode = "with_aggregation" if with_aggregation else "without_aggregation"
            report["experiments"][design_name][mode] = experiment.to_dict()
            print()
            print(
                evaluation.render_report_text(
                    experiment, title=f"{design_name} / {mode}"
                )
            )
        for attack in members:
            if attack == "benign":
                continue
            without = report["experiments"][design_name]["without_aggregation"]
            with_ = report["experiments"][design_name]["with_aggregation"]
            report["recall_lift"][design_name][attack] = {
                "without": without["classes"][attack]["recall_mean"],
                "with": with_["classes"][attack]["recall_mean"],
            }

    print()
    print("[5/6] zero-day detection (benign-trained autoencoder)")
    rng = np.random.default_rng(cfg.seed)
    benign = by_class["benign"]
    order = rng.permutation(len(benign))
    split = max(1, int(0.7 * len(benign)))
    benign_train = benign.take(order[:split])
    benign_val = benign.take(order[split:])
    policy = zeroday.ThresholdPolicy(cfg.thresholds)
    for with_aggregation in (True, False):
        names = list(
            features.ALL_FEATURE_NAMES if with_aggregation else features.FLOW_FEATURE_NAMES
        )
        model, _hist = zeroday.fit_benign(
            features.feature_matrix(benign_train, names), cfg.autoencoder_training()
        )
        mode = "with_aggregation" if with_aggregation else "without_aggregation"
        section = {
            "benign_validation": zeroday.detect(
                model,
                features.feature_matrix(benign_val, names),
                policy,
                kind="benign",
            ).to_dict(),
            "attacks": {},
        }
        for name in class_names:
            if name == "benign":
                continue
            section["attacks"][name] = zeroday.detect(
                model,
                features.feature_matrix(by_class[name], names),
                policy,
                kind="attack",
            ).to_dict()
        report["zero_day"][mode] = section
        print(f"  {mode}:")
        rows = {"benign (val)": section["benign_validation"], **section["attacks"]}
        for name, table in rows.items():
            cells = ", ".join(
                f"{o['threshold']:0.2f}->{100 * o['flagged_rate']:.1f}%"
                for o in table["outcomes"]
            )
            print(f"    {name:<14} {cells}")

    report_path = Path(args.report) if args.report else out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True))
    print(f"[6/6] consolidated report -> {report_path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowbundle",
        description=(
            "Flow aggregation features for detecting benign-mimicking attacks: "
            "pcap -> flows -> features -> bundles -> classification"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="INI config file (CLI flags override it)")

    def add_override(p, field, help=None):
        p.add_argument(_FLAGS[field], dest=field, help=help)

    p = sub.add_parser("synth", help="generate a synthetic labelled capture")
    p.add_argument("--scenario", default="mimicking", choices=synth.SCENARIOS)
    p.add_argument("--spec", help="custom scenario spec (JSON), overrides --scenario")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", default="desk", choices=("desk", "small"))
    p.add_argument("--out", required=True, help="output pcap path")
    p.add_argument("--labels", help="output label manifest CSV")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("extract", help="pcap -> per-flow feature CSV")
    add_config(p)
    p.add_argument("--pcap", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--labels", help="label manifest CSV from synth")
    add_override(p, "idle_timeout_s", help="seconds")
    add_override(p, "active_timeout_s", help="seconds or 'none'")
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("aggregate", help="fill bundle features into a flow CSV")
    add_config(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    add_override(p, "window_s", help="seconds or 'none' (whole capture)")
    p.set_defaults(handler=_cmd_aggregate)

    p = sub.add_parser("rfe", help="recursive feature elimination on a flow CSV")
    add_config(p)
    p.add_argument("--in", dest="infile", required=True)
    add_override(p, "rfe_k")
    p.add_argument("--exclude-aggregation", action="store_true")
    add_override(p, "seed")
    p.add_argument("--out", help="write a selection manifest JSON")
    p.set_defaults(handler=_cmd_rfe)

    p = sub.add_parser("train", help="train a classifier on a flow CSV")
    add_config(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--selection", help="feature selection manifest from rfe")
    p.add_argument("--model", required=True, help="output model JSON")
    add_override(p, "hidden_size")
    add_override(p, "epochs")
    add_override(p, "seed")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser(
        "eval", help="k-fold experiment for one design, or score a saved model"
    )
    add_config(p)
    p.add_argument(
        "--design", choices=evaluation.DESIGNS,
        help="experiment design (omit when scoring with --model)",
    )
    p.add_argument("--model", help="saved classifier to score instead of k-fold")
    p.add_argument("--benign", required=True, help="benign flow CSV")
    p.add_argument(
        "--attack",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="attack class CSV (repeatable)",
    )
    p.add_argument("--with-aggregation", action="store_true")
    p.add_argument("--extended", action="store_true")
    add_override(p, "folds")
    add_override(p, "seed")
    p.add_argument("--report", help="write the report JSON here")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("zeroday", help="autoencoder zero-day detection")
    zsub = p.add_subparsers(dest="zeroday_command", required=True)
    pf = zsub.add_parser("fit", help="train the benign autoencoder")
    add_config(pf)
    pf.add_argument("--benign", required=True)
    pf.add_argument("--model", required=True)
    pf.add_argument("--exclude-aggregation", action="store_true")
    add_override(pf, "autoencoder_epochs")
    add_override(pf, "seed")
    pf.set_defaults(handler=_cmd_zeroday)
    pd = zsub.add_parser("detect", help="apply thresholds to a sample set")
    pd.add_argument("--model", required=True)
    pd.add_argument("--in", dest="infile", required=True)
    add_override(pd, "thresholds", help="comma-separated, each in (0, 1]")
    pd.add_argument("--kind", default="attack", choices=("attack", "benign"))
    pd.add_argument("--report")
    pd.set_defaults(handler=_cmd_zeroday)

    p = sub.add_parser(
        "replicate", help="run the full desk-scale study into a directory"
    )
    add_config(p)
    add_override(p, "seed")
    p.add_argument("--out", default="replication", help="output directory")
    p.add_argument("--scale", default="desk", choices=("desk", "small"))
    p.add_argument("--report", help="consolidated report path (default OUT/report.json)")
    p.set_defaults(handler=_cmd_replicate)

    return parser


# built once per process: parsing leaves the parser unchanged
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, PcapFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
