"""The benchmark's three workloads and the checks on their outputs.

Each workload drives ``flowbundle.cli.main`` in process.  ``inputs``
makes the inputs of the run's operations from the seed, once, ``run``
is the timed operation, ``check`` verifies the operation's outputs and
returns a list of errors (empty when the outputs are correct).

Why these workloads:

* capture - ``flowbundle synth`` on a twentieth of the 10x scenario:
  only the write side of ``pcap`` plus ``synth`` run, no read, flow,
  feature or training code.  It catches a packet-representation change
  that speeds reads but slows writes.
* ingest - ``flowbundle extract`` then ``aggregate --window none`` on a
  capture of a quarter of the 10x scenario: ``pcap`` read, ``flows``,
  ``features`` and ``aggregation`` do all the work and ``mlp`` does
  none.
* study - ``flowbundle replicate`` at desk scale: training is most of
  the work, the ingest layers only a few percent.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import struct
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SCENARIO_10X = HERE / "scenario_10x.json"

# A capture operation writes a twentieth of the 10x scenario (half desk
# scale, about 1 s); an ingest operation reads a quarter of it (about
# 77,000 packets, 3-4 s), large enough that its own memory, not the
# interpreter's, sets the peak RSS.  The whole 10x capture takes about
# 25 s to write and 16 s to read, too long to repeat inside one run and
# report a median.
CAPTURE_SHARDS = 20
INGEST_SHARDS = 4

# Runs ``flowbundle`` from the given source tree in a child process.
_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from flowbundle.cli import main; sys.exit(main(sys.argv[2:]))"
)

# replicate's experiments: the number of features RFE keeps in each of
# binary, three-class, five-class and five-class extended; each runs
# once without and once with the two bundle features.
REPLICATE_RFE_KEEPS = (5, 5, 5, 10)
REPLICATE_AUTOENCODERS = 2


def _cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_body(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def write_shard_spec(seed: int, path: Path, shards: int) -> None:
    """The 10x scenario spec with the seed substituted, cut to one shard."""
    doc = json.loads(SCENARIO_10X.read_text())
    doc["seed"] = seed
    for cls in doc["classes"]:
        cls["n_sources"] = cls["n_sources"] // shards
    path.write_text(json.dumps(doc, indent=1))


def walk_pcap(path: Path) -> tuple[int, int, list[str]]:
    """Records in a classic little-endian Ethernet pcap and the size
    24 + sum(16 + 14 + ip_total_length) they imply; framing errors."""
    data = path.read_bytes()
    if len(data) < 24:
        return 0, 0, [f"{path.name}: {len(data)} bytes, shorter than a pcap header"]
    records, implied, offset = 0, 24, 24
    while offset < len(data):
        if offset + 16 > len(data):
            return records, implied, [f"{path.name}: truncated record header at {offset}"]
        incl_len = struct.unpack_from("<I", data, offset + 8)[0]
        frame = offset + 16
        if frame + incl_len > len(data) or incl_len < 34:
            return records, implied, [f"{path.name}: truncated frame at {frame}"]
        ip_total_length = struct.unpack_from("!H", data, frame + 16)[0]
        implied += 16 + 14 + ip_total_length
        records += 1
        offset = frame + incl_len
    return records, implied, []


def brute_force_bundles(rows: list[list[str]], header: list[str]) -> dict[str, tuple[int, float]]:
    """Initiator IP -> (flow count, mean gap of sorted initiator ports)."""
    ip_col, port_col = header.index("initiator_ip"), header.index("initiator_port")
    ports: dict[str, list[int]] = {}
    for row in rows:
        ports.setdefault(row[ip_col], []).append(int(row[port_col]))
    out = {}
    for ip, plist in ports.items():
        plist.sort()
        gaps = [b - a for a, b in zip(plist, plist[1:])]
        out[ip] = (len(plist), sum(gaps) / len(gaps) if gaps else 0.0)
    return out


class Capture:
    name = "capture"
    expected_spans = ("synth.generate", "synth.write_pcap", "synth.write_labels_csv")

    def inputs(self, workdir: Path, seed: int) -> dict:
        spec = workdir / "spec.json"
        write_shard_spec(seed, spec, CAPTURE_SHARDS)
        return {"spec": spec, "pcap": workdir / "capture.pcap", "labels": workdir / "labels.csv"}

    def run(self, cli, ctx: dict) -> dict:
        code, _ = _cli(cli, [
            "synth", "--spec", str(ctx["spec"]),
            "--out", str(ctx["pcap"]), "--labels", str(ctx["labels"]),
        ])
        return {"code": code}

    def expect(self, cli, ctx: dict) -> None:
        """What the capture must hold, from the generator itself (untimed)."""
        synth = cli.synth
        traffic = synth.generate(synth.load_scenario_spec(ctx["spec"]))
        ctx["packets"] = len(traffic.packets)
        ctx["flows"] = len(traffic.manifest)
        ctx["pcap_bytes"] = 24 + sum(16 + 14 + p.ip_total_length for p in traffic.packets)

    def check(self, ctx: dict, result: dict) -> list[str]:
        if result["code"] != 0:
            return [f"synth exited {result['code']}"]
        records, implied, errors = walk_pcap(ctx["pcap"])
        size = ctx["pcap"].stat().st_size
        if size != implied:
            errors.append(f"pcap is {size} bytes, its records imply {implied}")
        if size != ctx["pcap_bytes"]:
            errors.append(f"pcap is {size} bytes, the generated packets need {ctx['pcap_bytes']}")
        if records != ctx["packets"]:
            errors.append(f"pcap holds {records} packets, {ctx['packets']} were generated")
        _, labels = _csv_body(ctx["labels"])
        if len(labels) != ctx["flows"]:
            errors.append(f"{len(labels)} label rows for {ctx['flows']} manifest entries")
        return errors

    def packets(self, ctx: dict, result: dict) -> int:
        return ctx["packets"]

    def check_trace(self, ctx: dict, layer: dict) -> list[str]:
        errors = []
        if layer["pcap.bytes"] != ctx["pcap_bytes"]:
            errors.append(f"traced pcap.bytes {layer['pcap.bytes']} != {ctx['pcap_bytes']}")
        return errors


class Ingest:
    name = "ingest"
    expected_spans = (
        "cli.read_pcap", "flows.assemble_flows", "synth.read_labels_csv",
        "synth.match_labels", "features.extract_features",
        "features.write_features_csv", "features.read_features_csv",
        "aggregation.aggregate_features", "aggregation.bundle_flows",
    )

    def inputs(self, workdir: Path, seed: int) -> dict:
        """The capture, written by ``flowbundle synth`` in a child process
        so that this process's peak RSS is that of ingest alone."""
        ctx = {"spec": workdir / "spec.json", "pcap": workdir / "capture.pcap",
               "labels": workdir / "labels.csv"}
        write_shard_spec(seed, ctx["spec"], INGEST_SHARDS)
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(SRC), "synth", "--spec", str(ctx["spec"]),
             "--out", str(ctx["pcap"]), "--labels", str(ctx["labels"])],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"synth exited {proc.returncode} writing the capture:\n{proc.stderr}")
        ctx["flows_csv"] = workdir / "flows.csv"
        ctx["agg_csv"] = workdir / "flows_agg.csv"
        return ctx

    def run(self, cli, ctx: dict) -> dict:
        code, out = _cli(cli, [
            "extract", "--pcap", str(ctx["pcap"]), "--labels", str(ctx["labels"]),
            "--out", str(ctx["flows_csv"]),
        ])
        if code == 0:
            code, _ = _cli(cli, [
                "aggregate", "--in", str(ctx["flows_csv"]), "--out", str(ctx["agg_csv"]),
                "--window", "none",
            ])
        return {"code": code, "stdout": out}

    def expect(self, cli, ctx: dict) -> None:
        records, _, errors = walk_pcap(ctx["pcap"])
        if errors:
            raise RuntimeError(f"prepared capture is malformed: {errors}")
        _, labels = _csv_body(ctx["labels"])
        ctx["packets"] = records
        ctx["flows"] = len(labels)
        ctx["bundles"] = len({row[0] for row in labels})

    def check(self, ctx: dict, result: dict) -> list[str]:
        if result["code"] != 0:
            return [f"extract/aggregate exited {result['code']}"]
        errors = []
        match = re.search(r"(\d+) packets \((\d+) skipped\)", result["stdout"])
        if match is None:
            errors.append("extract did not report packets and skipped")
        elif int(match.group(2)) != 0:
            errors.append(f"extract skipped {match.group(2)} packets")
        header, flows = _csv_body(ctx["flows_csv"])
        if len(flows) != ctx["flows"]:
            errors.append(f"{len(flows)} flow rows for {ctx['flows']} manifest flows")
        try:
            fwd, bwd = header.index("fwd_pkt_count"), header.index("bwd_pkt_count")
            carried = sum(int(r[fwd]) + int(r[bwd]) for r in flows)
        except (ValueError, IndexError) as exc:
            return errors + [f"flow CSV unreadable: {exc}"]
        if carried != ctx["packets"]:
            errors.append(f"flows carry {carried} packets, the capture has {ctx['packets']}")
        agg_header, agg = _csv_body(ctx["agg_csv"])
        if agg_header != header or len(agg) != len(flows):
            return errors + ["aggregated CSV does not have the flow CSV's header and rows"]
        n_col, d_col = header.index("num_flows"), header.index("src_ports_delta")
        expected = brute_force_bundles(flows, header)
        for line, (row, agg_row) in enumerate(zip(flows, agg), start=2):
            if agg_row[:n_col] != row[:n_col] or agg_row[-1] != row[-1]:
                errors.append(f"aggregated row {line} changed the flow's own columns")
                break
            count, delta = expected[row[0]]
            try:
                ok = int(agg_row[n_col]) == count and abs(float(agg_row[d_col]) - delta) <= 1e-6
            except ValueError:
                ok = False
            if not ok:
                errors.append(
                    f"aggregated row {line}: bundle columns {agg_row[n_col]}, "
                    f"{agg_row[d_col]}; brute force gives {count}, {delta:.6f}"
                )
                break
        result["fingerprint"] = _sha256(ctx["flows_csv"])
        return errors

    def packets(self, ctx: dict, result: dict) -> int:
        return ctx["packets"]

    def check_trace(self, ctx: dict, layer: dict) -> list[str]:
        errors = []
        if layer["flows.count"] != ctx["flows"]:
            errors.append(f"traced flows.count {layer['flows.count']} != {ctx['flows']}")
        if layer["pcap.skipped"] != 0:
            errors.append(f"traced pcap.skipped {layer['pcap.skipped']}")
        if layer["aggregation.bundles"] != ctx["bundles"]:
            errors.append(
                f"traced aggregation.bundles {layer['aggregation.bundles']} != {ctx['bundles']}"
            )
        return errors


def _metric_floats(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _metric_floats(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _metric_floats(value, f"{path}[{i}]")
    elif isinstance(node, float):
        yield path, node


class Study:
    name = "study"
    expected_spans = (
        "synth.generate", "synth.write_pcap", "synth.write_labels_csv",
        "synth.read_labels_csv", "synth.match_labels", "cli.read_pcap",
        "flows.assemble_flows", "features.extract_features",
        "features.write_features_csv", "features.feature_matrix",
        "aggregation.aggregate_features", "aggregation.bundle_flows",
        "evaluation.run_experiment", "evaluation.feature_matrix",
        "evaluation.rfe_select", "evaluation.kfold_evaluate", "evaluation.train",
        "rfe.train", "zeroday.fit_benign", "zeroday.train", "zeroday.detect",
        "mlp.loss_and_gradients",
    )

    def inputs(self, workdir: Path, seed: int) -> dict:
        return {"seed": seed, "out": workdir / "replication"}

    def run(self, cli, ctx: dict) -> dict:
        code, _ = _cli(cli, ["replicate", "--seed", str(ctx["seed"]), "--out", str(ctx["out"])])
        return {"code": code}

    def expect(self, cli, ctx: dict) -> None:
        """Fits and gradient steps replicate's configuration implies."""
        cfg = cli.PipelineConfig()
        if cfg.batch_size is not None:
            raise RuntimeError("the step count below assumes full-batch training")
        n_flow = len(cli.features.FLOW_FEATURE_NAMES)
        n_all = len(cli.features.ALL_FEATURE_NAMES)
        # RFE drops one feature per fit until k remain, then fits once more
        rfe_fits = sum(n - k + 1 for k in REPLICATE_RFE_KEEPS for n in (n_flow, n_all))
        kfold_fits = 2 * len(REPLICATE_RFE_KEEPS) * cfg.folds
        ctx["rfe_fits"] = rfe_fits
        ctx["kfold_fits"] = kfold_fits
        ctx["steps"] = (
            rfe_fits * cfg.rfe_epochs
            + kfold_fits * cfg.epochs
            + REPLICATE_AUTOENCODERS * cfg.autoencoder_epochs
        )

    def check(self, ctx: dict, result: dict) -> list[str]:
        if result["code"] != 0:
            return [f"replicate exited {result['code']}"]
        report = ctx["out"] / "report.json"
        try:
            doc = json.loads(report.read_text())
            lift = doc["recall_lift"]["binary"]["slowloris"]
            result["packets"] = doc["scenario"]["packets"]
            sections = [doc["experiments"], doc["recall_lift"], doc["zero_day"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"report.json unreadable: {exc!r}"]
        errors = [
            f"report{path} = {value} is not a finite value in [0, 1]"
            for section in sections
            for path, value in _metric_floats(section)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0)
        ][:5]
        if not lift["with"] > lift["without"]:
            errors.append(
                f"binary slowloris recall with aggregation {lift['with']} "
                f"is not above {lift['without']} without"
            )
        result["fingerprint"] = _sha256(report)
        return errors

    def packets(self, ctx: dict, result: dict) -> int:
        return result.get("packets", 0)

    def check_trace(self, ctx: dict, layer: dict) -> list[str]:
        want = {
            "mlp.step_calls": ctx["steps"],
            "rfe.rounds": ctx["rfe_fits"],
            "evaluation.folds": ctx["kfold_fits"],
            "mlp.train_calls.ae": REPLICATE_AUTOENCODERS,
        }
        return [
            f"traced {name} {layer[name]} != {value} implied by the configuration"
            for name, value in want.items()
            if layer[name] != value
        ]


WORKLOADS = {w.name: w for w in (Capture(), Ingest(), Study())}
