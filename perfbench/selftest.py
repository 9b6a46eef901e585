"""Shows that every output check of the benchmark catches a corrupted output.

    python3 perfbench/selftest.py

For each workload it runs the real operation through the benchmark's
own measuring loop, once as is (no operation may fail) and once per
corruption applied to the operation's outputs (every operation must be
counted as failed).  The study workload runs ``replicate --scale small``
here to keep this quick.  Exits 1 if any check misses its corruption.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import spans
from workloads import Capture, Ingest, Study, _cli


def _drop_last_line(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _truncate_pcap(ctx, result):
    data = ctx["pcap"].read_bytes()
    ctx["pcap"].write_bytes(data[:-7])


def _drop_first_record(ctx, result):
    data = ctx["pcap"].read_bytes()
    incl_len = int.from_bytes(data[32:36], "little")
    ctx["pcap"].write_bytes(data[:24] + data[24 + 16 + incl_len:])


def _drop_label_row(ctx, result):
    _drop_last_line(ctx["labels"])


def _drop_flow_row(ctx, result):
    _drop_last_line(ctx["flows_csv"])


def _bump_num_flows(ctx, result):
    lines = ctx["agg_csv"].read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    fields = lines[1].rstrip("\r\n").split(",")
    col = header.index("num_flows")
    fields[col] = str(int(fields[col]) + 1)
    lines[1] = ",".join(fields) + "\r\n"
    ctx["agg_csv"].write_text("".join(lines))


def _report_skips(ctx, result):
    result["stdout"] = result["stdout"].replace("(0 skipped)", "(4 skipped)")


def _edit_report(edit):
    def corrupt(ctx, result):
        path = ctx["out"] / "report.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))

    corrupt.__name__ = f"report{edit.__name__}"
    return corrupt


def _nan_recall(doc):
    doc["experiments"]["binary"]["with_aggregation"]["classes"]["benign"]["recall_mean"] = float("nan")


def _no_lift(doc):
    lift = doc["recall_lift"]["binary"]["slowloris"]
    lift["with"] = lift["without"]


def _exit_code(ctx, result):
    result["code"] = 1


def _untraced_work(ctx, result):
    """Work no layer span covers, as a new unwrapped layer would add."""
    time.sleep(1.0)


class LateRootTracer(spans.Tracer):
    """Opens the root span late, so it no longer covers the operation."""

    def begin(self):
        time.sleep(0.05)
        super().begin()


class SmallStudy(Study):
    def run(self, cli, ctx):
        code, _ = _cli(cli, [
            "replicate", "--seed", str(ctx["seed"]), "--out", str(ctx["out"]), "--scale", "small",
        ])
        return {"code": code}


def corrupted(workload, corrupt):
    """The workload with `corrupt` applied to each operation's outputs."""

    class Corrupted(type(workload)):
        def run(self, cli, ctx):
            result = super().run(cli, ctx)
            corrupt(ctx, result)
            return result

    return Corrupted()


class CaptureExpectingRead(Capture):
    expected_spans = Capture.expected_spans + ("cli.read_pcap",)


CASES = [
    (Capture(), False, None),
    (Capture(), False, _truncate_pcap),
    (Capture(), False, _drop_first_record),
    (Capture(), False, _drop_label_row),
    (CaptureExpectingRead(), True, None),
    (Capture(), True, _untraced_work),
    (Capture(), True, LateRootTracer),
    (Ingest(), False, None),
    (Ingest(), False, _drop_flow_row),
    (Ingest(), False, _bump_num_flows),
    (Ingest(), False, _report_skips),
    (SmallStudy(), False, None),
    (SmallStudy(), False, _edit_report(_nan_recall)),
    (SmallStudy(), False, _edit_report(_no_lift)),
    (SmallStudy(), False, _exit_code),
]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.SETUPS = 1
    missed = 0
    for workload, trace, corrupt in CASES:
        label = f"{type(workload).__name__} {corrupt.__name__ if corrupt else 'as is'}"
        if trace:
            label += " (traced)"
        if isinstance(corrupt, type):
            run.Tracer, subject = corrupt, workload
        else:
            run.Tracer, subject = spans.Tracer, corrupted(workload, corrupt) if corrupt else workload
        (run.HERE / "work").mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.HERE / "work"))
        try:
            measured = run.measure(subject, seed=3, seconds=0.0, trace=trace, workdir=workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        attempted, failed = run.tally(measured)
        if trace or corrupt:
            ok = failed == attempted
        else:
            ok = failed == 0
        missed += not ok
        print(f"{'ok  ' if ok else 'MISS'} {label}: {failed}/{attempted} operations failed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
