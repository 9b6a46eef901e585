"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own code: each traced name is a
function as its caller looks it up (``cli.read_pcap`` is the name
``read_pcap`` in ``flowbundle.cli``), and the tracer replaces that
attribute with a timing wrapper for the duration of one operation.
Nothing inside ``flowbundle`` is edited.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter

PACKAGE = "flowbundle"

# Every wrapped lookup site, "<flowbundle module>.<attribute>".
SPAN_SITES = (
    "synth.generate",
    "synth.write_pcap",
    "synth.write_labels_csv",
    "synth.read_labels_csv",
    "synth.match_labels",
    "cli.read_pcap",
    "flows.assemble_flows",
    "features.extract_features",
    "features.write_features_csv",
    "features.read_features_csv",
    "features.feature_matrix",
    "aggregation.aggregate_features",
    "aggregation.bundle_flows",
    "evaluation.run_experiment",
    "evaluation.feature_matrix",
    "evaluation.rfe_select",
    "evaluation.kfold_evaluate",
    "evaluation.train",
    "rfe.train",
    "zeroday.fit_benign",
    "zeroday.train",
    "zeroday.detect",
    "mlp.loss_and_gradients",
)

# Which mlp.train call site a training fit came from.
TRAIN_CALLERS = {"rfe.train": "rfe", "evaluation.train": "kfold", "zeroday.train": "ae"}


def _count_facts(site, args, result, parent_name):
    """Counts a span contributes, taken from its arguments and result."""
    if site == "cli.read_pcap":
        return {"pcap.read_pkts": len(result.packets), "pcap.skipped": result.skipped}
    if site == "synth.write_pcap":
        return {"pcap.write_pkts": len(args[0]), "pcap.bytes": os.path.getsize(args[1])}
    if site == "synth.generate":
        return {"synth.pkts": len(result.packets)}
    if site == "flows.assemble_flows":
        return {"flows.pkts": len(args[0]), "flows.count": len(result)}
    if site == "aggregation.bundle_flows" and parent_name == "aggregation.aggregate_features":
        return {"aggregation.bundles": len(result)}
    return {}


class Tracer:
    """Records (name, start, end, parent) spans for one operation at a time."""

    def __init__(self):
        self._originals: dict[str, object] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, site: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append((site, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (site, start, end, parent)
            counts.update(_count_facts(site, args, result, spans[parent][0]))
            return result

        return traced

    def begin(self) -> None:
        """Start a fresh root span and install every wrapper."""
        self.spans.clear()
        self.counts.clear()
        self._stack[:] = [0]
        self.spans.append(("op", time.perf_counter(), 0.0, -1))
        for site in SPAN_SITES:
            module_name, attr = site.split(".")
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            self._originals[site] = getattr(module, attr)
            setattr(module, attr, self._wrap(site, self._originals[site]))

    def end(self) -> list[tuple[str, float, float, int]]:
        """Remove the wrappers, close the root span and return the spans."""
        end = time.perf_counter()
        for site, original in self._originals.items():
            module_name, attr = site.split(".")
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            setattr(module, attr, original)
        self._originals.clear()
        name, start, _, parent = self.spans[0]
        self.spans[0] = (name, start, end, parent)
        return list(self.spans)


def wrapper_cost_s() -> float:
    """Median extra time one traced call costs, measured in this process
    on a wrapped no-op against the bare no-op."""

    def noop():
        return None

    calls, repeats = 20_000, 5
    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        tracer.spans.append(("op", 0.0, 0.0, -1))
        tracer._stack.append(0)
        wrapped = tracer._wrap("calibration", noop)
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        costs.append((traced - bare) / calls)
    return sorted(costs)[repeats // 2]


def _durations(spans, names) -> float:
    """Wall time inside spans of `names`, counting nested ones once."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        covered = False
        while parent > 0:
            if spans[parent][0] in names:
                covered = True
                break
            parent = spans[parent][3]
        if not covered:
            total += end - start
    return total


def self_times(spans) -> dict[str, float]:
    """Per-name self time: duration minus time covered by child spans."""
    out: Counter = Counter()
    for name, start, end, _ in spans[1:]:
        out[name] += end - start
    for name, start, end, parent in spans[1:]:
        out[spans[parent][0]] -= end - start
    return dict(out)


def _per(total_s: float, n: int) -> float:
    """Microseconds per item; 0 when the layer handled none."""
    return 1e6 * total_s / n if n else 0.0


def layer_metrics(spans, counts, wall_s: float, call_cost_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation, keyed by metric name.

    `wall_s` is the operation's wall time as its caller measured it, not
    the root span; `call_cost_s` is what one wrapped call costs."""
    calls = Counter(name for name, *_ in spans[1:])

    def t(*names):
        return _durations(spans, set(names))

    step_calls = Counter()
    step_s = Counter()
    for name, start, end, parent in spans[1:]:
        if name != "mlp.loss_and_gradients":
            continue
        caller = spans[parent][0]
        step_calls[TRAIN_CALLERS.get(caller, "other")] += 1
        step_s[TRAIN_CALLERS.get(caller, "other")] += end - start

    top_level_s = sum(end - start for _, start, end, parent in spans[1:] if parent == 0)
    m = {
        "pcap.read_s": t("cli.read_pcap"),
        "pcap.read_us_per_pkt": _per(t("cli.read_pcap"), counts["pcap.read_pkts"]),
        "pcap.skipped": counts["pcap.skipped"],
        "pcap.write_s": t("synth.write_pcap"),
        "pcap.write_us_per_pkt": _per(t("synth.write_pcap"), counts["pcap.write_pkts"]),
        "pcap.bytes": counts["pcap.bytes"],
        "synth.generate_s": t("synth.generate"),
        "synth.generate_us_per_pkt": _per(t("synth.generate"), counts["synth.pkts"]),
        "synth.labels_s": t(
            "synth.write_labels_csv", "synth.read_labels_csv", "synth.match_labels"
        ),
        "flows.assemble_s": t("flows.assemble_flows"),
        "flows.assemble_us_per_pkt": _per(t("flows.assemble_flows"), counts["flows.pkts"]),
        "flows.count": counts["flows.count"],
        "features.extract_s": t("features.extract_features"),
        "features.extract_us_per_flow": _per(
            t("features.extract_features"), calls["features.extract_features"]
        ),
        "features.csv_write_s": t("features.write_features_csv"),
        "features.csv_read_s": t("features.read_features_csv"),
        "features.matrix_s": t("features.feature_matrix", "evaluation.feature_matrix"),
        "aggregation.bundle_s": t(
            "aggregation.aggregate_features", "aggregation.bundle_flows"
        ),
        "aggregation.bundles": counts["aggregation.bundles"],
        "mlp.step_calls": calls["mlp.loss_and_gradients"],
        "mlp.step_s": t("mlp.loss_and_gradients"),
        "mlp.step_us": _per(t("mlp.loss_and_gradients"), calls["mlp.loss_and_gradients"]),
        "mlp.train_calls": sum(calls[site] for site in TRAIN_CALLERS),
        "mlp.train_s": t(*TRAIN_CALLERS),
        "rfe.select_s": t("evaluation.rfe_select"),
        "rfe.rounds": calls["rfe.train"],
        "evaluation.experiment_s": t("evaluation.run_experiment"),
        "evaluation.kfold_s": t("evaluation.kfold_evaluate"),
        "evaluation.folds": calls["evaluation.train"],
        "zeroday.fit_s": t("zeroday.fit_benign"),
        "zeroday.detect_s": t("zeroday.detect"),
        "cli.self_s": wall_s - top_level_s,
        "trace.overhead_s": (len(spans) - 1) * call_cost_s,
    }
    for site, caller in TRAIN_CALLERS.items():
        m[f"mlp.step_calls.{caller}"] = step_calls[caller]
        m[f"mlp.step_s.{caller}"] = step_s[caller]
        m[f"mlp.train_calls.{caller}"] = calls[site]
        m[f"mlp.train_s.{caller}"] = t(site)
    return m
