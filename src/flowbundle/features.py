"""Per-flow statistical features and the flow CSV schema.

Each direction contributes 17 statistics (34 total per flow); the two
bundle-level slots (num_flows, src_ports_delta) stay empty until the
aggregation step fills them.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .flows import BiFlow
from .pcap import PacketRecord

_add_reduce = np.add.reduce

_DIRECTION_STATS = (
    "pkt_count",
    "byte_count",
    "pkt_len_mean",
    "pkt_len_std",
    "pkt_len_min",
    "pkt_len_max",
    "iat_mean",
    "iat_std",
    "iat_min",
    "iat_max",
    "time_from_first_mean",
    "flag_syn_count",
    "flag_ack_count",
    "flag_fin_count",
    "flag_rst_count",
    "flag_psh_count",
    "flag_urg_count",
)

FLOW_FEATURE_NAMES: list[str] = [
    f"{direction}_{stat}" for direction in ("fwd", "bwd") for stat in _DIRECTION_STATS
]
AGGREGATION_FEATURE_NAMES: list[str] = ["num_flows", "src_ports_delta"]
ALL_FEATURE_NAMES: list[str] = FLOW_FEATURE_NAMES + AGGREGATION_FEATURE_NAMES

_META_COLUMNS = [
    "initiator_ip",
    "initiator_port",
    "responder_ip",
    "responder_port",
    "protocol",
    "start_time",
]
CSV_COLUMNS: list[str] = _META_COLUMNS + FLOW_FEATURE_NAMES + [
    "num_flows",
    "src_ports_delta",
    "label",
]

_INT_FEATURES = frozenset(
    name
    for name in FLOW_FEATURE_NAMES
    if "count" in name
)


class SchemaError(ValueError):
    """Raised when a flow CSV does not match the expected schema."""


@dataclass
class FlowFeatureVector:
    """One flow's identity, its 34 statistics and the aggregation slots."""

    initiator_ip: str
    initiator_port: int
    responder_ip: str
    responder_port: int
    protocol: str
    start_time: float
    values: dict[str, float] = field(default_factory=dict)
    num_flows: int | None = None
    src_ports_delta: float | None = None
    label: str = "benign"

    def feature(self, name: str) -> float:
        if name == "num_flows":
            if self.num_flows is None:
                raise SchemaError("num_flows not populated; run aggregation first")
            return float(self.num_flows)
        if name == "src_ports_delta":
            if self.src_ports_delta is None:
                raise SchemaError(
                    "src_ports_delta not populated; run aggregation first"
                )
            return float(self.src_ports_delta)
        return self.values[name]


def _direction_stats(packets: list[PacketRecord]) -> dict[str, float]:
    stats: dict[str, float] = dict.fromkeys(_DIRECTION_STATS, 0.0)
    n = len(packets)
    if not n:
        return stats
    # sums, means and population stds take the steps ndarray.sum/mean/std
    # take (a pairwise add.reduce, then a division by the count), so every
    # value is bit-identical to theirs
    sizes = [p.ip_total_length for p in packets]
    lengths = np.array(sizes, dtype=float)
    total = float(_add_reduce(lengths))
    mean = total / n
    dev = lengths - mean
    stats["pkt_count"] = float(n)
    stats["byte_count"] = total
    stats["pkt_len_mean"] = mean
    stats["pkt_len_std"] = math.sqrt(_add_reduce(dev * dev) / n)
    stats["pkt_len_min"] = float(min(sizes))
    stats["pkt_len_max"] = float(max(sizes))

    if n >= 2:
        times = np.array([p.timestamp for p in packets], dtype=float)
        iats = times[1:] - times[:-1]
        iat_mean = float(_add_reduce(iats)) / (n - 1)
        dev = iats - iat_mean
        stats["iat_mean"] = iat_mean
        stats["iat_std"] = math.sqrt(_add_reduce(dev * dev) / (n - 1))
        stats["iat_min"] = float(np.minimum.reduce(iats))
        stats["iat_max"] = float(np.maximum.reduce(iats))
        # offsets of every successive packet from the direction's first
        offsets = times[1:] - times[0]
        stats["time_from_first_mean"] = float(_add_reduce(offsets)) / (n - 1)

    flags = Counter(chain.from_iterable(p.tcp_flags for p in packets))
    for flag in ("syn", "ack", "fin", "rst", "psh", "urg"):
        stats[f"flag_{flag}_count"] = float(flags[flag.upper()])
    return stats


_FWD_NAMES = FLOW_FEATURE_NAMES[: len(_DIRECTION_STATS)]
_BWD_NAMES = FLOW_FEATURE_NAMES[len(_DIRECTION_STATS) :]


def extract_features(flow: BiFlow, label: str = "benign") -> FlowFeatureVector:
    """Compute the 34 per-flow statistics; aggregation slots stay empty."""
    values = dict(zip(_FWD_NAMES, _direction_stats(flow.fwd_packets).values()))
    values.update(zip(_BWD_NAMES, _direction_stats(flow.bwd_packets).values()))
    return FlowFeatureVector(
        initiator_ip=flow.initiator[0],
        initiator_port=flow.initiator[1],
        responder_ip=flow.responder[0],
        responder_port=flow.responder[1],
        protocol=flow.key.protocol.name,
        start_time=flow.start_time,
        values=values,
        label=label,
    )


def feature_matrix(
    rows: list[FlowFeatureVector], feature_names: list[str]
) -> np.ndarray:
    """Stack the named features into an (n_rows, n_features) float matrix."""
    out = np.empty((len(rows), len(feature_names)), dtype=float)
    for i, row in enumerate(rows):
        for j, name in enumerate(feature_names):
            out[i, j] = row.feature(name)
    return out


def label_classes(
    rows: list[FlowFeatureVector], class_names: list[str] | None = None
) -> tuple[np.ndarray, list[str]]:
    """Encode row labels as class indices against a stable class list."""
    if class_names is None:
        seen = sorted({row.label for row in rows})
        # benign first so class 0 is the background class by convention
        class_names = [c for c in ("benign",) if c in seen] + [
            c for c in seen if c != "benign"
        ]
    index = {name: i for i, name in enumerate(class_names)}
    try:
        y = np.array([index[row.label] for row in rows], dtype=int)
    except KeyError as exc:
        raise SchemaError(f"label {exc.args[0]!r} not in class list {class_names}")
    return y, class_names


# the 34 statistics in column order, each with whether it is a count
_STAT_FORMATS = [(name, name in _INT_FEATURES) for name in FLOW_FEATURE_NAMES]


def write_features_csv(rows: list[FlowFeatureVector], path: str | Path) -> None:
    """Write flows using the documented column order, floats at 6 d.p."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            record = [
                row.initiator_ip,
                str(row.initiator_port),
                row.responder_ip,
                str(row.responder_port),
                row.protocol,
                f"{row.start_time:.6f}",
            ]
            values = row.values
            record += [
                str(int(values[name])) if integer else f"{float(values[name]):.6f}"
                for name, integer in _STAT_FORMATS
            ]
            # the bundle slots stay empty until aggregation fills them
            record.append("" if row.num_flows is None else str(int(row.num_flows)))
            delta = row.src_ports_delta
            record.append("" if delta is None else f"{float(delta):.6f}")
            record.append(row.label)
            writer.writerow(record)


# start_time and the 34 statistics are consecutive columns
_STATS_START = CSV_COLUMNS.index("start_time")
_STATS_END = _STATS_START + 1 + len(FLOW_FEATURE_NAMES)
# every numeric column of a flow CSV row with its parser, in column order
_NUMERIC_COLUMNS = [
    (i, int if name in ("initiator_port", "responder_port", "num_flows") else float)
    for i, name in enumerate(CSV_COLUMNS)
    if name not in ("initiator_ip", "responder_ip", "protocol", "label")
]


def _check_fields(path: str | Path, line_no: int, record: list[str]) -> None:
    """Raise SchemaError naming the first field that is not a finite number."""
    for i, parse in _NUMERIC_COLUMNS:
        raw = record[i]
        if not raw and CSV_COLUMNS[i] in AGGREGATION_FEATURE_NAMES:
            continue  # bundle slots stay empty until aggregation
        try:
            value = parse(raw)
        except ValueError:
            raise SchemaError(
                f"{path}:{line_no}: column {CSV_COLUMNS[i]}: {raw!r} is not a number"
            ) from None
        if not math.isfinite(value):
            raise SchemaError(
                f"{path}:{line_no}: column {CSV_COLUMNS[i]}: non-finite value {raw!r}"
            )


def read_features_csv(path: str | Path) -> list[FlowFeatureVector]:
    """Load a flow CSV written by write_features_csv.

    Validates the header and that every numeric field is a finite number;
    a defect raises SchemaError naming the file, line and column.
    """
    rows: list[FlowFeatureVector] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected header row")
        if header != CSV_COLUMNS:
            raise SchemaError(
                f"{path}: header mismatch; expected {len(CSV_COLUMNS)} documented "
                f"columns starting {CSV_COLUMNS[:3]}, got {header[:3]}"
            )
        for line_no, record in enumerate(reader, start=2):
            if len(record) != len(CSV_COLUMNS):
                raise SchemaError(
                    f"{path}:{line_no}: expected {len(CSV_COLUMNS)} fields, "
                    f"got {len(record)}"
                )
            raw_num_flows, raw_delta = record[_STATS_END : _STATS_END + 2]
            try:
                numbers = [float(raw) for raw in record[_STATS_START:_STATS_END]]
                row = FlowFeatureVector(
                    initiator_ip=record[0],
                    initiator_port=int(record[1]),
                    responder_ip=record[2],
                    responder_port=int(record[3]),
                    protocol=record[4],
                    start_time=numbers[0],
                    values=dict(zip(FLOW_FEATURE_NAMES, numbers[1:])),
                    num_flows=int(raw_num_flows) if raw_num_flows else None,
                    src_ports_delta=float(raw_delta) if raw_delta else None,
                    label=record[-1],
                )
            except ValueError:
                _check_fields(path, line_no, record)
                raise
            # one sum is finite when every term is; only an overflowing sum
            # of finite values reaches _check_fields and passes it
            if not math.isfinite(sum(numbers, row.src_ports_delta or 0.0)):
                _check_fields(path, line_no, record)
            rows.append(row)
    return rows


def relabel(rows: list[FlowFeatureVector], label: str) -> list[FlowFeatureVector]:
    return [dataclasses.replace(row, label=label) for row in rows]
