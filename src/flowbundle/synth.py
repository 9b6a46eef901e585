"""Deterministic synthetic traffic scenarios with ground-truth labels.

The benign-mimicking class draws its per-flow packet sizes and timing
from the same distributions as benign traffic, so individual flows are
indistinguishable by construction; only its many-flows-per-source and
small-step sequential source ports separate it at the bundle level.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .features import CSV_COLUMNS, csv_records, utf8_text, write_csv
from .flows import FlowSegments
from .pcap import PROTOCOL_NAMES, TCP, TCP_FLAG_BITS, UDP, Packet, PacketTable
from .pcap import write_pcap  # noqa: F401  (re-export)

EPHEMERAL_RANGE = (32768, 61000)
_SEQUENTIAL_BASES = (20000, 40000)  # first port of a sequential source, drawn
_BASE_EPOCH = 1_600_000_000.0  # scenario clock origin, an arbitrary 2020 instant
# seconds from the origin to the end of the pcap's 32-bit seconds field
_MAX_SECONDS = 2**32 - _BASE_EPOCH


def _whole(value, lo: int, hi: float = math.inf) -> bool:
    return isinstance(value, int) and lo <= value <= hi


def _whole_range(pair, lo: int) -> bool:
    return (
        isinstance(pair, tuple) and len(pair) == 2
        and _whole(pair[0], lo) and _whole(pair[1], pair[0])
    )


def _finite(value, lo: float, hi: float = math.inf) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and lo <= value <= hi


def _check(ok: bool, key: str, value, what: str) -> None:
    if not ok:
        raise ValueError(f"{key} must be {what}, got {value!r}")


class LabelError(ValueError):
    """A flow could not be matched to the scenario's label manifest."""


@dataclass
class TrafficClassSpec:
    """Behaviour of one traffic class inside a scenario."""

    label: str
    n_sources: int
    flows_per_source: tuple[int, int]  # inclusive uniform range
    data_exchanges: tuple[int, int] = (1, 5)  # request/response pairs per flow
    pkt_len_mean: float = 520.0
    pkt_len_std: float = 160.0
    iat_mean: float = 0.4
    port_pattern: str = "ephemeral"  # ephemeral | sequential | fixed
    port_step: int = 1
    fixed_port: int = 55555
    flow_shape: str = "exchange"  # exchange | scan
    protocol: str = "TCP"
    single_target: bool = False  # pin every flow of a source to one server
    scan_port_base: int = 1024

    def __post_init__(self) -> None:
        for key in ("flows_per_source", "data_exchanges"):  # JSON gives lists
            if isinstance(getattr(self, key), list):
                setattr(self, key, tuple(getattr(self, key)))
        flows = self.flows_per_source
        most = flows[1] if _whole_range(flows, 1) else 1
        lo, hi = EPHEMERAL_RANGE
        base = _SEQUENTIAL_BASES[1] - 1
        for key, ok, what in (
            ("n_sources", _whole(self.n_sources, 1, 64_000), "1 to 64000 source hosts"),
            ("flows_per_source", _whole_range(flows, 1), "[low, high], 1 <= low <= high"),
            ("data_exchanges", _whole_range(self.data_exchanges, 0),
             "[low, high], 0 <= low <= high"),
            ("pkt_len_mean", _finite(self.pkt_len_mean, -math.inf), "a finite number"),
            ("pkt_len_std", _finite(self.pkt_len_std, 0), "a finite number >= 0"),
            ("iat_mean", _finite(self.iat_mean, 0, _MAX_SECONDS),
             f"in [0, {_MAX_SECONDS:.0f}] s"),
            ("port_pattern", self.port_pattern in ("ephemeral", "sequential", "fixed"),
             "a port pattern: ephemeral, sequential or fixed"),
            ("flows_per_source", self.port_pattern != "ephemeral" or most <= hi - lo,
             f"at most {hi - lo} for distinct ephemeral ports"),
            ("port_step", self.port_pattern != "sequential"
             or _whole(self.port_step, 1, (65535 - base) // max(most - 1, 1)),
             f"an integer >= 1 keeping {most} ports from {base} below 65536"),
            ("fixed_port", _whole(self.fixed_port, 0, 65535), "a port in [0, 65535]"),
            ("flow_shape", self.flow_shape in ("exchange", "scan"), "exchange or scan"),
            ("scan_port_base", _whole(self.scan_port_base, 0, 65536 - most),
             f"a port keeping {most} scanned ports below 65536"),
            ("protocol", self.protocol in ("TCP", "UDP"), "TCP or UDP"),
        ):
            _check(ok, f"class {self.label!r}: {key}", getattr(self, key), what)


@dataclass
class ScenarioSpec:
    seed: int
    duration: float
    classes: list[TrafficClassSpec]
    n_servers: int = 4

    def __post_init__(self) -> None:
        _check(_whole(self.seed, 0), "seed", self.seed, "an integer >= 0")
        _check(
            _finite(self.duration, 0, _MAX_SECONDS - 1) and self.duration > 0,
            "duration", self.duration,
            f"positive and at most {_MAX_SECONDS - 1:.0f} s, within the pcap's "
            "32-bit seconds field",
        )
        _check(_whole(self.n_servers, 1, 246), "n_servers", self.n_servers, "1 to 246")
        count = len(self.classes)
        _check(0 < count <= 236, "classes", count, "1 to 236 traffic classes")


def _flow_keys(rows, protocols: list[str]) -> list[tuple]:
    """Each row's flow key: its 5-tuple, the protocol named by ``protocols``,
    and its start in whole microseconds, rounded half to even as round() is."""
    us = np.rint(rows.start_time * 1_000_000).astype(np.int64)
    return list(zip(rows.initiator_ip.tolist(), rows.initiator_port.tolist(),
                    rows.responder_ip.tolist(), rows.responder_port.tolist(), protocols,
                    us.tolist()))


@dataclass(frozen=True, eq=False)
class FlowLabels:
    """The ground-truth label manifest as columns, one row per flow.

    The addresses, protocol names and labels are object arrays, the ports
    int64 and ``start_time`` float64 seconds.
    """

    initiator_ip: np.ndarray
    initiator_port: np.ndarray
    responder_ip: np.ndarray
    responder_port: np.ndarray
    protocol: np.ndarray
    start_time: np.ndarray
    label: np.ndarray

    def __len__(self) -> int:
        return len(self.label)

    def take(self, rows) -> FlowLabels:
        """The rows an index array, slice or boolean mask selects, in that order."""
        return FlowLabels(*(getattr(self, name)[rows] for name in _LABEL_COLUMNS))

    @cached_property
    def lookup(self) -> dict[tuple, str]:
        """Flow key -> label, the last row's where a key repeats; built once."""
        return dict(zip(_flow_keys(self, self.protocol.tolist()), self.label.tolist()))


@dataclass
class GeneratedTraffic:
    packets: PacketTable
    manifest: FlowLabels


def _quantize(t: float) -> float:
    return round(t * 1_000_000) / 1_000_000


def _draw_length(rng: np.random.Generator, cls: TrafficClassSpec) -> int:
    return min(max(round(rng.normal(cls.pkt_len_mean, cls.pkt_len_std)), 60), 1500)


_SYN, _ACK, _FIN, _RST, _PSH = (
    TCP_FLAG_BITS[name] for name in ("SYN", "ACK", "FIN", "RST", "PSH")
)
# (initiator -> responder?, TCP flag byte) of each packet of a flow's shape
_SCAN_STEPS = ((True, _SYN), (False, _RST | _ACK))
_TCP_OPEN = ((True, _SYN), (False, _SYN | _ACK), (True, _ACK))
_TCP_EXCHANGE = ((True, _PSH | _ACK), (False, _ACK))
_TCP_CLOSE = ((True, _FIN | _ACK), (False, _FIN | _ACK), (True, _ACK))
_UDP_EXCHANGE = ((True, 0), (False, 0))


def _add_flow(
    columns: tuple[list, ...],
    manifest: tuple[list, ...],
    rng: np.random.Generator,
    cls: TrafficClassSpec,
    src_ip: str,
    src_port: int,
    dst_ip: str,
    dst_port: int,
    start: float,
) -> None:
    """Append one flow's packets to the Packet-order columns, its label row
    to the manifest's."""
    protocol = TCP if cls.protocol == "TCP" else UDP
    if cls.flow_shape == "scan":
        steps = _SCAN_STEPS if protocol == TCP else _UDP_EXCHANGE
    else:
        n = int(rng.integers(cls.data_exchanges[0], cls.data_exchanges[1] + 1))
        if protocol == TCP:
            steps = _TCP_OPEN + _TCP_EXCHANGE * n + _TCP_CLOSE
        else:
            steps = _UDP_EXCHANGE * (n + 1)
    forwards, flag_bytes = zip(*steps)
    times, lengths = [], []
    t = start
    for i in range(len(steps)):
        if i > 0:
            t += rng.exponential(cls.iat_mean)
        times.append(_quantize(t))
        lengths.append(_draw_length(rng, cls))
    forward_ends = (src_ip, dst_ip, src_port, dst_port)
    backward_ends = (dst_ip, src_ip, dst_port, src_port)
    ends = zip(*(forward_ends if forward else backward_ends for forward in forwards))
    packets = (times, *ends, [protocol] * len(steps), lengths, flag_bytes)
    for column, values in zip(columns, packets):
        column.extend(values)
    entry = (src_ip, src_port, dst_ip, dst_port, cls.protocol, start, cls.label)
    for column, value in zip(manifest, entry):
        column.append(value)


def _traffic(columns: tuple[list, ...], manifest: tuple[list, ...]) -> GeneratedTraffic:
    """The generated packets, stably sorted by timestamp, and the manifest."""
    packets = PacketTable.from_lists(*columns)
    return GeneratedTraffic(
        packets.take(np.argsort(packets.timestamp, kind="stable")),
        FlowLabels(*(np.array(c, dtype=d) for c, d in zip(manifest, _LABEL_DTYPES))),
    )


def _source_ports(
    rng: np.random.Generator, cls: TrafficClassSpec, n_flows: int
) -> list[int]:
    if cls.port_pattern == "ephemeral":
        lo, hi = EPHEMERAL_RANGE
        return [int(p) for p in rng.choice(np.arange(lo, hi), n_flows, replace=False)]
    if cls.port_pattern == "sequential":
        base = int(rng.integers(*_SEQUENTIAL_BASES))
        return [base + i * cls.port_step for i in range(n_flows)]
    return [cls.fixed_port] * n_flows


def generate(spec: ScenarioSpec) -> GeneratedTraffic:
    """Emit all scenario packets (timestamp-sorted) plus the label manifest."""
    rng = np.random.default_rng(spec.seed)
    servers = [f"192.168.10.{10 + i}" for i in range(spec.n_servers)]
    columns: tuple[list, ...] = tuple([] for _ in Packet._fields)
    manifest: tuple[list, ...] = tuple([] for _ in _LABEL_COLUMNS)

    for class_index, cls in enumerate(spec.classes):
        for source_index in range(cls.n_sources):
            src_ip = (
                f"10.{20 + class_index}.{source_index // 250}."
                f"{source_index % 250 + 1}"
            )
            n_flows = int(
                rng.integers(cls.flows_per_source[0], cls.flows_per_source[1] + 1)
            )
            sports = _source_ports(rng, cls, n_flows)
            starts = np.sort(rng.uniform(0.0, spec.duration, n_flows))
            pinned = servers[int(rng.integers(0, len(servers)))]
            for flow_index in range(n_flows):
                if cls.flow_shape == "scan":
                    dst_ip = pinned
                    dst_port = cls.scan_port_base + flow_index
                else:
                    dst_ip = (
                        pinned
                        if cls.single_target
                        else servers[int(rng.integers(0, len(servers)))]
                    )
                    dst_port = 80
                start = _quantize(_BASE_EPOCH + float(starts[flow_index]))
                _add_flow(
                    columns, manifest, rng, cls, src_ip, sports[flow_index], dst_ip,
                    dst_port, start,
                )
    return _traffic(columns, manifest)


def match_labels(flows: FlowSegments, manifest: FlowLabels) -> list[str]:
    """Label each assembled flow from the manifest; unmatched flows raise."""
    keys = _flow_keys(flows, [PROTOCOL_NAMES[p] for p in flows.protocol.tolist()])
    labels = list(map(manifest.lookup.get, keys))
    if None in labels:
        raise LabelError(
            f"assembled flow {keys[labels.index(None)]} has no manifest entry; "
            "scenario and capture are out of sync"
        )
    return labels


# ---------------------------------------------------------------------------
# scenario presets

_SCALES = {"desk": 1.0, "small": 0.15}


def _scaled_sources(n: int, scale: str) -> int:
    return max(1, round(n * _SCALES[scale]))


def mimicking_scenario(seed: int, scale: str = "desk") -> ScenarioSpec:
    """Benign plus a slow-DoS-like class that mimics benign flow statistics.

    Desk scale targets roughly 2,000 benign and 550 attack flows.
    """
    shared = dict(pkt_len_mean=520.0, pkt_len_std=160.0, iat_mean=0.4)
    return ScenarioSpec(
        seed=seed,
        duration=600.0,
        classes=[
            TrafficClassSpec(
                label="benign",
                n_sources=_scaled_sources(125, scale),
                flows_per_source=(8, 24),
                data_exchanges=(1, 5),
                **shared,
            ),
            TrafficClassSpec(
                label="slowloris",
                n_sources=_scaled_sources(10, scale),
                flows_per_source=(48, 64),
                data_exchanges=(1, 5),
                port_pattern="sequential",
                port_step=3,
                single_target=True,
                **shared,
            ),
        ],
    )


def full_scenario(seed: int, scale: str = "desk") -> ScenarioSpec:
    """Benign plus four attack classes for the multi-class experiments.

    Portscan and the flood are flow-distinguishable; the two slow-DoS
    classes reuse the benign distributions and differ only in bundling.
    """
    benign_like = dict(pkt_len_mean=520.0, pkt_len_std=160.0, iat_mean=0.4)
    return ScenarioSpec(
        seed=seed,
        duration=600.0,
        classes=[
            TrafficClassSpec(
                label="benign",
                n_sources=_scaled_sources(40, scale),
                flows_per_source=(10, 20),
                data_exchanges=(1, 5),
                **benign_like,
            ),
            TrafficClassSpec(
                label="portscan",
                n_sources=_scaled_sources(2, scale),
                flows_per_source=(100, 120),
                flow_shape="scan",
                pkt_len_mean=60.0,
                pkt_len_std=4.0,
                iat_mean=0.05,
                port_pattern="sequential",
                port_step=1,
                single_target=True,
            ),
            TrafficClassSpec(
                label="hulk",
                n_sources=_scaled_sources(4, scale),
                flows_per_source=(45, 60),
                data_exchanges=(8, 16),
                pkt_len_mean=900.0,
                pkt_len_std=120.0,
                iat_mean=0.02,
                port_pattern="ephemeral",
                single_target=True,
            ),
            TrafficClassSpec(
                label="slowloris",
                n_sources=_scaled_sources(5, scale),
                flows_per_source=(30, 40),
                data_exchanges=(1, 5),
                port_pattern="sequential",
                port_step=2,
                single_target=True,
                **benign_like,
            ),
            TrafficClassSpec(
                label="slowhttptest",
                n_sources=_scaled_sources(5, scale),
                flows_per_source=(28, 36),
                data_exchanges=(1, 5),
                port_pattern="sequential",
                port_step=4,
                single_target=True,
                **benign_like,
            ),
        ],
    )


def fig2_traffic(seed: int = 0) -> GeneratedTraffic:
    """Replay of the four-host bundling timeline: A starts 4 flows, B 2, D 1, C 1."""
    rng = np.random.default_rng(seed)
    hosts = {name: f"10.0.0.{i + 1}" for i, name in enumerate("ABCD")}
    pattern = [
        ("A", "B"),
        ("A", "B"),
        ("A", "C"),
        ("A", "D"),
        ("B", "C"),
        ("B", "C"),
        ("D", "B"),
        ("C", "A"),
    ]
    cls = TrafficClassSpec(
        label="benign",
        n_sources=1,
        flows_per_source=(1, 1),
        data_exchanges=(1, 1),
        iat_mean=0.2,
    )
    lo, hi = EPHEMERAL_RANGE
    sports = [int(p) for p in rng.choice(np.arange(lo, hi), len(pattern), False)]
    columns: tuple[list, ...] = tuple([] for _ in Packet._fields)
    manifest: tuple[list, ...] = tuple([] for _ in _LABEL_COLUMNS)
    for i, (src, dst) in enumerate(pattern):
        start = _quantize(_BASE_EPOCH + 0.5 * i)
        _add_flow(columns, manifest, rng, cls, hosts[src], sports[i], hosts[dst], 80,
                  start)
    return _traffic(columns, manifest)


SCENARIOS = ("mimicking", "full", "fig2")


def build_scenario(name: str, seed: int, scale: str = "desk") -> GeneratedTraffic:
    if scale not in _SCALES:
        raise ValueError(f"scale must be one of {sorted(_SCALES)}")
    if name == "mimicking":
        return generate(mimicking_scenario(seed, scale))
    if name == "full":
        return generate(full_scenario(seed, scale))
    if name == "fig2":
        return fig2_traffic(seed)
    raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")


# ---------------------------------------------------------------------------
# manifest and spec files

_LABEL_COLUMNS = CSV_COLUMNS[:6] + ["label"]  # a flow CSV's identity columns, its label
_LABEL_DTYPES = (object, np.int64, object, np.int64, object, float, object)


def write_labels_csv(manifest: FlowLabels, path: str | Path) -> None:
    kinds = ("%s", "%d", "%s", "%d", "%s", "%.6f", "%s")
    write_csv(path, _LABEL_COLUMNS,
              [(kind, getattr(manifest, name)) for kind, name in zip(kinds, _LABEL_COLUMNS)])


def _check_label_rows(path: str | Path, records: list[list[str]]) -> None:
    """Raise LabelError naming the first defective row, row by row."""
    seen = {}  # flow key -> (its label, the line giving it)
    for line_no, record in enumerate(records, start=2):
        if len(record) != len(_LABEL_COLUMNS):
            raise LabelError(
                f"{path}:{line_no}: expected {len(_LABEL_COLUMNS)} fields, got {len(record)}"
            )
        ip, port, rip, rport, protocol, start, label = record
        try:
            port, rport, start = int(port), int(rport), float(start)
        except ValueError as exc:
            raise LabelError(f"{path}:{line_no}: {exc}") from None
        for i, ok, want in (
            (1, 0 <= port < 65536, "a port from 0 to 65535"),
            (3, 0 <= rport < 65536, "a port from 0 to 65535"),
            (5, 0 <= start < 2**32, "a pcap time from 0 to 2**32 s"),
        ):
            if not ok:
                raise LabelError(
                    f"{path}:{line_no}: column {_LABEL_COLUMNS[i]}: {record[i]!r} is not {want}"
                )
        key = (ip, port, rip, rport, protocol, round(start * 1_000_000))
        first_label, first = seen.setdefault(key, (label, line_no))
        if first_label != label:
            raise LabelError(
                f"{path}:{line_no}: flow {key} is labelled {label!r} here "
                f"but {first_label!r} on line {first}"
            )


def _parse_labels(records: list[list[str]]) -> FlowLabels | None:
    """The manifest of the records, converted column by column, or None when
    a row is not seven fields, a field is out of range or a flow has two
    labels; a field that does not parse raises ValueError or OverflowError."""
    if not set(map(len, records)) <= {len(_LABEL_COLUMNS)}:
        return None
    ip, port, rip, rport, protocol, start, label = list(zip(*records)) or [()] * 7
    port, rport = (np.fromiter(map(int, c), np.int64, len(label)) for c in (port, rport))
    start = np.fromiter(map(float, start), float, len(label))
    ip, rip, protocol, label = (np.array(c, dtype=object) for c in (ip, rip, protocol, label))
    manifest = FlowLabels(ip, port, rip, rport, protocol, start, label)
    ranges = ((port, 65536), (rport, 65536), (start, 2**32))
    if not np.all([(column >= 0) & (column < top) for column, top in ranges]):
        return None
    lookup = manifest.lookup
    if len(lookup) < len(manifest):  # a flow repeats: each of its rows needs its last label
        if list(map(lookup.get, _flow_keys(manifest, protocol.tolist()))) != label.tolist():
            return None
    return manifest


def read_labels_csv(path: str | Path) -> FlowLabels:
    """A labels CSV's manifest, converted column by column; a bad field, or
    two labels for one flow, raise LabelError naming the file and line."""
    records = csv_records(path, LabelError)
    header, records = (records[0] if records else None), records[1:]
    if header != _LABEL_COLUMNS:
        raise LabelError(f"{path}: unexpected label manifest header {header}")
    try:
        manifest = _parse_labels(records)
    except (ValueError, OverflowError):
        manifest = None
    if manifest is None:
        _check_label_rows(path, records)
        raise AssertionError(f"{path}: a defect the row check does not name")
    return manifest


def load_scenario_spec(path: str | Path) -> ScenarioSpec:
    """Read a custom ScenarioSpec from a JSON file.

    Invalid JSON, a missing key and a value out of range are a ValueError
    naming the file and the key.
    """
    text = utf8_text(path, ValueError)
    try:
        doc = json.loads(text)
        classes = [TrafficClassSpec(**entry) for entry in doc["classes"]]
        return ScenarioSpec(
            seed=doc["seed"],
            duration=float(doc["duration"]),
            n_servers=doc.get("n_servers", 4),
            classes=classes,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: invalid scenario spec (missing key {exc})") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: invalid scenario spec ({exc})") from None
