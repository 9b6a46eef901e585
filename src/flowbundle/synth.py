"""Deterministic synthetic traffic scenarios with ground-truth labels.

The benign-mimicking class draws its per-flow packet sizes and timing
from the same distributions as benign traffic, so individual flows are
indistinguishable by construction; only its many-flows-per-source and
small-step sequential source ports separate it at the bundle level.
"""

from __future__ import annotations

import json
import math
import socket
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .features import (CSV_COLUMNS, bulk_columns, columns_of, csv_records, line_of, parse_column,
                       raise_first_defect, record_at, utf8_text, write_csv)
from .flows import FlowSegments
from .pcap import PROTOCOL_NAMES, TCP, TCP_FLAG_BITS, UDP, PacketTable, dotted
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


def _address_of(spelling: str) -> int | None:
    """The address a canonical dotted quad spells, else None."""
    try:
        raw = socket.inet_aton(spelling)
    except (OSError, ValueError):
        return None
    return int.from_bytes(raw, "big") if socket.inet_ntoa(raw) == spelling else None


def _codes(spellings: np.ndarray, code_of) -> np.ndarray:
    """Each spelling's ``code_of``, or where that is None a code of its own, 2**32 up."""
    codes: dict[str, int] = {}
    for spelling in set(spellings.tolist()):
        code = code_of(spelling)
        codes[spelling] = 2**32 + len(codes) if code is None else code
    return np.fromiter(map(codes.__getitem__, spellings.tolist()), np.int64, len(spellings))


def _runs(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The rows of integer ``columns`` stably sorted by their values, and
    where in that order a run of equal rows starts."""
    order = np.lexsort(columns[::-1])
    new = np.arange(len(order)) == 0
    for column in columns:
        column = column[order]
        new[1:] |= column[1:] != column[:-1]
    return order, new


def _last_rows(keys: list[np.ndarray], queries: list[np.ndarray]) -> np.ndarray:
    """For each row of ``queries``, the last row of ``keys`` with the same
    values in every column, or -1; both are lists of integer columns."""
    n = len(keys[0])
    order, new = _runs([np.concatenate(pair) for pair in zip(keys, queries)])
    position = np.arange(len(order))  # a key's ``keys`` rows sort first, in order
    run_start = np.maximum.accumulate(np.where(new, position, 0))
    latest = np.maximum.accumulate(np.where(order < n, position, -1))  # last ``keys`` row
    rows = np.empty_like(order)
    rows[order] = np.where(latest >= run_start, order[latest], -1)
    return rows[n:]


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
    def keys(self) -> list[np.ndarray]:
        """The flow key as integer columns, built once: a canonical spelling
        codes as the address or protocol number a flow holds, and the start
        is in whole microseconds, rounded half to even as round() is."""
        protocol_numbers = {name: number for number, name in PROTOCOL_NAMES.items()}
        return [_codes(self.initiator_ip, _address_of), self.initiator_port,
                _codes(self.responder_ip, _address_of), self.responder_port,
                _codes(self.protocol, protocol_numbers.get),
                np.rint(self.start_time * 1_000_000).astype(np.int64)]


@dataclass
class GeneratedTraffic:
    packets: PacketTable
    manifest: FlowLabels


def _quantized(seconds) -> np.ndarray:
    """Seconds rounded to whole microseconds, half to even as round() is."""
    return np.rint(np.asarray(seconds) * 1_000_000) / 1_000_000


_SYN, _ACK, _FIN, _RST, _PSH = (
    TCP_FLAG_BITS[name] for name in ("SYN", "ACK", "FIN", "RST", "PSH")
)
_FORWARD = 0x100  # a step's initiator -> responder bit, above its TCP flag byte
# the steps of each part of a flow's shape, one per packet
_SCAN_STEPS = (_FORWARD | _SYN, _RST | _ACK)
_TCP_OPEN = (_FORWARD | _SYN, _SYN | _ACK, _FORWARD | _ACK)
_TCP_EXCHANGE = (_FORWARD | _PSH | _ACK, _ACK)
_TCP_CLOSE = (_FORWARD | _FIN | _ACK, _FIN | _ACK, _FORWARD | _ACK)
_UDP_EXCHANGE = (_FORWARD, 0)


def _add_flow(drawn: tuple[list, ...], rng: np.random.Generator, cls: TrafficClassSpec,
              src_ip: int, src_port: int, dst_ip: int, dst_port: int, start: float) -> None:
    """Draw one flow: append its label row and packet count, eight values,
    and each packet's step, raw time and raw length, the only per-packet
    work; in this order the draws fix the capture's bytes."""
    flows, steps, times, lengths = drawn
    if cls.flow_shape == "scan":
        shape = _SCAN_STEPS if cls.protocol == "TCP" else _UDP_EXCHANGE
    else:
        n = int(rng.integers(cls.data_exchanges[0], cls.data_exchanges[1] + 1))
        shape = (_TCP_OPEN + _TCP_EXCHANGE * n + _TCP_CLOSE if cls.protocol == "TCP"
                 else _UDP_EXCHANGE * (n + 1))
    # extended, not appended: a tuple kept per flow would set off the cyclic GC
    flows.extend((src_ip, src_port, dst_ip, dst_port, cls.protocol, start, cls.label, len(shape)))
    steps.extend(shape)
    t, mean, std = start, cls.pkt_len_mean, cls.pkt_len_std
    for i in range(len(shape)):
        if i:
            t += rng.exponential(cls.iat_mean)
        times.append(t)
        lengths.append(rng.normal(mean, std))


def _traffic(drawn: tuple[list, ...]) -> GeneratedTraffic:
    """The drawn packets as columns, stably sorted by timestamp, and the
    manifest with its addresses spelled."""
    flows, steps, times, lengths = drawn
    *manifest, counts = (flows[i::8] for i in range(8))
    ip, port, rip, rport, protocol, start, label = (
        np.array(c, dtype=d) for c, d in zip(manifest, _LABEL_DTYPES))
    step = np.array(steps)
    forward = step >= _FORWARD

    def ends(initiator, responder):  # each packet's sender's or receiver's end
        return np.where(forward, *(np.repeat(end, counts) for end in (initiator, responder)))

    packets = PacketTable.from_lists(
        _quantized(times), ends(ip, rip), ends(rip, ip), ends(port, rport), ends(rport, port),
        np.repeat(np.where(protocol == "TCP", TCP, UDP), counts),
        np.clip(np.rint(lengths), 60, 1500), step & 0xFF,
    )
    return GeneratedTraffic(
        packets.take(np.argsort(packets.timestamp, kind="stable")),
        FlowLabels(dotted(ip), port, dotted(rip), rport, protocol, start, label),
    )


def _source_ports(
    rng: np.random.Generator, cls: TrafficClassSpec, n_flows: int
) -> list[int]:
    if cls.port_pattern == "ephemeral":
        lo, hi = EPHEMERAL_RANGE
        return (lo + rng.choice(hi - lo, n_flows, replace=False)).tolist()
    if cls.port_pattern == "sequential":
        base = int(rng.integers(*_SEQUENTIAL_BASES))
        return [base + i * cls.port_step for i in range(n_flows)]
    return [cls.fixed_port] * n_flows


def generate(spec: ScenarioSpec) -> GeneratedTraffic:
    """Emit all scenario packets (timestamp-sorted) plus the label manifest."""
    rng = np.random.default_rng(spec.seed)
    servers = [0xC0A80A0A + i for i in range(spec.n_servers)]  # 192.168.10.(10 + i)
    drawn: tuple[list, ...] = ([], [], [], [])  # see _add_flow
    for class_index, cls in enumerate(spec.classes):
        for source_index in range(cls.n_sources):
            # 10.(20 + class).(source // 250).(source % 250 + 1)
            src_ip = (10 << 24 | (20 + class_index) << 16 | source_index // 250 << 8
                      | source_index % 250 + 1)
            n_flows = int(
                rng.integers(cls.flows_per_source[0], cls.flows_per_source[1] + 1)
            )
            sports = _source_ports(rng, cls, n_flows)
            starts = np.sort(rng.uniform(0.0, spec.duration, n_flows))
            starts = _quantized(_BASE_EPOCH + starts).tolist()
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
                _add_flow(drawn, rng, cls, src_ip, sports[flow_index], dst_ip, dst_port,
                          starts[flow_index])
    return _traffic(drawn)


def match_labels(flows: FlowSegments, manifest: FlowLabels) -> list[str]:
    """Label each assembled flow from the manifest, the last row's where a
    key repeats; unmatched flows raise."""
    keys = [flows.initiator_ip, flows.initiator_port, flows.responder_ip, flows.responder_port,
            flows.protocol, np.rint(flows.start_time * 1_000_000).astype(np.int64)]
    rows = _last_rows(manifest.keys, keys)
    missing = np.flatnonzero(rows < 0)
    if len(missing):
        ip, port, rip, rport, protocol, us = (int(column[missing[0]]) for column in keys)
        ip, rip = dotted(np.array([ip, rip], np.uint32)).tolist()
        raise LabelError(f"assembled flow {(ip, port, rip, rport, PROTOCOL_NAMES[protocol], us)}"
                         " has no manifest entry; scenario and capture are out of sync")
    return manifest.label[rows].tolist()


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
    hosts = {name: 0x0A000001 + i for i, name in enumerate("ABCD")}  # 10.0.0.(1 + i)
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
    sports = _source_ports(rng, cls, len(pattern))
    starts = _quantized(_BASE_EPOCH + 0.5 * np.arange(len(pattern))).tolist()
    drawn: tuple[list, ...] = ([], [], [], [])
    for (src, dst), sport, start in zip(pattern, sports, starts):
        _add_flow(drawn, rng, cls, hosts[src], sport, hosts[dst], 80, start)
    return _traffic(drawn)


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
# the generator's manifest columns, addresses as in the packet table
_LABEL_DTYPES = (np.uint32, np.int64, np.uint32, np.int64, object, float, object)
_BULK_DTYPES = [object, np.int64, object, np.int64, object, float, object]  # as read


def write_labels_csv(manifest: FlowLabels, path: str | Path) -> None:
    kinds = ("%s", "%d", "%s", "%d", "%s", "%.6f", "%s")
    write_csv(path, _LABEL_COLUMNS,
              [(kind, getattr(manifest, name)) for kind, name in zip(kinds, _LABEL_COLUMNS)])


def read_labels_csv(path: str | Path) -> FlowLabels:
    """A labels CSV's manifest, converted column by column; a bad field, or
    two labels for one flow, raise LabelError naming the file and line."""
    columns, checks = bulk_columns(utf8_text(path, LabelError), _LABEL_COLUMNS, _BULK_DTYPES), []
    if columns is None:  # not in write_csv's own dialect
        records = csv_records(path, LabelError)
        header, records = (records[0] if records else None), records[1:]
        if header != _LABEL_COLUMNS:
            raise LabelError(f"{path}: unexpected label manifest header {header}")
        columns, checks = columns_of(records, len(_LABEL_COLUMNS))
    numbers, ranges = {}, []
    for i, convert, top, want in ((1, int, 65536, "a port from 0 to 65535"),
                                  (3, int, 65536, "a port from 0 to 65535"),
                                  (5, float, 2**32, "a pcap time from 0 to 2**32 s")):
        values, syntax = parse_column(columns[i], convert)
        bad = ~((values >= 0) & (values < top))
        checks.append((syntax, i, "{!r} is not a number"))
        ranges.append((bad, i, "{!r} is not " + want))
        numbers[i] = np.where(bad, 0, values).astype(_LABEL_DTYPES[i])  # 0 if bad
    checks += ranges
    ip, rip, protocol, label = (np.array(columns[i], dtype=object) for i in (0, 2, 4, 6))
    manifest = FlowLabels(ip, numbers[1], rip, numbers[3], protocol, numbers[5], label)
    order, new = _runs(manifest.keys)
    repeats = np.flatnonzero(~new)  # in key order, a row with the key of the row before
    if np.any(label[order[repeats]] != label[order[repeats - 1]]):  # a flow with two labels
        first = np.empty_like(order)  # the first row of each row's key; the sort is stable
        first[order] = order[np.maximum.accumulate(np.where(new, np.arange(len(order)), 0))]
        conflict = label != label[first]
        row = int(conflict.argmax())
        key = (ip[row], int(numbers[1][row]), rip[row], int(numbers[3][row]), protocol[row],
               round(float(numbers[5][row]) * 1_000_000))
        checks.append((conflict, None, f"flow {key} is labelled {label[row]!r} here but "
                       f"{label[first[row]]!r} on line {record_at(path, first[row] + 1)[0]}"))
    raise_first_defect(path, LabelError, _LABEL_COLUMNS, checks)
    del columns  # before the records, so fields free in file order: faster
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
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{line_of(text[:exc.pos].encode())}: "
                         f"invalid scenario spec ({exc.msg})") from None
    except KeyError as exc:
        raise ValueError(f"{path}: invalid scenario spec (missing key {exc})") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: invalid scenario spec ({exc})") from None
