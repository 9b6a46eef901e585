"""The row-wise label manifest code the columnar ``synth.FlowLabels`` replaced,
kept as the reference for tests/test_synth.py.

``FlowLabel`` is copied verbatim from that code, and ``read_labels_csv``
too, except in three ways: it tokenizes the file with its own
``csv.reader``, it numbers each record by the line it starts on as
``csv.reader.line_num`` counts lines (the original numbered records by
index, wrong after a quoted line break), and a field that is not a number
is named by its column.  ``match_labels`` is copied too, except that it
spells the flows' uint32 addresses as dotted quads with
``socket.inet_ntoa`` (the original's flows held the strings), and
``write_labels_csv`` opens its file as UTF-8, the encoding
``read_labels_csv`` reads (the original used the locale's).
"""

from __future__ import annotations

import csv
import socket
from dataclasses import dataclass
from pathlib import Path

from flowbundle.flows import FlowSegments
from flowbundle.pcap import PROTOCOL_NAMES
from flowbundle.synth import _LABEL_COLUMNS, LabelError


@dataclass(frozen=True)
class FlowLabel:
    initiator_ip: str
    initiator_port: int
    responder_ip: str
    responder_port: int
    protocol: str
    start_time: float
    label: str

    @property
    def key(self) -> tuple:
        return _flow_key_of(self.initiator_ip, self.initiator_port, self.responder_ip,
                            self.responder_port, self.protocol, self.start_time)


def _flow_key_of(
    ip: str, port: int, rip: str, rport: int, proto: str, start: float
) -> tuple:
    return (ip, port, rip, rport, proto, round(start * 1_000_000))


def match_labels(flows: FlowSegments, manifest: list[FlowLabel]) -> list[str]:
    """Label each assembled flow from the manifest; unmatched flows raise."""
    lookup = {e.key: e.label for e in manifest}
    labels = []
    ips, rips = ([socket.inet_ntoa(a.to_bytes(4, "big")) for a in column.tolist()]
                 for column in (flows.initiator_ip, flows.responder_ip))
    for ip, port, rip, rport, proto, start in zip(
        ips, flows.initiator_port.tolist(),
        rips, flows.responder_port.tolist(),
        flows.protocol.tolist(), flows.start_time.tolist(),
    ):
        key = _flow_key_of(ip, port, rip, rport, PROTOCOL_NAMES[proto], start)
        label = lookup.get(key)
        if label is None:
            raise LabelError(
                f"assembled flow {key} has no manifest entry; "
                "scenario and capture are out of sync"
            )
        labels.append(label)
    return labels


def write_labels_csv(manifest: list[FlowLabel], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_LABEL_COLUMNS)
        writer.writerows(
            (e.initiator_ip, e.initiator_port, e.responder_ip, e.responder_port,
             e.protocol, f"{e.start_time:.6f}", e.label)
            for e in manifest
        )


def _records(path: str | Path) -> list[tuple[int, list[str]]]:
    """Each record of a UTF-8 CSV file and the line it starts on."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        records, line_no = [], 1
        try:
            for record in reader:
                records.append((line_no, record))
                line_no = reader.line_num + 1
        except csv.Error as exc:
            raise LabelError(f"{path}:{reader.line_num}: {exc}") from None
    return records


def read_labels_csv(path: str | Path) -> list[FlowLabel]:
    """A labels CSV's entries; a bad field, or two labels for one flow, raise
    LabelError naming the file and line."""
    records = _records(path)
    header = records[0][1] if records else None
    if header != _LABEL_COLUMNS:
        raise LabelError(f"{path}: unexpected label manifest header {header}")
    manifest, seen = [], {}  # flow key -> (its label, the line giving it)
    for line_no, record in records[1:]:
        if len(record) != len(_LABEL_COLUMNS):
            raise LabelError(
                f"{path}:{line_no}: expected {len(_LABEL_COLUMNS)} fields, got {len(record)}"
            )
        for i, convert in ((1, int), (3, int), (5, float)):
            try:
                convert(record[i])
            except ValueError:
                raise LabelError(
                    f"{path}:{line_no}: column {_LABEL_COLUMNS[i]}: {record[i]!r} is not a number"
                ) from None
        entry = FlowLabel(record[0], int(record[1]), record[2], int(record[3]),
                          record[4], float(record[5]), record[6])
        for i, ok, want in (
            (1, 0 <= entry.initiator_port < 65536, "a port from 0 to 65535"),
            (3, 0 <= entry.responder_port < 65536, "a port from 0 to 65535"),
            (5, 0 <= entry.start_time < 2**32, "a pcap time from 0 to 2**32 s"),
        ):
            if not ok:
                raise LabelError(
                    f"{path}:{line_no}: column {_LABEL_COLUMNS[i]}: {record[i]!r} is not {want}"
                )
        label, first = seen.setdefault(entry.key, (entry.label, line_no))
        if label != entry.label:
            raise LabelError(
                f"{path}:{line_no}: flow {entry.key} is labelled {entry.label!r} here "
                f"but {label!r} on line {first}"
            )
        manifest.append(entry)
    return manifest
