"""The per-packet and per-flow objects of the object-based ingest and
capture paths, kept for the reference implementations in
test_ingest_reference.py and test_pcap_reference.py.

PacketRecord, Protocol, FlowKey and BiFlow are copied verbatim from the
code the packet table replaced.  The converters map a PacketTable to and
from records and FlowSegments to BiFlows, so the references' outputs and
the table code's outputs compare with ``==``; they spell the table's
uint32 addresses as the records' dotted strings with ``socket``.
"""

from __future__ import annotations

import enum
import socket
from dataclasses import dataclass, field

from flowbundle.flows import FlowSegments
from flowbundle.pcap import Packet, PacketTable

from conftest import address, direction_rows, dotted_quad, packet_table

# ---------------------------------------------------------------------------
# verbatim copies

TCP_FLAG_NAMES = ("SYN", "ACK", "FIN", "RST", "PSH", "URG")
_FLAG_NAME_SET = frozenset(TCP_FLAG_NAMES)

_TCP_FLAG_BITS = {
    "FIN": 0x01,
    "SYN": 0x02,
    "RST": 0x04,
    "PSH": 0x08,
    "ACK": 0x10,
    "URG": 0x20,
}


class Protocol(enum.Enum):
    """Transport protocols carried through the pipeline."""

    TCP = 6
    UDP = 17


@dataclass(frozen=True)
class PacketRecord:
    """One parsed packet: capture timestamp, 5-tuple, size and TCP flags."""

    timestamp: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: Protocol
    ip_total_length: int
    tcp_flags: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp {self.timestamp}")
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 65535:
                raise ValueError(f"port {port} out of range")
        if not _FLAG_NAME_SET.issuperset(self.tcp_flags):
            unknown = set(self.tcp_flags) - _FLAG_NAME_SET
            raise ValueError(f"unknown TCP flags {sorted(unknown)}")
        # the flag set is empty exactly when the packet is UDP
        if self.protocol is Protocol.UDP and self.tcp_flags:
            raise ValueError("UDP packet cannot carry TCP flags")
        if self.protocol is Protocol.TCP and not self.tcp_flags:
            raise ValueError("TCP packet must carry at least one flag")
        min_len = 20 + (20 if self.protocol is Protocol.TCP else 8)
        if self.ip_total_length < min_len:
            raise ValueError(
                f"ip_total_length {self.ip_total_length} below {min_len} "
                f"minimum for {self.protocol.name}"
            )


def _endpoint_sort_key(endpoint: tuple[str, int]) -> tuple[bytes, int]:
    ip, port = endpoint
    return socket.inet_aton(ip), port


@dataclass(frozen=True)
class FlowKey:
    """Direction-agnostic flow identity; endpoint_a <= endpoint_b."""

    endpoint_a: tuple[str, int]
    endpoint_b: tuple[str, int]
    protocol: Protocol

    @classmethod
    def from_packet(cls, packet: PacketRecord) -> "FlowKey":
        src = (packet.src_ip, packet.src_port)
        dst = (packet.dst_ip, packet.dst_port)
        a, b = sorted((src, dst), key=_endpoint_sort_key)
        return cls(endpoint_a=a, endpoint_b=b, protocol=packet.protocol)


@dataclass
class BiFlow:
    """All packets of one conversation, split by direction.

    The initiator is the source of the first packet; fwd_packets travel
    initiator -> responder, bwd_packets the other way.
    """

    key: FlowKey
    initiator: tuple[str, int]
    responder: tuple[str, int]
    fwd_packets: list[PacketRecord] = field(default_factory=list)
    bwd_packets: list[PacketRecord] = field(default_factory=list)
    start_time: float = 0.0
    end_time: float = 0.0


def tcp_packet(
    ts,
    src="10.0.0.1",
    dst="10.0.0.2",
    sport=40000,
    dport=80,
    length=60,
    flags=("ACK",),
):
    return PacketRecord(
        timestamp=ts,
        src_ip=src,
        dst_ip=dst,
        src_port=sport,
        dst_port=dport,
        protocol=Protocol.TCP,
        ip_total_length=length,
        tcp_flags=frozenset(flags),
    )


def udp_packet(ts, src="10.0.0.1", dst="10.0.0.2", sport=40000, dport=53, length=64):
    return PacketRecord(
        timestamp=ts,
        src_ip=src,
        dst_ip=dst,
        src_port=sport,
        dst_port=dport,
        protocol=Protocol.UDP,
        ip_total_length=length,
    )


# ---------------------------------------------------------------------------
# converters


def table_of(records: list[PacketRecord]) -> PacketTable:
    """The packet table of records, in the same order."""
    return packet_table([
        Packet(r.timestamp, address(r.src_ip), address(r.dst_ip), r.src_port, r.dst_port,
               r.protocol.value, r.ip_total_length,
               sum(_TCP_FLAG_BITS[name] for name in r.tcp_flags))
        for r in records
    ])


def records_of(packets: PacketTable) -> list[PacketRecord]:
    """One validated record per table row, in the same order."""
    return [
        PacketRecord(
            p.timestamp, dotted_quad(p.src_ip), dotted_quad(p.dst_ip), p.src_port, p.dst_port,
            Protocol(p.protocol), p.ip_total_length,
            frozenset(name for name, bit in _TCP_FLAG_BITS.items() if p.tcp_flags & bit),
        )
        for p in packets
    ]


def biflows_of(flows: FlowSegments) -> list[BiFlow]:
    """One BiFlow per flow segment, in flow order."""
    out = []
    for index in range(len(flows)):
        fwd, bwd = (records_of(flows.packets.take(rows))
                    for rows in direction_rows(flows, index))
        first = records_of(flows.packets.take(flows.rows[flows.bounds[index]:][:1]))[0]
        out.append(BiFlow(
            key=FlowKey.from_packet(first),
            initiator=(dotted_quad(flows.initiator_ip[index]), int(flows.initiator_port[index])),
            responder=(dotted_quad(flows.responder_ip[index]), int(flows.responder_port[index])),
            fwd_packets=fwd,
            bwd_packets=bwd,
            start_time=float(flows.start_time[index]),
            end_time=max(p.timestamp for p in fwd + bwd),
        ))
    return out
