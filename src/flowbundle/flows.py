"""Bidirectional flow assembly keyed by the unordered 5-tuple."""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from operator import attrgetter

from .pcap import PacketRecord, Protocol

DEFAULT_IDLE_TIMEOUT_S = 120.0
DEFAULT_ACTIVE_TIMEOUT_S = 1800.0


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

    @property
    def initiator_ip(self) -> str:
        return self.initiator[0]

    @property
    def initiator_port(self) -> int:
        return self.initiator[1]


class _OpenFlow:
    __slots__ = ("flow", "last_ts", "fin_fwd", "fin_bwd", "closed")

    def __init__(self, flow: BiFlow):
        self.flow = flow
        self.last_ts = flow.start_time
        self.fin_fwd = False
        self.fin_bwd = False
        self.closed = False

    def add(self, packet: PacketRecord, forward: bool) -> None:
        flow = self.flow
        (flow.fwd_packets if forward else flow.bwd_packets).append(packet)
        timestamp = packet.timestamp
        if timestamp > flow.end_time:
            flow.end_time = timestamp
        self.last_ts = timestamp

        flags = packet.tcp_flags
        if "RST" in flags or (self.fin_fwd and self.fin_bwd):
            # a completed FIN exchange closes on this packet (typically the
            # final ACK)
            self.closed = True
        if "FIN" in flags:
            if forward:
                self.fin_fwd = True
            else:
                self.fin_bwd = True


def assemble_flows(
    packets: list[PacketRecord],
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT_S,
    active_timeout: float | None = DEFAULT_ACTIVE_TIMEOUT_S,
) -> list[BiFlow]:
    """Partition packets into bidirectional flows, in flow creation order.

    A new flow for a key starts when the gap since that key's last packet
    exceeds idle_timeout, the flow outlives active_timeout, or the prior
    flow ended via RST / a completed FIN exchange.  Input is stably
    sorted by timestamp first, so file order breaks ties.
    """
    if idle_timeout <= 0:
        raise ValueError("idle_timeout must be positive")
    if active_timeout is not None and active_timeout <= idle_timeout:
        raise ValueError("active_timeout must exceed idle_timeout (or be None)")

    flows: list[BiFlow] = []
    # keyed by both endpoints in string order, which identifies the same
    # conversations as FlowKey; the FlowKey is built once per flow
    active: dict[tuple, _OpenFlow] = {}

    for packet in sorted(packets, key=attrgetter("timestamp")):
        src = (packet.src_ip, packet.src_port)
        dst = (packet.dst_ip, packet.dst_port)
        key = (src, dst, packet.protocol) if src <= dst else (dst, src, packet.protocol)
        open_flow = active.get(key)
        if (
            open_flow is None
            or open_flow.closed
            or packet.timestamp - open_flow.last_ts > idle_timeout
            or (
                active_timeout is not None
                and packet.timestamp - open_flow.flow.start_time > active_timeout
            )
        ):
            flow = BiFlow(
                key=FlowKey.from_packet(packet),
                initiator=src,
                responder=dst,
                start_time=packet.timestamp,
                end_time=packet.timestamp,
            )
            flows.append(flow)
            open_flow = active[key] = _OpenFlow(flow)
        open_flow.add(packet, src == open_flow.flow.initiator)

    return flows
