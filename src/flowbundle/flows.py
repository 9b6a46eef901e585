"""Bidirectional flow assembly keyed by the unordered 5-tuple."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pcap import TCP_FLAG_BITS, PacketTable

_FIN, _RST = TCP_FLAG_BITS["FIN"], TCP_FLAG_BITS["RST"]


@dataclass(frozen=True, eq=False)
class FlowSegments:
    """Bidirectional flows as row segments of a packet table.

    Flow i's packets are ``packets`` rows ``rows[bounds[i]:bounds[i + 1]]``,
    in time order; ``forward`` marks, per entry of ``rows``, the packets
    that travel initiator -> responder.  The initiator is the source of the
    flow's first packet.  The identity columns hold one value per flow.
    """

    packets: PacketTable
    rows: np.ndarray
    bounds: np.ndarray
    forward: np.ndarray
    initiator_ip: np.ndarray
    initiator_port: np.ndarray
    responder_ip: np.ndarray
    responder_port: np.ndarray
    protocol: np.ndarray
    start_time: np.ndarray

    def __len__(self) -> int:
        return len(self.start_time)


def assemble_flows(
    packets: PacketTable, idle_timeout: float, active_timeout: float | None
) -> FlowSegments:
    """Partition packets into bidirectional flows, in flow creation order.

    A new flow for a key starts when the gap since that key's last packet
    exceeds idle_timeout, the flow outlives active_timeout, or the prior
    flow ended via RST / a completed FIN exchange (on the packet after the
    second FIN, typically the final ACK).  Packets are taken in stable
    timestamp order, so file order breaks ties.
    """
    if idle_timeout <= 0:
        raise ValueError("idle_timeout must be positive")
    if active_timeout is not None and active_timeout <= idle_timeout:
        raise ValueError("active_timeout must exceed idle_timeout (or be None)")

    order = np.argsort(packets.timestamp, kind="stable")
    times = packets.timestamp.tolist()
    src_ips, dst_ips = packets.src_ip.tolist(), packets.dst_ip.tolist()
    src_ports, dst_ports = packets.src_port.tolist(), packets.dst_port.tolist()
    protocols, flag_bytes = packets.protocol.tolist(), packets.tcp_flags.tolist()
    firsts: list[int] = []  # per flow, its first packet's row
    # per packet in time order: its flow and its direction
    flow_of: list[int] = []
    forward: list[bool] = []
    # open flows keyed by both endpoints in string order, so both directions
    # share a key: [flow, initiator, start time, last packet time, FIN bits
    # seen (1 forward, 2 backward)]; a flow that closes leaves the dict
    active: dict[tuple, list] = {}
    for row in order.tolist():
        t = times[row]
        src = (src_ips[row], src_ports[row])
        dst = (dst_ips[row], dst_ports[row])
        proto = protocols[row]
        key = (src, dst, proto) if src <= dst else (dst, src, proto)
        state = active.get(key)
        if (
            state is None
            or t - state[3] > idle_timeout
            or (active_timeout is not None and t - state[2] > active_timeout)
        ):
            state = active[key] = [len(firsts), src, t, t, 0]
            firsts.append(row)
        fwd = src == state[1]
        flow_of.append(state[0])
        forward.append(fwd)
        state[3] = t
        flags = flag_bytes[row]
        if flags & _RST or state[4] == 3:
            del active[key]
        elif flags & _FIN:
            state[4] |= 1 if fwd else 2

    flow_index = np.array(flow_of, dtype=np.int64)
    by_flow = np.argsort(flow_index, kind="stable")
    bounds = np.zeros(len(firsts) + 1, dtype=np.int64)
    np.cumsum(np.bincount(flow_index, minlength=len(firsts)), out=bounds[1:])
    firsts = np.array(firsts, dtype=np.int64)
    return FlowSegments(
        packets=packets,
        rows=order[by_flow],
        bounds=bounds,
        forward=np.array(forward, dtype=bool)[by_flow],
        initiator_ip=packets.src_ip[firsts],
        initiator_port=packets.src_port[firsts],
        responder_ip=packets.dst_ip[firsts],
        responder_port=packets.dst_port[firsts],
        protocol=packets.protocol[firsts],
        start_time=packets.timestamp[firsts],
    )
