"""Bidirectional flow assembly keyed by the unordered 5-tuple."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
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
    flow's first packet.  The identity columns hold one value per flow, in
    the packet table's dtypes.
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
    if not 0 < idle_timeout < math.inf:
        raise ValueError("idle_timeout must be positive and finite")
    if active_timeout is not None and not active_timeout > idle_timeout:
        raise ValueError("active_timeout must exceed idle_timeout (or be None)")

    n = len(packets)
    # each endpoint as one integer, ordered as its (address, port) pair: ports are 16-bit
    src, dst = ((ip.astype(np.int64) << 16) + port for ip, port in
                ((packets.src_ip, packets.src_port), (packets.dst_ip, packets.dst_port)))
    # both directions share a key: the lower endpoint, then the upper and the protocol
    low = src <= dst
    key = [np.minimum(src, dst), (np.maximum(src, dst) << 8) + packets.protocol]
    order = np.lexsort([packets.timestamp, *reversed(key)])  # stable: file order breaks ties
    times, low, flags = packets.timestamp[order], low[order], packets.tcp_flags[order]
    # a key change or an idle gap ends a segment
    cut = np.diff(times, prepend=-math.inf) > idle_timeout
    for column in key:
        column = column[order]
        cut[1:] |= column[1:] != column[:-1]
    segments = [*np.flatnonzero(cut).tolist(), n]

    # each closing event's sorted positions, then n
    rst, fin_low, fin_high = (np.append(np.flatnonzero(events), n).tolist() for events in
                              (flags & _RST, (flags & _FIN > 0) & low, (flags & _FIN > 0) & ~low))
    times = times.tolist()
    firsts = []  # each flow's first sorted position
    for s, stop in zip(segments, segments[1:]):
        while s < stop:
            firsts.append(s)
            # the first RST, the packet after both endpoints' first FIN, the
            # segment's end or, earlier, the active timeout ends the flow
            end = min(stop, rst[bisect_left(rst, s)] + 1,
                      max(fin_low[bisect_left(fin_low, s)], fin_high[bisect_left(fin_high, s)]) + 2)
            start = times[s]
            if active_timeout is not None and times[end - 1] - start > active_timeout:
                end = bisect_right(times, active_timeout, s + 1, end, key=lambda t: t - start)
            s = end

    # flows in creation order: by the time, then the row, of their first packet
    firsts = np.array(firsts, dtype=np.int64)
    sizes = np.diff(firsts, append=n)
    by_creation = np.lexsort((order[firsts], packets.timestamp[order[firsts]]))
    firsts, sizes = firsts[by_creation], sizes[by_creation]
    bounds = np.append(0, np.cumsum(sizes))
    position = np.repeat(firsts - bounds[:-1], sizes) + np.arange(n)
    first_rows = order[firsts]
    return FlowSegments(
        packets=packets,
        rows=order[position],
        bounds=bounds,
        forward=low[position] == np.repeat(low[firsts], sizes),
        initiator_ip=packets.src_ip[first_rows],
        initiator_port=packets.src_port[first_rows],
        responder_ip=packets.dst_ip[first_rows],
        responder_port=packets.dst_port[first_rows],
        protocol=packets.protocol[first_rows],
        start_time=packets.timestamp[first_rows],
    )
