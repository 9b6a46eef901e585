"""Bidirectional flow assembly keyed by the unordered 5-tuple."""

from __future__ import annotations

import math
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

    Each round cuts one flow off every segment (a key's packets between idle
    gaps) with packets left: RST, FIN and segment ends by a table lookup, an
    active timeout by a vectorised bisect.  Rounds: the most flows a segment holds.
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
    starts, last = np.flatnonzero(cut), np.roll(cut, -1)  # each segment's first, last (cut[0])

    # from each sorted position, the next RST or segment's last packet and each FIN, else n
    fin = flags & _FIN > 0
    rst, fin_low, fin_high = (np.minimum.accumulate(np.where(e, np.arange(n), n)[::-1])[::-1]
                              for e in ((flags & _RST > 0) | last, fin & low, fin & ~low))
    # a flow from there ends after that packet or one packet after both endpoints' FIN
    closed = np.minimum(rst + 1, np.maximum(fin_low, fin_high) + 2)
    firsts = [starts]  # each flow's first sorted position, a round at a time
    while len(starts):  # a round: the next flow of every segment with packets left
        ends = closed[starts]  # or, earlier, the active timeout
        if active_timeout is not None:
            late = np.flatnonzero(times[ends - 1] - times[starts] > active_timeout)
            # bisect_right: the first packet past the timeout lies in [lo, hi]; hi is past it
            lo, hi, begin = starts[late] + 1, ends[late] - 1, times[starts[late]]
            while np.any(lo < hi):
                over = times[mid := (lo + hi) // 2] - begin > active_timeout
                lo, hi = np.where(over, lo, mid + 1), np.where(over, mid, hi)
            ends[late] = hi
        starts = ends[~last[ends - 1]]
        firsts.append(starts)

    # flows in creation order: by the time, then the row, of their first packet
    firsts = np.sort(np.concatenate(firsts))
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
