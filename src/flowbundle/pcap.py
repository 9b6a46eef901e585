"""Classic pcap reading and writing for IPv4 TCP/UDP traffic.

Only the legacy pcap container is handled (magic 0xA1B2C3D4 and its
byte-swapped / nanosecond variants), not pcapng.  Frames that are not
IPv4 TCP/UDP (ARP, IPv6, VLAN-tagged, fragments, ...) are skipped and
counted rather than raised, so real captures parse cleanly.
"""

from __future__ import annotations

import socket
import struct
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# TCP flag bits, in the order the flow statistics count them; ECE and CWR
# (0x40, 0x80) are not carried
TCP_FLAG_BITS = {
    "SYN": 0x02, "ACK": 0x10, "FIN": 0x01, "RST": 0x04, "PSH": 0x08, "URG": 0x20
}
TCP, UDP = 6, 17
PROTOCOL_NAMES = {TCP: "TCP", UDP: "UDP"}

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101

# magic bytes -> (struct byte order, ticks per second of the sub-second field)
_MAGICS = {
    b"\xa1\xb2\xc3\xd4": (">", 1_000_000),
    b"\xd4\xc3\xb2\xa1": ("<", 1_000_000),
    b"\xa1\xb2\x3c\x4d": (">", 1_000_000_000),
    b"\x4d\x3c\xb2\xa1": ("<", 1_000_000_000),
}


class PcapFormatError(ValueError):
    """Raised for unreadable pcap structure (bad magic, truncation, ...)."""


# a PacketTable row, as iterating the table yields it, and each column's dtype
Packet = namedtuple(
    "Packet",
    "timestamp src_ip dst_ip src_port dst_port protocol ip_total_length tcp_flags",
)
_DTYPES = (float, object, object, np.int64, np.int64, np.uint8, np.int64, np.uint8)


@dataclass(frozen=True, eq=False)
class PacketTable:
    """Packets as columns, one row per packet.

    ``timestamp`` is float64 seconds, the addresses object arrays of
    dotted strings, ports and ``ip_total_length`` int64, ``protocol`` 6
    (TCP) or 17 (UDP) and ``tcp_flags`` the TCP flag byte without ECE and
    CWR, 0 for UDP.
    """

    timestamp: np.ndarray
    src_ip: np.ndarray
    dst_ip: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    protocol: np.ndarray
    ip_total_length: np.ndarray
    tcp_flags: np.ndarray

    @classmethod
    def from_lists(cls, *columns) -> PacketTable:
        """The table of per-column sequences, in Packet field order."""
        return cls(*(np.array(c, dtype=d) for c, d in zip(columns, _DTYPES)))

    def __len__(self) -> int:
        return len(self.timestamp)

    def __iter__(self):
        columns = (column.tolist() for column in vars(self).values())
        return map(Packet._make, zip(*columns))

    def take(self, rows) -> PacketTable:
        """The rows an index array, slice or boolean mask selects, in that order."""
        return PacketTable(*(column[rows] for column in vars(self).values()))


@dataclass
class PcapRead:
    """Result of reading a capture: accepted packets plus skip accounting."""

    packets: PacketTable
    link_type: int
    skipped: int = 0
    skipped_by_reason: dict[str, int] = field(default_factory=dict)


# version/IHL, total length, flags+fragment offset, protocol, both addresses
_IPV4_HEADER = struct.Struct("!BxHxxHxBxx8s")
_PORTS = struct.Struct("!HH")


def _parse_ipv4(
    data: bytes, ip: int, end: int, timestamp: float, names: dict, columns: tuple
) -> str | None:
    """Append the IPv4 packet in ``data[ip:end]`` to the column lists, or
    return the reason it is skipped.

    ``names`` maps the 8 raw address bytes to their dotted strings for
    the duration of one read.
    """
    if end - ip < 20:
        return "malformed"
    version_ihl, total_length, frag, proto, addresses = _IPV4_HEADER.unpack_from(
        data, ip
    )
    if version_ihl >> 4 != 4:
        return "non_ipv4"
    ihl = (version_ihl & 0x0F) * 4
    if ihl < 20 or end - ip < ihl:
        return "malformed"
    if frag & 0x3FFF:  # MF set or non-zero offset
        return "fragment"
    if proto != TCP and proto != UDP:
        return "non_tcp_udp"
    transport = ip + ihl
    if proto == TCP:
        if end - transport < 20 or total_length < ihl + 20:
            return "malformed"
        flags = data[transport + 13] & 0x3F
        if not flags:
            # null-flag TCP segments have no representation downstream
            return "malformed"
    else:
        if end - transport < 8 or total_length < ihl + 8:
            return "malformed"
        flags = 0
    ips = names.get(addresses)
    if ips is None:
        ips = names[addresses] = (
            socket.inet_ntoa(addresses[:4]),
            socket.inet_ntoa(addresses[4:]),
        )
    src_port, dst_port = _PORTS.unpack_from(data, transport)
    times, srcs, dsts, sports, dports, protocols, lengths, flag_bytes = columns
    times.append(timestamp)
    srcs.append(ips[0])
    dsts.append(ips[1])
    sports.append(src_port)
    dports.append(dst_port)
    protocols.append(proto)
    lengths.append(total_length)
    flag_bytes.append(flags)
    return None


# bytes of the capture read at a time, which bounds the reader's memory
_READ_BYTES = 1 << 22


def read_pcap(path: str | Path) -> PcapRead:
    """Parse a classic pcap file into a PacketTable, in file order.

    Non-IPv4 frames, fragments, VLAN-tagged frames and non-TCP/UDP
    packets are counted in ``skipped_by_reason``.  Structural problems
    (bad magic, truncated records, unsupported link type) raise
    PcapFormatError naming the byte offset.  The file is read in blocks, each
    block's plain frames parsed at once and the others by ``_parse_ipv4``.
    """
    with open(path, "rb") as handle:
        data = handle.read(24)
        if len(data) < 24:
            raise PcapFormatError(
                f"{path}: file too short for pcap global header ({len(data)} bytes)")
        magic = data[:4]
        if magic not in _MAGICS:
            raise PcapFormatError(f"{path}: bad magic {magic.hex()} at offset 0")
        order, ticks = _MAGICS[magic]
        (link_type,) = struct.unpack_from(order + "I", data, 20)
        if link_type not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
            raise PcapFormatError(f"{path}: unsupported link type {link_type}")
        # Ethernet header length, 0 for raw IP, and a record's bytes through the TCP flags
        eth, width = (14, 64) if link_type == LINKTYPE_ETHERNET else (0, 50)
        ip = 16 + eth  # a frame's IP header, from its record header
        unpack_incl_len = struct.Struct(order + "8xI").unpack_from
        parts: list[tuple[np.ndarray, ...]] = []  # per block, the plain frames' fields
        slow_columns: tuple[list, ...] = tuple([] for _ in Packet._fields)
        slow_rows: list[int] = []
        skipped: dict[str, int] = {}
        names: dict[bytes, tuple[str, str]] = {}
        position, frames, want, data = 24, 0, _READ_BYTES, bytearray()
        file_size = Path(path).stat().st_size
        while True:
            block = min(want, file_size - position)
            if len(data) < block + width:  # else the last block's buffer is reused
                data = bytearray(block + width)
            # bytes past a frame's end never reach a packet: a plain frame's fields lie within it
            size = handle.readinto(memoryview(data)[:block])
            offset, frame_starts, cut = 0, [], None
            while offset < size:
                frame_starts.append(offset + 16)
                offset += 16 + unpack_incl_len(data, offset)[0]
            if offset > size:  # the last record runs past the block
                frame_start = frame_starts.pop()
                cut = (f"truncated record header at byte offset {position + frame_start - 16}"
                       if frame_start > size else
                       f"truncated packet data at byte offset {position + frame_start} "
                       f"(need {offset - frame_start} bytes)")
                offset = frame_start - 16
            last = size < want
            if cut and last:  # cut by the end of the file
                raise PcapFormatError(f"{path}: {cut}")
            records = np.array(frame_starts, dtype=np.int64) - 16

            def field(at: int, n: int = 1, byte_order: str = ">") -> np.ndarray:
                # the ``n``-byte unsigned integer ``at`` bytes into each record
                view = np.ndarray((len(data) - at - n + 1,), f"V{n}", data, at, strides=(1,))
                return view[records].view(f"{byte_order}u{n}")

            sec, frac, incl_len = (field(at, 4, order) for at in (0, 4, 8))
            protocol, total_length, flags = field(ip + 9), field(ip + 2, 2), field(ip + 33) & 0x3F
            room = incl_len.astype(np.int64) - eth
            tcp = (protocol == TCP) & (room >= 40) & (total_length >= 40) & (flags != 0)
            udp = (protocol == UDP) & (room >= 28) & (total_length >= 28)
            plain = (tcp | udp) & (field(ip) == 0x45) & (field(ip + 6, 2) & 0x3FFF == 0)
            plain &= field(ip - 2, 2) == 0x0800 if eth else True  # Ethernet carries IPv4
            fast = np.flatnonzero(plain)
            parts.append((frames + fast, sec[fast].astype(np.int64) * ticks + frac[fast],
                          *(field(ip + at, n)[fast] for at, n in ((12, 8), (20, 2), (22, 2))),
                          protocol[fast], total_length[fast], np.where(tcp[fast], flags[fast], 0)))
            for i in np.flatnonzero(~plain).tolist():
                start, end = frame_starts[i], frame_starts[i] + int(incl_len[i])
                ethertype = data[start + 12] << 8 | data[start + 13] if end - start >= 14 else None
                if not eth or ethertype == 0x0800:
                    timestamp = (int(sec[i]) * ticks + int(frac[i])) / ticks
                    reason = _parse_ipv4(data, start + eth, end, timestamp, names, slow_columns)
                else:
                    reason = {None: "malformed", 0x8100: "vlan"}.get(ethertype, "non_ipv4")
                if reason is None:
                    slow_rows.append(frames + i)
                else:
                    skipped[reason] = skipped.get(reason, 0) + 1
            if last:
                break
            frames, position = frames + len(frame_starts), position + offset
            handle.seek(position)
            want = 2 * want if offset == 0 else _READ_BYTES  # until one record fits

    index, stamps, pairs, *rest = (np.concatenate(column) for column in zip(*parts))
    pairs, which = np.unique(pairs, return_inverse=True)
    addresses = [pair.to_bytes(8, "big") for pair in pairs.tolist()]
    columns = (
        # both divisions round correctly, numpy's while every stamp is an exact double
        stamps / ticks if stamps.max(initial=0) < 2**53
        else np.array([a / ticks for a in stamps.tolist()]),
        np.array([socket.inet_ntoa(a[:4]) for a in addresses], dtype=object)[which],
        np.array([socket.inet_ntoa(a[4:]) for a in addresses], dtype=object)[which],
        *rest,
    )
    if slow_rows:  # both row sets are in file order: merge them by frame index
        by_frame = np.argsort(np.concatenate([index, slow_rows]))
        columns = tuple(np.concatenate([column, np.array(extra, column.dtype)])[by_frame]
                        for column, extra in zip(columns, slow_columns))
    packets = PacketTable.from_lists(*columns)
    return PcapRead(packets, link_type, sum(skipped.values()), skipped)


# packets packed per buffer and write, which bounds the writer's memory
_CHUNK = 2048
_RECORD_HEADER = struct.Struct("<IIII")
# Ethernet and IPv4 headers and the ports; then the rest of the TCP header
# from its data offset, or the UDP length.  Fields left out stay the zeros
# the output buffer starts with.
_HEADERS = struct.Struct("!6s6sHHHHHBBH4s4sHH")
_TCP_REST = struct.Struct("!BBHH")
_UDP_LENGTH = struct.Struct("!H")
# the constant words of each checksum: IPv4 version/IHL, DF and TTL; TCP
# protocol in the pseudo-header, data offset and window
_IP_SUM = 0x4500 + 0x4000 + 0x4000
_TCP_SUM = 6 + 0x5000 + 0xFFFF


def _checksum(total: int) -> int:
    """One's complement of a sum of 16-bit words, end-around folded.

    Zero bytes add nothing to the sum, so the all-zero payload and the
    pad byte of an odd-length segment are left out of ``total``.
    """
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _address(cache: dict, ip: str) -> tuple[bytes, bytes, int]:
    """Cache an address's raw bytes, locally administered MAC and word sum."""
    raw = socket.inet_aton(ip)
    words = ((raw[0] + raw[2]) << 8) + raw[1] + raw[3]
    entry = cache[ip] = (raw, b"\x02\x00" + raw, words)
    return entry


def _frames(packets: PacketTable, first: int, addresses: dict) -> bytearray:
    """The pcap records of ``packets``, the first of which is packet ``first``."""
    out = bytearray(30 * len(packets) + int(packets.ip_total_length.sum()))
    record_header = _RECORD_HEADER.pack_into
    headers = _HEADERS.pack_into
    tcp_rest = _TCP_REST.pack_into
    udp_length = _UDP_LENGTH.pack_into
    offset = 0
    columns = (column.tolist() for column in vars(packets).values())
    for i, row in enumerate(zip(*columns), first):
        timestamp, src_ip, dst_ip, sport, dport, proto, length, flags = row
        src, src_mac, src_sum = addresses.get(src_ip) or _address(addresses, src_ip)
        dst, dst_mac, dst_sum = addresses.get(dst_ip) or _address(addresses, dst_ip)
        ip_id = i & 0xFFFF
        us = round(timestamp * 1_000_000)
        frame = length + 14
        record_header(out, offset, us // 1_000_000, us % 1_000_000, frame, frame)
        ip_sum = _checksum(_IP_SUM + proto + length + ip_id + src_sum + dst_sum)
        headers(
            out, offset + 16, dst_mac, src_mac, 0x0800, 0x4500, length, ip_id,
            0x4000, 64, proto, ip_sum, src, dst, sport, dport,
        )
        if proto == TCP:
            tcp_sum = _checksum(
                _TCP_SUM + length - 20 + src_sum + dst_sum + sport + dport + flags
            )
            tcp_rest(out, offset + 62, 0x50, flags, 65535, tcp_sum)
        else:
            # zero UDP checksum means "not computed" and is legal for IPv4
            udp_length(out, offset + 54, length - 20)
        offset += 30 + length
    return out


def write_pcap(packets: PacketTable, path: str | Path) -> None:
    """Write packets as a classic microsecond pcap with Ethernet framing.

    Packets must already be in non-decreasing timestamp order; timestamps
    are stored at microsecond resolution, so feeding quantized timestamps
    round-trips exactly through read_pcap.  Each frame carries an IPv4
    header (DF, TTL 64, id = packet index), a zero TCP sequence/ack or a
    zero UDP checksum, and a zero payload; MACs derive from the addresses.
    Frames are packed and written ``_CHUNK`` packets at a time.
    """
    times = packets.timestamp
    if np.any(times[1:] < times[:-1]):
        raise ValueError("packets must be sorted by timestamp before writing")
    if len(times) and round(float(times[-1]) * 1_000_000) >= 1_000_000 << 32:
        raise ValueError(
            f"{path}: timestamp {float(times[-1])} is past the pcap's "
            "32-bit seconds field"
        )
    header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET)
    addresses: dict[str, tuple[bytes, bytes, int]] = {}
    with open(path, "wb") as handle:
        handle.write(header)
        for first in range(0, len(packets), _CHUNK):
            chunk = packets.take(slice(first, first + _CHUNK))
            handle.write(_frames(chunk, first, addresses))
