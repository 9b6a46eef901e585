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


def read_pcap(path: str | Path) -> PcapRead:
    """Parse a classic pcap file into a PacketTable, in file order.

    Non-IPv4 frames, fragments, VLAN-tagged frames and non-TCP/UDP
    packets are counted in ``skipped_by_reason``.  Structural problems
    (bad magic, truncated records, unsupported link type) raise
    PcapFormatError naming the byte offset.
    """
    data = Path(path).read_bytes()
    if len(data) < 24:
        raise PcapFormatError(
            f"{path}: file too short for pcap global header ({len(data)} bytes)"
        )
    magic = data[:4]
    if magic not in _MAGICS:
        raise PcapFormatError(f"{path}: bad magic {magic.hex()} at offset 0")
    order, ticks = _MAGICS[magic]
    _version_major, _version_minor, _tz, _sigfigs, _snaplen, link_type = struct.unpack(
        order + "HHiIII", data[4:24]
    )
    if link_type not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
        raise PcapFormatError(f"{path}: unsupported link type {link_type}")

    columns: tuple[list, ...] = tuple([] for _ in Packet._fields)
    skipped: dict[str, int] = {}
    ethernet = link_type == LINKTYPE_ETHERNET
    names: dict[bytes, tuple[str, str]] = {}
    size = len(data)
    offset = 24
    unpack_rec_header = struct.Struct(order + "IIII").unpack_from
    while offset < size:
        if offset + 16 > size:
            raise PcapFormatError(
                f"{path}: truncated record header at byte offset {offset}"
            )
        ts_sec, ts_frac, incl_len, _orig_len = unpack_rec_header(data, offset)
        frame_start = offset + 16
        offset = frame_start + incl_len
        if offset > size:
            raise PcapFormatError(
                f"{path}: truncated packet data at byte offset {frame_start} "
                f"(need {incl_len} bytes)"
            )
        timestamp = (ts_sec * ticks + ts_frac) / ticks
        if not ethernet:
            reason = _parse_ipv4(data, frame_start, offset, timestamp, names, columns)
        elif incl_len < 14:
            reason = "malformed"
        else:
            ethertype = data[frame_start + 12] << 8 | data[frame_start + 13]
            if ethertype == 0x0800:
                reason = _parse_ipv4(
                    data, frame_start + 14, offset, timestamp, names, columns
                )
            else:
                reason = "vlan" if ethertype == 0x8100 else "non_ipv4"
        if reason is not None:
            skipped[reason] = skipped.get(reason, 0) + 1
    return PcapRead(
        PacketTable.from_lists(*columns), link_type, sum(skipped.values()), skipped
    )


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
