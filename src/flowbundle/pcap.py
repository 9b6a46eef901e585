"""Classic pcap reading and writing for IPv4 TCP/UDP traffic.

Only the legacy pcap container is handled (magic 0xA1B2C3D4 and its
byte-swapped / nanosecond variants), not pcapng.  Frames that are not
IPv4 TCP/UDP (ARP, IPv6, VLAN-tagged, fragments, ...) are skipped and
counted rather than raised, so real captures parse cleanly.
"""

from __future__ import annotations

import enum
import socket
import struct
from dataclasses import dataclass, field
from pathlib import Path

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

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101

# magic bytes -> (struct byte order, ticks per second of the sub-second field)
_MAGICS = {
    b"\xa1\xb2\xc3\xd4": (">", 1_000_000),
    b"\xd4\xc3\xb2\xa1": ("<", 1_000_000),
    b"\xa1\xb2\x3c\x4d": (">", 1_000_000_000),
    b"\x4d\x3c\xb2\xa1": ("<", 1_000_000_000),
}


class Protocol(enum.Enum):
    """Transport protocols carried through the pipeline."""

    TCP = 6
    UDP = 17


class PcapFormatError(ValueError):
    """Raised for unreadable pcap structure (bad magic, truncation, ...)."""


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


@dataclass
class PcapRead:
    """Result of reading a capture: accepted packets plus skip accounting."""

    packets: list[PacketRecord]
    link_type: int
    skipped: int = 0
    skipped_by_reason: dict[str, int] = field(default_factory=dict)


def _skip(result: PcapRead, reason: str) -> None:
    result.skipped += 1
    result.skipped_by_reason[reason] = result.skipped_by_reason.get(reason, 0) + 1


# version/IHL, total length, flags+fragment offset, protocol, both addresses
_IPV4_HEADER = struct.Struct("!BxHxxHxBxx8s")
_PORTS = struct.Struct("!HH")
# the flag set of every value of the TCP flags byte; ECE and CWR (0x40,
# 0x80) have no name, so the table repeats every 64 values
_FLAG_SETS = tuple(
    frozenset(name for name, bit in _TCP_FLAG_BITS.items() if byte & bit)
    for byte in range(64)
) * 4


def _parse_ipv4(
    data: bytes, ip: int, end: int, timestamp: float, names: dict
) -> PacketRecord | str:
    """Parse the IPv4 packet in ``data[ip:end]``; a str is a skip reason.

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
    if proto != 6 and proto != 17:
        return "non_tcp_udp"
    ips = names.get(addresses)
    if ips is None:
        ips = names[addresses] = (
            socket.inet_ntoa(addresses[:4]),
            socket.inet_ntoa(addresses[4:]),
        )
    transport = ip + ihl
    if proto == 6:
        if end - transport < 20 or total_length < ihl + 20:
            return "malformed"
        flags = _FLAG_SETS[data[transport + 13]]
        if not flags:
            # null-flag TCP segments have no representation downstream
            return "malformed"
        protocol = Protocol.TCP
    else:
        if end - transport < 8 or total_length < ihl + 8:
            return "malformed"
        flags = frozenset()
        protocol = Protocol.UDP
    src_port, dst_port = _PORTS.unpack_from(data, transport)
    return PacketRecord(
        timestamp, ips[0], ips[1], src_port, dst_port, protocol, total_length, flags
    )


def read_pcap(path: str | Path) -> PcapRead:
    """Parse a classic pcap file into PacketRecords, in file order.

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

    result = PcapRead(packets=[], link_type=link_type)
    append = result.packets.append
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
        if ethernet:
            if incl_len < 14:
                _skip(result, "malformed")
                continue
            ethertype = data[frame_start + 12] << 8 | data[frame_start + 13]
            if ethertype != 0x0800:
                _skip(result, "vlan" if ethertype == 0x8100 else "non_ipv4")
                continue
            frame_start += 14
        record = _parse_ipv4(data, frame_start, offset, timestamp, names)
        if type(record) is str:
            _skip(result, record)
        else:
            append(record)
    return result


_RECORD_HEADER = struct.Struct("<IIII")
# Ethernet and IPv4 headers and the ports; then the rest of the TCP header
# from its data offset, or the UDP length.  Fields left out stay the zeros
# the output buffer starts with.
_HEADERS = struct.Struct("!6s6sHHHHHBBH4s4sHH")
_TCP_REST = struct.Struct("!BBHH")
_UDP_LENGTH = struct.Struct("!H")
_FLAG_BYTES = {flags: byte for byte, flags in enumerate(_FLAG_SETS[:64])}
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


def write_pcap(packets: list[PacketRecord], path: str | Path) -> None:
    """Write packets as a classic microsecond pcap with Ethernet framing.

    Packets must already be in non-decreasing timestamp order; timestamps
    are stored at microsecond resolution, so feeding quantized timestamps
    round-trips exactly through read_pcap.  Each frame carries an IPv4
    header (DF, TTL 64, id = packet index), a zero TCP sequence/ack or a
    zero UDP checksum, and a zero payload; MACs derive from the addresses.
    """
    for prev, cur in zip(packets, packets[1:]):
        if cur.timestamp < prev.timestamp:
            raise ValueError("packets must be sorted by timestamp before writing")
    if packets and round(packets[-1].timestamp * 1_000_000) >= 1_000_000 << 32:
        raise ValueError(
            f"{path}: timestamp {packets[-1].timestamp} is past the pcap's "
            "32-bit seconds field"
        )
    out = bytearray(24 + sum(30 + rec.ip_total_length for rec in packets))
    struct.pack_into(
        "<IHHiIII", out, 0, 0xA1B2C3D4, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET
    )
    record_header = _RECORD_HEADER.pack_into
    headers = _HEADERS.pack_into
    tcp_rest = _TCP_REST.pack_into
    udp_length = _UDP_LENGTH.pack_into
    addresses: dict[str, tuple[bytes, bytes, int]] = {}
    offset = 24
    for i, rec in enumerate(packets):
        src, src_mac, src_sum = addresses.get(rec.src_ip) or _address(
            addresses, rec.src_ip
        )
        dst, dst_mac, dst_sum = addresses.get(rec.dst_ip) or _address(
            addresses, rec.dst_ip
        )
        length = rec.ip_total_length
        ip_id = i & 0xFFFF
        us = round(rec.timestamp * 1_000_000)
        frame = length + 14
        record_header(out, offset, us // 1_000_000, us % 1_000_000, frame, frame)
        proto = rec.protocol.value
        sport, dport = rec.src_port, rec.dst_port
        ip_sum = _checksum(_IP_SUM + proto + length + ip_id + src_sum + dst_sum)
        headers(
            out, offset + 16, dst_mac, src_mac, 0x0800, 0x4500, length, ip_id,
            0x4000, 64, proto, ip_sum, src, dst, sport, dport,
        )
        if proto == 6:
            flags = _FLAG_BYTES[rec.tcp_flags]
            tcp_sum = _checksum(
                _TCP_SUM + length - 20 + src_sum + dst_sum + sport + dport + flags
            )
            tcp_rest(out, offset + 62, 0x50, flags, 65535, tcp_sum)
        else:
            # zero UDP checksum means "not computed" and is legal for IPv4
            udp_length(out, offset + 54, length - 20)
        offset += 30 + length
    Path(path).write_bytes(out)
