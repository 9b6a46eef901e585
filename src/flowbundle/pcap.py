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


def _ip_checksum(header: bytes) -> int:
    total = 0
    for i in range(0, len(header), 2):
        total += (header[i] << 8) + header[i + 1]
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _mac_for(ip: str) -> bytes:
    # locally administered MAC derived from the IPv4 address
    return bytes([0x02, 0x00]) + socket.inet_aton(ip)


def _build_frame(rec: PacketRecord, ip_id: int) -> bytes:
    transport_min = 20 if rec.protocol is Protocol.TCP else 8
    payload_len = rec.ip_total_length - 20 - transport_min
    payload = bytes(payload_len)
    src = socket.inet_aton(rec.src_ip)
    dst = socket.inet_aton(rec.dst_ip)

    if rec.protocol is Protocol.TCP:
        flag_bits = 0
        for name in rec.tcp_flags:
            flag_bits |= _TCP_FLAG_BITS[name]
        transport = struct.pack(
            "!HHIIBBHHH",
            rec.src_port,
            rec.dst_port,
            0,
            0,
            5 << 4,
            flag_bits,
            65535,
            0,
            0,
        )
        pseudo = src + dst + struct.pack("!BBH", 0, 6, len(transport) + payload_len)
        csum_input = pseudo + transport + payload
        if len(csum_input) % 2:
            csum_input += b"\x00"
        checksum = _ip_checksum(csum_input)
        transport = transport[:16] + struct.pack("!H", checksum) + transport[18:]
    else:
        # zero UDP checksum means "not computed" and is legal for IPv4
        transport = struct.pack(
            "!HHHH", rec.src_port, rec.dst_port, 8 + payload_len, 0
        )

    header = struct.pack(
        "!BBHHHBBH4s4s",
        0x45,
        0,
        rec.ip_total_length,
        ip_id & 0xFFFF,
        0x4000,  # DF, never a fragment
        64,
        rec.protocol.value,
        0,
        src,
        dst,
    )
    header = header[:10] + struct.pack("!H", _ip_checksum(header)) + header[12:]
    eth = _mac_for(rec.dst_ip) + _mac_for(rec.src_ip) + struct.pack("!H", 0x0800)
    return eth + header + transport + payload


def write_pcap(packets: list[PacketRecord], path: str | Path) -> None:
    """Write packets as a classic microsecond pcap with Ethernet framing.

    Packets must already be in non-decreasing timestamp order; timestamps
    are stored at microsecond resolution, so feeding quantized timestamps
    round-trips exactly through read_pcap.
    """
    for prev, cur in zip(packets, packets[1:]):
        if cur.timestamp < prev.timestamp:
            raise ValueError("packets must be sorted by timestamp before writing")
    out = bytearray()
    out += struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET)
    for i, rec in enumerate(packets):
        frame = _build_frame(rec, ip_id=i)
        total_us = round(rec.timestamp * 1_000_000)
        ts_sec, ts_usec = divmod(total_us, 1_000_000)
        out += struct.pack("<IIII", ts_sec, ts_usec, len(frame), len(frame))
        out += frame
    Path(path).write_bytes(bytes(out))
