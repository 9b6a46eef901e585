"""Classic pcap reading and writing for IPv4 TCP/UDP traffic.

Only the legacy pcap container is handled (magic 0xA1B2C3D4 and its
byte-swapped / nanosecond variants), not pcapng.  Frames that are not
IPv4 TCP/UDP (ARP, IPv6, VLAN-tagged, fragments, ...) are skipped and
counted rather than raised, so real captures parse cleanly.  The reader
parses each block of the file once, with numpy gathers over all of its
records, so frames with IP options or other odd frames cost no more than
plain ones.
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
_DTYPES = (float, np.uint32, np.uint32, np.int64, np.int64, np.uint8, np.int64, np.uint8)


@dataclass(frozen=True, eq=False)
class PacketTable:
    """Packets as columns, one row per packet.

    ``timestamp`` is float64 seconds, the addresses uint32 (the 4 address
    bytes read big-endian), ports (0-65535) and ``ip_total_length`` int64,
    ``protocol`` 6 (TCP) or 17 (UDP) and ``tcp_flags`` the TCP flag byte
    without ECE and CWR, 0 for UDP.
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


def dotted(addresses: np.ndarray) -> np.ndarray:
    """Each uint32 address as its dotted-quad string, an object array;
    ``inet_ntoa`` runs once per distinct address."""
    distinct, which = np.unique(addresses, return_inverse=True)
    names = [socket.inet_ntoa(a.to_bytes(4, "big")) for a in distinct.tolist()]
    return np.array(names, dtype=object)[which]


@dataclass
class PcapRead:
    """Result of reading a capture: accepted packets plus skip accounting."""

    packets: PacketTable
    link_type: int
    skipped: int = 0
    skipped_by_reason: dict[str, int] = field(default_factory=dict)


# bytes of the capture read at a time, which bounds the reader's memory
_READ_BYTES = 1 << 22


def _field(buffer, at: int, dtype: str) -> np.ndarray:
    """Element i is the ``dtype`` value at byte ``at + i`` of ``buffer``:
    indexed by record offsets, it gathers or scatters one field of each."""
    n = np.dtype(dtype).itemsize
    return np.ndarray((len(buffer) - at - n + 1,), dtype, buffer, at, strides=(1,))


def read_pcap(path: str | Path) -> PcapRead:
    """Parse a classic pcap file into a PacketTable, in file order.

    Non-IPv4 frames, fragments, VLAN-tagged frames and non-TCP/UDP
    packets are counted in ``skipped_by_reason``.  Structural problems
    (bad magic, truncated records, unsupported link type) raise
    PcapFormatError naming the byte offset.  The file is read in blocks,
    and each block's frames are parsed at once: every header field is
    gathered for all records, at the offsets each record's IHL gives.
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
        # Ethernet header length, 0 for raw IP, and a record's bytes through the
        # TCP flags behind a 60-byte IP header
        eth, width = (14, 104) if link_type == LINKTYPE_ETHERNET else (0, 90)
        ip = 16 + eth  # a frame's IP header, from its record header
        unpack_incl_len = struct.Struct(order + "8xI").unpack_from
        parts: list[tuple[np.ndarray, ...]] = []  # per block, the accepted frames' fields
        skipped: dict[str, int] = {}
        position, want, data = 24, _READ_BYTES, bytearray()
        file_size = Path(path).stat().st_size
        while True:
            block = min(want, file_size - position)
            if len(data) < block + width:  # else the last block's buffer is reused
                data = bytearray(block + width)
            # bytes past a frame's end are gathered too, but a frame they
            # would describe fails a length test before they are used
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

            def field(at: int, n: int = 1, byte_order: str = ">", rows=records) -> np.ndarray:
                # the ``n``-byte unsigned integer ``at`` bytes past each offset in
                # ``rows``, by default each record's start
                return _field(data, at, f"{byte_order}u{n}")[rows]

            sec, frac, incl_len = (field(at, 4, order) for at in (0, 4, 8))
            room = incl_len.astype(np.int64) - eth  # a frame's bytes from its IP header on
            version_ihl, protocol, total_length = field(ip), field(ip + 9), field(ip + 2, 2)
            ihl = (version_ihl & 0x0F).astype(np.int64) * 4
            transport = records + ip + ihl
            flags = field(13, rows=transport) & 0x3F
            tcp = protocol == TCP
            need = ihl + np.where(tcp, 20, 8)  # through the TCP or UDP header
            ethertype = field(ip - 2, 2) if eth else None
            # each frame is counted under the first test it fails
            tests = [("malformed", room < 0), ("vlan", ethertype == 0x8100),
                     ("non_ipv4", ethertype != 0x0800)] if eth else []
            tests += [
                ("malformed", room < 20),
                ("non_ipv4", version_ihl >> 4 != 4),
                ("malformed", (ihl < 20) | (room < ihl)),
                ("fragment", field(ip + 6, 2) & 0x3FFF != 0),  # MF set or non-zero offset
                ("non_tcp_udp", ~tcp & (protocol != UDP)),
                # null-flag TCP segments have no representation downstream
                ("malformed", (room < need) | (total_length < need) | tcp & (flags == 0)),
            ]
            accepted = np.ones(len(records), dtype=bool)
            for reason, failed in tests:
                failed &= accepted
                if count := np.count_nonzero(failed):
                    skipped[reason] = skipped.get(reason, 0) + count
                    accepted &= ~failed
            rows = np.flatnonzero(accepted)
            kept, ports = records[rows], transport[rows]
            parts.append((sec[rows].astype(np.int64) * ticks + frac[rows],
                          field(ip + 12, 4, rows=kept), field(ip + 16, 4, rows=kept),
                          field(0, 2, rows=ports), field(2, 2, rows=ports),
                          protocol[rows], total_length[rows],
                          np.where(tcp[rows], flags[rows], 0)))
            if last:
                break
            position += offset
            handle.seek(position)
            want = 2 * want if offset == 0 else _READ_BYTES  # until one record fits

    stamps, *rest = (np.concatenate(column) for column in zip(*parts))
    # both divisions round correctly, numpy's while every stamp is an exact double
    columns = (stamps / ticks if stamps.max(initial=0) < 2**53
               else np.array([a / ticks for a in stamps.tolist()]), *rest)
    packets = PacketTable.from_lists(*columns)
    return PcapRead(packets, link_type, sum(skipped.values()), skipped)


# packets packed per buffer and write, which bounds the writer's memory
_CHUNK = 2048
# the constant words of each checksum: IPv4 version/IHL, DF and TTL; TCP
# protocol in the pseudo-header, data offset and window
_IP_SUM = 0x4500 + 0x4000 + 0x4000
_TCP_SUM = 6 + 0x5000 + 0xFFFF


def _checksum(total: np.ndarray) -> np.ndarray:
    """One's complement of sums of 16-bit words below 2**32, end-around folded.

    Zero bytes add nothing to the sum, so the all-zero payload and the
    pad byte of an odd-length segment are left out of ``total``.
    """
    for _ in range(2):
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _frames(packets: PacketTable, first: int) -> bytearray:
    """The pcap records of ``packets``, the first of which is packet ``first``:
    each field scattered at its offset in every record, the rest left zero."""
    src, dst, sport, dport, proto, length, flags = (
        column.astype(np.int64) for column in list(vars(packets).values())[1:])
    ends = np.cumsum(30 + length)
    out = bytearray(int(ends[-1]))
    records = ends - (30 + length)
    sec, us = np.divmod(np.rint(packets.timestamp * 1_000_000).astype(np.int64), 1_000_000)
    ip_id = (first + np.arange(len(packets))) & 0xFFFF
    # both addresses' 16-bit words summed, a term of both checksums
    words = (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
    for at, dtype, values in (
        (0, "<u4", sec), (4, "<u4", us),  # record header
        (8, "<u4", length + 14), (12, "<u4", length + 14),
        (16, ">u2", 0x0200), (18, ">u4", dst), (22, ">u2", 0x0200), (24, ">u4", src),  # MACs
        (28, ">u4", 0x0800_4500),  # IPv4 EtherType, version/IHL
        (32, ">u2", length), (34, ">u2", ip_id),
        (36, ">u4", 0x4000_4000 + proto),  # DF, TTL 64, protocol
        (40, ">u2", _checksum(_IP_SUM + proto + length + ip_id + words)),
        (42, ">u4", src), (46, ">u4", dst), (50, ">u2", sport), (52, ">u2", dport),
    ):
        _field(out, at, dtype)[records] = values
    tcp = proto == TCP
    tcp_sum = _checksum(_TCP_SUM + length - 20 + words + sport + dport + flags)
    _field(out, 62, ">u2")[records[tcp]] = 0x5000 | flags[tcp]  # data offset, flags
    _field(out, 64, ">u4")[records[tcp]] = 0xFFFF_0000 | tcp_sum[tcp]  # window, checksum
    # a zero UDP checksum means "not computed" and is legal for IPv4
    _field(out, 54, ">u2")[records[~tcp]] = length[~tcp] - 20
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
    if not np.all(times[1:] >= times[:-1]):  # a NaN is out of order too
        raise ValueError("packets must be sorted by timestamp before writing")
    span = times[[0, -1]].tolist() if len(times) else [0.0, 0.0]
    if not 0 <= round(span[0] * 1_000_000) <= round(span[1] * 1_000_000) < 1_000_000 << 32:
        raise ValueError(f"{path}: timestamps {span[0]} to {span[1]} s are not all within "
                         "the pcap's 32-bit seconds field")
    # numpy's casts would wrap silently what the fixed-width fields cannot hold
    protocol, length = packets.protocol, packets.ip_total_length
    for name, bad, want in (
        ("protocol", (protocol != TCP) & (protocol != UDP), "6 or 17"),
        ("src_port", (packets.src_port < 0) | (packets.src_port > 65535), "0 to 65535"),
        ("dst_port", (packets.dst_port < 0) | (packets.dst_port > 65535), "0 to 65535"),
        ("ip_total_length", (length < np.where(protocol == TCP, 40, 28)) | (length > 65535),
         "40 (TCP) or 28 (UDP) to 65535"),
    ):
        if np.any(bad):
            i = int(np.argmax(bad))
            value = getattr(packets, name)[i]
            raise ValueError(f"{path}: packet {i}: {name} {value} is not {want}")
    header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET)
    with open(path, "wb") as handle:
        handle.write(header)
        for first in range(0, len(packets), _CHUNK):
            chunk = packets.take(slice(first, first + _CHUNK))
            handle.write(_frames(chunk, first))
