"""Exact-equality oracle for the capture write path.

``write_pcap`` scatters each header field into a chunk's buffer at a fixed
offset from every record's start, record offsets from a cumulative sum of
the frame lengths, and computes the IPv4 and TCP checksums from header word
sums with a vectorised end-around fold, leaving the all-zero payload out.
``synth._add_flow`` makes only a flow's scalar RNG draws per packet, and
``synth._traffic`` builds every packet column from them with numpy.  The
straightforward object-based implementations they replaced are kept here
verbatim as the reference (their record types in packet_records), and the
written bytes (and the generated packets) must compare equal with ``==``.
"""

import socket
import struct
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from flowbundle import synth
from flowbundle.pcap import LINKTYPE_ETHERNET, write_pcap
from flowbundle.synth import TrafficClassSpec, generate, mimicking_scenario

from conftest import address
from packet_records import (
    _TCP_FLAG_BITS,
    TCP_FLAG_NAMES,
    PacketRecord,
    Protocol,
    records_of,
    table_of,
    tcp_packet,
    udp_packet,
)

# ---------------------------------------------------------------------------
# reference implementations, verbatim


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


def reference_write_pcap(packets: list[PacketRecord], path: str | Path) -> None:
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


def _draw_length(rng: np.random.Generator, cls: TrafficClassSpec) -> int:
    raw = rng.normal(cls.pkt_len_mean, cls.pkt_len_std)
    return int(np.clip(round(raw), 60, 1500))


def reference_build_flow(
    rng: np.random.Generator,
    cls: TrafficClassSpec,
    src_ip: str,
    src_port: int,
    dst_ip: str,
    dst_port: int,
    start: float,
) -> list[PacketRecord]:
    if cls.flow_shape == "scan":
        steps = [(True, {"SYN"}), (False, {"RST", "ACK"})]
    elif cls.protocol == "UDP":
        n = int(rng.integers(cls.data_exchanges[0], cls.data_exchanges[1] + 1))
        steps = [(i % 2 == 0, None) for i in range(2 * n + 2)]
    else:
        n = int(rng.integers(cls.data_exchanges[0], cls.data_exchanges[1] + 1))
        steps = (
            [(True, {"SYN"}), (False, {"SYN", "ACK"}), (True, {"ACK"})]
            + [(True, {"PSH", "ACK"}), (False, {"ACK"})] * n
            + [(True, {"FIN", "ACK"}), (False, {"FIN", "ACK"}), (True, {"ACK"})]
        )
    packets = []
    t = start
    for i, (forward, flags) in enumerate(steps):
        if i > 0:
            t += rng.exponential(cls.iat_mean)
        ts = round(t * 1_000_000) / 1_000_000
        length = _draw_length(rng, cls)
        if cls.protocol == "UDP":
            length = max(length, 28)
            proto = Protocol.UDP
            flagset: frozenset[str] = frozenset()
        else:
            proto = Protocol.TCP
            flagset = frozenset(flags or set())
        packets.append(
            PacketRecord(
                timestamp=ts,
                src_ip=src_ip if forward else dst_ip,
                dst_ip=dst_ip if forward else src_ip,
                src_port=src_port if forward else dst_port,
                dst_port=dst_port if forward else src_port,
                protocol=proto,
                ip_total_length=length,
                tcp_flags=flagset,
            )
        )
    return packets


# ---------------------------------------------------------------------------
# helpers


def _assert_same_bytes(packets: list[PacketRecord], tmp_path: Path) -> bytes:
    got, want = tmp_path / "got.pcap", tmp_path / "want.pcap"
    write_pcap(table_of(packets), got)
    reference_write_pcap(packets, want)
    data = got.read_bytes()
    assert data == want.read_bytes()
    return data


def _word_sum(data: bytes) -> int:
    """Sum of the big-endian 16-bit words of ``data``, unfolded."""
    return sum(struct.unpack(f"!{len(data) // 2}H", data))


# ---------------------------------------------------------------------------
# the oracle


class TestWriterOracle:
    """The offset writer's bytes equal the reference writer's bytes."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_synth_capture(self, tmp_path, seed):
        spec = mimicking_scenario(seed, scale="small")
        spec.classes += [
            TrafficClassSpec(label="dns", n_sources=3, flows_per_source=(2, 5),
                             protocol="UDP", iat_mean=0.05),
            TrafficClassSpec(label="probe", n_sources=1, flows_per_source=(4, 6),
                             flow_shape="scan", protocol="UDP",
                             port_pattern="sequential"),
        ]
        packets = records_of(generate(spec).packets)
        assert {p.protocol for p in packets} == {Protocol.TCP, Protocol.UDP}
        _assert_same_bytes(packets, tmp_path)

    def test_extreme_lengths(self, tmp_path):
        packets = []
        for i, length in enumerate((40, 41, 1499, 1500)):
            packets.append(tcp_packet(1.0 + i, length=length, sport=1 + i,
                                      flags=("PSH", "ACK")))
        for i, length in enumerate((28, 29, 1499, 1500)):
            packets.append(udp_packet(10.0 + i, src="255.255.255.254",
                                      dst="0.0.0.1", sport=65535, dport=0,
                                      length=length))
        _assert_same_bytes(packets, tmp_path)

    def test_every_flag_combination(self, tmp_path):
        combos = [
            frozenset(c)
            for size in range(1, len(TCP_FLAG_NAMES) + 1)
            for c in combinations(TCP_FLAG_NAMES, size)
        ]
        assert len(combos) == 63
        packets = [
            tcp_packet(0.5 * i, length=40 + i, flags=tuple(flags))
            for i, flags in enumerate(combos)
        ]
        _assert_same_bytes(packets, tmp_path)

    def test_sums_that_are_multiples_of_0xffff(self, tmp_path):
        # choose the last address word (IPv4) and the source port (TCP) so
        # that each unfolded word sum is a non-zero multiple of 0xFFFF,
        # where the end-around fold gives checksum 0x0000 and a plain
        # ``% 0xFFFF`` would give 0xFFFF
        src = "10.20.30.40"
        length = 41
        partial = _word_sum(struct.pack(
            "!BBHHHBBH4sH", 0x45, 0, length, 0, 0x4000, 64, 6, 0,
            socket.inet_aton(src), 0x0A01,
        ))
        low = -partial % 0xFFFF
        dst = socket.inet_ntoa(struct.pack("!HH", 0x0A01, low))
        pseudo = (_word_sum(socket.inet_aton(src) + socket.inet_aton(dst))
                  + 6 + length - 20 + 80 + 0x5000 + 0x02 + 65535)
        sport = -pseudo % 0xFFFF
        packet = tcp_packet(3.0, src=src, dst=dst, sport=sport, dport=80,
                            length=length, flags=("SYN",))
        data = _assert_same_bytes([packet], tmp_path)
        frame = data[24 + 16:]
        assert frame[14 + 10:14 + 12] == b"\x00\x00"  # IPv4 checksum
        assert frame[34 + 16:34 + 18] == b"\x00\x00"  # TCP checksum

    def test_ip_id_wraps(self, tmp_path):
        length = 45
        base = [
            tcp_packet(0.0, length=length, flags=("ACK",)),
            tcp_packet(0.0, src="10.0.0.2", dst="10.0.0.1", sport=80,
                       dport=40000, length=length, flags=("PSH", "ACK")),
            udp_packet(0.0, length=length),
        ]
        packets = [base[i % 3] for i in range(65_541)]
        path = tmp_path / "wrap.pcap"
        write_pcap(table_of(packets), path)
        data = path.read_bytes()
        record = 16 + 14 + length
        assert len(data) == 24 + len(packets) * record
        for i in range(65_530, 65_541):
            start = 24 + i * record
            frame = _build_frame(packets[i], ip_id=i)
            assert data[start:start + 16] == struct.pack("<IIII", 0, 0, len(frame),
                                                         len(frame))
            assert data[start + 16:start + record] == frame


class TestGeneratorOracle:
    """One flow drawn by `_add_flow` and built by `_traffic` is the packets
    the reference draws, and leaves the RNG where the reference does."""

    @pytest.mark.parametrize("shape, protocol", [
        ("exchange", "TCP"), ("exchange", "UDP"), ("scan", "TCP"), ("scan", "UDP"),
    ])
    def test_build_flow(self, shape, protocol):
        cls = TrafficClassSpec(label="x", n_sources=1, flows_per_source=(1, 1),
                               data_exchanges=(0, 9), flow_shape=shape,
                               protocol=protocol, pkt_len_mean=300.0,
                               pkt_len_std=700.0)
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        for flow in range(40):
            args = ("10.0.0.1", 40000 + flow, "192.168.10.10", 80,
                    synth._BASE_EPOCH + flow)
            drawn = ([], [], [], [])
            src, sport, dst, *rest = args
            synth._add_flow(drawn, got_rng, cls, address(src), sport, address(dst), *rest)
            got = records_of(synth._traffic(drawn).packets)
            want = reference_build_flow(want_rng, cls, *args)
            assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
