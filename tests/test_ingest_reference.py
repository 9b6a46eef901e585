"""Exact-equality oracle for the ingest hot loops.

``read_pcap`` gathers the header fields of all of a block's frames at
once, at the offsets each frame's IHL gives, and tests every skip reason
as a mask;
``assemble_flows`` and ``extract_features`` cut flows as row segments of
the packet table and reduce its columns in batches of equal-length
directions.  The straightforward object-based implementations they
replaced are kept here verbatim as the reference (their record types in
packet_records); packets, flows and all 34 statistics must compare equal
with ``==``, not within a tolerance, so a shift in the last bit of any
statistic fails.
"""

import socket
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbundle import features, pcap
from flowbundle.features import _DIRECTION_STATS, extract_features
from flowbundle.flows import assemble_flows
from flowbundle.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    _DTYPES,
    _MAGICS,
    PcapFormatError,
    PcapRead,
    read_pcap,
    write_pcap,
)
from flowbundle.synth import TrafficClassSpec, generate, mimicking_scenario

from conftest import TIMEOUTS, address, flow_segments
from packet_records import (
    _TCP_FLAG_BITS,
    BiFlow,
    FlowKey,
    PacketRecord,
    Protocol,
    biflows_of,
    records_of,
    table_of,
    tcp_packet,
    udp_packet,
)

# ---------------------------------------------------------------------------
# reference implementations, verbatim


def _ref_skip(result: PcapRead, reason: str) -> None:
    result.skipped += 1
    result.skipped_by_reason[reason] = result.skipped_by_reason.get(reason, 0) + 1


def _ref_parse_ipv4(ip_bytes: bytes, timestamp: float, result: PcapRead) -> None:
    if len(ip_bytes) < 20:
        _ref_skip(result, "malformed")
        return
    version = ip_bytes[0] >> 4
    if version != 4:
        _ref_skip(result, "non_ipv4")
        return
    ihl = (ip_bytes[0] & 0x0F) * 4
    if ihl < 20 or len(ip_bytes) < ihl:
        _ref_skip(result, "malformed")
        return
    total_length = struct.unpack_from("!H", ip_bytes, 2)[0]
    frag = struct.unpack_from("!H", ip_bytes, 6)[0]
    if frag & 0x2000 or frag & 0x1FFF:  # MF set or non-zero offset
        _ref_skip(result, "fragment")
        return
    proto = ip_bytes[9]
    if proto not in (Protocol.TCP.value, Protocol.UDP.value):
        _ref_skip(result, "non_tcp_udp")
        return
    src_ip = socket.inet_ntoa(ip_bytes[12:16])
    dst_ip = socket.inet_ntoa(ip_bytes[16:20])
    transport = ip_bytes[ihl:]
    if proto == Protocol.TCP.value:
        if len(transport) < 20 or total_length < ihl + 20:
            _ref_skip(result, "malformed")
            return
        src_port, dst_port = struct.unpack_from("!HH", transport, 0)
        flag_bits = transport[13]
        flags = frozenset(
            name for name, bit in _TCP_FLAG_BITS.items() if flag_bits & bit
        )
        if not flags:
            # null-flag TCP segments have no representation downstream
            _ref_skip(result, "malformed")
            return
        record = PacketRecord(
            timestamp=timestamp,
            src_ip=src_ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
            protocol=Protocol.TCP,
            ip_total_length=total_length,
            tcp_flags=flags,
        )
    else:
        if len(transport) < 8 or total_length < ihl + 8:
            _ref_skip(result, "malformed")
            return
        src_port, dst_port = struct.unpack_from("!HH", transport, 0)
        record = PacketRecord(
            timestamp=timestamp,
            src_ip=src_ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
            protocol=Protocol.UDP,
            ip_total_length=total_length,
        )
    result.packets.append(record)


def reference_read_pcap(path: str | Path) -> PcapRead:
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
    offset = 24
    rec_header = struct.Struct(order + "IIII")
    while offset < len(data):
        if offset + 16 > len(data):
            raise PcapFormatError(
                f"{path}: truncated record header at byte offset {offset}"
            )
        ts_sec, ts_frac, incl_len, _orig_len = rec_header.unpack_from(data, offset)
        frame_start = offset + 16
        if frame_start + incl_len > len(data):
            raise PcapFormatError(
                f"{path}: truncated packet data at byte offset {frame_start} "
                f"(need {incl_len} bytes)"
            )
        timestamp = (ts_sec * ticks + ts_frac) / ticks
        frame = data[frame_start : frame_start + incl_len]
        if link_type == LINKTYPE_ETHERNET:
            if len(frame) < 14:
                _ref_skip(result, "malformed")
            else:
                ethertype = struct.unpack_from("!H", frame, 12)[0]
                if ethertype == 0x8100:
                    _ref_skip(result, "vlan")
                elif ethertype != 0x0800:
                    _ref_skip(result, "non_ipv4")
                else:
                    _ref_parse_ipv4(frame[14:], timestamp, result)
        else:
            _ref_parse_ipv4(frame, timestamp, result)
        offset = frame_start + incl_len
    return result


class _RefOpenFlow:
    __slots__ = ("flow", "last_ts", "fin_fwd", "fin_bwd", "closed")

    def __init__(self, flow: BiFlow):
        self.flow = flow
        self.last_ts = flow.start_time
        self.fin_fwd = False
        self.fin_bwd = False
        self.closed = False

    def add(self, packet: PacketRecord) -> None:
        flow = self.flow
        forward = (packet.src_ip, packet.src_port) == flow.initiator
        (flow.fwd_packets if forward else flow.bwd_packets).append(packet)
        flow.end_time = max(flow.end_time, packet.timestamp)
        self.last_ts = packet.timestamp

        fin_exchange_done = self.fin_fwd and self.fin_bwd
        if "RST" in packet.tcp_flags:
            self.closed = True
        elif fin_exchange_done:
            # this packet (typically the final ACK) completes the teardown
            self.closed = True
        if "FIN" in packet.tcp_flags:
            if forward:
                self.fin_fwd = True
            else:
                self.fin_bwd = True


def reference_assemble_flows(packets, idle_timeout=120.0, active_timeout=1800.0):
    ordered = sorted(packets, key=lambda p: p.timestamp)
    flows: list[BiFlow] = []
    active: dict[FlowKey, _RefOpenFlow] = {}

    for packet in ordered:
        key = FlowKey.from_packet(packet)
        open_flow = active.get(key)
        if open_flow is not None:
            expired = (
                open_flow.closed
                or packet.timestamp - open_flow.last_ts > idle_timeout
                or (
                    active_timeout is not None
                    and packet.timestamp - open_flow.flow.start_time > active_timeout
                )
            )
            if expired:
                del active[key]
                open_flow = None
        if open_flow is None:
            flow = BiFlow(
                key=key,
                initiator=(packet.src_ip, packet.src_port),
                responder=(packet.dst_ip, packet.dst_port),
                start_time=packet.timestamp,
                end_time=packet.timestamp,
            )
            flows.append(flow)
            open_flow = _RefOpenFlow(flow)
            active[key] = open_flow
        open_flow.add(packet)

    return flows


def reference_direction_stats(packets):
    stats = {name: 0.0 for name in _DIRECTION_STATS}
    if not packets:
        return stats
    lengths = np.array([p.ip_total_length for p in packets], dtype=float)
    times = np.array([p.timestamp for p in packets], dtype=float)

    stats["pkt_count"] = float(len(packets))
    stats["byte_count"] = float(lengths.sum())
    stats["pkt_len_mean"] = float(lengths.mean())
    stats["pkt_len_std"] = float(lengths.std())  # population std
    stats["pkt_len_min"] = float(lengths.min())
    stats["pkt_len_max"] = float(lengths.max())

    if len(packets) >= 2:
        iats = np.diff(times)
        stats["iat_mean"] = float(iats.mean())
        stats["iat_std"] = float(iats.std())
        stats["iat_min"] = float(iats.min())
        stats["iat_max"] = float(iats.max())
        # offsets of every successive packet from the direction's first
        stats["time_from_first_mean"] = float((times[1:] - times[0]).mean())

    for flag in ("syn", "ack", "fin", "rst", "psh", "urg"):
        name = flag.upper()
        stats[f"flag_{flag}_count"] = float(
            sum(1 for p in packets if name in p.tcp_flags)
        )
    return stats


# ---------------------------------------------------------------------------
# helpers


def _assert_same_read(path):
    """The reference's read, after checking the table read equals it."""
    got, want = read_pcap(path), reference_read_pcap(path)
    assert records_of(got.packets) == want.packets
    assert [c.dtype for c in vars(got.packets).values()] == list(map(np.dtype, _DTYPES))
    assert got.link_type == want.link_type
    assert got.skipped == want.skipped
    assert got.skipped_by_reason == want.skipped_by_reason
    return want


def _assert_same_stats(flows):
    """extract_features over one table of (fwd, bwd) record lists equals the
    reference's statistics of each direction, compared with ``==``."""
    segments = flow_segments([(list(table_of(fwd)), list(table_of(bwd)))
                              for fwd, bwd in flows])
    got = extract_features(segments)
    assert got.dtype == np.float64 and got.shape == (len(flows), 2 * len(_DIRECTION_STATS))
    for row, (fwd, bwd) in zip(got.tolist(), flows):
        want = reference_direction_stats(fwd), reference_direction_stats(bwd)
        assert list(want[0]) == list(_DIRECTION_STATS)
        assert row == [*want[0].values(), *want[1].values()]


def _random_direction(rng, n, epoch):
    """n TCP records in time order, with runs of equal timestamps."""
    flag_pool = ["SYN", "ACK", "FIN", "RST", "PSH", "URG"]
    times = np.sort(epoch + rng.exponential(0.3, size=n).cumsum())
    times[rng.random(n) < 0.3] = times[0] if n else 0.0
    times.sort()
    return [
        tcp_packet(
            float(round(t, 6)),
            length=int(rng.integers(40, 1500)),
            flags=[str(f) for f in rng.choice(
                flag_pool, size=int(rng.integers(1, 4)), replace=False)],
        )
        for t in times
    ]


def _paired(directions):
    """One flow per direction list, paired with the list as far from it in
    ``directions`` as possible, so every list is read forward and backward
    and no flow is empty while some list is not."""
    return list(zip(directions, reversed(directions)))


def _assert_same_flows(packets, **timeouts):
    """The flow segments and the reference's BiFlows, after checking they
    hold the same flows."""
    got = assemble_flows(table_of(packets), **{**TIMEOUTS, **timeouts})
    want = reference_assemble_flows(packets, **timeouts)
    assert biflows_of(got) == want
    return got, want


def _frame(payload, ethertype=0x0800):
    return bytes(12) + struct.pack("!H", ethertype) + payload


def _ipv4(proto, total_length, transport, ihl=5, version=4, frag=0,
          src="10.0.0.9", dst="10.0.0.10"):
    header = struct.pack(
        "!BBHHHBBH4s4s", version << 4 | ihl, 0, total_length, 1, frag, 64, proto, 0,
        socket.inet_aton(src), socket.inet_aton(dst),
    )
    return header + bytes(max(0, 4 * ihl - 20)) + transport


def _tcp(sport, dport, flag_bits):
    return struct.pack("!HHIIBBHHH", sport, dport, 0, 0, 5 << 4, flag_bits, 8192, 0, 0)


def _pcap_bytes(records, order="<", magic=0xA1B2C3D4, link=LINKTYPE_ETHERNET):
    out = [struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, link)]
    for ts_sec, ts_frac, frame in records:
        out += [struct.pack(order + "IIII", ts_sec, ts_frac, len(frame), len(frame)), frame]
    return b"".join(out)


def _odd_frames():
    """One frame per skip reason and per accepted variant, in file order."""
    udp = struct.pack("!HHHH", 53, 40000, 8, 0)
    return [
        _frame(_ipv4(6, 40, _tcp(1234, 80, 0x02))),                # SYN
        _frame(_ipv4(6, 60, _tcp(80, 1234, 0xFF) + bytes(20))),    # every flag bit
        _frame(_ipv4(6, 40, _tcp(80, 1234, 0xC0))),                # only ECE/CWR
        _frame(_ipv4(6, 44, _tcp(1, 2, 0x10), ihl=6)),            # IP options
        _frame(_ipv4(6, 80, _tcp(3, 4, 0x18), ihl=15)),           # 40 option bytes
        _frame(_ipv4(17, 68, udp, ihl=15)),                        # 40 option bytes
        _frame(_ipv4(6, 52, _tcp(1, 2, 0x11), ihl=15)[:50]),       # IHL past the end
        _frame(_ipv4(6, 30, _tcp(1, 2, 0x10))),                    # total length short
        _frame(_ipv4(6, 40, _tcp(1, 2, 0x10)[:12])),               # TCP header cut
        _frame(_ipv4(6, 40, _tcp(1, 2, 0x10)[:19])),               # one byte short
        _frame(_ipv4(6, 39, _tcp(1, 2, 0x10))),                    # TCP total short
        _frame(_ipv4(17, 28, udp)),
        _frame(_ipv4(17, 27, udp)),                                # UDP total short
        _frame(_ipv4(17, 28, udp[:6])),                            # UDP header cut
        _frame(_ipv4(17, 28, udp[:7])),                            # one byte short
        _frame(_ipv4(17, 28, udp, frag=0x2000)),                   # MF
        _frame(_ipv4(6, 40, _tcp(1, 2, 0x10), frag=0x0001)),       # offset
        _frame(_ipv4(6, 40, _tcp(1, 2, 0x10), frag=0x4000)),       # DF only
        _frame(_ipv4(1, 28, bytes(8))),                            # ICMP
        _frame(_ipv4(6, 40, _tcp(1, 2, 0x10), version=6)),
        _frame(_ipv4(6, 40, _tcp(1, 2, 0x10), ihl=4)),
        _frame(_ipv4(6, 40, _tcp(1, 2, 0x10))[:19]),               # IP header cut
        _frame(bytes(40), ethertype=0x86DD),
        _frame(bytes(20), ethertype=0x8100),
        bytes(13),                                                 # Ethernet cut
        # frames failing more than one test, counted under the first one
        _frame(b"", ethertype=0x8100),                             # VLAN, no IP
        _frame(b"\x60" + bytes(10)),                               # cut, not IPv4
        _frame(_ipv4(6, 40, _tcp(1, 2, 0x10), version=6, ihl=4)),  # not IPv4, bad IHL
        _frame(_ipv4(17, 28, udp, ihl=4, frag=0x2000)),            # bad IHL, MF
        _frame(_ipv4(1, 28, bytes(8), frag=0x2000)),               # MF, ICMP
        _frame(_ipv4(6, 30, _tcp(1, 2, 0x10)[:4], frag=0x0001)),   # offset, TCP cut
        _frame(_ipv4(1, 20, b"")),                                 # ICMP, no transport
        # transport tests behind 40 option bytes
        _frame(_ipv4(6, 79, _tcp(1, 2, 0x10), ihl=15)),            # TCP total short
        _frame(_ipv4(17, 68, udp[:7], ihl=15)),                    # UDP header cut
        _frame(_ipv4(6, 80, _tcp(1, 2, 0x00), ihl=15)),            # no flags
        _frame(_ipv4(6, 40, _tcp(1, 2, 0x10), src="10.0.0.10", dst="10.0.0.9")),
    ]


# ---------------------------------------------------------------------------
# the oracle


class TestReferenceOracle:
    """The rewritten ingest loops equal the reference implementations."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_synth_capture(self, tmp_path, seed):
        spec = mimicking_scenario(seed, scale="small")
        spec.classes.append(
            TrafficClassSpec(label="dns", n_sources=3, flows_per_source=(2, 5),
                             protocol="UDP", iat_mean=0.05)
        )
        path = tmp_path / "capture.pcap"
        write_pcap(generate(spec).packets, path)
        capture = _assert_same_read(path)
        assert capture.skipped == 0
        segments, flows = _assert_same_flows(capture.packets)
        assert {f.key.protocol for f in flows} == {Protocol.TCP, Protocol.UDP}
        assert max(len(f.fwd_packets) for f in flows) >= 9
        table = extract_features(segments)
        for index, flow in enumerate(flows):
            want = {}
            for direction, packets in (("fwd", flow.fwd_packets),
                                       ("bwd", flow.bwd_packets)):
                for stat, value in reference_direction_stats(packets).items():
                    want[f"{direction}_{stat}"] = value
            assert list(want) == features.FLOW_FEATURE_NAMES
            assert table[index].tolist() == list(want.values())

    @pytest.mark.parametrize(
        "order, magic, ticks",
        [("<", 0xA1B2C3D4, 10**6), (">", 0xA1B2C3D4, 10**6), ("<", 0xA1B23C4D, 10**9)],
    )
    def test_skip_reasons_and_variants(self, tmp_path, order, magic, ticks):
        records = [
            (1_500_000_000 + i, i * 7919 % ticks, frame)
            for i, frame in enumerate(_odd_frames())
        ]
        path = tmp_path / "odd.pcap"
        path.write_bytes(_pcap_bytes(records, order=order, magic=magic))
        capture = _assert_same_read(path)
        assert set(capture.skipped_by_reason) == {
            "malformed", "fragment", "non_tcp_udp", "non_ipv4", "vlan"
        }
        assert len(capture.packets) == 8

    def test_raw_ip_link_type(self, tmp_path):
        records = [(i, 0, f[14:]) for i, f in enumerate(_odd_frames()) if len(f) > 14]
        path = tmp_path / "raw.pcap"
        path.write_bytes(_pcap_bytes(records, link=LINKTYPE_RAW_IP))
        _assert_same_read(path)

    @pytest.mark.parametrize("order", ["<", ">"])
    def test_nanosecond_epoch_timestamps(self, tmp_path, order):
        rng = np.random.default_rng(3)
        frame = _frame(_ipv4(6, 40, _tcp(1234, 80, 0x10)))
        stamps = [(int(sec), int(frac)) for sec, frac in zip(
            rng.integers(1_000_000_000, 2**32, size=3000), rng.integers(0, 10**9, size=3000))]
        # where rounding the stamp to float64 first changes the quotient
        assert any(float(a) / 10**9 != a / 10**9 for a in (s * 10**9 + f for s, f in stamps))
        path = tmp_path / "nano.pcap"
        path.write_bytes(_pcap_bytes([(s, f, frame) for s, f in stamps], order=order,
                                     magic=0xA1B23C4D))
        capture = _assert_same_read(path)
        assert [p.timestamp for p in capture.packets] == [
            (s * 10**9 + f) / 10**9 for s, f in stamps
        ]

    @pytest.mark.parametrize(
        "order, link", [("<", LINKTYPE_ETHERNET), (">", LINKTYPE_ETHERNET),
                        ("<", LINKTYPE_RAW_IP)],
    )
    def test_odd_frames_between_plain_frames(self, tmp_path, order, link):
        path = tmp_path / "synth.pcap"
        write_pcap(generate(mimicking_scenario(1, scale="small")).packets, path)
        data, records, offset = path.read_bytes(), [], 24
        while offset < len(data):
            ts_sec, ts_frac, incl_len, _ = struct.unpack_from("<IIII", data, offset)
            records.append((ts_sec, ts_frac, data[offset + 16:offset + 16 + incl_len]))
            offset += 16 + incl_len
        odd = _odd_frames()
        # each odd frame after a plain one, cycling, so both paths interleave
        mixed = []
        for i, (ts_sec, ts_frac, frame) in enumerate(records):
            mixed += [(ts_sec, ts_frac, frame), (ts_sec, ts_frac, odd[i % len(odd)])]
        if link == LINKTYPE_RAW_IP:
            mixed = [(s, f, frame[14:]) for s, f, frame in mixed if len(frame) > 14]
        path.write_bytes(_pcap_bytes(mixed, order=order, link=link))
        capture = _assert_same_read(path)
        assert capture.skipped and len(capture.packets) > len(records)

    def test_frame_in_the_last_header_width(self, tmp_path):
        # a VLAN frame whose bytes from offset 6 on read as an Ethernet
        # IPv4/UDP header: fields read 6 bytes early, as from a window
        # that ends at the end of the file, would make it a plain packet
        lookalike = bytearray(42)
        lookalike[6:12] = b"\x08\x00\x45\x00\x00\x1c"
        lookalike[12:14] = b"\x81\x00"
        lookalike[17] = 17
        path = tmp_path / "tail.pcap"
        path.write_bytes(_pcap_bytes([(0, 0, _odd_frames()[0]), (1, 0, bytes(lookalike))]))
        assert _assert_same_read(path).skipped_by_reason == {"vlan": 1}

    @pytest.mark.parametrize("link", [LINKTYPE_ETHERNET, LINKTYPE_RAW_IP])
    def test_widest_header_last(self, tmp_path, link):
        # ports and flags are gathered behind the IHL a frame's first IP byte
        # gives, up to 60 bytes: the last record's reach into the spare tail
        # past the block, whether its header is all there or cut after 1 byte
        widest = _frame(_ipv4(6, 80, _tcp(5, 6, 0x11), ihl=15))
        strip = 14 if link == LINKTYPE_RAW_IP else 0
        path = tmp_path / "widest.pcap"
        path.write_bytes(_pcap_bytes([(0, 0, widest[strip:])], link=link))
        packets = _assert_same_read(path).packets
        assert [(p.src_port, p.dst_port, p.tcp_flags) for p in packets] == [
            (5, 6, frozenset({"FIN", "ACK"}))]
        path.write_bytes(_pcap_bytes([(0, 0, widest[strip:]), (1, 0, widest[strip:15])],
                                     link=link))
        assert _assert_same_read(path).skipped_by_reason == {"malformed": 1}

    @pytest.mark.parametrize("cut", [1, 10, 60, 65])
    def test_truncation_errors(self, tmp_path, cut):
        data = _pcap_bytes([(0, 0, f) for f in _odd_frames()[:3]])
        path = tmp_path / "cut.pcap"
        path.write_bytes(data[:-cut])
        with pytest.raises(PcapFormatError) as got:
            read_pcap(path)
        with pytest.raises(PcapFormatError) as want:
            reference_read_pcap(path)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("block", [1, 60, 1000])
    def test_small_read_blocks(self, tmp_path, monkeypatch, block):
        # records straddle the blocks, and some are longer than one block
        monkeypatch.setattr(pcap, "_READ_BYTES", block)
        plain = _frame(_ipv4(6, 40, _tcp(1234, 80, 0x10)))
        frames = [frame for odd in _odd_frames() for frame in (plain, odd)]
        data = _pcap_bytes([(i, i, frame) for i, frame in enumerate(frames)])
        path = tmp_path / "blocks.pcap"
        path.write_bytes(data)
        assert len(_assert_same_read(path).packets) > len(_odd_frames())
        for cut in (1, 10, 60, 65):
            path.write_bytes(data[:-cut])
            with pytest.raises(PcapFormatError) as got:
                read_pcap(path)
            with pytest.raises(PcapFormatError) as want:
                reference_read_pcap(path)
            assert str(got.value) == str(want.value)

    def test_options_and_plain_frames_agree(self, tmp_path):
        # frames with IPv4 options (IHL 6) have their ports and flags read
        # further into the frame than plain ones: both give one host pair
        # the same addresses and ports
        a, b = "192.168.10.10", "10.20.0.255"  # one above 2**31, one below
        out, back = dict(src=a, dst=b), dict(src=b, dst=a)
        frames = [
            _frame(_ipv4(6, 40, _tcp(40000, 80, 0x02), **out)),
            _frame(_ipv4(6, 44, _tcp(80, 40000, 0x12), ihl=6, **back)),
            _frame(_ipv4(6, 44, _tcp(40000, 80, 0x10), ihl=6, **out)),
            _frame(_ipv4(6, 40, _tcp(80, 40000, 0x18), **back)),
        ]
        path = tmp_path / "options.pcap"
        path.write_bytes(_pcap_bytes([(1, i, frame) for i, frame in enumerate(frames)]))
        assert len(_assert_same_read(path).packets) == 4
        packets = read_pcap(path).packets
        a, b = address(a), address(b)
        assert packets.src_ip.tolist() == [a, b, a, b]
        assert packets.dst_ip.tolist() == [b, a, b, a]
        flows = assemble_flows(packets, **TIMEOUTS)
        assert np.diff(flows.bounds).tolist() == [4]
        assert (flows.initiator_ip.tolist(), flows.responder_ip.tolist()) == ([a], [b])
        tables = (packets, packets.take([3, 0]), generate(mimicking_scenario(0, "small")).packets)
        for table in tables:
            assert (table.src_ip.dtype, table.dst_ip.dtype) == (np.uint32, np.uint32)
        assert (flows.initiator_ip.dtype, flows.responder_ip.dtype) == (np.uint32, np.uint32)

    def test_random_directions(self):
        rng = np.random.default_rng(7)
        directions = []
        for n in list(range(0, 40)) + [127, 128, 129, 300]:
            for epoch in (0.0, 1.5e9):
                packets = _random_direction(rng, n, epoch)
                directions += [packets, [udp_packet(p.timestamp, length=p.ip_total_length)
                                         for p in packets]]
        _assert_same_stats(_paired(directions))

    def test_direction_lengths_in_one_table(self):
        # around numpy's 8-wide unrolled and 128-long pairwise summation blocks
        rng = np.random.default_rng(15)
        directions = [_random_direction(rng, n, epoch)
                      for n in (0, 1, 2, 7, 8, 9, 127, 128, 129, 1000)
                      for epoch in (0.0, 1.5e9, 1.5e9)]
        _assert_same_stats(_paired(directions))

    @pytest.mark.parametrize(
        "timeouts",
        [{}, {"idle_timeout": 0.5, "active_timeout": 2.0},
         {"idle_timeout": 1.0, "active_timeout": None}],
    )
    def test_random_flow_assembly(self, timeouts):
        rng = np.random.default_rng(11)
        # addresses whose string order differs from their numeric order
        hosts = ["10.0.0.9", "10.0.0.10", "10.0.0.100", "9.255.0.1", "192.168.1.2"]
        flag_sets = [("SYN",), ("ACK",), ("FIN", "ACK"), ("RST",), ("PSH", "ACK")]
        packets = []
        for _ in range(3000):
            a, b = rng.choice(len(hosts), size=2)
            sport, dport = (int(p) for p in rng.choice([80, 443, 1000, 40000], size=2))
            t = float(round(rng.uniform(0, 30) * 4) / 4)  # many equal timestamps
            if rng.random() < 0.2:
                packets.append(udp_packet(t, src=hosts[a], dst=hosts[b],
                                          sport=sport, dport=dport))
            else:
                packets.append(tcp_packet(t, src=hosts[a], dst=hosts[b], sport=sport,
                                          dport=dport,
                                          flags=flag_sets[int(rng.integers(0, 5))]))
        _, flows = _assert_same_flows(packets, **timeouts)
        assert len(flows) > 50

    @pytest.mark.parametrize("start, active, end, flows", [
        (0.1, 0.2, 0.30000000000000004, 2),  # end - start > active, end <= start + active
        (0.2, 0.7, 0.9, 1),                  # end - start <= active, end > start + active
    ])
    def test_active_timeout_from_flow_start(self, start, active, end, flows):
        assert (end - start > active) != (end > start + active)
        packets = [tcp_packet(t) for t in (start, (start + end) / 2, end)]
        _, want = _assert_same_flows(packets, idle_timeout=0.75 * active, active_timeout=active)
        assert len(want) == flows

    @given(
        packets=st.lists(st.tuples(
            st.integers(0, 40),  # quarter seconds, so many timestamps are equal
            # string order differs from numeric order; few endpoints, so
            # keys repeat and src == dst is common
            st.sampled_from(["10.0.0.9", "10.0.0.10"]),
            st.sampled_from(["10.0.0.9", "10.0.0.10"]),
            st.sampled_from([1, 2]),
            st.sampled_from([1, 2]),
            st.sampled_from([None, ("ACK",), ("ACK",), ("FIN",), ("FIN", "ACK"), ("RST",),
                             ("FIN", "RST"), ("SYN",)]),  # None: UDP
        ), max_size=80),
        timeouts=st.sampled_from([{}, {"idle_timeout": 0.5, "active_timeout": 1.0},
                                  {"idle_timeout": 1.0, "active_timeout": None},
                                  {"idle_timeout": 0.25, "active_timeout": 0.75}]),
    )
    @settings(max_examples=100, deadline=None)
    def test_flow_assembly_property(self, packets, timeouts):
        records = [
            udp_packet(t / 4, src, dst, sport, dport) if flags is None
            else tcp_packet(t / 4, src, dst, sport, dport, flags=flags)
            for t, src, dst, sport, dport, flags in packets
        ]
        _assert_same_flows(records, **timeouts)
