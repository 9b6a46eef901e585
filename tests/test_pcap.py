import struct

import pytest

from flowbundle.pcap import PcapFormatError, read_pcap, write_pcap
from flowbundle.synth import build_scenario

from conftest import packet_table, tcp_packet, udp_packet


def _ipv4_tcp_frame(src, dst, sport, dport, total_length=60, flags=0x02):
    import socket

    payload = bytes(total_length - 40)
    tcp = struct.pack("!HHIIBBHHH", sport, dport, 0, 0, 5 << 4, flags, 8192, 0, 0)
    ip = struct.pack(
        "!BBHHHBBH4s4s",
        0x45, 0, total_length, 1, 0, 64, 6, 0,
        socket.inet_aton(src), socket.inet_aton(dst),
    )
    eth = bytes(6) + bytes(6) + struct.pack("!H", 0x0800)
    return eth + ip + tcp + payload


def _pcap_bytes(records, order="<", magic=0xA1B2C3D4, link=1):
    out = struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, link)
    for ts_sec, ts_frac, frame in records:
        out += struct.pack(order + "IIII", ts_sec, ts_frac, len(frame), len(frame))
        out += frame
    return out


class TestReadPcap:
    def test_single_syn_packet(self, tmp_path):
        pkt = tcp_packet(1.5, length=60, flags=("SYN",))
        path = tmp_path / "one.pcap"
        write_pcap(packet_table([pkt]), path)
        result = read_pcap(path)
        assert len(result.packets) == 1
        assert list(result.packets) == [pkt]
        assert result.packets.tcp_flags[0] == 0x02
        assert result.packets.ip_total_length[0] == 60
        assert result.skipped == 0

    def test_arp_frame_skipped(self, tmp_path):
        tcp_frame = _ipv4_tcp_frame("1.2.3.4", "5.6.7.8", 1234, 80)
        arp_frame = bytes(6) + bytes(6) + struct.pack("!H", 0x0806) + bytes(28)
        path = tmp_path / "mixed.pcap"
        path.write_bytes(_pcap_bytes([(0, 0, tcp_frame), (1, 0, arp_frame)]))
        result = read_pcap(path)
        assert len(result.packets) == 1
        assert result.skipped == 1
        assert result.skipped_by_reason == {"non_ipv4": 1}

    def test_synth_round_trip_three_packets(self, tmp_path):
        packets = [
            tcp_packet(10.000001, flags=("SYN",)),
            tcp_packet(10.100002, src="10.0.0.2", dst="10.0.0.1",
                       sport=80, dport=40000, flags=("SYN", "ACK")),
            udp_packet(10.200003),
        ]
        path = tmp_path / "three.pcap"
        write_pcap(packet_table(packets), path)
        result = read_pcap(path)
        assert list(result.packets) == packets
        assert result.skipped == 0

    def test_big_endian_and_nanosecond_magics(self, tmp_path):
        frame = _ipv4_tcp_frame("1.2.3.4", "5.6.7.8", 1, 2)
        be = tmp_path / "be.pcap"
        be.write_bytes(_pcap_bytes([(3, 500000, frame)], order=">"))
        result = read_pcap(be)
        assert result.packets.timestamp[0] == 3.5

        nano = tmp_path / "nano.pcap"
        nano.write_bytes(_pcap_bytes([(3, 500_000_000, frame)], magic=0xA1B23C4D))
        result = read_pcap(nano)
        assert result.packets.timestamp[0] == 3.5

    @pytest.mark.parametrize("magic, ticks, stamps", [
        # 0 and the largest microsecond stamp
        (0xA1B2C3D4, 10**6, [0, (2**32 - 1) * 10**6 + 999_999]),
        # the largest stamp that is an exact double; then, past it, one that
        # float64 division would round differently, and the largest
        (0xA1B23C4D, 10**9, [0, 2**53 - 1]),
        (0xA1B23C4D, 10**9, [2**53 - 1, 3_280_387_012_273_878_287,
                             (2**32 - 1) * 10**9 + 999_999_999]),
    ])
    def test_timestamps_round_as_exact_division(self, tmp_path, magic, ticks, stamps):
        frame = _ipv4_tcp_frame("1.2.3.4", "5.6.7.8", 1, 2)
        records = [(*divmod(stamp, ticks), frame) for stamp in stamps]
        path = tmp_path / "stamps.pcap"
        path.write_bytes(_pcap_bytes(records, magic=magic))
        # Python's int division is correctly rounded
        assert read_pcap(path).packets.timestamp.tolist() == [s / ticks for s in stamps]

    def test_raw_ip_link_type(self, tmp_path):
        frame = _ipv4_tcp_frame("1.2.3.4", "5.6.7.8", 1, 2)[14:]
        path = tmp_path / "raw.pcap"
        path.write_bytes(_pcap_bytes([(0, 0, frame)], link=101))
        result = read_pcap(path)
        assert len(result.packets) == 1
        assert result.link_type == 101

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 32)
        with pytest.raises(PcapFormatError, match="bad magic"):
            read_pcap(path)

    def test_truncated_record_names_offset(self, tmp_path):
        frame = _ipv4_tcp_frame("1.2.3.4", "5.6.7.8", 1, 2)
        data = _pcap_bytes([(0, 0, frame)])
        path = tmp_path / "cut.pcap"
        path.write_bytes(data[:-10])
        with pytest.raises(PcapFormatError, match="byte offset 40"):
            read_pcap(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.pcap"
        path.write_bytes(b"\xd4\xc3\xb2\xa1short")
        with pytest.raises(PcapFormatError, match="too short"):
            read_pcap(path)

    def test_unsupported_link_type(self, tmp_path):
        path = tmp_path / "null.pcap"
        path.write_bytes(_pcap_bytes([], link=0))
        with pytest.raises(PcapFormatError, match="link type 0"):
            read_pcap(path)

    def test_skip_reasons(self, tmp_path):
        import socket as so

        def ip_frame(proto, frag=0):
            ip = struct.pack(
                "!BBHHHBBH4s4s", 0x45, 0, 28, 1, frag, 64, proto, 0,
                so.inet_aton("1.1.1.1"), so.inet_aton("2.2.2.2"),
            ) + bytes(8)
            return bytes(12) + struct.pack("!H", 0x0800) + ip

        ipv6 = bytes(12) + struct.pack("!H", 0x86DD) + bytes(40)
        vlan = bytes(12) + struct.pack("!H", 0x8100) + bytes(20)
        icmp = ip_frame(1)
        fragment = ip_frame(6, frag=0x2000)
        path = tmp_path / "skips.pcap"
        path.write_bytes(
            _pcap_bytes([(0, 0, ipv6), (1, 0, vlan), (2, 0, icmp), (3, 0, fragment)])
        )
        result = read_pcap(path)
        assert len(result.packets) == 0
        assert result.skipped == 4
        assert result.skipped_by_reason == {
            "non_ipv4": 1,
            "vlan": 1,
            "non_tcp_udp": 1,
            "fragment": 1,
        }

    def test_file_order_preserved_regardless_of_timestamps(self, tmp_path):
        f1 = _ipv4_tcp_frame("1.2.3.4", "5.6.7.8", 10, 20)
        f2 = _ipv4_tcp_frame("1.2.3.4", "5.6.7.8", 30, 40)
        path = tmp_path / "order.pcap"
        path.write_bytes(_pcap_bytes([(5, 0, f1), (1, 0, f2)]))
        result = read_pcap(path)
        assert result.packets.src_port.tolist() == [10, 30]
        assert result.packets.timestamp[0] > result.packets.timestamp[1]


class TestWritePcap:
    def test_empty_sequence_is_header_only(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_pcap(packet_table([]), path)
        assert path.stat().st_size == 24
        assert len(read_pcap(path).packets) == 0

    def test_unsorted_input_rejected(self, tmp_path):
        packets = packet_table([tcp_packet(2.0), tcp_packet(1.0)])
        with pytest.raises(ValueError, match="sorted"):
            write_pcap(packets, tmp_path / "x.pcap")

    def test_scenario_round_trip_no_skips(self, tmp_path):
        traffic = build_scenario("mimicking", seed=3, scale="small")
        path = tmp_path / "scenario.pcap"
        write_pcap(traffic.packets, path)
        result = read_pcap(path)
        assert result.skipped == 0
        assert list(result.packets) == list(traffic.packets)

    def test_checksums_verify(self, tmp_path):
        """RFC 1071: the one's-complement sum over a header (or pseudo-header
        and segment) that carries its checksum is 0xFFFF."""

        def ones_sum(data: bytes) -> int:
            if len(data) % 2:
                data += b"\x00"
            total = sum(struct.unpack(f"!{len(data) // 2}H", data))
            while total >> 16:
                total = (total & 0xFFFF) + (total >> 16)
            return total

        traffic = build_scenario("full", seed=1, scale="small")
        packets = list(traffic.packets) + [
            tcp_packet(2e9, length=length, flags=("FIN", "PSH", "URG"))
            for length in (40, 41, 1499, 1500)
        ] + [udp_packet(2e9, length=length) for length in (28, 29, 1499, 1500)]
        path = tmp_path / "sums.pcap"
        write_pcap(packet_table(packets), path)
        data = path.read_bytes()
        offset, seen = 24, 0
        while offset < len(data):
            incl_len = struct.unpack_from("<I", data, offset + 8)[0]
            ip = data[offset + 16 + 14:offset + 16 + incl_len]
            offset += 16 + incl_len
            seen += 1
            total_length = struct.unpack_from("!H", ip, 2)[0]
            assert len(ip) == total_length
            assert ones_sum(ip[:20]) == 0xFFFF
            if ip[9] == 6:
                pseudo = ip[12:20] + struct.pack("!BBH", 0, 6, total_length - 20)
                assert ones_sum(pseudo + ip[20:]) == 0xFFFF
            else:
                assert ip[9] == 17
                assert struct.unpack_from("!HH", ip, 24) == (total_length - 20, 0)
        assert seen == len(packets)

