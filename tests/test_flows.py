import dataclasses
import math

import numpy as np
import pytest

from flowbundle.flows import assemble_flows
from flowbundle.synth import build_scenario

from conftest import TIMEOUTS, address, flow_packets, packet_table, tcp_packet, udp_packet


def assemble(packets, **timeouts):
    return assemble_flows(packet_table(packets), **{**TIMEOUTS, **timeouts})


def packet_counts(flows):
    return np.diff(flows.bounds).tolist()


def test_single_bidirectional_flow():
    packets = [
        tcp_packet(0.0, src="10.0.0.1", dst="10.0.0.2", sport=1234, dport=80,
                   flags=("SYN",)),
        tcp_packet(1.0, src="10.0.0.2", dst="10.0.0.1", sport=80, dport=1234,
                   flags=("SYN", "ACK")),
    ]
    flows = assemble(packets, idle_timeout=120)
    assert len(flows) == 1
    fwd, bwd = flow_packets(flows, 0)
    assert len(fwd) == 1
    assert len(bwd) == 1
    assert (flows.initiator_ip[0], flows.initiator_port[0]) == (address("10.0.0.1"), 1234)
    assert flows.start_time[0] == 0.0
    assert flows.packets.timestamp[flows.rows[-1]] == 1.0


def test_idle_timeout_splits_flow():
    packets = [tcp_packet(0.0, flags=("ACK",)), tcp_packet(200.0, flags=("ACK",))]
    flows = assemble(packets, idle_timeout=120)
    assert len(flows) == 2
    assert packet_counts(flows) == [1, 1]


def test_active_timeout_splits_long_flow():
    packets = [tcp_packet(t, flags=("ACK",)) for t in (0.0, 50.0, 100.0, 150.0)]
    flows = assemble(packets, idle_timeout=60, active_timeout=120)
    assert packet_counts(flows) == [3, 1]


def test_active_timeout_disabled():
    packets = [tcp_packet(t, flags=("ACK",)) for t in (0.0, 50.0, 100.0, 150.0)]
    flows = assemble(packets, idle_timeout=60, active_timeout=None)
    assert len(flows) == 1


def test_rst_closes_flow():
    packets = [
        tcp_packet(0.0, flags=("SYN",)),
        tcp_packet(1.0, flags=("RST",)),
        tcp_packet(2.0, flags=("SYN",)),
    ]
    flows = assemble(packets, idle_timeout=120)
    assert packet_counts(flows) == [2, 1]


def test_fin_exchange_includes_final_ack_then_closes():
    a = dict(src="10.0.0.1", dst="10.0.0.2", sport=1234, dport=80)
    b = dict(src="10.0.0.2", dst="10.0.0.1", sport=80, dport=1234)
    packets = [
        tcp_packet(0.0, flags=("SYN",), **a),
        tcp_packet(1.0, flags=("FIN", "ACK"), **a),
        tcp_packet(2.0, flags=("FIN", "ACK"), **b),
        tcp_packet(3.0, flags=("ACK",), **a),       # completes the teardown
        tcp_packet(4.0, flags=("PSH", "ACK"), **a),  # new conversation
    ]
    flows = assemble(packets, idle_timeout=120)
    assert packet_counts(flows) == [4, 1]


def test_udp_terminates_by_idle_timeout_only():
    packets = [udp_packet(t) for t in (0.0, 1.0, 2.0)]
    flows = assemble(packets, idle_timeout=120)
    assert len(flows) == 1


def test_key_is_direction_agnostic():
    p1 = tcp_packet(0.0, src="10.0.0.9", dst="10.0.0.1", sport=5555, dport=80)
    p2 = tcp_packet(1.0, src="10.0.0.1", dst="10.0.0.9", sport=80, dport=5555)
    flows = assemble([p1, p2])
    assert len(flows) == 1
    assert flow_packets(flows, 0) == ([p1], [p2])


def test_partition_property(rng):
    packets = []
    t = 0.0
    for _ in range(300):
        t += float(rng.exponential(1.0))
        src = f"10.0.0.{rng.integers(1, 5)}"
        dst = f"10.0.1.{rng.integers(1, 4)}"
        if rng.random() < 0.5:
            packets.append(
                tcp_packet(t, src=src, dst=dst,
                           sport=int(rng.integers(1024, 1030)), dport=80,
                           flags=("ACK",) if rng.random() < 0.9 else ("RST",))
            )
        else:
            packets.append(udp_packet(t, src=src, dst=dst,
                                      sport=int(rng.integers(1024, 1030))))
    flows = assemble(packets, idle_timeout=5.0)
    assert sum(packet_counts(flows)) == len(packets)
    assert sorted(flows.rows.tolist()) == list(range(len(packets)))
    for i in range(len(flows)):
        fwd, bwd = flow_packets(flows, i)
        first = fwd[0].timestamp
        for pkt in fwd + bwd:
            assert pkt.timestamp >= first
        assert flows.start_time[i] == first
        segment = flows.packets.timestamp[flows.rows[flows.bounds[i]:flows.bounds[i + 1]]]
        assert (np.diff(segment) >= 0).all()


def test_every_packet_matches_flow_key(rng):
    traffic = build_scenario("mimicking", seed=1, scale="small")
    flows = assemble_flows(traffic.packets, **TIMEOUTS)
    for i in range(len(flows)):
        initiator = (flows.initiator_ip[i], flows.initiator_port[i])
        responder = (flows.responder_ip[i], flows.responder_port[i])
        fwd, bwd = flow_packets(flows, i)
        for pkt in fwd:
            assert ((pkt.src_ip, pkt.src_port), (pkt.dst_ip, pkt.dst_port)) == (
                initiator, responder)
        for pkt in bwd:
            assert ((pkt.src_ip, pkt.src_port), (pkt.dst_ip, pkt.dst_port)) == (
                responder, initiator)
        for pkt in fwd + bwd:
            assert pkt.protocol == flows.protocol[i]


def test_determinism():
    traffic = build_scenario("mimicking", seed=2, scale="small")
    f1 = assemble_flows(traffic.packets, **TIMEOUTS)
    f2 = assemble_flows(traffic.packets, **TIMEOUTS)
    for name in ("rows", "bounds", "forward", "initiator_ip", "initiator_port",
                 "responder_ip", "responder_port", "protocol", "start_time"):
        assert np.array_equal(getattr(f1, name), getattr(f2, name)), name


def test_unsorted_input_is_sorted_first():
    packets = [tcp_packet(5.0, flags=("ACK",)), tcp_packet(0.0, flags=("SYN",))]
    flows = assemble(packets, idle_timeout=120)
    assert len(flows) == 1
    assert flow_packets(flows, 0)[0][0].tcp_flags == 0x02


def test_assembly_ignores_which_integer_an_address_is(rng):
    # an order-reversing bijection of the addresses swaps which endpoint
    # of most keys is the lower, and changes no flow
    hosts = [f"10.0.{i}.{j}" for i in (0, 1, 255) for j in (1, 2, 200)]
    packets = []
    t = 0.0
    for _ in range(400):
        t += float(rng.exponential(0.5))
        src, dst = (hosts[int(i)] for i in rng.integers(0, len(hosts), 2))
        flags = [("ACK",), ("SYN",), ("FIN", "ACK"), ("RST",)][int(rng.integers(0, 4))]
        packets.append(tcp_packet(t, src=src, dst=dst, sport=int(rng.integers(1024, 1027)),
                                  dport=int(rng.integers(1024, 1027)), flags=flags))
    table = packet_table(packets)
    flipped = dataclasses.replace(table, src_ip=np.uint32(2**32 - 1) - table.src_ip,
                                  dst_ip=np.uint32(2**32 - 1) - table.dst_ip)
    flows, back = (assemble_flows(t, **TIMEOUTS) for t in (table, flipped))
    assert len(flows) > 50 and np.diff(flows.bounds).max() > 2
    for name in ("rows", "bounds", "forward", "initiator_port", "responder_port",
                 "protocol", "start_time"):
        assert np.array_equal(getattr(back, name), getattr(flows, name)), name
    for name in ("initiator_ip", "responder_ip"):
        assert np.array_equal(2**32 - 1 - getattr(back, name).astype(np.int64),
                              getattr(flows, name)), name


def test_fig2_host_a_yields_four_flows():
    traffic = build_scenario("fig2", seed=0)
    flows = assemble_flows(traffic.packets, **TIMEOUTS)
    assert (flows.initiator_ip == address("10.0.0.1")).sum() == 4
    assert len(flows) == 8


def test_bad_timeouts_rejected():
    with pytest.raises(ValueError):
        assemble([], idle_timeout=0)
    with pytest.raises(ValueError):
        assemble([], idle_timeout=120, active_timeout=100)
    # NaN compares false with everything, so flows would never split
    for idle in (math.nan, math.inf):
        with pytest.raises(ValueError, match="idle_timeout"):
            assemble([], idle_timeout=idle, active_timeout=None)
    with pytest.raises(ValueError, match="active_timeout"):
        assemble([], idle_timeout=120, active_timeout=math.nan)


def test_empty_input():
    assert len(assemble([])) == 0
