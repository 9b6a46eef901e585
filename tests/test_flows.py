import pytest

from flowbundle.flows import FlowKey, assemble_flows
from flowbundle.synth import build_scenario

from conftest import tcp_packet, udp_packet


def packet_count(flow):
    return len(flow.fwd_packets) + len(flow.bwd_packets)


def test_single_bidirectional_flow():
    packets = [
        tcp_packet(0.0, src="10.0.0.1", dst="10.0.0.2", sport=1234, dport=80,
                   flags=("SYN",)),
        tcp_packet(1.0, src="10.0.0.2", dst="10.0.0.1", sport=80, dport=1234,
                   flags=("SYN", "ACK")),
    ]
    flows = assemble_flows(packets, idle_timeout=120)
    assert len(flows) == 1
    flow = flows[0]
    assert len(flow.fwd_packets) == 1
    assert len(flow.bwd_packets) == 1
    assert flow.initiator == ("10.0.0.1", 1234)
    assert flow.start_time == 0.0
    assert flow.end_time == 1.0


def test_idle_timeout_splits_flow():
    packets = [tcp_packet(0.0, flags=("ACK",)), tcp_packet(200.0, flags=("ACK",))]
    flows = assemble_flows(packets, idle_timeout=120)
    assert len(flows) == 2
    assert all(packet_count(f) == 1 for f in flows)


def test_active_timeout_splits_long_flow():
    packets = [tcp_packet(t, flags=("ACK",)) for t in (0.0, 50.0, 100.0, 150.0)]
    flows = assemble_flows(packets, idle_timeout=60, active_timeout=120)
    assert [packet_count(f) for f in flows] == [3, 1]


def test_active_timeout_disabled():
    packets = [tcp_packet(t, flags=("ACK",)) for t in (0.0, 50.0, 100.0, 150.0)]
    flows = assemble_flows(packets, idle_timeout=60, active_timeout=None)
    assert len(flows) == 1


def test_rst_closes_flow():
    packets = [
        tcp_packet(0.0, flags=("SYN",)),
        tcp_packet(1.0, flags=("RST",)),
        tcp_packet(2.0, flags=("SYN",)),
    ]
    flows = assemble_flows(packets, idle_timeout=120)
    assert [packet_count(f) for f in flows] == [2, 1]


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
    flows = assemble_flows(packets, idle_timeout=120)
    assert [packet_count(f) for f in flows] == [4, 1]


def test_udp_terminates_by_idle_timeout_only():
    packets = [udp_packet(t) for t in (0.0, 1.0, 2.0)]
    flows = assemble_flows(packets, idle_timeout=120)
    assert len(flows) == 1


def test_key_is_direction_agnostic():
    p1 = tcp_packet(0.0, src="10.0.0.9", dst="10.0.0.1", sport=5555, dport=80)
    p2 = tcp_packet(1.0, src="10.0.0.1", dst="10.0.0.9", sport=80, dport=5555)
    assert FlowKey.from_packet(p1) == FlowKey.from_packet(p2)
    key = FlowKey.from_packet(p1)
    assert key.endpoint_a <= key.endpoint_b


def test_ip_ordering_is_numeric_not_string():
    # 10.0.0.2 sorts before 10.0.0.10 numerically
    p = tcp_packet(0.0, src="10.0.0.10", dst="10.0.0.2", sport=1, dport=2)
    key = FlowKey.from_packet(p)
    assert key.endpoint_a == ("10.0.0.2", 2)


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
    flows = assemble_flows(packets, idle_timeout=5.0)
    assert sum(packet_count(f) for f in flows) == len(packets)
    for flow in flows:
        first = flow.fwd_packets[0].timestamp
        for pkt in flow.fwd_packets + flow.bwd_packets:
            assert pkt.timestamp >= first
        assert flow.start_time == first
        assert flow.end_time >= flow.start_time


def test_every_packet_matches_flow_key(rng):
    traffic = build_scenario("mimicking", seed=1, scale="small")
    flows = assemble_flows(traffic.packets)
    for flow in flows:
        for pkt in flow.fwd_packets + flow.bwd_packets:
            assert FlowKey.from_packet(pkt) == flow.key


def test_determinism():
    traffic = build_scenario("mimicking", seed=2, scale="small")
    f1 = assemble_flows(traffic.packets)
    f2 = assemble_flows(traffic.packets)
    assert f1 == f2


def test_unsorted_input_is_sorted_first():
    packets = [tcp_packet(5.0, flags=("ACK",)), tcp_packet(0.0, flags=("SYN",))]
    flows = assemble_flows(packets, idle_timeout=120)
    assert len(flows) == 1
    assert flows[0].fwd_packets[0].tcp_flags == frozenset({"SYN"})


def test_fig2_host_a_yields_four_flows():
    traffic = build_scenario("fig2", seed=0)
    flows = assemble_flows(traffic.packets)
    a_flows = [f for f in flows if f.initiator_ip == "10.0.0.1"]
    assert len(a_flows) == 4
    assert len(flows) == 8


def test_bad_timeouts_rejected():
    with pytest.raises(ValueError):
        assemble_flows([], idle_timeout=0)
    with pytest.raises(ValueError):
        assemble_flows([], idle_timeout=120, active_timeout=100)


def test_empty_input():
    assert assemble_flows([]) == []
