import csv
import dataclasses
import socket
from unittest import mock

import numpy as np
import pytest

from flowbundle import features, synth
from flowbundle.config import PipelineConfig
from flowbundle.flows import FlowSegments
from flowbundle.pcap import TCP, TCP_FLAG_BITS, UDP, Packet, PacketTable

_CFG = PipelineConfig()
# assemble_flows' timeouts as the pipeline defaults them
TIMEOUTS = dict(idle_timeout=_CFG.idle_timeout_s, active_timeout=_CFG.active_timeout_s)


def address(dotted):
    """The uint32 value of a dotted-quad address, as the packet table holds it."""
    return int.from_bytes(socket.inet_aton(dotted), "big")


def dotted_quad(value):
    """The dotted-quad string of a packet table address."""
    return socket.inet_ntoa(int(value).to_bytes(4, "big"))


def tcp_packet(
    ts,
    src="10.0.0.1",
    dst="10.0.0.2",
    sport=40000,
    dport=80,
    length=60,
    flags=("ACK",),
):
    return Packet(
        timestamp=ts,
        src_ip=address(src),
        dst_ip=address(dst),
        src_port=sport,
        dst_port=dport,
        protocol=TCP,
        ip_total_length=length,
        tcp_flags=sum(TCP_FLAG_BITS[name] for name in flags),
    )


def udp_packet(ts, src="10.0.0.1", dst="10.0.0.2", sport=40000, dport=53, length=64):
    return Packet(
        timestamp=ts,
        src_ip=address(src),
        dst_ip=address(dst),
        src_port=sport,
        dst_port=dport,
        protocol=UDP,
        ip_total_length=length,
        tcp_flags=0,
    )


def packet_table(packets):
    """The PacketTable of a list of Packet rows."""
    return PacketTable.from_lists(*zip(*packets) if packets else [[]] * 8)


def has_flag(packet, name):
    return bool(packet.tcp_flags & TCP_FLAG_BITS[name])


def flow_segments(flows):
    """FlowSegments of (fwd, bwd) packet lists, one flow per pair, each
    direction's packets given in time order; the first forward packet (the
    first backward one when there is none) gives the flow's identity.  A
    flow's rows hold its forward packets before its backward ones, not
    interleaved by time: the statistics read each direction on its own."""
    packets = [p for fwd, bwd in flows for p in (*fwd, *bwd)]
    sizes = [len(fwd) + len(bwd) for fwd, bwd in flows]
    firsts = [(fwd or bwd)[0] for fwd, bwd in flows]
    return FlowSegments(
        packets=packet_table(packets),
        rows=np.arange(len(packets)),
        bounds=np.cumsum([0] + sizes),
        forward=np.array([d for fwd, bwd in flows
                          for d in [True] * len(fwd) + [False] * len(bwd)], dtype=bool),
        initiator_ip=np.array([p.src_ip for p in firsts], dtype=np.uint32),
        initiator_port=np.array([p.src_port for p in firsts], dtype=np.int64),
        responder_ip=np.array([p.dst_ip for p in firsts], dtype=np.uint32),
        responder_port=np.array([p.dst_port for p in firsts], dtype=np.int64),
        protocol=np.array([p.protocol for p in firsts], dtype=np.uint8),
        start_time=np.array([p.timestamp for p in firsts], dtype=float),
    )


def direction_rows(flows, index):
    """Flow ``index``'s forward and backward packet rows, in time order."""
    segment = slice(flows.bounds[index], flows.bounds[index + 1])
    rows, forward = flows.rows[segment], flows.forward[segment]
    return rows[forward], rows[~forward]


def flow_packets(flows, index):
    """Flow ``index``'s forward and backward Packet rows, in time order."""
    return tuple(list(flows.packets.take(rows)) for rows in direction_rows(flows, index))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# a CSV file in another dialect than write_csv's, made from one it wrote
# whose first two labels are "benign": its first two labels as read, or
# the error after the path
OTHER_DIALECTS = {
    "quoted_comma": (lambda text: text.replace("benign", '"a,b"', 1), ["a,b", "benign"]),
    "quoted_quote": (lambda text: text.replace("benign", '"say ""hi"""', 1),
                     ['say "hi"', "benign"]),
    "quoted_line_break": (lambda text: text.replace("benign", '"be\r\nnign"', 1),
                          ["be\r\nnign", "benign"]),
    "lf_only": (lambda text: text.replace("\r\n", "\n"), ["benign", "benign"]),
    "blank_line": (lambda text: text.replace("nign\r\n", "nign\r\n\r\n", 1),
                   ":3: expected {width} fields, got 0"),
    "lone_cr": (lambda text: text.replace("nign\r\n", "nign\r\r\n", 1),
                ":3: expected {width} fields, got 0"),
    "nul": (lambda text: text.replace("benign", "be\0nign", 1), ["be\0nign", "benign"]),
    "long_field": (lambda text: text.replace("benign", "b" * (csv.field_size_limit() + 1), 1),
                   f":2: field larger than field limit ({csv.field_size_limit()})"),
    "header_only": (lambda text: text.split("\r\n")[0] + "\r\n", []),
}

def read_both_ways(read, path):
    """``read(path)`` (read_features_csv or read_labels_csv) in bulk, and
    by csv.reader alone (bulk_columns refusing every text): both give the
    same table, column for column with the same dtypes and floats bit for
    bit, or raise the same error.  That table or the error's text, and
    whether bulk_columns read the file."""
    bulk_columns, taken = features.bulk_columns, []

    def bulk(*args):
        columns = bulk_columns(*args)
        taken.append(columns is not None)
        return columns

    outcomes = []
    for columns_of in (bulk, lambda *args: None):
        with mock.patch.object(features, "bulk_columns", columns_of), \
                mock.patch.object(synth, "bulk_columns", columns_of):
            try:
                outcomes.append(read(path))
            except (features.SchemaError, synth.LabelError) as exc:
                outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
        return got, any(taken)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert (a is None) == (b is None), field.name
        if b is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            if b.dtype == object:
                assert a.tolist() == b.tolist(), field.name
            else:
                assert a.tobytes() == b.tobytes(), field.name
    return got, any(taken)
