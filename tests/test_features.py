import csv
import dataclasses
import math
import statistics

import numpy as np
import pytest

from flowbundle import features, synth
from flowbundle.features import (
    _INT_FEATURES,
    ALL_FEATURE_NAMES,
    CSV_COLUMNS,
    FLOW_FEATURE_NAMES,
    SchemaError,
    extract_features,
    feature_matrix,
    flow_table,
    label_classes,
    read_features_csv,
    write_features_csv,
)

from conftest import flow_segments, has_flag, tcp_packet, udp_packet


def stats_of(flows, index=0):
    """Flow ``index``'s 34 statistics by name."""
    return dict(zip(FLOW_FEATURE_NAMES, extract_features(flows)[index]))


def validate_vector(values):
    """Ordering and non-negativity invariants of one flow's statistics."""
    for direction in ("fwd", "bwd"):
        count = values[f"{direction}_pkt_count"]
        if count >= 1:
            lo = values[f"{direction}_pkt_len_min"]
            mid = values[f"{direction}_pkt_len_mean"]
            hi = values[f"{direction}_pkt_len_max"]
            if not (lo <= mid + 1e-9 and mid <= hi + 1e-9):
                raise AssertionError(f"{direction} packet length ordering broken")
        if count >= 2:
            lo = values[f"{direction}_iat_min"]
            mid = values[f"{direction}_iat_mean"]
            hi = values[f"{direction}_iat_max"]
            if not (lo <= mid + 1e-9 and mid <= hi + 1e-9):
                raise AssertionError(f"{direction} IAT ordering broken")
        if values[f"{direction}_pkt_len_std"] < 0:
            raise AssertionError("negative std")
        if count > 0 and values[f"{direction}_byte_count"] < 20 * count:
            raise AssertionError("byte count below IPv4 header minimum")
    for value in values.values():
        if math.isnan(value) or math.isinf(value):
            raise AssertionError("non-finite feature value")


def make_flow(fwd, bwd=()):
    """One flow built directly from per-direction packet lists."""
    return flow_segments([(list(fwd), list(bwd))])


def brute_force_stats(packets):
    """Independent reimplementation of the 17 per-direction statistics."""
    out = {name: 0.0 for name in (
        "pkt_count", "byte_count", "pkt_len_mean", "pkt_len_std", "pkt_len_min",
        "pkt_len_max", "iat_mean", "iat_std", "iat_min", "iat_max",
        "time_from_first_mean", "flag_syn_count", "flag_ack_count",
        "flag_fin_count", "flag_rst_count", "flag_psh_count", "flag_urg_count",
    )}
    if not packets:
        return out
    lengths = [p.ip_total_length for p in packets]
    times = [p.timestamp for p in packets]
    out["pkt_count"] = len(packets)
    out["byte_count"] = sum(lengths)
    out["pkt_len_mean"] = statistics.mean(lengths)
    out["pkt_len_std"] = statistics.pstdev(lengths)
    out["pkt_len_min"] = min(lengths)
    out["pkt_len_max"] = max(lengths)
    if len(packets) >= 2:
        iats = [b - a for a, b in zip(times, times[1:])]
        out["iat_mean"] = statistics.mean(iats)
        out["iat_std"] = statistics.pstdev(iats)
        out["iat_min"] = min(iats)
        out["iat_max"] = max(iats)
        out["time_from_first_mean"] = statistics.mean(t - times[0] for t in times[1:])
    for flag in ("SYN", "ACK", "FIN", "RST", "PSH", "URG"):
        out[f"flag_{flag.lower()}_count"] = sum(
            1 for p in packets if has_flag(p, flag)
        )
    return out


def random_flow(rng, max_packets=50):
    n_fwd = int(rng.integers(1, max_packets + 1))
    n_bwd = int(rng.integers(0, max_packets + 1))
    t = float(rng.uniform(0, 10))
    fwd, bwd = [], []
    flag_pool = ["SYN", "ACK", "FIN", "RST", "PSH", "URG"]
    for i in range(n_fwd + n_bwd):
        t += float(rng.exponential(0.5))
        k = int(rng.integers(1, 4))
        flags = tuple(rng.choice(flag_pool, size=k, replace=False))
        pkt = tcp_packet(
            t,
            src="10.0.0.1" if i < n_fwd else "10.0.0.2",
            dst="10.0.0.2" if i < n_fwd else "10.0.0.1",
            sport=1234 if i < n_fwd else 80,
            dport=80 if i < n_fwd else 1234,
            length=int(rng.integers(40, 1500)),
            flags=flags,
        )
        (fwd if i < n_fwd else bwd).append(pkt)
    return fwd, bwd


def test_packet_length_stats_hand_computed():
    fwd = [tcp_packet(float(i), length=l) for i, l in enumerate([100, 200, 300])]
    vec = stats_of(make_flow(fwd))
    assert vec["fwd_pkt_len_mean"] == 200.0
    assert round(vec["fwd_pkt_len_std"], 4) == 81.6497
    assert vec["fwd_byte_count"] == 600.0
    assert vec["fwd_pkt_len_min"] == 100.0
    assert vec["fwd_pkt_len_max"] == 300.0


def test_iat_and_time_from_first_hand_computed():
    fwd = [tcp_packet(t) for t in (0.0, 2.0, 6.0)]
    vec = stats_of(make_flow(fwd))
    assert vec["fwd_iat_mean"] == 3.0       # mean(2, 4)
    assert vec["fwd_iat_min"] == 2.0
    assert vec["fwd_iat_max"] == 4.0
    assert vec["fwd_time_from_first_mean"] == 4.0  # mean(2, 6)


def test_degenerate_directions_are_zero():
    vec = stats_of(make_flow([tcp_packet(1.0, flags=("SYN",))]))
    for name in FLOW_FEATURE_NAMES:
        if name.startswith("bwd_"):
            assert vec[name] == 0.0
    for stat in ("iat_mean", "iat_std", "iat_min", "iat_max",
                 "time_from_first_mean"):
        assert vec[f"fwd_{stat}"] == 0.0
    assert vec["fwd_pkt_count"] == 1.0
    assert vec["fwd_flag_syn_count"] == 1.0


def test_flag_counts_per_direction():
    fwd = [tcp_packet(0.0, flags=("SYN",)), tcp_packet(1.0, flags=("PSH", "ACK"))]
    bwd = [tcp_packet(0.5, src="10.0.0.2", dst="10.0.0.1", sport=80, dport=40000,
                      flags=("SYN", "ACK"))]
    vec = stats_of(make_flow(fwd, bwd))
    assert vec["fwd_flag_syn_count"] == 1.0
    assert vec["fwd_flag_ack_count"] == 1.0
    assert vec["fwd_flag_psh_count"] == 1.0
    assert vec["bwd_flag_syn_count"] == 1.0
    assert vec["bwd_flag_ack_count"] == 1.0
    assert vec["bwd_flag_fin_count"] == 0.0


def test_udp_flow_has_zero_flag_counts():
    vec = stats_of(make_flow([udp_packet(0.0), udp_packet(1.0)]))
    for flag in ("syn", "ack", "fin", "rst", "psh", "urg"):
        assert vec[f"fwd_flag_{flag}_count"] == 0.0


def test_brute_force_oracle_on_random_flows(rng):
    for _ in range(200):
        fwd, bwd = random_flow(rng)
        vec = stats_of(make_flow(fwd, bwd))
        validate_vector(vec)
        for direction, packets in (("fwd", fwd), ("bwd", bwd)):
            expected = brute_force_stats(packets)
            for stat, exp in expected.items():
                got = vec[f"{direction}_{stat}"]
                assert got == pytest.approx(exp, rel=1e-9, abs=1e-12), (
                    f"{direction}_{stat}"
                )


def test_timestamp_scaling_by_power_of_two_is_exact(rng):
    fwd, bwd = random_flow(rng, max_packets=20)
    vec = stats_of(make_flow(fwd, bwd))
    for c in (0.5, 2.0, 8.0):
        scaled = make_flow(
            [p._replace(timestamp=p.timestamp * c) for p in fwd],
            [p._replace(timestamp=p.timestamp * c) for p in bwd],
        )
        svec = stats_of(scaled)
        for name in FLOW_FEATURE_NAMES:
            if "iat" in name or "time_from_first" in name:
                assert svec[name] == vec[name] * c
            else:
                assert svec[name] == vec[name]


def test_payload_permutation_among_timestamps_changes_nothing(rng):
    fwd, bwd = random_flow(rng, max_packets=15)
    if len(bwd) < 2:
        bwd = [
            tcp_packet(float(t), src="10.0.0.2", dst="10.0.0.1", sport=80,
                       dport=1234, length=100 + 10 * t, flags=("ACK",))
            for t in range(5)
        ]
    base = stats_of(make_flow(fwd, bwd))
    times = [p.timestamp for p in bwd]
    perm = rng.permutation(len(times))
    shuffled = [bwd[perm[i]]._replace(timestamp=times[i]) for i in range(len(times))]
    vec = stats_of(make_flow(fwd, shuffled))
    assert vec == base


def test_csv_round_trip(tmp_path, rng):
    flows = flow_segments([random_flow(rng) for _ in range(10)])
    table = flow_table(flows, [f"cls{i % 2}" for i in range(10)])
    aggregated = dataclasses.replace(
        table,
        num_flows=np.arange(4, 14),
        src_ports_delta=np.array([1500.0] + [0.5 * i for i in range(1, 10)]),
    )
    for name, rows in (("flows.csv", table), ("aggregated.csv", aggregated)):
        path = tmp_path / name
        write_features_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        back = read_features_csv(path)
        assert len(back) == len(rows)
        assert back.label.tolist() == rows.label.tolist()
        assert back.initiator_ip.tolist() == rows.initiator_ip.tolist()
        assert back.start_time == pytest.approx(rows.start_time, abs=1e-6)
        assert back.stats == pytest.approx(rows.stats, abs=1e-6)
    assert not read_features_csv(tmp_path / "flows.csv").aggregated
    back = read_features_csv(tmp_path / "aggregated.csv")
    assert back.num_flows.tolist() == list(range(4, 14))
    assert back.src_ports_delta[0] == 1500.0
    assert back.src_ports_delta.tolist() == aggregated.src_ports_delta.tolist()


def reference_write_features_csv(table, path):
    """The column-wise csv.writer writer the row template replaced, verbatim
    in what it formats; it writes UTF-8, the encoding read_features_csv reads."""

    def _text(values, integer):
        return list(map(("%d" if integer else "%.6f").__mod__, values.tolist()))

    stats = table.stats.T
    columns = [
        table.initiator_ip.tolist(),
        _text(table.initiator_port, True),
        table.responder_ip.tolist(),
        _text(table.responder_port, True),
        table.protocol.tolist(),
        _text(table.start_time, False),
    ]
    columns += [_text(stats[j], name in _INT_FEATURES) for j, name in enumerate(FLOW_FEATURE_NAMES)]
    if table.aggregated:
        columns += [_text(table.num_flows, True), _text(table.src_ports_delta, False)]
    else:
        columns += [[""] * len(table)] * 2
    columns.append(table.label.tolist())
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(zip(*columns))


# one label csv.writer quotes (it holds a delimiter, quote or line break)
@pytest.mark.parametrize("quoted", [None, "a,b", 'say "hi"', "cr\rx", "lf\nx", "\r\n"])
def test_csv_bytes_equal_csv_writer(tmp_path, rng, quoted):
    n = 12
    labels = ["benign", "slowloris"] * (n // 2)
    if quoted is not None:
        labels[5] = quoted
    table = flow_table(flow_segments([random_flow(rng) for _ in range(n)]), labels)
    aggregated = dataclasses.replace(
        table, num_flows=np.arange(n), src_ports_delta=rng.uniform(0, 3000, n)
    )
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    for rows in (table, aggregated, table.take(np.arange(0))):
        write_features_csv(rows, got)
        reference_write_features_csv(rows, want)
        assert got.read_bytes() == want.read_bytes()
        back = read_features_csv(got)
        assert back.label.tolist() == rows.label.tolist()
        assert back.initiator_ip.tolist() == rows.initiator_ip.tolist()


def _half_way(rng, n):
    """Decimals that end in 5 at the seventh place, so %.6f must round the
    binary value just above or below the decimal half."""
    whole = rng.choice([0, 1, 999, 10**6, 1_500_000_000], size=n) + rng.integers(0, 1000, n)
    return [float(f"{sign}{w}.{f:06d}5") for sign, w, f in
            zip(rng.choice(["", "-"], size=n), whole.tolist(), rng.integers(0, 10**6, n).tolist())]


_BOUND = 2.0**52 / 1e6  # the largest magnitude the fixed-point writer prints, exclusive


# (column, values, whether the fixed-point writer prints them rather than csv.writer)
_EDGE_CASES = {
    "half_way": ("fwd_iat_mean", _half_way(np.random.default_rng(3), 3000), True),
    "binary_ties": ("src_ports_delta", [k / 128 for k in range(-401, 401, 2)], True),
    "signed_zeros": ("start_time", [-0.0, 0.0, -1e-7, -4.9e-7, -5e-7, -5.1e-7, 1e-7, -1.5], True),
    "below_bound": ("bwd_pkt_len_std", [math.nextafter(_BOUND, 0), -math.nextafter(_BOUND, 0)], True),
    "at_bound": ("bwd_pkt_len_std", [_BOUND, 1.0], False),
    "at_negative_bound": ("bwd_pkt_len_std", [-_BOUND, 1.0], False),
    "above_bound": ("src_ports_delta", [math.nextafter(_BOUND, math.inf), 1.0], False),
    "huge": ("fwd_iat_max", [1e308, 0.5], False),
    "non_finite": ("fwd_iat_min", [math.inf, -math.inf, math.nan], False),
    "epoch": ("start_time", (1.5e9 + np.random.default_rng(4).integers(0, 6 * 10**8, 2000) / 1e6).tolist()
              + (1.5e9 + 600 * np.random.default_rng(5).random(2000)).tolist(), True),
    "float_counts": ("bwd_pkt_count", [2.999999, -0.0, -2.5, -0.5, 3.0, 1e9, -1e9, 0.5], True),
    "huge_count": ("fwd_byte_count", [1e308, 2.0], False),
    "int64_ports": ("initiator_port", [0, 65535, -1, 10**9], True),
    "int64_max": ("num_flows", [2**63 - 1, 1], False),
    "int64_min": ("responder_port", [-(2**63), 1], False),
    "empty_strings": ("label", ["", "benign", ""], True),
    "empty_address": ("initiator_ip", ["", "10.0.0.1"], True),
    "non_ascii": ("label", ["bénin", "攻撃", "x"], True),
    "non_ascii_quoted": ("label", ["bénin", "a,b", "攻撃"], True),
    "quoted_address": ("initiator_ip", ["10.0.0.1", 'a"b', "c\rd"], True),
    "line_breaks": ("label", ["lf\nx", "\r\n", '"'], True),
    "inner_nul": ("label", ["a\0b", "x"], False),
    "trailing_nul": ("label", ["ab\0", "x"], False),
}


@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_csv_bytes_equal_reference(tmp_path, rng, monkeypatch, case):
    name, values, fixed_point = _EDGE_CASES[case]
    base = flow_table(flow_segments([random_flow(rng, 8) for _ in range(5)]), ["benign"] * 5)
    base = dataclasses.replace(base, num_flows=np.arange(5), src_ports_delta=rng.uniform(0, 3000, 5))
    table = base.take(np.arange(len(values)) % 5)
    if name in FLOW_FEATURE_NAMES:
        table.stats[:, FLOW_FEATURE_NAMES.index(name)] = values
    else:
        column = np.array(values, dtype=getattr(table, name).dtype)
        table = dataclasses.replace(table, **{name: column})
    writers = []
    csv_writer = csv.writer
    monkeypatch.setattr(csv, "writer", lambda *args: writers.append(args) or csv_writer(*args))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_features_csv(table, got)
    assert bool(writers) != fixed_point
    reference_write_features_csv(table, want)
    assert got.read_bytes() == want.read_bytes()


def test_empty_table_reads_back_unaggregated(tmp_path, rng):
    table = flow_table(flow_segments([random_flow(rng)]), ["benign"]).take(np.arange(0))
    aggregated = dataclasses.replace(
        table, num_flows=np.zeros(0, np.int64), src_ports_delta=np.zeros(0)
    )
    for rows in (table, aggregated):  # the header alone does not say
        write_features_csv(rows, tmp_path / "empty.csv")
        back = read_features_csv(tmp_path / "empty.csv")
        assert len(back) == 0 and not back.aggregated
        with pytest.raises(SchemaError, match="aggregation"):
            feature_matrix(back, ["num_flows"])


def test_csv_huge_finite_values_accepted(tmp_path, rng):
    # their sum overflows to inf, but every value is finite
    table = flow_table(flow_segments([random_flow(rng)]), ["benign"])
    iat_max = [FLOW_FEATURE_NAMES.index(n) for n in ("fwd_iat_max", "bwd_iat_max")]
    table.stats[0, iat_max] = 1e308
    table = dataclasses.replace(
        table, num_flows=np.array([1]), src_ports_delta=np.array([1e308])
    )
    path = tmp_path / "flows.csv"
    write_features_csv(table, path)
    back = read_features_csv(path)
    assert back.stats[0, iat_max].tolist() == [1e308, 1e308]
    assert back.src_ports_delta[0] == 1e308


def test_csv_header_mismatch_raises(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(SchemaError, match="header"):
        read_features_csv(path)


def test_feature_matrix_requires_aggregation_when_asked(rng):
    table = flow_table(flow_segments([random_flow(rng)]), ["benign"])
    with pytest.raises(SchemaError, match="aggregation"):
        feature_matrix(table, ALL_FEATURE_NAMES)
    matrix = feature_matrix(table, FLOW_FEATURE_NAMES)
    assert matrix.shape == (1, 34)


def test_feature_name_inventory():
    assert len(FLOW_FEATURE_NAMES) == 34
    assert len(ALL_FEATURE_NAMES) == 36
    assert FLOW_FEATURE_NAMES[0] == "fwd_pkt_count"
    assert FLOW_FEATURE_NAMES[-1] == "bwd_flag_urg_count"
    assert ALL_FEATURE_NAMES[-2:] == ["num_flows", "src_ports_delta"]
    assert CSV_COLUMNS[-1] == "label"


def test_label_classes_benign_first(rng):
    labels = ("zeta", "benign", "alpha")
    flows = flow_segments([random_flow(rng) for _ in labels])
    y, names = label_classes(flow_table(flows, labels))
    assert names == ["benign", "alpha", "zeta"]
    assert y.tolist() == [2, 0, 1]


def test_plain_tables_take_the_column_paths(tmp_path, rng, monkeypatch):
    """A plain flow table and manifest never fall back to a per-row path."""
    def per_row(*args, **kwargs):
        raise AssertionError("a per-row CSV path ran")

    monkeypatch.setattr(csv, "writer", per_row)
    monkeypatch.setattr(features, "_check_rows", per_row)
    monkeypatch.setattr(synth, "_check_label_rows", per_row)
    table = flow_table(flow_segments([random_flow(rng) for _ in range(6)]), ["benign", "a,b"] * 3)
    aggregated = dataclasses.replace(
        table, num_flows=np.arange(6), src_ports_delta=rng.uniform(0, 3000, 6)
    )
    for rows in (table, aggregated):
        write_features_csv(rows, tmp_path / "flows.csv")
        back = read_features_csv(tmp_path / "flows.csv")
        assert back.label.tolist() == rows.label.tolist() and back.aggregated == rows.aggregated
    manifest = synth.build_scenario("fig2", seed=0).manifest
    synth.write_labels_csv(manifest, tmp_path / "labels.csv")
    back = synth.read_labels_csv(tmp_path / "labels.csv")
    assert back.label.tolist() == manifest.label.tolist()
    assert back.start_time.tolist() == manifest.start_time.tolist()
