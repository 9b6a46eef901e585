import csv
import dataclasses
import io
import json
import math
import socket
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbundle import aggregation, features, flows
from flowbundle.pcap import UDP, read_pcap
from flowbundle.synth import (
    _LABEL_COLUMNS,
    FlowLabels,
    LabelError,
    ScenarioSpec,
    TrafficClassSpec,
    build_scenario,
    generate,
    load_scenario_spec,
    match_labels,
    mimicking_scenario,
    read_labels_csv,
    write_labels_csv,
    write_pcap,
)

import labels_reference as reference
from conftest import OTHER_DIALECTS, TIMEOUTS, read_both_ways


def iqr(values):
    return np.percentile(values, 25), np.percentile(values, 75)


def test_single_benign_flow_manifest():
    spec = ScenarioSpec(
        seed=0,
        duration=60.0,
        classes=[TrafficClassSpec(label="benign", n_sources=1,
                                  flows_per_source=(1, 1))],
    )
    traffic = generate(spec)
    assert len(traffic.manifest) == 1
    assert traffic.manifest.label.tolist() == ["benign"]


def test_seed_determinism_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.pcap", tmp_path / "b.pcap"
    write_pcap(build_scenario("mimicking", seed=9, scale="small").packets, p1)
    write_pcap(build_scenario("mimicking", seed=9, scale="small").packets, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seeds_differ():
    a = build_scenario("mimicking", seed=1, scale="small")
    b = build_scenario("mimicking", seed=2, scale="small")
    assert list(a.packets) != list(b.packets)


def test_manifest_completeness():
    traffic = build_scenario("full", seed=6, scale="small")
    assembled = flows.assemble_flows(traffic.packets, **TIMEOUTS)
    assert len(assembled) == len(traffic.manifest)
    labels = match_labels(assembled, traffic.manifest)
    assert len(labels) == len(assembled)
    assert set(labels) == set(traffic.manifest.label)


def test_unmatched_flow_raises():
    traffic = build_scenario("fig2", seed=0)
    assembled = flows.assemble_flows(traffic.packets, **TIMEOUTS)
    with pytest.raises(LabelError):
        match_labels(assembled, traffic.manifest.take(slice(None, -1)))


def test_packets_are_sorted():
    traffic = build_scenario("full", seed=3, scale="small")
    times = traffic.packets.timestamp.tolist()
    assert times == sorted(times)


def test_scenario_parses_with_zero_skips(tmp_path):
    traffic = build_scenario("mimicking", seed=8, scale="small")
    path = tmp_path / "t.pcap"
    write_pcap(traffic.packets, path)
    result = read_pcap(path)
    assert result.skipped == 0
    assert len(result.packets) == len(traffic.packets)


def test_mimicking_flow_stats_indistinguishable_but_bundles_disjoint():
    traffic = build_scenario("mimicking", seed=4, scale="small")
    assembled = flows.assemble_flows(traffic.packets, **TIMEOUTS)
    labels = match_labels(assembled, traffic.manifest)
    rows = aggregation.aggregate_features(features.flow_table(assembled, labels))
    benign = rows.take(rows.label == "benign")
    attack = rows.take(rows.label != "benign")
    # flow-level columns: interquartile ranges overlap
    for column in ("fwd_pkt_len_mean", "fwd_iat_mean", "bwd_pkt_len_mean"):
        b_lo, b_hi = iqr(features.feature_matrix(benign, [column])[:, 0].tolist())
        a_lo, a_hi = iqr(features.feature_matrix(attack, [column])[:, 0].tolist())
        assert max(b_lo, a_lo) <= min(b_hi, a_hi), column
    # bundle-level columns: ranges are disjoint
    assert benign.num_flows.max() < attack.num_flows.min()
    assert benign.src_ports_delta.min() > attack.src_ports_delta.max()


def test_labels_csv_round_trip(tmp_path):
    traffic = build_scenario("fig2", seed=0)
    path = tmp_path / "labels.csv"
    write_labels_csv(traffic.manifest, path)
    back = read_labels_csv(path)
    for name in _LABEL_COLUMNS:
        want = getattr(traffic.manifest, name)
        assert getattr(back, name).dtype == want.dtype
        assert getattr(back, name).tolist() == want.tolist(), name


def test_labels_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(LabelError):
        read_labels_csv(path)


def test_scenario_spec_json_loading(tmp_path):
    doc = {
        "seed": 3,
        "duration": 30.0,
        "classes": [
            {"label": "benign", "n_sources": 2, "flows_per_source": [2, 4]},
            {
                "label": "probe",
                "n_sources": 1,
                "flows_per_source": [5, 5],
                "port_pattern": "sequential",
                "port_step": 2,
                "single_target": True,
            },
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    spec = load_scenario_spec(path)
    traffic = generate(spec)
    assert set(traffic.manifest.label) == {"benign", "probe"}


def test_scenario_spec_json_invalid(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1}')
    with pytest.raises(ValueError, match="invalid scenario spec"):
        load_scenario_spec(path)


def test_scenario_spec_syntax_error_names_line(tmp_path):
    """A JSON syntax error names its line as the CSV loaders count lines:
    CRLF, a lone CR and a lone LF each end one."""
    for end in ("\r", "\r\n", "\n"):
        path = tmp_path / "spec.json"
        path.write_bytes(end.join(['{"seed": 1,', '"duration": 5.0,', '"classes": [}']).encode())
        with pytest.raises(ValueError) as caught:
            load_scenario_spec(path)
        assert str(caught.value) == f"{path}:3: invalid scenario spec (Expecting value)"


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="source"):
        TrafficClassSpec(label="x", n_sources=0, flows_per_source=(1, 1))
    with pytest.raises(ValueError, match="port pattern"):
        TrafficClassSpec(label="x", n_sources=1, flows_per_source=(1, 1),
                         port_pattern="whatever")
    with pytest.raises(ValueError, match="duration"):
        ScenarioSpec(seed=0, duration=0.0, classes=[
            TrafficClassSpec(label="x", n_sources=1, flows_per_source=(1, 1))
        ])
    with pytest.raises(ValueError, match="classes"):
        ScenarioSpec(seed=0, duration=1.0, classes=[])
    with pytest.raises(ValueError, match="scenario"):
        build_scenario("nope", seed=0)
    with pytest.raises(ValueError, match="scale"):
        build_scenario("mimicking", seed=0, scale="galactic")


def test_udp_class_generates_flagless_packets():
    spec = ScenarioSpec(
        seed=1,
        duration=30.0,
        classes=[TrafficClassSpec(label="dns", n_sources=1,
                                  flows_per_source=(3, 3), protocol="UDP")],
    )
    traffic = generate(spec)
    assert traffic.packets
    assert all(p.protocol == UDP for p in traffic.packets)
    assert all(p.tcp_flags == 0 for p in traffic.packets)
    assembled = flows.assemble_flows(traffic.packets, **TIMEOUTS)
    assert match_labels(assembled, traffic.manifest) == ["dns"] * 3


def test_desk_scale_flow_counts():
    spec = mimicking_scenario(seed=0)
    low = spec.classes[0].n_sources * spec.classes[0].flows_per_source[0]
    high = spec.classes[0].n_sources * spec.classes[0].flows_per_source[1]
    assert low <= 2000 <= high
    attack_low = spec.classes[1].n_sources * spec.classes[1].flows_per_source[0]
    attack_high = spec.classes[1].n_sources * spec.classes[1].flows_per_source[1]
    assert attack_low <= 550 <= attack_high


def test_checked_in_10x_spec_is_valid():
    spec = load_scenario_spec(Path(__file__).parents[1] / "perfbench" / "scenario_10x.json")
    assert [c.n_sources for c in spec.classes] == [1250, 100]


def _labels_csv_bytes(rows, line_end="\r\n") -> bytes:
    """A labels CSV of ``rows``, each start time in full (repr) precision."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=line_end)
    writer.writerow(_LABEL_COLUMNS)
    writer.writerows((*row[:5], repr(row[5]), row[6]) for row in rows)
    return out.getvalue().encode()


_TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\0"), max_size=6)
_PORTS = st.sampled_from([0, 65535]) | st.integers(0, 65535)
_STARTS = st.one_of(
    st.sampled_from([0.0, 1_600_000_000.0, 4294967295.999999, math.nextafter(2.0**32, 0)]),
    st.integers(0, 2**32 * 10**6 - 1).map(lambda us: (us + 0.5) / 1e6),  # half-microseconds
    st.floats(0, 2**32, exclude_max=True),
)
_ROWS = st.tuples(
    st.sampled_from(["10.0.0.1", "192.168.10.10", "10.0.0.01", " 10.0.0.1"]) | _TEXT, _PORTS,
    st.sampled_from(["10.0.0.2", "192.168.10.11", "010.0.0.2", "10.0.0.2 "]) | _TEXT, _PORTS,
    st.sampled_from(["TCP", "UDP"]), _STARTS,
    st.sampled_from(["benign", "slowloris", "a,b", 'say "hi"']) | _TEXT,
)


@st.composite
def manifest_rows(draw):
    """Random manifest rows; some flows repeat, mostly with the same label."""
    rows = draw(st.lists(_ROWS, max_size=12))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        label = draw(st.sampled_from([row[6]] * 3 + ["other"]))
        rows.insert(draw(st.integers(0, len(rows))), (*row[:6], label))
    return rows


def _read_address(spelling):
    """The 4 bytes of the address a flow from a row with this spelling
    holds: what inet_aton reads from it, or 10.0.0.3 where it reads none."""
    try:
        return socket.inet_aton(spelling)
    except (OSError, ValueError):
        return socket.inet_aton("10.0.0.3")


def _canonical(spelling):
    return socket.inet_ntoa(_read_address(spelling)) == spelling


def _same_outcome(reference_call, call):
    """``call()`` returns what ``reference_call()`` does, or raises the same
    LabelError; the result, or None where both raise."""
    try:
        want = reference_call()
    except LabelError as exc:
        with pytest.raises(LabelError) as got:
            call()
        assert str(got.value) == str(exc)
        return None
    return want, call()


@pytest.mark.parametrize(
    "rows, problem",
    [
        # a record's fields are all parsed before any is range-checked
        (["10.0.0.1,70000,10.0.0.2,80,TCP,soon,benign"],
         ":2: column start_time: 'soon' is not a number"),
        # a field that does not parse, or is out of range, reads 0 for the
        # conflict check; it is named, not the conflict its 0 makes
        (["10.0.0.1,0,10.0.0.2,80,TCP,1.0,benign", "10.0.0.1,x,10.0.0.2,80,TCP,1.0,attack"],
         ":3: column initiator_port: 'x' is not a number"),
        (["10.0.0.1,0,10.0.0.2,80,TCP,1.0,benign", "10.0.0.1,-5,10.0.0.2,80,TCP,1.0,attack"],
         ":3: column initiator_port: '-5' is not a port from 0 to 65535"),
        # a conflict on an earlier record is named before a later defect
        (["10.0.0.1,1,10.0.0.2,80,TCP,1.0,benign", "10.0.0.1,1,10.0.0.2,80,TCP,1.0,attack",
          "10.0.0.1,1,10.0.0.2,80,TCP,1.0"],
         ":3: flow ('10.0.0.1', 1, '10.0.0.2', 80, 'TCP', 1000000) is labelled 'attack' "
         "here but 'benign' on line 2"),
    ],
)
def test_labels_csv_names_first_defect(tmp_path, rows, problem):
    path = tmp_path / "labels.csv"
    path.write_text("\n".join([",".join(_LABEL_COLUMNS), *rows, ""]))
    with pytest.raises(LabelError) as caught:
        read_labels_csv(path)
    assert str(caught.value) == f"{path}{problem}"


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_labels_match_row_wise_reference(tmp_path_factory, data):
    rows = data.draw(manifest_rows())
    path = tmp_path_factory.mktemp("labels") / "labels.csv"
    path.write_bytes(_labels_csv_bytes(rows, data.draw(st.sampled_from(["\r\n", "\n"]))))
    outcome = _same_outcome(lambda: reference.read_labels_csv(path), lambda: read_labels_csv(path))
    if outcome is None:
        return
    want, got = outcome
    assert isinstance(got, FlowLabels)
    columns = [getattr(got, name).tolist() for name in _LABEL_COLUMNS]
    assert list(zip(*columns)) == [dataclasses.astuple(entry) for entry in want]
    # the manifest's own flows (every one spelled as a capture's addresses
    # are, others maybe), in any order, and maybe some it does not hold;
    # a flow holds the address _read_address reads from its row
    flow_rows = [row for row in map(dataclasses.astuple, want)
                 if _canonical(row[0]) and _canonical(row[2]) or data.draw(st.booleans())]
    flow_rows += data.draw(st.lists(_ROWS, max_size=2))
    flow_rows = data.draw(st.permutations(flow_rows))
    ip, port, rip, rport, protocol, start, _ = zip(*flow_rows) if flow_rows else [()] * 7
    ip, rip = ([int.from_bytes(_read_address(a), "big") for a in c] for c in (ip, rip))
    flows = SimpleNamespace(
        initiator_ip=np.array(ip, dtype=np.uint32), initiator_port=np.array(port, dtype=np.int64),
        responder_ip=np.array(rip, dtype=np.uint32),
        responder_port=np.array(rport, dtype=np.int64),
        protocol=np.array([{"TCP": 6, "UDP": 17}[p] for p in protocol], dtype=np.uint8),
        start_time=np.array(start, dtype=float),
    )
    matched = _same_outcome(lambda: reference.match_labels(flows, want),
                            lambda: match_labels(flows, got))
    if matched is not None:
        assert matched[1] == matched[0]
    # and the manifest writes the bytes the csv.writer writer wrote
    write_labels_csv(got, path)
    reference.write_labels_csv(want, path.with_name("want.csv"))
    assert path.read_bytes() == path.with_name("want.csv").read_bytes()


def test_labels_csv_is_utf8(tmp_path):
    manifest = build_scenario("fig2", seed=0).manifest
    labels = np.array(["bénin", "攻撃", "a,b", 'say "hi"'] * 2, dtype=object)
    manifest = dataclasses.replace(manifest, label=labels)
    path = tmp_path / "labels.csv"
    write_labels_csv(manifest, path)
    assert "攻撃" in path.read_bytes().decode("utf-8")
    assert read_labels_csv(path).label.tolist() == labels.tolist()
    # a start time the fixed-point writer does not print goes through csv.writer
    huge = dataclasses.replace(manifest, start_time=np.full(len(manifest), 1e300))
    write_labels_csv(huge, path)
    assert "攻撃" in path.read_bytes().decode("utf-8")


@pytest.mark.parametrize("defect", [
    lambda row: row[:4] + b"\n" + row[4:],  # a line end inside the first address
    lambda row: row[:4] + b"\r" + row[4:],
    lambda row: row + b"x" * csv.field_size_limit(),  # a label longer than csv.reader reads
], ids=["lf", "cr", "long_field"])
def test_labels_csv_defects_csv_reader_finds(tmp_path, defect):
    path = tmp_path / "labels.csv"
    write_labels_csv(build_scenario("fig2", seed=0).manifest, path)
    head, row, rest = path.read_bytes().split(b"\r\n", 2)
    path.write_bytes(b"\r\n".join([head, defect(row), rest]))
    outcome = _same_outcome(lambda: reference.read_labels_csv(path), lambda: read_labels_csv(path))
    assert outcome is None  # both raise, naming line 2


def test_one_row_labels_read_in_bulk(tmp_path):
    path = tmp_path / "labels.csv"
    manifest = build_scenario("fig2", seed=0).manifest.take(np.arange(1))
    write_labels_csv(manifest, path)
    got, bulk = read_both_ways(read_labels_csv, path)
    assert bulk and got.label.tolist() == manifest.label.tolist()


@pytest.mark.parametrize("edge", list(OTHER_DIALECTS))
def test_labels_in_other_dialects_read_as_csv_reader_reads_them(tmp_path, edge):
    mutate, want = OTHER_DIALECTS[edge]
    path = tmp_path / "labels.csv"
    write_labels_csv(build_scenario("fig2", seed=0).manifest, path)
    assert read_both_ways(read_labels_csv, path)[1]  # the writer's own file: read in bulk
    path.write_bytes(mutate(path.read_bytes().decode()).encode())
    got, bulk = read_both_ways(read_labels_csv, path)
    assert not bulk
    if isinstance(want, str):
        assert got == f"{path}{want.format(width=len(_LABEL_COLUMNS))}"
    else:
        assert got.label.tolist()[:2] == want
    _same_outcome(lambda: reference.read_labels_csv(path), lambda: read_labels_csv(path))
