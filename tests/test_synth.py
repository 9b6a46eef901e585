import json
from pathlib import Path

import numpy as np
import pytest

from flowbundle import aggregation, features, flows
from flowbundle.pcap import UDP, read_pcap
from flowbundle.synth import (
    LabelError,
    ScenarioSpec,
    TrafficClassSpec,
    build_scenario,
    fig2_traffic,
    generate,
    load_scenario_spec,
    match_labels,
    mimicking_scenario,
    read_labels_csv,
    write_labels_csv,
    write_pcap,
)

from conftest import TIMEOUTS


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
    assert traffic.manifest[0].label == "benign"


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
    assert set(labels) == {e.label for e in traffic.manifest}


def test_unmatched_flow_raises():
    traffic = build_scenario("fig2", seed=0)
    assembled = flows.assemble_flows(traffic.packets, **TIMEOUTS)
    with pytest.raises(LabelError):
        match_labels(assembled, traffic.manifest[:-1])


def test_fig2_bundles():
    traffic = fig2_traffic()
    assembled = flows.assemble_flows(traffic.packets, **TIMEOUTS)
    table = features.flow_table(assembled, ["benign"] * len(assembled))
    bundles = aggregation.bundle_flows(table)
    assert sorted((b.num_flows for b in bundles), reverse=True) == [4, 2, 1, 1]
    stamped = aggregation.aggregate_features(table)
    assert stamped.aggregated and len(stamped.num_flows) == len(table)


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
    assert back == traffic.manifest


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
    labels = {e.label for e in traffic.manifest}
    assert labels == {"benign", "probe"}


def test_scenario_spec_json_invalid(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1}')
    with pytest.raises(ValueError, match="invalid scenario spec"):
        load_scenario_spec(path)


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
