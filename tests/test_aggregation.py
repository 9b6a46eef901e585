import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowbundle.aggregation import aggregate_features, bundle_flows, ports_delta
from flowbundle.features import FLOW_FEATURE_NAMES, FlowTable, flow_table
from flowbundle.flows import assemble_flows
from flowbundle.synth import build_scenario, match_labels

from conftest import TIMEOUTS


def brute_force_delta(ports):
    ordered = sorted(ports)
    diffs = [abs(ordered[i + 1] - ordered[i]) for i in range(len(ordered) - 1)]
    return statistics.mean(diffs) if diffs else 0.0


def feature_row(ip, port, start=0.0, label="benign"):
    return ip, port, start, label


def table_of(rows):
    """A flow table of feature_row tuples, every statistic 0."""
    n = len(rows)
    return FlowTable(
        initiator_ip=np.array([r[0] for r in rows], dtype=object),
        initiator_port=np.array([r[1] for r in rows], dtype=np.int64),
        responder_ip=np.array(["192.168.10.10"] * n, dtype=object),
        responder_port=np.full(n, 80),
        protocol=np.array(["TCP"] * n, dtype=object),
        start_time=np.array([r[2] for r in rows], dtype=float),
        label=np.array([r[3] for r in rows], dtype=object),
        stats=np.zeros((n, len(FLOW_FEATURE_NAMES))),
    )


def flows_table(flows):
    return flow_table(flows, ["benign"] * len(flows))


class TestPortsDelta:
    def test_hand_executed_example(self):
        assert ports_delta([4000, 1000, 2000]) == 1500.0

    def test_identical_ports(self):
        assert ports_delta([1000, 1000, 1000]) == 0.0

    def test_singleton(self):
        assert ports_delta([5555]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ports_delta([])

    @given(st.lists(st.integers(0, 65535), min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, ports):
        assert ports_delta(ports) == brute_force_delta(ports)

    @given(st.lists(st.integers(0, 65535), min_size=1, max_size=50),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant(self, ports, rand):
        shuffled = list(ports)
        rand.shuffle(shuffled)
        assert ports_delta(shuffled) == ports_delta(ports)

    @given(st.integers(0, 5000), st.integers(1, 300), st.integers(2, 120))
    @settings(max_examples=100, deadline=None)
    def test_arithmetic_sequence_gives_step_exactly(self, start, step, count):
        ports = [start + i * step for i in range(count)]
        assert ports_delta(ports) == float(step)


class TestBundleFlows:
    def test_fig2_bundle_sizes(self):
        traffic = build_scenario("fig2", seed=0)
        flows = assemble_flows(traffic.packets, **TIMEOUTS)
        table = flows_table(flows)
        bundles = bundle_flows(table)
        sizes = sorted(bundles.num_flows.tolist(), reverse=True)
        assert sizes == [4, 2, 1, 1]
        by_ip = dict(zip(table.initiator_ip.tolist(),
                         bundles.num_flows[bundles.row_bundle].tolist()))
        assert by_ip["10.0.0.1"] == 4  # host A
        assert by_ip["10.0.0.2"] == 2  # host B

    def test_single_flow_bundle(self):
        rows = [feature_row("10.0.0.9", 4242)]
        bundles = bundle_flows(table_of(rows))
        assert len(bundles) == 1
        assert bundles.num_flows[0] == 1
        assert bundles.src_ports_delta[0] == 0.0

    def test_window_partitions_by_start_time(self):
        rows = [feature_row("10.0.0.1", 1000 + i, start=float(i) * 100)
                for i in range(4)]
        bundles = bundle_flows(table_of(rows), window=150.0)
        assert bundles.row_bundle.tolist() == [0, 0, 1, 2]
        assert sorted(bundles.num_flows.tolist()) == [1, 1, 2]
        assert bundles.num_flows.sum() == 4

    def test_unbounded_window_single_index(self):
        rows = [feature_row("10.0.0.1", 1000, start=0.0),
                feature_row("10.0.0.1", 2000, start=1e6)]
        bundles = bundle_flows(table_of(rows), window=None)
        assert len(bundles) == 1
        assert bundles.row_bundle.tolist() == [0, 0]

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            bundle_flows(table_of([]), window=0.0)
        with pytest.raises(ValueError):
            bundle_flows(table_of([]), window=-5.0)

    def test_window_without_finite_index(self):
        rows = [feature_row("10.0.0.1", 1000, start=-3.0),
                feature_row("10.0.0.1", 2000, start=1.6e9)]
        with pytest.raises(ValueError, match="window 1e-300 s is too small for start "
                                             "times up to 1600000000.0 s"):
            bundle_flows(table_of(rows), window=1e-300)

    def test_ports_past_16_bits_give_the_exact_spread(self):
        # a flow CSV may hold any 64-bit port: the spread must not wrap
        rows = [feature_row("10.0.0.1", -2**63), feature_row("10.0.0.1", 2**63 - 1)]
        bundles = bundle_flows(table_of(rows))
        assert bundles.src_ports_delta.tolist() == [float(2**64 - 1)]

    def test_empty_input(self):
        assert len(bundle_flows(table_of([]))) == 0

    def test_adding_a_flow_never_decreases_num_flows(self):
        rows = [feature_row("10.0.0.1", 1000 + i) for i in range(5)]
        before = bundle_flows(table_of(rows)).num_flows[0]
        after = bundle_flows(table_of(rows + [feature_row("10.0.0.1", 2000)])).num_flows[0]
        assert after == before + 1

    def test_partition_property(self):
        traffic = build_scenario("mimicking", seed=4, scale="small")
        table = flows_table(assemble_flows(traffic.packets, **TIMEOUTS))
        bundles = bundle_flows(table)
        assert bundles.num_flows.sum() == len(table)
        assert bundles.num_flows.tolist() == np.bincount(bundles.row_bundle).tolist()
        assert bundles.num_flows.min() >= 1
        assert bundles.src_ports_delta.min() >= 0.0
        ips = {}
        for ip, bundle in zip(table.initiator_ip.tolist(), bundles.row_bundle.tolist()):
            assert ips.setdefault(bundle, ip) == ip


def reference_bundles(table, window):
    """Bundling by the definition: each bundle's rows, grouped in a dict keyed
    by initiator IP and integer window index, in first-row order."""
    groups = {}
    for row, (ip, start) in enumerate(zip(table.initiator_ip.tolist(),
                                          table.start_time.tolist())):
        index = 0 if window is None else math.floor(start / window)
        groups.setdefault((ip, index), []).append(row)
    return list(groups.values())


@st.composite
def bundle_tables(draw):
    """Random flow tables with repeated IPs, ports and start times."""
    ips = [f"10.0.0.{i}" for i in range(draw(st.integers(1, 5)))]
    ports = draw(st.lists(st.integers(0, 65535), min_size=1, max_size=4))
    starts = draw(st.lists(st.floats(-2e9, 2e9), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(
        st.sampled_from(ips),
        st.one_of(st.sampled_from(ports), st.integers(0, 65535)),
        st.one_of(st.sampled_from(starts), st.floats(-2e9, 2e9)),
    ), max_size=60))
    return table_of([feature_row(ip, port, start) for ip, port, start in rows])


@given(bundle_tables(), st.one_of(st.none(), st.floats(0.5, 200.0), st.just(1e-10)))
@settings(max_examples=200, deadline=None)
def test_bundling_matches_reference(table, window):
    groups = reference_bundles(table, window)
    ports = table.initiator_port.tolist()
    expected = [(len(rows), brute_force_delta([ports[row] for row in rows])) for rows in groups]
    bundles = bundle_flows(table, window)
    assert len(bundles) == len(groups)
    assert list(zip(bundles.num_flows.tolist(), bundles.src_ports_delta.tolist())) == expected
    stamped = [None] * len(table)
    for rows, bundle in zip(groups, expected):
        for row in rows:
            stamped[row] = bundle
    out = aggregate_features(table, window)
    assert list(zip(out.num_flows.tolist(), out.src_ports_delta.tolist())) == stamped


class TestPropagate:
    """aggregate_features stamps each bundle's features on its rows."""

    def test_four_flow_bundle_stamps_all_rows(self):
        ports = [3000, 1000, 2000, 6000]
        rows = [feature_row("10.0.0.1", p) for p in ports]
        out = aggregate_features(table_of(rows))
        expected = brute_force_delta(ports)
        assert out.num_flows.tolist() == [4] * 4
        assert out.src_ports_delta.tolist() == [expected] * 4

    def test_singleton_row(self):
        rows = [feature_row("10.0.0.2", 1234)]
        out = aggregate_features(table_of(rows))
        assert (out.num_flows[0], out.src_ports_delta[0]) == (1, 0.0)

    def test_two_bundles_composed_with_delta_oracle(self):
        rows = (
            [feature_row("10.0.0.1", p) for p in (100, 300, 900)]
            + [feature_row("10.0.0.2", p) for p in (5000, 6000)]
        )
        out = aggregate_features(table_of(rows))
        d1 = brute_force_delta([100, 300, 900])
        d2 = brute_force_delta([5000, 6000])
        assert list(zip(out.num_flows.tolist(), out.src_ports_delta.tolist())) == [
            (3, d1), (3, d1), (3, d1), (2, d2), (2, d2),
        ]

    def test_other_fields_untouched(self):
        table = table_of([feature_row("10.0.0.1", 100, start=42.5, label="slowloris")])
        table.stats[0, FLOW_FEATURE_NAMES.index("fwd_pkt_count")] = 3.0
        out = aggregate_features(table)
        assert out.label.tolist() == ["slowloris"]
        assert out.start_time.tolist() == [42.5]
        assert out.stats.tolist() == table.stats.tolist()
        assert out.stats.sum() == 3.0
        assert table.num_flows is None  # input table not mutated

    def test_aggregate_features_idempotent(self):
        rows = [feature_row("10.0.0.1", p) for p in (10, 20, 80)]
        once = aggregate_features(table_of(rows))
        twice = aggregate_features(once)
        assert once.num_flows.tolist() == twice.num_flows.tolist()
        assert once.src_ports_delta.tolist() == twice.src_ports_delta.tolist()

def test_scenario_port_step_appears_as_delta():
    # a sequential-port scanner with step 3 shows delta exactly 3.0
    from flowbundle.synth import ScenarioSpec, TrafficClassSpec, generate

    spec = ScenarioSpec(
        seed=11,
        duration=120.0,
        classes=[
            TrafficClassSpec(
                label="probe",
                n_sources=1,
                flows_per_source=(40, 40),
                port_pattern="sequential",
                port_step=3,
                single_target=True,
            )
        ],
    )
    traffic = generate(spec)
    flows = assemble_flows(traffic.packets, **TIMEOUTS)
    labels = match_labels(flows, traffic.manifest)
    assert labels == ["probe"] * 40
    bundles = bundle_flows(flow_table(flows, labels))
    assert len(bundles) == 1
    assert bundles.num_flows[0] == 40
    assert bundles.src_ports_delta[0] == 3.0
