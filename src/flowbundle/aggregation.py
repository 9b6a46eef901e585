"""Flow bundling and the two bundle-level features.

Flows sharing an initiator IP (within an optional tumbling time window)
form a bundle; each bundle yields its flow count and the mean absolute
gap between consecutive sorted initiator ports.  Both values are then
stamped onto every member flow.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

from .features import FlowFeatureVector


class AggregationError(RuntimeError):
    """Internal consistency failure while propagating bundle features."""


def ports_delta(ports: Sequence[int]) -> float:
    """Mean absolute difference between consecutive sorted ports.

    A single port yields 0.0 (no consecutive pair exists); an empty list
    is a caller error.
    """
    if len(ports) == 0:
        raise ValueError("ports_delta requires at least one port")
    if len(ports) == 1:
        return 0.0
    ordered = sorted(ports)
    diffs = [abs(b - a) for a, b in zip(ordered, ordered[1:])]
    return sum(diffs) / len(diffs)


@dataclass
class Bundle:
    """A group of flows sharing an initiator within one window."""

    initiator_ip: str
    window_index: int
    member_flows: list
    num_flows: int
    src_ports_delta: float


def bundle_key(flow: FlowFeatureVector, window: float | None) -> tuple[str, int]:
    """The (initiator IP, tumbling-window index) a flow is bundled by."""
    index = 0 if window is None else math.floor(flow.start_time / window)
    return flow.initiator_ip, index


def bundle_flows(
    flows: Sequence[FlowFeatureVector], window: float | None = None
) -> list[Bundle]:
    """Group flows into bundles keyed by initiator IP and tumbling window.

    ``window`` is the window length in seconds; None means one unbounded
    window spanning the whole capture.
    """
    if window is not None and window <= 0:
        raise ValueError("bundle window must be positive or None")
    groups: dict[tuple[str, int], list[FlowFeatureVector]] = {}
    for flow in flows:
        groups.setdefault(bundle_key(flow, window), []).append(flow)
    bundles = []
    for (ip, index), members in groups.items():
        bundles.append(
            Bundle(
                initiator_ip=ip,
                window_index=index,
                member_flows=list(members),
                num_flows=len(members),
                src_ports_delta=ports_delta([m.initiator_port for m in members]),
            )
        )
    return bundles


def propagate(
    bundles: Sequence[Bundle], features: Sequence[FlowFeatureVector]
) -> list[FlowFeatureVector]:
    """Stamp each feature row with its bundle's num_flows and ports delta.

    Rows must be the same objects the bundles were built over; an
    unbundled row is an internal consistency error.
    """
    by_row: dict[int, Bundle] = {}
    for bundle in bundles:
        for member in bundle.member_flows:
            by_row[id(member)] = bundle
    out = []
    for row in features:
        bundle = by_row.get(id(row))
        if bundle is None:
            raise AggregationError(
                f"flow {row.initiator_ip}:{row.initiator_port} @ {row.start_time} "
                "belongs to no bundle"
            )
        out.append(
            dataclasses.replace(
                row,
                num_flows=bundle.num_flows,
                src_ports_delta=bundle.src_ports_delta,
            )
        )
    return out


def aggregate_features(
    rows: Sequence[FlowFeatureVector], window: float | None = None
) -> list[FlowFeatureVector]:
    """Bundle feature rows and propagate the bundle features in one step."""
    return propagate(bundle_flows(rows, window), rows)
