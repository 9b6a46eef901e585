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

import numpy as np

from .features import FlowTable


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
    rows: np.ndarray  # the members' row indices in the bundled table
    num_flows: int
    src_ports_delta: float


def bundle_keys(table: FlowTable, window: float | None) -> list[tuple[str, int]]:
    """The (initiator IP, tumbling-window index) each row is bundled by."""
    if window is None:
        indices = [0] * len(table)
    else:
        indices = [math.floor(t / window) for t in table.start_time.tolist()]
    return list(zip(table.initiator_ip.tolist(), indices))


def bundle_flows(table: FlowTable, window: float | None = None) -> list[Bundle]:
    """Group a table's rows into bundles keyed by initiator IP and tumbling
    window, in order of each bundle's first row.

    ``window`` is the window length in seconds; None means one unbounded
    window spanning the whole capture.
    """
    if window is not None and window <= 0:
        raise ValueError("bundle window must be positive or None")
    groups: dict[tuple[str, int], list[int]] = {}
    for row, key in enumerate(bundle_keys(table, window)):
        groups.setdefault(key, []).append(row)
    ports = table.initiator_port.tolist()
    return [
        Bundle(
            initiator_ip=ip,
            window_index=index,
            rows=np.array(rows),
            num_flows=len(rows),
            src_ports_delta=ports_delta([ports[row] for row in rows]),
        )
        for (ip, index), rows in groups.items()
    ]


def aggregate_features(table: FlowTable, window: float | None = None) -> FlowTable:
    """The table with every row stamped with its bundle's num_flows and
    ports delta."""
    num_flows = np.empty(len(table), dtype=np.int64)
    delta = np.empty(len(table))
    for bundle in bundle_flows(table, window):
        num_flows[bundle.rows] = bundle.num_flows
        delta[bundle.rows] = bundle.src_ports_delta
    return dataclasses.replace(table, num_flows=num_flows, src_ports_delta=delta)
