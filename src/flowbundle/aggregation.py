"""Flow bundling and the two bundle-level features.

Flows sharing an initiator IP (within an optional tumbling time window)
form a bundle; bundles are numbered in order of their first row.  Each
bundle of n flows yields n and the mean absolute gap between consecutive
sorted initiator ports, which telescopes to (max - min) / (n - 1), 0.0
for a single flow.  Both values are then stamped onto every member flow.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .features import FlowTable


def ports_delta(ports: Sequence[int]) -> float:
    """Mean absolute difference between consecutive sorted ports, in
    closed form: (max - min) / (n - 1).

    A single port yields 0.0 (no consecutive pair exists); an empty list
    is a caller error.
    """
    if len(ports) == 0:
        raise ValueError("ports_delta requires at least one port")
    if len(ports) == 1:
        return 0.0
    return (max(ports) - min(ports)) / (len(ports) - 1)


@dataclass(frozen=True, eq=False)
class Bundles:
    """Per-bundle columns, in order of each bundle's first row, and the
    bundle index of every row of the bundled table."""

    num_flows: np.ndarray
    src_ports_delta: np.ndarray
    row_bundle: np.ndarray

    def __len__(self) -> int:
        return len(self.num_flows)


def bundle_flows(table: FlowTable, window: float | None = None) -> Bundles:
    """Bundle a table's rows by initiator IP and tumbling window.

    ``window`` is the window length in seconds; None means one unbounded
    window spanning the whole capture.
    """
    if window is not None and window <= 0:
        raise ValueError("bundle window must be positive or None")
    keys = table.initiator_ip.tolist()
    if window is not None:
        with np.errstate(over="ignore"):  # an infinite index is reported below
            index = np.floor(table.start_time / window)  # float: exact past 2**63
        if not np.isfinite(index).all():
            raise ValueError(f"bundle window {window} s is too small for start times up to "
                             f"{np.abs(table.start_time).max()} s: no finite window index")
        keys = zip(keys, index.tolist())
    codes = {}
    row_bundle = np.array([codes.setdefault(key, len(codes)) for key in keys], dtype=np.intp)
    count = len(codes)
    high = np.full(count, np.iinfo(np.int64).min)
    low = np.full(count, np.iinfo(np.int64).max)
    np.maximum.at(high, row_bundle, table.initiator_port)
    np.minimum.at(low, row_bundle, table.initiator_port)
    num_flows = np.bincount(row_bundle, minlength=count)
    spread = high.view(np.uint64) - low.view(np.uint64)  # exact for any int64 ports
    delta = np.divide(spread, num_flows - 1, out=np.zeros(count), where=num_flows > 1)
    return Bundles(num_flows=num_flows, src_ports_delta=delta, row_bundle=row_bundle)


def aggregate_features(table: FlowTable, window: float | None = None) -> FlowTable:
    """The table with every row stamped with its bundle's num_flows and
    ports delta."""
    bundles = bundle_flows(table, window)
    return dataclasses.replace(
        table,
        num_flows=bundles.num_flows[bundles.row_bundle],
        src_ports_delta=bundles.src_ports_delta[bundles.row_bundle],
    )
