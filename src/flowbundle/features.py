"""Per-flow statistical features, the flow table and the flow CSV schema.

Each direction contributes 17 statistics (34 total per flow); the two
bundle-level columns (num_flows, src_ports_delta) stay empty until the
aggregation step fills them.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .flows import FlowSegments
from .pcap import PROTOCOL_NAMES, TCP_FLAG_BITS, dotted

_DIRECTION_STATS = (
    "pkt_count",
    "byte_count",
    "pkt_len_mean",
    "pkt_len_std",
    "pkt_len_min",
    "pkt_len_max",
    "iat_mean",
    "iat_std",
    "iat_min",
    "iat_max",
    "time_from_first_mean",
    "flag_syn_count",
    "flag_ack_count",
    "flag_fin_count",
    "flag_rst_count",
    "flag_psh_count",
    "flag_urg_count",
)

FLOW_FEATURE_NAMES: list[str] = [
    f"{direction}_{stat}" for direction in ("fwd", "bwd") for stat in _DIRECTION_STATS
]
AGGREGATION_FEATURE_NAMES: list[str] = ["num_flows", "src_ports_delta"]
ALL_FEATURE_NAMES: list[str] = FLOW_FEATURE_NAMES + AGGREGATION_FEATURE_NAMES

_META_COLUMNS = [
    "initiator_ip",
    "initiator_port",
    "responder_ip",
    "responder_port",
    "protocol",
    "start_time",
]
CSV_COLUMNS: list[str] = _META_COLUMNS + FLOW_FEATURE_NAMES + [
    "num_flows",
    "src_ports_delta",
    "label",
]

_INT_FEATURES = frozenset(
    name
    for name in FLOW_FEATURE_NAMES
    if "count" in name
)
_STAT_INDEX = {name: i for i, name in enumerate(FLOW_FEATURE_NAMES)}


class SchemaError(ValueError):
    """Raised when a flow CSV does not match the expected schema."""


@dataclass(frozen=True, eq=False)
class FlowTable:
    """Flows as columns, one row per flow.

    The string columns are object arrays, the ports int64 and ``stats``
    an (n, 34) float block in FLOW_FEATURE_NAMES order.  ``num_flows``
    and ``src_ports_delta`` are both columns once aggregation has run
    and both None before: the state belongs to the table, not a row.
    """

    initiator_ip: np.ndarray
    initiator_port: np.ndarray
    responder_ip: np.ndarray
    responder_port: np.ndarray
    protocol: np.ndarray
    start_time: np.ndarray
    label: np.ndarray
    stats: np.ndarray
    num_flows: np.ndarray | None = None
    src_ports_delta: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.num_flows is None) != (self.src_ports_delta is None):
            raise ValueError("num_flows and src_ports_delta are filled together")

    def __len__(self) -> int:
        return len(self.label)

    @property
    def aggregated(self) -> bool:
        return self.num_flows is not None

    def take(self, rows) -> FlowTable:
        """The rows an index array or boolean mask selects, in that order."""
        columns = {f.name: getattr(self, f.name) for f in fields(self)}
        return FlowTable(**{
            name: None if column is None else column[rows]
            for name, column in columns.items()
        })


def extract_features(flows: FlowSegments) -> np.ndarray:
    """Every flow's 34 statistics, an (n, 34) block in FLOW_FEATURE_NAMES order.

    Each direction's flows are batched by packet count m into C-ordered
    (flows, m) matrices, so every ``axis=1`` sum, mean and population std
    reduces one contiguous row exactly as it would a 1-D array: each value
    is bit-identical to the per-direction result.
    """
    n, packets = len(flows), flows.packets
    flow_of = np.repeat(np.arange(n), np.diff(flows.bounds))
    out = np.zeros((n, len(FLOW_FEATURE_NAMES)))
    for half, mask in zip(np.hsplit(out, 2), (flows.forward, ~flows.forward)):
        rows = flows.rows[mask]
        counts = np.bincount(flow_of[mask], minlength=n)
        starts = np.cumsum(counts) - counts
        order = np.argsort(counts, kind="stable")
        sizes, firsts = np.unique(counts[order], return_index=True)
        for m, members in zip(sizes.tolist(), np.split(order, firsts[1:])):
            if not m:
                continue  # an empty direction's statistics are all 0
            take = rows[starts[members, None] + np.arange(m)]
            times, lengths = packets.timestamp[take], packets.ip_total_length[take]
            stats = [m, lengths.sum(axis=1), lengths.mean(axis=1), lengths.std(axis=1),
                     lengths.min(axis=1), lengths.max(axis=1)]
            if m >= 2:
                iats = np.diff(times, axis=1)
                # offsets of every successive packet from the direction's first
                offsets = times[:, 1:] - times[:, :1]
                stats += [iats.mean(axis=1), iats.std(axis=1), iats.min(axis=1),
                          iats.max(axis=1), offsets.mean(axis=1)]
            else:
                stats += [0.0] * 5
            flags = packets.tcp_flags[take]
            stats += [np.count_nonzero(flags & bit, axis=1) for bit in TCP_FLAG_BITS.values()]
            for j, column in enumerate(stats):
                half[members, j] = column
    return out


def flow_table(flows: FlowSegments, labels: list[str]) -> FlowTable:
    """One row per flow: its identity, its label and its 34 statistics."""
    return FlowTable(
        initiator_ip=dotted(flows.initiator_ip),
        initiator_port=flows.initiator_port,
        responder_ip=dotted(flows.responder_ip),
        responder_port=flows.responder_port,
        protocol=np.array(
            [PROTOCOL_NAMES[p] for p in flows.protocol.tolist()], dtype=object
        ),
        start_time=flows.start_time,
        label=np.array(labels, dtype=object),
        stats=extract_features(flows),
    )


def feature_matrix(table: FlowTable, feature_names: list[str]) -> np.ndarray:
    """Stack the named features into an (n_rows, n_features) float matrix."""
    out = np.empty((len(table), len(feature_names)), dtype=float)
    for j, name in enumerate(feature_names):
        if name not in AGGREGATION_FEATURE_NAMES:
            out[:, j] = table.stats[:, _STAT_INDEX[name]]
        elif not table.aggregated:
            raise SchemaError(f"{name} not populated; run aggregation first")
        else:
            out[:, j] = getattr(table, name)
    return out


def label_classes(
    table: FlowTable, class_names: list[str] | None = None
) -> tuple[np.ndarray, list[str]]:
    """Encode row labels as class indices against a stable class list."""
    labels = table.label.tolist()
    if class_names is None:
        seen = sorted(set(labels))
        # benign first so class 0 is the background class by convention
        class_names = [c for c in ("benign",) if c in seen] + [
            c for c in seen if c != "benign"
        ]
    index = {name: i for i, name in enumerate(class_names)}
    try:
        y = np.array([index[label] for label in labels], dtype=int)
    except KeyError as exc:
        raise SchemaError(f"label {exc.args[0]!r} not in class list {class_names}")
    return y, class_names


_EXACT = 2.0**52 / 1e6  # below this, |v|·1e6 rounds to an exact integer


def _digits(q: np.ndarray) -> np.ndarray:
    """Each q >= 0 in decimal, a column of a (width, n) uint8 block, right-aligned and
    padded with NUL; by floor division alone (divmod and % loop), in uint32 if q fits."""
    q = q.astype(np.uint32 if q.max(initial=0) < 2**32 else np.uint64)
    quotient = q // 10
    rows = [q - quotient * 10 + ord("0")]
    while quotient.any():
        lead, q = quotient != 0, quotient  # NUL left of the leading digit
        quotient = q // 10
        rows.append((q - quotient * 10 + ord("0")) * lead)
    return np.array(rows[::-1], np.uint8)


def _field(values: np.ndarray, kind: str) -> np.ndarray | None:
    """A column as ``kind % value`` prints each value, a string csv.writer
    quotes quoted, one value per column of a (width, n) uint8 block padded
    with NUL; None when a string holds NUL or a number is not finite or
    |v| >= _EXACT."""
    if kind == "%s":
        strings = values.tolist()
        joined = "".join(strings)
        if "\0" in joined:
            return None
        if any(char in joined for char in ',"\r\n'):  # quoted as csv.writer quotes them
            strings = ['"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\r\n') else s
                       for s in strings]
        text = np.array([s.encode() for s in strings], dtype="S")
        return text.view(np.uint8).reshape(len(values), text.itemsize).T
    if not np.all((values > -_EXACT) & (values < _EXACT)):
        return None
    if kind == "%d":
        q = values.astype(np.int64)  # %d truncates toward zero, as int() does
        negative, rows = q < 0, [_digits(np.abs(q))]
    else:
        scaled = np.abs(values) * 1e6
        q = np.rint(scaled)
        # q is the correctly rounded digit string unless scaled lies so near a
        # half that its own rounding error could cross it: ask Python for those
        near_half = ~(0.5 - np.abs(scaled - q) > scaled * 2.0**-52)
        q = q.astype(np.uint64)
        q[near_half] = [int(("%.6f" % v).replace(".", ""))
                        for v in np.abs(values[near_half]).tolist()]
        negative = np.signbit(values)
        whole, point = q // 10**6, np.full((1, len(q)), ord("."), np.uint8)
        rows = [_digits(whole), point, _digits(q - whole * 10**6 + 10**6)[-6:]]  # of 1dddddd
    return np.concatenate([(negative * ord("-")).astype(np.uint8)[None], *rows])


def write_csv(path: str | Path, header: list[str], columns: list[tuple[str, np.ndarray]]) -> None:
    """Write UTF-8 CSV text: the header, then one row per value of the
    ``(kind, column)`` pairs, each field ``kind % value``.

    Each field is a block of NUL-padded bytes (_field); the blocks, commas
    and line ends stack into one block whose transpose, less its NULs, is
    the text.  A column _field does not print is written by csv.writer.
    """
    blocks = [_field(column, kind) for kind, column in columns]
    if any(block is None for block in blocks):
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(zip(*(map(k.__mod__, c.tolist()) for k, c in columns)))
        return
    comma, end = (np.frombuffer(text, np.uint8)[:, None].repeat(len(columns[0][1]), axis=1)
                  for text in (b",", b"\r\n"))
    rows = np.concatenate([x for block in blocks for x in (block, comma)][:-1] + [end]).T.copy()
    Path(path).write_bytes(",".join(header).encode() + b"\r\n" + rows[rows != 0].tobytes())


def write_features_csv(table: FlowTable, path: str | Path) -> None:
    """Write flows in the documented column order, floats at 6 d.p."""
    empty = np.full(len(table), "", dtype=object)  # the bundle columns before aggregation
    write_csv(path, CSV_COLUMNS, [
        ("%s", table.initiator_ip), ("%d", table.initiator_port),
        ("%s", table.responder_ip), ("%d", table.responder_port),
        ("%s", table.protocol), ("%.6f", table.start_time),
        *(("%d" if name in _INT_FEATURES else "%.6f", column)
          for name, column in zip(FLOW_FEATURE_NAMES, table.stats.T)),
        ("%d", table.num_flows) if table.aggregated else ("%s", empty),
        ("%.6f", table.src_ports_delta) if table.aggregated else ("%s", empty),
        ("%s", table.label),
    ])


# start_time and the 34 statistics are consecutive columns
_STATS_START = CSV_COLUMNS.index("start_time")
_STATS_END = _STATS_START + 1 + len(FLOW_FEATURE_NAMES)
_NUM_FLOWS, _DELTA = _STATS_END, _STATS_END + 1
_INT_COLUMNS = (1, 3, _NUM_FLOWS)  # the ports and num_flows, stored as int64
# every numeric column of a flow CSV row, in column order: the ports, then the rest
_NUMERIC_COLUMNS = [1, 3, *range(_STATS_START, _DELTA + 1)]
_BULK_DTYPES = [np.int64 if i in (1, 3) else float if _STATS_START <= i < _STATS_END
                else object for i in range(len(CSV_COLUMNS))]  # the bundle columns as text


def utf8_text(path: str | Path, error: type[ValueError]) -> str:
    """A UTF-8 file's text; a byte that is not UTF-8 raises ``error`` naming the line."""
    data = Path(path).read_bytes()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise error(f"{path}:{line_of(data[:exc.start])}: "
                    f"byte 0x{data[exc.start]:02x} is not UTF-8") from None


def line_of(head: bytes) -> int:
    """The line the byte after ``head`` is on, as csv.reader counts lines."""
    return len((head + b".").splitlines())


def bulk_columns(text: str, header: list[str], dtypes: list) -> list[np.ndarray] | None:
    """Column i of CSV text as ``dtypes[i]`` (object, np.int64 or float), field i
    of one numpy C parse, for write_csv's own dialect: ASCII (numpy 2.4 can
    crash past U+FFFF), no quote, NUL or \\x1c-\\x1f (space to loadtxt, not to
    int()), each line ended by CRLF, none blank or over csv.field_size_limit(),
    header line ``header``, one row or more; else, or if loadtxt refuses a field, None."""
    lines = text.split("\r\n")  # n lines, then what follows the last CRLF
    n = len(lines) - 1
    if (not text.isascii() or any(c in text for c in '"\0\x1c\x1d\x1e\x1f') or n < 2
            or lines[-1] or lines[0] != ",".join(header) or lines.count("") != 1
            or max(map(len, lines)) > csv.field_size_limit()
            or not text.count("\r") == text.count("\n") == n  # no lone CR or LF
            or text.count(",") != (len(header) - 1) * n):  # then, as loadtxt refuses a
        return None  # row without a column it reads, no row is longer than the header
    try:  # one field per column, in its column's dtype
        rows = np.loadtxt(lines[1:-1], [(f"f{i}", d) for i, d in enumerate(dtypes)],
                          comments=None, delimiter=",", ndmin=1)
    except ValueError:
        return None
    return [rows[name] for name in rows.dtype.names]


def csv_records(path: str | Path, error: type[ValueError]) -> list[list[str]]:
    """Every row of a UTF-8 CSV file in any dialect (bulk_columns reads write_csv's
    own); a byte that is not UTF-8 or a CSV syntax error raises ``error`` naming the line."""
    reader = csv.reader(io.StringIO(utf8_text(path, error), newline=""))
    try:
        return list(reader)
    except csv.Error as exc:
        raise error(f"{path}:{reader.line_num}: {exc}") from None


def record_at(path: str | Path, record: int) -> tuple[int, list[str]]:
    """The line record ``record`` (0 the header) of a CSV file starts on,
    as csv.reader counts lines, and its fields."""
    reader = csv.reader(io.StringIO(utf8_text(path, ValueError), newline=""))
    for _ in range(record):
        next(reader)
    return reader.line_num + 1, next(reader)


def columns_of(records: list[list[str]], width: int) -> tuple[list, list]:
    """The columns of the records before the first not ``width`` fields
    long, and the checks marking that one."""
    if set(map(len, records)) <= {width}:
        return list(zip(*records)) or [()] * width, []
    n = next(i for i, record in enumerate(records) if len(record) != width)
    wrong = (np.arange(n + 1) == n, None, f"expected {width} fields, got {len(records[n])}")
    return list(zip(*records[:n])) or [()] * width, [wrong]


def parse_fields(column: tuple, convert) -> tuple[np.ndarray, np.ndarray]:
    """Each field converted alone, 0 where ``convert`` raises ValueError,
    and a mask of those fields; ints stay Python ints, maybe past int64."""
    values, bad = [convert("0")] * len(column), np.zeros(len(column), bool)
    for i, field in enumerate(column):
        try:
            values[i] = convert(field)
        except ValueError:
            bad[i] = True
    return np.array(values, dtype=float if convert is float else object), bad


def parse_column(column: tuple, convert) -> tuple[np.ndarray, np.ndarray | None]:
    """A column by one bulk ``convert`` (int or float) into int64 or float, and
    None (a column bulk_columns read is already so); if that raises, parse_fields's."""
    dtype = np.int64 if convert is int else float
    if isinstance(column, np.ndarray) and column.dtype == dtype:
        return column, None
    try:
        return np.fromiter(map(convert, column), dtype, len(column)), None
    except (ValueError, OverflowError):
        return parse_fields(column, convert)


def raise_first_defect(path: str | Path, error: type[ValueError], header: list, checks: list):
    """Raise ``error`` at the first record a check marks, with the first
    marking check's message.  Checks, in a record's rule order, are a mask
    or None, a column (named; its field formats the message) or None, and
    a message."""
    marked = [(int(mask.argmax()), k) for k, (mask, _, _) in enumerate(checks)
              if mask is not None and mask.any()]
    if marked:
        row, k = min(marked)  # the first record, then the first check marking it
        _, column, message = checks[k]
        line, record = record_at(path, row + 1)
        if column is not None:
            message = f"column {header[column]}: " + message.format(record[column])
        raise error(f"{path}:{line}: {message}")


def read_features_csv(path: str | Path) -> FlowTable:
    """Load a flow CSV written by write_features_csv.

    Validates the header, that every numeric field is a finite number (the
    ports integers from 0 to 65535, num_flows a 64-bit integer) and that the
    bundle columns are empty on every row or filled on every row; a defect
    raises SchemaError naming the file, line and column.
    """
    columns, checks = bulk_columns(utf8_text(path, SchemaError), CSV_COLUMNS, _BULK_DTYPES), []
    if columns is None:  # not in write_csv's own dialect
        records = csv_records(path, SchemaError)
        if not records:
            raise SchemaError(f"{path}: empty file, expected header row")
        header, records = records[0], records[1:]
        if header != CSV_COLUMNS:
            raise SchemaError(
                f"{path}: header mismatch; expected {len(CSV_COLUMNS)} documented "
                f"columns starting {CSV_COLUMNS[:3]}, got {header[:3]}"
            )
        columns, checks = columns_of(records, len(CSV_COLUMNS))
    bundle = columns[_NUM_FLOWS], columns[_DELTA]
    aggregated = any(map(any, bundle))  # no rows: unaggregated
    values = {}
    for i in _NUMERIC_COLUMNS if aggregated else _NUMERIC_COLUMNS[:-2]:
        if i in _INT_COLUMNS:
            values[i], syntax = parse_column(columns[i], int)
            bad = (values[i] < -(2**63)) | (values[i] >= 2**63)
            problem = "{!r} does not fit in 64 bits"
        else:
            values[i], syntax = parse_column(columns[i], float)
            bad, problem = ~np.isfinite(values[i]), "non-finite value {!r}"
        if i in (_NUM_FLOWS, _DELTA) and syntax is not None:
            syntax &= np.array(columns[i], dtype=object) != ""  # empty: checked below
        port = (values[i] < 0) | (values[i] > 65535) if i in (1, 3) else None
        checks += [(syntax, i, "{!r} is not a number"), (bad, i, problem),
                   (port, i, "{!r} is not a port from 0 to 65535")]
    if aggregated and not all(map(all, bundle)):  # some fields empty, some filled
        empty = [np.array(column, dtype=object) == "" for column in bundle]
        here, first = ("filled", "empty") if empty[0][0] else ("empty", "filled")
        checks += [
            (empty[1] & ~empty[0], _DELTA, "empty while num_flows is filled"),
            (empty[0] & ~empty[1], _NUM_FLOWS, "empty while src_ports_delta is filled"),
            (empty[0] != empty[0][0], _NUM_FLOWS, f"{here} here but {first} on line 2; "
             "the bundle columns must be all empty or all filled"),
        ]
    raise_first_defect(path, SchemaError, CSV_COLUMNS, checks)
    numbers = np.array([values[i] for i in range(_STATS_START, _STATS_END)])
    table = FlowTable(
        initiator_ip=np.array(columns[0], dtype=object),
        initiator_port=values[1].copy(),  # not a view holding all of bulk_columns's parse
        responder_ip=np.array(columns[2], dtype=object),
        responder_port=values[3].copy(),
        protocol=np.array(columns[4], dtype=object),
        start_time=numbers[0],
        label=np.array(columns[-1], dtype=object),
        stats=numbers[1:].T,
        num_flows=values.get(_NUM_FLOWS),
        src_ports_delta=values.get(_DELTA),
    )
    del columns  # before the records, so fields free in file order: faster
    return table
