"""Property-based fuzzing of the loaders through ``cli.main``.

Flow CSV: a valid small file (the fig. 2 capture, unaggregated or
aggregated) gets one mutation and goes through ``aggregate``, which only
reads, bundles and writes.  The run must exit 0 or 1 with no traceback;
an exit 1 prints one ``error:`` line naming the file and the mutated
line; an exit 0 writes a file that reads back.

Pcap: the fig. 2 capture gets one overwritten header field or is cut
short.  ``read_pcap`` must give the same packets and skip counts as
the reference reader in test_ingest_reference.py, or raise the same
error; then it goes through ``extract``.  The run must exit 0 with a
flow CSV that reads back, or exit 1 or 2 with one ``error:`` or ``i/o
error:`` line naming the file, never a traceback.

Labels CSV: the fig. 2 manifest gets one mutation (a field changed,
dropped or added, a port or start time out of range, a second label for
a flow, a byte that is not UTF-8, a cut) and goes through ``extract``
with the unchanged capture.  The run must exit 0 with a flow CSV that
reads back, or exit 1 with one ``error:`` line naming the file, and the
line and column where the mutation fixes them.

INI: a valid config file gets up to four line ends, header brackets,
``=``, ``%``, ``#``, NUL, bytes that are not UTF-8 or ``DEFAULT``
inserted or written over it, and goes through ``aggregate --config``.
The run must exit 0, or exit 1 with one ``error:`` line naming the file.

Model and selection JSON: a saved classifier, a saved autoencoder and an
``rfe --out`` selection get one mutation (a byte written over, a line
end, ``1e999``, ``null``, a bracket or quote inserted or written over, a
cut, a spliced copy of a span) and go through ``eval --model``,
``zeroday detect --model`` and ``train --selection``.  The run must exit
0, 1 or 2 with no ``nan`` or ``inf`` in what it prints, and an exit 1 or
2 prints one ``error:`` or ``i/o error:`` line.

Both CSVs, mutated as above, read alike in bulk (numpy's parser, for
text in the writer's own dialect) and by csv.reader alone: the same
table, or the same error.
"""

import csv
import dataclasses
import io
import re
import struct
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from flowbundle.cli import main
from flowbundle.features import CSV_COLUMNS, read_features_csv, write_features_csv
from flowbundle.pcap import PcapFormatError, read_pcap
from flowbundle.synth import _LABEL_COLUMNS, read_labels_csv

from conftest import read_both_ways
from packet_records import records_of
from test_ingest_reference import reference_read_pcap

_BUNDLE_CELLS = [CSV_COLUMNS.index("num_flows"), CSV_COLUMNS.index("src_ports_delta")]


@pytest.fixture(scope="module")
def flow_csvs(tmp_path_factory):
    """The fig. 2 capture's flow CSV, unaggregated and aggregated, and the
    unaggregated one with a quoted line break in row 1's label, as text."""
    base = tmp_path_factory.mktemp("fuzz")
    pcap, labels = base / "fig2.pcap", base / "labels.csv"
    flows_csv, agg_csv = base / "flows.csv", base / "agg.csv"
    with redirect_stdout(io.StringIO()):
        assert main(["synth", "--scenario", "fig2", "--out", str(pcap),
                     "--labels", str(labels)]) == 0
        assert main(["extract", "--pcap", str(pcap), "--labels", str(labels),
                     "--out", str(flows_csv)]) == 0
        assert main(["aggregate", "--in", str(flows_csv), "--out", str(agg_csv)]) == 0
    texts = []
    for path in (flows_csv, agg_csv):
        with open(path, newline="") as handle:
            texts.append(handle.read())
    records = list(csv.reader(io.StringIO(texts[0], newline="")))
    records[1][-1] = "be\nnign"
    texts.append(_csv_text(records))
    return base, texts


def _csv_text(records):
    out = io.StringIO()
    csv.writer(out).writerows(records)
    return out.getvalue()


def _first_line(text, row):
    """The line record ``row`` of a CSV text starts on, as csv.reader counts lines."""
    reader = csv.reader(io.StringIO(text, newline=""))
    for _ in range(row):
        next(reader)
    return reader.line_num + 1


@st.composite
def mutated_flow_csv(draw, texts):
    """(text, line): a flow CSV with one defect-prone change to the record
    starting on line `line` (header = 1)."""
    text = draw(st.sampled_from(texts))
    records = list(csv.reader(io.StringIO(text, newline="")))
    row = draw(st.integers(1, len(records) - 1))
    record = records[row]
    field = draw(st.integers(0, len(record) - 1))
    kind = draw(st.sampled_from(
        ["drop", "extra", "text", "special", "empty", "bundle", "truncate"]
    ))
    if kind == "truncate":
        lines = text.splitlines(keepends=True)
        last = lines[-1]
        cut = draw(st.integers(0, len(last) - 1))
        return "".join(lines[:-1]) + last[:cut], len(lines)
    if kind == "drop":
        del record[field]
    elif kind == "extra":
        record.insert(field, draw(st.text(max_size=8)))
    elif kind == "text":
        record[field] = draw(st.text(max_size=12))
    elif kind == "special":
        record[field] = draw(st.sampled_from(
            ["nan", "NaN", "inf", "-inf", "1e999", "-1e999", "1e308", "", "-0"]
        ))
    elif kind == "empty":
        record[field] = ""
    else:
        record[draw(st.sampled_from(_BUNDLE_CELLS))] = ""
    text = _csv_text(records)
    return text, _first_line(text, row)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_flow_csv_exits_cleanly(flow_csvs, data):
    base, texts = flow_csvs
    text, line = data.draw(mutated_flow_csv(texts))
    path, out = base / "mutated.csv", base / "out.csv"
    path.write_text(text, newline="")
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["aggregate", "--in", str(path), "--out", str(out)])
    err = stderr.getvalue()
    assert code in (0, 1), err
    if code == 0:
        assert err == ""
        assert len(read_features_csv(out)) == len(read_features_csv(path))
    else:
        assert err.startswith(f"error: {path}:{line}: "), err
        assert err.count("\n") == 1 and err.endswith("\n"), err


# (offset within a record, byte count) of the header fields a mutation
# overwrites; every fig. 2 frame is Ethernet + IPv4 without options + TCP
_RECORD_FIELDS = {
    "incl_len": (8, 4),
    "ethertype": (16 + 12, 2),
    "version_ihl": (16 + 14, 1),
    "total_length": (16 + 16, 2),
    "fragment": (16 + 20, 2),
    "protocol": (16 + 23, 1),
    "tcp_flags": (16 + 47, 1),
}


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    """The fig. 2 capture's bytes and the byte offset of every record."""
    base = tmp_path_factory.mktemp("fuzz_pcap")
    pcap = base / "fig2.pcap"
    with redirect_stdout(io.StringIO()):
        assert main(["synth", "--scenario", "fig2", "--out", str(pcap)]) == 0
    data = pcap.read_bytes()
    records, offset = [], 24
    while offset < len(data):
        records.append(offset)
        offset += 16 + struct.unpack_from("<I", data, offset + 8)[0]
    return base, data, records


@st.composite
def mutated_capture(draw, data, records):
    """The capture with one header field overwritten, or cut short."""
    kind = draw(st.sampled_from(["global", "record", "truncate", *_RECORD_FIELDS]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "global":
        start = draw(st.integers(0, 23))
        size = draw(st.integers(1, 24 - start))
    else:
        record = draw(st.sampled_from(records))
        if kind == "record":
            start, size = record + draw(st.integers(0, 15)), 1
        else:
            start, size = record + _RECORD_FIELDS[kind][0], _RECORD_FIELDS[kind][1]
    value = draw(st.binary(min_size=size, max_size=size))
    return data[:start] + value + data[start + size:]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_pcap_exits_cleanly(capture, data):
    base, original, records = capture
    path, out = base / "mutated.pcap", base / "flows.csv"
    path.write_bytes(data.draw(mutated_capture(original, records)))
    try:
        want = reference_read_pcap(path)
    except PcapFormatError as exc:
        with pytest.raises(PcapFormatError) as got:
            read_pcap(path)
        assert str(got.value) == str(exc)
    else:
        got = read_pcap(path)
        assert records_of(got.packets) == want.packets
        assert got.skipped_by_reason == want.skipped_by_reason
        assert got.skipped == want.skipped
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["extract", "--pcap", str(path), "--out", str(out)])
    err = stderr.getvalue()
    assert code in (0, 1, 2), err
    if code == 0:
        assert err == ""
        flows = int(stdout.getvalue().split(" flows -> ")[0].rsplit(" ", 1)[1])
        assert len(read_features_csv(out)) == flows
    else:
        prefix = "error: " if code == 1 else "i/o error: "
        assert err.startswith(prefix) and str(path) in err, err
        assert err.count("\n") == 1 and err.endswith("\n"), err


# values out of range for a column, by the column's index
_OUT_OF_RANGE = {
    1: ["-1", "65536", "70000", "99999999999999999999"],
    3: ["-1", "65536", "70000", "99999999999999999999"],
    5: ["nan", "NaN", "inf", "-inf", "1e999", "1e308", "-1", "4294967296"],
}


@pytest.fixture(scope="module")
def labelled_capture(tmp_path_factory):
    """The fig. 2 capture's path and its labels CSV as bytes."""
    base = tmp_path_factory.mktemp("fuzz_labels")
    pcap, labels = base / "fig2.pcap", base / "labels.csv"
    with redirect_stdout(io.StringIO()):
        assert main(["synth", "--scenario", "fig2", "--out", str(pcap),
                     "--labels", str(labels)]) == 0
    return base, pcap, labels.read_bytes()


@st.composite
def mutated_labels_csv(draw, data):
    """(bytes, expected error prefix after the path): the labels CSV with
    one mutation; the prefix is "" where the mutation does not fix the
    line the loader must name."""
    records = list(csv.reader(io.StringIO(data.decode(), newline="")))
    row = draw(st.integers(1, len(records) - 1))
    record = records[row]
    kind = draw(st.sampled_from(
        ["text", "range", "drop", "extra", "duplicate", "byte", "truncate"]
    ))
    if kind == "byte":
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from([0x80, 0xBF, 0xC3, 0xED, 0xF8, 0xFE, 0xFF]))
        # as csv.reader counts lines: the byte may split a CRLF
        line = len(io.StringIO(data[:at].decode() + ".", newline="").readlines())
        return data[:at] + bytes([byte]) + data[at:], f":{line}: byte 0x{byte:02x} is not UTF-8"
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))], ""
    expect = ""
    if kind == "text":
        record[draw(st.integers(0, len(record) - 1))] = draw(st.text(max_size=12))
    elif kind == "range":
        column = draw(st.sampled_from(sorted(_OUT_OF_RANGE)))
        record[column] = draw(st.sampled_from(_OUT_OF_RANGE[column]))
        expect = f":{row + 1}: column {_LABEL_COLUMNS[column]}: "
    elif kind == "drop":
        del record[draw(st.integers(0, len(record) - 1))]
        expect = f":{row + 1}: expected 7 fields, got 6"
    elif kind == "extra":
        record.insert(draw(st.integers(0, len(record))), draw(st.text(max_size=8)))
        expect = f":{row + 1}: expected 7 fields, got 8"
    else:
        label = draw(st.text(min_size=1, max_size=8).filter(lambda t: t != record[-1]))
        records.insert(row + 1, record[:-1] + [label])
        expect = f":{row + 2}: flow "
    return _csv_text(records).encode(), expect


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_labels_csv_exits_cleanly(labelled_capture, data):
    base, pcap, original = labelled_capture
    text, expect = data.draw(mutated_labels_csv(original))
    path, out = base / "mutated.csv", base / "flows.csv"
    path.write_bytes(text)
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["extract", "--pcap", str(pcap), "--labels", str(path),
                     "--out", str(out)])
    err = stderr.getvalue()
    assert code in (0, 1), err
    if code == 0:
        assert err == "" and not expect
        assert len(read_features_csv(out)) == 8
    else:
        assert err.startswith(f"error: {path}{expect}"), err
        assert err.count("\n") == 1 and err.endswith("\n"), err


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_flow_csv_reads_alike_both_ways(flow_csvs, data):
    base, texts = flow_csvs
    text, _ = data.draw(mutated_flow_csv(texts))
    path = base / "both_ways.csv"
    path.write_text(text, newline="")
    _, bulk = read_both_ways(read_features_csv, path)
    event(f"read in bulk: {bulk}")


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_labels_csv_reads_alike_both_ways(labelled_capture, data):
    base, _, original = labelled_capture
    text, _ = data.draw(mutated_labels_csv(original))
    path = base / "both_ways.csv"
    path.write_bytes(text)
    _, bulk = read_both_ways(read_labels_csv, path)
    event(f"read in bulk: {bulk}")


_INI = (b"[flow]\nidle_timeout_s = 120\nactive_timeout_s = none\n\n[bundle]\nwindow_s = none\n"
        b"# a comment\n[training]\nepochs = 5\nbatch_size = 4\n[zeroday]\n"
        b"thresholds = 0.05,0.1\n[run]\nseed = 3\n")
# bytes that end or split a line, open or close a header, separate a key,
# start an interpolation or a comment, are no text or name configparser's
# own default section
_INI_TOKENS = [b"\r", b"\n", b"\r\n", b"[", b"]", b"=", b"%", b"#", b"\x00", b"\xff", b"\xc3",
               b"DEFAULT", b"[DEFAULT]\n"]


@st.composite
def mutated_ini(draw):
    """The valid INI file above with one to four tokens inserted or written over it."""
    text = _INI
    for _ in range(draw(st.integers(1, 4))):
        token = draw(st.sampled_from(_INI_TOKENS))
        at = draw(st.integers(0, len(text)))
        end = at + len(token) if draw(st.booleans()) else at  # overwrite or insert
        text = text[:at] + token + text[end:]
    return text


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_ini_exits_cleanly(flow_csvs, data):
    base, _ = flow_csvs
    path, out = base / "mutated.ini", base / "ini_out.csv"
    path.write_bytes(data.draw(mutated_ini()))
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["aggregate", "--config", str(path), "--in", str(base / "flows.csv"),
                     "--out", str(out)])
    err = stderr.getvalue()
    assert code in (0, 1), err
    event(f"exit {code}")
    if code == 0:
        assert err == "" and out.exists()
    else:
        assert err.startswith(f"error: {path}"), err
        assert err.count("\n") == 1 and err.endswith("\n"), err


# a config that keeps every fit short
_QUICK_INI = "[rfe]\nk = 3\nepochs = 2\n[training]\nepochs = 2\n[autoencoder]\nepochs = 2\n"


@pytest.fixture(scope="module")
def saved_json(flow_csvs):
    """The fig. 2 flows, aggregated and split into a benign and an attack
    class, and the JSON files fitted on them: name -> (bytes, the command
    that loads the file at {path})."""
    base, _ = flow_csvs
    table = read_features_csv(base / "agg.csv")
    table = dataclasses.replace(table, label=table.label.copy())
    table.label[1::2] = "attack"
    csvs = {name: base / f"json_{name}.csv" for name in ("all", "benign", "attack")}
    write_features_csv(table, csvs["all"])
    for name in ("benign", "attack"):
        write_features_csv(table.take(table.label == name), csvs[name])
    config = base / "quick.ini"
    config.write_text(_QUICK_INI)
    files = {name: base / f"{name}.json" for name in ("classifier", "autoencoder", "selection")}
    with redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(config), "--in", str(csvs["all"]),
                     "--model", str(files["classifier"])]) == 0
        assert main(["zeroday", "fit", "--config", str(config), "--benign", str(csvs["benign"]),
                     "--model", str(files["autoencoder"])]) == 0
        assert main(["rfe", "--config", str(config), "--in", str(csvs["all"]),
                     "--out", str(files["selection"])]) == 0
    commands = {
        "classifier": ["eval", "--model", "{path}", "--benign", str(csvs["benign"]),
                       "--attack", f"attack={csvs['attack']}"],
        "autoencoder": ["zeroday", "detect", "--model", "{path}", "--in", str(csvs["all"])],
        "selection": ["train", "--config", str(config), "--in", str(csvs["all"]),
                      "--selection", "{path}", "--model", str(base / "fuzz_model.json")],
    }
    return base, {name: (files[name].read_bytes(), commands[name]) for name in files}


# line ends, a number that overflows, null, brackets and quotes
_JSON_TOKENS = [b"\r", b"\n", b"\r\n", b"1e999", b"-1e999", b"null", b"[", b"]", b"{", b"}",
                b'"', b"[]", b"{}", b'""']


@st.composite
def mutated_json(draw, data):
    """A JSON file with one byte or token written over or inserted, a span
    deleted, or a copy of one span spliced in at another place; the place
    is as often the start of a structural byte as any byte."""
    structural = [at for at, byte in enumerate(data) if byte in b'[]{}":,']
    at = draw(st.one_of(st.integers(0, len(data) - 1), st.sampled_from(structural)))
    kind = draw(st.sampled_from(["byte", "token", "delete", "splice"]))
    if kind == "byte":
        return data[:at] + draw(st.binary(min_size=1, max_size=1)) + data[at + 1:]
    if kind == "token":
        token = draw(st.sampled_from(_JSON_TOKENS))
        end = at + len(token) if draw(st.booleans()) else at  # overwrite or insert
        return data[:at] + token + data[end:]
    end = draw(st.integers(at, min(len(data), at + 80)))
    if kind == "delete":
        return data[:at] + data[end:]
    into = draw(st.integers(0, len(data)))
    return data[:into] + data[at:end] + data[into:]


@pytest.mark.parametrize("loader", ["classifier", "autoencoder", "selection"])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_json_exits_cleanly(saved_json, loader, data):
    base, files = saved_json
    original, command = files[loader]
    path = base / f"mutated_{loader}.json"
    path.write_bytes(data.draw(mutated_json(original)))
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([str(path) if arg == "{path}" else arg for arg in command])
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2), err
    event(f"exit {code}")
    assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), out
    if code != 0:
        prefix = "error: " if code == 1 else "i/o error: "
        assert err.startswith(prefix), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
