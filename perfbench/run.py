"""flowbundle benchmark: one workload, timed for a fixed number of seconds.

    python3 perfbench/run.py --workload capture|ingest|study --seed N \
        --seconds S --trace 0|1

Runs from a source checkout (``src/flowbundle``), in this one process,
with one BLAS thread.  With ``--trace 0`` it reports the end-to-end
metrics of BENCHMARK.json, its times at nominal host speed
(``hostspeed``); with ``--trace 1`` it traces every operation and
reports the per-layer metrics in wall time.  The last line of
standard output is the result as one JSON object.  Before it come one
JSON line with the environment, the operation times and the output
digests, and one line per metric.  Spans of traced operations are
written to ``perfbench/traces/``.
"""

from __future__ import annotations

import os

# before numpy is imported by the program
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSampler  # noqa: E402
from spans import Tracer, layer_metrics, self_times, wrapper_cost_s  # noqa: E402
from workloads import SRC, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-ups per run at least; the median is reported as setup_s.  One is
# taken before every operation, the rest after the last.
SETUPS = 5

# A traced operation fails when its root span and its independently
# timed wall time differ by more than this, or when more than
# MAX_CLI_SHARE of the wall time lies outside every layer span.
SPAN_TOLERANCE_S = 0.005
MAX_CLI_SHARE = 0.10


def import_program():
    """Import flowbundle afresh from this checkout's src/ and return its cli."""
    for name in [m for m in sys.modules if m == "flowbundle" or m.startswith("flowbundle.")]:
        del sys.modules[name]
    cli = importlib.import_module("flowbundle.cli")
    if Path(cli.__file__).resolve().parent != SRC / "flowbundle":
        raise RuntimeError(f"imported flowbundle from {cli.__file__}, not {SRC}")
    return cli


def _blas_threads(numpy):
    """Thread count the OpenBLAS bundled with numpy reports, if it can be asked."""
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "git_commit": _git_commit(),
    }


def pin_malloc_threshold() -> None:
    """Fix glibc's mmap threshold at its default.  Left dynamic, it rises
    after the first large free and later large buffers stay on the heap,
    so peak RSS would depend on how many operations a run fits in."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    m_mmap_threshold = -3
    libc.mallopt(ctypes.c_int(m_mmap_threshold), ctypes.c_int(128 * 1024))


def set_up(intervals: list[tuple[float, float]]):
    """One set-up: a fresh import of the program; its start and end go to
    `intervals`."""
    start = time.perf_counter()
    cli = import_program()
    intervals.append((start, time.perf_counter()))
    return cli


def run_op(workload, cli, ctx, tracer=None):
    """One timed operation and its check; errors never escape."""
    spans = None
    start = time.perf_counter()
    if tracer is not None:
        tracer.begin()
    try:
        result = workload.run(cli, ctx)
    except Exception:
        result = {"code": None, "error": traceback.format_exc()}
    finally:
        if tracer is not None:
            spans = tracer.end()
    end = time.perf_counter()
    if result.get("error"):
        errors = [result["error"]]
    else:
        try:
            errors = workload.check(ctx, result)
        except Exception:
            errors = [traceback.format_exc()]
    return {"start": start, "end": end, "seconds": end - start, "result": result,
            "errors": errors, "spans": spans}


def trace_errors(workload, ctx, op: dict) -> list[str]:
    spans, layer = op["spans"], op["layer"]
    fired = {name for name, *_ in spans[1:]}
    errors = [f"span {name} never fired" for name in workload.expected_spans if name not in fired]
    # Self times of the layer spans add up to the top-level spans, and
    # cli.self_s is the operation's wall time, timed outside the tracer,
    # minus those; so the sum is checked against the tracer's root span.
    root = spans[0][2] - spans[0][1]
    total = sum(v for name, v in self_times(spans).items() if name != "op") + layer["cli.self_s"]
    if abs(total - root) > SPAN_TOLERANCE_S:
        errors.append(f"span self times + cli.self_s = {total:.6f} s, root span {root:.6f} s")
    if layer["cli.self_s"] > MAX_CLI_SHARE * op["seconds"]:
        errors.append(
            f"cli.self_s {layer['cli.self_s']:.3f} s is over {MAX_CLI_SHARE:.0%} of the "
            f"operation's {op['seconds']:.3f} s: the spans miss a layer"
        )
    return errors + workload.check_trace(ctx, layer)


def write_spans(path: Path, env: dict, ops: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(json.dumps({"env": env}) + "\n")
        for op_index, op in enumerate(ops):
            for span_index, (name, start, end, parent) in enumerate(op["spans"]):
                handle.write(json.dumps([op_index, span_index, name, start, end, parent]) + "\n")


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Make the inputs once, then alternate set-ups and operations; the
    host's speed is sampled throughout, unless the run is traced."""
    wall_start = time.perf_counter()
    ctx = workload.inputs(workdir, seed)
    inputs_s = time.perf_counter() - wall_start
    sampler = HostSampler()
    if not trace:
        sampler.start()
    try:
        run = _alternate(workload, ctx, seconds, trace)
    finally:
        if not trace:
            sampler.stop()
    return run | {
        "ctx": ctx,
        "inputs_s": inputs_s,
        "sampler": sampler,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_s": time.perf_counter() - wall_start,
    }


def _alternate(workload, ctx, seconds: float, trace: bool) -> dict:
    setups: list[tuple[float, float]] = []
    cli = set_up(setups)
    workload.expect(cli, ctx)
    tracer = Tracer() if trace else None
    call_cost_s = wrapper_cost_s() if trace else 0.0
    ops: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        op = run_op(workload, cli, ctx, tracer)
        if trace:
            op["layer"] = layer_metrics(op["spans"], tracer.counts, op["seconds"], call_cost_s)
            op["errors"] += trace_errors(workload, ctx, op)
        for error in op["errors"]:
            print(f"{workload.name} op {len(ops)}: {error}", file=sys.stderr)
        ops.append(op)
        typical = statistics.median(o["seconds"] for o in ops)
        if time.perf_counter() - loop_start + typical > seconds:
            break
        cli = set_up(setups)
    while len(setups) < SETUPS:
        set_up(setups)
    return {"setups": setups, "ops": ops}


def end_to_end(workload, run: dict) -> dict:
    """Medians over the run; times at nominal host speed."""
    ops, nominal_s = run["ops"], run["sampler"].nominal_s
    passed = [o for o in ops if not o["errors"]] or ops
    return {
        "setup_s": statistics.median(nominal_s(*s) for s in run["setups"]),
        "command_s": statistics.median(nominal_s(o["start"], o["end"]) for o in ops),
        "pkts_per_s": statistics.median(
            workload.packets(run["ctx"], o["result"]) / nominal_s(o["start"], o["end"])
            for o in passed
        ),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(run: dict, count_names: set[str]) -> dict:
    """Median per-layer metrics over the traced operations; a count that
    differs between them fails every traced operation."""
    ops = run["ops"]
    out = {}
    for name in ops[0]["layer"]:
        values = [o["layer"][name] for o in ops]
        if name in count_names:
            if len(set(values)) > 1:
                for o in ops:
                    o["errors"].append(f"count {name} differs between traced operations: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out


def tally(run: dict) -> tuple[int, int]:
    """Operations attempted and failed; a failed check fails its operation."""
    return len(run["ops"]), sum(1 for o in run["ops"] if o["errors"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flowbundle" / "cli.py").is_file():
        print(f"error: no flowbundle sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")}

    sys.path.insert(0, str(SRC))
    pin_malloc_threshold()
    workload = WORKLOADS[args.workload]
    workdir = HERE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    if args.trace:
        metrics = per_layer(run, counts)
        write_spans(HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl", env, run["ops"])
    else:
        metrics = end_to_end(workload, run)
    attempted, failed = tally(run)
    if set(metrics) != set(units):
        print(
            f"error: computed metrics {sorted(set(metrics) ^ set(units))} "
            "disagree with BENCHMARK.json",
            file=sys.stderr,
        )
        return 1

    fingerprints = sorted({o["result"]["fingerprint"] for o in run["ops"] if "fingerprint" in o["result"]})
    sampler = run["sampler"]
    print(json.dumps({
        "env": env,
        "op_seconds": [o["seconds"] for o in run["ops"]],
        "setup_seconds": [end - start for start, end in run["setups"]],
        "op_host_speed": [sampler.speed(o["start"], o["end"]) for o in run["ops"]]
        if sampler.count else [],
        "host_samples": sampler.count,
        "inputs_s": run["inputs_s"],
        "wall_s": run["wall_s"],
        "fingerprints": fingerprints,
    }))
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
