"""Runs the benchmark over ten seeds and summarises each metric.

    python3 perfbench/spread.py [--out perfbench/baseline.json]

Each run is ``perfbench/run.py`` in its own process, one after another,
for BENCHMARK.json's ``run_seconds``: every workload of BENCHMARK.json
on seeds 1-10, then one traced run on seed 1 for the per-layer numbers.
For every end-to-end metric it prints the median, the quartiles and the
spread (interquartile range as a share of the median) next to the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACED_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(line) for line in lines if line.startswith('{"env"'))
    return info, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in SEEDS:
            info, result = run_once(workload, seed, spec["run_seconds"], 0)
            doc["env"] = info["env"]
            results.append({"seed": seed, **info, **result})
            print(f"{workload} seed {seed}: {len(info['op_seconds'])} ops, "
                  f"correct={result['correct']}", file=sys.stderr)
        _, traced = run_once(workload, TRACED_SEED, spec["run_seconds"], 1)
        entry = {
            "correct": all(r["correct"] for r in results),
            "op_seconds": {r["seed"]: r["op_seconds"] for r in results},
            "setup_seconds": {r["seed"]: r["setup_seconds"] for r in results},
            "op_host_speed": {r["seed"]: r["op_host_speed"] for r in results},
            "end_to_end": {
                name: summarise([r["metrics"][name]["value"] for r in results]) | {"bound": bound}
                for name, bound in bounds.items()
            },
            "per_layer": {
                "seed": TRACED_SEED,
                "correct": traced["correct"],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
        doc["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"{workload:8} {name:12} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {s['bound']}  {flag}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
