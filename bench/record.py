"""Record benchmark results: each workload over several seeds, then one
traced run per workload, written to bench/BENCH_<label>.json.

    python3 bench/record.py --label 7ba8290 --seeds 10
    python3 bench/record.py --label 7ba8290 --seeds 3 --workloads auslander3-Q

Prints every end-to-end metric and fail_ratio by name and unit, with the
median over the seeds and the spread (distance between the first and
third quartile over the median).  An existing results file keeps the
workloads this call does not run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

sys.path.insert(0, str(BENCH))
from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench_json = ROOT / "BENCHMARK.json"
    default_seconds = json.loads(bench_json.read_text())["run_seconds"] if bench_json.exists() else 25
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the results file")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=default_seconds)
    args = parser.parse_args()

    path = BENCH / f"BENCH_{args.label}.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    table["python"] = sys.version.split()[0]
    table["seconds"] = args.seconds
    workloads = table.setdefault("workloads", {})
    for workload in args.workloads:
        runs = [dict(run_once(workload, seed, args.seconds, 0), seed=seed)
                for seed in range(args.seeds)]
        traced = run_once(workload, 0, args.seconds, 1)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        names = list(runs[0]["metrics"])
        summary = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "unit": runs[0]["metrics"][name]["unit"], "values": values}
        summary["fail_ratio"] = {"median": failed / attempted, "spread": 0.0, "unit": "-",
                                 "values": [r["failed"] / r["attempted"] for r in runs]}
        workloads[workload] = {
            "seeds": list(range(args.seeds)),
            "attempted": attempted,
            "failed": failed,
            "end_to_end": summary,
            "traced_seed0": {"correct": traced["correct"],
                             "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
        print(f"{workload}: {args.seeds} seeds, {failed}/{attempted} failed")
        for name, m in summary.items():
            print(f"  {name:14s} {m['median']:12.4f} {m['unit']:4s} spread {m['spread']:.4f}")
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
