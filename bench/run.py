"""tiltcell benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload catalog --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  A single closed-loop client: every pass
starts fresh interpreters one after another (`worker.py`), so no process
sees state from an earlier one.  Passes repeat until `--seconds` have
elapsed, and there are at least MIN_PASSES of them.

The shared machine the baseline was measured on drifts in speed by up to
2x, in phases from a second to minutes long.  Each worker therefore
times a fixed reference computation (`yardstick.py`) right before and
after every operation, and each time is scaled to the yardstick's
reference speed: seconds x REFERENCE_S / yardstick seconds.  A time
metric is the median over the passes of the scaled pass total.

With `--trace 0` the result holds the end-to-end metrics wall_s, setup_s
and peak_rss_mib.  With `--trace 1` one more pass runs under the
outside-in tracer (`tracer.py`) and the result holds the per-layer
metrics instead.  The lines before the last are a readable summary,
fail_ratio and the unscaled times included.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

sys.path.insert(0, str(BENCH))
from gen import auslander_document  # noqa: E402
from tracer import COUNTERS, DISTINCT, SPAN_NAMES  # noqa: E402
from yardstick import REFERENCE_S  # noqa: E402

CATALOG = ("trivial", "semisimple2", "a2path", "auslander-dualnumbers", "ut3", "dualnumbers")
COMMANDS = ("verify", "tilting", "basis", "cells", "cellular")
AUSLANDER_FIELDS = {"auslander3-Q": "Q", "auslander3-F10007": "Fp 10007"}
WORKLOADS = ("catalog",) + tuple(AUSLANDER_FIELDS)
PIPELINE_STAGES = 10

MIN_PASSES = 5
RUN_BUDGET_S = 170          # every run ends well inside 180 seconds


def expected_exit(algebra: str, command: str) -> int:
    """dualnumbers fails its axioms (1); cellular needs an anti-involution,
    which a2path and ut3 lack (2); everything else certifies (0)."""
    if algebra == "dualnumbers":
        return 1
    if command == "cellular" and algebra in ("a2path", "ut3"):
        return 2
    return 0


class Runner:
    def __init__(self, workload: str, seed: int):
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.digests = _load_digests().get(workload, {}).get(str(seed), {})
        self.observed = {}
        self.cpus = sorted(os.sched_getaffinity(0))
        self.passes = 0
        if workload == "catalog":
            pairs = [(cmd, alg) for cmd in COMMANDS for alg in CATALOG]
            self.jobs = [{"mode": "cli", "expect": expected_exit(alg, cmd),
                          "argv": [cmd, "--catalog", alg, "--format", "json",
                                   "--seed", str(seed)]} for cmd, alg in pairs]
            self.setup_job = {"mode": "setup", "catalog": CATALOG[0]}
        else:
            doc = WORK / f"{workload}.json"
            doc.write_text(json.dumps(auslander_document(3, AUSLANDER_FIELDS[workload])))
            self.jobs = [{"mode": "pipeline", "doc": str(doc), "seed": seed}]
            self.setup_job = {"mode": "setup", "doc": str(doc)}

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.start)

    def spawn(self, job: dict) -> dict | None:
        """Run one worker; None if it crashed or ran out of time."""
        job = dict(job, t_spawn=time.monotonic())
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
                                  env=self.env, cwd=ROOT, capture_output=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            print(f"worker timed out: {job}", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"worker failed ({proc.returncode}): {job}\n{proc.stderr.decode()[-2000:]}",
                  file=sys.stderr)
            return None
        return json.loads(proc.stdout.decode().splitlines()[-1])

    def run_pass(self, trace_dir: Path | None = None) -> dict:
        """Every job once, each in a fresh process: per-operation walls and
        yardstick times (None for an operation that failed or whose process
        crashed), per-process set-up and its yardstick time, peak RSS,
        attempted/failed counts and, when traced, the tracer summaries."""
        ops, setups, traces = [], [], []
        rss = 0.0
        attempted = failed = 0
        cpu = self.next_cpu()
        for k, job in enumerate(self.jobs):
            job = dict(job, cpu=cpu)
            if trace_dir is not None:
                job["trace_file"] = str(trace_dir / f"{k:02d}.json")
            res = self.spawn(job)
            n_ops = 1 if job["mode"] == "cli" else PIPELINE_STAGES
            attempted += n_ops
            if res is None:
                failed += n_ops
                ops.extend([(None, None)] * n_ops)
                setups.append((None, None))
                continue
            setups.append((res["setup"], res["setup_yard"]))
            rss = max(rss, res["rss_mib"])
            for op in res["ops"]:
                if self.check(job, op):
                    ops.append((op["wall"], op["yard"]))
                else:
                    failed += 1
                    ops.append((None, None))
                    print(f"failed operation: {op}", file=sys.stderr)
            if "trace" in res:
                traces.append(res["trace"])
        return {"ops": ops, "setups": setups, "rss": rss, "attempted": attempted,
                "failed": failed, "traces": traces}

    def check(self, job: dict, op: dict) -> bool:
        """Expected outcome, and the recorded digest where one exists."""
        ok = op["code"] == job["expect"] if job["mode"] == "cli" else op["ok"]
        if "digest" in op:
            self.observed[op["name"]] = op["digest"]
            recorded = self.digests.get(op["name"])
            if recorded is not None and recorded != op["digest"]:
                print(f"digest mismatch: {op['name']}", file=sys.stderr)
                ok = False
        return ok

    def next_cpu(self) -> int:
        """Successive passes take turns over the CPUs this process may use."""
        self.passes += 1
        return self.cpus[self.passes % len(self.cpus)]


def _load_digests() -> dict:
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {}


def totals(samples: list[tuple]) -> tuple[float, float]:
    """Unscaled and scaled sums of (seconds, yardstick seconds) samples,
    leaving out failed ones."""
    done = [(t, y) for t, y in samples if t is not None]
    return sum(t for t, _ in done), sum(t * REFERENCE_S / y for t, y in done)


def median_scaled(passes: list[dict], key: str) -> float:
    """Median over the passes of the scaled total.  A pass with a failed
    operation would read fast, so only complete passes count while there
    are any; the run reports correct=false either way."""
    complete = [p for p in passes if all(t is not None for t, _ in p[key])] or passes
    return statistics.median(totals(p[key])[1] for p in complete)


def layer_metrics(traces: list[dict], overhead: float) -> dict:
    """Per-layer metrics summed over the traced pass's processes."""
    calls = {n: sum(t["calls"][n] for t in traces) for n in SPAN_NAMES}
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (sum(t["s"][name] for t in traces), "s")
        out[f"{name}.self_s"] = (sum(t["self_s"][name] for t in traces), "s")
    counters = {k: [t["counters"][k] for t in traces] for k in COUNTERS}
    distinct = {k: sum(t["distinct"][k] for t in traces) for k in DISTINCT}
    cells = sum(counters["linalg.rref.cells"])
    out["linalg.rref.cells"] = (cells, "count")
    out["linalg.rref.max_cells"] = (max(counters["linalg.rref.max_cells"], default=0), "count")
    out["linalg.rref.density"] = (_ratio(sum(counters["linalg.rref.nonzero"]), cells), "ratio")
    out["linalg.solve.distinct_lhs"] = (distinct["linalg.solve.distinct_lhs"], "count")
    out["algebra.hom_space.distinct"] = (distinct["algebra.hom_space.distinct"], "count")
    out["algebra.hom_space.max_unknowns"] = (
        max(counters["algebra.hom_space.max_unknowns"], default=0), "count")
    out["algebra.find_splitting_idempotent.split_ratio"] = (
        _ratio(sum(counters["algebra.find_splitting_idempotent.splits"]),
               calls["algebra.find_splitting_idempotent"]), "ratio")
    out["highest_weight.Registry.hom.hit_ratio"] = (
        _ratio(sum(counters["highest_weight.Registry.hom.hits"]),
               calls["highest_weight.Registry.hom"]), "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's report and basis digests for its seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tiltcell" / "__init__.py").is_file():
        print(f"no tiltcell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed)

    # warm-up: byte-compile tiltcell once, as an installed package would be
    if runner.spawn(runner.setup_job) is None:
        print("set-up failed; is the checkout complete?", file=sys.stderr)
        return 2

    passes = []
    t0 = time.monotonic()
    while True:
        passes.append(runner.run_pass())
        elapsed = time.monotonic() - t0
        if len(passes) >= MIN_PASSES and elapsed >= args.seconds:
            break
        if runner.remaining() < 2 * elapsed / len(passes):
            break

    traced = None
    if args.trace:
        trace_dir = WORK / "trace" / f"{args.workload}-seed{args.seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        traced = runner.run_pass(trace_dir)

    runs = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    wall = median_scaled(passes, "ops")
    end_to_end = {
        "wall_s": (wall, "s"),
        "setup_s": (median_scaled(passes, "setups"), "s"),
        "peak_rss_mib": (statistics.median(p["rss"] for p in passes), "MiB"),
    }
    raw = {key: [totals(p[key])[0] for p in passes] for key in ("ops", "setups")}
    yards = [y for p in passes for _, y in p["ops"] if y is not None]
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes; unscaled medians "
          f"wall {statistics.median(raw['ops']):.4f} s (max {max(raw['ops']):.4f}), "
          f"set-up {statistics.median(raw['setups']):.4f} s, yardstick "
          f"{statistics.median(yards or [0]) * 1000:.2f} ms (reference {REFERENCE_S * 1000:.2f})")
    for name, (value, unit) in dict(end_to_end, fail_ratio=(failed / attempted, "-")).items():
        print(f"  {name:14s} {value:12.4f} {unit}")
    if traced:
        if len(traced["traces"]) != len(runner.jobs):
            print("traced pass lost a process", file=sys.stderr)
            return 1
        for name in sorted({a for t in traced["traces"] for a in t["absent"]}):
            print(f"  not traced, absent from the program: {name}")
        metrics = layer_metrics(traced["traces"], totals(traced["ops"])[1] / wall - 1)
    else:
        metrics = end_to_end

    if args.record_digests:
        if failed:
            print("not recording digests from a run with failures", file=sys.stderr)
            return 1
        table = _load_digests()
        table.setdefault(args.workload, {})[str(args.seed)] = dict(sorted(runner.observed.items()))
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
