"""Benchmark of the dycknums package: one workload, measured end to end
(`--trace 0`) or per layer (`--trace 1`).

    python3 perfbench/run.py --workload harness|generate|query \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the package under
`src/` as it is.  Each repetition of the workload is a fresh
interpreter (`worker.py`), because a CLI user pays the cold level cache
on every invocation; one process runs at a time.  Repetitions continue
until `--seconds` is used up (at least MIN_REPS), and each metric is
the median over them.  End-to-end times are scaled to the reference
speed of `reference.py`, so that slow phases of a shared host cancel.
The last line of standard output is the result
as one JSON object; the lines before it give the environment and every
metric with its unit.  The exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
SETUPS_PER_REP = 2
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH_DIR))
import reference  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def environment() -> dict:
    mem_kb = None
    with open("/proc/meminfo") as meminfo:
        for line in meminfo:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_kb / 1024) if mem_kb else None,
        "loadavg_1m": os.getloadavg()[0],
    }


class Runner:
    def __init__(self, src: Path, work: Path, workload: str, seed: int) -> None:
        self.src, self.work = src, work
        self.workload, self.seed = workload, seed
        # No settings of the user's reach the package, and numpy starts
        # no thread pool: the load comes from one thread of one process.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("DYCKNUMS_")}
        self.env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.reps = 0

    def spawn(self, *extra: str) -> dict | None:
        """Run one worker in a fresh directory; its report with
        `setup_s` added, or None when it crashed or timed out."""
        self.reps += 1
        workdir = self.work / f"rep{self.reps}"
        workdir.mkdir(parents=True)
        argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--src", str(self.src),
                "--workdir", str(workdir), *extra]
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=workdir, env=self.env)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"worker {self.reps} timed out", file=sys.stderr)
            return None
        try:
            if proc.returncode != 0:
                print(f"worker {self.reps} exited with {proc.returncode}", file=sys.stderr)
                return None
            report = json.loads(out.decode().strip().splitlines()[-1])
            report["setup_s"] = report["ready"] - started
            report["span"] = started, report["ready"]
            if "spans" in report:
                trace = json.loads(Path(report["spans"]).read_text())
                report["trace"] = trace
            return report
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def rep(self, trace: int, probes: int) -> dict | None:
        return self.spawn("--workload", self.workload, "--seed", str(self.seed),
                          "--rep", str(self.reps), "--trace", str(trace),
                          "--probes", str(probes))


def median_of(reports: list[dict], name: str) -> float:
    return statistics.median(r["metrics"][name] for r in reports)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "dycknums" / "__init__.py").is_file():
        print(f"run.py: no package at {src / 'dycknums'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    print("env " + json.dumps(environment()), flush=True)

    work = root / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(src, work, args.workload, args.seed)
    reports: list[dict] = []   # untraced repetitions of the workload
    traced: list[dict] = []
    setups: list[dict] = []  # every process started, for setup_s
    crashed = 0
    start = time.perf_counter()
    try:
        gauge = reference.Gauge()
        gauge.take()
        last = 0.0
        while True:
            done = len(traced) if args.trace else len(reports)
            elapsed = time.perf_counter() - start
            if done >= (MIN_TRACED_PAIRS if args.trace else MIN_REPS) and (
                    elapsed + last > args.seconds):
                break
            began = time.perf_counter()
            # Import-only processes between repetitions, so that setup_s
            # samples the host over the whole run; each repetition's own
            # start-up is a sample too.
            for _ in range(0 if args.trace else SETUPS_PER_REP):
                report = runner.spawn("--setup-only")
                gauge.take()
                if report is None:
                    crashed += 1
                else:
                    setups.append(report)
            modes = ((0, 0), (1, 0)) if args.trace else ((0, 1),)
            for trace, probes in modes:
                report = runner.rep(trace, probes)
                gauge.take()
                if report is None:
                    crashed += 1
                    if crashed > 1:
                        break
                    continue
                (traced if trace else reports).append(report)
                setups.append(report)
                print(f"repetition {runner.reps}: trace {trace}, wall_s "
                      f"{report['metrics']['wall_s']:.4f} (measured {report['raw_wall_s']:.4f}, "
                      f"host speed {report['speed']:.3f})", file=sys.stderr)
            if crashed > 1:
                break
            last = time.perf_counter() - began
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everything = reports + traced
    attempted = sum(r["attempted"] for r in everything) + crashed
    failed = sum(r["failed"] for r in everything) + crashed
    for report in everything:
        for error in report["errors"]:
            print(f"check failed: {error}", file=sys.stderr)
    if not everything or (args.trace and not (traced and reports)):
        print("run.py: no repetition completed", file=sys.stderr)
        return 1

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        per_rep = [spans.layer_metrics(r["trace"]["spans"], r["trace"]["ops_wall"], names)
                   for r in traced]
        overhead = median_of(traced, "wall_s") / median_of(reports, "wall_s") - 1
        values = {name: statistics.median(m[name] for m in per_rep)
                  for name in names if name in per_rep[0]}
        values["trace.overhead_frac"] = overhead
        wanted = spec["per_layer"]
    else:
        values = {name: median_of(reports, name) for name in reports[0]["metrics"]}
        values["setup_s"] = statistics.median(gauge.scale(r["setup_s"], *r["span"])
                                              for r in setups)
        values["op_ok_frac"] = 1 - failed / attempted
        wanted = spec["end_to_end"]
    for metric in wanted:
        if metric["name"] not in values:
            print(f"run.py: metric {metric['name']} was not measured", file=sys.stderr)
            return 1
        metrics[metric["name"]] = (values[metric["name"]], metric["unit"])
        print(f"metric {metric['name']} {values[metric['name']]} {metric['unit']}")
    repetitions = len(traced) if args.trace else len(reports)
    if not args.trace:
        print(f"measured wall_s {statistics.median(r['raw_wall_s'] for r in reports):.4f} s, host speed "
              f"{statistics.median(r['speed'] for r in reports):.3f} of the reference")
    print(f"repetitions {repetitions} (median of each metric), seed {args.seed}, "
          f"{time.perf_counter() - start:.1f} s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
