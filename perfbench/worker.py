"""One process of a benchmark run: import the package, run a workload's
ops once, then check every output.

    python3 perfbench/worker.py --src SRC --workdir DIR [--setup-only]
        [--workload NAME --seed N --rep K --trace 0|1 --probes 0|1]

Prints one JSON object.  `ready` is the clock reading (the system-wide
monotonic clock) when the package was imported; the parent subtracts
its own reading from just before it started this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

QUERY_CHUNK = 250
LEAD_SAMPLES = 8


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probes", type=int, choices=(0, 1), default=1)
    return parser.parse_args()


def run_cli(cli, argv: list[str], out_path: Path, err_path: Path) -> tuple[int | None, float, float]:
    """Time one CLI call with its standard output going to a file, as
    `dycknums ... > file` would; the flush is part of the call.  Returns
    the exit code and the clock readings at the start and the end."""
    with open(out_path, "w", encoding="utf-8") as out, \
            open(err_path, "w", encoding="utf-8") as err, \
            redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crashing op is counted as failed, not fatal
            rc = None
            traceback.print_exc()
        out.flush()
        end = time.perf_counter()
    return rc, start, end


def run_queries(package, queries, gauge) -> tuple[list, list[float], float, float]:
    """Closed loop with one caller, through the package's public names,
    so a traced run calls the wrappers.  The queries run in chunks of
    QUERY_CHUNK with the reference task between chunks, and each latency
    is scaled by the reference times near its chunk.  Returns the
    answers, the scaled latencies in ns, and the measured and the scaled
    total time."""
    answers, chunks = [], []
    clock = time.perf_counter_ns
    for lo in range(0, len(queries), QUERY_CHUNK):
        latencies = []
        start = time.perf_counter()
        for op, term, _ in queries[lo:lo + QUERY_CHUNK]:
            fn = getattr(package, op)
            begin = clock()
            try:
                answer = fn(term)
            except Exception as exc:  # a raising query is a failed op
                answer = exc
            latencies.append(clock() - begin)
            answers.append(answer)
        chunks.append((latencies, start, time.perf_counter()))
        gauge.take()
    scaled_latencies, measured, scaled = [], 0.0, 0.0
    for latencies, start, end in chunks:
        measured += end - start
        scaled += gauge.scale(end - start, start, end)
        scaled_latencies += [gauge.scale(ns, start, end) for ns in latencies]
    return answers, scaled_latencies, measured, scaled


def nearest_rank(sorted_values: list[float], q: int) -> float:
    return sorted_values[max(0, -(-len(sorted_values) * q // 100) - 1)]


def main() -> int:
    args = parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import dycknums
    import dycknums.cli
    ready = time.perf_counter()
    if Path(dycknums.__file__).resolve().parent != src / "dycknums":
        print(f"worker: imported {dycknums.__file__}, not the package under {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import checks
    import reference
    import spans
    from workloads import CACHE_DIR, WORKLOADS, CliOp, make_queries

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    cache_dir = workdir / "cache"
    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.install("dycknums", recorder)

    metrics: dict[str, float] = {}
    results = []  # (op, rc, out_path, err_path) or (op, queries, answers)
    wall = raw_wall = 0.0
    peak_rss_mb = None
    ops = list(workload.main) + ([] if args.trace or not args.probes else list(workload.probes))
    gauge = reference.Gauge()
    for _ in range(LEAD_SAMPLES):  # the span before the first op
        gauge.take()
    timed = []  # (op index, start, end) of each CLI op
    for index, op in enumerate(ops):
        if index == len(workload.main):
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if isinstance(op, CliOp):
            argv = [str(cache_dir) if a == CACHE_DIR else a for a in op.argv]
            out_path, err_path = workdir / f"op{index}.out", workdir / f"op{index}.err"
            rc, start, end = run_cli(dycknums.cli, argv, out_path, err_path)
            results.append((op, rc, out_path, err_path))
            timed.append((index, start, end))
            gauge.take()
        else:
            queries = make_queries(op, args.seed, args.rep)
            answers, latencies, measured, scaled = run_queries(dycknums, queries, gauge)
            results.append((op, queries, answers))
            latencies.sort()
            metrics["query_p50_us"] = nearest_rank(latencies, 50) / 1e3
            metrics["query_p99_ms"] = nearest_rank(latencies, 99) / 1e6
            if index < len(workload.main):
                wall += scaled
                raw_wall += measured
    for index, start, end in timed:
        scaled = gauge.scale(end - start, start, end)
        if ops[index].metric:
            metrics[ops[index].metric] = scaled
        if index < len(workload.main):
            wall += scaled
            raw_wall += end - start
    if peak_rss_mb is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["wall_s"] = wall
    metrics["peak_rss_mb"] = peak_rss_mb

    attempted, failed, errors = 0, 0, []
    outputs: dict[str, bytes] = {}
    verified_path = workdir.parent / "verified.txt"
    verified = set(verified_path.read_text().split()) if verified_path.exists() else set()
    bfile = src / "dycknums" / "data" / "bfiles" / "b036991.txt"
    for result in results:
        op = result[0]
        if isinstance(op, CliOp):
            _, rc, out_path, err_path = result
            data = out_path.read_bytes()
            outputs[op.metric] = data
            problems = checks.check_cli_output(op, rc, data, err_path.read_text(), outputs,
                                               verified, bfile)
            attempted += 1
            failed += bool(problems)
            errors += problems
        else:
            _, queries, answers = result
            for (name, term, n), answer in zip(queries, answers):
                attempted += 1
                if not checks.check_query(name, term, answer, n):
                    failed += 1
                    errors.append(f"{name}({term}) answered {answer!r}")

    verified_path.write_text("\n".join(sorted(verified)) + "\n")
    report = {"ready": ready, "metrics": metrics, "raw_wall_s": raw_wall,
              "speed": gauge.speed(),
              "attempted": attempted, "failed": failed, "errors": errors[:10]}
    if recorder is not None:
        spans_path = workdir / "spans.json"
        spans_path.write_text(json.dumps({"ops_wall": raw_wall, "spans": recorder.spans}))
        report["spans"] = str(spans_path)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
