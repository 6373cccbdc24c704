"""Spans around the package's public functions, recorded from outside
the package.

`install` wraps every public function defined in the eight modules and
rebinds each wrapper under every name that refers to the function in
the package (for example `patterns.level_structural` and the package's
own `dycknums.dyck_succ`).  Each call appends one span (name, start,
end, parent, payload) to a list kept in memory; the list is written
when the process ends, and `layer_metrics` derives self time and the
per-layer counters from it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("dyck_core", "levels", "patterns", "cores", "conjectures",
           "oeis_ref", "report", "cli")

# The membership predicate runs inside the scan loops of succ, pred and
# pattern validation; a span per candidate would dominate the trace.
UNTRACED = {"dyck_core.is_dyck_number"}


def _scan_payload(args, level):
    n = level.n
    return [len(level.terms), 1 << (n - 2) if n >= 2 else 1]


def _read_payload(args, terms):
    if terms is None:
        return None
    cache_dir, kind, n = args[:3]
    return os.path.getsize(Path(cache_dir) / f"{kind}_{n}.txt")


# Counters taken at the boundary, from a call's arguments and result.
PAYLOADS = {
    "dyck_core.dyck_succ": lambda args, answer: abs(answer - args[0]) / 2,
    "dyck_core.dyck_pred": lambda args, answer: abs(answer - args[0]) / 2,
    "levels.level_structural": lambda args, level: len(level.terms),
    "levels.level_scan": _scan_payload,
    "patterns.make_pattern": lambda args, p: (p.terms[-1] - p.terms[0]) / 2 / len(p.terms),
    "cores.core": lambda args, c: c.n,
    "cli.write_cache_entry": lambda args, path: os.path.getsize(path),
    "cli.read_cache_entry": _read_payload,
}


class Recorder:
    """In-memory span list.  A span's parent is the innermost span open
    when it started (-1 for a root)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, key: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter
        payload = PAYLOADS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([key, 0.0, 0.0, open_spans[-1] if open_spans else -1, None])
            open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index][1:3] = start, end
            if payload is not None:
                spans[index][4] = payload(args, result)
            return result

        return traced


def install(package_name: str, recorder: Recorder) -> int:
    """Wrap the public functions of MODULES; return how many."""
    wrappers = {}
    for short in MODULES:
        module = importlib.import_module(f"{package_name}.{short}")
        for name, obj in vars(module).items():
            key = f"{short}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and key not in UNTRACED):
                wrappers[obj] = recorder.wrap(key, obj)
    for module_name, module in list(sys.modules.items()):
        if module_name == package_name or module_name.startswith(package_name + "."):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
    return len(wrappers)


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list[list], ops_wall: float, names: list[str]) -> dict[str, float]:
    """Per-layer metrics named in `names` from one process's spans.

    `<module>.<function>.self_s` is the time inside the function minus
    the time of the spans it caused; `.calls` counts calls.  The
    remaining names are the counters of PAYLOADS and the share of the
    ops' wall time covered by root spans."""
    durations = [end - start for _, start, end, _, _ in spans]
    inner = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            inner[span[3]] += durations[i]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    payloads: dict[str, list] = defaultdict(list)
    for i, (key, _, _, _, payload) in enumerate(spans):
        self_s[key] += durations[i] - inner[i]
        calls[key] += 1
        if payload is not None:
            payloads[key].append(payload)
    scans = payloads["levels.level_scan"]
    cores_n = payloads["cores.core"]
    derived = {
        "levels.level_structural.terms": sum(payloads["levels.level_structural"]),
        "levels.level_scan.hit_ratio": (sum(m for m, _ in scans) / sum(c for _, c in scans)
                                        if scans else 0.0),
        "patterns.scan_per_term": _mean(payloads["patterns.make_pattern"]),
        "cores.core.repeat_ratio": len(cores_n) / len(set(cores_n)) if cores_n else 0.0,
        "dyck_core.candidates_per_answer": _mean(payloads["dyck_core.dyck_succ"]
                                                 + payloads["dyck_core.dyck_pred"]),
        "cli.write_cache_entry.bytes": sum(payloads["cli.write_cache_entry"]),
        "cli.read_cache_entry.bytes": sum(payloads["cli.read_cache_entry"]),
        "trace.attributed_frac": sum(d for d, s in zip(durations, spans) if s[3] < 0) / ops_wall,
    }
    metrics = {}
    for name in names:
        function, _, field = name.rpartition(".")
        if name in derived:
            metrics[name] = derived[name]
        elif field == "self_s":
            metrics[name] = self_s.get(function, 0.0)
        elif field == "calls":
            metrics[name] = calls.get(function, 0)
    return metrics
