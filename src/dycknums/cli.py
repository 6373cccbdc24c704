"""Command-line interface: term generation, point queries, pattern
decomposition, and the verification harness.

Exit codes: 0 success, 1 domain or verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import conjectures, cores, oeis_ref
from .dyck_core import classify, dyck_pred, dyck_succ
from .errors import CacheCorrupt, DyckError, UsageError
from .files import write_atomic
from .levels import (
    DEFAULT_SCAN_BOUND,
    DEFAULT_STRUCTURAL_BOUND,
    _balance_ok,
    _stream_array,
    level_index,
    level_scan,
    level_size,
    level_structural,
    mersenne,
)
from .report import RECORD_HEADER, Counterexample, VerificationOutcome

CACHE_ENV_VAR = "DYCKNUMS_CACHE_DIR"
DEFAULT_MAX_N = 22
STANDARD_SEQUENCES = (
    "A036991",
    "A002054",
    "A052940",
    "A290114",
    "A086224",
    "A052549",
)


# Terms are formatted this many at a time, so output never holds the
# strings of a whole level at once.
_CHUNK = 1 << 16


def _chunks(terms):
    """(start index, list of Python ints) for each chunk of an array or
    tuple of terms."""
    for start in range(0, len(terms), _CHUNK):
        chunk = terms[start:start + _CHUNK]
        yield start, chunk.tolist() if isinstance(chunk, np.ndarray) else chunk


# -- cache files -------------------------------------------------------------


def _cache_path(cache_dir: str, kind: str, n: int) -> Path:
    return Path(cache_dir) / f"{kind}_{n}.txt"


def write_cache_entry(cache_dir: str, kind: str, n: int, terms) -> Path:
    """Write one '# kind n count' header plus one term per line,
    atomically."""
    path = _cache_path(cache_dir, kind, n)
    body = ("\n".join(map(str, chunk)) + "\n" for _, chunk in _chunks(terms))
    write_atomic(path, itertools.chain([f"# {kind} {n} {len(terms)}\n"], body))
    return path


def read_cache_entry(cache_dir: str, kind: str, n: int) -> tuple[int, ...] | None:
    """Return the cached terms, None when absent.  Raise CacheCorrupt
    unless the entry holds exactly the terms of the level or core its
    header names: the right count, strictly ascending, inside the
    level interval (up to the core top for a core), and each a member."""
    path = _cache_path(cache_dir, kind, n)
    if not path.is_file():
        return None
    # Bytes split and parse faster than text, and int() accepts them.
    lines = path.read_bytes().splitlines()
    header = lines[0].decode(errors="replace") if lines else ""
    if not header.startswith("# "):
        raise CacheCorrupt(f"{path}: missing header")
    fields = header[2:].split()
    if len(fields) != 3 or fields[0] != kind or fields[1] != str(n):
        raise CacheCorrupt(f"{path}: header does not match ({header!r})")
    try:
        terms = tuple(map(int, lines[1:]))
        arr = np.array(terms, dtype=np.int64)
    except (ValueError, OverflowError):
        raise CacheCorrupt(f"{path}: a line is not a 64-bit integer") from None
    if fields[2] != str(len(terms)):
        raise CacheCorrupt(f"{path}: header count {fields[2]} != {len(terms)} lines")
    if kind == "level":
        size, top = level_size(n), mersenne(n)
    else:
        size, top = cores.core_size(n), cores.core_top(n)
    if len(terms) != size:
        raise CacheCorrupt(f"{path}: {len(terms)} terms, but {kind} {n} has {size}")
    if not (
        arr[0] > mersenne(n - 1)
        and arr[-1] <= top
        and bool(np.all(np.diff(arr) > 0))
        and bool(_balance_ok(arr, n).all())
    ):
        raise CacheCorrupt(f"{path}: not the ascending terms of {kind} {n}")
    return terms


# -- command implementations -------------------------------------------------


def _emit_terms(kind: str, n: int, terms, fmt: str) -> None:
    out = sys.stdout
    if fmt == "text":
        for start, chunk in _chunks(terms):
            out.write((" " if start else "") + " ".join(map(str, chunk)))
        out.write("\n")
    else:
        out.write("kind\tn\tindex\tterm\n")
        prefix = f"{kind}\t{n}\t"
        for start, chunk in _chunks(terms):
            out.write("".join(f"{prefix}{i}\t{t}\n" for i, t in enumerate(chunk, start + 1)))


def cmd_gen(args: argparse.Namespace) -> int:
    if args.count is not None:
        kind, n = "stream", args.count
        terms = _stream_array(args.count)
    else:
        kind, n = ("level", args.level) if args.level is not None else ("core", args.core)
        cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
        if args.no_cache:
            cache_dir = None
        terms = read_cache_entry(cache_dir, kind, n) if cache_dir else None
        if terms is None:
            terms = (
                level_structural(n, args.structural_bound).arr
                if kind == "level"
                else cores.core(n).arr
            )
            if cache_dir:
                write_cache_entry(cache_dir, kind, n, terms)
    _emit_terms(kind, n, terms, args.format)
    if args.check:
        return _run_gen_check(kind, n, terms, args.scan_bound)
    return 0


def _run_gen_check(kind: str, n: int, terms, scan_bound: int) -> int:
    if kind == "stream":
        print("check: not applicable to --count output", file=sys.stderr)
        return 0
    if n > scan_bound:
        print(f"check: skipped, {n} exceeds scan bound {scan_bound}", file=sys.stderr)
        return 0
    scanned = level_scan(n, scan_bound).arr
    if kind == "core":
        scanned = scanned[: np.searchsorted(scanned, cores.core_top(n), side="right")]
    if not np.array_equal(terms, scanned):
        print(f"check: {kind} {n} disagrees with the scan oracle", file=sys.stderr)
        return 1
    print(f"check: {kind} {n} matches the scan oracle", file=sys.stderr)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    t = args.term
    if args.op == "pred":
        print(dyck_pred(t))
    elif args.op == "succ":
        print(dyck_succ(t))
    elif args.op == "classify":
        print(classify(t).value)
    else:  # level-of
        print(level_index(t))
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    if args.core is not None:
        n = args.core
        target = cores.core(n)
        library = cores.standard_library(max(n - 2, 4))
        if target.subsegments is not None:
            for seg in target.subsegments:
                print(cores.format_expr(cores.decompose(seg, library)))
        print(cores.format_expr(cores.decompose(target.terms, library)))
    else:
        n = args.level
        library = cores.standard_library(n if n % 2 == 0 else n - 1)
        terms = level_structural(n, args.structural_bound).terms
        print(cores.format_expr(cores.decompose(terms, library)))
    return 0


def _appendix_fixture() -> tuple[int, ...]:
    text = (
        resources.files("dycknums")
        .joinpath("data/appendix_core_subsequence.txt")
        .read_text()
    )
    return tuple(int(v) for v in re.findall(r"\d+", text))


def _appendix_outcome() -> VerificationOutcome:
    t0 = time.perf_counter()
    fixture = _appendix_fixture()
    max_n, total = 6, 0
    while True:
        total += cores.core_size(max_n)
        if total >= len(fixture):
            break
        max_n += 2
    computed = cores.core_subsequence(max_n)[: len(fixture)]
    detail = None
    if computed != fixture:
        for i, (e, a) in enumerate(zip(fixture, computed)):
            if e != a:
                detail = Counterexample(f"position {i}", e, a)
                break
        else:
            detail = Counterexample("cardinality", len(fixture), len(computed))
    return VerificationOutcome(
        "appendix", len(fixture), detail is None, detail, time.perf_counter() - t0
    )


def _oeis_outcomes(args: argparse.Namespace, ids: tuple[str, ...]) -> list[VerificationOutcome]:
    outcomes = []
    for sequence_id in ids:
        values = oeis_ref.computed_prefix(sequence_id)
        bfile = oeis_ref.fetch_bfile(
            sequence_id, cache_dir=args.oeis_cache, offline=args.offline or None
        )
        outcomes.append(oeis_ref.compare(values, bfile))
    return outcomes


def _planned_checks(selector: str, max_n: int) -> list[tuple[str, int]]:
    """The level checks a selector runs, rejected up front when a single
    check selects no level or when any would build a level above the
    structural bound."""
    names = conjectures.CHECKS if selector == "all" else (selector,)
    plan = conjectures.planned_checks(names, max_n)
    if not plan and selector != "all":
        raise UsageError(f"verify {selector} --max-n {max_n} selects no level")
    top = conjectures.highest_level(plan)
    if top > DEFAULT_STRUCTURAL_BOUND:
        raise UsageError(
            f"verify {selector} --max-n {max_n} needs level {top}, above the "
            f"structural bound {DEFAULT_STRUCTURAL_BOUND}"
        )
    return plan


def cmd_verify(args: argparse.Namespace) -> int:
    max_n = args.max_n
    selector = args.selector
    outcomes: list[VerificationOutcome] = []
    if selector == "all":
        _planned_checks(selector, max_n)
        outcomes.extend(conjectures.run_all(max_n))
        outcomes.append(_appendix_outcome())
        outcomes.extend(_oeis_outcomes(args, STANDARD_SEQUENCES))
    elif selector in conjectures.CHECKS:
        outcomes.extend(
            conjectures.CHECKS[name][0](n) for name, n in _planned_checks(selector, max_n)
        )
    elif selector == "sizes":
        outcomes.extend(conjectures.size_identity_checks(30))
    elif selector == "appendix":
        outcomes.append(_appendix_outcome())
    else:  # oeis
        ids = (args.sequence_id,) if args.sequence_id else STANDARD_SEQUENCES
        outcomes.extend(_oeis_outcomes(args, ids))

    if args.format == "records":
        print(RECORD_HEADER)
        for outcome in outcomes:
            print(outcome.record_line())
    else:
        for outcome in outcomes:
            print(outcome.text_line())
    return 0 if all(o.passed for o in outcomes) else 1


# -- parser ------------------------------------------------------------------


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("value must be nonnegative")
    return value


def _positive_int(text: str) -> int:
    value = _nonnegative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dycknums",
        description="Generate and verify the structure of OEIS A036991.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="print terms of the sequence, a level, or a core")
    what = gen.add_mutually_exclusive_group(required=True)
    what.add_argument("--count", type=_positive_int, help="first N terms")
    what.add_argument("--level", type=_nonnegative_int, help="all terms of level N")
    what.add_argument("--core", type=_nonnegative_int, help="all terms of the N-core")
    gen.add_argument("--format", choices=("text", "records"), default="text")
    gen.add_argument("--check", action="store_true",
                     help="also compare against the scan oracle")
    gen.add_argument("--cache-dir", help="directory for level/core term caches")
    gen.add_argument("--no-cache", action="store_true",
                     help="ignore caches and recompute")
    gen.add_argument("--scan-bound", type=int, default=DEFAULT_SCAN_BOUND)
    gen.add_argument("--structural-bound", type=int, default=DEFAULT_STRUCTURAL_BOUND)
    gen.set_defaults(func=cmd_gen)

    query = sub.add_parser("query", help="point queries on single terms")
    query.add_argument("op", choices=("pred", "succ", "classify", "level-of"))
    query.add_argument("term", type=_nonnegative_int)
    query.set_defaults(func=cmd_query)

    dec = sub.add_parser("decompose", help="decompose a core or level into patterns")
    what = dec.add_mutually_exclusive_group(required=True)
    what.add_argument("--core", type=_nonnegative_int)
    what.add_argument("--level", type=_nonnegative_int)
    dec.add_argument("--structural-bound", type=int, default=DEFAULT_STRUCTURAL_BOUND)
    dec.set_defaults(func=cmd_decompose)

    verify = sub.add_parser("verify", help="run the verification harness")
    verify.add_argument(
        "selector",
        choices=("all", "eq1", "eq2", "prop12", "conj16", "conj18",
                 "appendix", "sizes", "oeis"),
    )
    verify.add_argument("sequence_id", nargs="?",
                        help="sequence id for the oeis selector")
    verify.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    verify.add_argument("--format", choices=("text", "records"), default="text")
    verify.add_argument("--offline", action="store_true",
                        help="never touch the network")
    verify.add_argument("--oeis-cache", help="b-file cache directory")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (DyckError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
