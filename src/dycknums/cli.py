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
from collections.abc import Iterator
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
from .report import RECORD_HEADER, Counterexample, VerificationOutcome, check, first_mismatch

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


# -- decimal text of term arrays ---------------------------------------------
#
# Every term array leaves the package as text through `_term_text` and
# comes back from a cache file through `_parse_lines`.  Both work on
# whole uint8 digit matrices, never one Python int at a time.

# Terms are formatted this many at a time, so output never holds the
# text of a whole level at once.
_CHUNK = 1 << 16
# 10**1 .. 10**18: a nonnegative int64 below 10**k has at most k digits.
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)
# The widest cache line: every 18-digit number fits in an int64.
_MAX_DIGITS = 18


def _put_digits(out: np.ndarray, values: np.ndarray) -> None:
    """Write values, each exactly out.shape[1] decimal digits wide, into
    the uint8 matrix out as ASCII, one value per row."""
    # A copy, in 32 bits when the values fit: narrower division is faster.
    v = values.astype(np.int32 if out.shape[1] <= 9 else np.int64)
    q = np.empty_like(v)
    for col in range(out.shape[1] - 1, 0, -1):
        np.floor_divide(v, 10, out=q)
        np.subtract(v, q * 10, out=out[:, col], casting="unsafe")
        v, q = q, v
    out[:, 0] = v
    out += ord("0")


def _decimal_rows(*fields) -> str:
    """One row of text per term.  A row is the fields in order; a str
    field is repeated in every row, and an array field (ascending
    nonnegative int64, all of one length) gives each row one element in
    decimal.  The rows in which every array element has the same width
    are contiguous, and each such run is filled as one uint8 matrix."""
    arrays = [f for f in fields if not isinstance(f, str)]
    for a in arrays:
        if len(a) and (a[0] < 0 or bool(np.any(a[1:] < a[:-1]))):
            raise ValueError("terms must be ascending and nonnegative")
    edges = np.unique(np.concatenate(
        [[0, len(arrays[0])], *(np.searchsorted(a, _POW10) for a in arrays)]
    ))
    runs = []
    for lo, hi in itertools.pairwise(edges.tolist()):
        widths = [
            len(f) if isinstance(f, str) else 1 + int(np.searchsorted(_POW10, f[lo], "right"))
            for f in fields
        ]
        matrix = np.empty((hi - lo, sum(widths)), dtype=np.uint8)
        col = 0
        for field, width in zip(fields, widths):
            if isinstance(field, str):
                matrix[:, col:col + width] = np.frombuffer(field.encode("ascii"), np.uint8)
            else:
                _put_digits(matrix[:, col:col + width], field[lo:hi])
            col += width
        runs.append(matrix.tobytes())
    return b"".join(runs).decode("ascii")


def _term_text(terms: np.ndarray, layout: str, prefix: str = "") -> Iterator[str]:
    """The decimal text of ascending terms, in chunks of at most _CHUNK
    terms.  Layouts: "text" is one line of space-separated terms;
    "records" is one `prefix index term` row per term, tab-separated,
    indexed from 1; "lines" is one term per line."""
    for start in range(0, len(terms), _CHUNK):
        chunk = terms[start:start + _CHUNK]
        if layout == "records":
            index = np.arange(start + 1, start + 1 + len(chunk), dtype=np.int64)
            yield _decimal_rows(prefix, index, "\t", chunk, "\n")
        elif layout == "lines":
            yield _decimal_rows(chunk, "\n")
        else:
            text = _decimal_rows(" ", chunk)
            yield text if start else text[1:]
    if layout == "text":
        yield "\n"


def _parse_lines(body: bytes) -> np.ndarray:
    """The terms of a body in the "lines" layout.  Every line must be a
    term's decimal (1 to _MAX_DIGITS ASCII digits, no leading zero)
    followed by a newline, and no line may be shorter than the one
    before it, as holds for ascending terms.  Raise ValueError on any
    other body."""
    buf = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if len(buf) and (not len(ends) or ends[-1] != len(buf) - 1):
        raise ValueError("the last line does not end in a newline")
    if np.count_nonzero(buf - ord("0") > 9) != len(ends):  # uint8: wraps below '0'
        raise ValueError("a line holds a byte that is not a digit")
    widths = np.diff(ends, prepend=-1) - 1
    if len(widths) and (widths.min() < 1 or widths.max() > _MAX_DIGITS):
        raise ValueError(f"a line is empty or longer than {_MAX_DIGITS} digits")
    if bool(np.any(widths[1:] < widths[:-1])):
        raise ValueError("the terms are not ascending")
    values = np.empty(len(ends), dtype=np.int64)
    first = np.searchsorted(widths, np.arange(1, _MAX_DIGITS + 2)).tolist()
    for width, lo, hi in zip(range(1, _MAX_DIGITS + 1), first, first[1:]):
        if lo == hi:
            continue
        digits = buf[ends[lo] - width:ends[hi - 1] + 1].reshape(hi - lo, width + 1)
        if width > 1 and bool(np.any(digits[:, 0] == ord("0"))):
            raise ValueError("a line has a leading zero")
        # Accumulate the ASCII codes block by block, so that a block stays
        # in cache; each digit then carries an excess of ord("0"), which
        # sums to ord("0") * 11...1 (width ones) per value.
        for start in range(lo, hi, _CHUNK):
            block = digits[start - lo:start - lo + _CHUNK]
            v = block[:, 0].astype(np.int64)
            for col in range(1, width):
                v *= 10
                v += block[:, col]
            values[start:start + len(block)] = v
        values[lo:hi] -= ord("0") * (10**width - 1) // 9
    return values


# -- cache files -------------------------------------------------------------


def _cache_path(cache_dir: str, kind: str, n: int) -> Path:
    return Path(cache_dir) / f"{kind}_{n}.txt"


def write_cache_entry(cache_dir: str, kind: str, n: int, terms) -> Path:
    """Write one '# kind n count' header plus one term per line,
    atomically."""
    path = _cache_path(cache_dir, kind, n)
    arr = np.asarray(terms, dtype=np.int64)
    write_atomic(path, itertools.chain([f"# {kind} {n} {len(arr)}\n"], _term_text(arr, "lines")))
    return path


def read_cache_array(cache_dir: str, kind: str, n: int) -> np.ndarray | None:
    """Return the cached terms as an int64 array, None when absent.
    Raise CacheCorrupt unless the entry holds exactly the terms of the
    level or core its header names, one decimal per line: the right
    count, strictly ascending, inside the level interval (up to the core
    top for a core), and each a member."""
    path = _cache_path(cache_dir, kind, n)
    if not path.is_file():
        return None
    head, _, body = path.read_bytes().partition(b"\n")
    header = head.decode(errors="replace")
    if not header.startswith("# "):
        raise CacheCorrupt(f"{path}: missing header")
    fields = header[2:].split()
    if len(fields) != 3 or fields[0] != kind or fields[1] != str(n):
        raise CacheCorrupt(f"{path}: header does not match ({header!r})")
    try:
        arr = _parse_lines(body)
    except ValueError as exc:
        raise CacheCorrupt(f"{path}: {exc}") from None
    if fields[2] != str(len(arr)):
        raise CacheCorrupt(f"{path}: header count {fields[2]} != {len(arr)} lines")
    if kind == "level":
        size, top = level_size(n), mersenne(n)
    else:
        size, top = cores.core_size(n), cores.core_top(n)
    if len(arr) != size:
        raise CacheCorrupt(f"{path}: {len(arr)} terms, but {kind} {n} has {size}")
    if not (
        arr[0] > mersenne(n - 1)
        and arr[-1] <= top
        and bool(np.all(np.diff(arr) > 0))
        and bool(_balance_ok(arr, n).all())
    ):
        raise CacheCorrupt(f"{path}: not the ascending terms of {kind} {n}")
    return arr


def read_cache_entry(cache_dir: str, kind: str, n: int) -> tuple[int, ...] | None:
    """`read_cache_array` as a tuple of Python ints."""
    arr = read_cache_array(cache_dir, kind, n)
    return None if arr is None else tuple(arr.tolist())


# -- command implementations -------------------------------------------------


def _emit_terms(kind: str, n: int, terms: np.ndarray, fmt: str) -> None:
    if fmt == "records":
        sys.stdout.write("kind\tn\tindex\tterm\n")
    sys.stdout.writelines(_term_text(terms, fmt, f"{kind}\t{n}\t"))


def cmd_gen(args: argparse.Namespace) -> int:
    if args.count is not None:
        kind, n = "stream", args.count
        terms = _stream_array(args.count)
    else:
        kind, n = ("level", args.level) if args.level is not None else ("core", args.core)
        cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
        if args.no_cache:
            cache_dir = None
        terms = read_cache_array(cache_dir, kind, n) if cache_dir else None
        if terms is None:
            terms = (
                level_structural(n).arr
                if kind == "level"
                else cores.core(n).arr
            )
            if cache_dir:
                write_cache_entry(cache_dir, kind, n, terms)
    _emit_terms(kind, n, terms, args.format)
    if args.check:
        return _run_gen_check(kind, n, terms)
    return 0


def _run_gen_check(kind: str, n: int, terms) -> int:
    if kind == "stream":
        print("check: not applicable to --count output", file=sys.stderr)
        return 0
    if n > DEFAULT_SCAN_BOUND:
        print(f"check: skipped, {n} exceeds scan bound {DEFAULT_SCAN_BOUND}", file=sys.stderr)
        return 0
    scanned = level_scan(n).arr
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
        for seg in target.segments or ():
            print(cores.format_expr(cores.decompose(seg, library)))
        print(cores.format_expr(cores.decompose(target.arr, library)))
    else:
        n = args.level
        library = cores.standard_library(n if n % 2 == 0 else n - 1)
        print(cores.format_expr(cores.decompose(level_structural(n).arr, library)))
    return 0


def _appendix_outcome() -> VerificationOutcome:
    fixture_file = resources.files("dycknums") / "data/appendix_core_subsequence.txt"
    fixture = tuple(int(v) for v in re.findall(r"\d+", fixture_file.read_text()))

    @check("appendix")
    def core_subsequence_prefix(count: int) -> Counterexample | None:
        max_n, total = 6, cores.core_size(6)
        while total < count:
            max_n += 2
            total += cores.core_size(max_n)
        return first_mismatch(fixture, cores.core_subsequence(max_n)[:count])

    return core_subsequence_prefix(len(fixture))


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
    structural bound.  A check at n builds no level above n."""
    names = conjectures.CHECKS if selector == "all" else (selector,)
    plan = conjectures.planned_checks(names, max_n)
    if not plan and selector != "all":
        raise UsageError(f"verify {selector} --max-n {max_n} selects no level")
    top = max((n for _, n in plan), default=0)
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
    gen.set_defaults(func=cmd_gen)

    query = sub.add_parser("query", help="point queries on single terms")
    query.add_argument("op", choices=("pred", "succ", "classify", "level-of"))
    query.add_argument("term", type=_nonnegative_int)
    query.set_defaults(func=cmd_query)

    dec = sub.add_parser("decompose", help="decompose a core or level into patterns")
    what = dec.add_mutually_exclusive_group(required=True)
    what.add_argument("--core", type=_nonnegative_int)
    what.add_argument("--level", type=_nonnegative_int)
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
