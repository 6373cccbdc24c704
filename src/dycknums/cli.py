"""Command-line interface: term generation, point queries, pattern
decomposition, and the verification harness.

Exit codes: 0 success, 1 domain or verification failure, 2 usage error,
a request beyond a fixed bound included.
"""

from __future__ import annotations

import argparse
import codecs
import itertools
import os
import re
import sys
import threading
from collections.abc import Iterator
from functools import cache
from importlib import resources

import numpy as np

from . import conjectures, cores, oeis_ref
from .dyck_core import classify, dyck_pred, dyck_succ
from .errors import BoundError, DomainError, DyckError, UsageError
from .levels import (DEFAULT_SCAN_BOUND, _BLOCK, _blocks, _level_blocks, _stream_blocks,
                     level_index, level_scan, level_size, mersenne, subsegment_bounds)
from .report import RECORD_HEADER, Counterexample, VerificationOutcome, check, first_mismatch

DEFAULT_MAX_N = 22
# The one bound of `decompose --core N` and `--level N`, set by the size of
# its output: 9.7 MB at the 36-core, 36 MB at the 38-core (a level: < 1 KB).
DECOMPOSE_MAX_N = 36
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
# Every term array leaves the package as text through `_term_text`, which
# works on whole uint8 digit matrices, never one Python int at a time.

# Per dtype of a term array, 10**1 .. 10**k in that dtype for the largest
# power it holds: a nonnegative value below 10**k has at most k digits.
# An array is searched by probes of its own dtype, or numpy copies it.
_POW10 = {np.dtype(t): 10 ** np.arange(1, digits, dtype=t)
          for t, digits in ((np.int32, 10), (np.int64, 19))}


@cache
def _digit_groups() -> np.ndarray:
    """The ASCII digits of 0000 .. 9999, four bytes to an entry, read as
    little-endian uint32: in memory, the first digit comes first."""
    digits = np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    table = digits.astype(np.uint8).view("<u4").ravel()
    table.flags.writeable = False
    return table


class _TextWork(threading.local):
    """The buffers of the formatter, one set per thread and reused by
    every chunk (fresh buffers of this size would come from new pages on
    every call): for `_put_digits` of up to _BLOCK values, three int64
    rows for the value, quotient and remainder, viewed as int32 when the
    values fit, an intp row for the table index, and room for five
    4-digit groups a value; for `_decimal_rows`, the text of one chunk,
    grown when a chunk needs more."""

    def __init__(self) -> None:
        self.rows = np.empty((3, _BLOCK), dtype=np.int64)
        self.index = np.empty(_BLOCK, dtype=np.intp)
        self.digits = np.empty(5 * _BLOCK, dtype="<u4")
        self.text = np.empty(0, dtype=np.uint8)

    def text_buffer(self, size: int) -> np.ndarray:
        if len(self.text) < size:
            self.text = np.empty(size, dtype=np.uint8)
        return self.text


_text_work = _TextWork()


def _put_digits(out: np.ndarray, values: np.ndarray) -> None:
    """Write values, at most _BLOCK of them, each exactly out.shape[1]
    decimal digits wide, into the uint8 matrix out as ASCII, one value
    per row.  The last axis of out must be contiguous; its rows may be
    strided.

    The values are first written as 4-digit groups into a contiguous
    `(groups, m)` uint32 block, zero-padded on the left to a multiple of
    four digits, then each group goes into its columns of out."""
    m, width = out.shape
    groups = -(-width // 4)
    if m > _BLOCK:
        raise ValueError(f"at most {_BLOCK} values at a time, got {m}")
    # A copy, in 32 bits when the values fit: narrower division is faster.
    rows = _text_work.rows
    v, q, r = (rows.view(np.int32) if width <= 9 else rows)[:, :m]
    v[...] = values
    table = _digit_groups()
    block = _text_work.digits[: groups * m].reshape(groups, m)
    # `take` converts an index array of another dtype than intp through a
    # fresh copy, so int32 indices go through this buffer.
    index = _text_work.index[:m]
    for g in range(groups - 1, 0, -1):
        np.floor_divide(v, 10**4, out=q)
        np.multiply(q, 10**4, out=r)
        np.subtract(v, r, out=index)
        table.take(index, out=block[g], mode="clip")  # index is in 0 .. 9999
        v, q = q, v
    index[...] = v
    table.take(index, out=block[0], mode="clip")
    # Each group as one void item per row, the leading group without its
    # padding: copying m items of 4 bytes is far faster than copying m
    # rows of 4 one-byte items.
    for g, digits in enumerate(block.view(np.uint8).reshape(groups, m, 4)):
        end = width - 4 * (groups - 1 - g)
        size = min(end, 4)
        item = f"V{size}"
        out[:, end - size : end].view(item)[...] = digits[:, 4 - size :].view(item)


def _decimal_rows(*fields) -> np.ndarray:
    """One row of ASCII text per term, as a view of the thread's text
    buffer that is valid until the next call.  A row is the fields in
    order; a str field is repeated in every row, and an array field
    (strictly ascending nonnegative int32 or int64, all of one length)
    gives each row one element in decimal.  The rows in which every
    array element has the same width are contiguous, and each such run
    is filled as one uint8 matrix."""
    arrays = [f for f in fields if not isinstance(f, str)]
    for a in arrays:
        if len(a) and (a[0] < 0 or bool(np.any(a[1:] <= a[:-1]))):
            raise ValueError("terms must be strictly ascending and nonnegative")
    # A set of a few dozen ints: np.unique would import numpy.ma on its
    # first call, a cost of milliseconds in every process.
    cuts = (np.searchsorted(a, _POW10[a.dtype]).tolist() for a in arrays)
    edges = sorted({0, len(arrays[0])}.union(*cuts))

    def width(field, i: int) -> int:
        if isinstance(field, str):
            return len(field)
        return 1 + int(np.searchsorted(_POW10[field.dtype], field[i], "right"))

    # No row is wider than the last, whose array elements are the largest.
    rows = len(arrays[0])
    text = _text_work.text_buffer(rows * sum(width(f, -1) for f in fields) if rows else 0)
    pos = 0
    for lo, hi in itertools.pairwise(edges):
        widths = [width(f, lo) for f in fields]
        cols = list(itertools.accumulate(widths, initial=0))
        # The str fields go into one template row, and the template into
        # every row by doubling the filled prefix: a few long copies in
        # place of one short copy per row and field.
        template = np.zeros(cols[-1], dtype=np.uint8)
        for field, left, right in zip(fields, cols, cols[1:]):
            if isinstance(field, str):
                template[left:right] = np.frombuffer(field.encode("ascii"), np.uint8)
        flat = text[pos : pos + (hi - lo) * len(template)]
        matrix = flat.reshape(hi - lo, len(template))
        flat[: len(template)] = template
        filled = len(template)
        while filled < flat.size:
            step = min(filled, flat.size - filled)
            flat[filled : filled + step] = flat[:step]
            filled += step
        for field, left, right in zip(fields, cols, cols[1:]):
            if not isinstance(field, str):
                _put_digits(matrix[:, left:right], field[lo:hi])
        pos += flat.size
    return text[:pos]


def _term_chunks(terms, layout: str, prefix: str = "") -> Iterator[memoryview]:
    """The decimal text of strictly ascending terms, one array or a
    sequence of arrays read as one, as ASCII in a chunk a block of
    `_blocks`, so no text of a whole level is held; each chunk is a view
    of the text buffer, valid until the next is drawn.  Layouts: "text"
    is one line of space-separated terms; "records" is one `prefix index
    term` row per term, tab-separated, indexed from 1."""
    start, last = 0, -1
    for chunk in _blocks(terms):
        if chunk[0] <= last:  # across chunks; `_decimal_rows` checks inside one
            raise ValueError("terms must be strictly ascending and nonnegative")
        last = chunk[-1]
        if layout == "records":
            index = np.arange(start + 1, start + 1 + len(chunk), dtype=np.int64)
            yield memoryview(_decimal_rows(prefix, index, "\t", chunk, "\n"))
        else:
            text = memoryview(_decimal_rows(" ", chunk))
            yield text if start else text[1:]
        start += len(chunk)
    if layout == "text":
        yield memoryview(b"\n")


def _term_text(terms, layout: str, prefix: str = "") -> Iterator[str]:
    """`_term_chunks` as str."""
    return (str(chunk, "ascii") for chunk in _term_chunks(terms, layout, prefix))


# -- command implementations -------------------------------------------------


def _emit_terms(kind: str, n: int, terms, fmt: str) -> None:
    out = sys.stdout
    if fmt == "records":
        out.write("kind\tn\tindex\tterm\n")
    prefix = f"{kind}\t{n}\t"
    # The ASCII chunks go straight to the byte stream under stdout when it
    # would store them unchanged (UTF-8 or ASCII, no newline translation):
    # a str of each chunk and its encoded copy would be two fresh
    # allocations a chunk.
    binary = getattr(out, "buffer", None)
    if (
        binary is None
        or os.linesep != "\n"
        or codecs.lookup(out.encoding).name not in ("utf-8", "ascii")
    ):
        out.writelines(_term_text(terms, fmt, prefix))
        return
    out.flush()
    for chunk in _term_chunks(terms, fmt, prefix):
        binary.write(chunk)


def _gen_blocks(kind: str, n: int):
    """The terms `gen` prints, as ascending blocks, every bound checked
    before the first block is drawn.  A level is read from its parts, so
    no printed level is materialized: an odd level from level n-1, an
    even one as its core (made once and kept, as for `gen --core`) and
    then the three other images of level n-2."""
    if kind == "stream":
        return _stream_blocks(n)
    if kind == "core":
        return [cores.core(n).arr]
    if n < 6 or n % 2:
        return _whole_level(n, _level_blocks(n))
    # The core first: it refuses n above the bound before its n-bit top is
    # made.  A term of the images at or below that top is caught by the count.
    core = cores.core(n)
    return _whole_level(n, itertools.chain([core.arr], _level_blocks(n, lo=core.top)))


def _whole_level(n: int, blocks):
    """The blocks of level n, then an error unless they held all its terms."""
    total = 0
    for block in blocks:
        total += len(block)
        yield block
    if total != level_size(n):
        raise AssertionError(f"level {n} streams {total} terms, not {level_size(n)}")


def cmd_gen(args: argparse.Namespace) -> int:
    if args.count is not None:
        kind, n = "stream", args.count
    else:
        kind, n = ("level", args.level) if args.level is not None else ("core", args.core)
    _emit_terms(kind, n, _gen_blocks(kind, n), args.format)
    if args.check:
        return _run_gen_check(kind, n)
    return 0


def _run_gen_check(kind: str, n: int) -> int:
    if kind == "stream":
        print("check: not applicable to --count output", file=sys.stderr)
        return 0
    if n > DEFAULT_SCAN_BOUND:
        print(f"check: skipped, {n} exceeds scan bound {DEFAULT_SCAN_BOUND}", file=sys.stderr)
        return 0
    scanned = level_scan(n).arr
    if kind == "core":
        scanned = scanned[: np.searchsorted(scanned, cores.core_top(n), side="right")]
    # The printed terms are read again as blocks, never as one array, each
    # compared with its slice of the scan, and to the end of the stream.
    agree, printed = True, 0
    for block in _gen_blocks(kind, n):
        agree = agree and np.array_equal(block, scanned[printed : printed + len(block)])
        printed += len(block)
    if not agree or printed != len(scanned):
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
    n = args.core if args.core is not None else args.level
    if n > DECOMPOSE_MAX_N:
        raise BoundError(f"{n} exceeds the bound {DECOMPOSE_MAX_N} of decompose, "
                         "set by its output: the 38-core alone prints 36 MB")
    if args.core is not None:
        if n < 6 or n % 2:
            raise DomainError("cores exist for even n >= 6")
        library = cores.standard_library(max(n - 2, 4))
        runs = [subsegment_bounds(n, i) for i in range(4)] if n >= 10 else []
        runs.append((mersenne(n - 1), cores.core_top(n)))
    else:
        if n < 1:
            raise DomainError("n must be >= 1")
        library = cores.standard_library(n if n % 2 == 0 else n - 1)
        runs = [(mersenne(n - 1), mersenne(n))]
    for lo, hi in runs:
        print(cores.format_expr(cores.decompose(range(lo + 1, hi + 1), library)))
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
    """The levels one check runs at, rejected up front when it selects
    none."""
    plan = conjectures.planned_checks((selector,), max_n)
    if not plan:
        raise UsageError(f"verify {selector} --max-n {max_n} selects no level")
    return plan


def cmd_verify(args: argparse.Namespace) -> int:
    max_n = args.max_n
    selector = args.selector
    if args.sequence_id and selector != "oeis":
        raise UsageError(f"a sequence id is taken only by the oeis selector, not by {selector}")
    outcomes: list[VerificationOutcome] = []
    if selector == "all":
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
        shown = repr(text if len(text) <= 40 else f"{text[:20]}...{text[-10:]}")
        limit = sys.get_int_max_str_digits()
        if 0 < limit < len(text) and text.strip().lstrip("+-").replace("_", "").isdecimal():
            message = f"{shown} has more than {limit} digits (sys.get_int_max_str_digits())"
        else:
            message = f"{shown} is not an integer"
        raise argparse.ArgumentTypeError(message) from None
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
    # Rebuilding a level or core is faster than reading it back from a
    # file, so nothing is cached; the two options still parse so that
    # existing invocations keep working.
    gen.add_argument("--cache-dir", help="ignored: levels and cores are always rebuilt")
    gen.add_argument("--no-cache", action="store_true", help="ignored")
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
        choices=("all", *conjectures.CHECKS, "appendix", "sizes", "oeis"),
    )
    verify.add_argument("sequence_id", nargs="?", choices=STANDARD_SEQUENCES,
                        help="sequence id for the oeis selector")
    verify.add_argument("--max-n", type=_positive_int, default=DEFAULT_MAX_N)
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
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader left: see "Note on SIGPIPE" in the signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, BoundError) as exc:
        parser.error(str(exc))
    except (DyckError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
