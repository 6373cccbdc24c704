"""Levels and cores are stored in int32 and widened to int64 by each
operation on them.

numpy computes `int32 op int` in int32 and wraps, even into an int64
`out`, so each site that adds to or multiplies a stored term names its
dtype.  The differential tests feed each site int32 terms in
[2**29, 2**31), where 4t or a term plus an offset passes 2**31, and
require the result of the same call on an int64 copy.  The no-widening
tests catch a search whose probe is not in the array's dtype, which
makes numpy copy the whole array to the probe's.
"""

import tracemalloc

import numpy as np
import pytest

from dycknums import cli, conjectures, cores, levels
from dycknums.levels import core_top, level_structural, mersenne
from dycknums.conjectures import _certify_copies
from dycknums.patterns import (
    Pattern,
    _shifted,
    lift_copy,
    make_pattern,
    power,
)
from dycknums.report import Counterexample


def top_run(nbits: int, j: int) -> np.ndarray:
    """Every member in (M_nbits - 2**(j-1), M_nbits] as int32: level j
    with nbits - j ones put in front of each term."""
    run = level_structural(j).arr + np.int32(mersenne(nbits) - mersenne(j))
    assert run.dtype == np.int32 and run[0] >= 1 << 29
    return run


def outcome(call):
    """What a call returns, or the type of what it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def both_widths(call, run: np.ndarray):
    """The call on the int32 run and on its int64 copy."""
    return outcome(lambda: call(run)), outcome(lambda: call(run.astype(np.int64)))


@pytest.mark.parametrize("n,nbits", [(30, 30), (32, 31)])
def test_prop12_widens_stored_terms(monkeypatch, n, nbits):
    # The run at n = 30 passes every test of a term and falls short of
    # level 30 only.  The one at n = 32 ends at 2**31 - 1, the int32
    # maximum, and holds no term of 32 bits: its first term is reported,
    # its width compared with bounds beyond int32.
    def prop12(run):
        monkeypatch.setattr(conjectures, "_level_blocks", lambda level: iter([run]))
        found = conjectures.check_prop12(n)
        return found.passed, found.detail

    run = top_run(nbits, 14)
    narrow, wide = both_widths(prop12, run)
    first = int(run[0])
    detail = (Counterexample("cardinality", levels.level_size(n), len(run)) if nbits == n
              else Counterexample(first, f"a term of {n} bits", f"{nbits} bits"))
    assert narrow == wide == (False, detail)


@pytest.mark.parametrize("slip", [0, 2, 1 << 13])
def test_certify_copies_widens_stored_terms(slip):
    # The copy of the top 2**13 of the 30-bit numbers onto the top of the
    # 32-bit ones is exactly the members there; a slipped copy is not.
    lo, hi = mersenne(32) - (1 << 13), mersenne(32)
    offset = mersenne(32) - mersenne(30) - slip

    def certify(run):
        return (_certify_copies([(run, offset)], lo, hi, 32),
                _certify_copies([(iter([run[:100], run[100:]]), offset)], lo, hi, 32))

    narrow, wide = both_widths(certify, top_run(30, 14))
    assert narrow == wide
    assert (wide == (None, None)) == (slip == 0)


def test_streamed_blocks_widen_stored_terms():
    # Two copies of a 30-bit run, the second above 2**31, read as blocks
    # of the reused int64 buffer.
    def blocks(run):
        parts = [(run, None, 1 << 30), (run, None, 1 << 31)]
        return [block.copy() for block in levels._part_blocks(32, parts)]

    narrow, wide = both_widths(blocks, top_run(30, 20))
    assert len(wide) == 4 and wide[-1][-1] == mersenne(30) + (1 << 31)
    assert all(a.dtype == np.int64 and np.array_equal(a, b) for a, b in zip(narrow, wide))


@pytest.mark.parametrize(
    "call",
    [
        lift_copy,
        lambda p: _shifted(p, mersenne(32)),
        lambda p: _shifted(p, mersenne(29)),
        lambda p: power(p, 2),
    ],
)
def test_pattern_arithmetic_widens_stored_terms(call):
    # The top 2**11 of the 30-bit numbers, moved onto the top of the 32-,
    # 31- or 29-bit ones, or twice in a row.
    narrow, wide = both_widths(lambda run: call(Pattern(run)), top_run(30, 12))
    assert isinstance(wide, Pattern)
    assert narrow.arr.dtype == wide.arr.dtype == np.int64
    assert narrow == wide


def test_32_core_is_kept_in_int64(monkeypatch):
    # The 32-core's terms pass 2**31: its source's top, M_30, goes to its
    # top, 2**31 + 2**29 - 1.  Level 30 stands in as its top 2**13 terms,
    # and the sizes of levels 30 and 32 with it; the expected core is the
    # terms whose 00 image is a member.
    src = top_run(30, 14)
    image = src.astype(np.int64) + levels.Fragment.F00.shift(32)
    expected = image[levels._balance_ok(image, 32)]
    sizes = {30: len(src), 32: len(expected) + 3 * len(src)}
    monkeypatch.setattr(levels, "level_size", sizes.__getitem__)
    monkeypatch.setattr(levels, "_array_cache", {30: src})
    monkeypatch.setattr(cores, "_core_cache", {})
    built = cores.core(32)
    assert built.arr.dtype == np.int64 and np.array_equal(built.arr, expected)
    assert built.arr[-1] == built.top == core_top(32) > np.iinfo(levels.TERM_DTYPE).max
    assert np.array_equal(np.concatenate(built.segments), built.arr)


def test_core_is_split_without_a_widened_copy(monkeypatch):
    # Level 22 is the source of the 24-core (1.2 MB as int32); beside the
    # core only block-sized buffers may be live.  A search of the core by
    # int64 probes would copy it to int64 (2.4 MB).
    resident = {n: levels._level_array(n) for n in range(1, 23)}
    monkeypatch.setattr(levels, "_array_cache", resident)
    monkeypatch.setattr(cores, "_core_cache", {})
    tracemalloc.start()
    try:
        built = cores.core(24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built.arr.dtype == np.int32 and len(built.segments) == 4
    assert peak <= built.arr.nbytes + (1 << 20)


def traced_peak(call) -> int:
    """The tracemalloc peak of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_level_read_above_a_bound_makes_no_widened_copy(monkeypatch):
    # Level 24 above its core top is level 22 (1.4 MB as int32) under
    # three shifts, each part cut where it passes the bound.  Beside the
    # int64 block buffer (0.5 MB), nothing block-sized is live; a search
    # by an int64 probe would copy level 22 to int64 (2.8 MB).
    resident = {n: levels._level_array(n) for n in range(1, 23)}
    monkeypatch.setattr(levels, "_array_cache", resident)
    terms = []
    peak = traced_peak(
        lambda: terms.append(sum(map(len, levels._level_blocks(24, lo=core_top(24)))))
    )
    assert terms == [3 * len(resident[22])]
    assert peak < 1 << 20


def test_stored_terms_print_as_str_without_a_widened_copy():
    # Terms about every power of ten that int32 holds, up to its maximum.
    around = [np.arange(max(0, 10**k - 3), 10**k + 3) for k in range(10)]
    terms = np.unique(np.concatenate(around + [[2**31 - 1]])).astype(np.int32)
    values = terms.tolist()
    assert "".join(cli._term_text(terms, "text")) == " ".join(map(str, values)) + "\n"
    records = "".join(cli._term_text(terms, "records", "core\t8\t"))
    assert records == "".join(f"core\t8\t{i}\t{t}\n" for i, t in enumerate(values, 1))
    chunk = level_structural(22).arr[: cli._CHUNK]
    cli._decimal_rows(" ", chunk)  # warm-up: the text buffer
    assert traced_peak(lambda: cli._decimal_rows(" ", chunk)) < chunk.nbytes


def test_make_pattern_takes_a_stored_level_in_one_cast():
    # One astype: the per-term loop would hold a list of Python ints,
    # several times the size of the int64 run.
    level = level_structural(20).arr
    tracemalloc.start()
    try:
        run = make_pattern(level)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run.arr.dtype == np.int64 and np.array_equal(run.arr, level)
    assert peak < 2 * run.arr.nbytes
