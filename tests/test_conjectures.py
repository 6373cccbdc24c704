import collections
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dycknums import cores, levels, patterns
from dycknums import conjectures
from dycknums.conjectures import (
    check_catalan_rejection,
    check_conj16,
    check_conj18,
    check_prop12,
    run_all,
    size_identity_checks,
    verify_eq1,
    verify_eq2,
)
from dycknums.cores import core, core_size, subsegments
from dycknums.dyck_core import _rank
from dycknums.errors import BoundError
from dycknums.levels import level_structural, mersenne
from dycknums.oeis_ref import a001405, catalan
from dycknums.report import Counterexample, VerificationOutcome, check, first_mismatch


def test_prop12_passes_and_quotes_the_examples():
    for n in range(6, 15, 2):
        outcome = check_prop12(n)
        assert outcome.passed, outcome
    # the quoted instances behind the check
    level8 = set(level_structural(8).terms)
    assert {4 * 39 - 1, 4 * 39 + 1, 4 * 39 + 3} <= level8
    assert 4 * 39 + 3 == 159
    assert 4 * mersenne(6) + 3 == mersenne(8)


def quarter(t, n):
    """The quarter segment of level n that t falls in, for any integer t."""
    return (t - (1 << (n - 1))) >> (n - 3)


# check_prop12 computes no quarter: its docstring proves that 4t + 1 and
# 4t + 3 keep the quarter of every integer t and 4t - 1 that of every
# odd t, and that an even t fails the test of 4t + 1.
@given(st.integers(-(1 << 300), 1 << 300), st.integers(3, 100).map(lambda k: 2 * k))
@settings(max_examples=500, deadline=None)
def test_prop12_lifts_keep_the_quarter_of_every_integer(t, n):
    for delta in (1, 3):
        assert quarter(4 * t + delta, n + 2) == quarter(t, n)
    if t % 2:
        assert quarter(4 * t - 1, n + 2) == quarter(t, n)


def test_prop12_lifts_land_in_the_quarter_of_each_term():
    for n in range(6, 21, 2):
        t = level_structural(n).arr.astype(np.int64)
        for delta in (-1, 1, 3):
            assert np.array_equal(quarter(4 * t + delta, n + 2), quarter(t, n)), (n, delta)
        # the even neighbour below each term fails the test of 4t + 1
        assert not levels._balance_ok(4 * (t - 1) + 1, n + 2).any(), n


def test_conj16_copies_and_offsets():
    out = check_conj16(8)
    assert out.passed
    base = core(8).terms
    segs = subsegments(core(10))
    assert segs[1] == tuple(t + (13 << 5) for t in base)
    assert segs[2] == tuple(t + (7 << 6) for t in base)
    for n in (10, 12, 14):
        assert check_conj16(n).passed


def test_conj16_offsets_at_n20():
    assert 13 << 17 == 1703936
    assert 7 << 18 == 1835008


def test_conj18_passes_with_quoted_cardinalities():
    for n, size in ((12, 35), (14, 126), (16, 462)):
        outcome = check_conj18(n)
        assert outcome.passed, outcome
        assert len(subsegments(core(n))[3]) == size == a001405(n - 5)


def test_conj18_base_case_shape():
    # the recursion bottoms out on the 10-core's top subsegment, which
    # is the whole 6-level pattern placed at 639
    seg = subsegments(core(10))[3]
    assert seg == tuple(t + 576 for t in level_structural(6).terms)


def test_catalan_rejection_range():
    for n in range(6, 17, 2):
        assert check_catalan_rejection(n).passed


def test_rejection_tests_only_the_rejected_terms_in_a_run(monkeypatch):
    # In run_all(24) each prop12(n) has passed before rejection(n), which
    # then tests only the words of the Cat(n/2 - 1) rejected terms:
    # 2 + 5 + ... + 58786 = 82,498.  Called alone, it tests every 00
    # image of level n-2 too.
    tested = []
    real = conjectures._balance_ok
    monkeypatch.setattr(conjectures, "_balance_ok",
                        lambda values, nbits: (tested.append(values.size), real(values, nbits))[1])
    assert all(o.passed for o in run_all(24))
    assert sum(tested) == sum(catalan(n // 2 - 1) for n in range(6, 25, 2)) == 82_498
    for n in range(6, 25, 2):
        tested.clear()
        assert check_catalan_rejection(n).passed
        assert sum(tested) == levels.level_size(n - 2) + catalan(n // 2 - 1)


def test_parity_validation():
    for checker, bad in (
        (check_prop12, 7),
        (check_conj16, 9),
        (check_conj18, 13),
        (check_catalan_rejection, 7),
    ):
        with pytest.raises(ValueError):
            checker(bad)


def test_size_identity_checks_pass():
    outcomes = size_identity_checks(30)
    assert [o.name for o in outcomes] == [
        "eq4", "eq5", "prop10", "core-sizes", "level-sizes",
    ]
    assert all(o.passed for o in outcomes)


def test_run_all_small():
    outcomes = run_all(12)
    assert outcomes and all(o.passed for o in outcomes)
    keys = [(o.name, o.n) for o in outcomes]
    assert keys == sorted(keys)
    assert {"eq1", "eq2", "prop12", "conj16", "conj18", "rejection"} <= {
        o.name for o in outcomes
    }


def test_run_all_empty_below_applicability():
    assert run_all(4) == []


def test_run_all_is_deterministic():
    a = [(o.name, o.n, o.passed, o.detail) for o in run_all(10)]
    b = [(o.name, o.n, o.passed, o.detail) for o in run_all(10)]
    assert a == b


def test_outcome_invariants():
    with pytest.raises(ValueError):
        VerificationOutcome("x", 1, True, Counterexample(1, 2, 3))
    failed = check("x")(lambda n: first_mismatch((1, 2, 3), (1, 9, 3)))(1)
    assert not failed.passed
    assert failed.detail == Counterexample("index 1", 2, 9)
    short = first_mismatch((1, 2, 3), (1, 2, 3, 4))
    assert short == Counterexample("cardinality", 3, 4)
    line = failed.text_line()
    assert line.startswith("FAIL x n=1") and "expected 2, got 9" in line
    fields = failed.record_line().split("\t")
    assert fields[0] == "x" and fields[2] == "0" and fields[4] == "2"


def test_eq2_applies_no_fragment_00_rule(monkeypatch):
    # With levels up to 24 resident and the chunk tables built, eq2(26)
    # certifies the copies of level 24 in `_work`'s buffers and reads the
    # layout of level 26's parts: nothing block-sized is made, and no mask
    # of level 24 (1.35 MB at a byte a term) for the core part it leaves out.
    resident = {k: levels._level_array(k) for k in range(1, 25)}
    monkeypatch.setattr(levels, "_array_cache", resident)
    levels._chunk_tables()
    tracemalloc.start()
    try:
        outcome = verify_eq2(26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.passed
    assert peak < 64 * 1024


def test_conj16_and_conj18_make_their_copies_a_block_at_a_time(monkeypatch):
    # With levels up to 22 resident, conj16 and conj18 at 24 read their
    # sources (the 24-core, the 20-core, the 22-core's top subsegment) as
    # blocks of levels 24, 20 and 22, and certify the copies by blocks.
    # A copy of the 24-core (293,930 terms, 2.35 MB) would pass the bound.
    resident = {k: levels._level_array(k) for k in range(1, 23)}
    monkeypatch.setattr(levels, "_array_cache", resident)
    tracemalloc.start()
    try:
        outcomes = [check_conj16(24), check_conj18(24)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(o.passed for o in outcomes)
    assert 24 not in levels._array_cache
    assert peak < 2_500_000


def _members(bounds):
    lo, hi = bounds
    return _rank(hi) - _rank(lo)


def _changed(n, *changes):
    """Level n as a writable int64 copy, with each (index, term) set."""
    terms = levels._level_array(n).astype(np.int64)
    for i, t in changes:
        terms[i] = t
    return terms


def _fault_in_block(n, block, t, below, kind, nbits):
    """The `_Witness` of level n changed, with its first fault in the
    given block (from 0) of `_BLOCK` terms."""
    level = levels._level_array(n)
    start = block * levels._BLOCK
    top = int(level[start - 1]) if start else int(level[0]) - 1
    return levels._Witness(int(level[0]), top, start, (t, below, kind, nbits))


# Level 8 starts 143, 151, 155, 157, 159, 167, 171, 173, 175, 179, 181;
# 153 and every even term are no members.  Level 20 holds two blocks:
# 905883 ends the first and 905885 starts the second.
_SEAM = levels._BLOCK


def _level_20(i):
    return int(levels._level_array(20)[i])


@pytest.mark.parametrize("terms,expected", [
    # In the faulty block, a width fault comes before a non-member, and a
    # non-member before a descent, wherever each stands.
    (lambda: _changed(8, (2, 153), (5, 171), (6, 167)),
     lambda: _fault_in_block(8, 0, 153, 151, "member", 8)),
    (lambda: _changed(8, (1, 155), (2, 151), (6, 170)),
     lambda: _fault_in_block(8, 0, 170, 167, "member", 8)),
    (lambda: _changed(8, (2, 153), (10, 257)),
     lambda: _fault_in_block(8, 0, 257, 179, "width", 8)),
    # The term 0 has no width of its own: first, it fails its width of
    # one bit; later, the width of the first term.
    (lambda: np.concatenate([[0], levels._level_array(8)]),
     lambda: levels._Witness(0, -1, 0, (0, -1, "width", 1))),
    (lambda: _changed(8, (1, 153), (3, 0)),
     lambda: _fault_in_block(8, 0, 0, 155, "width", 8)),
    # A descent at a block seam is an ascent fault of the second block,
    # found after a non-member or a width fault there.
    (lambda: _changed(20, (_SEAM, 905883), (_SEAM + 100, _level_20(_SEAM + 100) + 1)),
     lambda: _fault_in_block(20, 1, _level_20(_SEAM + 100) + 1, _level_20(_SEAM + 99),
                             "member", 20)),
    (lambda: _changed(20, (_SEAM, 905883), (-1, 1 << 20)),
     lambda: _fault_in_block(20, 1, 1 << 20, _level_20(-2), "width", 20)),
    (lambda: _changed(20, (_SEAM, 905883)),
     lambda: _fault_in_block(20, 1, 905883, 905883, "ascent", 20)),
    # A non-member that ends a block is found before a descent after it.
    (lambda: _changed(20, (_SEAM - 1, 905882), (_SEAM, 905881)),
     lambda: _fault_in_block(20, 0, 905882, 905879, "member", 20)),
], ids=["member_before_descent", "descent_before_member", "width_after_member",
        "term_0_first", "term_0_after_member", "seam_descent_then_member",
        "seam_descent_then_width", "seam_descent", "member_ending_a_block"])
def test_witness_reports_the_first_fault_of_the_first_faulty_block(terms, expected):
    assert levels._witness(terms()) == expected()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_a_window_of_a_level_prop12_passed_is_its_witness_in_closed_form(data):
    # Member bounds M_{n-1} <= lo < hi in level n: the closed form that
    # `_window` takes once prop12(n) has passed in a run equals the
    # witness of the window read, from the resident level and from the
    # level's parts; before that, the window is read.
    n = data.draw(st.integers(4, 20), label="n")
    level = levels._level_array(n)
    i, j = sorted(data.draw(st.lists(st.integers(-1, len(level) - 1), min_size=2, max_size=2,
                                     unique=True), label="indices"))
    lo = mersenne(n - 1) if i < 0 else int(level[i])
    hi = int(level[j])
    read = levels._witness(levels._part_blocks(n, levels._level_parts(n), lo, hi))
    assert levels._witness(levels._level_blocks(n, lo, hi)) == read
    assert read.read == j - i and read.fault is None
    reads = conjectures._Reads(n)
    assert levels._witness(conjectures._window(reads, n, lo, hi)) == read
    reads.proven[n] = int(level[0])
    assert conjectures._window(reads, n, lo, hi) == read


# Each copy check passes each distinct source through the membership
# kernel once, whatever its number of copies: level 20 for the two
# copies of eq1(21), level 18 for the three of eq2(20), the 20-core for
# both subsegments of conj16(20), and the 16-core and the 18-core's top
# subsegment, the latter copied three times, for conj18(20).
@pytest.mark.parametrize("checker,n,size", [
    (verify_eq1, 21, levels.level_size(20)),
    (verify_eq2, 20, levels.level_size(18)),
    (check_conj16, 20, core_size(20)),
    (check_conj18, 20, core_size(16) + _members(levels.subsegment_bounds(18, 3))),
], ids=["eq1", "eq2", "conj16", "conj18"])
def test_a_copy_check_reads_each_source_once(monkeypatch, checker, n, size):
    assert checker(n).passed  # builds the levels it reads
    read = []
    class_runs, balance_ok = levels._class_runs, levels._balance_ok

    def counted(kernel):
        return lambda terms, *args: (read.append(len(terms)), kernel(terms, *args))[1]

    monkeypatch.setattr(levels, "_class_runs", counted(class_runs))
    monkeypatch.setattr(levels, "_balance_ok", counted(balance_ok))
    assert checker(n).passed
    assert sum(read) == size


def test_prop12_allocates_only_the_buffers_of_its_thread():
    # In a fresh interpreter, after a warm-up (level 20 read once into
    # blocks, which builds level 18, and the chunk tables built), prop12
    # runs in a new thread: one that allocates its
    # `_work` buffers, 21 bytes a term of a block.  Any
    # other block-sized buffer, kept or not, takes at least a byte a
    # term more at the peak, and one kept past the call stays traced.
    script = (
        "import threading, tracemalloc; from dycknums import conjectures, levels; "
        "blocks = [block.copy() for block in levels._level_blocks(20)]; levels._chunk_tables(); "
        "conjectures._level_blocks = lambda n: iter(blocks); "
        "tracemalloc.start(); "
        "thread = threading.Thread(target=lambda: print(conjectures.check_prop12(20).passed)); "
        "thread.start(); thread.join(); print(*tracemalloc.get_traced_memory())"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    passed, kept, peak = result.stdout.split()
    assert passed == "True"
    assert int(peak) < 21 * levels._BLOCK + levels._BLOCK // 4
    assert int(kept) < levels._BLOCK // 4


def test_first_mismatch_finds_the_last_index_in_a_byte_per_term():
    expected = np.arange(1, 2_000_001, 2, dtype=np.int64)
    actual = expected.copy()
    actual[-1] += 2
    tracemalloc.start()
    try:
        found = first_mismatch(expected, actual)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == Counterexample(f"index {len(expected) - 1}", 1_999_999, 2_000_001)
    assert peak < 2 * len(expected)  # a byte per term, not a Python int


def test_first_mismatch_reports_a_length_mismatch_after_the_common_prefix():
    terms = np.arange(10, dtype=np.int64)
    assert first_mismatch(terms, terms[:7]) == Counterexample("cardinality", 10, 7)
    assert first_mismatch(terms[:7], terms) == Counterexample("cardinality", 7, 10)
    # a differing term in the common prefix comes before the lengths
    assert first_mismatch(terms, np.array([0, 1, 2, 3, 4, 5, 7])) == Counterexample(
        "index 6", 6, 7
    )


def test_first_mismatch_is_exact_above_int64():
    big = [mersenne(80) - 4, mersenne(80) - 2, mersenne(80)]
    expected = np.array(big, dtype=object)
    assert first_mismatch(expected, np.array(big, dtype=object)) is None
    found = first_mismatch(expected, np.array(big[:2] + [big[2] + 2], dtype=object))
    assert found == Counterexample("index 2", mersenne(80), mersenne(80) + 2)
    assert type(found.expected) is int and type(found.actual) is int
    assert first_mismatch(tuple(big), tuple(big[:2])) == Counterexample("cardinality", 3, 2)


def test_run_all_builds_no_level_above_max_n(monkeypatch):
    # Level max_n and the cores are only read as blocks.
    monkeypatch.setattr(levels, "_array_cache", {})
    monkeypatch.setattr(cores, "_core_cache", {})
    assert all(o.passed for o in run_all(12))
    assert max(levels._array_cache) == 10
    assert cores._core_cache == {}


def test_run_all_builds_no_odd_level_and_nothing_above_max_n(monkeypatch):
    monkeypatch.setattr(levels, "_array_cache", {})
    monkeypatch.setattr(cores, "_core_cache", {})
    assert all(o.passed for o in run_all(24))
    assert max(levels._array_cache) == 22
    assert cores._core_cache == {}
    assert [n for n in levels._array_cache if n >= 3 and n % 2] == []


def test_run_all_validates_no_pattern(monkeypatch):
    # conj16 and conj18 compare blocks; no copy, power or join is made.
    def no_validation(arr):
        raise AssertionError("a run was validated")

    monkeypatch.setattr(patterns, "_validate_run", no_validation)
    outcomes = run_all(24)
    assert len(outcomes) == 61 and all(o.passed for o in outcomes)


def count_drawn(monkeypatch):
    """Count the terms `conjectures._level_blocks` draws, as
    {level: terms}."""
    drawn = collections.Counter()
    real = conjectures._level_blocks

    def level_blocks(m, *args, **kwargs):
        for block in real(m, *args, **kwargs):
            drawn[m] += len(block)
            yield block

    monkeypatch.setattr(conjectures, "_level_blocks", level_blocks)
    return drawn


def test_run_all_reads_level_n_once_for_prop12(monkeypatch):
    # prop12(24) reads level 24 whole, as blocks; conj16(24) takes its
    # core from that read, and eq2(24) reads none of it, which spares
    # the three images of level 22.  Each lower level prop12 reads is
    # the resident array that eq1 witnessed, and conj16 and conj18 take
    # their windows of every level prop12 passed in closed form: no
    # other block is drawn.
    drawn = count_drawn(monkeypatch)
    assert all(o.passed for o in run_all(24))
    assert dict(drawn) == {24: levels.level_size(24)}


def count_witnessed(monkeypatch):
    """The reads of `conjectures._witness`, as (level, terms) pairs.  Each
    run is handed on as it is, so `_witness` sees its type; a `_Witness`
    handed back is no read."""
    reads = []
    real = conjectures._witness

    def witness(src):
        read = real(src)
        if not isinstance(src, levels._Witness):
            reads.append((read.first.bit_length(), read.read))
        return read

    monkeypatch.setattr(conjectures, "_witness", witness)
    return reads


@pytest.mark.parametrize("max_n,terms", [
    (24, 1_830_269),
    pytest.param(28, 27_088_869, marks=pytest.mark.slow),
])
def test_run_all_witnesses_each_level_once(monkeypatch, max_n, terms):
    # eq1(k + 1) witnesses each even level k <= max_n - 2, which it makes
    # resident, and prop12(k) takes that witness; level 4 is read for
    # eq1(5) alone and level max_n for prop12(max_n) alone.
    reads = count_witnessed(monkeypatch)
    assert all(o.passed for o in run_all(max_n))
    assert sorted(level for level, _ in reads) == list(range(4, max_n + 1, 2))
    assert (len(reads), sum(read for _, read in reads)) == (max_n // 2 - 1, terms)


def test_run_all_keeps_no_ledger_after_it_returns_or_raises(monkeypatch):
    # A run's reads (`_Reads`) end with it: a lone check after a run that
    # returned or raised reads its own sources.  Within run_all(10),
    # prop12(8) reads the resident level 8 and conj16(8) no block of it.
    drawn = count_drawn(monkeypatch)
    assert all(o.passed for o in run_all(10))
    assert drawn[8] == 0
    assert check_conj16(8).passed
    assert drawn[8] == core_size(8)

    def broken(n, reads):
        raise RuntimeError("a check raised")

    # rejection runs last, after prop12(8) has passed
    monkeypatch.setattr(conjectures, "check_catalan_rejection", broken)
    with pytest.raises(RuntimeError, match="a check raised"):
        run_all(10)
    assert drawn[8] == core_size(8)
    assert check_conj16(8).passed
    assert drawn[8] == 2 * core_size(8)


def test_planned_checks_refuses_a_huge_max_n_before_listing_the_plan():
    tracemalloc.start()
    try:
        with pytest.raises(BoundError, match="max_n 100000 needs level 100000, above level 32"):
            conjectures.planned_checks(conjectures.CHECKS, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("max_n,level", [(33, 33), (40, 40)])
def test_run_all_refuses_max_n_above_the_structural_bound(no_block, max_n, level):
    with pytest.raises(BoundError, match=f"needs level {level}, above level 32, the highest that streams"):
        run_all(max_n)
