import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dycknums import levels
from dycknums.conjectures import run_all
from dycknums.dyck_core import dynamics, is_dyck_number
from dycknums.errors import BoundError, DomainError, NotMember
from dycknums.levels import (
    _BLOCK,
    Fragment,
    _balance_ok,
    _chunk_tables,
    central_terms,
    level_index,
    level_scan,
    level_size,
    level_structural,
    mersenne,
    stream_terms,
    subsegment_bounds,
)
from dycknums.report import Counterexample

from conftest import FIRST_48


@pytest.mark.parametrize("n,expected", [(0, 0), (4, 15), (9, 511), (1, 1)])
def test_mersenne(n, expected):
    assert mersenne(n) == expected


@pytest.mark.parametrize("t,expected", [(39, 6), (15, 4), (0, 0), (1, 1), (127, 7)])
def test_level_index(t, expected):
    assert level_index(t) == expected


def test_level_index_rejects_non_member():
    with pytest.raises(NotMember):
        level_index(9)


def test_scan_base_levels():
    assert level_scan(1).terms == (1,)
    assert level_scan(2).terms == (3,)
    assert level_scan(3).terms == (5, 7)
    assert level_scan(4).terms == (11, 13, 15)
    assert level_scan(5).terms == (19, 21, 23, 27, 29, 31)


def test_structural_level_6_and_8():
    assert level_structural(6).terms == (39, 43, 45, 47, 51, 53, 55, 59, 61, 63)
    lvl8 = level_structural(8).terms
    assert len(lvl8) == 35
    assert lvl8[-10:] == (231, 235, 237, 239, 243, 245, 247, 251, 253, 255)


def test_scan_equals_structural_through_16():
    for n in range(1, 17):
        assert level_scan(n).terms == level_structural(n).terms


def level_by_concatenation(n):
    """Level n as shifted copies joined by `np.concatenate`, with the
    00-fragment survivors chosen by an int64 dynamics array: the oracle
    for the in-place construction."""
    if n <= 2:
        return np.array([2 * n - 1], dtype=np.int64)  # 1, 3
    if n % 2:
        prev = level_by_concatenation(n - 1)
        return np.concatenate([prev + (1 << (n - 2)), prev + (1 << (n - 1))])
    prev = level_by_concatenation(n - 2)
    dynamics = 2 * np.bitwise_count(prev).astype(np.int64) - (n - 2)
    core = prev[dynamics >= 4] + Fragment.F00.shift(n)
    return np.concatenate([core] + [prev + f.shift(n) for f in list(Fragment)[1:]])


@pytest.mark.parametrize("n", range(1, 23))
def test_in_place_construction_matches_concatenation(n):
    arr = level_structural(n).arr
    assert arr.dtype == np.int32 and not arr.flags.writeable
    assert np.array_equal(arr, level_by_concatenation(n))


def test_even_level_is_built_without_a_full_size_temporary(monkeypatch):
    # Level 24 (10.3 MiB) from a resident level 22 (2.7 MiB).  Each part
    # is written into the result, so beside it only temporaries of level
    # 22's size are live (the core before it is written, the fragment-00
    # route check).  A full-size temporary, or the three shifted copies
    # of level 22 that a concatenation joins, exceed the bound.
    level_22 = levels._level_array(22)
    monkeypatch.setattr(levels, "_array_cache", {22: level_22})
    tracemalloc.start()
    try:
        level_24 = levels._level_array(24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(level_24, level_by_concatenation(24))
    assert peak < level_24.nbytes + 2 * level_22.nbytes


def test_fragment_00_cross_check_covers_every_block(monkeypatch):
    # An even value in level 20's second block, with enough ones for the
    # fragment-00 rule to keep it, though its image ends in a 0.  The
    # construction applies the rule unchecked; `rejection`, which checks
    # it against membership term by term, and `prop12`, which reads the
    # image in level 22, fail at 22, and nothing raises.
    level_20 = levels._level_array(20).copy()
    second = level_20[_BLOCK:]
    assert len(second) and len(second) <= _BLOCK
    i = _BLOCK + int(np.argmax(np.bitwise_count(second) >= 13))
    level_20[i] -= 1
    monkeypatch.setattr(levels, "_array_cache", {20: level_20})
    failed = {(o.name, o.n): o.detail for o in run_all(22) if not o.passed}
    assert failed[("rejection", 22)] == Counterexample(int(level_20[i]), "rejected", "kept")
    assert ("prop12", 22) in failed


@pytest.mark.parametrize("bound", [2, 6])
def test_a_wrong_fragment_00_rule_fails_loudly(monkeypatch, bound):
    # The rule with any bound but 4 keeps too many or too few terms: a
    # level or core made from it raises on its count, and with the
    # levels under 20 resident, the checks that read level 20 fail.
    resident = {n: levels._level_array(n) for n in range(1, 19)}
    monkeypatch.setattr(levels, "_F00_MIN_DYNAMICS", bound)
    monkeypatch.setattr(levels, "_array_cache", {})
    with pytest.raises(AssertionError, match="level [46] construction makes"):
        run_all(8)
    monkeypatch.setattr(levels, "_array_cache", resident)
    for make in (lambda: levels._level_array(20), lambda: levels._core_array(20)):
        with pytest.raises(AssertionError, match="level 20 construction makes"):
            make()
    failed = {(o.name, o.n) for o in run_all(20) if not o.passed}
    assert {("rejection", 20), ("prop12", 20), ("conj16", 20)} <= failed


@st.composite
def fragment_00_sources(draw):
    """(t, n): a member t of n - 2 bits, for even n - 2 from 4 to 300,
    built from the low bit up: a bit is taken from a drawn integer while
    the balance of the bits below it is positive and is 1 otherwise,
    and the leading bit is 1."""
    nbits = 2 * draw(st.integers(min_value=2, max_value=150))
    raw = draw(st.integers(min_value=0, max_value=(1 << (nbits - 1)) - 1))
    value, balance = 0, 0
    for i in range(nbits - 1):
        bit = raw >> i & 1 or balance == 0
        value |= bit << i
        balance += 1 if bit else -1
    return value | 1 << (nbits - 1), nbits + 2


# The proof in `levels._f00_keep`: the 00 image of a member of n - 2
# bits is a member iff its dynamics is at least 4.  Dynamics 2 and 4 at
# 4 and at 300 bits are pinned, with the top of 300 bits.
@given(fragment_00_sources())
@example((0b1011, 6))
@example((0b1111, 6))
@example((int("11" + "01" * 149, 2), 302))
@example((int("1111" + "01" * 148, 2), 302))
@example((mersenne(300), 302))
@settings(max_examples=300, deadline=None)
def test_fragment_00_image_is_a_member_iff_dynamics_is_at_least_4(source):
    t, n = source
    assert is_dyck_number(t) and t.bit_length() == n - 2
    assert (dynamics(t) >= 4) == is_dyck_number(t + Fragment.F00.shift(n))


def test_fragment_00_rule_needs_no_level_sized_temporary(monkeypatch):
    # From a resident level 24 (1.35M terms), the 26-core streams with
    # the rule applied one block at a time: beside the int64 block
    # buffer (0.5 MB) and the kept terms of one block, nothing is live.
    # A mask of level 24, at one byte a term, would exceed the bound.
    level_24 = levels._level_array(24)
    monkeypatch.setattr(levels, "_array_cache", {24: level_24})
    tracemalloc.start()
    try:
        made = sum(map(len, levels._level_blocks(26, hi=levels.core_top(26))))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert made == level_size(26) - 3 * len(level_24)
    assert peak < len(level_24)


def test_level_bounds_and_top():
    for n in range(1, 17):
        level = level_structural(n)
        assert level.terms[0] > mersenne(n - 1)
        assert level.terms[-1] == mersenne(n)
        assert all(t % 2 == 1 for t in level.terms)


@pytest.mark.parametrize("n,expected", [(4, 3), (8, 35), (1, 1), (12, 462)])
def test_level_size_examples(n, expected):
    assert level_size(n) == expected


def test_level_size_matches_generated_length():
    for n in range(1, 25):
        assert level_size(n) == len(level_structural(n))


def test_odd_levels_double_the_previous():
    for n in range(5, 22, 2):
        assert level_size(n) == 2 * level_size(n - 1)


def test_scan_bound_enforced():
    with pytest.raises(BoundError, match="level 25 exceeds the scan bound 24"):
        level_scan(25)


def test_structural_bound_enforced(no_block):
    # level 31 streams from level 30, but is never materialized
    with pytest.raises(BoundError, match="level 31 exceeds the bound 30 on materialized levels"):
        level_structural(31)


@pytest.mark.parametrize(
    "n,h,upper,core_top",
    [
        (6, 47, 55, 39),
        (8, 191, 223, 159),
        (10, 767, 895, 639),
        (12, 3071, 3583, 2559),
        (14, 12287, 14335, 10239),
        (5, 23, 27, 19),
    ],
)
def test_central_terms_table(n, h, upper, core_top):
    ct = central_terms(n)
    assert (ct.h, ct.upper_center, ct.core_top) == (h, upper, core_top)


def test_central_terms_recurrence_and_membership():
    for n in range(5, 24):
        ct, nxt = central_terms(n), central_terms(n + 1)
        assert ct.h == mersenne(n) - (1 << (n - 2))
        assert nxt.h == 2 * ct.h + 1
        if n >= 6:
            assert is_dyck_number(ct.h)
            assert is_dyck_number(ct.upper_center)
            assert is_dyck_number(ct.core_top)


def test_subsegment_bounds_are_members_splitting_the_core_from_m_n_minus_1():
    # The checks that read a subsegment count its members by `_rank`,
    # which takes members only.
    assert [subsegment_bounds(10, i) for i in range(4)] == [
        (511, 543), (543, 575), (575, 607), (607, 639)
    ]
    for n in range(10, 65, 2):
        bounds = [subsegment_bounds(n, i) for i in range(4)]
        assert bounds[0][0] == mersenne(n - 1) and bounds[3][1] == central_terms(n).core_top
        assert all(hi - lo == 1 << (n - 5) for lo, hi in bounds)
        assert all(is_dyck_number(t) for bound in bounds for t in bound), n


@pytest.mark.parametrize("n,i", [(8, 0), (11, 0), (12, -1), (12, 4)])
def test_subsegment_bounds_domain(n, i):
    with pytest.raises(DomainError):
        subsegment_bounds(n, i)


def test_central_terms_domain():
    with pytest.raises(DomainError):
        central_terms(4)


def test_stream_terms_examples():
    assert stream_terms(9) == (0, 1, 3, 5, 7, 11, 13, 15, 19)
    assert stream_terms(1) == (0,)
    assert stream_terms(44)[-1] == 127
    assert stream_terms(48) == FIRST_48


def test_membership_agrees_with_structural_generator_below_2_20():
    """Every value below 2**20 is a member exactly when the structural
    generator produces it."""
    generated = set()
    for n in range(1, 21):
        generated.update(level_structural(n).terms)
    generated.add(0)
    for v in range(0, 1 << 20, 4097):  # sampled lattice plus edges
        assert is_dyck_number(v) == (v in generated)
    scanned = {0}
    for n in range(1, 21):
        lo = (1 << (n - 1)) + 1 if n > 1 else 1
        candidates = np.arange(lo, (1 << n), 2, dtype=np.int64)
        scanned.update(int(v) for v in candidates[_balance_ok(candidates, n)])
    assert scanned == generated


def test_vector_scan_agrees_with_scalar_at_int64_boundary():
    # top of level 62 (dense members) and bottom of level 63 (sparse)
    top = (1 << 62) - 1
    below = np.array([top - d for d in range(0, 4096, 2)], dtype=np.int64)
    vector = _balance_ok(below, 62)
    hits = 0
    for v, ok in zip(below, vector):
        scalar = is_dyck_number(int(v))
        assert scalar == bool(ok)
        hits += scalar
    assert hits > 0  # the comparison must exercise real members
    above = np.array([(1 << 62) + d for d in range(1, 4096, 2)], dtype=np.int64)
    vector = _balance_ok(above, 63)
    for v, ok in zip(above, vector):
        assert is_dyck_number(int(v)) == bool(ok)


def test_memory_guard_refuses_huge_levels(no_block):
    # Level 32 holds more than 2**28 terms and is never materialized, so
    # level 33 (from level 32) and level 34 (from level 32) cannot stream,
    # and are refused on the call, before a block is drawn.
    with pytest.raises(BoundError, match="level 32 exceeds the bound 30"):
        level_structural(32)
    for n in (33, 34):
        with pytest.raises(BoundError, match="level 32 exceeds the bound 30"):
            levels._level_blocks(n)


@st.composite
def codes_near_members(draw, lengths=st.integers(min_value=1, max_value=62)):
    """(value, nbits): a member of level nbits, drawn from `lengths`,
    built bit by bit from the low end (a forced 1 whenever the balance
    below is 0), with one bit then possibly flipped."""
    nbits = draw(lengths)
    value, balance = 0, 0
    for i in range(nbits - 1):
        bit = 1 if balance == 0 else draw(st.integers(min_value=0, max_value=1))
        value |= bit << i
        balance += 1 if bit else -1
    value |= 1 << (nbits - 1)
    if nbits > 1 and draw(st.booleans()):
        value ^= 1 << draw(st.integers(min_value=0, max_value=nbits - 2))
    return value, nbits


@given(st.lists(codes_near_members(), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_vector_predicate_agrees_with_scalar(cases):
    for value, nbits in cases:
        vector = _balance_ok(np.array([value], dtype=np.int64), nbits)[0]
        assert bool(vector) == is_dyck_number(value), (value, nbits)


EVEN_LEVELS = st.integers(min_value=3, max_value=16).map(lambda k: 2 * k)


@st.composite
def lift_blocks(draw):
    """(block, n): terms of n bits for an even n in 6..32, members and
    near members (`codes_near_members`, odd or even after the flip) and
    arbitrary n-bit words."""
    n = draw(EVEN_LEVELS)
    words = st.integers(min_value=1 << (n - 1), max_value=(1 << n) - 1)
    near = codes_near_members(st.just(n)).map(lambda case: case[0])
    return draw(st.lists(st.one_of(near, words), min_size=1, max_size=6)), n


@given(lift_blocks())
@settings(max_examples=300, deadline=None)
def test_lift_kernel_agrees_with_the_three_lift_tests(case):
    # The lemma of `check_prop12`: the lifts of a term t of n bits are
    # all members exactly when t is a member at n bits, and 4t + 1 is a
    # member exactly when t is.
    block, n = case
    member = _balance_ok(np.array(block, dtype=np.int64), n)
    for t, ok in zip(block, member):
        assert ok == all(is_dyck_number(4 * t + delta) for delta in (-1, 1, 3)), (t, n)
        assert is_dyck_number(4 * t + 1) == is_dyck_number(t), (t, n)


@given(codes_near_members(st.integers(min_value=1, max_value=300)).filter(
    lambda case: case[0] % 2))
@settings(max_examples=500, deadline=None)
def test_lifts_of_an_odd_term_are_members_as_it_is(case):
    t, _ = case
    member = is_dyck_number(t)
    assert is_dyck_number(4 * t - 1) == member
    assert is_dyck_number(4 * t + 1) == member
    assert is_dyck_number(4 * t + 3) or not member


def _balance_ok_passes(values: np.ndarray, nbits: int) -> np.ndarray:
    """The predicate as one pass per odd suffix length, the oracle for
    the table-driven `_balance_ok`.

    A suffix of odd length k has odd balance, so it is nonnegative
    exactly when at least (k + 1) / 2 of its bits are ones; a suffix of
    even length adds one bit to an odd one whose balance is then at
    least 1.  Checking the odd lengths therefore suffices."""
    ok = np.ones(values.shape, dtype=bool)
    low = np.empty(values.shape, dtype=np.int64)
    ones = np.empty(values.shape, dtype=np.uint8)
    enough = ones.view(bool)
    for k in range(1, nbits + 1, 2):
        np.bitwise_and(values, (1 << k) - 1, out=low)
        np.bitwise_count(low, out=ones)
        np.greater_equal(ones, (k + 1) // 2, out=enough)
        ok &= enough
    return ok


@st.composite
def int64_words(draw):
    """(values, nbits): an int64 array of arbitrary words and of members
    of level nbits with arbitrary bits above nbits, negatives included."""
    nbits = draw(st.integers(min_value=0, max_value=64))
    values = []
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        if draw(st.booleans()):
            # low bits kept at balance >= 0, then a possible flip
            value, balance = 0, 0
            for i in range(nbits):
                bit = 1 if balance == 0 else draw(st.integers(min_value=0, max_value=1))
                value |= bit << i
                balance += 1 if bit else -1
            if nbits and draw(st.booleans()):
                value ^= 1 << draw(st.integers(min_value=0, max_value=nbits - 1))
            value |= draw(st.integers(min_value=0, max_value=(1 << 64) - 1)) << nbits
            value &= (1 << 64) - 1
            value -= (value >> 63) << 64
        else:
            value = draw(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
        values.append(value)
    return np.array(values, dtype=np.int64), nbits


@given(int64_words())
@settings(max_examples=300, deadline=None)
def test_table_predicate_agrees_with_passes(case):
    values, nbits = case
    assert np.array_equal(_balance_ok(values, nbits), _balance_ok_passes(values, nbits))


@st.composite
def kernel_blocks(draw):
    """(values, nbits, shape): an int32 or int64 block for the membership
    kernel, of 1 to `_BLOCK` words of width 0..64 around a member of that
    width (its bits above the width arbitrary, sign bits for int32): a
    dense run of one prefix (the bits from 16 up), a run straddling
    multiples of 2**16, or one word a prefix with unused prefixes between
    them; ascending, shuffled or descending."""
    nbits = draw(st.integers(0, 64))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    shape = draw(st.sampled_from(["dense", "straddle", "sparse"]))
    order = draw(st.sampled_from(["ascending", "shuffled", "descending"]))
    size = draw(st.one_of(st.integers(1, 300), st.just(_BLOCK)))
    member, balance = 0, 0
    for i in range(nbits):
        bit = 1 if balance == 0 else draw(st.integers(0, 1))
        member |= bit << i
        balance += 1 if bit else -1
    word = member | draw(st.integers(0, (1 << 64) - 1)) << nbits
    word = (word & (1 << 63) - 1) - (word & 1 << 63)  # as int64
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    with np.errstate(over="ignore"):
        if shape == "dense":
            start = word - (word & 0xFFFF) + int(rng.integers(0, (1 << 16) - size + 1))
            values = np.int64(start) + np.arange(size, dtype=np.int64)
        elif shape == "straddle":
            values = np.int64(word - (word & 0xFFFF) - size // 2) + np.arange(size, dtype=np.int64)
        else:
            gaps = rng.integers(2, 6, size, dtype=np.int64).cumsum() << 16
            values = np.int64(word) + gaps + rng.integers(-3, 4, size, dtype=np.int64)
    values = values.astype(dtype)  # wraps into int32
    if order == "ascending":
        values.sort()
    elif order == "descending":
        values = np.sort(values)[::-1].copy()
    else:
        rng.shuffle(values)
    return values, nbits, shape


def _scalar_member(value: int, nbits: int) -> bool:
    """The low `nbits` bits of value have no negative suffix: with a 1
    above them, a member of the sequence."""
    return is_dyck_number(value & (1 << nbits) - 1 | 1 << nbits)


@given(kernel_blocks())
@example((np.array([0x5555], dtype=np.int32), 16, "dense"))
@example((np.arange(-(1 << 16) - 8, -(1 << 16) + 8, dtype=np.int64), 64, "straddle"))
@example((np.arange(_BLOCK, dtype=np.int64) | 0xFF0F << 24, 40, "dense"))
@example((np.arange(_BLOCK, dtype=np.int32) | 0x1F0F << 16, 29, "dense"))
@settings(max_examples=300, deadline=None)
def test_class_kernel_agrees_with_passes_and_the_scalar_predicate(case):
    values, nbits, _ = case
    expected = _balance_ok_passes(values.astype(np.int64), nbits)
    assert np.array_equal(_balance_ok(values, nbits), expected)
    # The kernel's own output: each term against its run's theta, and the
    # block's verdict from a minimum a run, as `_witness` reads it.
    ascending = bool(np.all(values[1:] >= values[:-1]))
    low, heads, theta = levels._class_runs(values, nbits, ascending)
    if heads is None:
        per_term, least = low >= theta, low
    else:
        assert heads[0] == 0 and np.all(np.diff(heads) > 0)
        per_term = np.repeat(theta, np.diff(heads, append=len(values)))
        per_term, least = low >= per_term, np.minimum.reduceat(low, heads)
    assert np.array_equal(per_term, expected)
    assert bool(np.all(least >= theta)) == bool(expected.all())
    for i in {0, len(values) // 2, len(values) - 1} | set(range(min(len(values), 40))):
        assert expected[i] == _scalar_member(int(values[i]), nbits), (int(values[i]), nbits)


def test_class_kernel_reads_a_theta_a_run_of_an_ascending_block():
    # Level 26's first block spans 15 prefixes of 10 bits; a sparse block,
    # one term a prefix, and a shuffled one are read a theta a term.
    block = level_structural(26).arr[:_BLOCK]
    _, heads, theta = levels._class_runs(block, 26, True)
    runs = np.unique(block >> 16, return_index=True)[1]
    assert np.array_equal(heads, runs) and len(theta) == len(runs) == 15
    sparse = (np.arange(1, _BLOCK + 1, dtype=np.int64) << 17) | 0x5555
    assert levels._class_runs(sparse, 40, True)[1] is None
    assert levels._class_runs(block[::-1], 26, False)[1] is None


def test_chunk_tables_match_their_definition():
    lowest, balance, carry = _chunk_tables()
    chunks = np.arange(1 << 16)
    steps = 2 * ((chunks[:, None] >> np.arange(16)) & 1) - 1  # bit 0 first
    suffix_balances = np.cumsum(steps, axis=1)
    assert lowest.dtype == balance.dtype == carry.dtype == np.int8
    assert not (lowest.flags.writeable or balance.flags.writeable or carry.flags.writeable)
    assert np.array_equal(lowest, suffix_balances.min(axis=1))
    assert np.array_equal(balance, suffix_balances[:, -1])
    valid = suffix_balances.min(axis=1) >= 0
    assert np.array_equal(carry[valid], suffix_balances[valid, -1])
    assert np.all(carry[~valid] == -128)


@pytest.mark.parametrize("nbits", [17, 32, 33, 64])
def test_table_predicate_every_low_chunk_under_ones(nbits):
    """Every low chunk under high chunks of ones, which raise the balance
    the most: the verdict rests on the chunk-0 test, and a failing low
    chunk must stay failed however much the chunks above it add."""
    ones_above = ((1 << nbits) - 1) & ~0xFFFF
    values = (np.arange(1 << 16, dtype=np.uint64) | np.uint64(ones_above)).view(np.int64)
    ok = _balance_ok(values, nbits)
    assert np.array_equal(ok, _balance_ok_passes(values, nbits))
    assert 0 < np.count_nonzero(ok) < len(values)


@pytest.mark.parametrize("nbits", range(1, 17))
def test_table_predicate_exhaustive_below_2_16(nbits):
    values = np.arange(1 << 16, dtype=np.int64)
    assert np.array_equal(_balance_ok(values, nbits), _balance_ok_passes(values, nbits))


@pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_table_predicate_block_seams(size):
    members = np.resize(level_structural(20).arr, size)
    for where in sorted({0, _BLOCK - 1, _BLOCK, size - 1} & set(range(size))):
        values = members.copy()
        # 0x5555 keeps every suffix of the low chunk at balance >= 0; the
        # zeros at bits 16..18 take the balance to -1 in the second chunk.
        values[where] = (1 << 19) | 0x5555
        ok = _balance_ok(values, 20)
        assert np.array_equal(ok, _balance_ok_passes(values, 20))
        assert np.flatnonzero(~ok).tolist() == [where]


def test_table_predicate_keeps_shape_and_strides():
    values = np.arange(1 << 12, dtype=np.int64) * 40503
    for view in (values.reshape(64, 64), values[::3], values.reshape(64, 64).T):
        ok = _balance_ok(view, 28)
        assert ok.shape == view.shape
        assert np.array_equal(ok, _balance_ok_passes(view, 28))


@pytest.mark.parametrize("nbits", [0, 1, 26, 64])
def test_table_predicate_empty(nbits):
    ok = _balance_ok(np.empty(0, dtype=np.int64), nbits)
    assert ok.dtype == bool and ok.shape == (0,)


@pytest.mark.parametrize("nbits", [-1, 65, 128])
def test_table_predicate_rejects_nbits_outside_0_64(nbits):
    with pytest.raises(ValueError):
        _balance_ok(np.ones(3, dtype=np.int64), nbits)


@pytest.mark.slow
def test_table_predicate_on_level_26_candidates():
    """Every odd candidate of level 26 (2**24 values), against the oracle
    one block of 2**20 at a time."""
    step = 1 << 20
    for start in range((1 << 25) + 1, 1 << 26, 2 * step):
        candidates = np.arange(start, start + 2 * step, 2, dtype=np.int64)
        assert np.array_equal(_balance_ok(candidates, 26), _balance_ok_passes(candidates, 26))


@st.composite
def level_windows(draw):
    """(n, lo, hi): a level of 1..24 and bounds around its value range,
    either of which may be None."""
    n = draw(st.integers(1, 24))
    bound = st.one_of(st.none(), st.integers(mersenne(n - 1) - 2, mersenne(n) + 2))
    return n, draw(bound), draw(bound)


def read_blocks(blocks):
    """The terms of a stream of blocks, each copied as it comes: a
    stream may reuse one buffer."""
    copies = [block.copy() for block in blocks]
    assert all(0 < len(block) <= _BLOCK for block in copies)
    return np.concatenate(copies) if copies else np.empty(0, dtype=np.int64)


@given(level_windows())
@settings(max_examples=60, deadline=None)
def test_level_blocks_read_the_slice_of_the_level(window):
    n, lo, hi = window
    level = levels._level_array(n)
    i = 0 if lo is None else int(np.searchsorted(level, lo, side="right"))
    j = len(level) if hi is None else int(np.searchsorted(level, hi, side="right"))
    expected = level[i:max(i, j)]
    assert np.array_equal(read_blocks(levels._level_blocks(n, lo, hi)), expected)
    # Without level n resident, the blocks are made from its parts.
    resident = levels._array_cache
    levels._array_cache = {k: v for k, v in resident.items() if k != n}
    try:
        streamed = read_blocks(levels._level_blocks(n, lo, hi))
        assert n not in levels._array_cache
    finally:
        levels._array_cache = resident
    assert np.array_equal(streamed, expected)


def test_level_blocks_check_ascent_inside_a_block_and_across_a_seam(monkeypatch):
    level_6 = levels._level_array(6)
    swapped = level_6.copy()
    swapped[[2, 3]] = swapped[[3, 2]]
    monkeypatch.setattr(levels, "_array_cache", {6: swapped})
    with pytest.raises(AssertionError, match="level 7 construction is not strictly ascending"):
        list(levels._level_blocks(7))
    # 63 raised to 103: the lower copy of level 6 in level 7 ends at 135,
    # above the first term 103 of the upper copy.
    raised = level_6.copy()
    raised[-1] = 103
    monkeypatch.setattr(levels, "_array_cache", {6: raised})
    blocks = levels._level_blocks(7)
    assert next(blocks)[-1] == 135
    with pytest.raises(AssertionError, match="level 7 construction is not strictly ascending"):
        next(blocks)


# A sparse block, one term a prefix, and a shuffled one are read a theta
# a term, through the buffers of `_work` too.
@pytest.mark.parametrize("nbits,block", [
    (16, lambda: np.arange(1, 2 * _BLOCK, 2, dtype=np.int64) | (1 << 15)),
    (26, lambda: level_structural(26).arr[:_BLOCK]),
    (40, lambda: np.arange(1, 2 * _BLOCK, 2, dtype=np.int64) | (1 << 39)),
    (40, lambda: (np.arange(1, _BLOCK + 1, dtype=np.int64) << 17) | 0x5555 | (1 << 39)),
    (26, lambda: np.random.default_rng(26).permutation(level_structural(26).arr[:_BLOCK])),
], ids=["16", "26", "40", "40_sparse", "26_shuffled"])
def test_table_predicate_allocates_only_its_result(nbits, block):
    block = block()
    expected = _balance_ok(block, nbits)  # warm-up: tables and buffers
    tracemalloc.start()
    try:
        ok = _balance_ok(block, nbits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(ok, expected)
    assert peak < ok.nbytes + 4096
