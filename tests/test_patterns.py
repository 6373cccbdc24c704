import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dycknums import conjectures, cores, levels, patterns
from dycknums.conjectures import (
    _certify_copies,
    _construction_failure,
    verify_eq1,
    verify_eq2,
)
from dycknums.dyck_core import _class_of, dyck_pred, dyck_succ, is_dyck_number
from dycknums.errors import (
    DomainError,
    InvalidCopy,
    MixedLevels,
    NotACopy,
    NotAdjacent,
    NotContiguous,
    NotMember,
    PatternError,
)
from dycknums.levels import _BLOCK, _balance_ok, core_top, level_structural, mersenne
from dycknums.report import Counterexample, first_mismatch
from dycknums.patterns import (
    _VECTOR_LIMIT,
    Pattern,
    _copy_chain,
    copy_at,
    join,
    lift_copy,
    make_pattern,
    offset_of,
    pattern_len,
    power,
)


def _members_between(lo: int, hi: int) -> list[int]:
    """All sequence terms in [lo, hi], lo >= 0, by scanning every odd
    candidate: the oracle that run validation is tested against.

    The vector scan must run one bit-length block at a time: padding a
    shorter code with leading zeros would push its balance negative.
    """
    members: list[int] = []
    if hi < _VECTOR_LIMIT:
        for nbits in range(max(lo, 1).bit_length(), hi.bit_length() + 1):
            start = max(lo, 1 << (nbits - 1)) | 1
            stop = min(hi, (1 << nbits) - 1)
            if start > stop:
                continue
            candidates = np.arange(start, stop + 1, 2, dtype=np.int64)
            members.extend(int(v) for v in candidates[_balance_ok(candidates, nbits)])
    else:
        members.extend(v for v in range(lo | 1, hi + 1, 2) if is_dyck_number(v))
    if lo == 0:
        members.insert(0, 0)
    return members


def mu8():
    return make_pattern((143, 151, 155, 157, 159))


def test_make_pattern_accepts_triplet():
    p = make_pattern((11, 13, 15))
    assert p.top == 15
    assert p.shape == (4, 2, 0)
    assert pattern_len(p) == 8


def test_make_pattern_examples():
    assert make_pattern((19, 21, 23)).top == 23
    with pytest.raises(NotContiguous):
        make_pattern((11, 15))
    with pytest.raises(NotMember):
        make_pattern((9, 11))
    with pytest.raises(MixedLevels):
        make_pattern((15, 19))
    with pytest.raises(ValueError):
        make_pattern(())
    with pytest.raises(ValueError):
        make_pattern((15, 13))


@pytest.mark.parametrize("terms,named", [
    ((13, 17), 17),
    # three binary lengths, a non-member in each of the upper two
    ((5, 7, 11, 12, 13, 19, 20, 21), 12),
])
def test_the_lowest_non_member_is_named_across_binary_lengths(terms, named):
    # A run of several lengths is no width fault: each length is read alone.
    with pytest.raises(NotMember, match=f"^{named} is not a term"):
        make_pattern(terms)


def test_single_term_patterns_are_allowed():
    assert make_pattern((39,)).terms == (39,)


def test_pattern_len_examples():
    assert pattern_len(make_pattern(level_structural(6).terms)) == 32
    assert pattern_len(mu8()) == 32
    with pytest.raises(DomainError):
        pattern_len(make_pattern((0,)))


def test_copy_at_examples():
    p4 = make_pattern((11, 13, 15))
    assert copy_at(p4, 31).terms == (27, 29, 31)
    assert copy_at(p4, 63).terms == (59, 61, 63)
    assert copy_at(mu8(), 607).terms == (591, 599, 603, 605, 607)


def test_copy_at_rejects_impossible_tops():
    p4 = make_pattern((11, 13, 15))
    with pytest.raises(InvalidCopy):
        copy_at(p4, 39)  # 35 and 37 are not members
    with pytest.raises(InvalidCopy):
        copy_at(p4, 15)  # not above the source
    with pytest.raises(InvalidCopy):
        copy_at(p4, 42)  # top itself not a member


def test_offset_of_examples():
    a = make_pattern((19, 21, 23))
    b = make_pattern((27, 29, 31))
    assert offset_of(a, b) == 8
    assert offset_of(mu8(), copy_at(mu8(), 575)) == 416
    with pytest.raises(NotACopy):
        offset_of(a, a)
    with pytest.raises(NotACopy, match="term-wise offsets are not constant"):
        offset_of(make_pattern((143, 151, 155)), make_pattern((157, 159, 167)))
    with pytest.raises(NotACopy, match="offset undefined for patterns starting at 0"):
        offset_of(make_pattern((0,)), make_pattern((1,)))
    # A stored int32 run at the top of the 30-bit numbers, and its int64
    # and int32 copies at the top of the 31-bit ones.
    low = Pattern(level_structural(12).arr + np.int32(mersenne(30) - mersenne(12)))
    high = lift_copy(low)
    for q in (high, Pattern(high.arr.astype(np.int32))):
        assert offset_of(low, q) == mersenne(31) - mersenne(30)


def test_offset_requires_span_preservation():
    # (543) sits 32 above its predecessor; (39) only 8, so the
    # single-term tuples are not copies of each other.
    with pytest.raises(NotACopy):
        offset_of(make_pattern((39,)), make_pattern((543,)))
    # (151) has predecessor 143, preserving the span 8
    assert offset_of(make_pattern((39,)), make_pattern((151,))) == 112


def test_copy_round_trip_offset():
    p4 = make_pattern((11, 13, 15))
    for top in (31, 47, 63, 159, 575):
        q = copy_at(p4, top)
        assert offset_of(p4, q) == top - 15


def test_join_examples():
    a = make_pattern((19, 21, 23))
    b = make_pattern((27, 29, 31))
    assert join(a, b).terms == (19, 21, 23, 27, 29, 31)
    roots = make_pattern((143, 151))
    assert join(roots, make_pattern((155, 157, 159))).terms == mu8().terms
    with pytest.raises(NotAdjacent):
        join(make_pattern((11, 13, 15)), make_pattern((27, 29, 31)))


def test_power_examples():
    p4 = make_pattern((11, 13, 15))
    assert power(copy_at(p4, 31), 2).terms == (19, 21, 23, 27, 29, 31)
    assert power(copy_at(p4, 63), 3).terms == (43, 45, 47, 51, 53, 55, 59, 61, 63)
    p6_255 = copy_at(make_pattern(level_structural(6).arr), 255)
    cube = power(p6_255, 3)
    assert len(cube) == 30
    assert cube.terms[0] == 167 and cube.top == 255


def test_power_properties():
    p = copy_at(make_pattern((11, 13, 15)), 63)
    for k in (2, 3):
        q = power(p, k)
        assert len(q) == k * len(p)
        assert pattern_len(q) == k * pattern_len(p)


def test_power_failures():
    with pytest.raises(ValueError):
        power(make_pattern((11, 13, 15)), 1)
    with pytest.raises(DomainError, match="pattern starting at 0"):
        power(make_pattern((0,)), 2)
    # dropping one span below 51..55 would need members at 43+8k gaps
    with pytest.raises(InvalidCopy):
        power(make_pattern((51, 53, 55)), 3)
    # crossing a level boundary mixes code lengths
    with pytest.raises(InvalidCopy):
        power(copy_at(make_pattern((11, 13, 15)), 31), 3)


def test_power_reaching_below_zero_is_no_copy():
    # Three copies of (11, 13, 15), a span of 8 apart, would start at -5.
    with pytest.raises(InvalidCopy):
        power(make_pattern((11, 13, 15)), 3)


def test_lift_copy_is_always_a_copy():
    for terms in ((11, 13, 15), (39,), (143, 151, 155, 157, 159)):
        p = make_pattern(terms)
        for _ in range(5):
            q = lift_copy(p)
            assert offset_of(p, q) == q.top - p.top
            p = q


@given(st.integers(min_value=4, max_value=10), st.data())
@settings(max_examples=60, deadline=None)
def test_level_slices_are_patterns(n, data):
    terms = level_structural(n).terms
    i = data.draw(st.integers(min_value=0, max_value=len(terms) - 1))
    j = data.draw(st.integers(min_value=i + 1, max_value=len(terms)))
    p = make_pattern(terms[i:j])
    assert p.terms == terms[i:j]


def test_verify_eq1_passes_small_range():
    for n in range(5, 16, 2):
        outcome = verify_eq1(n)
        assert outcome.passed and outcome.name == "eq1" and outcome.n == n


def test_verify_eq2_passes_small_range_and_tail_size():
    for n in range(6, 17, 2):
        assert verify_eq2(n).passed
    tail = power(copy_at(make_pattern(level_structural(4).arr), mersenne(6)), 3)
    assert len(tail) == 9  # terms of level 6 above the core


def copies_oracle(src, k, n, expected):
    """eq1 and eq2 checked the way they were before the certificate:
    build the k copies of src ending at M_n as a pattern, validated as a
    run, and compare it with the built level (or tail) term by term."""
    try:
        built = power(copy_at(Pattern(src), mersenne(n)), k)
    except PatternError as exc:
        return _construction_failure(exc)
    return first_mismatch(expected, built.arr)


def eq_claim(n):
    """The claim of eq1 (odd n) or eq2 (even n) about its source: copy
    count, top, the interval's lower bound, bit length, and the built
    terms (the odd level, or the even level's tail) that the oracle
    compares the copies with."""
    level = levels._level_array(n)
    if n % 2:
        return 2, mersenne(n), mersenne(n - 1), n, level
    tail = level[np.searchsorted(level, core_top(n), side="right") :]
    return 3, mersenne(n), core_top(n), n, tail


def certify(n, src):
    """The certificate of eq1 or eq2 at n over the source run src."""
    k, top, lo, nbits, _ = eq_claim(n)
    return _certify_copies(_copy_chain(src, k, top), lo, top, nbits)


def oracle(n, src):
    k, _, _, _, expected = eq_claim(n)
    return copies_oracle(src, k, n, expected)


def source(n):
    return levels._level_array(n - 1 if n % 2 else n - 2)


@pytest.mark.parametrize("n", range(5, 23))
def test_certificate_agrees_with_the_construction_oracle(n):
    assert certify(n, source(n)) is None
    assert oracle(n, source(n)) is None


@st.composite
def corrupted_sources(draw):
    """eq1 or eq2 at some n <= 16 with one term of its source dropped,
    shifted by an even amount, or swapped with its neighbour."""
    n = draw(st.integers(min_value=5, max_value=16))
    src = source(n).copy()
    i = draw(st.integers(min_value=0, max_value=len(src) - 1))
    kind = draw(st.sampled_from(("drop", "shift", "swap")))
    if kind == "drop":
        src = np.delete(src, i)
    elif kind == "shift":
        src[i] += draw(st.sampled_from((-4, -2, 2, 4)))
    else:
        j = i + 1 if i + 1 < len(src) else i - 1
        src[[i, j]] = src[[j, i]]
    return n, src


@given(corrupted_sources())
@settings(max_examples=150, deadline=None)
def test_certificate_and_oracle_fail_on_a_corrupted_source(case):
    n, src = case
    assert certify(n, src) is not None
    assert oracle(n, src) is not None


@pytest.mark.parametrize("n", (21, 22))
def test_certificate_and_oracle_fail_on_a_corrupted_large_source(n):
    for change in (
        lambda a: np.delete(a, len(a) // 2),
        lambda a: a + np.where(np.arange(len(a)) == _BLOCK + 3, 2, 0),
    ):
        src = change(source(n))
        assert certify(n, src) is not None
        assert oracle(n, src) is not None


def test_certificate_fails_for_a_span_off_by_two(monkeypatch):
    real = patterns.dyck_pred
    monkeypatch.setattr(patterns, "dyck_pred", lambda t: real(t) - 2)
    for n in (21, 22):
        k, _, lo, _, _ = eq_claim(n)
        lowest = dyck_succ(lo) - 2 * (k - 1)  # above lo, below its first member
        assert certify(n, source(n)) == _construction_failure(
            f"{lowest} is not a term of the sequence"
        )


@pytest.mark.parametrize("n", (23, 24))
def test_certificate_fails_for_a_dropped_block(n):
    src = source(n)
    assert len(src) > 3 * _BLOCK
    k = eq_claim(n)[0]
    short = np.delete(src, np.s_[_BLOCK : 2 * _BLOCK])
    assert certify(n, short) == Counterexample("cardinality", k * len(src), k * len(short))


def test_certificate_fails_for_a_count_off_by_one(monkeypatch):
    real = conjectures._rank
    for n in (21, 22):
        k, top, _, _, _ = eq_claim(n)
        monkeypatch.setattr(conjectures, "_rank", lambda t: real(t) + (t == top))
        count = k * len(source(n))
        assert certify(n, source(n)) == Counterexample("cardinality", count + 1, count)


def test_certificate_fails_for_a_wrong_first_term():
    # The interval starts at the first copy term instead of below it.
    for n in (21, 22):
        k, top, lo, nbits, _ = eq_claim(n)
        first = dyck_succ(lo)
        copies = _copy_chain(source(n), k, top)
        assert _certify_copies(copies, first, top, nbits) == _construction_failure(
            f"{first} does not ascend from {first}"
        )


def test_certificate_fails_for_a_top_that_is_no_member():
    k, top, lo, nbits, _ = eq_claim(21)
    copies = _copy_chain(source(21), k, top)
    assert _certify_copies(copies, lo, top - 1, nbits) == _construction_failure(
        f"{top - 1} is not a term of the sequence"
    )


def test_certificate_fails_for_a_copy_above_the_interval():
    # The copies end at M_21, one member above the interval's top.
    k, top, lo, nbits, _ = eq_claim(21)
    below = dyck_pred(top)
    copies = _copy_chain(source(21), k, top)
    assert _certify_copies(copies, lo, below, nbits) == _construction_failure(
        f"{top} lies above {below}"
    )


def test_certificate_fails_for_a_descent_at_a_block_seam():
    # Each block ascends; only the seam between the first two does not.
    src = source(21).copy()
    below, above = int(src[_BLOCK - 1]), int(src[_BLOCK])
    src[[_BLOCK - 1, _BLOCK]] = above, below
    offset = 1 << 19  # the lower copy of level 20 in level 21
    assert certify(21, src) == _construction_failure(
        f"{below + offset} does not ascend from {above + offset}"
    )


def core_claim(name, n):
    """The claim of conj16 (`conj16-2`, `conj16-3`: subsegment 2 or 3 of
    the (n+2)-core) or conj18 (the top subsegment of the n-core): its
    source arrays, read from `cores.core`, the source each copy reads,
    the copy offsets, and the core and subsegment (from 0) they must
    equal."""
    if name == "conj18":
        lo, prev_top = levels.subsegment_bounds(n - 2, 3)
        top, length = core_top(n), prev_top - lo
        sources = [cores.core(n - 4).arr, cores.core(n - 2).segments[3]]
        offsets = [top - 3 * length - core_top(n - 4)]
        offsets += [top - k * length - prev_top for k in (2, 1, 0)]
        return sources, [0, 1, 1, 1], offsets, n, 3
    seg = 1 if name == "conj16-2" else 2
    offset = 13 << (n - 3) if seg == 1 else 7 << (n - 2)
    return [cores.core(n).arr], [0], [offset], n + 2, seg


@st.composite
def corrupted_core_sources(draw):
    """conj16 or conj18 at some n with one term of one copy source
    dropped, shifted by an even amount, swapped with its neighbour, or
    left as it is; that source is passed whole or as a stream of blocks
    of random sizes.  Returned with the terms the copies make and the
    subsegment they must equal."""
    name = draw(st.sampled_from(("conj16-2", "conj16-3", "conj18")))
    n = draw(st.sampled_from(range(8, 17, 2) if name != "conj18" else range(12, 19, 2)))
    sources, uses, offsets, target, seg = core_claim(name, n)
    j = draw(st.integers(min_value=0, max_value=len(sources) - 1))
    src = sources[j].copy()
    i = draw(st.integers(min_value=0, max_value=len(src) - 1))
    kind = draw(st.sampled_from(("none", "drop", "shift", "swap")))
    if kind == "drop":
        src = np.delete(src, i)
    elif kind == "shift":
        src[i] += draw(st.sampled_from((-4, -2, 2, 4)))
    elif kind == "swap" and len(src) > 1:
        k = i + 1 if i + 1 < len(src) else i - 1
        src[[i, k]] = src[[k, i]]
    sources[j] = src
    cuts = draw(st.lists(st.integers(min_value=0, max_value=len(src)), max_size=3))
    as_blocks = draw(st.booleans())
    copies = [
        (np.split(sources[u], sorted(cuts)) if as_blocks and u == j else sources[u], offset)
        for u, offset in zip(uses, offsets)
    ]
    expected = np.concatenate([sources[u] + offset for u, offset in zip(uses, offsets)])
    return copies, expected, target, seg


@given(corrupted_core_sources())
@settings(max_examples=200, deadline=None)
def test_core_copy_certificate_fails_exactly_when_the_core_oracle_does(case):
    copies, expected, target, seg = case
    lo, hi = levels.subsegment_bounds(target, seg)
    found = _certify_copies(copies, lo, hi, target)
    assert (found is None) == np.array_equal(expected, cores.core(target).segments[seg])


def claim_copies(name, n):
    """A copy claim, eq1 or eq2 at n or a claim of `core_claim`, as its
    copies, (source array, offset) pairs lowest first, the interval (lo,
    hi] and bit length they must fill, and the terms that fill it."""
    if name == "eq":
        k, top, lo, nbits, target = eq_claim(n)
        return list(_copy_chain(source(n), k, top)), lo, top, nbits, target
    sources, uses, offsets, nbits, seg = core_claim(name, n)
    copies = [(sources[u], offset) for u, offset in zip(uses, offsets)]
    return copies, *levels.subsegment_bounds(nbits, seg), nbits, cores.core(nbits).segments[seg]


def source_class(src):
    """The class (P, m, theta) that the ends of a source name."""
    return _class_of(int(src[0]), int(src[-1]))


def other_theta(src, offset):
    """The offset moved by a multiple of 2**m onto the nearest prefix of
    the same width and another theta, above it if there is one."""
    prefix, m, theta = source_class(src)
    image = prefix + (offset >> m)
    moved = next(
        image + j for j in sorted(range(-image, image), key=lambda j: (j < 0, abs(j)))
        if (image + j).bit_length() == image.bit_length()
        and _class_of(image + j << m, (image + j + 1 << m) - 1)[2] != theta
    )
    return offset + (moved - image << m)


def move_lowest(move):
    """Move the lowest copy to the offset `move(source, offset)`."""
    return lambda copies: [(copies[0][0], move(*copies[0])), *copies[1:]]


def replace_source(change):
    """Change the lowest copy's source, in every copy of it."""
    def changed(copies):
        src = copies[0][0]
        new = change(src.copy())
        return [(new if s is src else s, offset) for s, offset in copies]

    return changed


def swap_top(src):
    src[-1] = dyck_succ(int(src[-1]))  # the first term of the class above
    return src


MUTATIONS = {
    "offset_off_by_2": move_lowest(lambda src, offset: offset + 2),
    "offset_low_bits": move_lowest(lambda src, offset: offset + (1 << source_class(src)[1] - 1)),
    "offset_other_theta": move_lowest(other_theta),
    "top_swapped": replace_source(swap_top),
    "one_short": replace_source(lambda src: np.delete(src, len(src) // 2)),
}


# Each mutation of a copy claim fails the certificate, and the copies it
# makes differ from the terms they must equal, as the oracles find.
@pytest.mark.parametrize("name,n,mutation", [
    (name, n, mutation)
    for name, n in (("eq", 15), ("eq", 16), ("conj16-2", 14), ("conj16-3", 14), ("conj18", 16))
    for mutation in MUTATIONS
    # The two 2-bit prefixes of eq1's copies have one theta.
    if (n, mutation) != (15, "offset_other_theta")
])
def test_certificate_fails_for_each_mutation(name, n, mutation):
    copies, lo, hi, nbits, target = claim_copies(name, n)
    assert _certify_copies(copies, lo, hi, nbits) is None
    copies = MUTATIONS[mutation](copies)
    assert _certify_copies(copies, lo, hi, nbits) is not None
    made = np.concatenate([np.add(src, offset, dtype=np.int64) for src, offset in copies])
    assert first_mismatch(target, made) is not None
    if name == "eq" and mutation in ("top_swapped", "one_short"):
        assert oracle(n, copies[0][0]) is not None


def test_certificate_fails_for_a_copy_onto_a_prefix_of_higher_theta():
    # Level 8 is the class (1, 7, 1).  Its copy onto the prefix 100, of
    # theta 3, lies above 511 and below the 35th member after it: those
    # members number as many as the copy's terms, of which some are no
    # members.  Only the theta of the image fails.
    src = levels._level_array(8)
    lo = hi = mersenne(9)
    for _ in src:
        hi = dyck_succ(hi)
    assert int(src[-1]) + (3 << 7) < hi
    assert _certify_copies([(src, 3 << 7)], lo, hi, 10) == _construction_failure(
        f"{int(src[0]) + (3 << 7)} is not a term of the sequence"
    )


def test_certificate_fails_for_a_copy_of_another_width():
    # Level 6, the class (1, 5, 1), copied up by 64 is exactly the members
    # from 103 to M_7: as 7-bit terms, not as 8-bit ones.
    src = levels._level_array(6)
    lo = dyck_pred(int(src[0]) + 64)
    assert _certify_copies([(src, 64)], lo, mersenne(7), 7) is None
    assert _certify_copies([(src, 64)], lo, mersenne(7), 8) == _construction_failure(
        "103..127 is no 8-bit translate of the class (1, 5, 1)"
    )


def test_verify_eq_rejects_wrong_parity():
    with pytest.raises(ValueError):
        verify_eq1(6)
    with pytest.raises(ValueError):
        verify_eq2(7)


def test_copy_relation_packaging():
    from dycknums.patterns import copy_relation

    p4 = make_pattern((11, 13, 15))
    rel = copy_relation(p4, copy_at(p4, 63))
    assert rel.offset == 48
    assert rel.source is p4 and rel.target.top == 63
    with pytest.raises(NotACopy):
        copy_relation(p4, make_pattern((19, 21, 23, 27, 29, 31)))


def scan_verdict(terms):
    """The error class a run earns by rescanning every candidate
    between its ends with the scan oracle; None for a valid run."""
    if any(b <= a for a, b in zip(terms, terms[1:])) or terms[0] < 0:
        return ValueError
    if list(terms) != _members_between(terms[0], terms[-1]):
        if all(is_dyck_number(t) for t in terms):
            return NotContiguous
        return NotMember
    if terms[0].bit_length() != terms[-1].bit_length():
        return MixedLevels
    return None


@st.composite
def perturbed_level_slices(draw):
    """A slice of a level n <= 14, then possibly one perturbation: drop
    an interior term, shift one term by 2 either way, or extend the run
    across the boundary with the level above or below."""
    n = draw(st.integers(min_value=1, max_value=14))
    level = level_structural(n).terms
    i = draw(st.integers(min_value=0, max_value=len(level) - 1))
    j = draw(st.integers(min_value=i + 1, max_value=len(level)))
    run = list(level[i:j])
    kind = draw(st.sampled_from(("slice", "drop", "shift", "extend_up", "extend_down")))
    if kind == "drop" and len(run) >= 3:
        del run[draw(st.integers(min_value=1, max_value=len(run) - 2))]
    elif kind == "shift":
        k = draw(st.integers(min_value=0, max_value=len(run) - 1))
        run[k] += draw(st.sampled_from((-2, 2)))
    elif kind == "extend_up":
        above = level_structural(n + 1).terms
        run += above[: draw(st.integers(min_value=1, max_value=3))]
    elif kind == "extend_down":
        below = level_structural(n - 1).terms if n > 1 else (0,)
        run = list(below[-draw(st.integers(min_value=1, max_value=len(below))):]) + run
    return tuple(run)


@given(perturbed_level_slices())
@example((1,))  # level 1 starts at 1 itself, not at 2**0 + 1
@example((0, 1))
@settings(max_examples=300, deadline=None)
def test_structural_validation_agrees_with_scan_oracle(terms):
    expected = scan_verdict(terms)
    try:
        p = make_pattern(terms)
    except (ValueError, PatternError, NotMember) as exc:
        assert type(exc) is expected, (terms, exc)
    else:
        assert expected is None, terms
        assert p.terms == terms


def test_runs_beyond_the_vector_limit_validate_by_exact_scan(monkeypatch):
    def no_levels(*args, **kwargs):
        raise AssertionError("no level array exists this high")

    monkeypatch.setattr(levels, "_level_array", no_levels)
    for n in (63, 64, 80):
        top = mersenne(n)
        assert top >= 1 << 62
        assert make_pattern((top,)).terms == (top,)
        triplet = make_pattern((top - 4, top - 2, top))
        assert triplet.terms == (top - 4, top - 2, top)
        assert lift_copy(triplet).terms == tuple(t + (1 << n) for t in triplet.terms)
        with pytest.raises(NotContiguous):
            make_pattern((top - 4, top))
        with pytest.raises(NotMember):
            make_pattern((top - 6, top - 4))  # ...11001 dips below zero
    assert make_pattern((mersenne(64),)).arr.dtype == object


def test_level_80_runs_validate_by_succ_walk():
    # the three lowest terms of level 80; the gap below each spans 2**38
    # or more odd candidates, so no scan between them could finish
    low = mersenne(79) + (1 << 40)
    second = low + (1 << 39)
    third = second + (1 << 38)
    assert make_pattern((low, second)).terms == (low, second)
    assert make_pattern((low, second, third)).terms == (low, second, third)
    assert pattern_len(make_pattern((low, second))) == (1 << 40) + (1 << 39)
    with pytest.raises(NotContiguous):
        make_pattern((low, third))
    with pytest.raises(NotMember):
        make_pattern((low, second + 2))  # also skips `second`


@pytest.mark.parametrize(
    "terms,error",
    [
        ((mersenne(28) - 4, mersenne(28) - 2, mersenne(28)), None),
        ((1, mersenne(28)), NotContiguous),
    ],
)
def test_validation_builds_no_level(monkeypatch, terms, error):
    monkeypatch.setattr(levels, "_array_cache", {})
    if error is None:
        assert make_pattern(terms).terms == terms
    else:
        with pytest.raises(error):
            make_pattern(terms)
    assert levels._array_cache == {}


@pytest.mark.parametrize("n", (40, 63, 64, 80))
def test_an_interior_non_member_is_named(n):
    # both ends are members and the count alone would not see it
    top = mersenne(n)
    with pytest.raises(NotMember, match=f"^{top - 3} is not a term"):
        make_pattern((top - 4, top - 3, top))
