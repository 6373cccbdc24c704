import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dycknums import patterns
from dycknums.dyck_core import is_dyck_number
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
from dycknums.levels import _balance_ok, level_structural, mersenne
from dycknums.patterns import (
    _VECTOR_LIMIT,
    copy_at,
    join,
    level_pattern,
    lift_copy,
    make_pattern,
    offset_of,
    pattern_len,
    power,
    verify_eq1,
    verify_eq2,
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
    p6_255 = copy_at(level_pattern(6), 255)
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
    # dropping one span below 51..55 would need members at 43+8k gaps
    with pytest.raises(InvalidCopy):
        power(make_pattern((51, 53, 55)), 3)
    # crossing a level boundary mixes code lengths
    with pytest.raises(InvalidCopy):
        power(copy_at(make_pattern((11, 13, 15)), 31), 3)


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
    tail = power(copy_at(level_pattern(4), mersenne(6)), 3)
    assert len(tail) == 9  # terms of level 6 above the core


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

    monkeypatch.setattr(patterns, "_level_array", no_levels)
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
