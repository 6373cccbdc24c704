import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dycknums.dyck_core import is_dyck_number
from dycknums.errors import BoundError, DomainError, NotMember
from dycknums.levels import (
    _balance_ok,
    central_terms,
    level_index,
    level_scan,
    level_size,
    level_structural,
    mersenne,
    stream_terms,
)

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
        assert level_scan(n).terms == level_structural(n, structural_bound=16).terms


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
    with pytest.raises(BoundError):
        level_scan(25, scan_bound=24)


def test_structural_bound_enforced():
    with pytest.raises(BoundError):
        level_structural(18, structural_bound=17)


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


def test_memory_guard_refuses_huge_levels():
    # level 32 would hold more than 2**28 terms
    with pytest.raises(BoundError):
        level_structural(32, structural_bound=40)


@st.composite
def codes_near_members(draw):
    """(value, nbits): a member of level nbits built bit by bit from the
    low end (a forced 1 whenever the balance below is 0), with one bit
    then possibly flipped."""
    nbits = draw(st.integers(min_value=1, max_value=62))
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
