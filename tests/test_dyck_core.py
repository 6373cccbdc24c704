import random
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dycknums.dyck_core import (
    TermClass,
    _rank,
    classify,
    dyck_pred,
    dyck_succ,
    dynamics,
    is_dyck_number,
    succ_of_mersenne,
)
from dycknums.errors import DomainError, NotMember
from dycknums.levels import level_scan, level_structural
from dycknums.oeis_ref import parse_bfile

from conftest import FIRST_48


def suffix_balance_oracle(v: int) -> bool:
    """String-based reference: every suffix of the binary code has at
    least as many 1s as 0s."""
    if v == 0:
        return True
    code = bin(v)[2:]
    return all(
        code[i:].count("1") >= code[i:].count("0") for i in range(len(code))
    )


@pytest.mark.parametrize(
    "value,expected",
    [(11, True), (9, False), (0, True), (2, False), (1, True), (39, True), (37, False)],
)
def test_membership_examples(value, expected):
    assert is_dyck_number(value) is expected


def test_membership_matches_listed_terms():
    assert tuple(v for v in range(158) if is_dyck_number(v)) == FIRST_48


def test_membership_rejects_negative():
    with pytest.raises(ValueError):
        is_dyck_number(-1)


@given(st.integers(min_value=0, max_value=1 << 80))
@settings(max_examples=300)
def test_membership_agrees_with_string_oracle(v):
    assert is_dyck_number(v) == suffix_balance_oracle(v)


def test_membership_exact_beyond_64_bits():
    m70 = (1 << 70) - 1
    assert is_dyck_number(m70)
    assert not is_dyck_number(1 << 70)
    assert not is_dyck_number((1 << 70) + 1)
    assert is_dyck_number(m70 + (1 << 35))  # successor of M_70


@pytest.mark.parametrize("value,expected", [(39, 2), (63, 6), (47, 4), (0, 0), (1, 1)])
def test_dynamics_examples(value, expected):
    assert dynamics(value) == expected


@given(st.integers(min_value=0, max_value=1 << 64))
@settings(max_examples=200)
def test_dynamics_matches_popcount_arithmetic(v):
    code = bin(v)[2:] if v else ""
    assert dynamics(v) == code.count("1") - code.count("0")


@pytest.mark.parametrize("t,expected", [(15, 19), (31, 39), (0, 1), (1, 3), (7, 11)])
def test_succ_examples(t, expected):
    assert dyck_succ(t) == expected


@pytest.mark.parametrize("t,expected", [(39, 31), (1, 0), (143, 127), (19, 15)])
def test_pred_examples(t, expected):
    assert dyck_pred(t) == expected


def test_pred_of_zero_is_undefined():
    with pytest.raises(DomainError):
        dyck_pred(0)


def test_succ_pred_reject_non_members():
    with pytest.raises(NotMember):
        dyck_succ(9)
    with pytest.raises(NotMember):
        dyck_pred(2)


def test_succ_pred_round_trip_over_prefix():
    t = 0
    for _ in range(2000):
        s = dyck_succ(t)
        assert dyck_pred(s) == t
        if t > 0:
            assert dyck_succ(dyck_pred(t)) == t
        assert s - t & (s - t - 1) == 0  # gaps are powers of two
        t = s


@pytest.mark.parametrize("n,expected", [(5, 39), (7, 143), (9, 543), (1, 3), (4, 19)])
def test_succ_of_mersenne_examples(n, expected):
    assert succ_of_mersenne(n) == expected


def test_succ_of_mersenne_matches_scan():
    for n in range(1, 31):
        assert succ_of_mersenne(n) == dyck_succ((1 << n) - 1)


@pytest.mark.parametrize(
    "t,expected",
    [
        (39, TermClass.ROOT),
        (13, TermClass.TRIPLET_MIDDLE),
        (15, TermClass.TRIPLET_TOP),
        (11, TermClass.TRIPLET_LOW),
        (543, TermClass.ROOT),
        (0, TermClass.ORIGIN),
        (1, TermClass.ORIGIN),
    ],
)
def test_classify_examples(t, expected):
    assert classify(t) is expected


def test_classify_consistency_over_prefix():
    t = dyck_succ(1)
    for _ in range(3000):
        kind = classify(t)
        below = is_dyck_number(t - 2)
        above = is_dyck_number(t + 2)
        if kind is TermClass.ROOT:
            assert not below and not above
        elif kind is TermClass.TRIPLET_MIDDLE:
            assert below and above
        elif kind is TermClass.TRIPLET_TOP:
            assert below and is_dyck_number(t - 4)
        elif kind is TermClass.TRIPLET_LOW:
            assert above and is_dyck_number(t + 4)
        else:
            pytest.fail(f"origin class for {t}")
        t = dyck_succ(t)


def assert_succ_pred_walk_levels(max_n):
    """succ and pred map each pair of consecutive scanned terms onto each
    other, over levels 1..max_n and across their boundaries."""
    terms = [0]
    for n in range(1, max_n + 1):
        terms += level_scan(n).arr.tolist()
    assert [dyck_succ(t) for t in terms[:-1]] == terms[1:]
    assert [dyck_pred(t) for t in terms[1:]] == terms[:-1]


def test_succ_pred_walk_scanned_levels():
    assert_succ_pred_walk_levels(18)


@pytest.mark.slow
def test_succ_pred_walk_scanned_levels_to_22():
    assert_succ_pred_walk_levels(22)


@st.composite
def terms_up_to_300_bits(draw):
    """A term of 1 to 300 bits, built from the low bit up: a bit is taken
    from a drawn integer while the balance of the bits below it is
    positive and is 1 otherwise, and the leading bit is 1."""
    nbits = draw(st.integers(min_value=1, max_value=300))
    raw = draw(st.integers(min_value=0, max_value=(1 << (nbits - 1)) - 1))
    value, balance = 0, 0
    for i in range(nbits - 1):
        bit = raw >> i & 1 or balance == 0
        value |= bit << i
        balance += 1 if bit else -1
    return value | 1 << (nbits - 1)


def assert_no_member_strictly_between(lo, hi):
    if hi - lo <= 1 << 16:
        assert not any(is_dyck_number(v) for v in range(lo + 1, hi))


@given(terms_up_to_300_bits())
@example(1)
@example((1 << 299) - 1)
@example(succ_of_mersenne(299))
@example((1 << 31) - 1)  # gap 2**16 after M_31
@settings(max_examples=300, deadline=None)
def test_succ_pred_inverse_with_power_of_two_gaps(t):
    s, p = dyck_succ(t), dyck_pred(t)
    assert is_dyck_number(s) and is_dyck_number(p)
    assert dyck_pred(s) == t and dyck_succ(p) == t
    for lo, hi in ((p, t), (t, s)):
        gap = hi - lo
        assert gap > 0 and gap & (gap - 1) == 0
        assert_no_member_strictly_between(lo, hi)


@given(st.integers(min_value=1, max_value=1 << 300).filter(lambda v: not is_dyck_number(v)))
@example(1 << 300)
@example((1 << 70) + 1)
@settings(max_examples=300)
def test_succ_pred_reject_non_members_to_300_bits(v):
    with pytest.raises(NotMember):
        dyck_succ(v)
    with pytest.raises(NotMember):
        dyck_pred(v)


# -- _rank: the number of terms below a term --------------------------------


def test_rank_is_the_index_in_the_bundled_bfile():
    text = resources.files("dycknums").joinpath("data/bfiles/b036991.txt").read_text()
    records = parse_bfile(text, "A036991").records
    assert len(records) >= 500
    assert all(_rank(term) == i - 1 for i, term in records)


def test_rank_is_the_index_in_the_scanned_levels():
    below = 1  # the term 0
    for n in range(1, 19):
        terms = level_scan(n).arr.tolist()
        assert [_rank(t) for t in terms] == list(range(below, below + len(terms)))
        below += len(terms)


@given(terms_up_to_300_bits())
@example(0)
@example(1)
@example((1 << 299) - 1)
@settings(max_examples=300, deadline=None)
def test_rank_steps_by_one_to_the_successor(t):
    assert _rank(dyck_succ(t)) == _rank(t) + 1


@given(st.integers(min_value=1, max_value=1 << 300).filter(lambda v: not is_dyck_number(v)))
@example(2)
@example(1 << 300)
@example((1 << 70) + 1)
@settings(max_examples=300)
def test_rank_rejects_non_members_to_300_bits(v):
    with pytest.raises(NotMember):
        _rank(v)


@pytest.mark.slow
@pytest.mark.parametrize("n", range(22, 27))
def test_rank_differences_count_terms_between_in_large_levels(n):
    level = level_structural(n).arr
    rng = random.Random(n)
    for _ in range(200):
        i, j = sorted(rng.randrange(len(level)) for _ in range(2))
        assert _rank(int(level[j])) - _rank(int(level[i])) == j - i
