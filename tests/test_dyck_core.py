import math
import random
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dycknums import dyck_core
from dycknums.dyck_core import (
    TermClass,
    _class_ends,
    _class_of,
    _rank,
    classify,
    dyck_pred,
    dyck_succ,
    dynamics,
    is_dyck_number,
    succ_of_mersenne,
)
from dycknums.errors import DomainError, NotMember
from dycknums.levels import _balance_ok, level_index, level_scan, level_size, level_structural
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


def counted_scans(monkeypatch) -> list[int]:
    """The values `dyck_core._lowest` scans from now on, in call order."""
    scanned, lowest = [], dyck_core._lowest
    monkeypatch.setattr(dyck_core, "_lowest", lambda v: scanned.append(v) or lowest(v))
    return scanned


def test_classify_scans_a_term_once_and_a_triplet_end_twice(monkeypatch):
    terms = level_structural(12).terms + (succ_of_mersenne(299), (1 << 300) - 1)
    scanned = counted_scans(monkeypatch)
    seen = set()
    for t in terms:
        scanned.clear()
        kind = classify(t)
        seen.add(kind)
        ends = kind in (TermClass.TRIPLET_TOP, TermClass.TRIPLET_LOW)
        assert len(scanned) == 1 + ends, (t, kind, scanned)
    assert seen == set(TermClass) - {TermClass.ORIGIN}


@pytest.mark.parametrize(
    "t,far",
    [(15, 11), (11, 15), (2015, 2011), (2011, 2015),
     ((1 << 300) - 1, (1 << 300) - 5), ((1 << 300) - 5, (1 << 300) - 1)],
)
def test_classify_asserts_the_far_end_of_a_triplet(monkeypatch, t, far):
    assert classify(t) in (TermClass.TRIPLET_TOP, TermClass.TRIPLET_LOW)
    member = dyck_core.is_dyck_number
    monkeypatch.setattr(dyck_core, "is_dyck_number", lambda v: v != far and member(v))
    with pytest.raises(AssertionError, match="a run of length 2"):
        classify(t)


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


def test_shorter_counts_the_terms_below_each_level():
    # `_rank`'s cached prefix: the term 0 and every level of fewer bits.
    for k in range(0, 40):
        assert dyck_core._shorter(k) == 1 + sum(level_size(n) for n in range(1, k + 1))


# -- the class lemma ---------------------------------------------------------


def members_under_each_prefix(m: int) -> np.ndarray:
    """Membership of P * 2**m + z for each prefix P of 1 to 9 bits (row
    P - 1) and each m-bit z (column z): the running balance of each word
    from bit 0 up to its top bit never dips below 0."""
    prefixes = range(1, 1 << 9)
    words = np.array(prefixes, dtype=np.int64)[:, None] << m | np.arange(1 << m)
    width = np.array([p.bit_length() + m for p in prefixes])[:, None]
    balance = np.zeros(words.shape, dtype=np.int8)
    member = np.ones(words.shape, dtype=bool)
    for j in range(m + 9):
        balance += np.where(j < width, 2 * (words >> j & 1) - 1, 0).astype(np.int8)
        member &= balance >= 0
    return member


@pytest.mark.parametrize("m", range(13))
def test_class_ends_and_size_are_those_of_the_members_under_each_prefix(m):
    member = members_under_each_prefix(m)
    if m <= 6:
        words = [[is_dyck_number(p << m | z) for z in range(1 << m)] for p in range(1, 1 << 9)]
        assert np.array_equal(member, words)
    for p in range(1, 1 << 9):
        code = bin(p)[2:]
        theta = max(0, *(code[i:].count("0") - code[i:].count("1") for i in range(len(code))))
        theta += (theta ^ m) & 1
        z = np.flatnonzero(member[p - 1])
        assert len(z) == math.comb(m, (m + theta) // 2), (p, m)
        if len(z):
            first, top = p << m | int(z[0]), p << m | int(z[-1])
            assert _class_ends(p << m, m, theta) == (first, top), (p, m)
            if theta <= m - 2:
                assert _class_of(first, top) == (p, m, theta)


# -- the chunked suffix scan behind every scalar query ----------------------


def oracle_class(t: int) -> TermClass:
    """The class of a term from the string oracle on its neighbours at
    distance 2, as `classify` defines it."""
    if t <= 1:
        return TermClass.ORIGIN
    below, above = suffix_balance_oracle(t - 2), suffix_balance_oracle(t + 2)
    if below and above:
        return TermClass.TRIPLET_MIDDLE
    if below:
        return TermClass.TRIPLET_TOP
    return TermClass.TRIPLET_LOW if above else TermClass.ROOT


def oracle_neighbour(t: int, step: int) -> int:
    """The next term from t in the direction of step (+1 or -1), by
    stepping the string oracle one value at a time."""
    v = t + step
    while not suffix_balance_oracle(v):
        v += step
    return v


@st.composite
def terms_and_near_members(draw):
    """A term of 1 to 300 bits, or one with one bit flipped, the bit
    above the top included; a flipped term may still be a term."""
    t = draw(terms_up_to_300_bits())
    if draw(st.booleans()):
        return t
    return t ^ 1 << draw(st.integers(min_value=0, max_value=t.bit_length()))


def assert_scalar_queries_agree_with_oracles(v: int) -> None:
    """Membership by the string oracle; for a term, succ and pred are
    terms one rank away (stepped to by the oracle when the term has at
    most 16 bits), and classify and level_index agree with the oracle;
    for a non-term, every query raises NotMember."""
    member = suffix_balance_oracle(v)
    assert is_dyck_number(v) is member
    if not member:
        for query in (dyck_succ, dyck_pred, classify, level_index, _rank):
            with pytest.raises(NotMember):
                query(v)
        return
    s = dyck_succ(v)
    assert s > v and suffix_balance_oracle(s)
    assert _rank(s) == _rank(v) + 1
    if v:
        p = dyck_pred(v)
        assert p < v and suffix_balance_oracle(p)
        assert _rank(p) == _rank(v) - 1
    if v.bit_length() <= 16:
        assert s == oracle_neighbour(v, 1)
        assert not v or dyck_pred(v) == oracle_neighbour(v, -1)
    assert classify(v) is oracle_class(v)
    assert level_index(v) == v.bit_length()


@given(terms_and_near_members())
@example(0)
@example(2)
@example(3)
@example((1 << 300) - 1)
@example((1 << 300) - 2)
@example(1 << 299)
@example(succ_of_mersenne(299))
@example(succ_of_mersenne(299) - (1 << 150))
@settings(max_examples=300, deadline=None)
def test_scalar_queries_agree_with_the_string_oracle(v):
    assert_scalar_queries_agree_with_oracles(v)


@pytest.mark.parametrize("query", [is_dyck_number, dyck_succ, dyck_pred, classify, level_index])
@pytest.mark.parametrize("v", [-1, -2, -(1 << 70) - 1])
def test_scalar_queries_reject_negative_values(query, v):
    with pytest.raises(ValueError):
        query(v)


@pytest.mark.parametrize(
    "query", [is_dyck_number, dyck_succ, dyck_pred, classify, level_index, dynamics]
)
@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
def test_scalar_queries_take_numpy_integers(query, dtype):
    # Terms read from a level array, a non-term and 1, as numpy scalars.
    for v in [*level_structural(10).arr[[0, 5, -1]].tolist(), 9, 1]:
        assert answer(query, dtype(v)) == answer(query, v), (query.__name__, v)
    assert int(dyck_succ(dtype(511))) == 543 and int(dyck_pred(dtype(543))) == 511


def answer(query, v: int):
    """The query's answer at v, or the type of the error it raised
    (`classify` asserts its triplets, which a broken scan can break)."""
    try:
        return query(v)
    except (NotMember, AssertionError) as exc:
        return type(exc)


def scan_mismatches_below_2_16() -> list[tuple[str, int]]:
    """Each query of `dyck_core` that disagrees, on some v < 2**16, with
    the vector predicate `levels._balance_ok(v, v.bit_length())` or
    with the neighbours and classes read off its member list."""
    values = np.arange(1 << 16, dtype=np.int64)
    member = np.empty(len(values), dtype=bool)
    for n in range(17):
        lo, hi = (1 << n) >> 1, 1 << n
        member[lo:hi] = _balance_ok(values[lo:hi], n)
    found = [("is_dyck_number", v) for v in range(1 << 16) if is_dyck_number(v) != member[v]]
    terms = np.flatnonzero(member).tolist()
    found += [("dyck_succ", t) for t, s in zip(terms, terms[1:]) if answer(dyck_succ, t) != s]
    found += [("dyck_pred", s) for t, s in zip(terms, terms[1:]) if answer(dyck_pred, s) != t]
    near = member.tolist() + [False] * 2
    for t in terms[2:-1]:
        expected = (
            TermClass.TRIPLET_MIDDLE if near[t - 2] and near[t + 2]
            else TermClass.TRIPLET_TOP if near[t - 2]
            else TermClass.TRIPLET_LOW if near[t + 2]
            else TermClass.ROOT
        )
        if answer(classify, t) is not expected:
            found.append(("classify", t))
    return found


def test_scalar_queries_agree_with_the_vector_predicate_below_2_16():
    assert scan_mismatches_below_2_16() == []


def corrupt(table: tuple[int, ...], c: int, by: int) -> tuple[int, ...]:
    return table[:c] + (table[c] + by,) + table[c + 1 :]


@pytest.mark.parametrize(
    "name,c,by",
    [
        ("_LOWEST", 0xFF, -1),  # 255 is a term; its scan would read -1
        ("_LOWEST", 0b10101010, 1),  # 0xAA0F dips to -1 at bit 8, read as 0
        ("_BALANCE", 0xFF, -2),  # 0x80FF would dip below 0 in its top byte
        ("_BALANCE", 0b01010111, 2),  # a low byte of balance 2 read as 4
    ],
)
def test_a_corrupted_table_entry_fails_the_exhaustive_test(monkeypatch, name, c, by):
    monkeypatch.setattr(dyck_core, name, corrupt(getattr(dyck_core, name), c, by))
    assert scan_mismatches_below_2_16()


def test_byte_tables_match_their_definition():
    for c in range(256):
        balances = [2 * (c & (1 << j) - 1).bit_count() - j for j in range(9)]
        assert dyck_core._LOWEST[c] == min(balances)
        assert dyck_core._BALANCE[c] == balances[-1]
