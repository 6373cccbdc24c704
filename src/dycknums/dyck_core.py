"""Membership test, successor, predecessor and rank for OEIS A036991,
the Dyck numbers.

A nonnegative integer belongs to the sequence when every suffix of its
binary code contains at least as many 1s as 0s (0 belongs by convention,
encoding the empty path).  For t of L bits, S(j) is the balance (ones
minus zeros) of its low j bits: t is a term iff S(j) >= 0 for j = 1..L.
Every scalar question reads t once, a byte at a time, by `_lowest`; the
answers, classification included, follow in closed form from the lowest
S(j) above t's trailing ones (`_tail`).  `classify` scans one more value
for a triplet end, the far end it asserts.  All functions work on plain
ints with exact arithmetic, so values beyond 2**64 are handled
correctly; the queries also take numpy integers, through
`operator.index`.
"""

from __future__ import annotations

import enum
import functools
import math
import operator

from .errors import DomainError, NotMember


def _byte_tables() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`lowest[c]`, the lowest balance of the low j bits of the byte c
    over j = 0..8, and `balance[c]` = 2 * popcount(c) - 8.  Built by
    doubling, as `levels._chunk_tables`: a new high bit adds -1 or +1 to
    the balance and one more suffix."""
    lowest, balance = [0], [0]
    for _ in range(8):
        lowest = [min(lo, b + s) for s in (-1, 1) for lo, b in zip(lowest, balance)]
        balance = [b + s for s in (-1, 1) for b in balance]
    return tuple(lowest), tuple(balance)


_LOWEST, _BALANCE = _byte_tables()


def _lowest(v: int) -> int:
    """min(0, min over j >= 1 of S(j)) for v >= 0, a byte at a time.

    The bits from v's top bit up to the next multiple of 8 are set to
    1 first, as in `levels._class_runs`: no S(j) of j <= L changes, and
    each longer one is S(L) plus ones, so the minimum is the same."""
    n = v.bit_length()
    k = -(-n // 8)
    low = bal = 0
    for c in (v | (1 << 8 * k) - (1 << n)).to_bytes(k, "little"):
        if bal + _LOWEST[c] < low:
            low = bal + _LOWEST[c]
        bal += _BALANCE[c]
    return low


def is_dyck_number(v: int) -> bool:
    """Return True iff v is a term of A036991: 0, or an odd v (the
    suffix "0" has balance -1) whose every S(j) is nonnegative."""
    v = operator.index(v)
    if v < 0:
        raise ValueError("expected a nonnegative integer")
    return v == 0 or v & 1 == 1 and _lowest(v) == 0


def dynamics(v: int) -> int:
    """Ones minus zeros in the binary code of v (no leading zeros).

    dynamics(0) == 0 by convention.
    """
    v = operator.index(v)
    if v < 0:
        raise ValueError("expected a nonnegative integer")
    return 2 * v.bit_count() - v.bit_length()


def _tail(t: int) -> tuple[int, int]:
    """(q, M) for t > 0: q its number of trailing ones and M the lowest
    S(j) over q < j <= L (q - 1 when t = M_L, so q = L).

    S(j) = j for j <= q, bit q is 0, and above it S(j) = q - 1 + S'(j -
    q - 1), with S' the balances of t >> (q + 1): so M = q - 1 +
    `_lowest`(t >> (q + 1)), and t is a term iff M >= 0.  An even t has
    q = 0 and M <= -1.  NotMember is raised for a non-term."""
    q = (~t & t + 1).bit_length() - 1
    m = q - 1 + _lowest(t >> q + 1)
    if m < 0:
        raise NotMember(f"{t} is not a term of the sequence")
    return q, m


def dyck_succ(t: int) -> int:
    """Smallest sequence term strictly greater than the term t.

    A larger L-bit number keeps t above a 0 bit p that it sets, so a
    lower p gives a smaller number.  Bits 0..p-1 then take a fill F of
    balance f, and every suffix longer than p + 1 bits moves by
    f + 2 - S(p): the result is a term iff F has no negative suffix and
    f >= d = max(S(p) - min_{j>p} S(j) - 2, 0).  The lowest 0 bit is
    p = q, with S(q) = q and d = max(q - M - 2, 0) <= q for a term, so
    a q-bit fill suffices.  The least fill of balance >= d is 2**k - 1
    with k = ceil((q + d) / 2): fewer ones give too little balance, any
    other placement of k ones is larger, and ones packed at the bottom
    leave no suffix negative.  For t = M_L, q = L and d = 0 give the
    least longer term, 2**L + 2**ceil(L/2) - 1.
    """
    t = operator.index(t)
    if t <= 0:
        _require_member(t)
        return 1
    q, m = _tail(t)
    return (t >> q | 1) << q | (1 << (q + max(q - m - 2, 0) + 1) // 2) - 1


def dyck_pred(t: int) -> int:
    """Largest sequence term strictly less than the term t.

    A smaller number keeps t above a 1 bit p that it clears, so a lower
    p gives a larger number.  Its fill is 2**p - 1, the largest p-bit
    number and the one of largest balance, so it is valid whenever any
    fill is.  Then S(p + 1) becomes p - 1, and each longer suffix moves
    by p - 2 - S(p) = 2 * z(p) - 2, with z(p) the zeros below p: p is
    feasible iff p >= 1 and min_{j>p} S(j) >= 2 - 2 * z(p).  Each
    1 <= p < q has z(p) = 0 and min_{j>p} S(j) = min(p + 1, M): all are
    feasible if M >= 2, which needs q >= 3 as M <= q - 1, and none if
    not.  So p = 1 when M >= 2; otherwise the lowest 1 bit above q,
    where z(p) >= 1 and a term has no negative S(j).  For t = M_L, all
    p < q are feasible (no j > q): M = q - 1 >= 2 for L >= 3, and for
    t = 3 the lowest 1 bit above q, of t >> q = 0, reads p = q - 1 = 1.
    """
    t = operator.index(t)
    if t <= 1:
        _require_member(t)
        if t == 0:
            raise DomainError("the predecessor of the initial term 0 is undefined")
        return 0
    q, m = _tail(t)
    if m >= 2:
        p = 1
    else:
        u = t >> q
        p = q + (u & -u).bit_length() - 1
    return t >> p + 1 << p + 1 | (1 << p) - 1


@functools.cache
def _shorter(k: int) -> int:
    """The number of terms of at most k bits: 0, and C(m, floor(m/2))
    of m + 1 bits for each m < k."""
    return 1 + sum(math.comb(m, m // 2) for m in range(k))


def _rank(t: int) -> int:
    """Number of sequence terms below the term t, in one pass over its
    bits: the `_shorter` ones, and for each 1 bit p < L - 1 of t, the
    L-bit terms that keep t above p and clear it.  With R(k) the balance
    of bits k..L-1, such a term's p-bit fill F has no negative suffix,
    and its low k bits for k > p have balance bal(F) - 2 + R(p) - R(k),
    so bal(F) >= d = max(0, max_{k>p} R(k) - R(p) + 2).  By the ballot
    theorem, C(p, j) - C(p, j + 1) such F end at balance 2j - p; summed
    over balances >= d, this telescopes to C(p, ceil((p + d) / 2)).
    """
    if t <= 0:
        _require_member(t)
        return 0
    k = t.bit_length() - 1
    count = _shorter(k)
    r = hi = 1  # R(k) and the max of R above k, after the leading 1
    for c in bin(t)[3:]:
        k -= 1
        if c == "1":
            r += 1  # hi >= r - 1, so d = hi - r + 2 >= 1
            count += math.comb(k, (k + hi - r + 3) // 2)
            if r > hi:
                hi = r
        else:
            r -= 1
    if hi > r:
        raise NotMember(f"{t} is not a term of the sequence")
    return count


def succ_of_mersenne(n: int) -> int:
    """Successor of 2**n - 1 by closed form: M_n + 2**ceil(n/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (1 << n) - 1 + (1 << ((n + 1) // 2))


class TermClass(enum.Enum):
    """Structural role of a term: origin values 0 and 1, an isolated
    ternary-tree root, or one of the three positions in a triplet of
    adjacent terms spaced 2 apart."""

    ORIGIN = "Origin"
    ROOT = "Root"
    TRIPLET_LOW = "TripletLow"
    TRIPLET_MIDDLE = "TripletMiddle"
    TRIPLET_TOP = "TripletTop"


def classify(t: int) -> TermClass:
    """Classify a term as Origin, Root, or triplet position.

    A root r > 1 has neither r-2 nor r+2 in the sequence; triplet terms
    have at least one neighbour at distance 2.  t +- 1 are even, so t + 2
    is a term iff it is `dyck_succ`(t) = t + 2**k, k = ceil((q + d) / 2):
    iff q <= 2 (where d = 0, as M >= 0).  t - 2 is a term iff it is
    `dyck_pred`(t), which clears bit 1 if M >= 2 or t = 3 and else is
    t - 2**q: iff q = 1, M >= 2 or t = 3.  As M <= q - 1, M >= 2 needs
    q >= 3.  So q = 1 and t = 3 are middles, any other q = 2 is a low,
    and q >= 3 is a top if M >= 2 and a root if not.  A triplet end
    scans t -+ 4 as well: no run of adjacent terms has length 2.
    """
    t = operator.index(t)
    if t <= 1:
        _require_member(t)
        return TermClass.ORIGIN
    q, m = _tail(t)
    if q == 1 or t == 3:
        return TermClass.TRIPLET_MIDDLE
    if q == 2:
        assert is_dyck_number(t + 4), f"term {t} starts a run of length 2"
        return TermClass.TRIPLET_LOW
    if m < 2:
        return TermClass.ROOT
    assert is_dyck_number(t - 4), f"term {t} ends a run of length 2"
    return TermClass.TRIPLET_TOP


def _require_member(t: int) -> None:
    if not is_dyck_number(t):
        raise NotMember(f"{t} is not a term of the sequence")
