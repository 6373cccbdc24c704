"""Bit-level membership test and successor/predecessor functions for
OEIS A036991, the Dyck numbers.

A nonnegative integer belongs to the sequence when every suffix of its
binary code contains at least as many 1s as 0s (0 belongs by convention,
encoding the empty path).  All functions here work on plain ints with
exact arithmetic, so values beyond 2**64 are handled correctly.
"""

from __future__ import annotations

import enum
import math

from .errors import DomainError, NotMember


def is_dyck_number(v: int) -> bool:
    """Return True iff v is a term of A036991.

    Single right-to-left scan tracking the running suffix balance
    (ones minus zeros); rejects on the first negative value.
    """
    if v < 0:
        raise ValueError("expected a nonnegative integer")
    if v == 0:
        return True
    if not v & 1:
        return False  # the length-1 suffix "0" already has balance -1
    bal = 0
    while v:
        bal += 1 if v & 1 else -1
        if bal < 0:
            return False
        v >>= 1
    return True


def dynamics(v: int) -> int:
    """Ones minus zeros in the binary code of v (no leading zeros).

    dynamics(0) == 0 by convention.
    """
    if v < 0:
        raise ValueError("expected a nonnegative integer")
    return 2 * v.bit_count() - v.bit_length()


def _lowest_flip(t: int, bit: str, slack: int) -> tuple[int, int]:
    """The one pass over the bits of t > 0, top bit first, behind
    `dyck_succ` (bit "0", slack -2) and `dyck_pred` (bit "1", slack 2).

    With L = t.bit_length() and R(k) the balance (ones minus zeros) of
    bits k..L-1, the suffix of bits 0..k-1 has balance R(0) - R(k): t is
    a term iff no R(k) exceeds R(0), else NotMember is raised.  Flipping
    bit p of t moves the balance of bits p..k-1 by -slack, so with a
    fill F in bits 0..p-1 the result is a term iff F has no negative
    suffix and bal(F) >= max_{k>p} R(k) - R(p) + slack, the bound.  A
    p-bit fill has balance at most p: p is feasible iff bound <= p.

    Returns (p, bound) for the lowest feasible p holding `bit`, or
    (L, 0) when there is none.
    """
    code = bin(t)[2:]
    k = len(code)
    p, bound = k, 0
    r = hi = 0  # R(k) and the max of R above k (R(L) = 0)
    for c in code:
        k -= 1
        r += 1 if c == "1" else -1
        if c == bit and hi - r + slack <= k:
            p, bound = k, hi - r + slack
        if r > hi:
            hi = r
    if hi > r:  # r is now R(0)
        raise NotMember(f"{t} is not a term of the sequence")
    return p, bound


def dyck_succ(t: int) -> int:
    """Smallest sequence term strictly greater than the term t, in one
    pass over its bits.

    A larger L-bit number keeps t above a 0 bit p that it sets, so a
    lower p gives a smaller number: the lowest feasible p wins.  Its
    least fill of balance >= d = max(bound, 0) is 2**m - 1 with
    m = ceil((p + d) / 2): fewer ones give too little balance, any other
    placement of m ones is larger, and ones packed at the bottom leave no
    suffix negative.  With no feasible p (t = M_L) the same formula at
    p = L, d = 0 gives the least longer term, 2**L + 2**ceil(L/2) - 1.
    """
    if t <= 0:
        _require_member(t)
        return 1
    p, d = _lowest_flip(t, "0", -2)
    return (t >> p | 1) << p | (1 << (p + max(d, 0) + 1) // 2) - 1


def dyck_pred(t: int) -> int:
    """Largest sequence term strictly less than the term t, in one pass
    over its bits.

    A smaller number keeps t above a 1 bit p that it clears, so a lower
    p gives a larger number: the lowest feasible p wins.  Its fill is
    2**p - 1, the largest p-bit number and the one of largest balance,
    so it is valid whenever any fill is.  Clearing the top bit gives
    M_{L-1}, the largest shorter term, feasible for every L >= 2.
    """
    if t <= 1:
        _require_member(t)
        if t == 0:
            raise DomainError("the predecessor of the initial term 0 is undefined")
        return 0
    p, _ = _lowest_flip(t, "1", 2)
    return t >> p + 1 << p + 1 | (1 << p) - 1


def _rank(t: int) -> int:
    """Number of sequence terms below the term t, in one pass over its
    bits: 0, the C(m, floor(m/2)) terms of m + 1 bits for each m < L - 1,
    and for each 1 bit p < L - 1 of t, the L-bit terms that keep t above
    p and clear it.  As in `_lowest_flip`, their p-bit fills F have no
    negative suffix and bal(F) >= d = max(0, max_{k>p} R(k) - R(p) + 2).
    By the ballot theorem, C(p, j) - C(p, j + 1) such F end at balance
    2j - p; summed over balances >= d, this telescopes to
    C(p, ceil((p + d) / 2)).
    """
    if t <= 0:
        _require_member(t)
        return 0
    k = t.bit_length() - 1
    count = 1 + sum(math.comb(m, m // 2) for m in range(k))
    r = hi = 1  # R(k) and the max of R above k, after the leading 1
    for c in bin(t)[3:]:
        k -= 1
        r += 1 if c == "1" else -1
        if c == "1":
            count += math.comb(k, (k + max(hi - r + 2, 0) + 1) // 2)
        hi = max(hi, r)
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
    have at least one neighbour at distance 2.
    """
    _require_member(t)
    if t <= 1:
        return TermClass.ORIGIN
    below = is_dyck_number(t - 2)
    above = is_dyck_number(t + 2)
    if not below and not above:
        return TermClass.ROOT
    if below and above:
        return TermClass.TRIPLET_MIDDLE
    if below:
        assert is_dyck_number(t - 4), f"term {t} ends a run of length 2"
        return TermClass.TRIPLET_TOP
    assert is_dyck_number(t + 4), f"term {t} starts a run of length 2"
    return TermClass.TRIPLET_LOW


def _require_member(t: int) -> None:
    if not is_dyck_number(t):
        raise NotMember(f"{t} is not a term of the sequence")
