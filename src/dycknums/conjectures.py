"""Machine verification of the structural claims, with structured
pass/fail outcomes.

Checks covered: the triplet lift (every even-level term t yields the
triplet 4t-1, 4t+1, 4t+3 two levels up in the same quarter segment),
the copying of a core into subsegments 2 and 3 of the next core at
offsets 13*2**(n-3) and 7*2**(n-2), the recursive build of the top
subsegment from the core four levels down plus three copies of the
previous top subsegment, the Catalan count of fragment-00 rejections,
and the size identities tying level and core cardinalities to central
binomial coefficients and Catalan numbers.
"""

from __future__ import annotations

import numpy as np

from .cores import core, core_size, rejected_terms
from .errors import PatternError
from .levels import (
    _balance_ok,
    _level_array,
    core_top,
    level_size,
)
from .oeis_ref import a001405, a002054, catalan
from .patterns import (
    Pattern,
    _construction_failure,
    copy_at,
    join,
    power,
    verify_eq1,
    verify_eq2,
)
from .report import Counterexample, VerificationOutcome, check, first_mismatch

__all__ = [
    "VerificationOutcome",
    "Counterexample",
    "check_prop12",
    "check_conj16",
    "check_conj18",
    "check_catalan_rejection",
    "size_identity_checks",
    "run_all",
]

# The 12 core sizes quoted for n = 6, 8, ..., 28.
CORE_SIZES = (1, 5, 21, 84, 330, 1287, 5005, 19448, 75582, 293930, 1144066, 4457400)

# Level sizes for n = 1..12.
LEVEL_SIZES = (1, 1, 2, 3, 6, 10, 20, 35, 70, 126, 252, 462)


@check("prop12")
def check_prop12(n: int) -> Counterexample | None:
    """Every term t of even level n generates the triplet
    (4t-1, 4t+1, 4t+3) in level n+2, landing in the same quarter
    segment of its level interval."""
    if n < 6 or n % 2:
        raise ValueError("the triplet lift is checked for even n >= 6")
    src = _level_array(n)
    for delta in (-1, 1, 3):
        # For an odd t of n bits, 4t + delta has exactly n + 2 bits.
        found = _balance_ok(4 * src + delta, n + 2)
        if not bool(np.all(found)):
            bad = int(src[~found][0])
            return Counterexample(bad, f"{4 * bad + delta} in level {n + 2}", "absent")
    quarter_src = (src - (1 << (n - 1))) >> (n - 3)
    quarter_dst = (4 * src + 3 - (1 << (n + 1))) >> (n - 1)
    if not bool(np.all(quarter_src == quarter_dst)):
        mism = np.nonzero(quarter_src != quarter_dst)[0][0]
        return Counterexample(int(src[mism]), int(quarter_src[mism]), int(quarter_dst[mism]))
    return None


@check("conj16")
def check_conj16(n: int) -> Counterexample | None:
    """Subsegments 2 and 3 of the (n+2)-core are copies of the n-core
    at offsets 13*2**(n-3) and 7*2**(n-2)."""
    if n < 8 or n % 2:
        raise ValueError("core copying is checked for even n >= 8")
    base = core(n).arr
    segs = core(n + 2).segments
    for seg_index, offset in ((1, 13 << (n - 3)), (2, 7 << (n - 2))):
        actual = segs[seg_index]
        if len(actual) != core_size(n):
            return Counterexample(
                f"subsegment {seg_index + 1} cardinality", core_size(n), len(actual)
            )
        mismatch = first_mismatch(base + offset, actual)
        if mismatch is not None:
            return mismatch
    return None


@check("conj18")
def check_conj18(n: int) -> Counterexample | None:
    """The top subsegment of the n-core is the (n-4)-core placed three
    subsegment lengths below the core top, joined with the cube of the
    previous core's top subsegment ending at the core top."""
    if n < 12 or n % 2:
        raise ValueError("the top-subsegment recursion is checked for even n >= 12")
    top = core_top(n)
    actual = core(n).segments[3]
    try:
        low = copy_at(Pattern(core(n - 4).arr), top - 3 * (1 << (n - 7)))
        high = power(copy_at(Pattern(core(n - 2).segments[3]), top), 3)
        built = join(low, high).arr
    except PatternError as exc:
        return _construction_failure(exc)
    if len(actual) != a001405(n - 5):
        return Counterexample("cardinality", a001405(n - 5), len(actual))
    return first_mismatch(actual, built)


@check("rejection")
def check_catalan_rejection(n: int) -> Counterexample | None:
    """The 00 fragment rejects exactly Cat(n/2 - 1) terms of level n-2,
    and zeroing the leading bit of each rejected term leaves a Dyck
    word: total balance 0 with no suffix dipping negative."""
    if n < 6 or n % 2:
        raise ValueError("rejection counts are checked for even n >= 6")
    rejected = rejected_terms(n)
    expected_count = catalan(n // 2 - 1)
    if len(rejected) != expected_count:
        return Counterexample("cardinality", expected_count, len(rejected))
    word_len = n - 2  # zeroing keeps the code length, so the word is even
    words = np.asarray(rejected, dtype=np.int64) - (1 << (n - 3))
    balanced = 2 * np.bitwise_count(words).astype(np.int64) == word_len
    valid = _balance_ok(words, word_len) & balanced
    if not bool(np.all(valid)):
        bad = rejected[int(np.nonzero(~valid)[0][0])]
        return Counterexample(bad, "a Dyck word after zeroing the leading bit", "not")
    return None


# The size identities: each takes the top of the range it covers, which
# is also the n of its outcome.


@check("eq4")
def _core_size_product(top: int) -> Counterexample | None:
    for k in range(1, top + 1):
        if a002054(k) != k * catalan(k + 1) // 2 or (k * catalan(k + 1)) % 2:
            return Counterexample(k, k * catalan(k + 1) // 2, a002054(k))
    return None


@check("eq5")
def _core_size_difference(top: int) -> Counterexample | None:
    for k in range(1, top + 1):
        if a002054(k) != a001405(2 * k + 1) - catalan(k + 1):
            return Counterexample(k, a001405(2 * k + 1) - catalan(k + 1), a002054(k))
    return None


@check("prop10")
def _level_size_recurrences(top: int) -> Counterexample | None:
    for n in range(6, top + 1, 2):
        four_copies = 4 * level_size(n - 2) - catalan(n // 2 - 1)
        doubled = 2 * level_size(n - 1) - catalan(n // 2 - 1)
        for expected in (four_copies, doubled):
            if level_size(n) != expected:
                return Counterexample(n, expected, level_size(n))
    return None


@check("core-sizes")
def _quoted_core_sizes(top: int) -> Counterexample | None:
    for n, quoted in zip(range(6, top + 1, 2), CORE_SIZES):
        for expected in (quoted, a002054(n // 2 - 2)):
            if core_size(n) != expected:
                return Counterexample(n, expected, core_size(n))
    return None


@check("level-sizes")
def _quoted_level_sizes(top: int) -> Counterexample | None:
    for n, expected in zip(range(1, top + 1), LEVEL_SIZES):
        if level_size(n) != expected:
            return Counterexample(n, expected, level_size(n))
    return None


def size_identity_checks(max_n: int = 30) -> list[VerificationOutcome]:
    """Arithmetic identities: the two core-size formulas, the level
    size recurrences, and the quoted size tables."""
    return [
        _core_size_product(40),
        _core_size_difference(40),
        _level_size_recurrences(max(max_n, 6)),
        _quoted_core_sizes(28),
        _quoted_level_sizes(12),
    ]


# Every level-parameterized check: name -> (checker, first n).  Each
# runs at every second n from its first, and the check at n builds no
# level above n.  The checkers look the check functions up when called,
# so a wrapper rebound over a module function (as perfbench/spans.py
# does) sees every call.
CHECKS = {
    "eq1": (lambda n: verify_eq1(n), 5),
    "eq2": (lambda n: verify_eq2(n), 6),
    "prop12": (lambda n: check_prop12(n), 6),
    "conj16": (lambda n: check_conj16(n), 8),
    "conj18": (lambda n: check_conj18(n), 12),
    "rejection": (lambda n: check_catalan_rejection(n), 6),
}


def planned_checks(names, max_n: int) -> list[tuple[str, int]]:
    """The (check name, n) pairs the named checks run at up to max_n."""
    return [(name, n) for name in names for n in range(CHECKS[name][1], max_n + 1, 2)]


def run_all(max_n: int) -> list[VerificationOutcome]:
    """Every level-parameterized check at every applicable n <= max_n,
    ordered by (check name, n).  Size identities run once."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    outcomes = [CHECKS[name][0](n) for name, n in planned_checks(CHECKS, max_n)]
    if max_n >= 6:
        outcomes.extend(size_identity_checks(min(max_n, 30)))
    outcomes.sort(key=lambda o: (o.name, o.n))
    return outcomes
