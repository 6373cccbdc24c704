"""Machine verification of the structural claims, with structured
pass/fail outcomes.

Checks covered: an odd level n as two copies of level n-1 (eq1), the
tail of an even level n above its core as three copies of level n-2
(eq2), the triplet lift (every even-level term t yields the triplet
4t-1, 4t+1, 4t+3 two levels up in the same quarter segment, proven
from t's membership, so that level n is what is checked), the copying
of a core into subsegments 2 and 3 of the next core at offsets
13*2**(n-3) and 7*2**(n-2), the recursive build of the top subsegment
from the core four levels down plus three copies of the previous top
subsegment, the Catalan count of fragment-00 rejections, and the size
identities tying level and core cardinalities to central binomial
coefficients and Catalan numbers.
Every copy claim is certified by `_certify_copies` as exactly the
members between two bounds: each distinct copy source is read once, as
blocks (`levels._witness`), and each copy is proven in O(1) a translate
of the class (`dyck_core._class_of`) that its source's ends name.  eq1
and eq2 then check in O(1) that the parts the construction builds
level n from are those copies.  Within one `run_all` each region of a
level is read once (`_Ledger`): eq2(n) and prop12(n-2) take
eq1(n-1)'s witness of level n-2, and conj16 and conj18 take their
windows of a level that prop12 passed in closed form (`_window`); a
check called alone reads its own sources.  No check builds an odd
level or keeps a copy.  The construction applies the fragment-00 rule
without checking it; the rejection check compares it with the
membership of each 00 image: term by term when called alone, as
`verify rejection` calls it, and within a run from prop12's read of
the level the rule built, once that passed.
"""

from __future__ import annotations

import threading

import numpy as np

from .cores import core_size
from .dyck_core import _class_of, _rank, dyck_succ, is_dyck_number
from .errors import BoundError, DomainError, NotMember
from .levels import (
    MAX_MATERIALIZED_LEVEL,
    _Run,
    _Witness,
    _balance_ok,
    _blocks,
    _f00_keep,
    _level_array,
    _level_blocks,
    _level_parts,
    _witness,
    _work,
    core_top,
    level_size,
    mersenne,
    subsegment_bounds,
)
from .oeis_ref import a001405, a002054, catalan
from .patterns import _copy_chain
from .report import Counterexample, VerificationOutcome, check

__all__ = [
    "VerificationOutcome",
    "Counterexample",
    "verify_eq1",
    "verify_eq2",
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


class _Ledger(threading.local):
    """What the `run_all` on this thread has read: `sources` maps the id
    of each read-only array witnessed to the array and its `_Witness`,
    `levels` each level that prop12 passed to its first term.  None
    outside a run.  conj16 and conj18 take their windows of a level in
    `levels` in closed form; rejection takes its membership verdicts from
    it, for a source in `sources` that read without a fault."""

    sources: dict[int, tuple[np.ndarray, _Witness]] | None = None
    levels: dict[int, int] | None = None


_ledger = _Ledger()


@check("prop12")
def check_prop12(n: int) -> Counterexample | None:
    """Every term t of even level n generates the triplet
    (4t-1, 4t+1, 4t+3) in level n+2, landing in the same quarter
    segment of its level interval.

    Both are proven from level n, which is witnessed: read once, as
    blocks (`_witness`), its first term must have n bits, and its terms
    that width, be members, ascend strictly and number `level_size(n)`,
    reported in that order.  In a run, a resident level takes eq1(n+1)'s
    witness (`_read`): its stream is views of that same read-only array.

    Read from bit 0 up, the suffix balances of 4t + 1 are 1, 0, then
    t's; those of 4t + 3 are 1, 2, then t's plus 2; and for an odd t,
    those of 4t - 1 = 4(t-1) + 3 are 1, 2, 1, then t's from its second
    on.  A member is odd, so its three lifts are members of n + 2 bits,
    and a term of n bits that is no member has 4t + 1 no member: it is
    reported with its first lift, in the order -1, 1, 3, that is none.

    The quarter is proven, not computed.  With u = t - 2**(n-1) and
    q = 2**(n-3), t lies in quarter u // q of level n and 4t + d in
    quarter (4u + d) // 4q of level n+2.  As 4q * (u // q) <= 4u and
    4u + 4 <= 4q * (u // q + 1), these agree for d = 1 and 3 for every
    integer t, and for d = -1 unless q divides u; then t is even, and
    no member."""
    if n < 6 or n % 2:
        raise ValueError("the triplet lift is checked for even n >= 6")
    level = _read(_level_blocks(n))
    fault = level.fault
    if (level.read or fault) and level.first.bit_length() != n:
        fault = (level.first, 0, "width", n)
    if fault:
        t, below, kind, _ = fault
        if kind == "width":
            return Counterexample(t, f"a term of {n} bits", f"{t.bit_length()} bits")
        if kind == "member":
            lift = next(4 * t + d for d in (-1, 1, 3) if not is_dyck_number(4 * t + d))
            return Counterexample(t, f"{lift} in level {n + 2}", "absent")
        return Counterexample(t, f"above {below}", "not above")
    if level.read != level_size(n):
        return Counterexample("cardinality", level_size(n), level.read)
    if _ledger.levels is not None:
        _ledger.levels[n] = level.first
    return None


def _certify_copies(copies, lo: int, hi: int, nbits: int) -> Counterexample | None:
    """Check that the copies, (source, offset) pairs in order, are exactly
    the members in (lo, hi] of nbits bits.

    Each distinct source (by identity), an array, a stream of blocks or
    its `_witness`, is read once, on first use (`_read`).  Its ends name
    a class (P, m, theta) (`_class_of`), and by the class lemma
    (`dyck_core._class_ends`) each copy is proven in O(1): an offset = 0
    (mod 2**m) whose image ends name the prefix P + (offset >> m), of
    nbits - m bits, with the same theta makes the witnessed members
    members of nbits bits.  Each copy's first term must lie above lo or
    the copy before it, the last top at or below hi, and the copies must
    hold as many terms as `_rank` counts in (lo, hi]: ascending members
    there, as many as there are, are all of them.  A source need not be
    its whole class: none of these steps uses it.

    A bound that is no member, or a pair that cannot be drawn, fails the
    construction up front.  Then, copy by copy: a fault of its source,
    as its image in the first copy of it, which by the lemma fails the
    same way (a member image, which only a copy that is no translate
    makes, as the source term itself); the copy's proof.  Then a count
    of copies other than the members'."""
    try:
        copies, count = list(copies), _rank(hi) - _rank(lo)
    except (NotMember, DomainError) as exc:
        return _construction_failure(exc)
    seen: dict[int, _Witness] = {}
    prev, made = lo, 0
    for src, offset in copies:
        source = seen.get(id(src))
        if source is None:
            source = seen[id(src)] = _read(src)
            if source.fault:
                return _construction_failure(_image_fault(*source.fault, offset, hi))
        if source.read:
            reason = _copy_fault(source, offset, prev, hi, nbits)
            if reason:
                return _construction_failure(reason)
            prev = source.top + offset
        made += source.read
    if made != count:
        return Counterexample("cardinality", count, made)
    return None


def _read(src) -> _Witness:
    """`_witness(src)`, kept in the ledger for a read-only array: in a
    run, every check that copies the array itself takes one witness.  A
    `_Run` of a whole resident level is read as that level's array."""
    if isinstance(src, _Run) and src.level is not None:
        src = src.level
    sources = _ledger.sources
    if sources is None or not isinstance(src, np.ndarray) or src.flags.writeable:
        return _witness(src)
    kept = sources.get(id(src))
    if kept is None or kept[0] is not src:
        kept = sources[id(src)] = (src, _witness(src))
    return kept[1]


def _window(n: int, lo: int, hi: int):
    """The terms of level n in (lo, hi], for members M_{n-1} <= lo < hi
    <= M_n: as `_level_blocks` reads them, or, once prop12(n) has passed
    in this run, as their `_Witness` in closed form, reading no term.

    That prop12 read `level_size(n)` strictly ascending members of n
    bits.  There are exactly that many, so it read level n.  Its terms
    in (lo, hi] are then the members there: `_rank(hi) - _rank(lo)` of
    them, the first `dyck_succ(lo)` (the level's first term when lo =
    M_{n-1}), the top hi.  The bounds used, `core_top` and
    `subsegment_bounds`, are members, as `_subsegment_copies` already
    needs through `_rank`.  A prop12 that failed records nothing, and
    the window is read."""
    first = (_ledger.levels or {}).get(n)
    if first is None:
        return _level_blocks(n, lo, hi)
    if lo != mersenne(n - 1):
        first = dyck_succ(lo)
    return _Witness(first, hi, _rank(hi) - _rank(lo), None)


def _image_fault(t: int, below: int, kind: str, nbits: int, offset: int, hi: int) -> str:
    image = t + offset
    return (f"{image} does not ascend from {below + offset}" if kind == "ascent"
            else f"{image} lies above {hi}" if image > hi
            else f"{image} is not a term of the sequence" if not is_dyck_number(image)
            else f"{t} is not a term of {nbits} bits")


def _copy_fault(source: _Witness, offset: int, prev: int, hi: int, nbits: int) -> str | None:
    first, top = source.first + offset, source.top + offset
    if first <= prev:
        return f"{first} does not ascend from {prev}"
    prefix, m, theta = _class_of(source.first, source.top)
    if offset % (1 << m) or _class_of(first, top)[1:] != (m, theta) or top.bit_length() != nbits:
        bad = [t for t in (first, top) if not is_dyck_number(t)]
        return (f"{bad[0]} is not a term of the sequence" if bad
                else f"{first}..{top} is no {nbits}-bit translate of the class ({prefix}, {m}, {theta})")
    return f"{top} lies above {hi}" if top > hi else None


def _construction_failure(reason: Exception | str) -> Counterexample:
    return Counterexample("construction", "a valid pattern", str(reason))


@check("eq1")
def verify_eq1(n: int) -> Counterexample | None:
    """Check that odd level n, the members in (M_{n-1}, M_n], is two
    copies of level n-1 ending at M_n, the parts level n is built from."""
    if n < 5 or n % 2 == 0:
        raise ValueError("the doubling identity applies to odd n >= 5")
    return _certify_level(n, _level_array(n - 1), 2, mersenne(n - 1))


@check("eq2")
def verify_eq2(n: int) -> Counterexample | None:
    """Check that the tail of even level n, the members in (M_{n-1} +
    2**(n-3), M_n] above the core senior term, is three copies of level
    n-2 ending at M_n, the parts level n's tail is built from."""
    if n < 6 or n % 2:
        raise ValueError("the tail identity applies to even n >= 6")
    return _certify_level(n, _level_array(n - 2), 3, core_top(n))


def _certify_level(n: int, src: np.ndarray, k: int, lo: int) -> Counterexample | None:
    """Check that the members in (lo, M_n] are the k copies of src that
    `_copy_chain` lays out ending at M_n, then, in O(1) and reading no
    term, that the parts `_level_parts(n)` builds level n from, an even
    level's core (part 0) aside, are those copies, drawn again: each the
    certified array itself, whole (its f00 flag False), shifted by its
    copy's offset, and as many parts as copies."""
    top = mersenne(n)
    found = _certify_copies(_copy_chain(src, k, top), lo, top, n)
    if found:
        return found
    core = 1 - n % 2
    parts, copies = _level_parts(n)[core:], _copy_chain(src, k, top)
    for i, ((part, f00, shift), (_, offset)) in enumerate(zip(parts, copies), core):
        name = f"part {i} of level {n}"
        if part is not src:
            return Counterexample(name, "the certified source", "another array")
        if f00 is not False:
            return Counterexample(name, "no mask", "a mask")
        if shift != offset:
            return Counterexample(name, f"shift {offset}", f"shift {shift}")
    if len(parts) != k:
        return Counterexample(f"parts of level {n}", k, len(parts))
    return None


def _subsegment_copies(n: int, seg: int, copies, size: int) -> Counterexample | None:
    """Check that the copies, (source, offset) pairs in order, are
    subsegment `seg` (from 0) of the n-core, the members in its interval
    as `_certify_copies` certifies them, and that the subsegment holds
    the claimed `size` terms: as many as `_rank` counts there."""
    lo, hi = subsegment_bounds(n, seg)
    members = _rank(hi) - _rank(lo)
    if size != members:
        return Counterexample(f"subsegment {seg + 1} members", size, members)
    return _certify_copies(copies, lo, hi, n)


@check("conj16")
def check_conj16(n: int) -> Counterexample | None:
    """Subsegments 2 and 3 of the (n+2)-core are copies of the n-core
    at offsets 13*2**(n-3) and 7*2**(n-2)."""
    if n < 8 or n % 2:
        raise ValueError("core copying is checked for even n >= 8")
    # The n-core is the leading part of level n, read once for both copies.
    source = _witness(_window(n, mersenne(n - 1), core_top(n)))
    for seg, offset in ((1, 13 << (n - 3)), (2, 7 << (n - 2))):
        found = _subsegment_copies(n + 2, seg, [(source, offset)], core_size(n))
        if found:
            return found
    return None


@check("conj18")
def check_conj18(n: int) -> Counterexample | None:
    """The top subsegment of the n-core is a copy of the (n-4)-core, then
    three copies of the (n-2)-core's top subsegment, each a subsegment
    length of the (n-2)-core long, the last ending at the core top."""
    if n < 12 or n % 2:
        raise ValueError("the top-subsegment recursion is checked for even n >= 12")
    lo, prev_top = subsegment_bounds(n - 2, 3)
    top, length = core_top(n), prev_top - lo
    cube = _window(n - 2, lo, prev_top)  # read once for its three copies
    copies = [(_window(n - 4, mersenne(n - 5), core_top(n - 4)), top - 3 * length - core_top(n - 4))]
    copies += [(cube, top - k * length - prev_top) for k in (2, 1, 0)]
    return _subsegment_copies(n, 3, copies, a001405(n - 5))


@check("rejection")
def check_catalan_rejection(n: int) -> Counterexample | None:
    """The 00 fragment rejects exactly Cat(n/2 - 1) terms of level n-2,
    and zeroing the leading bit of each rejected term leaves a Dyck
    word: total balance 0 with no suffix dipping negative.

    The terms are those of the core part level n is built from, level
    n-2 under the 00 shift, and a term is rejected when its image is no
    member.  The rule the construction applies (`_f00_keep`) must agree
    term by term: the first term where it does not is reported, expected
    the verdict of membership, got the rule's.  Called alone, each image
    is tested (`_balance_ok`).

    Within a run, once prop12(n) has passed, the rule's verdicts are
    the membership verdicts, and only the rejected terms are read.  That
    prop12 read `level_size(n)` strictly ascending members of n bits:
    all of level n.  `levels` builds that stream from `_level_parts(n)`,
    part 0 being src[_f00_keep(src)] + shift with src level n-2.  Every
    image of a term of n-2 bits lies in (M_{n-1}, core_top(n)]; part 0
    ends at core_top(n), the kept image of M_{n-2}, and parts 1 to 3 lie
    above it.  So the kept images are exactly the members in that
    window: each kept image is a member, and, the shift being injective,
    no rejected image is one.  The proof needs src to be the array the
    stream was built from, so it is taken only for a read-only src that
    this run witnessed without a fault: `_level_array(n - 2)`, which
    eq1(n-1) and eq2(n) copy.  Any other src, such as a fresh array, is
    read term by term, as is any src when prop12(n) failed."""
    if n < 6 or n % 2:
        raise ValueError("rejection counts are checked for even n >= 6")
    src, _, shift = _level_parts(n)[0]
    witnessed = (_ledger.sources or {}).get(id(src))
    proven = (n in (_ledger.levels or {}) and witnessed is not None and witnessed[0] is src
              and not src.flags.writeable and witnessed[1].fault is None)
    # Zeroing keeps the code length, so the word has n - 2 bits, half of
    # them ones.  Read a block at a time: nothing level-sized is made.
    rejected, bad = 0, None
    for block in _blocks(src):
        keep = _f00_keep(block, n)
        if not proven:
            image = np.add(block, shift, out=_work.image[: len(block)], dtype=np.int64)
            differ = _balance_ok(image, n) != keep
            if differ.any():
                i = int(np.argmax(differ))
                member, rule = ("rejected", "kept") if keep[i] else ("kept", "rejected")
                return Counterexample(int(block[i]), member, rule)
        dropped = block[~keep]
        rejected += len(dropped)
        if bad is None and len(dropped):
            words = dropped - (1 << (n - 3))
            valid = _balance_ok(words, n - 2) & (np.bitwise_count(words) == n // 2 - 1)
            if not valid.all():
                bad = int(dropped[np.argmin(valid)])
    if rejected != catalan(n // 2 - 1):
        return Counterexample("cardinality", catalan(n // 2 - 1), rejected)
    if bad is not None:
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
# level above n - 1 and no core: level n and the copy sources are read
# as blocks.  Listed eq1 before eq2 and prop12, and prop12 before the
# rest, `run_all` reads each region of a level once, and rejection
# takes its membership verdicts from prop12; a check called alone reads
# its own sources, and `verify rejection` tests every image.
# The checkers look the check functions up when called, so a wrapper
# rebound over a module function (as perfbench/spans.py does) sees
# every call.
CHECKS = {
    "eq1": (lambda n: verify_eq1(n), 5),
    "eq2": (lambda n: verify_eq2(n), 6),
    "prop12": (lambda n: check_prop12(n), 6),
    "conj16": (lambda n: check_conj16(n), 8),
    "conj18": (lambda n: check_conj18(n), 12),
    "rejection": (lambda n: check_catalan_rejection(n), 6),
}


def planned_checks(names, max_n: int) -> list[tuple[str, int]]:
    """The (check name, n) pairs the named checks run at up to max_n.
    A check at n builds no level above n - 1 and reads at most level n,
    as blocks: raise BoundError when one would read a level above
    `MAX_MATERIALIZED_LEVEL` + 2, the highest that streams, before any
    pair is listed."""
    firsts = [CHECKS[name][1] for name in names]
    top = max((max_n - (max_n - first) % 2 for first in firsts if first <= max_n), default=0)
    if top > MAX_MATERIALIZED_LEVEL + 2:
        raise BoundError(
            f"max_n {max_n} needs level {top}, above level {MAX_MATERIALIZED_LEVEL + 2}, "
            "the highest that streams"
        )
    return [(name, n) for name, first in zip(names, firsts) for n in range(first, max_n + 1, 2)]


def run_all(max_n: int) -> list[VerificationOutcome]:
    """Every level-parameterized check at every applicable n <= max_n,
    ordered by (check name, n).  Size identities run once.  Raise
    BoundError before any check when a check would need a level above
    `MAX_MATERIALIZED_LEVEL` + 2."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    _ledger.sources, _ledger.levels = {}, {}
    try:
        outcomes = [CHECKS[name][0](n) for name, n in planned_checks(CHECKS, max_n)]
    finally:
        _ledger.sources = _ledger.levels = None
    if max_n >= 6:
        outcomes.extend(size_identity_checks(max_n))
    outcomes.sort(key=lambda o: (o.name, o.n))
    return outcomes
