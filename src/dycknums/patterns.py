"""Pattern algebra over contiguous runs of sequence terms, and the two
level identities built from copies.

A pattern is an ascending array of adjacent terms sharing one binary
length.  Patterns are copied by a constant shift, joined end to end when
sequence-adjacent, and raised to powers (a chain of copies each shifted
down by the pattern length).  The identities: an odd level n is two
copies of level n-1 ending at M_n (eq1), and the tail of an even level n
above its core is three copies of level n-2 ending at M_n (eq2).  Each
is checked against the definition of a level, the members between two
bounds, by the interval certificate `_certify_copies` that also checks
conj16 and conj18: the copies are made a block at a time and certified
as exactly the members in (lo, hi], by membership, ascent and the exact
count of `_rank`.  Neither builds an odd level or keeps a copy, and eq2
reads level n itself only as blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyck_core import _rank, dyck_pred, is_dyck_number
from .errors import (
    DomainError,
    InvalidCopy,
    MixedLevels,
    NotACopy,
    NotAdjacent,
    NotContiguous,
    NotMember,
    PatternError,
)
from .levels import (
    _BLOCK,
    TermArray,
    _balance_ok,
    _level_array,
    _level_blocks,
    core_top,
    mersenne,
)
from .report import Counterexample, check, first_block_mismatch

# `_shifted` adds its offset in int64 only below this value, where the
# sum cannot overflow; above it, in exact Python ints.
_VECTOR_LIMIT = 1 << 62


@dataclass(frozen=True, eq=False)
class Pattern(TermArray):
    """Ascending contiguous run of terms of one binary length.

    Build through `make_pattern`, which validates membership,
    contiguity and the single-level requirement; direct construction is
    reserved for arrays already known to be valid runs.
    """

    arr: np.ndarray

    @property
    def top(self) -> int:
        """The senior term."""
        return int(self.arr[-1])

    @property
    def shape(self) -> tuple[int, ...]:
        """Offsets of each term below the senior term."""
        return tuple((self.arr[-1] - self.arr).tolist())

    @property
    def level(self) -> int:
        return self.top.bit_length()


@dataclass(frozen=True)
class CopyRelation:
    """A verified copy: target is the term-wise shift of source by
    offset, with the span preserved.  Build through `copy_relation`."""

    source: Pattern
    target: Pattern
    offset: int


def copy_relation(source: Pattern, target: Pattern) -> CopyRelation:
    """Validate the copy relation between two patterns and package it."""
    return CopyRelation(source, target, offset_of(source, target))


def _run_array(values) -> np.ndarray:
    """A copy of the given terms: int64 when they fit, exact Python ints
    (object dtype) otherwise.  An array of a dtype that casts safely to
    int64, a stored level's int32 among them, is one `astype`."""
    if isinstance(values, np.ndarray) and np.can_cast(values.dtype, np.int64):
        return values.astype(np.int64)
    exact = [int(v) for v in values]
    try:
        return np.array(exact, dtype=np.int64)
    except OverflowError:
        return np.array(exact, dtype=object)


def _validate_run(arr: np.ndarray) -> None:
    """Raise unless arr is an ascending run of members of one binary
    length that holds every term between its ends: as many terms as
    `_rank` counts there.  The one validator of every run, at any size;
    it builds no level."""
    if arr.size == 0:
        raise ValueError("a pattern needs at least one term")
    if bool(np.any(arr[1:] <= arr[:-1])):
        raise ValueError("terms must be strictly ascending")
    lo, hi = int(arr[0]), int(arr[-1])
    if lo < 0:
        raise ValueError("terms must be nonnegative")
    if arr.dtype == object:
        member = np.array([is_dyck_number(t) for t in arr.tolist()])
    else:
        member = np.ones(arr.shape, dtype=bool)  # the term 0 is a member
        for nbits in range(max(lo, 1).bit_length(), hi.bit_length() + 1):
            i, j = np.searchsorted(arr, [mersenne(nbits - 1), mersenne(nbits)], side="right")
            member[i:j] = _balance_ok(arr[i:j], nbits)
    if not bool(member.all()):
        raise NotMember(f"{int(arr[np.argmin(member)])} is not a term of the sequence")
    if len(arr) != _rank(hi) - _rank(lo) + 1:
        raise NotContiguous(f"run {lo}..{hi} skips intermediate terms")
    if lo.bit_length() != hi.bit_length():
        raise MixedLevels(
            f"terms span binary lengths {lo.bit_length()}..{hi.bit_length()}"
        )


def make_pattern(terms) -> Pattern:
    """Validate a sequence or array of terms as a pattern."""
    arr = _run_array(terms)
    _validate_run(arr)
    return Pattern(arr)


def pattern_len(p: Pattern) -> int:
    """Numeric span of a pattern: top minus the predecessor of its
    first term.  For a whole level this is 2**(n-1)."""
    first = int(p.arr[0])
    if first == 0:
        raise DomainError("length is undefined for a pattern starting at 0")
    return p.top - dyck_pred(first)


def _shifted(p: Pattern, new_top: int) -> Pattern:
    """p shifted so its senior term lands on new_top, validated as a
    run.  Allows shifts in either direction; new_top == p.top returns p
    unchanged."""
    if new_top == p.top:
        return p
    delta = new_top - p.top
    if max(new_top, p.top) < _VECTOR_LIMIT:
        shifted = np.add(p.arr, delta, dtype=np.int64)
    else:
        shifted = _run_array([t + delta for t in p.arr.tolist()])
    try:
        _validate_run(shifted)
    except (ValueError, NotMember, PatternError) as exc:
        raise InvalidCopy(
            f"no copy of the pattern exists at top {new_top}: {exc}"
        ) from exc
    return Pattern(shifted)


def copy_at(p: Pattern, new_top: int) -> Pattern:
    """Copy of p with senior term new_top > p.top.  Every shifted value
    must be a member and the shifted tuple must stay contiguous."""
    if not is_dyck_number(new_top):
        raise InvalidCopy(f"{new_top} is not a term of the sequence")
    if new_top <= p.top:
        raise InvalidCopy("a copy must lie above the source pattern")
    return _shifted(p, new_top)


def offset_of(p: Pattern, q: Pattern) -> int:
    """Verified copy offset: q must be a term-wise constant shift of p,
    lying strictly above it, with the span preserved (the predecessors
    of the first terms shift by the same amount)."""
    if len(p) != len(q):
        raise NotACopy("patterns differ in cardinality")
    p_first, q_first = int(p.arr[0]), int(q.arr[0])
    if q_first <= p.top:
        raise NotACopy("a copy must lie strictly above the source pattern")
    delta = q.top - p.top
    if not bool(np.all(q.arr - p.arr == delta)):
        raise NotACopy("term-wise offsets are not constant")
    try:
        if dyck_pred(q_first) - dyck_pred(p_first) != delta:
            raise NotACopy("the copy does not preserve the pattern span")
    except DomainError as exc:
        raise NotACopy("offset undefined for patterns starting at 0") from exc
    return delta


def join(x: Pattern, y: Pattern) -> Pattern:
    """Concatenate two sequence-adjacent patterns into one."""
    y_first = int(y.arr[0])
    if dyck_pred(y_first) != x.top:
        raise NotAdjacent(f"{x.top} does not immediately precede {y_first}")
    return make_pattern(np.concatenate([x.arr, y.arr]))


def power(p: Pattern, k: int) -> Pattern:
    """k adjacent copies of p ending at p.top, each shifted down from
    the next by the pattern span."""
    if k < 2:
        raise ValueError("power requires k >= 2")
    span = pattern_len(p)
    wide = np.result_type(np.int64, p.arr)  # int64, or object for exact Python ints
    combined = np.concatenate(
        [np.subtract(p.arr, j * span, dtype=wide) for j in range(k - 1, -1, -1)]
    )
    try:
        _validate_run(combined)
    except (NotMember, PatternError) as exc:
        raise InvalidCopy(
            f"no chain of {k} copies exists below top {p.top}: {exc}"
        ) from exc
    return Pattern(combined)


def lift_copy(p: Pattern) -> Pattern:
    """The copy of p one level up obtained by prepending a 1 bit to
    every term (always exists)."""
    return _shifted(p, p.top + (1 << p.level))


def _copy_chain(src: np.ndarray, k: int, top: int):
    """k copies of the run src as (src, offset) pairs, lowest first: the
    top one ends at top, and each lower one lies a span below the next,
    the span being top minus the predecessor of the top copy's first
    term.  Made as drawn: a first term that has no predecessor raises
    NotMember or DomainError when the first pair is drawn."""
    shift = top - int(src[-1])
    span = top - dyck_pred(int(src[0]) + shift)
    for j in range(k - 1, -1, -1):
        yield src, shift - j * span


def _certify_copies(copies, lo: int, hi: int, nbits: int, built=None) -> Counterexample | None:
    """Check that the copies, (source, offset) pairs in order, each source
    an array or a stream of blocks, are exactly the members in (lo, hi]
    of nbits bits; with `built`, an array or a stream of blocks, that
    they equal it term by term.

    The copies are made one block of at most `_BLOCK` terms at a time.
    Every term must be a member, at or below hi, and above the one
    before it, across block and copy seams too, the first above lo; and
    there must be as many as `_rank` counts in (lo, hi].  Ascending
    members in (lo, hi], as many as there are, are all of them.  No copy
    is kept, so the check needs one block of memory beyond the sources
    and built.  A bound that is no member, or a pair that cannot be
    drawn, fails the construction up front.  Then reported first is a
    count of copies other than the members', then a built stream of the
    wrong length, then the first term where it differs from the copies,
    which lies below any failing copy block, then the failing term."""
    failure = []

    def blocks():
        buf = np.empty(_BLOCK, dtype=np.int64)
        ok_buf, in_buf = np.empty(_BLOCK, dtype=bool), np.empty(_BLOCK, dtype=bool)
        pieces = ((part[start : start + _BLOCK], offset)
                  for src, offset in copies
                  for part in ([src] if isinstance(src, np.ndarray) else src)
                  for start in range(0, len(part), _BLOCK))
        prev = lo
        for piece, offset in pieces:
            m = len(piece)
            block, ok = np.add(piece, offset, out=buf[:m], dtype=np.int64), ok_buf[:m]
            ok[0] = block[0] > prev
            np.greater(block[1:], block[:-1], out=ok[1:])
            ok &= np.less_equal(block, hi, out=in_buf[:m])
            ok &= _balance_ok(block, nbits)
            if not ok.all():
                i = int(np.argmin(ok))
                t, below = int(block[i]), int(block[i - 1]) if i else prev
                failure.append(_construction_failure(
                    f"{t} does not ascend from {below}" if t <= below
                    else f"{t} lies above {hi}" if t > hi
                    else f"{t} is not a term of the sequence"
                ))
                return
            prev = int(block[-1])
            yield block

    try:
        copies, count = list(copies), _rank(hi) - _rank(lo)
    except (NotMember, DomainError) as exc:
        return _construction_failure(exc)
    if built is None:
        mismatch, made = None, sum(len(block) for block in blocks())
        size = count
    else:
        mismatch, size, made = first_block_mismatch(built, blocks())
    if not failure and made != count:
        return Counterexample("cardinality", count, made)
    if size != count:
        return Counterexample("cardinality", size, count)
    return mismatch or (failure[0] if failure else None)


@check("eq1")
def verify_eq1(n: int) -> Counterexample | None:
    """Check that odd level n, the members in (M_{n-1}, M_n], is two
    copies of level n-1, the top one ending at M_n."""
    if n < 5 or n % 2 == 0:
        raise ValueError("the doubling identity applies to odd n >= 5")
    top = mersenne(n)
    return _certify_copies(_copy_chain(_level_array(n - 1), 2, top), mersenne(n - 1), top, n)


@check("eq2")
def verify_eq2(n: int) -> Counterexample | None:
    """Check that the tail of even level n, the members in (M_{n-1} +
    2**(n-3), M_n] above the core senior term, is three copies of level
    n-2, the top one ending at M_n, and that the construction of level
    n, read as blocks, holds exactly them."""
    if n < 6 or n % 2:
        raise ValueError("the tail identity applies to even n >= 6")
    top = mersenne(n)
    return _certify_copies(
        _copy_chain(_level_array(n - 2), 3, top), core_top(n), top, n,
        built=_level_blocks(n, lo=core_top(n)),
    )


def _construction_failure(reason: Exception | str) -> Counterexample:
    return Counterexample("construction", "a valid pattern", str(reason))
