"""Pattern algebra over contiguous runs of sequence terms.

A pattern is an ascending array of adjacent terms sharing one binary
length.  Patterns are copied by a constant shift, joined end to end when
sequence-adjacent, and raised to powers (a chain of copies each shifted
down by the pattern length).  The two structural identities verified
here: an odd level is the square of the previous level's pattern placed
at the level top, and the tail of an even level above the core is the
cube of the pattern two levels below.
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
    TermArray,
    _balance_ok,
    core_top,
    level_structural,
    mersenne,
)
from .report import Counterexample, check, first_mismatch

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
    (object dtype) otherwise."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values.copy()
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
        shifted = p.arr + delta
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
    combined = np.concatenate([p.arr - j * span for j in range(k - 1, -1, -1)])
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


def level_pattern(n: int) -> Pattern:
    """Whole level n viewed as a pattern."""
    return Pattern(level_structural(n).arr)


@check("eq1")
def verify_eq1(n: int) -> Counterexample | None:
    """Check that odd level n equals the square of the previous level's
    pattern placed at M_n."""
    if n < 5 or n % 2 == 0:
        raise ValueError("the doubling identity applies to odd n >= 5")
    expected = level_structural(n).arr
    try:
        built = power(copy_at(level_pattern(n - 1), mersenne(n)), 2)
    except PatternError as exc:
        return _construction_failure(exc)
    return first_mismatch(expected, built.arr)


@check("eq2")
def verify_eq2(n: int) -> Counterexample | None:
    """Check that the tail of even level n above the core senior term
    M_{n-1} + 2**(n-3) equals the cube of the pattern two levels below
    placed at M_n."""
    if n < 6 or n % 2:
        raise ValueError("the tail identity applies to even n >= 6")
    terms = level_structural(n).arr
    expected = terms[np.searchsorted(terms, core_top(n), side="right"):]
    try:
        built = power(copy_at(level_pattern(n - 2), mersenne(n)), 3)
    except PatternError as exc:
        return _construction_failure(exc)
    return first_mismatch(expected, built.arr)


def _construction_failure(exc: Exception) -> Counterexample:
    return Counterexample("construction", "a valid pattern", str(exc))
