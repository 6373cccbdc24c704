"""Pattern algebra over contiguous runs of sequence terms.

A pattern is an ascending array of adjacent terms sharing one binary
length.  Patterns are copied by a constant shift, joined end to end when
sequence-adjacent, and raised to powers (a chain of copies each shifted
down by the pattern length).  Every chain of copies, one copy or k, is
laid out by `_copy_chain`, and every run the algebra takes or makes is
validated by `_validate_run`, which counts the members between its ends
by `_rank` and builds no level.
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
from .levels import TermArray, _balance_ok, mersenne

# `_chain` lays its copies out in int64 only below this value, where the
# sums cannot overflow; above it, in exact Python ints.
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


def _copy_chain(src, k: int, top: int):
    """k copies of the run src as (src, offset) pairs, lowest first: the
    top one ends at top, and each lower one lies a span below the next,
    the span being top minus the predecessor of the top copy's first
    term (a lone copy needs none).  Made as drawn: a first term that has
    no predecessor raises NotMember or DomainError when the first pair
    is drawn."""
    shift = top - int(src[-1])
    span = top - dyck_pred(int(src[0]) + shift) if k > 1 else 0
    for j in range(k - 1, -1, -1):
        yield src, shift - j * span


def _chain(p: Pattern, k: int, top: int) -> Pattern:
    """The k copies of p that `_copy_chain` lays out, ending at top, as
    one run validated once.  Raise InvalidCopy unless they are a valid
    run."""
    try:
        pairs = list(_copy_chain(p.arr, k, top))
        if max(top, p.top, -pairs[0][1]) < _VECTOR_LIMIT:
            arr = np.concatenate([np.add(src, offset, dtype=np.int64) for src, offset in pairs])
        else:
            arr = _run_array([t + offset for src, offset in pairs for t in src.tolist()])
        _validate_run(arr)
    except (ValueError, DomainError, NotMember, PatternError) as exc:
        raise InvalidCopy(f"no copy chain of length {k} ends at {top}: {exc}") from exc
    return Pattern(arr)


def _shifted(p: Pattern, new_top: int) -> Pattern:
    """p shifted so its senior term lands on new_top, validated as a
    run.  Allows shifts in either direction; new_top == p.top returns p
    unchanged."""
    return p if new_top == p.top else _chain(p, 1, new_top)


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
    if int(p.arr[0]) == 0:
        raise DomainError("power is undefined for a pattern starting at 0")
    return _chain(p, k, p.top)


def lift_copy(p: Pattern) -> Pattern:
    """The copy of p one level up obtained by prepending a 1 bit to
    every term (always exists)."""
    return _shifted(p, p.top + (1 << p.level))
