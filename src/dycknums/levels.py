"""Level enumeration by two independent methods.

A level collects every sequence term with one binary code length n; its
values lie in the half-open interval (M_{n-1}, M_n] between consecutive
Mersenne numbers.  ``level_scan`` filters raw odd candidates through the
membership predicate (the brute-force oracle), while ``level_structural``
rebuilds each level from smaller ones: an odd level is two shifted copies
of the level below it, an even level is the union of the four 2-bit
fragment images of the level two below (with the 00 fragment rejecting
terms of low dynamics).  The two must agree element for element.  The
fragment rule lives only here (`Fragment`, `_f00_mask`, `_core_array`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dyck_core import is_dyck_number
from .errors import BoundError, DomainError, NotMember

DEFAULT_SCAN_BOUND = 24
DEFAULT_STRUCTURAL_BOUND = 30
MAX_MATERIALIZED_TERMS = 1 << 28
# The 00 fragment keeps exactly the level-(n-2) terms of at least this dynamics.
_F00_MIN_DYNAMICS = 4

_BASE_LEVELS = {1: (1,), 2: (3,)}

_array_cache: dict[int, np.ndarray] = {}


class TermArray:
    """Base of the term containers: one read-only ascending ndarray
    `arr` (int64, or exact Python ints above the int64 range), with
    `terms` as a tuple view built on first use."""

    arr: np.ndarray

    def __post_init__(self) -> None:
        self.arr.flags.writeable = False

    @cached_property
    def terms(self) -> tuple[int, ...]:
        """The terms as a tuple of Python ints."""
        return tuple(self.arr.tolist())

    def __len__(self) -> int:
        return len(self.arr)

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and np.array_equal(self.arr, other.arr)

    def __hash__(self) -> int:
        return hash(self.terms)


@dataclass(frozen=True, eq=False)
class Level(TermArray):
    """One level: its index n and the ascending array of terms."""

    n: int
    arr: np.ndarray


@dataclass(frozen=True)
class CentralTerms:
    """The three power-of-two anchors inside a level: the level centre
    H_n, the centre of the upper half, and the senior term of the core
    (the centre of the lower half)."""

    n: int
    h: int
    upper_center: int
    core_top: int


def mersenne(n: int) -> int:
    """2**n - 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (1 << n) - 1


def level_index(t: int) -> int:
    """Binary code length of a term; 0 for the term 0."""
    if not is_dyck_number(t):
        raise NotMember(f"{t} is not a term of the sequence")
    return t.bit_length()


def level_size(n: int) -> int:
    """Number of terms in level n: C(n-1, floor((n-1)/2))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.comb(n - 1, (n - 1) // 2)


def _balance_ok(values: np.ndarray, nbits: int) -> np.ndarray:
    """Vectorized membership test: True where every suffix of the low
    `nbits` bits keeps a nonnegative ones-minus-zeros balance.

    A suffix of odd length k has odd balance, so it is nonnegative
    exactly when at least (k + 1) / 2 of its bits are ones; a suffix of
    even length adds one bit to an odd one whose balance is then at
    least 1.  Checking the odd lengths therefore suffices."""
    ok = np.ones(values.shape, dtype=bool)
    for k in range(1, nbits + 1, 2):
        ok &= np.bitwise_count(values & ((1 << k) - 1)) >= (k + 1) // 2
    return ok


class Fragment(enum.Enum):
    """The 2-bit word inserted after the leading 1 of a term to lift it
    two levels; the numeric value fixes the shift of the image."""

    F00 = 0
    F01 = 1
    F10 = 2
    F11 = 3

    def shift(self, n: int) -> int:
        """Image offset at even target level n."""
        return (1 << (n - 1)) + (self.value - 1) * (1 << (n - 3))


def _f00_mask(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Level n-2 for even n >= 4, and the mask of its terms whose
    00-fragment image is a term of level n; the rest are rejected."""
    src = _level_array(n - 2)
    dynamics = 2 * np.bitwise_count(src).astype(np.int64) - (n - 2)
    keep = dynamics >= _F00_MIN_DYNAMICS
    # Dual route: the dynamics shortcut must agree with an explicit
    # suffix-balance check of the constructed codes.
    if not np.array_equal(_balance_ok(src + Fragment.F00.shift(n), n), keep):
        raise AssertionError(f"fragment-00 rejection mismatch at level {n}")
    return src, keep


def _core_array(n: int) -> np.ndarray:
    """The n-core for even n >= 4: the 00-fragment survivors of level
    n-2, or a view of level n's leading block when level n is resident."""
    level = _array_cache.get(n)
    if level is not None:
        return level[: len(level) - 3 * level_size(n - 2)]
    src, keep = _f00_mask(n)
    return src[keep] + Fragment.F00.shift(n)


def core_top(n: int) -> int:
    """Senior term M_{n-1} + 2**(n-3) of the n-core; for odd n, the lower-half centre."""
    if n < 5:
        raise DomainError("the core top and the central terms are defined for n >= 5")
    return mersenne(n - 1) + (1 << (n - 3))


def _scan_array(n: int) -> np.ndarray:
    lo, hi = mersenne(n - 1), mersenne(n)
    start = lo + 1 if lo % 2 == 0 else lo + 2
    candidates = np.arange(start, hi + 1, 2, dtype=np.int64)
    return candidates[_balance_ok(candidates, n)]


def level_scan(n: int, scan_bound: int = DEFAULT_SCAN_BOUND) -> Level:
    """Enumerate level n by filtering every odd candidate in
    (M_{n-1}, M_n] through the membership predicate."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > scan_bound:
        raise BoundError(f"level {n} exceeds the scan bound {scan_bound}")
    return Level(n, _scan_array(n))


def _level_array(n: int, structural_bound: int = DEFAULT_STRUCTURAL_BOUND) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > structural_bound:
        raise BoundError(f"level {n} exceeds the structural bound {structural_bound}")
    if level_size(n) > MAX_MATERIALIZED_TERMS:
        raise BoundError(f"level {n} would materialize more than 2**28 terms")
    cached = _array_cache.get(n)
    if cached is not None:
        return cached
    if n <= 2:
        arr = np.array(_BASE_LEVELS[n], dtype=np.int64)
    elif n % 2:
        prev = _level_array(n - 1, structural_bound)
        arr = np.concatenate([prev + (1 << (n - 2)), prev + (1 << (n - 1))])
    else:
        prev = _level_array(n - 2, structural_bound)
        arr = np.concatenate([_core_array(n)] + [prev + f.shift(n) for f in list(Fragment)[1:]])
    if not bool(np.all(arr[1:] > arr[:-1])):
        raise AssertionError(f"level {n} construction is not strictly ascending")
    arr.flags.writeable = False
    _array_cache[n] = arr
    return arr


def level_structural(n: int, structural_bound: int = DEFAULT_STRUCTURAL_BOUND) -> Level:
    """Rebuild level n from the base levels 1 and 2 by the shifted-copy
    (odd n) and fragment-image (even n) recursions."""
    return Level(n, _level_array(n, structural_bound))


def central_terms(n: int) -> CentralTerms:
    """Level centre H_n = M_n - 2**(n-2) plus the upper-half centre
    M_n - 2**(n-3) and the core senior term M_{n-1} + 2**(n-3)."""
    top = core_top(n)  # raises DomainError below n = 5
    return CentralTerms(
        n=n,
        h=mersenne(n) - (1 << (n - 2)),
        upper_center=mersenne(n) - (1 << (n - 3)),
        core_top=top,
    )


def _stream_array(count: int, structural_bound: int = DEFAULT_STRUCTURAL_BOUND) -> np.ndarray:
    if count < 1:
        raise ValueError("count must be >= 1")
    parts = [np.zeros(1, dtype=np.int64)]
    total, n = 1, 1
    while total < count:
        arr = _level_array(n, structural_bound)
        parts.append(arr)
        total += len(arr)
        n += 1
    return np.concatenate(parts)[:count]


def stream_terms(count: int) -> tuple[int, ...]:
    """First `count` terms of the sequence, starting at 0, produced
    level by level from the structural generator."""
    return tuple(_stream_array(count).tolist())
