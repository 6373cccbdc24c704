"""Level enumeration by two independent methods.

A level collects every sequence term with one binary code length n; its
values lie in the half-open interval (M_{n-1}, M_n] between consecutive
Mersenne numbers.  ``level_scan`` filters raw odd candidates through the
membership predicate (the brute-force oracle), while ``level_structural``
rebuilds each level from smaller ones: an odd level is two shifted copies
of the level below it, an even level is the union of the four 2-bit
fragment images of the level two below (with the 00 fragment rejecting
terms of low dynamics).  The two must agree element for element.  The
fragment rule lives only here (`Fragment`, `_f00_keep`), applied one
block at a time and stored nowhere.

A level is described once, as its ordered parts (`_level_parts`), and
made one block at a time from them (`_part_blocks`).  `_level_array`
writes the blocks into one array; `_level_blocks` hands them out in one
reused buffer, so a check or a printout that reads level n in order
never needs level n itself resident, only level n-1 or n-2.  A level is
materialized only as the source of another level, and never above
`MAX_MATERIALIZED_LEVEL` (30), the one bound on levels: levels up to 32
stream, and cores up to the 32-core are made.  Materialized levels and
cores are stored in int32 (`TERM_DTYPE`), but for the 32-core; blocks
in flight and every operation on a stored term are int64.  One kernel,
`_class_runs`, tests membership a block at a time by the class lemma of
`dyck_core` at m = 16, and only this module reads its buffers and runs:
`_balance_ok` answers for any array, and `_witness` reads a run once,
up to its first fault, in the blocks `_blocks` slices every run into.
Strict ascent is tested as a level is made (`_part_blocks`), and by
`_witness` only in a run that the construction did not make (`_Run`).
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import threading
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .dyck_core import is_dyck_number
from .errors import BoundError, DomainError, NotMember

DEFAULT_SCAN_BOUND = 24
# The one bound on levels: the highest level ever materialized, checked
# in `_level_array`.  A level is read from its parts, an odd one from
# level n-1 and an even one from level n-2, so levels up to this bound
# + 2 stream, and a core up to this bound + 2 is made.
MAX_MATERIALIZED_LEVEL = 30
# The dtype of every materialized level, and of every core but the
# (MAX_MATERIALIZED_LEVEL + 2)-core.  Every term of a materialized level
# is at most M_n, which fits (asserted below `mersenne`).  The n-core is
# built from level n-2 and ends at core_top(n) = M_{n-1} + 2**(n-3): the
# 32-core, built from level 30, passes 2**31 and is the one materialized
# array kept in int64.  Each operation on a stored array names int64 as
# its dtype, and each search of one takes its probe in the array's
# dtype; numpy would otherwise compute in int32 and wrap, or copy the
# whole array to int64.
TERM_DTYPE = np.dtype(np.int32)
# Terms per block of the membership predicate: its temporaries stay in cache.
_BLOCK = 1 << 16
# The most runs of equal bits from 16 up that an ascending block is read
# in, a theta each; a block spanning more is read a theta a term.  The
# blocks of levels up to 32 span 1 to 40, 7 in the median.
_MAX_RUNS = 64
# The 00 fragment keeps exactly the level-(n-2) terms of at least this dynamics.
_F00_MIN_DYNAMICS = 4

_BASE_LEVELS = {1: (1,), 2: (3,)}

_array_cache: dict[int, np.ndarray] = {}


class _Work(threading.local):
    """Block-sized buffers of one thread, allocated once and reused by
    every call of the membership kernel and the fragment-00 rule, so
    that no hot loop allocates a block-sized array."""

    def __init__(self) -> None:
        self.index = np.empty(_BLOCK, dtype=np.intp)
        self.gather = np.empty(_BLOCK, dtype=np.int8)
        self.theta = np.empty(_BLOCK, dtype=np.int8)
        self.step = np.empty(_BLOCK, dtype=np.int8)
        self.passed = np.empty(_BLOCK, dtype=bool)
        self.ones = np.empty(_BLOCK, dtype=np.uint8)
        self.image = np.empty(_BLOCK, dtype=np.int64)


_work = _Work()


class TermArray:
    """Base of the term containers: one read-only ascending ndarray
    `arr`, with `terms` as a tuple view built on first use.  A level or
    core built by the construction is stored in `TERM_DTYPE` (int32; the
    32-core, whose terms pass it, in int64) and widened to int64 by each
    operation on it; a run made from other terms is int64, or exact
    Python ints above the int64 range."""

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


assert mersenne(MAX_MATERIALIZED_LEVEL) <= np.iinfo(TERM_DTYPE).max


def level_index(t: int) -> int:
    """Binary code length of a term; 0 for the term 0."""
    t = operator.index(t)
    if not is_dyck_number(t):
        raise NotMember(f"{t} is not a term of the sequence")
    return t.bit_length()


def level_size(n: int) -> int:
    """Number of terms in level n: C(n-1, floor((n-1)/2))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.comb(n - 1, (n - 1) // 2)


@cache
def _chunk_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three int8 tables over the 16-bit chunks c: `lowest[c]`, the
    lowest ones-minus-zeros balance of a nonempty suffix of c read from
    bit 0 up; `balance[c]` = 2 * popcount(c) - 16; and `carry[c]`, which
    is `balance[c]` where `lowest[c] >= 0` and the sentinel -128
    elsewhere.  Built by doubling: a new high bit adds -1 or +1 to every
    balance and one more suffix.  The sentinel is below every theta of
    `_thetas`, and so fails every term."""
    lowest = np.array([127], dtype=np.int8)  # the empty chunk has no suffix
    balance = np.zeros(1, dtype=np.int8)
    for _ in range(16):
        down, up = balance - 1, balance + 1
        lowest = np.concatenate([np.minimum(lowest, down), np.minimum(lowest, up)])
        balance = np.concatenate([down, up])
    carry = np.where(lowest >= 0, balance, np.int8(-128))
    for table in (lowest, balance, carry):
        table.flags.writeable = False
    return lowest, balance, carry


def _class_runs(terms: np.ndarray, nbits: int, ascending: bool):
    """The membership kernel, on at most `_BLOCK` terms read as words
    of `nbits` bits: (low, heads, theta), where a term passes iff its
    `low` is at least the `theta` of its run.  Each array is a view of a
    buffer of `_work`, or small, and valid until the next call.

    It rests on the class lemma (`dyck_core._class_ends`) at m = 16: a
    word P * 2**16 + z is a member iff z has no negative suffix and
    bal(z) >= theta(P).  So `low` is `carry[z]` of each term, one
    gather: bal(z), or -128 where z has a negative suffix, which fails
    every theta (the bits from `nbits` up to 16 are set to 1 first; that
    changes no suffix of `nbits` bits or fewer, and only raises the
    balance of longer ones).
    A run is a stretch of terms of equal bits from 16 up, so of one P,
    and its theta is read once (`_thetas`).  For an ascending block
    (`ascending` vouches for it), `heads` holds the index of the first
    term of each run, found by searching the block for the multiples of
    2**16 between its ends, and `theta` one value a run.  A block
    spanning more than `_MAX_RUNS` of them, or in any other order, has
    `heads` None: each term is its own run, with its own theta."""
    m = len(terms)
    index, low = _work.index[:m], _work.gather[:m]
    if terms.dtype == index.dtype:
        np.bitwise_and(terms, 0xFFFF, out=index)
    else:  # a ufunc from another dtype into intp would cast through a buffer it allocates
        index[...] = terms
        index &= 0xFFFF
    if nbits < 16:
        index |= 0xFFFF ^ ((1 << nbits) - 1)
    # mode="clip" writes straight into `out`; "raise" would buffer it.
    _chunk_tables()[2].take(index, out=low, mode="clip")
    if nbits <= 16:
        return low, np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.int8)
    heads = None
    first, last = int(terms[0]) >> 16, int(terms[-1]) >> 16
    if ascending and last - first < _MAX_RUNS:
        # Searched in the block's own dtype, so the block is not copied;
        # a multiple with no term repeats the next start.
        heads = np.searchsorted(terms, np.arange(first << 16, (last << 16) + 1, 1 << 16, terms.dtype))
        heads = heads[np.diff(heads, append=m) > 0]
    return low, heads, _thetas(terms if heads is None else terms[heads], nbits)


def _thetas(terms: np.ndarray, nbits: int) -> np.ndarray:
    """theta(P) of each term, P its bits from 16 to `nbits` - 1, as int8
    in a buffer of `_work`: minus the lowest suffix balance of P, not
    floored at 0; it is -1 only where that balance is 1, and as a `low`
    is even or -128, it passes -1 iff it passes 0.  P is read a 16-bit
    chunk at a time from the top down, the bits above its top set to 1:
    the lowest balance of the chunks from i up is the least of
    `lowest[c_i]` and `balance[c_i]` plus that of the chunks from i + 1
    up.  A P of up to 16 bits takes one gather."""
    lowest, balance, _ = _chunk_tables()
    m = len(terms)
    index, theta, step = _work.index[:m], _work.theta[:m], _work.step[:m]
    top = (nbits - 17) // 16  # the top chunk of P
    for i in range(top, -1, -1):
        index[...] = terms
        index >>= 16 * (i + 1)
        index &= 0xFFFF
        if i == top:
            index |= (0xFFFF << (nbits - 16 * (top + 1))) & 0xFFFF
            lowest.take(index, out=theta, mode="clip")
        else:
            # |theta| <= 16 a chunk, at most 48 in all: int8 holds every sum.
            balance.take(index, out=step, mode="clip")
            theta += step
            lowest.take(index, out=step, mode="clip")
            np.minimum(theta, step, out=theta)
    return np.negative(theta, out=theta)


def _balance_ok(values: np.ndarray, nbits: int) -> np.ndarray:
    """Vectorized membership test: True where every suffix of the low
    `nbits` bits keeps a nonnegative ones-minus-zeros balance.

    Terms go through `_class_runs` in blocks of `_BLOCK`, each block
    tested for ascent first; a term passes where its `low` is at least
    its run's theta.  An ascending block costs one gather a term and one
    comparison a term, a run at a time; any other block one more gather
    a term for each 16 bits above the lowest 16.  Only the result is
    allocated, beside a few bytes a run."""
    if not 0 <= nbits <= 64:
        raise ValueError(f"nbits must be in 0..64, got {nbits}")
    flat = values.reshape(-1)
    ok = np.empty(flat.shape, dtype=bool)
    for start in range(0, flat.size, _BLOCK):
        terms = flat[start : start + _BLOCK]
        m = len(terms)
        ok_m = ok[start : start + m]
        ascending = np.greater_equal(terms[1:], terms[:-1], out=_work.passed[: m - 1]).all()
        low, heads, theta = _class_runs(terms, nbits, ascending)
        if heads is None:
            np.greater_equal(low, theta, out=ok_m)
            continue
        for s, e, t in zip(heads, np.append(heads[1:], m), theta):
            np.greater_equal(low[s:e], t, out=ok_m[s:e])
    return ok.reshape(values.shape)


def _blocks(run):
    """Views of 1 to `_BLOCK` terms (`_work`'s size) of `run`, an
    ndarray or an iterable of ndarrays, in order: the one block slicer,
    but for the loops filling `_balance_ok`'s and `_scan_array`'s results."""
    for part in [run] if isinstance(run, np.ndarray) else run:
        for start in range(0, len(part), _BLOCK):
            yield part[start : start + _BLOCK]


class _Run:
    """A run the construction made, and so ascending: the blocks of
    `_part_blocks`, which tests the ascent inside each block and across
    each seam, or views of a read-only level of `_array_cache`, which
    only `_level_array` fills, from `_part_blocks`."""

    def __init__(self, blocks) -> None:
        self.blocks = blocks

    def __iter__(self):
        return self

    def __next__(self) -> np.ndarray:
        return next(self.blocks)


class _Witness(NamedTuple):
    """A run read once: its ends, its size, and its first fault as
    (term, the term before it, kind, width), or None."""

    first: int
    top: int
    read: int
    fault: tuple[int, int, str, int] | None


def _witness(src) -> _Witness:
    """Read a run, an array or a stream of blocks, once, up to its first
    fault.  A block passes when it ascends strictly from the term before
    it, its two ends have the first term's width, and the least `low` of
    each run of `_class_runs` is at least the run's theta; every
    temporary of a block is then a buffer of `_work`, or a few bytes a
    run.  A block that does not is searched for its first fault: a term
    of other than the first term's width ("width", from the block's
    extremes, as membership reads the low bits of that width only), else
    a term that is no member ("member"), else one not above the term
    before it ("ascent"), untested in a `_Run` or a read-only level of
    `_array_cache`, whose ascent is proven.  A `_Witness` is returned as it is."""
    if isinstance(src, _Witness):
        return src
    proven = isinstance(src, _Run) or (isinstance(src, np.ndarray) and not src.flags.writeable
                                       and any(src is level for level in _array_cache.values()))
    first = prev = read = 0
    for block in _blocks(src):
        if not read:
            first, prev = int(block[0]), int(block[0]) - 1
            nbits = first.bit_length() or 1  # the term 0 fails its width
            lo, hi = mersenne(nbits - 1), mersenne(nbits)
        up = _work.passed[: len(block) - 1]
        ascends = proven or (int(block[0]) > prev and np.greater(block[1:], block[:-1], out=up).all())
        if ascends and lo < int(block[0]) and int(block[-1]) <= hi:
            low, heads, theta = _class_runs(block, nbits, True)
            least = low if heads is None else np.minimum.reduceat(low, heads)
            if np.greater_equal(least, theta, out=_work.passed[: len(least)]).all():
                prev, read = int(block[-1]), read + len(block)
                continue
        if block.min() <= lo or block.max() > hi:
            i, kind = int(np.argmax((block <= lo) | (block > hi))), "width"
        elif not (member := _balance_ok(block, nbits)).all():
            i, kind = int(np.argmin(member)), "member"
        else:  # of width and members, so it failed on its ascent
            i, kind = int(np.argmin(block > np.concatenate([[prev], block[:-1]]))), "ascent"
        below = int(block[i - 1]) if i else prev
        return _Witness(first, prev, read, (int(block[i]), below, kind, nbits))
    return _Witness(first, prev, read, None)


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


def _f00_keep(block: np.ndarray, n: int) -> np.ndarray:
    """True where the 00-fragment image of a term of `block`, at most
    `_BLOCK` members of level n-2 for even n >= 4, is a term of level n:
    where its dynamics is at least `_F00_MIN_DYNAMICS`; the other terms
    are rejected.  A view of a buffer of `_work`, valid until the next
    call.

    The image t + Fragment.F00.shift(n) = t - 2**(n-3) + 2**(n-1) is 100
    followed by the low n - 3 bits of t.  Read from bit 0 up, its suffix
    balances are the first n - 3 of t's, then b - 1, b - 2 and b - 1,
    where b = dynamics(t) - 1 is the balance of those low bits.  t's are
    >= 0, so the image is a member iff b >= 2, that is dynamics(t) >= 3;
    dynamics(t) has the parity of n - 2, even, so iff dynamics(t) >= 4."""
    ones = np.bitwise_count(block, out=_work.ones[: len(block)])
    # Dynamics 2 * ones - (n - 2), counted in uint8; n is even, so the
    # bound on the ones is exact.  Each verdict overwrites its count.
    return np.greater_equal(ones, (n - 2 + _F00_MIN_DYNAMICS) // 2, out=ones.view(bool))


def _core_array(n: int) -> np.ndarray:
    """The n-core for even n >= 6: the 00-fragment survivors of level
    n-2, or a view of level n's leading block when level n is resident.
    Level n-2 is made first, so n above the bound is refused before the
    core's size, or its n-bit top, is computed."""
    core = _level_parts(n)[:1]
    size = level_size(n) - 3 * level_size(n - 2)
    level = _array_cache.get(n)
    if level is not None:
        return level[:size]
    # Only the (MAX_MATERIALIZED_LEVEL + 2)-core's terms pass TERM_DTYPE
    # (see TERM_DTYPE); each block is written once, into its place.
    fits = core_top(n) <= np.iinfo(TERM_DTYPE).max
    arr = np.empty(size, dtype=TERM_DTYPE if fits else np.int64)
    for _ in _part_blocks(n, core, out=arr):
        pass
    return arr


def core_top(n: int) -> int:
    """Senior term M_{n-1} + 2**(n-3) of the n-core; for odd n, the lower-half centre."""
    if n < 5:
        raise DomainError("the core top and the central terms are defined for n >= 5")
    return mersenne(n - 1) + (1 << (n - 3))


def subsegment_bounds(n: int, i: int) -> tuple[int, int]:
    """The interval (lo, hi] of subsegment i (from 0) of the n-core, even
    n >= 10: four intervals of length 2**(n-5) from M_{n-1} to the top."""
    if n < 10 or n % 2 or not 0 <= i <= 3:
        raise DomainError("subsegments 0..3 are defined for cores with even n >= 10")
    lo = mersenne(n - 1) + (i << (n - 5))
    return lo, lo + (1 << (n - 5))


def _scan_array(n: int) -> np.ndarray:
    lo, hi = mersenne(n - 1), mersenne(n)
    start = lo + 1 if lo % 2 == 0 else lo + 2
    count = (hi - start) // 2 + 1
    # The odd candidates one block at a time, stepped in place: no
    # candidate array is level-sized, only a byte per candidate.
    member = np.empty(count, dtype=bool)
    candidates = np.arange(start, start + 2 * _BLOCK, 2, dtype=np.int64)
    for i in range(0, count, _BLOCK):
        block = candidates[: count - i]
        member[i : i + len(block)] = _balance_ok(block, n)
        candidates += 2 * _BLOCK
    terms = np.flatnonzero(member).astype(np.int64, copy=False)
    terms *= 2
    terms += start
    return terms


def level_scan(n: int) -> Level:
    """Enumerate level n by filtering every odd candidate in
    (M_{n-1}, M_n] through the membership predicate."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DEFAULT_SCAN_BOUND:
        raise BoundError(f"level {n} exceeds the scan bound {DEFAULT_SCAN_BOUND}")
    return Level(n, _scan_array(n))


def _level_parts(n: int) -> list[tuple[np.ndarray, bool, int]]:
    """Level n as its ascending parts (source, f00, shift), each the
    terms of source + shift, only those `_f00_keep` keeps where f00 is
    set.  Odd n: two copies of level n-1.  Even n: the core (level n-2
    under the fragment-00 rule), then the 01, 10 and 11 images of level
    n-2.  The source is made on the call, where `_level_array` refuses
    a level above the bound."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 2:
        return [(np.array(_BASE_LEVELS[n], dtype=TERM_DTYPE), False, 0)]
    if n % 2:
        prev = _level_array(n - 1)
        return [(prev, False, 1 << (n - 2)), (prev, False, 1 << (n - 1))]
    src = _level_array(n - 2)
    return [(src, f is Fragment.F00, f.shift(n)) for f in Fragment]


def _level_array(n: int) -> np.ndarray:
    """Level n, materialized once and kept; the one check of
    `MAX_MATERIALIZED_LEVEL`."""
    if n > MAX_MATERIALIZED_LEVEL:
        raise BoundError(
            f"level {n} exceeds the bound {MAX_MATERIALIZED_LEVEL} on materialized levels"
        )
    cached = _array_cache.get(n)
    if cached is not None:
        return cached
    # Each block is written once, into its place in the level.
    arr = np.empty(level_size(n), dtype=TERM_DTYPE)
    for _ in _part_blocks(n, _level_parts(n), out=arr):
        pass
    arr.flags.writeable = False
    _array_cache[n] = arr
    return arr


def _span(arr: np.ndarray, shift: int, lo: int | None, hi: int | None) -> np.ndarray:
    """The slice of arr whose terms, plus shift, lie in (lo, hi]."""
    probe = arr.dtype.type
    i = 0 if lo is None else int(np.searchsorted(arr, probe(lo - shift), side="right"))
    j = len(arr) if hi is None else int(np.searchsorted(arr, probe(hi - shift), side="right"))
    return arr[i:j]


def _level_blocks(n: int, lo: int | None = None, hi: int | None = None):
    """The terms of level n in (lo, hi], ascending, at most `_BLOCK` at
    a time; no bound means the whole level.  The levels under the parts
    are built on the call, so a level above
    `MAX_MATERIALIZED_LEVEL` + 2 is refused there, when its source
    would be materialized; the blocks are made as they are drawn.  A
    resident level yields views of itself, any other level the blocks of
    `_part_blocks` in one reused buffer, so no block may be held past
    the next.  Both are a `_Run`, but for a writeable resident level."""
    level = _array_cache.get(n)
    if level is None:
        return _Run(_part_blocks(n, _level_parts(n), lo, hi))
    blocks = _blocks(_span(level, 0, lo, hi))
    return blocks if level.flags.writeable else _Run(blocks)


def _part_blocks(n: int, parts, lo: int | None = None, hi: int | None = None, out=None):
    """The terms of the parts of level n in (lo, hi] as blocks, each the
    terms of at most `_BLOCK` source terms: written one after another
    into `out` when it is given, which the parts must fill exactly, else
    each into one reused int64 buffer.  Strict ascent is checked inside every
    block and across every seam."""
    reuse = out is None
    if reuse:
        out = np.empty(_BLOCK, dtype=np.int64)
    up = np.empty(_BLOCK, dtype=bool)
    prev, pos = None, 0
    for src, f00, shift in parts:
        for block in _blocks(_span(src, shift, lo, hi)):
            if f00:
                block = block[_f00_keep(block, n)]  # boolean indexing beats np.compress
            m = len(block)
            if not m:
                continue
            if m > len(out) - pos:  # never in the reused buffer, where pos is 0
                raise AssertionError(f"level {n} construction makes more than {len(out)} terms")
            # In the dtype of `out`: int64 in the reused buffer and the
            # 32-core, and TERM_DTYPE in any other level or core.
            block = np.add(block, shift, out=out[pos : pos + m], dtype=out.dtype)
            ascending = np.greater(block[1:], block[:-1], out=up[: m - 1])
            if (prev is not None and block[0] <= prev) or not ascending.all():
                raise AssertionError(f"level {n} construction is not strictly ascending")
            prev = int(block[-1])
            pos = 0 if reuse else pos + m
            yield block
    if not reuse and pos != len(out):
        raise AssertionError(f"level {n} construction makes {pos} terms, not {len(out)}")


def level_structural(n: int) -> Level:
    """Rebuild level n from the base levels 1 and 2 by the shifted-copy
    (odd n) and fragment-image (even n) recursions."""
    return Level(n, _level_array(n))


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


def _stream_blocks(count: int):
    """The first `count` terms as ascending blocks: the term 0, then
    each level from 1 up as `_level_blocks` reads it, the last one cut
    short.  The count is checked on the call against the term 0 and
    every level that streams."""
    if count < 1:
        raise ValueError("count must be >= 1")
    top = MAX_MATERIALIZED_LEVEL + 2
    limit = 1 + sum(level_size(k) for k in range(1, top + 1))
    if count > limit:
        raise BoundError(f"the first {count} terms reach above level {top}; at most {limit} terms")

    def blocks():
        yield np.zeros(1, dtype=np.int64)
        left, n = count - 1, 0
        while left:
            n += 1
            for block in _level_blocks(n):
                yield block[:left]
                left -= min(left, len(block))
                if not left:
                    break

    return blocks()


def stream_terms(count: int) -> tuple[int, ...]:
    """First `count` terms of the sequence, starting at 0, produced
    level by level from the structural generator."""
    return tuple(itertools.chain.from_iterable(block.tolist() for block in _stream_blocks(count)))
