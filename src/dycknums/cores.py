"""Core extraction and decomposition of term runs into named patterns.

The core of an even level n is its initial segment up to the senior
term M_{n-1} + 2**(n-3): exactly the surviving images of the 00
fragment applied to level n-2.  The number of rejected terms is the
Catalan number Cat(n/2 - 1), one per Dyck word obtained by zeroing the
rejected term's leading bit.  From n = 10 upwards a core splits into
four equal value intervals (subsegments) of length 2**(n-5).  The
fragment rule lives in `levels`, which builds a core from level n-2.

Runs of terms are decomposed against a library of named shapes
(triplet, level and core patterns), each one class of terms with a
fixed prefix and m free low bits, by descent over the classes of the
run's level; the pieces of a whole class are memoized, as a class of
equal key is their translate (the class lemma, `dyck_core._class_ends`).
The result is an expression tree of joins, powers, named pattern copies
and leftover singletons that evaluates back to the input exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dyck_core import _class_ends, _class_of, dynamics, is_dyck_number
from .errors import DomainError, LevelMismatch, NotMember
from .levels import (
    Fragment,
    TermArray,
    _BLOCK,
    _F00_MIN_DYNAMICS,
    _core_array,
    _f00_keep,
    _level_array,
    _level_blocks,
    core_top,
    level_size,
    subsegment_bounds,
)
from .oeis_ref import catalan
from .patterns import Pattern, _chain, _shifted, make_pattern, pattern_len


def fragment_image(t: int, fragment: Fragment, n: int) -> int | None:
    """Image of a level-(n-2) term under one 2-bit fragment insertion,
    or None when the 00 fragment breaks the suffix-balance property.

    The 00 fragment rejects exactly the terms of low dynamics (maximal
    proper suffix of balance 1) and the others reject none; the explicit
    balance check of the constructed code must agree with that rule.
    """
    if n < 6 or n % 2:
        raise ValueError("fragment images target even levels n >= 6")
    if t.bit_length() != n - 2:
        raise LevelMismatch(f"{t} does not have binary length {n - 2}")
    if not is_dyck_number(t):
        raise NotMember(f"{t} is not a term of the sequence")
    image = t + fragment.shift(n)
    valid = is_dyck_number(image)
    if valid != (fragment is not Fragment.F00 or dynamics(t) >= _F00_MIN_DYNAMICS):
        raise AssertionError(f"the {fragment.name} image of {t} disagrees with the rejection rule")
    return image if valid else None


@dataclass(frozen=True, eq=False)
class Core(TermArray):
    """Initial segment of an even level up to M_{n-1} + 2**(n-3).

    `segments` holds the 4-way split by value intervals of length
    2**(n-5) as views of `arr`; it is None below n = 10 where the split
    is undefined.
    """

    n: int
    arr: np.ndarray
    top: int
    segments: tuple[np.ndarray, ...] | None


_core_cache: dict[int, Core] = {}


def core(n: int) -> Core:
    """The n-core: the leading block of the even-level construction,
    equal to the surviving 00-fragment images of level n-2."""
    cached = _core_cache.get(n)
    if cached is not None:
        return cached
    if n < 6 or n % 2:
        raise DomainError("cores exist for even n >= 6")
    arr = _core_array(n)  # refuses n above the bound before its n-bit top is made
    top = core_top(n)
    assert arr.size and arr[-1] == top, "core must end at its senior term"
    segments = None
    if n >= 10:
        # Every term lies above M_{n-1}, where subsegment 0 starts.
        inner = [subsegment_bounds(n, i)[1] for i in range(3)]
        # The probes in the core's dtype: numpy would copy it to theirs.
        cuts = np.searchsorted(arr, np.array(inner, dtype=arr.dtype), side="right")
        segments = tuple(np.split(arr, cuts))
    result = Core(n=n, arr=arr, top=top, segments=segments)
    _core_cache[n] = result
    return result


def core_size(n: int) -> int:
    """Number of terms in the n-core: the size of level n-2 minus
    Cat(n/2 - 1) rejected terms."""
    if n < 6 or n % 2:
        raise DomainError("cores exist for even n >= 6")
    return level_size(n - 2) - catalan(n // 2 - 1)


def rejected_terms(n: int) -> tuple[int, ...]:
    """Level n-2 terms whose 00-fragment image is rejected."""
    if n < 6 or n % 2:
        raise DomainError("cores exist for even n >= 6")
    src = _level_array(n - 2)
    blocks = (src[start : start + _BLOCK] for start in range(0, len(src), _BLOCK))
    return tuple(t for block in blocks for t in block[~_f00_keep(block, n)].tolist())


def subsegments(c: Core) -> tuple[tuple[int, ...], ...]:
    """The 4-way split of a core into value intervals of length
    2**(n-5), defined for n >= 10."""
    if c.segments is None:
        raise DomainError("subsegments are defined for cores with n >= 10")
    return tuple(tuple(seg.tolist()) for seg in c.segments)


def core_subsequence(max_n: int) -> tuple[int, ...]:
    """Concatenation of the cores of levels 6, 8, ..., max_n."""
    if max_n < 6 or max_n % 2:
        raise DomainError("max_n must be an even integer >= 6")
    return tuple(np.concatenate([core(n).arr for n in range(6, max_n + 1, 2)]).tolist())


# -- decomposition ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NamedShape:
    """A reusable pattern shape: the class (prefix, m, theta) of its
    terms, and the span, its top minus the predecessor of its first
    term, that a copy must preserve."""

    name: str
    prefix: int
    m: int
    theta: int
    span: int

    @property
    def level(self) -> int:
        return self.prefix.bit_length() + self.m

    @property
    def cardinality(self) -> int:
        return math.comb(self.m, (self.m + self.theta) // 2)

    @functools.cached_property
    def source(self) -> Pattern:
        """The shape's own run, read from its level on first use."""
        first, top = _class_ends(self.prefix << self.m, self.m, self.theta)
        blocks = _level_blocks(self.level, first - 1, top)
        return Pattern(np.concatenate([block.astype(np.int64) for block in blocks]))


class PatternLibrary:
    """Registry of named shapes used by `decompose`, each one class.

    Registration order does not matter: of shapes with equal (m, theta),
    the one defined at the higher level is used, then the first by name.
    The library keeps the decomposition of each whole class it has met
    for as long as it lives.
    """

    def __init__(self) -> None:
        self._shapes: dict[str, NamedShape] = {}
        self._by_class: dict[tuple[int, int], list[NamedShape]] = {}
        self._memo: dict[tuple[int, int], tuple[tuple[str | None, int], ...]] = {}

    def register(self, name: str, pattern: Pattern) -> NamedShape:
        """Add a pattern that is exactly one class, as its own source;
        raise ValueError for any other run."""
        first, top = int(pattern.arr[0]), pattern.top
        prefix, m, theta = _class_of(first, top)
        if _class_ends(prefix << m, m, theta) != (first, top):
            raise ValueError(f"shape {name!r} is not one class of terms")
        shape = self._add(name, prefix, m, theta, pattern_len(pattern))
        shape.__dict__["source"] = pattern  # the run given, not a copy
        return shape

    def _add(self, name: str, prefix: int, m: int, theta: int, span: int) -> NamedShape:
        if name in self._shapes:
            raise ValueError(f"shape {name!r} is already registered")
        shape = NamedShape(name, prefix, m, theta, span)
        self._shapes[name] = shape
        if shape.cardinality >= 2:  # a lone term prints as itself
            same = self._by_class.setdefault((m, theta), [])
            same.append(shape)
            same.sort(key=_priority)
        self._memo.clear()
        return shape

    def __getitem__(self, name: str) -> NamedShape:
        return self._shapes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._shapes

    def names(self) -> tuple[str, ...]:
        return tuple(self._shapes)

    def by_priority(self) -> list[NamedShape]:
        return sorted(self._shapes.values(), key=_priority)

    def _pieces(self, m: int, theta: int) -> tuple[tuple[str | None, int], ...]:
        """The pieces of a whole class, each a shape name (None for a
        single term) and its top's offset below the class top, from the
        top down; () for an empty class.  A shape of the class's (m,
        theta) and two or more terms names it, with no span test, as
        both span 2**m (`_class_ends`); else one term stands alone, and
        any other class is its 1-child's pieces, then its 0-child's.

        Memoized by (m, theta): the shape depends on (m, theta) alone,
        and so do the children's (m, theta) and the offsets of their
        tops (0 and 2**(m - 1)), so by induction on m classes of equal
        (m, theta) have their pieces at equal offsets."""
        key = (m, theta)
        pieces = self._memo.get(key)
        if pieces is None:
            if theta > m:
                return ()
            name = next((s.name for s in self._by_class.get(key, ())), None)
            if name is not None or m == 0:
                pieces = ((name, 0),)
            else:
                half = 1 << m - 1
                pieces = self._pieces(m - 1, abs(theta - 1)) + tuple(
                    (name, offset + half) for name, offset in self._pieces(m - 1, theta + 1)
                )
            self._memo[key] = pieces
        return pieces

    def _descend(self, lo: int, hi: int) -> list[tuple[str | None, int]]:
        """(name, top) of each piece of the terms of hi's level in (lo,
        hi], from the top down: the classes of the level that the bounds
        cut are split, at most one per bit at each end, and each whole
        class inside is decomposed by `_pieces`."""
        m = hi.bit_length() - 1
        stack = [(1 << m, m, m & 1)]  # the level: prefix 1, no negative suffix
        out: list[tuple[str | None, int]] = []
        while stack:
            base, m, theta = stack.pop()
            first, top = _class_ends(base, m, theta)
            if theta > m or top <= lo or first > hi:
                continue
            if lo < first and top <= hi:
                out.extend((name, top - offset) for name, offset in self._pieces(m, theta))
                continue
            stack += [(base, m - 1, theta + 1), (base + (1 << m - 1), m - 1, abs(theta - 1))]
        return out


def _priority(shape: NamedShape) -> tuple[int, int, str]:
    """Larger cardinality first, then the shape defined at the higher level."""
    return -shape.cardinality, -shape.level, shape.name


def standard_library(max_core: int = 10) -> PatternLibrary:
    """The shape library described by the decompositions themselves:
    the triplet and 6-level patterns (level 4 and level 6), and for
    every even k in [6, max_core] the k-core (prefix 100), with, from
    k = 12, its first and top subsegments (prefixes 10000 and 10011).
    Each is recorded as its class in closed form; no term is made."""
    lib = PatternLibrary()
    lib._add("π4", 0b1, 3, 1, 8)
    lib._add("π6", 0b1, 5, 1, 32)
    for k in range(6, max_core + 1, 2):
        lib._add(f"μ{k}", 0b100, k - 3, 3, 1 << k - 3)
        if k >= 12:
            lib._add(f"μ{k}/1", 0b10000, k - 5, 5, 1 << k - 5)
            lib._add(f"μ{k}/4", 0b10011, k - 5, 1, 1 << k - 5)
    return lib


@dataclass(frozen=True)
class NamedPattern:
    """A copy of a library shape with the given senior term."""

    name: str
    top: int


@dataclass(frozen=True)
class Singleton:
    """A term matched by no library shape."""

    term: int


@dataclass(frozen=True)
class Power:
    """k adjacent copies of one shape, the last ending at child.top."""

    child: NamedPattern
    k: int


@dataclass(frozen=True)
class Join:
    """Ascending concatenation of adjacent parts."""

    parts: tuple["DecompositionExpr", ...]


DecompositionExpr = NamedPattern | Singleton | Power | Join


def decompose(
    terms: range | Pattern | tuple[int, ...] | list[int] | np.ndarray, library: PatternLibrary
) -> DecompositionExpr:
    """Decomposition of a contiguous run of one level against the
    library, by descent over the classes of the level (`_descend`).  A
    `range` stands for the terms in it and is read from its bounds
    alone; a `Pattern` is taken as the valid run it is; any other input
    is validated first.  Adjacent copies of the same shape collapse into
    a power.  The result is the greedy longest match from the senior
    term down (the tests keep that matcher as the oracle)."""
    if isinstance(terms, range):
        if terms.step != 1 or not terms or terms.start.bit_length() != terms[-1].bit_length():
            raise ValueError("a range of terms must ascend by 1 within one binary length")
        lo, hi = terms.start - 1, terms[-1]
    else:
        run = terms.arr if isinstance(terms, Pattern) else make_pattern(terms).arr
        lo, hi = int(run[0]) - 1, int(run[-1])
    pieces = library._descend(lo, hi) if hi else [(None, 0)]
    if not pieces:
        raise ValueError(f"no term lies in ({lo}, {hi}]")

    parts: list[DecompositionExpr] = []
    for name, top in reversed(pieces):
        piece = Singleton(top) if name is None else NamedPattern(name, top)
        if name is not None and parts and isinstance(parts[-1], (NamedPattern, Power)):
            prev = parts[-1]
            prev_name = prev.name if isinstance(prev, NamedPattern) else prev.child.name
            if prev_name == piece.name:
                count = 2 if isinstance(prev, NamedPattern) else prev.k + 1
                parts[-1] = Power(piece, count)
                continue
        parts.append(piece)
    if len(parts) == 1:
        return parts[0]
    return Join(tuple(parts))


def evaluate(expr: DecompositionExpr, library: PatternLibrary) -> tuple[int, ...]:
    """Materialize an expression back into its term tuple."""
    if isinstance(expr, Singleton):
        return (expr.term,)
    if isinstance(expr, NamedPattern):
        return _shifted(library[expr.name].source, expr.top).terms
    if isinstance(expr, Power):
        return _chain(library[expr.child.name].source, expr.k, expr.child.top).terms
    if isinstance(expr, Join):
        out: list[int] = []
        for part in expr.parts:
            out.extend(evaluate(part, library))
        return tuple(out)
    raise TypeError(f"not a decomposition expression: {expr!r}")


def format_expr(expr: DecompositionExpr) -> str:
    """Render an expression in join/power notation, e.g.
    '(543) ⊕ μ8(607)^2 ⊕ π6(639)'.  Adjacent singletons merge into one
    parenthesized tuple."""
    parts = expr.parts if isinstance(expr, Join) else (expr,)
    rendered: list[str] = []
    singles: list[int] = []
    for part in parts:
        if isinstance(part, Singleton):
            singles.append(part.term)
            continue
        if singles:
            rendered.append("(" + ",".join(map(str, singles)) + ")")
            singles = []
        if isinstance(part, NamedPattern):
            rendered.append(f"{part.name}({part.top})")
        elif isinstance(part, Power):
            rendered.append(f"{part.child.name}({part.child.top})^{part.k}")
        else:
            rendered.append(format_expr(part))
    if singles:
        rendered.append("(" + ",".join(map(str, singles)) + ")")
    return " ⊕ ".join(rendered)
