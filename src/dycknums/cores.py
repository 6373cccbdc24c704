"""Core extraction and decomposition of term runs into named patterns.

The core of an even level n is its initial segment up to the senior
term M_{n-1} + 2**(n-3): exactly the surviving images of the 00
fragment applied to level n-2.  The number of rejected terms is the
Catalan number Cat(n/2 - 1), one per Dyck word obtained by zeroing the
rejected term's leading bit.  From n = 10 upwards a core splits into
four equal value intervals (subsegments) of length 2**(n-5).  The
fragment rule lives in `levels`, which builds a core from level n-2.

Runs of terms are decomposed against a library of named shapes
(triplet, level and core patterns) by greedy longest match from the
senior term downwards; the result is an expression tree of joins,
powers, named pattern copies and leftover singletons that evaluates
back to the input exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dyck_core import dyck_pred, dynamics, is_dyck_number
from .errors import DomainError, LevelMismatch, NotMember
from .levels import (
    Fragment,
    TermArray,
    _F00_MIN_DYNAMICS,
    _core_array,
    _f00_mask,
    core_top,
    level_size,
    level_structural,
)
from .oeis_ref import catalan
from .patterns import Pattern, _shifted, make_pattern, pattern_len, power


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

    @cached_property
    def subsegments(self) -> tuple[tuple[int, ...], ...] | None:
        """The segments as tuples of Python ints."""
        if self.segments is None:
            return None
        return tuple(tuple(seg.tolist()) for seg in self.segments)


_core_cache: dict[int, Core] = {}


def core(n: int) -> Core:
    """The n-core: the leading block of the even-level construction,
    equal to the surviving 00-fragment images of level n-2."""
    cached = _core_cache.get(n)
    if cached is not None:
        return cached
    if n < 6 or n % 2:
        raise DomainError("cores exist for even n >= 6")
    top = core_top(n)
    arr = _core_array(n)
    assert arr.size and arr[-1] == top, "core must end at its senior term"
    segments = None
    if n >= 10:
        # Every core term lies above M_{n-1} = top - 4 * quarter, so
        # the three inner bounds split the core into the four intervals.
        quarter = 1 << (n - 5)
        inner = [top - 3 * quarter, top - 2 * quarter, top - quarter]
        segments = tuple(np.split(arr, np.searchsorted(arr, inner, side="right")))
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
    src, keep = _f00_mask(n)
    return tuple(src[~keep].tolist())


def subsegments(c: Core) -> tuple[tuple[int, ...], ...]:
    """The 4-way split of a core into value intervals of length
    2**(n-5), defined for n >= 10."""
    if c.subsegments is None:
        raise DomainError("subsegments are defined for cores with n >= 10")
    return c.subsegments


def core_subsequence(max_n: int) -> tuple[int, ...]:
    """Concatenation of the cores of levels 6, 8, ..., max_n."""
    if max_n < 6 or max_n % 2:
        raise DomainError("max_n must be an even integer >= 6")
    return tuple(np.concatenate([core(n).arr for n in range(6, max_n + 1, 2)]).tolist())


# -- decomposition ----------------------------------------------------------


@dataclass(frozen=True)
class NamedShape:
    """A reusable pattern shape: offsets below the top plus the span
    that any copy must preserve."""

    name: str
    source: Pattern
    offsets: tuple[int, ...]  # ascending from 0 (senior term first)
    span: int

    @property
    def cardinality(self) -> int:
        return len(self.offsets)


class PatternLibrary:
    """Registry of named shapes used by `decompose`.

    Registration order does not matter: matching tries larger
    cardinality first, breaking ties towards the shape defined at the
    higher level.
    """

    def __init__(self) -> None:
        self._shapes: dict[str, NamedShape] = {}
        self._order: list[NamedShape] | None = None

    def register(self, name: str, pattern: Pattern) -> NamedShape:
        if name in self._shapes:
            raise ValueError(f"shape {name!r} is already registered")
        shape = NamedShape(
            name=name,
            source=pattern,
            offsets=pattern.shape[::-1],
            span=pattern_len(pattern),
        )
        self._shapes[name] = shape
        self._order = None
        return shape

    def __getitem__(self, name: str) -> NamedShape:
        return self._shapes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._shapes

    def names(self) -> tuple[str, ...]:
        return tuple(self._shapes)

    def by_priority(self) -> list[NamedShape]:
        if self._order is None:
            self._order = sorted(
                self._shapes.values(),
                key=lambda s: (-s.cardinality, -s.source.level, s.name),
            )
        return self._order


def standard_library(max_core: int = 10) -> PatternLibrary:
    """The shape library described by the decompositions themselves:
    the triplet and 6-level patterns, the small cores, and for every
    even k in [12, max_core] the k-core with its first and top
    subsegments."""
    lib = PatternLibrary()
    lib.register("π4", make_pattern(level_structural(4).arr))
    lib.register("π6", make_pattern(level_structural(6).arr))
    if max_core >= 6:
        lib.register("μ6", make_pattern(core(6).arr))
    if max_core >= 8:
        lib.register("μ8", make_pattern(core(8).arr))
    if max_core >= 10:
        lib.register("μ10", make_pattern(core(10).arr))
    for k in range(12, max_core + 1, 2):
        c = core(k)
        lib.register(f"μ{k}/1", make_pattern(c.segments[0]))
        lib.register(f"μ{k}/4", make_pattern(c.segments[3]))
        lib.register(f"μ{k}", make_pattern(c.arr))
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


def _match_at(terms: tuple[int, ...], i: int, shape: NamedShape) -> bool:
    """True when the last `shape.cardinality` terms ending at index i
    are a verified copy of the shape (same offsets, same span)."""
    k = shape.cardinality
    if k > i + 1:
        return False
    top = terms[i]
    for j, off in enumerate(shape.offsets):
        if terms[i - j] != top - off:
            return False
    first = top - shape.offsets[-1]
    if first <= 0:
        return False
    return dyck_pred(first) == top - shape.span


def decompose(
    terms: tuple[int, ...] | list[int] | np.ndarray, library: PatternLibrary
) -> DecompositionExpr:
    """Greedy decomposition of a contiguous run against the library,
    working from the senior term downwards.

    Single-term shapes never match (a lone term prints as itself), and
    adjacent matches of the same shape collapse into a power.
    """
    run = make_pattern(terms).terms
    shapes = [s for s in library.by_priority() if s.cardinality >= 2]
    pieces: list[NamedPattern | Singleton] = []
    i = len(run) - 1
    while i >= 0:
        matched = None
        for shape in shapes:
            if _match_at(run, i, shape):
                matched = shape
                break
        if matched is None:
            pieces.append(Singleton(run[i]))
            i -= 1
        else:
            pieces.append(NamedPattern(matched.name, run[i]))
            i -= matched.cardinality
    pieces.reverse()

    parts: list[DecompositionExpr] = []
    for piece in pieces:
        if (
            isinstance(piece, NamedPattern)
            and parts
            and isinstance(parts[-1], (NamedPattern, Power))
        ):
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
        base = _shifted(library[expr.child.name].source, expr.child.top)
        return power(base, expr.k).terms
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
