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

import functools
from dataclasses import dataclass

import numpy as np

from .dyck_core import dyck_pred, dynamics, is_dyck_number
from .errors import DomainError, LevelMismatch, NotMember
from .levels import (
    Fragment,
    TermArray,
    _BLOCK,
    _F00_MIN_DYNAMICS,
    _core_array,
    _f00_mask,
    core_top,
    level_size,
    level_structural,
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
    top = core_top(n)
    arr = _core_array(n)
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
    src, keep = _f00_mask(n)
    return tuple(src[~keep].tolist())


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
    """A reusable pattern shape: its source run, whose offsets below its
    top any copy must repeat, plus the span that the copy must preserve."""

    name: str
    source: Pattern
    span: int

    @property
    def cardinality(self) -> int:
        return len(self.source)

    @functools.cached_property
    def sides(self) -> tuple[int, int]:
        """The shape's side of `_match_at`'s two scalar checks, as ints:
        its top minus its first term, and minus the term below its top
        (0 for a single term, where that check is not made)."""
        src = self.source.arr
        top = int(src[-1])
        return top - int(src[0]), top - int(src[-2]) if len(src) > 1 else 0


class PatternLibrary:
    """Registry of named shapes used by `decompose`.

    Registration order does not matter: matching tries larger
    cardinality first, breaking ties towards the shape defined at the
    higher level.
    """

    def __init__(self) -> None:
        self._shapes: dict[str, NamedShape] = {}

    def register(self, name: str, pattern: Pattern) -> NamedShape:
        if name in self._shapes:
            raise ValueError(f"shape {name!r} is already registered")
        shape = NamedShape(name=name, source=pattern, span=pattern_len(pattern))
        self._shapes[name] = shape
        return shape

    def __getitem__(self, name: str) -> NamedShape:
        return self._shapes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._shapes

    def names(self) -> tuple[str, ...]:
        return tuple(self._shapes)

    def by_priority(self) -> list[NamedShape]:
        return sorted(
            self._shapes.values(), key=lambda s: (-s.cardinality, -s.source.level, s.name)
        )


def standard_library(max_core: int = 10) -> PatternLibrary:
    """The shape library described by the decompositions themselves:
    the triplet and 6-level patterns, the small cores, and for every
    even k in [12, max_core] the k-core with its first and top
    subsegments, each valid by construction and not revalidated."""
    lib = PatternLibrary()
    lib.register("π4", Pattern(level_structural(4).arr))
    lib.register("π6", Pattern(level_structural(6).arr))
    for k in range(6, min(max_core, 10) + 1, 2):
        lib.register(f"μ{k}", Pattern(core(k).arr))
    for k in range(12, max_core + 1, 2):
        c = core(k)
        lib.register(f"μ{k}/1", Pattern(c.segments[0]))
        lib.register(f"μ{k}/4", Pattern(c.segments[3]))
        lib.register(f"μ{k}", Pattern(c.arr))
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


def _match_at(run: np.ndarray, i: int, shape: NamedShape) -> bool:
    """True when the last `shape.cardinality` terms ending at index i
    are a verified copy of the shape (same offsets, same span).

    Two scalar checks (the first term and the one below the top,
    against the shape's `sides`) reject most candidates before the
    window is compared with the shape's source in place, one `_BLOCK`
    of each at a time: `top - run[j]` against `src[-1] - src[b]`.  Each
    difference is taken in its own array's dtype, so object runs above
    the int64 range stay exact and no int32 term meets an int64 one
    before it is compared."""
    src = shape.source.arr
    k = len(src)
    if k > i + 1:
        return False
    first_side, below_side = shape.sides
    top, lo, last = run[i], i - k + 1, src[-1]
    if top - run[lo] != first_side:
        return False
    if k > 1 and top - run[i - 1] != below_side:
        return False
    for b in range(0, k, _BLOCK):
        part = src[b : b + _BLOCK]
        if not (top - run[lo + b : lo + b + len(part)] == last - part).all():
            return False
    first = int(run[lo])
    if first <= 0:
        return False
    return dyck_pred(first) == int(top) - shape.span


def decompose(
    terms: Pattern | tuple[int, ...] | list[int] | np.ndarray, library: PatternLibrary
) -> DecompositionExpr:
    """Greedy decomposition of a contiguous run against the library,
    working from the senior term downwards.  A `Pattern` is taken as the
    valid run it is; any other input is validated first.  Single-term
    shapes never match (a lone term prints as itself), and adjacent
    matches of the same shape collapse into a power.
    """
    run = terms.arr if isinstance(terms, Pattern) else make_pattern(terms).arr
    # Longest first: shapes[start:] are those that fit in run[: i + 1].
    shapes = [s for s in library.by_priority() if s.cardinality >= 2]
    pieces: list[NamedPattern | Singleton] = []
    i, start = len(run) - 1, 0
    while i >= 0:
        while start < len(shapes) and shapes[start].cardinality > i + 1:
            start += 1
        matched = None
        for shape in shapes[start:]:
            if _match_at(run, i, shape):
                matched = shape
                break
        if matched is None:
            pieces.append(Singleton(int(run[i])))
            i -= 1
        else:
            pieces.append(NamedPattern(matched.name, int(run[i])))
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
