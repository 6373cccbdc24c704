"""The greedy array matcher that `cores.decompose` replaced, kept as the
oracle its class descent is tested against.

It works from the senior term of a run downwards: at each position it
tries the library's shapes of at least two terms, longest first, and
takes the first whose window ending there repeats the shape's offsets
below its top and preserves its span; a term that no shape matches is a
singleton.  Adjacent copies of one shape collapse into a power.
"""

from __future__ import annotations

import numpy as np

from dycknums.cores import (
    DecompositionExpr,
    Join,
    NamedPattern,
    NamedShape,
    PatternLibrary,
    Power,
    Singleton,
)
from dycknums.dyck_core import dyck_pred
from dycknums.levels import _BLOCK
from dycknums.patterns import Pattern, make_pattern


def sides(shape: NamedShape) -> tuple[int, int]:
    """The shape's side of `_match_at`'s two scalar checks, as ints:
    its top minus its first term, and minus the term below its top
    (0 for a single term, where that check is not made)."""
    src = shape.source.arr
    top = int(src[-1])
    return top - int(src[0]), top - int(src[-2]) if len(src) > 1 else 0


def _match_at(run: np.ndarray, i: int, shape: NamedShape) -> bool:
    """True when the last `shape.cardinality` terms ending at index i
    are a verified copy of the shape (same offsets, same span).

    Two scalar checks (the first term and the one below the top,
    against the shape's `sides`) reject most candidates before the
    window is compared with the shape's source in place, one `_BLOCK`
    of each at a time: `top - run[j]` against `src[-1] - src[b]`.  Each
    difference is taken in its own array's dtype, so object runs above
    the int64 range stay exact."""
    src = shape.source.arr
    k = len(src)
    if k > i + 1:
        return False
    first_side, below_side = sides(shape)
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


def greedy_decompose(terms, library: PatternLibrary) -> DecompositionExpr:
    """The greedy decomposition of a contiguous run against the library."""
    run = terms.arr if isinstance(terms, Pattern) else make_pattern(terms).arr
    # Longest first: shapes[start:] are those that fit in run[: i + 1].
    shapes = [s for s in library.by_priority() if s.cardinality >= 2]
    pieces: list[NamedPattern | Singleton] = []
    i, start = len(run) - 1, 0
    while i >= 0:
        while start < len(shapes) and shapes[start].cardinality > i + 1:
            start += 1
        matched = next((s for s in shapes[start:] if _match_at(run, i, s)), None)
        if matched is None:
            pieces.append(Singleton(int(run[i])))
            i -= 1
        else:
            pieces.append(NamedPattern(matched.name, int(run[i])))
            i -= matched.cardinality
    pieces.reverse()

    parts: list[DecompositionExpr] = []
    for piece in pieces:
        if isinstance(piece, NamedPattern) and parts and isinstance(parts[-1], (NamedPattern, Power)):
            prev = parts[-1]
            prev_name = prev.name if isinstance(prev, NamedPattern) else prev.child.name
            if prev_name == piece.name:
                count = 2 if isinstance(prev, NamedPattern) else prev.k + 1
                parts[-1] = Power(piece, count)
                continue
        parts.append(piece)
    return parts[0] if len(parts) == 1 else Join(tuple(parts))
