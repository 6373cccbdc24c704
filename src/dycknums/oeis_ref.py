"""Reference formulas for the related OEIS sequences and a b-file
client for external validation.

The central families A052940/A290114/A086224/A052549 all obey
a(n+1) = 2*a(n) + 1 and pin down the power-of-two anchors of the
levels; A002054 counts the core sizes; A001405 counts the levels.
Index alignment with the OEIS is kept in an explicit table because the
four families disagree about their initial terms.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import (
    CacheMiss,
    DomainError,
    NetworkError,
    NoOverlap,
    ParseError,
)
from .files import write_atomic
from .levels import mersenne, stream_terms
from .report import Counterexample, VerificationOutcome, check

OEIS_HOST = "https://oeis.org"
DEFAULT_CACHE_DIR = ".oeis-cache"
CACHE_ENV_VAR = "DYCKNUMS_OEIS_CACHE"
OFFLINE_ENV_VAR = "DYCKNUMS_OFFLINE"

_SEQUENCE_ID = re.compile(r"\AA\d{6}\Z")


def catalan(k: int) -> int:
    """k-th Catalan number, exact."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.comb(2 * k, k) // (k + 1)


def a001405(n: int) -> int:
    """Central binomial coefficient C(n, floor(n/2))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(n, n // 2)


def a002054(k: int) -> int:
    """C(2k+1, k-1): the core-size sequence."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.comb(2 * k + 1, k - 1)


# name -> (first valid index, closed form, cross-check recomputation)
_FAMILIES: dict[str, tuple[int, object, object]] = {
    "A052940": (
        1,
        lambda n: mersenne(n + 1) + (1 << n),
        lambda n: (mersenne(n + 1) + mersenne(n + 2)) // 2,
    ),
    "A290114": (
        2,
        lambda n: mersenne(n) + (1 << (n - 1)),
        lambda n: (mersenne(n) + mersenne(n + 1)) // 2,
    ),
    "A086224": (
        0,
        lambda n: (mersenne(n + 2) + (1 << (n + 1))) + (1 << n),
        lambda n: mersenne(n + 3) - (1 << n),
    ),
    # The upstream formula claims n >= 0 but is non-integral there; the
    # valid domain starts at 1.
    "A052549": (
        1,
        lambda n: mersenne(n + 1) + (1 << (n - 1)),
        lambda n: 5 * (1 << (n - 1)) - 1,
    ),
}


def central_family(name: str, n: int) -> int:
    """Closed form for one of the four central-term families, checked
    against its second formulation from the same source."""
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    start, primary, secondary = _FAMILIES[name]
    if n < start:
        raise DomainError(f"{name} is defined here for n >= {start}")
    value = primary(n)
    if secondary(n) != value:
        raise AssertionError(f"{name}({n}): the two closed forms disagree")
    return value


@dataclass(frozen=True)
class BFile:
    """Parsed OEIS b-file: (index, value) records, indices ascending."""

    sequence_id: str
    records: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.records)


def parse_bfile(text: str, sequence_id: str = "") -> BFile:
    """Parse b-file text: 'index value' per line, '#' comments and
    blank lines skipped.  Malformed lines abort with their number."""
    records: list[tuple[int, int]] = []
    last_index = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(lineno, f"expected two fields, got {len(fields)}")
        try:
            index, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(lineno, f"non-integer field in {line!r}") from None
        if last_index is not None and index <= last_index:
            raise ParseError(lineno, f"index {index} is not increasing")
        last_index = index
        records.append((index, value))
    return BFile(sequence_id, tuple(records))


def _bundled_bfile(sequence_id: str) -> str | None:
    resource = resources.files("dycknums").joinpath(
        f"data/bfiles/b{sequence_id[1:]}.txt"
    )
    if resource.is_file():
        return resource.read_text()
    return None


def fetch_bfile(
    sequence_id: str,
    cache_dir: str | os.PathLike | None = None,
    offline: bool | None = None,
    timeout: float = 30.0,
) -> BFile:
    """Load the b-file for a sequence.

    Lookup order: the local cache directory, the fixtures bundled with
    the package, then (unless offline) an HTTPS fetch that is written
    to the cache atomically.  Offline mode comes from the argument or
    the DYCKNUMS_OFFLINE environment variable.
    """
    if not _SEQUENCE_ID.match(sequence_id):
        raise ValueError(f"malformed sequence id {sequence_id!r}")
    if offline is None:
        offline = os.environ.get(OFFLINE_ENV_VAR, "") not in ("", "0")
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR)
    cache_path = Path(cache_dir) / f"b{sequence_id[1:]}.txt"
    if cache_path.is_file():
        return parse_bfile(cache_path.read_text(), sequence_id)
    bundled = _bundled_bfile(sequence_id)
    if bundled is not None:
        return parse_bfile(bundled, sequence_id)
    if offline:
        raise CacheMiss(f"no cached b-file for {sequence_id} (offline mode)")
    # Imported here: only a fetch needs it, and it slows every import.
    import urllib.error
    import urllib.request

    url = f"{OEIS_HOST}/{sequence_id}/b{sequence_id[1:]}.txt"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            text = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise NetworkError(f"fetching {url} failed: {exc}") from exc
    bfile = parse_bfile(text, sequence_id)  # reject garbage before caching
    write_atomic(cache_path, [text])
    return bfile


def compare(
    values: list[tuple[int, int]] | tuple[tuple[int, int], ...],
    bfile: BFile,
    index_shift: int = 0,
) -> VerificationOutcome:
    """Element-wise comparison of computed (index, value) pairs against
    b-file records over the overlapping indices (computed index +
    index_shift == b-file index)."""
    table = bfile.as_dict()
    overlap = [(i, v) for i, v in values if i + index_shift in table]
    if not overlap:
        raise NoOverlap(f"no common indices with {bfile.sequence_id}")

    @check(f"oeis:{bfile.sequence_id or '?'}")
    def agrees(size: int) -> Counterexample | None:
        for i, computed in overlap:
            expected = table[i + index_shift]
            if computed != expected:
                return Counterexample(f"index {i + index_shift}", expected, computed)
        return None

    return agrees(len(overlap))


# Index conventions for comparing locally computed prefixes against the
# OEIS: first local index and the number of terms worth computing.
_COMPUTED_PREFIX: dict[str, tuple[int, int]] = {
    "A036991": (1, 500),
    "A002054": (1, 40),
    "A052940": (1, 40),
    "A290114": (2, 40),
    "A086224": (0, 40),
    "A052549": (1, 40),
}


def computed_prefix(sequence_id: str, count: int | None = None) -> list[tuple[int, int]]:
    """Locally computed (index, value) prefix for one of the sequences
    this package can generate, using the configured index alignment."""
    if sequence_id not in _COMPUTED_PREFIX:
        raise ValueError(f"no local generator for {sequence_id}")
    start, default_count = _COMPUTED_PREFIX[sequence_id]
    count = default_count if count is None else count
    if sequence_id == "A036991":
        terms = stream_terms(count)
        return [(start + i, v) for i, v in enumerate(terms)]
    if sequence_id == "A002054":
        return [(k, a002054(k)) for k in range(start, start + count)]
    return [(n, central_family(sequence_id, n)) for n in range(start, start + count)]
