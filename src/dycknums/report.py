"""Outcome records shared by every checker."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Counterexample:
    """First failing case of a check: where it failed plus the two
    disagreeing values.  `term` is the input term or index at fault."""

    term: int | str
    expected: int | str
    actual: int | str


@dataclass(frozen=True)
class VerificationOutcome:
    """Result of one named check at one parameter n.

    `detail` is None exactly when the check passed; `n` is the level
    parameter, or the scale of the check for non-level checks (term
    count, overlap size).
    """

    name: str
    n: int
    passed: bool
    detail: Counterexample | None = None
    elapsed: float = 0.0

    def __post_init__(self) -> None:
        if self.passed and self.detail is not None:
            raise ValueError("a passed outcome must not carry a counterexample")

    def text_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.name} n={self.n} ({self.elapsed:.3f}s)"
        if self.detail is not None:
            d = self.detail
            line += f" at {d.term}: expected {d.expected}, got {d.actual}"
        return line

    def record_line(self) -> str:
        d = self.detail
        fields = (
            self.name,
            str(self.n),
            "1" if self.passed else "0",
            "" if d is None else str(d.term),
            "" if d is None else str(d.expected),
            "" if d is None else str(d.actual),
            f"{self.elapsed:.6f}",
        )
        return "\t".join(fields)


RECORD_HEADER = "name\tn\tpassed\tterm\texpected\tactual\telapsed_s"


def _as_list(terms) -> list[int]:
    return terms.tolist() if isinstance(terms, np.ndarray) else list(terms)


def first_mismatch(
    name: str,
    n: int,
    expected,
    actual,
    elapsed: float = 0.0,
) -> VerificationOutcome:
    """Compare two runs of terms (arrays or tuples) and package the
    result, reporting the first position where they disagree (including
    a length mismatch)."""
    if isinstance(expected, np.ndarray) and isinstance(actual, np.ndarray):
        same = np.array_equal(expected, actual)
    else:
        same = tuple(expected) == tuple(actual)
    if same:
        return VerificationOutcome(name, n, True, None, elapsed)
    expected, actual = _as_list(expected), _as_list(actual)
    for i, (e, a) in enumerate(zip(expected, actual)):
        if e != a:
            return VerificationOutcome(
                name, n, False, Counterexample(f"index {i}", e, a), elapsed
            )
    return VerificationOutcome(
        name,
        n,
        False,
        Counterexample("cardinality", len(expected), len(actual)),
        elapsed,
    )
