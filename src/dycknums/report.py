"""Outcome records shared by every checker, and the one wrapper that
times a check and packages its result.

A check is written as a function of one parameter n that returns its
first `Counterexample`, or None when the claim holds; `check(name)`
turns it into a function returning the timed `VerificationOutcome`.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
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


def check(name: str) -> Callable[
    [Callable[[int], Counterexample | None]], Callable[[int], VerificationOutcome]
]:
    """Decorate a check body of one parameter n, returning its first
    counterexample or None, into a checker that times the call and
    returns the outcome `name` at n."""

    def decorate(body: Callable[[int], Counterexample | None]):
        @functools.wraps(body)
        def checker(n: int) -> VerificationOutcome:
            t0 = time.perf_counter()
            detail = body(n)
            return VerificationOutcome(
                name, n, detail is None, detail, time.perf_counter() - t0
            )

        return checker

    return decorate


def first_mismatch(expected, actual) -> Counterexample | None:
    """The first position where two runs of terms (arrays or tuples)
    disagree, including a length mismatch; None when they are equal."""
    if np.array_equal(expected, actual):
        return None
    expected, actual = np.asarray(expected).tolist(), np.asarray(actual).tolist()
    for i, (e, a) in enumerate(zip(expected, actual)):
        if e != a:
            return Counterexample(f"index {i}", e, a)
    return Counterexample("cardinality", len(expected), len(actual))
