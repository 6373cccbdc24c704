"""Outcome records shared by every checker, and the one wrapper that
times a check and packages its result.

A check is written as a function of a parameter n, and of any further
arguments its caller passes, that returns its first `Counterexample`,
or None when the claim holds; `check(name)` turns it into a function
of the same arguments returning the timed `VerificationOutcome`.
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
    [Callable[..., Counterexample | None]], Callable[..., VerificationOutcome]
]:
    """Decorate a check body of a parameter n and any further arguments,
    returning its first counterexample or None, into a checker that
    times the call, forwarding every argument, and returns the outcome
    `name` at n."""

    def decorate(body: Callable[..., Counterexample | None]):
        @functools.wraps(body)
        def checker(n: int, *args) -> VerificationOutcome:
            t0 = time.perf_counter()
            detail = body(n, *args)
            return VerificationOutcome(
                name, n, detail is None, detail, time.perf_counter() - t0
            )

        return checker

    return decorate


def first_mismatch(expected, actual) -> Counterexample | None:
    """The first position where two runs of terms (arrays or tuples)
    disagree, else a length mismatch; None when they are equal.  One
    vector comparison of the common prefix, so the cost in memory is a
    byte per term whatever the dtype (exact object arrays included)."""
    x, y = np.asarray(expected), np.asarray(actual)
    m = min(len(x), len(y))
    differ = x[:m] != y[:m]
    if differ.any():
        i = int(np.argmax(differ))
        return Counterexample(f"index {i}", int(x[i]), int(y[i]))
    if len(x) != len(y):
        return Counterexample("cardinality", len(x), len(y))
    return None
