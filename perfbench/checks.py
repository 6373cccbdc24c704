"""Output checks for the benchmark, written without any code of the
package under test.

Every check returns a list of failure messages; an empty list means the
output is correct.  The membership test, the level and core sizes, the
Catalan numbers and the claim table are all restated here, so a defect
in the package cannot also hide in its own check.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

import numpy as np

# sha256 of `decompose --core N` output, recorded from the package at the
# commit that introduced this benchmark.
DECOMPOSE_DIGESTS = {
    20: "bc1b2dd4a181185f64392abae5e3c90ddffc49223de2e8cdec8498cf707d28d1",
    24: "5b14c4d65444461e5fdbdf94604b7e6a12d5a4a6fd7d4502f6e80d64c7ca446a",
}

# Overlap sizes of `verify all` against the six bundled b-files.
OEIS_OVERLAPS = {
    "A036991": 500,
    "A002054": 40,
    "A052940": 40,
    "A290114": 40,
    "A086224": 40,
    "A052549": 40,
}
APPENDIX_TERMS = 500


def is_member(v: int) -> bool:
    """Scalar test: every suffix of the binary code of v holds at least
    as many 1s as 0s (0 is a member)."""
    bal = 0
    while v:
        bal += (v & 1) * 2 - 1
        if bal < 0:
            return False
        v >>= 1
    return True


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def level_count(n: int) -> int:
    return math.comb(n - 1, (n - 1) // 2)


def core_count(n: int) -> int:
    return level_count(n - 2) - catalan(n // 2 - 1)


def suffix_balanced(values: np.ndarray, chunk: int = 1 << 16) -> np.ndarray:
    """Vector form of `is_member` for positive int64 values of any
    binary length: bits above a value's own length are not counted.
    Works in cache-sized chunks."""
    ok = np.empty(values.shape, dtype=bool)
    for lo in range(0, values.size, chunk):
        part = values[lo:lo + chunk]
        bal = np.zeros(part.shape, dtype=np.int8)
        low = np.zeros(part.shape, dtype=np.int8)
        for _ in range(int(part.max()).bit_length()):
            # +1 for a 1 bit, -1 for a 0 bit, 0 once past the leading bit
            bal += (part & 1).astype(np.int8) * 2 - (part != 0)
            np.minimum(low, bal, out=low)
            part = part >> 1
        ok[lo:lo + chunk] = low >= 0
    return ok


def parse_terms(data: bytes) -> np.ndarray | None:
    """Parse one line of space-separated decimal terms.  Consecutive
    terms of equal width are decoded together as a digit matrix; None
    when the text is not of that form."""
    if not data.endswith(b"\n") or data.count(b"\n") != 1:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)[:-1]
    if buf.size == 0:
        return np.zeros(0, dtype=np.int64)
    is_sep = buf == ord(" ")
    if not bool(np.all(is_sep | ((buf >= ord("0")) & (buf <= ord("9"))))):
        return None
    bounds = np.concatenate(([-1], np.flatnonzero(is_sep), [buf.size]))
    widths = np.diff(bounds) - 1
    if int(widths.min()) < 1 or int(widths.max()) > 18:
        return None
    cuts = np.flatnonzero(np.diff(widths)) + 1
    firsts = np.concatenate(([0], cuts))
    lasts = np.concatenate((cuts, [widths.size]))
    parts = []
    for lo, hi in zip(firsts, lasts):
        w, k, start = int(widths[lo]), int(hi - lo), int(bounds[lo]) + 1
        block = buf[start:start + k * (w + 1) - 1]
        digits = np.append(block, ord(" ")).reshape(k, w + 1)[:, :w]
        value = np.zeros(k, dtype=np.int64)
        for j in range(w):
            value = value * 10 + (digits[:, j].astype(np.int64) - ord("0"))
        parts.append(value)
    return np.concatenate(parts)


def check_level_output(data: bytes, kind: str, n: int) -> list[str]:
    """A level or core printed by `gen --level n` / `gen --core n`: the
    right count, strictly ascending, inside (M_{n-1}, top] and every
    term suffix-balanced.  Together these pin the exact set."""
    terms = parse_terms(data)
    label = f"{kind} {n}"
    if terms is None:
        return [f"{label}: output is not one line of decimal terms"]
    expected = level_count(n) if kind == "level" else core_count(n)
    top = (1 << n) - 1 if kind == "level" else (1 << (n - 1)) - 1 + (1 << (n - 3))
    errors = []
    if terms.size != expected:
        errors.append(f"{label}: {terms.size} terms, expected {expected}")
    if terms.size:
        if not bool(np.all(terms[1:] > terms[:-1])):
            errors.append(f"{label}: terms are not strictly ascending")
        if int(terms[0]) <= (1 << (n - 1)) - 1 or int(terms[-1]) > top:
            errors.append(f"{label}: terms leave ({(1 << (n - 1)) - 1}, {top}]")
        if not bool(np.all(suffix_balanced(terms))):
            errors.append(f"{label}: some term is not suffix-balanced")
    return errors


def read_bfile(path: Path) -> list[int]:
    values = []
    for line in path.read_text().splitlines():
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            values.append(int(fields[1]))
    return values


def check_stream_output(data: bytes, count: int, bfile: Path) -> list[str]:
    """`gen --count` output: starts with the b-file, then every complete
    level holds exactly its terms and the last, partial level is a
    gap-free run of members from the bottom of its interval."""
    terms = parse_terms(data)
    if terms is None:
        return ["stream: output is not one line of decimal terms"]
    errors = []
    if terms.size != count:
        return [f"stream: {terms.size} terms, expected {count}"]
    reference = read_bfile(bfile)
    prefix = [int(v) for v in terms[: len(reference)]]
    if prefix != reference[: len(prefix)]:
        errors.append("stream: prefix differs from the A036991 b-file")
    if int(terms[0]) != 0 or not bool(np.all(terms[1:] > terms[:-1])):
        return errors + ["stream: does not start at 0 or is not strictly ascending"]
    if not bool(np.all(suffix_balanced(terms[1:]))):
        errors.append("stream: some term is not suffix-balanced")
    last_n = int(terms[-1]).bit_length()
    edges = np.searchsorted(terms, [1 << k for k in range(last_n + 1)])
    for n in range(1, last_n):
        if int(edges[n] - edges[n - 1]) != level_count(n):
            errors.append(f"stream: level {n} holds {int(edges[n] - edges[n - 1])} terms")
    partial = int(terms.size - edges[last_n - 1])
    start = (1 << (last_n - 1)) + 1
    candidates = np.arange(start, int(terms[-1]) + 1, 2, dtype=np.int64)
    if int(np.count_nonzero(suffix_balanced(candidates))) != partial:
        errors.append(f"stream: partial level {last_n} skips members")
    return errors


def expected_claims(max_n: int) -> set[tuple[str, int]]:
    """(name, n) of every outcome `verify all --max-n max_n` prints."""
    claims = {(name, n) for name, first, step in (
        ("eq1", 5, 2), ("eq2", 6, 2), ("prop12", 6, 2), ("conj16", 8, 2),
        ("conj18", 12, 2), ("rejection", 6, 2),
    ) for n in range(first, max_n + 1, step)}
    claims |= {("eq4", 40), ("eq5", 40), ("prop10", min(max_n, 30)),
               ("core-sizes", 28), ("level-sizes", 12), ("appendix", APPENDIX_TERMS)}
    claims |= {(f"oeis:{sid}", size) for sid, size in OEIS_OVERLAPS.items()}
    return claims


_OUTCOME = re.compile(r"^(PASS|FAIL) (\S+) n=(\d+) \(")


def check_harness_output(text: str, rc: int | None, max_n: int) -> list[str]:
    """Exit code 0 and exactly the expected outcomes, each a PASS."""
    errors = [] if rc == 0 else [f"verify: exit code {rc}"]
    seen: list[tuple[str, int]] = []
    for line in text.splitlines():
        m = _OUTCOME.match(line)
        if m is None:
            errors.append(f"verify: unexpected line {line!r}")
            continue
        if m.group(1) != "PASS":
            errors.append(f"verify: {line}")
        seen.append((m.group(2), int(m.group(3))))
    expected = expected_claims(max_n)
    if len(seen) != len(expected) or set(seen) != expected:
        missing = sorted(expected - set(seen))
        errors.append(f"verify: {len(seen)} outcomes, expected {len(expected)}; missing {missing[:5]}")
    return errors


def check_digest(data: bytes, n: int) -> list[str]:
    if hashlib.sha256(data).hexdigest() != DECOMPOSE_DIGESTS[n]:
        return [f"decompose core {n}: output differs from the recorded digest"]
    return []


def check_cli_output(op, rc, data: bytes, err_text: str, outputs: dict, verified: set,
                     bfile: Path) -> list[str]:
    """Problems with one CLI op's exit code and output, by the op's
    (kind, parameter) check; `outputs` maps earlier ops' metric names to
    their output.  The costly term checks are skipped for an output
    byte-identical to one that passed them earlier in the same run;
    `verified` holds those."""
    kind, param = op.check
    problems = [] if rc == 0 or kind == "harness" else [f"{' '.join(op.argv)}: exit code {rc}"]
    if kind == "checked" and f"check: level {param} matches the scan oracle" not in err_text:
        problems.append(f"gen --level {param} --check: no oracle match reported")
    if kind == "harness":
        return problems + check_harness_output(data.decode("utf-8"), rc, param)
    if kind == "digest":
        return problems + check_digest(data, param)
    if kind == "same_as":
        same = data == outputs[param]
        return problems + ([] if same else [f"{op.metric}: output differs from {param}"])
    key = f"{kind}:{param}:{hashlib.sha256(data).hexdigest()}"
    if key in verified:
        return problems
    if kind == "stream":
        found = check_stream_output(data, param, bfile)
    else:
        found = check_level_output(data, "level" if kind == "checked" else kind, param)
    if not found:
        verified.add(key)
    return problems + found


def _classify(t: int) -> str:
    if t <= 1:
        return "Origin"
    below, above = is_member(t - 2), is_member(t + 2)
    if below and above:
        return "TripletMiddle"
    if below:
        return "TripletTop"
    if above:
        return "TripletLow"
    return "Root"


def check_query(op: str, t: int, answer, boundary_n: int | None) -> bool:
    """One point query against the scalar predicate; Mersenne-boundary
    cases also against the closed form M_n + 2**ceil(n/2)."""
    if op == "level_index":
        return answer == t.bit_length()
    if op == "classify":
        return getattr(answer, "value", None) == _classify(t)
    if not isinstance(answer, int) or not is_member(answer):
        return False
    if boundary_n is not None:
        jump = (1 << boundary_n) - 1 + (1 << ((boundary_n + 1) // 2))
        return answer == (jump if op == "dyck_succ" else (1 << boundary_n) - 1)
    if op == "dyck_succ":
        return answer > t and not any(is_member(v) for v in range(t + 2, answer, 2))
    return answer < t and not any(is_member(v) for v in range(answer + 2, t, 2))
