"""Every checker reports FAIL, with its first counterexample, when the
level or core it reads is corrupted.

Each test swaps the function a checker reads its input through for one
that drops or shifts a single term; the memoized levels and cores
themselves are never touched.
"""

import numpy as np
import pytest

from dycknums import cli, conjectures, cores, levels, patterns
from dycknums.cli import main
from dycknums.conjectures import (
    check_catalan_rejection,
    check_conj16,
    check_conj18,
    check_prop12,
    run_all,
    size_identity_checks,
)
from dycknums.cores import Core
from dycknums.levels import Level
from dycknums.patterns import verify_eq1, verify_eq2
from dycknums.report import Counterexample


def drop(i):
    return lambda arr: np.delete(arr, i)


def shift(i, delta=2):
    def shifted(arr):
        out = arr.copy()
        out[i] += delta
        return out

    return shifted


def corrupt_level(monkeypatch, n, change):
    """`patterns.level_structural(n)` returns level n changed."""
    real = patterns.level_structural

    def level_structural(m, *args):
        return Level(m, change(real(m).arr)) if m == n else real(m, *args)

    monkeypatch.setattr(patterns, "level_structural", level_structural)


def corrupt_core(monkeypatch, n, change, segment=None):
    """`conjectures.core(n)` returns the n-core with its terms changed,
    or only one of its segments when `segment` is given."""
    real = cores.core

    def core(m):
        c = real(m)
        if m != n:
            return c
        if segment is None:
            return Core(n=c.n, arr=change(c.arr), top=c.top, segments=c.segments)
        segments = list(c.segments)
        segments[segment] = change(segments[segment])
        return Core(n=c.n, arr=c.arr, top=c.top, segments=tuple(segments))

    monkeypatch.setattr(conjectures, "core", core)


def construction_failure(message):
    return Counterexample("construction", "a valid pattern", message)


def assert_fails(outcome, name, n, detail):
    assert (outcome.name, outcome.n, outcome.passed) == (name, n, False)
    assert outcome.detail == detail
    assert outcome.elapsed > 0


def test_eq1_reports_a_shifted_level_term(monkeypatch):
    corrupt_level(monkeypatch, 7, shift(5))
    assert_fails(verify_eq1(7), "eq1", 7, Counterexample("index 5", 87, 85))


def test_eq1_reports_a_broken_construction(monkeypatch):
    corrupt_level(monkeypatch, 6, drop(3))
    assert_fails(verify_eq1(7), "eq1", 7, construction_failure(
        "no copy of the pattern exists at top 127: run 103..127 skips intermediate terms"
    ))


def test_eq2_reports_a_dropped_tail_term(monkeypatch):
    corrupt_level(monkeypatch, 8, drop(-1))
    assert_fails(verify_eq2(8), "eq2", 8, Counterexample("cardinality", 29, 30))


def test_eq2_reports_a_broken_construction(monkeypatch):
    corrupt_level(monkeypatch, 6, drop(3))
    assert_fails(verify_eq2(8), "eq2", 8, construction_failure(
        "no copy of the pattern exists at top 255: run 231..255 skips intermediate terms"
    ))


def test_prop12_reports_a_missing_triplet_member(monkeypatch):
    real = conjectures._level_array
    # level 6 starts 39, 43; 41 = 101001 lifts to 163 = 10100011, whose
    # suffix 00011 dips negative
    monkeypatch.setattr(conjectures, "_level_array",
                        lambda n: shift(0)(real(n)) if n == 6 else real(n))
    assert_fails(check_prop12(6), "prop12", 6, Counterexample(41, "163 in level 8", "absent"))


def test_conj16_reports_a_short_subsegment(monkeypatch):
    corrupt_core(monkeypatch, 10, drop(0), segment=1)
    assert_fails(check_conj16(8), "conj16", 8,
                 Counterexample("subsegment 2 cardinality", 5, 4))


def test_conj16_reports_a_shifted_copy_term(monkeypatch):
    corrupt_core(monkeypatch, 10, shift(1), segment=2)
    assert_fails(check_conj16(8), "conj16", 8, Counterexample("index 1", 599, 601))


def test_conj18_reports_a_broken_construction(monkeypatch):
    corrupt_core(monkeypatch, 8, drop(2))
    assert_fails(check_conj18(12), "conj18", 12, construction_failure(
        "no copy of the pattern exists at top 2463: run 2447..2463 skips intermediate terms"
    ))


def test_conj18_reports_a_short_top_subsegment(monkeypatch):
    corrupt_core(monkeypatch, 12, drop(-1), segment=3)
    assert_fails(check_conj18(12), "conj18", 12, Counterexample("cardinality", 35, 34))


def test_conj18_reports_a_shifted_top_subsegment_term(monkeypatch):
    corrupt_core(monkeypatch, 12, shift(4), segment=3)
    assert_fails(check_conj18(12), "conj18", 12, Counterexample("index 4", 2465, 2463))


def corrupt_source_level(monkeypatch, n, change):
    """`levels._level_array(n)`, the level the 00-fragment rejection
    reads, returns level n changed."""
    real = levels._level_array

    def level_array(m, *args):
        return change(real(m, *args)) if m == n else real(m, *args)

    monkeypatch.setattr(levels, "_level_array", level_array)


def test_rejection_reports_a_dropped_source_term(monkeypatch):
    corrupt_source_level(monkeypatch, 6, drop(0))
    assert_fails(check_catalan_rejection(8), "rejection", 8,
                 Counterexample("cardinality", 5, 4))


def test_rejection_reports_a_rejected_term_that_is_no_dyck_word(monkeypatch):
    # level 4 is (11, 13, 15); 13 - 4 = 9 = 1001 keeps dynamics below 4
    corrupt_source_level(monkeypatch, 4, shift(1, -4))
    assert_fails(check_catalan_rejection(6), "rejection", 6, Counterexample(
        9, "a Dyck word after zeroing the leading bit", "not"
    ))


def test_appendix_reports_a_shifted_core_term(monkeypatch):
    real = cores.core_subsequence

    def core_subsequence(max_n):
        return tuple(t + 2 if i == 17 else t for i, t in enumerate(real(max_n)))

    monkeypatch.setattr(cores, "core_subsequence", core_subsequence)
    assert_fails(cli._appendix_outcome(), "appendix", 500,
                 Counterexample("index 17", 615, 617))


@pytest.mark.parametrize("attr, bad, failures", [
    ("a002054", 3, {"eq4": Counterexample(3, 21, 22),
                    "eq5": Counterexample(3, 21, 22),
                    "core-sizes": Counterexample(10, 22, 21)}),
    ("level_size", 8, {"prop10": Counterexample(8, 35, 36),
                       "level-sizes": Counterexample(8, 35, 36)}),
    ("core_size", 12, {"core-sizes": Counterexample(12, 84, 85)}),
    # only the doubled form of prop10 disagrees at n = 8
    ("level_size", 7, {"prop10": Counterexample(8, 37, 35),
                       "level-sizes": Counterexample(7, 20, 21)}),
])
def test_size_identities_report_a_wrong_size(monkeypatch, attr, bad, failures):
    real = getattr(conjectures, attr)
    monkeypatch.setattr(conjectures, attr, lambda k: real(k) + (k == bad))
    outcomes = size_identity_checks(30)
    assert [o.name for o in outcomes] == ["eq4", "eq5", "prop10", "core-sizes", "level-sizes"]
    assert {o.name: o.detail for o in outcomes if not o.passed} == failures
    assert all(o.elapsed > 0 for o in outcomes)


def test_verify_conj16_exits_1_on_a_corrupted_core(monkeypatch, capsys):
    corrupt_core(monkeypatch, 10, drop(0), segment=1)
    assert main(["verify", "conj16", "--max-n", "10"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("FAIL conj16 n=8 (")
    assert lines[0].endswith("s) at subsegment 2 cardinality: expected 5, got 4")
    assert lines[1].startswith("PASS conj16 n=10 (")


def test_run_all_times_every_outcome():
    outcomes = run_all(12)
    assert outcomes and all(o.elapsed > 0 for o in outcomes)
