import pytest

from dycknums import cores, levels
from dycknums.conjectures import (
    check_catalan_rejection,
    check_conj16,
    check_conj18,
    check_prop12,
    run_all,
    size_identity_checks,
)
from dycknums.cores import core, subsegments
from dycknums.levels import level_structural, mersenne
from dycknums.oeis_ref import a001405
from dycknums.report import Counterexample, VerificationOutcome, check, first_mismatch


def test_prop12_passes_and_quotes_the_examples():
    for n in range(6, 15, 2):
        outcome = check_prop12(n)
        assert outcome.passed, outcome
    # the quoted instances behind the check
    level8 = set(level_structural(8).terms)
    assert {4 * 39 - 1, 4 * 39 + 1, 4 * 39 + 3} <= level8
    assert 4 * 39 + 3 == 159
    assert 4 * mersenne(6) + 3 == mersenne(8)


def test_conj16_copies_and_offsets():
    out = check_conj16(8)
    assert out.passed
    base = core(8).terms
    segs = subsegments(core(10))
    assert segs[1] == tuple(t + (13 << 5) for t in base)
    assert segs[2] == tuple(t + (7 << 6) for t in base)
    for n in (10, 12, 14):
        assert check_conj16(n).passed


def test_conj16_offsets_at_n20():
    assert 13 << 17 == 1703936
    assert 7 << 18 == 1835008


def test_conj18_passes_with_quoted_cardinalities():
    for n, size in ((12, 35), (14, 126), (16, 462)):
        outcome = check_conj18(n)
        assert outcome.passed, outcome
        assert len(subsegments(core(n))[3]) == size == a001405(n - 5)


def test_conj18_base_case_shape():
    # the recursion bottoms out on the 10-core's top subsegment, which
    # is the whole 6-level pattern placed at 639
    seg = subsegments(core(10))[3]
    assert seg == tuple(t + 576 for t in level_structural(6).terms)


def test_catalan_rejection_range():
    for n in range(6, 17, 2):
        assert check_catalan_rejection(n).passed


def test_parity_validation():
    for checker, bad in (
        (check_prop12, 7),
        (check_conj16, 9),
        (check_conj18, 13),
        (check_catalan_rejection, 7),
    ):
        with pytest.raises(ValueError):
            checker(bad)


def test_size_identity_checks_pass():
    outcomes = size_identity_checks(30)
    assert [o.name for o in outcomes] == [
        "eq4", "eq5", "prop10", "core-sizes", "level-sizes",
    ]
    assert all(o.passed for o in outcomes)


def test_run_all_small():
    outcomes = run_all(12)
    assert outcomes and all(o.passed for o in outcomes)
    keys = [(o.name, o.n) for o in outcomes]
    assert keys == sorted(keys)
    assert {"eq1", "eq2", "prop12", "conj16", "conj18", "rejection"} <= {
        o.name for o in outcomes
    }


def test_run_all_empty_below_applicability():
    assert run_all(4) == []


def test_run_all_is_deterministic():
    a = [(o.name, o.n, o.passed, o.detail) for o in run_all(10)]
    b = [(o.name, o.n, o.passed, o.detail) for o in run_all(10)]
    assert a == b


def test_outcome_invariants():
    with pytest.raises(ValueError):
        VerificationOutcome("x", 1, True, Counterexample(1, 2, 3))
    failed = check("x")(lambda n: first_mismatch((1, 2, 3), (1, 9, 3)))(1)
    assert not failed.passed
    assert failed.detail == Counterexample("index 1", 2, 9)
    short = first_mismatch((1, 2, 3), (1, 2, 3, 4))
    assert short == Counterexample("cardinality", 3, 4)
    line = failed.text_line()
    assert line.startswith("FAIL x n=1") and "expected 2, got 9" in line
    fields = failed.record_line().split("\t")
    assert fields[0] == "x" and fields[2] == "0" and fields[4] == "2"


def test_run_all_builds_no_level_above_max_n(monkeypatch):
    monkeypatch.setattr(levels, "_array_cache", {})
    monkeypatch.setattr(cores, "_core_cache", {})
    assert all(o.passed for o in run_all(12))
    assert max(levels._array_cache) == 12
