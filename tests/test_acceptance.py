"""Acceptance suite: every criterion at its stated tolerance (exact
matches throughout), one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from contextlib import contextmanager

import numpy as np

from dycknums.conjectures import (
    CORE_SIZES,
    check_catalan_rejection,
    check_conj16,
    check_conj18,
    check_prop12,
    size_identity_checks,
    verify_eq1,
    verify_eq2,
)
from dycknums.cores import core, core_subsequence, subsegments
from dycknums.dyck_core import dyck_succ, succ_of_mersenne
from dycknums.levels import (
    _level_array,
    _scan_array,
    level_scan,
    level_size,
    mersenne,
    stream_terms,
)
from dycknums.oeis_ref import compare, computed_prefix, fetch_bfile

from conftest import FIRST_48


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label}")


def test_criterion_01_first_terms():
    with criterion(1, "first 48 terms reproduce the reference listing"):
        assert stream_terms(48) == FIRST_48


def test_criterion_02_level_sizes():
    with criterion(2, "level sizes match the binomial formula and the scan"):
        for n in range(1, 23):
            assert level_size(n) == len(level_scan(n).terms)
        assert tuple(level_size(n) for n in range(1, 13)) == (
            1, 1, 2, 3, 6, 10, 20, 35, 70, 126, 252, 462,
        )


def test_criterion_03_oracle_equivalence():
    with criterion(3, "scan and structural generators agree for n in [1, 22]"):
        start = time.perf_counter()
        for n in range(1, 23):
            assert np.array_equal(_scan_array(n), _level_array(n)), n
        assert time.perf_counter() - start <= 10.0


def test_criterion_04_core_fixtures():
    with criterion(4, "cores 8/10/12/14 match the quoted data"):
        assert core(8).terms == (143, 151, 155, 157, 159)
        c10 = core(10)
        assert len(c10) == 21
        assert tuple(s[-1] for s in subsegments(c10)) == (543, 575, 607, 639)
        assert len(core(12)) == 84
        assert len(core(14)) == 330


def test_criterion_05_appendix_reproduction(appendix_terms):
    with criterion(5, "core subsequence reproduces the 500-term fixture"):
        assert len(appendix_terms) == 500
        assert core_subsequence(14) == appendix_terms[:441]
        assert core_subsequence(16)[:500] == appendix_terms


def test_criterion_06_catalan_rejection():
    with criterion(6, "rejection counts are Catalan and leave Dyck words"):
        for n in range(6, 25, 2):
            outcome = check_catalan_rejection(n)
            assert outcome.passed, outcome


def test_criterion_07_size_identities():
    with criterion(7, "binomial/Catalan size identities hold exactly"):
        outcomes = size_identity_checks(30)
        assert all(o.passed for o in outcomes), outcomes
        assert CORE_SIZES == (
            1, 5, 21, 84, 330, 1287, 5005, 19448, 75582, 293930, 1144066, 4457400,
        )


def test_criterion_08_level_recursions():
    with criterion(8, "odd-level doubling and even-level tail cube hold"):
        for n in range(5, 22, 2):
            outcome = verify_eq1(n)
            assert outcome.passed, outcome
        for n in range(6, 23, 2):
            outcome = verify_eq2(n)
            assert outcome.passed, outcome


def test_criterion_09_triplet_lift():
    with criterion(9, "triplet lift with segment preservation for n in [6, 18]"):
        for n in range(6, 19, 2):
            outcome = check_prop12(n)
            assert outcome.passed, outcome


def test_criterion_10_core_copy_offsets():
    with criterion(10, "core copies land in subsegments 2 and 3 for n in [8, 20]"):
        for n in range(8, 21, 2):
            outcome = check_conj16(n)
            assert outcome.passed, outcome
        assert 13 << (20 - 3) == 1703936
        assert 7 << (20 - 2) == 1835008


def test_criterion_11_top_subsegment_recursion():
    with criterion(11, "top-subsegment recursion for n in [12, 20]"):
        for n in range(12, 21, 2):
            outcome = check_conj18(n)
            assert outcome.passed, outcome
        for n, size in ((12, 35), (14, 126), (16, 462)):
            assert len(subsegments(core(n))[3]) == size


def test_criterion_12_mersenne_successor_closed_form():
    with criterion(12, "closed-form successor of Mersenne numbers"):
        for n in range(1, 25):
            assert succ_of_mersenne(n) == dyck_succ(mersenne(n)), n
        assert succ_of_mersenne(5) == 39
        assert succ_of_mersenne(7) == 143
        assert succ_of_mersenne(9) == 543


def test_criterion_13_gap_property():
    with criterion(13, "gaps between the first 10**6 terms are powers of 2"):
        start = time.perf_counter()
        terms = np.array(stream_terms(10**6))
        # certify adjacency: the stream's deepest level also matches the scan
        deepest = int(terms[-1]).bit_length()
        assert np.array_equal(_scan_array(deepest), _level_array(deepest))
        gaps = np.diff(terms)
        assert bool(np.all(gaps > 0))
        assert bool(np.all((gaps & (gaps - 1)) == 0))
        for i in range(0, 10**6 - 1, 99991):
            assert dyck_succ(int(terms[i])) == int(terms[i + 1])
        assert time.perf_counter() - start <= 30.0


def test_criterion_14_oeis_cross_checks(tmp_path):
    with criterion(14, "computed prefixes match the cached b-files"):
        for sequence_id in (
            "A002054",
            "A052940",
            "A290114",
            "A086224",
            "A052549",
            "A036991",
        ):
            bfile = fetch_bfile(sequence_id, cache_dir=tmp_path, offline=True)
            outcome = compare(computed_prefix(sequence_id), bfile)
            assert outcome.passed and outcome.n >= 20, sequence_id
