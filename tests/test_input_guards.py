"""The input guards of the public functions: each refuses an argument
outside its domain up front, with the documented exception type."""

import pytest

from dycknums.conjectures import run_all
from dycknums.cores import core_subsequence, evaluate, rejected_terms, standard_library
from dycknums.dyck_core import dynamics, succ_of_mersenne
from dycknums.errors import DomainError
from dycknums.levels import level_scan, level_size, mersenne, stream_terms
from dycknums.oeis_ref import a001405, a002054, catalan, computed_prefix


@pytest.mark.parametrize("call,error", [
    (lambda: mersenne(-1), ValueError),
    (lambda: level_size(0), ValueError),
    (lambda: level_scan(0), ValueError),
    (lambda: stream_terms(0), ValueError),
    (lambda: dynamics(-1), ValueError),
    (lambda: succ_of_mersenne(0), ValueError),
    (lambda: run_all(0), ValueError),
    (lambda: catalan(-1), ValueError),
    (lambda: a001405(-1), ValueError),
    (lambda: a002054(0), ValueError),
    (lambda: computed_prefix("A000045"), ValueError),
    (lambda: rejected_terms(7), DomainError),
    (lambda: core_subsequence(7), DomainError),
    (lambda: evaluate("(543)", standard_library(6)), TypeError),
], ids=[
    "mersenne", "level_size", "level_scan", "stream_terms", "dynamics", "succ_of_mersenne",
    "run_all", "catalan", "a001405", "a002054", "computed_prefix", "rejected_terms",
    "core_subsequence", "evaluate",
])
def test_input_outside_the_domain_is_refused(call, error):
    with pytest.raises(error):
        call()
