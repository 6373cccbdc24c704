"""Extended-range invariants, opt-in via `pytest -m slow`.

These materialize levels up to level 30, the bound on materialized
levels (tens of millions of terms), stream levels 31 and 32 from them,
and run the claim checks at n = 32; each test peaks under 700 MB.
"""

import numpy as np
import pytest

from dycknums import cores, levels
from dycknums.conjectures import run_all
from dycknums.levels import _level_array, _level_blocks, _scan_array, level_size

from conftest import run_cli_fresh

pytestmark = pytest.mark.slow


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty level and core caches, dropped after the test."""
    monkeypatch.setattr(levels, "_array_cache", {})
    monkeypatch.setattr(cores, "_core_cache", {})


def test_level_sizes_to_structural_bound(fresh_caches):
    for n in range(25, 31):
        assert len(_level_array(n)) == level_size(n), n
    # Levels 31 and 32 only stream, from level 30.
    for n in (31, 32):
        assert sum(map(len, _level_blocks(n))) == level_size(n), n
    assert max(levels._array_cache) == 30


def test_scan_equals_structural_to_scan_bound(fresh_caches):
    for n in (23, 24):
        assert np.array_equal(_scan_array(n), _level_array(n)), n


def test_run_all_32_materializes_nothing_above_level_30(fresh_caches):
    outcomes = run_all(32)
    assert len(outcomes) == 85 and all(o.passed for o in outcomes)
    assert max(levels._array_cache) == 30
    assert cores._core_cache == {}


def test_verify_all_max_n_32_peak_stays_under_480_mb():
    # Level 30 (310 MB as int32) is the top resident level; levels 31 and
    # 32 are read as blocks, no core is built, and no fragment-00 mask is
    # kept.  The run peaked at 431 MB, against 531 MB with level 30's
    # mask (78 MB) resident.
    code, out, peak_kib = run_cli_fresh("verify", "all", "--max-n", "32", "--offline")
    assert code == 0
    assert out.count("PASS ") == 92 and "FAIL" not in out
    assert peak_kib < 480 * 1024
