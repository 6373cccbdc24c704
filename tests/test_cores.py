import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dycknums import cores, levels
from dycknums.cores import (
    Fragment,
    core,
    core_size,
    core_subsequence,
    core_top,
    decompose,
    evaluate,
    format_expr,
    fragment_image,
    rejected_terms,
    standard_library,
    subsegments,
)
from dycknums.errors import DomainError, LevelMismatch, NotMember
from dycknums.levels import level_structural
from dycknums.oeis_ref import a002054, catalan

CORE_SIZES = (1, 5, 21, 84, 330, 1287, 5005, 19448, 75582, 293930, 1144066, 4457400)


@pytest.mark.parametrize(
    "t,frag,n,expected",
    [
        (15, Fragment.F00, 6, 39),
        (11, Fragment.F00, 6, None),
        (13, Fragment.F00, 6, None),
        (63, Fragment.F00, 8, 159),
        (47, Fragment.F00, 8, 143),
        (15, Fragment.F01, 6, 47),
        (15, Fragment.F10, 6, 55),
        (15, Fragment.F11, 6, 63),
    ],
)
def test_fragment_image_examples(t, frag, n, expected):
    assert fragment_image(t, frag, n) == expected


def test_fragment_image_validation():
    with pytest.raises(LevelMismatch):
        fragment_image(15, Fragment.F00, 8)
    with pytest.raises(NotMember):
        fragment_image(9, Fragment.F00, 6)
    with pytest.raises(ValueError):
        fragment_image(15, Fragment.F00, 7)


def test_fragment_blocks_tile_the_even_level():
    source = level_structural(6).terms
    blocks = []
    for frag in (Fragment.F00, Fragment.F01, Fragment.F10, Fragment.F11):
        images = [fragment_image(t, frag, 8) for t in source]
        blocks.append(tuple(v for v in images if v is not None))
    flat = sum(blocks, ())
    assert flat == level_structural(8).terms
    assert all(a < b for a, b in zip(flat, flat[1:]))


def test_core_fixtures():
    assert core(6).terms == (39,)
    assert core(8).terms == (143, 151, 155, 157, 159)
    c10 = core(10)
    assert len(c10) == 21
    assert c10.terms[0] == 543 and c10.top == 639
    assert len(core(12)) == 84
    assert len(core(14)) == 330


def test_core_matches_appendix(appendix_terms):
    assert core(10).terms == appendix_terms[6:27]
    assert core(12).terms == appendix_terms[27:111]
    assert core(14).terms == appendix_terms[111:441]


def test_core_is_level_prefix():
    for n in range(6, 21, 2):
        level = level_structural(n).terms
        c = core(n)
        assert c.terms == level[: len(c)]
        assert level[len(c)] > core_top(n)
    for n in range(6, 25, 2):
        assert len(core(n)) == core_size(n)


def test_core_is_built_from_level_n_minus_2_and_viewed_in_a_resident_level_n(monkeypatch):
    monkeypatch.setattr(levels, "_array_cache", {})
    monkeypatch.setattr(cores, "_core_cache", {})
    built = core(14)
    assert max(levels._array_cache) == 12
    level = level_structural(14).arr
    assert np.array_equal(built.arr, level[: len(built)])
    cores._core_cache.clear()
    viewed = core(14)
    assert np.shares_memory(viewed.arr, level)
    assert np.array_equal(viewed.arr, built.arr)


def test_core_size_examples():
    assert core_size(8) == 5
    assert core_size(10) == 21
    assert core_size(14) == 330
    for i, expected in enumerate(CORE_SIZES):
        n = 6 + 2 * i
        assert core_size(n) == expected
        assert core_size(n) == a002054(n // 2 - 2)
    for n in range(6, 17, 2):
        assert len(core(n)) == core_size(n)


def test_core_domain():
    with pytest.raises(DomainError):
        core(5)
    with pytest.raises(DomainError):
        core_size(4)


def test_rejected_terms_examples():
    assert rejected_terms(8) == (39, 43, 45, 51, 53)
    assert rejected_terms(6) == (11, 13)
    assert len(rejected_terms(10)) == catalan(4) == 14
    for n in range(6, 17, 2):
        assert len(rejected_terms(n)) == catalan(n // 2 - 1)


def test_subsegment_tops_and_sizes():
    c10 = core(10)
    segs = subsegments(c10)
    assert tuple(s[-1] for s in segs) == (543, 575, 607, 639)
    assert tuple(len(s) for s in segs) == (1, 5, 5, 10)
    assert segs[0] == (543,)
    assert segs[1] == (559, 567, 571, 573, 575)
    segs12 = subsegments(core(12))
    assert tuple(s[-1] for s in segs12) == (2175, 2303, 2431, 2559)
    with pytest.raises(DomainError):
        subsegments(core(8))


def test_core_subsequence_examples(appendix_terms):
    assert core_subsequence(8) == (39, 143, 151, 155, 157, 159)
    cs10 = core_subsequence(10)
    assert len(cs10) == 27 and cs10[-1] == 639
    assert len(core_subsequence(14)) == 441
    assert core_subsequence(14) == appendix_terms[:441]


def test_standard_library_contents():
    lib = standard_library(12)
    assert set(lib.names()) == {"π4", "π6", "μ6", "μ8", "μ10", "μ12/1", "μ12/4", "μ12"}
    with pytest.raises(ValueError):
        lib.register("π4", lib["π4"].source)


def test_decompose_core_10():
    lib = standard_library(8)
    expr = decompose(core(10).terms, lib)
    assert format_expr(expr) == "(543) ⊕ μ8(607)^2 ⊕ π6(639)"
    assert evaluate(expr, lib) == core(10).terms


def test_decompose_core_8_and_6():
    lib = standard_library(6)
    assert format_expr(decompose(core(8).terms, lib)) == "(143,151) ⊕ π4(159)"
    assert format_expr(decompose(core(6).terms, standard_library(4))) == "(39)"


def test_decompose_core_12_subsegments():
    lib = standard_library(10)
    segs = subsegments(core(12))
    rendered = [format_expr(decompose(s, lib)) for s in segs]
    assert rendered[0] == "(2111,2143) ⊕ μ8(2175)"
    assert rendered[1] == "μ10(2303)"
    assert rendered[2] == "μ10(2431)"
    assert rendered[3] == "μ8(2463) ⊕ π6(2559)^3"


def test_decompose_core_14_subsegments():
    lib = standard_library(12)
    segs = subsegments(core(14))
    rendered = [format_expr(decompose(s, lib)) for s in segs]
    assert rendered[0] == "(8319) ⊕ μ12/1(8575)^2 ⊕ μ10(8703)"
    assert rendered[1] == "μ12(9215)"
    assert rendered[2] == "μ12(9727)"
    assert rendered[3] == "μ10(9855) ⊕ μ12/4(10239)^3"


def test_decompose_whole_level():
    lib = standard_library(8)
    assert format_expr(decompose(level_structural(8).terms, lib)) == "μ8(159) ⊕ π6(255)^3"


def test_decompose_singletons_stay_bare():
    # a lone term whose predecessor gap differs from the 6-core span
    # must not be claimed by the single-term core shape
    lib = standard_library(10)
    expr = decompose((543,), lib)
    assert format_expr(expr) == "(543)"


@given(st.integers(min_value=4, max_value=12), st.data())
@settings(max_examples=60, deadline=None)
def test_decompose_round_trip_on_level_slices(n, data):
    lib = standard_library(10)
    terms = level_structural(n).terms
    i = data.draw(st.integers(min_value=0, max_value=len(terms) - 1))
    j = data.draw(st.integers(min_value=i + 1, max_value=len(terms)))
    run = terms[i:j]
    assert evaluate(decompose(run, lib), lib) == run


def test_decompose_round_trip_on_cores():
    for n in range(6, 17, 2):
        lib = standard_library(max(n - 2, 4))
        run = core(n).terms
        assert evaluate(decompose(run, lib), lib) == run
