import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greedy
from dycknums import cores, levels, patterns
from dycknums.cores import (
    Fragment,
    Join,
    NamedPattern,
    PatternLibrary,
    Power,
    Singleton,
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
from dycknums.dyck_core import _class_ends, _class_of, _lowest, _rank, dyck_pred, is_dyck_number
from dycknums.errors import DomainError, LevelMismatch, NotContiguous, NotMember
from dycknums.levels import level_structural, mersenne, subsegment_bounds
from dycknums.oeis_ref import a002054, catalan
from dycknums.patterns import Pattern, pattern_len

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
        assert core(n).arr.dtype == np.int32 and not core(n).arr.flags.writeable


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
    assert "μ12/4" in lib and "μ14" not in lib and "μ10/1" not in lib
    with pytest.raises(ValueError):
        lib.register("π4", lib["π4"].source)


def test_standard_library_classes_name_the_runs_they_stand_for():
    # Each closed form (prefix, m, theta, span) spans exactly the level,
    # core or subsegment the library was once built from.
    lib = standard_library(16)
    runs = {"π4": level_structural(4).arr, "π6": level_structural(6).arr}
    for k in range(6, 17, 2):
        runs[f"μ{k}"] = core(k).arr
        if k >= 12:
            runs[f"μ{k}/1"], runs[f"μ{k}/4"] = core(k).segments[0], core(k).segments[3]
    assert set(lib.names()) == set(runs)
    for name, run in runs.items():
        shape = lib[name]
        assert shape.source.terms == tuple(run.tolist()), name
        assert shape.cardinality == len(run) and shape.level == int(run[-1]).bit_length()
        assert shape.span == pattern_len(Pattern(run)), name


def test_register_takes_one_class_and_refuses_any_other_run():
    lib = PatternLibrary()
    level8 = Pattern(level_structural(8).arr)
    shape = lib.register("λ8", level8)
    assert (shape.prefix, shape.m, shape.theta, shape.span) == (1, 7, 1, 128)
    assert shape.source is level8
    assert format_expr(decompose(level8, lib)) == "λ8(255)"
    # the same offsets two levels up: the class 101 * 2**7 + z
    assert format_expr(decompose(range(641, 768), lib)) == "λ8(767)"
    for run in (core(8).arr[:2], core(10).arr[1:11], level_structural(8).arr[1:]):
        with pytest.raises(ValueError, match="not one class"):
            lib.register("ρ", Pattern(run))
    assert lib.names() == ("λ8",)


def test_decompose_core_10():
    lib = standard_library(8)
    expr = decompose(core(10).terms, lib)
    assert format_expr(expr) == "(543) ⊕ μ8(607)^2 ⊕ π6(639)"
    assert evaluate(expr, lib) == core(10).terms


def test_evaluate_validates_a_power_once(monkeypatch):
    # μ8(607)^2 of the 10-core: one chain of two copies, one validation.
    lib, calls = standard_library(8), []
    real = patterns._validate_run
    monkeypatch.setattr(patterns, "_validate_run", lambda arr: calls.append(len(arr)) or real(arr))
    assert evaluate(Power(NamedPattern("μ8", 607), 2), lib) == core(10).terms[1:11]
    assert calls == [10]


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


def test_decompose_takes_a_pattern_as_it_is(monkeypatch):
    lib = standard_library(10)
    expected = format_expr(decompose(core(12).terms, lib))

    def no_validation(arr):
        raise AssertionError("a run was validated")

    monkeypatch.setattr(patterns, "_validate_run", no_validation)
    assert format_expr(decompose(Pattern(core(12).arr), lib)) == expected


@pytest.mark.parametrize("terms,message", [
    (range(143, 160, 2), "a range of terms must ascend by 1 within one binary length"),
    (range(6, 9), "a range of terms must ascend by 1 within one binary length"),
    (range(8, 9), r"no term lies in \(7, 8\]"),
])
def test_decompose_refuses_a_range_of_no_terms_of_one_level(terms, message):
    with pytest.raises(ValueError, match=message):
        decompose(terms, standard_library(8))


def test_term_containers_iterate_and_hash_as_their_terms():
    # Level, Core and Pattern share `TermArray`'s iteration and hash.
    for run in (level_structural(8), core(10), Pattern(core(10).arr[1:4])):
        assert list(run) == list(run.terms) == run.arr.tolist()
        assert hash(run) == hash(run.terms)
        assert len({run, dataclasses.replace(run, arr=run.arr.copy())}) == 1


def test_decompose_validates_any_other_run():
    gap = core(10).terms[:3] + core(10).terms[4:8]
    with pytest.raises(NotContiguous):
        decompose(gap, standard_library(8))
    with pytest.raises(NotContiguous):
        decompose(np.array(gap), standard_library(8))


def test_format_expr_renders_a_nested_join_in_place():
    inner = Join((Power(NamedPattern("μ8", 607), 2), Singleton(639)))
    expr = Join((Singleton(543), inner, NamedPattern("λ8", 767)))
    assert format_expr(expr) == "(543) ⊕ μ8(607)^2 ⊕ (639) ⊕ λ8(767)"


def test_decompose_singletons_stay_bare():
    # a lone term whose predecessor gap differs from the 6-core span
    # must not be claimed by the single-term core shape
    lib = standard_library(10)
    expr = decompose((543,), lib)
    assert format_expr(expr) == "(543)"


def test_decompose_matches_only_shapes_that_fit():
    # Every copy named lies inside the run and keeps its shape's span.
    lib = standard_library(12)
    rendered = []
    for seg in subsegments(core(14)):
        expr = decompose(seg, lib)
        rendered.append(format_expr(expr))
        parts = expr.parts if isinstance(expr, Join) else (expr,)
        copies = [p for p in parts if isinstance(p, NamedPattern)]
        copies += [NamedPattern(p.child.name, p.child.top - j * lib[p.child.name].span)
                   for p in parts if isinstance(p, Power) for j in range(p.k)]
        for copy in copies:
            terms = evaluate(copy, lib)
            assert set(terms) <= set(seg)
            assert dyck_pred(terms[0]) == copy.top - lib[copy.name].span
    assert rendered[0] == "(8319) ⊕ μ12/1(8575)^2 ⊕ μ10(8703)"
    assert rendered[3] == "μ10(9855) ⊕ μ12/4(10239)^3"


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


def _match_at_scalar(terms: tuple[int, ...], i: int, shape) -> bool:
    """The term-by-term matcher that the greedy oracle's array matcher
    replaced, and is tested against."""
    k = shape.cardinality
    if k > i + 1:
        return False
    top = terms[i]
    offsets = shape.source.shape[::-1]
    for j, off in enumerate(offsets):
        if terms[i - j] != top - off:
            return False
    first = top - offsets[-1]
    if first <= 0:
        return False
    return dyck_pred(first) == top - shape.span


def _outcome(matcher, run, i: int, shape) -> bool | type[Exception]:
    """The matcher's answer, or the type of the error it raised (a near
    miss can put a non-member where the span check calls dyck_pred)."""
    try:
        return bool(matcher(run, i, shape))
    except NotMember as exc:
        return type(exc)


def _assert_matchers_agree(run: np.ndarray, lib) -> int:
    """Compare the two matchers at every (i, shape), on the int64 run and
    on the same run as exact Python ints; return the number of matches."""
    terms = tuple(run.tolist())
    exact = run.astype(object)
    matches = 0
    for shape in lib.by_priority():
        for i in range(len(terms)):
            expected = _outcome(_match_at_scalar, terms, i, shape)
            assert _outcome(greedy._match_at, run, i, shape) == expected, (shape.name, i)
            assert _outcome(greedy._match_at, exact, i, shape) == expected, (shape.name, i)
            matches += expected is True
    return matches


@st.composite
def matcher_runs(draw):
    """A slice of a level 4..14, possibly with one interior term moved by
    2 either way (a near miss), or a run shorter than most shapes."""
    n = draw(st.integers(min_value=4, max_value=14))
    level = level_structural(n).arr
    kind = draw(st.sampled_from(("slice", "near_miss", "short")))
    longest = 3 if kind == "short" else 200
    i = draw(st.integers(min_value=0, max_value=len(level) - 1))
    j = draw(st.integers(min_value=i + 1, max_value=min(len(level), i + longest)))
    run = level[i:j].copy()
    if kind == "near_miss" and len(run) >= 3:
        run[draw(st.integers(min_value=1, max_value=len(run) - 2))] += draw(st.sampled_from((-2, 2)))
    return run


@given(matcher_runs())
@settings(max_examples=80, deadline=None)
def test_array_matcher_equals_scalar_oracle(run):
    _assert_matchers_agree(run, standard_library(12))


def test_array_matcher_equals_scalar_oracle_on_whole_levels_and_cores():
    lib = standard_library(12)
    runs = [level_structural(n).arr for n in range(4, 13)] + [core(n).arr for n in (12, 14)]
    # the comparison must exercise real matches, not only rejections
    assert sum(_assert_matchers_agree(run, lib) for run in runs) > 0


def _assert_matchers_agree_by_block(run: np.ndarray, lib, block: int) -> int:
    """`_assert_matchers_agree` on the run and on its int64 copy, with
    `_match_at` reading its window `block` terms at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greedy, "_BLOCK", block)
        return sum(_assert_matchers_agree(r, lib) for r in (run, run.astype(np.int64)))


# Besides the real block size, 7: windows of more than 7 terms then
# cross block seams, and a near miss can lie in any block but the first.
MATCH_BLOCKS = [levels._BLOCK, 7]


@pytest.mark.parametrize("block", MATCH_BLOCKS)
@given(matcher_runs())
@settings(max_examples=80, deadline=None)
def test_array_matcher_equals_scalar_oracle_by_block(block, run):
    _assert_matchers_agree_by_block(run, standard_library(12), block)


@pytest.mark.parametrize("block", MATCH_BLOCKS)
def test_array_matcher_equals_scalar_oracle_by_block_on_whole_levels_and_cores(block):
    lib = standard_library(12)
    runs = [level_structural(n).arr for n in range(4, 13)] + [core(n).arr for n in (12, 14)]
    assert sum(_assert_matchers_agree_by_block(run, lib, block) for run in runs) > 0


def _traced_peak(call):
    """The call's result and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def fresh_caches(monkeypatch):
    """Levels and cores built during the test are dropped after it."""
    monkeypatch.setattr(levels, "_array_cache", {})
    monkeypatch.setattr(cores, "_core_cache", {})


def test_decompose_reads_no_terms(fresh_caches):
    # Subsegment 2 of the 28-core is a copy of the 26-core, 1,144,066
    # terms named from its bounds alone, with no level or core built.
    lib = standard_library(26)
    lo, hi = subsegment_bounds(28, 1)
    expr, peak = _traced_peak(lambda: decompose(range(lo + 1, hi + 1), lib))
    assert expr == NamedPattern("μ26", hi)
    assert lib["μ26"].cardinality == 1_144_066
    assert peak < 1 << 16
    assert not levels._array_cache and not cores._core_cache


def test_standard_library_copies_no_terms(fresh_caches):
    # The library of shapes up to the 26-core records each as its class:
    # no source is made until one is asked for.
    lib, peak = _traced_peak(lambda: standard_library(26))
    assert peak < 1 << 16
    assert not any("source" in vars(lib[name]) for name in lib.names())
    assert not levels._array_cache and not cores._core_cache


# -- the class descent against the greedy oracle ------------------------------


@given(st.integers(min_value=4, max_value=18), st.sampled_from((10, 12, 14, 16)), st.data())
@settings(max_examples=60, deadline=None)
def test_descent_equals_the_greedy_oracle_on_level_slices(n, max_core, data):
    lib = standard_library(max_core)
    level = level_structural(n).arr
    i = data.draw(st.integers(min_value=0, max_value=len(level) - 1))
    j = data.draw(st.integers(min_value=i + 1, max_value=min(len(level), i + 3000)))
    run = Pattern(level[i:j].astype(np.int64))
    expected = greedy.greedy_decompose(run, lib)
    assert decompose(run, lib) == expected
    assert decompose(range(int(run.arr[0]), run.top + 1), lib) == expected


def _random_term(data, bits: int) -> int:
    """A term of exactly `bits` bits, drawn from the low bit up: a bit is
    free while the balance below it is positive and 1 otherwise."""
    value, balance = 1 << bits - 1, 0
    for i in range(bits - 1):
        bit = 1 if balance == 0 else data.draw(st.integers(0, 1))
        value |= bit << i
        balance += 1 if bit else -1
    return value


@pytest.mark.parametrize("bits", [40, 63, 64, 70, 200])
@given(st.sampled_from((10, 12, 16)), st.integers(min_value=1, max_value=80), st.data())
@settings(max_examples=25, deadline=None)
def test_descent_equals_the_greedy_oracle_above_int64(bits, max_core, length, data):
    # Runs near the top of the level are long enough for the larger shapes.
    top = data.draw(st.sampled_from((mersenne(bits), _random_term(data, bits))))
    run = [top]
    while len(run) < length and dyck_pred(run[0]).bit_length() == bits:
        run.insert(0, dyck_pred(run[0]))
    lib = standard_library(max_core)
    assert decompose(run, lib) == greedy.greedy_decompose(run, lib)


def _class(prefix: int, m: int) -> tuple[int, int, int]:
    """(theta, first, top) of the class of m free bits under prefix."""
    low = -_lowest(prefix)
    theta = low + ((low ^ m) & 1)
    return (theta, *_class_ends(prefix << m, m, theta))


@functools.cache
def _classes_by_theta(m: int) -> list[list[tuple[int, int]]]:
    """(first, top) of the classes of m free bits under the prefixes of
    1 to 9 bits, grouped by theta; the groups of two or more."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for prefix in range(1, 1 << 9):
        theta, first, top = _class(prefix, m)
        if theta <= m:
            groups.setdefault(theta, []).append((first, top))
    return [g for g in groups.values() if len(g) > 1]


@given(st.integers(min_value=1, max_value=1 << 80), st.integers(min_value=0, max_value=90))
@settings(max_examples=300, deadline=None)
def test_a_class_of_two_or_more_terms_spans_two_to_the_m(prefix, m):
    theta, first, top = _class(prefix, m)
    if theta <= m - 2:
        assert dyck_pred(first) == (prefix << m) - 1
        assert top - dyck_pred(first) == 1 << m


@st.composite
def equal_classes(draw):
    """Prefixes P and P' of equal (m, theta) and an m-bit z, every term
    P * 2**m + z and P' * 2**m + z of 1 to 300 bits.  P' is drawn, then
    padded at the bottom to P's lowest suffix balance: each 0 below it
    lowers that balance by 1, and d ones raise it by d, floored at 0."""
    m = draw(st.integers(min_value=0, max_value=298))
    bits = draw(st.integers(min_value=1, max_value=(300 - m) // 2))
    prefix = draw(st.integers(min_value=1 << bits - 1, max_value=(1 << bits) - 1))
    other = draw(st.integers(min_value=1, max_value=(1 << bits) - 1))
    want, have = -_lowest(prefix), -_lowest(other)
    d = abs(want - have)
    other = other << d | ((1 << d) - 1 if have > want else 0)
    return prefix, other, m, draw(st.integers(min_value=0, max_value=(1 << m) - 1))


@given(equal_classes())
@settings(max_examples=400, deadline=None)
def test_membership_under_a_prefix_depends_on_theta_alone(case):
    prefix, other, m, z = case
    theta, first, top = _class(prefix, m)
    for p in (prefix, other):
        assert _class_of(p << m, (p + 1 << m) - 1) == (p, m, theta)
    assert is_dyck_number(prefix << m | z) == is_dyck_number(other << m | z)
    if m <= 20:
        members = _rank(top) - _rank(first) + 1 if theta <= m else 0
        assert math.comb(m, (m + theta) // 2) == members


def _offsets(expr, top: int) -> list[tuple[str, object, int]]:
    """The parts of an expression, each placed by its offset below top."""
    parts = expr.parts if isinstance(expr, Join) else (expr,)
    out = []
    for p in parts:
        if isinstance(p, Singleton):
            out.append(("1", None, top - p.term))
        elif isinstance(p, NamedPattern):
            out.append(("μ", p.name, top - p.top))
        else:
            out.append((f"^{p.k}", p.child.name, top - p.child.top))
    return out


@given(st.integers(min_value=0, max_value=12), st.data())
@settings(max_examples=80, deadline=None)
def test_classes_of_equal_key_decompose_into_translates(m, data):
    # The memo lemma: two classes of equal (m, theta) decompose, each
    # with a library of its own, into pieces at the same offsets below
    # their tops.
    group = data.draw(st.sampled_from(_classes_by_theta(m)))
    (first, top), (first2, top2) = data.draw(
        st.lists(st.sampled_from(group), min_size=2, max_size=2, unique=True))
    assert top - first == top2 - first2
    a = decompose(range(first, top + 1), standard_library(12))
    b = decompose(range(first2, top2 + 1), standard_library(12))
    assert _offsets(a, top) == _offsets(b, top2)


@pytest.mark.parametrize("bits", [40, 63, 64, 70])
def test_decompose_above_int64(bits):
    top = mersenne(bits)
    run = [top]
    while len(run) < 10:
        run.insert(0, dyck_pred(run[0]))
    lib = standard_library(12)
    expr = decompose(run, lib)
    assert expr == NamedPattern("π6", top)
    assert format_expr(expr) == f"π6({top})"
    assert evaluate(expr, lib) == tuple(run)


def _assert_residue(n: int) -> None:
    """Observed by this code, not claimed by the paper: against
    standard_library(n - 2), subsegments 2-4 of the n-core decompose with
    no singleton and subsegment 1 leaves Cat((n - 12) / 2) of them."""
    lib = standard_library(n - 2)
    singletons = []
    for seg in core(n).segments:
        expr = decompose(seg, lib)
        parts = expr.parts if isinstance(expr, Join) else (expr,)
        singletons.append(sum(isinstance(p, Singleton) for p in parts))
        assert evaluate(expr, lib) == tuple(seg.tolist())
    assert singletons == [catalan((n - 12) // 2), 0, 0, 0]


@pytest.mark.parametrize("n", [14, 16, 18, 20])
def test_decomposition_residue(n):
    _assert_residue(n)


@pytest.mark.slow
@pytest.mark.parametrize("n", [22, 24])
def test_decomposition_residue_slow(n):
    _assert_residue(n)
