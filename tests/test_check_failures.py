"""Every checker reports FAIL, with its first counterexample, when the
level or core it reads is corrupted, and `gen` prints no corrupted
level with exit code 0.

Each test swaps the function a checker reads its input through for one
that drops or shifts a single term; the memoized levels and cores
themselves are never touched.  A reader of blocks is swapped for one
that changes the terms it reads and yields them again as blocks.
"""

import numpy as np
import pytest

from dycknums import cli, conjectures, cores, levels
from dycknums.cli import main
from dycknums.conjectures import (
    check_catalan_rejection,
    check_conj16,
    check_conj18,
    check_prop12,
    run_all,
    size_identity_checks,
    verify_eq1,
    verify_eq2,
)
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
    """`conjectures._level_array(n)`, a level the eq1 and eq2 certificates
    read, returns level n changed."""
    real = conjectures._level_array

    def level_array(m, *args):
        return change(real(m, *args)) if m == n else real(m, *args)

    monkeypatch.setattr(conjectures, "_level_array", level_array)


def changed_blocks(blocks, change):
    """The terms of a stream of blocks, changed, as blocks again.  Each
    block is copied as it comes, since a stream may reuse its buffer."""
    copies = [block.copy() for block in blocks]
    terms = change(np.concatenate(copies) if copies else np.empty(0, dtype=np.int64))
    return iter([terms[s : s + levels._BLOCK] for s in range(0, len(terms), levels._BLOCK)])


def corrupt_level_blocks(monkeypatch, module, n, change):
    """`module._level_blocks(n, ...)`, the reader of level n as blocks,
    yields the terms it reads changed."""
    real = module._level_blocks

    def level_blocks(m, *args, **kwargs):
        blocks = real(m, *args, **kwargs)
        return changed_blocks(blocks, change) if m == n else blocks

    monkeypatch.setattr(module, "_level_blocks", level_blocks)


def construction_failure(message):
    return Counterexample("construction", "a valid pattern", message)


def assert_fails(outcome, name, n, detail):
    assert (outcome.name, outcome.n, outcome.passed) == (name, n, False)
    assert outcome.detail == detail
    assert outcome.elapsed > 0


def test_eq1_reports_a_shifted_level_term(monkeypatch):
    # level 6 holds 51, 53, 55: 53 shifted onto 55 repeats 55 + 32 in the
    # lower copy
    corrupt_level(monkeypatch, 6, shift(5))
    assert_fails(verify_eq1(7), "eq1", 7, construction_failure("87 does not ascend from 87"))


def test_eq1_reports_a_broken_construction(monkeypatch):
    # 47 shifted to 49 = 110001; its lower copy 81 = 1010001 dips negative
    corrupt_level(monkeypatch, 6, shift(3))
    assert_fails(verify_eq1(7), "eq1", 7, construction_failure(
        "81 is not a term of the sequence"
    ))


def failures(outcomes):
    return {(o.name, o.n): o.detail for o in outcomes if not o.passed}


# eq2 reads no term of level n: it certifies the copies of level n-2 and
# that the construction's tail parts are those copies.  A level n that
# streams other terms is caught by prop12, which reads it whole; each
# term is changed by value, so the core that conj16 reads stays intact.
def test_a_dropped_tail_term_fails_prop12_in_run_all(monkeypatch):
    corrupt_level_blocks(monkeypatch, conjectures, 8, lambda arr: arr[arr != 255])
    assert failures(run_all(8)) == {("prop12", 8): Counterexample("cardinality", 35, 34)}


def test_a_shifted_tail_term_fails_prop12_in_run_all(monkeypatch):
    # Level 22's tail spans several blocks; its term 2 * _BLOCK + 7 is
    # moved onto the next one.
    level = levels._level_array(22)
    tail_start = int(np.searchsorted(level, levels.core_top(22), side="right"))
    t = int(level[tail_start + 2 * levels._BLOCK + 7])
    assert level[tail_start + 2 * levels._BLOCK + 8] == t + 2
    corrupt_level_blocks(monkeypatch, conjectures, 22, lambda arr: np.where(arr == t, t + 2, arr))
    assert failures(run_all(22)) == {
        ("prop12", 22): Counterexample(t + 2, f"above {t + 2}", "not above")
    }


def read_only(change):
    def changed(arr):
        out = change(arr)
        out.flags.writeable = False
        return out

    return changed


@pytest.mark.parametrize("change", [None, shift(3), read_only(shift(3))],
                         ids=["resident", "corrupted", "corrupted_read_only"])
def test_eq1_and_eq2_witness_level_6_once_a_run_unless_corrupted(monkeypatch, change):
    # eq1(7) and eq2(8) both copy level 6, and prop12(6) reads it.  In a
    # run they take one witness of the resident array.  A corrupted level
    # is a fresh array on each call, and eq1 and eq2 then each witness
    # their own, and fail as they do alone; prop12(6) witnesses the
    # resident level, which neither is.
    witnessed = []
    real = conjectures._witness

    def witness(src):
        if isinstance(src, np.ndarray) and len(src) == levels.level_size(6):
            witnessed.append(src)
        return real(src)

    monkeypatch.setattr(conjectures, "_witness", witness)
    if change is None:
        assert failures(run_all(8)) == {}
        assert len(witnessed) == 1 and witnessed[0] is levels._level_array(6)
        return
    corrupt_level(monkeypatch, 6, change)
    assert failures(run_all(8)) == {
        ("eq1", 7): construction_failure("81 is not a term of the sequence"),
        ("eq2", 8): construction_failure("177 is not a term of the sequence"),
    }
    resident = levels._level_array(6)
    assert len(witnessed) == 3 and witnessed[2] is resident
    assert witnessed[0] is not witnessed[1] and all(src is not resident for src in witnessed[:2])


# Each corruption fails prop12 at the level it changes, and the checks
# that copy that level read it again: run_all reports what each check
# reports alone.
@pytest.mark.parametrize("n,change", [
    (8, shift(1)),   # a core term of level 8 moved onto a non-member
    (12, drop(2)),   # a core term of level 12 dropped
    (14, drop(-1)),  # the last term read of level 14 dropped
], ids=["shifted_core_term_8", "dropped_core_term_12", "dropped_last_term_14"])
def test_run_all_fails_as_each_check_alone_on_a_corrupted_level(monkeypatch, n, change):
    corrupt_level_blocks(monkeypatch, conjectures, n, change)
    max_n = 18
    alone = [conjectures.CHECKS[name][0](k)
             for name, k in conjectures.planned_checks(conjectures.CHECKS, max_n)]
    expected = failures(alone + size_identity_checks(max_n))
    assert ("prop12", n) in expected
    assert failures(run_all(max_n)) == expected


def test_eq2_reports_a_broken_construction(monkeypatch):
    # 47 shifted to 49; its lowest copy 177 = 10110001 dips negative
    corrupt_level(monkeypatch, 6, shift(3))
    assert_fails(verify_eq2(8), "eq2", 8, construction_failure(
        "177 is not a term of the sequence"
    ))


def mutate_parts(monkeypatch, n, change):
    """`conjectures._level_parts(n)`, the parts eq1 and eq2 check against
    their copies, returns the parts of level n changed."""
    real = conjectures._level_parts

    def level_parts(m):
        return change(real(m)) if m == n else real(m)

    monkeypatch.setattr(conjectures, "_level_parts", level_parts)


def replace_part(i, change):
    """Part i, a (source, mask, shift) triple, changed."""
    return lambda parts: parts[:i] + [change(*parts[i])] + parts[i + 1 :]


def shifted_source(src, keep, shift):
    out = src.copy()
    out[len(out) // 2] += 2
    return out, keep, shift


def masked(src, keep, shift):
    mask = np.ones(len(src), dtype=bool)
    mask[-1] = False
    return src, mask, shift


# Each part of level n above its core must be its copy: the certified
# array, unmasked, at the copy's offset, and as many parts as copies.
# Odd n = 9 is two parts of level 8; even n = 10 the core (part 0) and
# three parts of level 8.
@pytest.mark.parametrize("n,change,detail", [
    (9, replace_part(1, lambda src, keep, shift: (src, keep, shift + 2)),
     Counterexample("part 1 of level 9", "shift 256", "shift 258")),
    (9, replace_part(0, shifted_source),
     Counterexample("part 0 of level 9", "the certified source", "another array")),
    (9, replace_part(0, masked), Counterexample("part 0 of level 9", "no mask", "a mask")),
    (9, lambda parts: parts[1:], Counterexample("part 0 of level 9", "shift 128", "shift 256")),
    (9, lambda parts: parts + parts[-1:], Counterexample("parts of level 9", 2, 3)),
    (10, replace_part(2, lambda src, keep, shift: (src, keep, shift - 2)),
     Counterexample("part 2 of level 10", "shift 640", "shift 638")),
    (10, replace_part(3, shifted_source),
     Counterexample("part 3 of level 10", "the certified source", "another array")),
    (10, replace_part(1, masked), Counterexample("part 1 of level 10", "no mask", "a mask")),
    (10, lambda parts: parts[:-1], Counterexample("parts of level 10", 3, 2)),
], ids=["eq1_shift", "eq1_source", "eq1_mask", "eq1_part_dropped", "eq1_part_added",
        "eq2_shift", "eq2_source", "eq2_mask", "eq2_part_dropped"])
def test_eq1_and_eq2_report_a_part_that_is_not_its_copy(monkeypatch, n, change, detail):
    mutate_parts(monkeypatch, n, change)
    name, checker = ("eq1", verify_eq1) if n % 2 else ("eq2", verify_eq2)
    assert_fails(checker(n), name, n, detail)


def test_prop12_reports_a_missing_triplet_member(monkeypatch):
    # level 6 starts 39, 43; 41 = 101001 lifts to 163 = 10100011, whose
    # suffix 00011 dips negative
    corrupt_level_blocks(monkeypatch, conjectures, 6, shift(0))
    assert_fails(check_prop12(6), "prop12", 6, Counterexample(41, "163 in level 8", "absent"))


# The membership test reads only the low n bits of a term, so a term
# of another width must be caught before it: the level-6 term 63
# shifted to 103 (a term of level 7), 39 shifted by 2**20, whose low 6
# bits are 39's, and 39 shifted to 0, a first term of no width.
@pytest.mark.parametrize("i,delta,term", [(-1, 40, 103), (0, 1 << 20, 1048615), (0, -39, 0)],
                         ids=["7_bits", "21_bits", "0_bits"])
def test_prop12_reports_a_term_of_another_width(monkeypatch, i, delta, term):
    corrupt_level_blocks(monkeypatch, conjectures, 6, shift(i, delta))
    assert_fails(check_prop12(6), "prop12", 6,
                 Counterexample(term, "a term of 6 bits", f"{term.bit_length()} bits"))


def test_prop12_reports_the_first_failing_term_in_level_order(monkeypatch):
    # Level 20 spans two blocks of the check.  In the first, 526304 (even)
    # lifts to a member for delta -1 only; in the second, 933649 (not a
    # term) lifts to no member.  The first failing term is reported, with
    # its first lift that is no member.
    def corrupted(arr):
        arr[5], arr[70000] = 526304, 933649
        return arr

    assert levels._BLOCK < 70000 < levels.level_size(20)
    corrupt_level_blocks(monkeypatch, conjectures, 20, corrupted)
    assert_fails(check_prop12(20), "prop12", 20,
                 Counterexample(526304, "2105217 in level 22", "absent"))


# prop12 witnesses level n: every term read, and no other.  Dropped
# terms and an empty stream fall short of level_size(n); a repeated term,
# in a block or across the seam of two, does not ascend.
@pytest.mark.parametrize("n,change,detail", [
    (8, lambda arr: arr[:0], Counterexample("cardinality", 35, 0)),
    (8, drop(-1), Counterexample("cardinality", 35, 34)),
    (20, drop(70000), Counterexample("cardinality", 92378, 92377)),
    (8, lambda arr: np.insert(arr, 4, arr[4]), Counterexample(159, "above 159", "not above")),
    (20, lambda arr: np.insert(arr, levels._BLOCK, arr[levels._BLOCK - 1]),
     Counterexample(905883, "above 905883", "not above")),
], ids=["empty", "top_dropped", "dropped_in_block_2", "repeated", "repeated_across_blocks"])
def test_prop12_reports_a_level_other_than_level_n(monkeypatch, n, change, detail):
    corrupt_level_blocks(monkeypatch, conjectures, n, change)
    assert_fails(check_prop12(n), "prop12", n, detail)


def flip(i, bit, term):
    """Clear bit `bit` of the term at index i, which must be `term`."""
    def flipped(arr):
        assert arr[i] == term
        arr[i] ^= 1 << bit
        return arr

    return flipped


# prop12 reads level 20 as 20-bit words in two 16-bit chunks: bits 0-15
# fall in chunk 0, bits 16-19 in chunk 1.
@pytest.mark.parametrize("i,bit,term,flipped", [
    # 933655 = 11100011111100010111 without bit 4: the suffix 00111 dips
    (70001, 4, 933655, 933639),
    # 568277 = 10001010101111010101 without bit 15: the suffix of 17 bits dips
    (3988, 15, 568277, 535509),
    # 592631 = 10010000101011110111 without bit 16: the suffix of 19 bits dips
    (8076, 16, 592631, 527095),
])
def test_prop12_reports_a_bit_cleared_in_each_chunk_of_the_lifts(monkeypatch, i, bit, term,
                                                                 flipped):
    corrupt_level_blocks(monkeypatch, conjectures, 20, flip(i, bit, term))
    assert_fails(check_prop12(20), "prop12", 20,
                 Counterexample(flipped, f"{4 * flipped - 1} in level 22", "absent"))


def test_prop12_reports_a_bit_cleared_in_chunk_2_of_34_bit_lifts(monkeypatch):
    # 0xD5555555 = 1101 0101 ... 0101: every suffix below bit 30 is at 0
    # or 1, so without bit 30 the suffix of 31 bits dips to -1.  prop12
    # reads bit 30 in chunk 1 of t; in the 34-bit lifts it is bit 32 of
    # 4t, in chunk 2.  The run passes every test of a term and falls
    # short of level 32 only.
    run = np.array([0xD5555555, 0xD5555557, 0xD555555F], dtype=np.int64)
    monkeypatch.setattr(conjectures, "_level_blocks", lambda level: iter([run]))
    assert check_prop12(32).detail == Counterexample("cardinality", levels.level_size(32), 3)
    run[0] ^= 1 << 30
    assert_fails(check_prop12(32), "prop12", 32,
                 Counterexample(2505397589, "10021590355 in level 34", "absent"))


# conj16(8) certifies the 8-core (143, 151, 155, 157, 159), read as the
# leading part of level 8, shifted by 416 and by 448 as subsegments 2
# (559 .. 575) and 3 (591 .. 607) of the 10-core.


def test_conj16_reports_a_short_subsegment(monkeypatch):
    corrupt_level_blocks(monkeypatch, conjectures, 8, drop(0))
    assert_fails(check_conj16(8), "conj16", 8, Counterexample("cardinality", 5, 4))


def test_conj16_reports_a_shifted_copy_term(monkeypatch):
    # 153 = 10011001 dips negative, and so does its copy 569
    corrupt_level_blocks(monkeypatch, conjectures, 8, shift(1))
    assert_fails(check_conj16(8), "conj16", 8, construction_failure(
        "569 is not a term of the sequence"
    ))


def test_conj16_reports_a_copy_above_the_subsegment(monkeypatch):
    # 159 shifted to 161 copies to 577, past the subsegment top 575
    corrupt_level_blocks(monkeypatch, conjectures, 8, shift(4))
    assert_fails(check_conj16(8), "conj16", 8, construction_failure("577 lies above 575"))


# conj18(12) certifies the 8-core shifted by 2304, then three copies of
# the top subsegment of the 10-core, 615 .. 639, ending at 2495, 2527
# and 2559, as the top subsegment of the 12-core, 2447 .. 2559.


def test_conj18_reports_a_dropped_lower_core_term(monkeypatch):
    corrupt_level_blocks(monkeypatch, conjectures, 8, drop(2))
    assert_fails(check_conj18(12), "conj18", 12, Counterexample("cardinality", 35, 34))


def test_conj18_reports_a_shifted_lower_core_term(monkeypatch):
    # 159 shifted to 161 = 10100001; its copy 2465 dips negative
    corrupt_level_blocks(monkeypatch, conjectures, 8, shift(4))
    assert_fails(check_conj18(12), "conj18", 12, construction_failure(
        "2465 is not a term of the sequence"
    ))


def test_conj18_reports_a_shifted_cube_source_term(monkeypatch):
    # 615, the first term of the 10-core's top subsegment, shifted to 617
    corrupt_level_blocks(monkeypatch, conjectures, 10, shift(0))
    assert_fails(check_conj18(12), "conj18", 12, construction_failure(
        "2473 is not a term of the sequence"
    ))


def test_conj18_reports_a_short_top_subsegment(monkeypatch):
    # each of the three copies of the 10-core's top subsegment is short
    corrupt_level_blocks(monkeypatch, conjectures, 10, drop(-1))
    assert_fails(check_conj18(12), "conj18", 12, Counterexample("cardinality", 35, 32))


def test_conj18_reports_a_shifted_top_subsegment_term(monkeypatch):
    # 627 shifted onto 629 repeats 629 + 1856 in the lowest copy
    corrupt_level_blocks(monkeypatch, conjectures, 10, shift(4))
    assert_fails(check_conj18(12), "conj18", 12, construction_failure(
        "2485 does not ascend from 2485"
    ))


@pytest.mark.parametrize("checker, n, attr, detail", [
    (check_conj16, 8, "core_size", Counterexample("subsegment 2 members", 6, 5)),
    (check_conj18, 12, "a001405", Counterexample("subsegment 4 members", 36, 35)),
])
def test_core_copies_report_a_claimed_size_that_is_not_the_member_count(
    monkeypatch, checker, n, attr, detail
):
    real = getattr(conjectures, attr)
    monkeypatch.setattr(conjectures, attr, lambda k: real(k) + 1)
    assert_fails(checker(n), checker.__name__.removeprefix("check_"), n, detail)


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


# Within a run, rejection takes the rule's verdicts as membership only
# for the source prop12's level was built from.  Here the core part of
# level 10 reads a fresh read-only copy of level 8 with 247 = 11110111
# moved to 249 = 11111001: six ones keep it by the rule, but its image
# ends in 1001 and is no member, while the rejected count is still
# Cat(4).  prop12(10) reads the level `levels` builds and passes.
def test_run_all_reports_a_rejection_source_other_than_the_witnessed_level(monkeypatch):
    assert levels._level_array(8)[31] == 247
    mutate_parts(monkeypatch, 10, replace_part(0, lambda src, keep, offset: (
        read_only(shift(31))(src), keep, offset)))
    alone = check_catalan_rejection(10)
    assert alone.detail == Counterexample(249, "rejected", "kept")
    assert failures(run_all(12)) == {("rejection", 10): alone.detail}


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
    corrupt_level_blocks(monkeypatch, conjectures, 8, drop(0))
    assert main(["verify", "conj16", "--max-n", "10"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("FAIL conj16 n=8 (")
    assert lines[0].endswith("s) at cardinality: expected 5, got 4")
    assert lines[1].startswith("PASS conj16 n=10 (")


def test_run_all_times_every_outcome():
    outcomes = run_all(12)
    assert outcomes and all(o.elapsed > 0 for o in outcomes)


# -- gen ----------------------------------------------------------------------


def repeat(i):
    """Term i made equal to term i - 1."""
    def repeated(arr):
        out = arr.copy()
        out[i] = out[i - 1]
        return out

    return repeated


@pytest.mark.parametrize("n", [20, 21])
def test_gen_level_raises_on_a_stream_short_of_a_term(monkeypatch, n):
    # Level 20 reads its core, then the images above it as blocks.
    size = levels.level_size(n)
    corrupt_level_blocks(monkeypatch, cli, n, drop(levels._BLOCK + 5))
    with pytest.raises(AssertionError, match=f"level {n} streams {size - 1} terms, not {size}"):
        main(["gen", "--level", str(n)])


# inside the first block, at the seam of the first two, inside the second
@pytest.mark.parametrize("i", [5, levels._BLOCK, levels._BLOCK + 5])
def test_gen_level_refuses_a_stream_that_stops_ascending(monkeypatch, capsys, i):
    corrupt_level_blocks(monkeypatch, cli, 21, repeat(i))
    assert main(["gen", "--level", "21"]) == 1
    assert "terms must be strictly ascending" in capsys.readouterr().err


def test_gen_level_raises_on_a_block_made_out_of_order(monkeypatch):
    # Level 21 is read as two copies of level 20; two terms of its
    # source swapped in the second block break ascent in the block that
    # `levels._level_blocks` makes from them.
    level_20 = levels._level_array(20).copy()
    i = levels._BLOCK + 5
    level_20[[i, i + 1]] = level_20[[i + 1, i]]
    monkeypatch.setattr(levels, "_array_cache", {20: level_20})
    with pytest.raises(AssertionError, match="level 21 construction is not strictly ascending"):
        main(["gen", "--level", "21"])


def insert_after(i):
    """Term i + 1 put after term i: even, so no term, and still ascending."""
    return lambda arr: np.insert(arr, i + 1, arr[i] + 1)


# `gen --check` compares each printed block with its slice of the scan:
# one term of level 20's second block changed, dropped or added must be
# reported, whichever side runs out first.
@pytest.mark.parametrize("change", [shift(levels._BLOCK + 5, 1), drop(levels._BLOCK + 5),
                                    insert_after(levels._BLOCK + 5)],
                         ids=["changed", "dropped", "added"])
def test_gen_check_reports_a_printed_level_other_than_the_scan(monkeypatch, capsys, change):
    real = cli._gen_blocks
    monkeypatch.setattr(cli, "_gen_blocks", lambda kind, n: changed_blocks(real(kind, n), change))
    assert main(["gen", "--level", "20", "--check"]) == 1
    assert capsys.readouterr().err == "check: level 20 disagrees with the scan oracle\n"
