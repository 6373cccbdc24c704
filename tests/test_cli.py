import hashlib
import importlib
import inspect
import io
import itertools
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import dycknums
from dycknums import cli, conjectures, cores, levels, patterns
from dycknums.cli import main
from dycknums.errors import BoundError
from dycknums.levels import level_structural, stream_terms

from conftest import run_cli_fresh


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_level(capsys):
    code, out, _ = run(capsys, "gen", "--level", "6")
    assert code == 0
    assert out.strip() == "39 43 45 47 51 53 55 59 61 63"


def test_gen_count(capsys):
    code, out, _ = run(capsys, "gen", "--count", "5")
    assert code == 0
    assert out.strip() == "0 1 3 5 7"
    code, out, err = run(capsys, "gen", "--count", "5", "--check")
    assert code == 0 and out.strip() == "0 1 3 5 7"
    assert err == "check: not applicable to --count output\n"


def test_gen_core(capsys):
    code, out, _ = run(capsys, "gen", "--core", "8")
    assert code == 0
    assert out.strip() == "143 151 155 157 159"


def test_gen_records_format(capsys):
    code, out, _ = run(capsys, "gen", "--level", "4", "--format", "records")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind\tn\tindex\tterm"
    assert lines[1] == "level\t4\t1\t11"
    assert lines[-1] == "level\t4\t3\t15"


def test_gen_check_against_scan(capsys):
    code, _, err = run(capsys, "gen", "--level", "8", "--check")
    assert code == 0
    assert "matches the scan oracle" in err
    code, _, err = run(capsys, "gen", "--core", "10", "--check")
    assert code == 0
    assert "matches the scan oracle" in err


@pytest.mark.parametrize("argv", [("--level", "6"), ("--core", "8")])
def test_cache_options_are_ignored(tmp_path, monkeypatch, capsys, argv):
    # levels and cores are always rebuilt: the cache options still parse,
    # and nothing is read from or written to the directory they name
    absent, stale = tmp_path / "absent", tmp_path / "stale"
    stale.mkdir()
    forged = "# level 6 2\n1\n2\n"
    (stale / "level_6.txt").write_text(forged)
    _, plain, _ = run(capsys, "gen", *argv)
    for options in (
        ("--cache-dir", str(absent)),
        ("--no-cache",),
        ("--cache-dir", str(absent), "--no-cache"),
        ("--cache-dir", str(stale)),
    ):
        assert run(capsys, "gen", *argv, *options) == (0, plain, "")
    monkeypatch.setenv("DYCKNUMS_CACHE_DIR", str(absent))
    assert run(capsys, "gen", *argv) == (0, plain, "")
    assert not absent.exists()
    assert [p.name for p in stale.iterdir()] == ["level_6.txt"]
    assert (stale / "level_6.txt").read_text() == forged
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--help"])
    assert exc.value.code == 0
    assert "ignored" in capsys.readouterr().out


@pytest.mark.parametrize(
    "op,term,expected",
    [("pred", "39", "31"), ("succ", "511", "543"), ("classify", "543", "Root"),
     ("level-of", "39", "6")],
)
def test_query_examples(capsys, op, term, expected):
    code, out, _ = run(capsys, "query", op, term)
    assert code == 0
    assert out.strip() == expected


def test_query_domain_errors(capsys):
    code, _, err = run(capsys, "query", "pred", "0")
    assert code == 1 and "undefined" in err
    code, _, err = run(capsys, "query", "succ", "9")
    assert code == 1 and "not a term" in err


@pytest.mark.parametrize(
    "op,term,expected",
    [
        ("succ", 2305843009213693951, 2305843011361177599),  # M_61 + 2**31
        ("pred", 2305843011361177599, 2305843009213693951),
        ("succ", (1 << 1000) - 1, (1 << 1000) + (1 << 500) - 1),
    ],
)
def test_query_succ_pred_beyond_64_bits(capsys, op, term, expected):
    code, out, _ = run(capsys, "query", op, str(term))
    assert code == 0
    assert out.strip() == str(expected)


@pytest.mark.parametrize("op", ["succ", "pred"])
@pytest.mark.parametrize("term", [1 << 70, (1 << 70) + 1])  # even; odd non-member
def test_query_succ_pred_reject_non_members(capsys, op, term):
    code, out, err = run(capsys, "query", op, str(term))
    assert code == 1 and out == ""
    assert "not a term" in err


@pytest.mark.parametrize(
    "sign,tail,message",
    [("", "", "has more than {} digits"), ("-", "", "has more than {} digits"),
     ("", "x", "is not an integer")],
)
def test_query_of_a_long_argument_is_reported_in_short(capsys, sign, tail, message):
    limit = sys.get_int_max_str_digits()  # int() refuses longer decimal strings
    with pytest.raises(SystemExit) as exc:
        main(["query", "succ", sign + "9" * (limit + 700) + tail])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message.format(limit) in err and len(err) < 400


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["query", "pred", "-4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_decompose_core(capsys):
    code, out, _ = run(capsys, "decompose", "--core", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "(543) ⊕ μ8(607)^2 ⊕ π6(639)"
    assert len(lines) == 5  # four subsegments plus the combined form
    code, out, _ = run(capsys, "decompose", "--core", "6")
    assert code == 0 and out.strip() == "(39)"
    code, out, _ = run(capsys, "decompose", "--core", "12")
    assert code == 0
    assert "μ10(2303)" in out and "μ10(2431)" in out


def test_decompose_level(capsys):
    code, out, _ = run(capsys, "decompose", "--level", "8")
    assert code == 0
    assert out.strip() == "μ8(159) ⊕ π6(255)^3"


@pytest.mark.parametrize("argv,message", [
    (("--core", "7"), "cores exist for even n >= 6"),
    (("--level", "0"), "n must be >= 1"),
])
def test_decompose_outside_its_domain_is_a_domain_error(capsys, argv, message):
    code, out, err = run(capsys, "decompose", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


# sha256 of the output of `decompose --core 20` and `--level 12`
DECOMPOSE_SHA256 = {
    ("--core", "20"): "bc1b2dd4a181185f64392abae5e3c90ddffc49223de2e8cdec8498cf707d28d1",
    ("--level", "12"): "30d89106e21e879b0a9dfa49a7ee6e014d67f0fda60e72610b96e61829cf5d8e",
}


@pytest.mark.parametrize("argv", list(DECOMPOSE_SHA256))
def test_decompose_validates_no_run_it_built(monkeypatch, capsys, argv):
    # The core, its segments and the level are runs by construction.
    def no_validation(arr):
        raise AssertionError("a run was validated")

    monkeypatch.setattr(patterns, "_validate_run", no_validation)
    code, out, _ = run(capsys, "decompose", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_SHA256[argv]


def test_verify_appendix(capsys):
    code, out, _ = run(capsys, "verify", "appendix")
    assert code == 0
    assert "PASS appendix n=500" in out


def test_verify_conj16_count(capsys):
    code, out, _ = run(capsys, "verify", "conj16", "--max-n", "20")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.startswith("PASS conj16") for line in lines)


def test_verify_rejection_is_a_selector(capsys):
    code, out, _ = run(capsys, "verify", "rejection", "--max-n", "10")
    assert code == 0
    assert [line.split(" (")[0] for line in out.splitlines()] == [
        "PASS rejection n=6", "PASS rejection n=8", "PASS rejection n=10"
    ]


def test_verify_eq1_builds_no_odd_level(monkeypatch, capsys):
    monkeypatch.setattr(levels, "_array_cache", {})
    code, out, _ = run(capsys, "verify", "eq1", "--max-n", "23", "--offline")
    assert code == 0 and out.count("PASS eq1") == 10
    assert sorted(levels._array_cache) == list(range(2, 23, 2))


def test_verify_eq1_records(capsys):
    code, out, _ = run(capsys, "verify", "eq1", "--max-n", "9", "--format", "records")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("name\tn\tpassed")
    assert [l.split("\t")[:3] for l in lines[1:]] == [
        ["eq1", "5", "1"], ["eq1", "7", "1"], ["eq1", "9", "1"],
    ]


def test_verify_sizes(capsys):
    code, out, _ = run(capsys, "verify", "sizes")
    assert code == 0
    assert "PASS prop10" in out and "PASS core-sizes" in out


def test_verify_oeis_single(capsys):
    code, out, _ = run(capsys, "verify", "oeis", "A002054", "--offline")
    assert code == 0
    assert "PASS oeis:A002054 n=40" in out


@pytest.mark.parametrize(
    "argv,message",
    [
        (("verify", "eq1", "A002054", "--max-n", "7"), "taken only by the oeis selector"),
        (("verify", "all", "A036991", "--offline"), "taken only by the oeis selector"),
        (("verify", "oeis", "A000045", "--offline"), "invalid choice: 'A000045'"),
    ],
)
def test_verify_stray_sequence_id_is_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_verify_oeis_corrupted_cache_fails(tmp_path, capsys):
    (tmp_path / "b002054.txt").write_text("1 1\n2 5\n3 22\n" + "\n".join(
        f"{k} 0" for k in range(4, 25)
    ) + "\n")
    code, out, _ = run(
        capsys, "verify", "oeis", "A002054", "--offline", "--oeis-cache", str(tmp_path)
    )
    assert code == 1
    assert "FAIL oeis:A002054" in out and "index 3" in out


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-n", "12", "--offline")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)
    assert any("appendix" in line for line in lines)
    assert any("oeis:A036991" in line for line in lines)


def test_console_script_entry():
    result = subprocess.run(
        [sys.executable, "-m", "dycknums.cli", "gen", "--level", "6"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "39 43 45 47 51 53 55 59 61 63"


def test_gen_into_a_closed_pipe_exits_1_with_nothing_on_stderr():
    # Level 20 is about 650 KB of text, more than a pipe holds, so the
    # reader closes its end while the CLI is still writing.
    proc = subprocess.Popen(
        [sys.executable, "-m", "dycknums.cli", "gen", "--level", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b"525311 525"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "eq1", "--max-n", "3"),
        ("verify", "conj18", "--max-n", "10", "--format", "records"),
    ],
)
def test_verify_empty_selection_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "selects no level" in captured.err


@pytest.mark.parametrize(
    "argv,level",
    [
        (("verify", "all", "--max-n", "40", "--offline"), 40),
        (("verify", "all", "--max-n", "33", "--offline"), 33),
        (("verify", "eq1", "--max-n", "33"), 33),
    ],
)
def test_verify_max_n_beyond_structural_bound_is_usage_error(no_block, capsys, argv, level):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"needs level {level}, above level 32, the highest that streams" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "all", "--max-n", "0", "--offline"),
        ("verify", "sizes", "--max-n", "-4"),
        ("verify", "eq1", "--max-n", "-4"),
        ("verify", "prop12", "--max-n", "0"),
    ],
)
def test_verify_max_n_below_1_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-n" in captured.err


def test_verify_all_max_n_30_is_within_the_structural_bound():
    # only planned here: running it builds level 30
    plan = conjectures.planned_checks(conjectures.CHECKS, 30)
    assert max(n for _, n in plan) == 30


@pytest.mark.parametrize("max_n", [31, 32])
def test_verify_max_n_31_and_32_are_planned(max_n):
    # only planned here: running either builds level 30 and streams
    # level 31 or 32 (see tests/test_slow_ranges.py)
    for name in conjectures.CHECKS:
        plan = conjectures.planned_checks((name,), max_n)
        assert max(n for _, n in plan) in (max_n - 1, max_n)
    assert max(n for _, n in conjectures.planned_checks(conjectures.CHECKS, max_n)) == max_n


@pytest.mark.parametrize(
    "argv,level",
    [
        (("gen", "--level", "33"), 32),  # level 33 comes from level 32
        (("gen", "--core", "34"), 32),  # the 34-core comes from level 32
    ],
)
def test_structural_bound_breach_is_usage_error(no_block, capsys, argv, level):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"level {level} exceeds the bound 30 on materialized levels" in captured.err


@pytest.mark.parametrize("argv,level", [
    (("gen", "--level", "2000001"), 2000000),
    (("gen", "--level", "2000000000"), 1999999998),
    (("gen", "--level", str(10**12 - 1)), 10**12 - 2),
    (("gen", "--level", str(10**12)), 10**12 - 2),
    (("gen", "--core", "100000000000"), 99999999998),
    (("gen", "--core", str(10**12)), 10**12 - 2),
])
def test_a_huge_level_or_core_is_refused_before_any_work_that_grows_with_it(
    no_block, monkeypatch, capsys, argv, level
):
    # level_size(n), a binomial of about 0.3 n digits, and core_top(n),
    # an n-bit int, fail here above n = 64: the refusal comes first.
    def small(real):
        def bounded(n):
            if n > 64:
                raise AssertionError(f"{real.__name__}({n}) was computed")
            return real(n)

        return bounded

    for module, name in [(levels, "level_size"), (levels, "core_top"), (cores, "core_top"),
                         (cores, "level_size"), (cli, "level_size")]:
        monkeypatch.setattr(module, name, small(getattr(module, name)))
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2 and peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"level {level} exceeds the bound 30 on materialized levels" in captured.err


@pytest.mark.parametrize("argv", [("decompose", "--level", "37"), ("decompose", "--core", "38")])
def test_decompose_beyond_its_bound_is_usage_error(monkeypatch, capsys, argv):
    # Refused up front, before any library is made.
    def no_library(max_core):
        raise AssertionError("a library was made")

    monkeypatch.setattr(cores, "standard_library", no_library)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[-1]} exceeds the bound 36 of decompose" in captured.err


def test_decompose_at_its_bound_keeps_no_memo(monkeypatch, capsys):
    # `decompose --level 36` is answered, and its library's memo goes
    # with the command: nothing made for it stays reachable.
    made = []
    real = cores.standard_library
    monkeypatch.setattr(cores, "standard_library", lambda n: made.append(real(n)) or made[-1])
    code, out, _ = run(capsys, "decompose", "--level", "36")
    assert code == 0
    assert out.startswith("μ36(") and out.endswith("^3\n")
    lib = made.pop()
    # Only the local name holds the library, and only the library its
    # memo (each count includes getrefcount's own argument).
    counts = sys.getrefcount(lib), sys.getrefcount(lib._memo)
    assert counts == (2, 2) and len(lib._memo) > 0


def test_gen_level_0_is_a_domain_error(no_block, capsys):
    code, out, err = run(capsys, "gen", "--level", "0")
    assert code == 1
    assert out == ""
    assert "n must be >= 1" in err


def test_gen_count_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--count", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("gen", "--level", "20", "--check", "--scan-bound", "30"),
    ("gen", "--level", "20", "--structural-bound", "31"),
    ("decompose", "--level", "8", "--structural-bound", "31"),
])
def test_bound_overrides_are_not_options(capsys, argv):
    # the scan bound and the bound on materialized levels keep memory
    # bounded; they are not for the command line to raise
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_no_public_function_takes_a_bound():
    # nor for a caller to raise: no keyword of the package sets a bound
    package = Path(dycknums.__file__).parent
    modules = [importlib.import_module(f"dycknums.{m.name}") for m in pkgutil.iter_modules([package])]
    functions = [
        (f"{module.__name__}.{name}", obj)
        for module in modules
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]
    assert len(functions) > 50
    bounded = [
        (name, param)
        for name, fn in functions
        for param in inspect.signature(fn).parameters
        if param.endswith("_bound")
    ]
    assert bounded == []


def test_gen_check_skips_levels_above_the_scan_bound(capsys):
    code, out, err = run(capsys, "gen", "--level", "25", "--check")
    assert code == 0
    assert out.count(" ") + 1 == 2704156  # C(24, 12) terms
    assert err == "check: skipped, 25 exceeds scan bound 24\n"


# -- the decimal codec, against str() and int() ------------------------------


def text_of(terms):
    return " ".join(map(str, terms)) + "\n"


RECORDS_HEADER = "kind\tn\tindex\tterm\n"


def records_of(kind, n, terms):
    return "".join(f"{kind}\t{n}\t{i}\t{t}\n" for i, t in enumerate(terms, 1))


@st.composite
def ascending_terms(draw):
    """Sorted unique int64 arrays in [0, 10**18): a few evenly spaced
    runs, each of which crosses a power of ten, some of them longer than
    one output chunk."""
    parts = [np.empty(0, dtype=np.int64)]
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.one_of(st.integers(1, 40), st.integers(levels._BLOCK - 5, levels._BLOCK + 5)))
        step = draw(st.sampled_from([1, 2, 3, 997]))
        power = draw(st.integers(0, 18))
        below = draw(st.integers(0, length * step))
        start = max(0, 10**power - below)
        parts.append(start + step * np.arange(length, dtype=np.int64))
    terms = np.unique(np.concatenate(parts))
    return terms[terms < 10**18]


# No shrink phase: an example can hold three runs of a chunk's length,
# and shrinking a failure over such examples takes minutes.
@given(ascending_terms())
@settings(max_examples=30, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_decimal_codec_matches_str_and_int(terms):
    values = terms.tolist()
    assert "".join(cli._term_text(terms, "text")) == text_of(values)
    records = "".join(cli._term_text(terms, "records", "core\t8\t"))
    assert records == records_of("core", 8, values)


@pytest.mark.parametrize("terms", [(5, 3), (-1, 3)])
def test_codec_refuses_terms_out_of_order(terms):
    with pytest.raises(ValueError):
        "".join(cli._term_text(np.array(terms, dtype=np.int64), "text"))


# -- gen output, byte for byte against str() ---------------------------------


@pytest.mark.parametrize(
    "argv,kind,n,terms",
    [
        # 92,378 terms: crosses 10**6 and a chunk edge
        (("--level", "20"), "level", 20, lambda: level_structural(20).terms),
        # widths 1 to 6, and the term 0
        (("--count", "100000"), "stream", 100000, lambda: stream_terms(100000)),
        (("--level", "1"), "level", 1, lambda: (1,)),
        (("--core", "6"), "core", 6, lambda: (39,)),
    ],
)
def test_gen_output_is_str_of_each_term(capsys, argv, kind, n, terms):
    expected = terms()
    code, out, _ = run(capsys, "gen", *argv)
    assert code == 0 and out == text_of(expected)
    code, out, _ = run(capsys, "gen", *argv, "--format", "records")
    assert code == 0 and out == RECORDS_HEADER + records_of(kind, n, expected)


@pytest.mark.parametrize("encoding", [None, "utf-8", "utf-16"])
@pytest.mark.parametrize("fmt", ["text", "records"])
def test_gen_output_on_any_text_stream(monkeypatch, fmt, encoding):
    # A UTF-8 stream takes the text on its byte stream; a stream without
    # one (StringIO) or whose encoding is neither UTF-8 nor ASCII takes it
    # as str.  Either way the text is str() of each term.
    raw = io.BytesIO()
    stream = io.StringIO() if encoding is None else io.TextIOWrapper(raw, encoding=encoding)
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["gen", "--count", "100000", "--format", fmt]) == 0
    stream.flush()
    text = stream.getvalue() if encoding is None else raw.getvalue().decode(encoding)
    terms = stream_terms(100000)
    if fmt == "text":
        assert text == text_of(terms)
    else:
        assert text == RECORDS_HEADER + records_of("stream", 100000, terms)


# -- gen prints every level from its parts ------------------------------------


@pytest.fixture
def no_resident_level(monkeypatch):
    """Empty level and core caches for the test."""
    monkeypatch.setattr(levels, "_array_cache", {})
    monkeypatch.setattr(cores, "_core_cache", {})


def first_terms(count):
    """The term 0 and the materialized levels from 1 up, cut at count."""
    levels_up = itertools.chain.from_iterable(level_structural(n).terms for n in itertools.count(1))
    return tuple(itertools.islice(itertools.chain((0,), levels_up), count))


def test_gen_level_keeps_no_level_above_n_minus_2_resident(no_resident_level, capsys):
    code, out, _ = run(capsys, "gen", "--level", "16")
    assert code == 0
    # The sources of the printed level: level 14 and the levels under it,
    # and the 16-core, made once and kept as `gen --core 16` would.
    assert sorted(levels._array_cache) == list(range(2, 15, 2))
    assert sorted(cores._core_cache) == [16]
    assert out == text_of(level_structural(16).terms)


def test_gen_count_into_an_odd_level_builds_no_odd_level(no_resident_level, capsys):
    count = 1 + sum(levels.level_size(n) for n in range(1, 17)) + 10  # 10 terms of level 17
    code, out, _ = run(capsys, "gen", "--count", str(count))
    assert code == 0
    # Level 16 is materialized only as the source of level 17.
    assert sorted(levels._array_cache) == list(range(2, 17, 2))
    assert out == text_of(first_terms(count))


@pytest.mark.parametrize("n", range(1, 21))
def test_streamed_gen_level_is_str_of_the_materialized_terms(no_resident_level, capsys, n):
    _, text, _ = run(capsys, "gen", "--level", str(n))
    _, records, _ = run(capsys, "gen", "--level", str(n), "--format", "records")
    assert n not in levels._array_cache
    terms = level_structural(n).terms
    assert text == text_of(terms)
    assert records == RECORDS_HEADER + records_of("level", n, terms)


# 44 ends level 7, 45 starts level 8; 2**16 + 3 crosses a block edge
@pytest.mark.parametrize("count", [1, 2, 44, 45, 2**16 + 3, 100000])
def test_streamed_gen_count_is_str_of_the_materialized_terms(no_resident_level, capsys, count):
    _, text, _ = run(capsys, "gen", "--count", str(count))
    _, records, _ = run(capsys, "gen", "--count", str(count), "--format", "records")
    terms = first_terms(count)
    assert text == text_of(terms)
    assert records == RECORDS_HEADER + records_of("stream", count, terms)


def test_gen_imports_no_numpy_ma():
    # np.unique imports numpy.ma on its first call, milliseconds of every
    # process that prints terms
    script = (
        "import sys; from dycknums.cli import main; main(['gen', '--level', '6']); "
        "print('numpy.ma' in sys.modules, file=sys.stderr)"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "39 43 45 47 51 53 55 59 61 63\n"
    assert result.stderr.split() == ["False"]


@pytest.mark.slow
def test_gen_level_28_peak_stays_under_120_mb():
    # Level 28 (20,058,300 terms, 77 MiB as int32) is printed from level
    # 26 and never materialized; materialized, the run peaks at 145 MB.
    code, _, peak_kib = run_cli_fresh("gen", "--level", "28", capture=False)
    assert code == 0
    assert peak_kib < 120 * 1024


@pytest.mark.slow
def test_verify_all_max_n_30_peak_stays_under_150_mb():
    # Every copy claim is certified a block at a time against the members
    # of its interval, so no core is built, and the fragment-00 rule is
    # applied a block at a time: levels up to 28, in int32, are what
    # stays resident.  The run peaked at 136 MB, against 162 MB when the
    # rule was stored as a mask of each level.
    code, out, peak_kib = run_cli_fresh("verify", "all", "--max-n", "30", "--offline")
    assert code == 0
    assert out.count("PASS ") == 86 and "FAIL" not in out
    assert peak_kib < 150 * 1024


@pytest.mark.slow
def test_decompose_core_30_peak_stays_under_50_mb():
    # No core, level or library source is made: the run peaked at 36 MB,
    # against 228 MB for the array matcher that needed them resident.
    code, out, peak_kib = run_cli_fresh("decompose", "--core", "30")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "23e3a2d18df6205a66e8ea0e7f24ee3d412cfd1a7f50844970e46ad2d33602f0"
    )
    assert peak_kib < 50 * 1024


@pytest.mark.slow
def test_decompose_core_32_peak_stays_under_80_mb():
    # The digest the array matcher printed at 1054 MB; now about 52 MB.
    code, out, peak_kib = run_cli_fresh("decompose", "--core", "32")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f8e13b83a75fdcaa5180da8551824740408aeafa40e39a4d3b59f3c2be897bf4"
    )
    assert peak_kib < 80 * 1024


@pytest.mark.slow
def test_decompose_core_34_is_answered():
    # Beyond the old bound on materialized levels: 2.6 MB of text.
    code, out, _ = run_cli_fresh("decompose", "--core", "34")
    assert code == 0
    assert len(out.encode()) == 2_585_877
    assert out.count("\n") == 5 and "μ32(" in out


@pytest.mark.slow
def test_gen_level_24_is_str_of_each_term(capsys):
    # 1,352,078 terms; 10**7 lies inside level 24
    terms = level_structural(24).terms
    code, out, _ = run(capsys, "gen", "--level", "24")
    assert code == 0 and out == text_of(terms)
    code, out, _ = run(capsys, "gen", "--level", "24", "--format", "records")
    assert code == 0 and out == RECORDS_HEADER + records_of("level", 24, terms)


# -- the digit formatter, against its one-column-per-digit predecessor -------


def put_digits_by_column(out, values):
    """The formatter as one divide-by-10 pass per digit column, each
    written into a column of out: the oracle for the table-driven
    `cli._put_digits`."""
    # A copy, in 32 bits when the values fit: narrower division is faster.
    v = values.astype(np.int32 if out.shape[1] <= 9 else np.int64)
    q = np.empty_like(v)
    for col in range(out.shape[1] - 1, 0, -1):
        np.floor_divide(v, 10, out=q)
        np.subtract(v, q * 10, out=out[:, col], casting="unsafe")
        v, q = q, v
    out[:, 0] = v
    out += ord("0")


# Values at the edges of the formatter: powers of ten, the int32 range
# (the int32 path ends at 9 digits) and the int64 maximum.
EDGE_VALUES = sorted(
    {10**k + d for k in range(19) for d in (-1, 0)} | {2**31 - 1, 2**31, 2**31 + 1, 2**63 - 1}
)


@st.composite
def digit_matrices(draw):
    """(matrix, column, width, values): values of exactly `width`
    digits, and a wider matrix whose columns from `column` take them."""
    width = draw(st.integers(1, 19))
    lo, hi = (10 ** (width - 1) if width > 1 else 0), min(10**width - 1, 2**63 - 1)
    edges = [v for v in EDGE_VALUES if lo <= v <= hi]
    values = draw(st.lists(st.one_of(st.integers(lo, hi), st.sampled_from(edges)), max_size=50))
    before, after = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    fill = draw(st.integers(0, 255))
    matrix = np.full((len(values), before + width + after), fill, dtype=np.uint8)
    return matrix, before, width, np.array(values, dtype=np.int64)


@given(digit_matrices())
@settings(max_examples=300, deadline=None)
def test_put_digits_matches_one_pass_per_column(case):
    matrix, column, width, values = case
    expected = matrix.copy()
    put_digits_by_column(expected[:, column:column + width], values)
    cli._put_digits(matrix[:, column:column + width], values)
    assert np.array_equal(matrix, expected)
    digits = matrix[:, column:column + width].tobytes().decode("ascii")
    assert digits == "".join(str(v) for v in values.tolist())


@pytest.mark.parametrize("width", [7, 13])
def test_put_digits_allocates_nothing(width):
    # 7 digits run in int32, 13 in int64.  A table index of a dtype other
    # than intp would make `take` copy it, 8 bytes a value.
    values = np.arange(10 ** (width - 1), 10 ** (width - 1) + 7 * levels._BLOCK, 7, dtype=np.int64)
    out = np.empty((len(values), width), dtype=np.uint8)
    cli._put_digits(out, values)  # warm-up: the table and the buffers
    tracemalloc.start()
    try:
        cli._put_digits(out, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out[-1].tobytes().decode("ascii") == str(values[-1])
    assert peak < 64 * 1024


def test_put_digits_at_every_edge_value():
    for width in range(1, 20):
        values = np.array([v for v in EDGE_VALUES if len(str(v)) == width], dtype=np.int64)
        matrix = np.zeros((len(values), width + 2), dtype=np.uint8)
        cli._put_digits(matrix[:, 1:width + 1], values)
        rows = matrix[:, 1:width + 1].tobytes().decode("ascii")
        assert rows == "".join(str(v) for v in values.tolist()), width


def test_term_text_reads_a_sequence_of_arrays_as_one():
    # Parts that end inside and on a chunk edge, and an empty part: the
    # chunks, the leading space and the record index run on across parts.
    terms = np.arange(1, 2 * levels._BLOCK + 10, 2, dtype=np.int64)
    cuts = [0, 1, levels._BLOCK + 1, levels._BLOCK + 1, len(terms)]
    parts = [terms[a:b] for a, b in zip(cuts, cuts[1:])]
    values = terms.tolist()
    assert "".join(cli._term_text(parts, "text")) == text_of(values)
    records = "".join(cli._term_text(parts, "records", "stream\t9\t"))
    assert records == records_of("stream", 9, values)


def test_put_digits_takes_at_most_a_chunk():
    values = np.ones(levels._BLOCK + 1, dtype=np.int64)
    with pytest.raises(ValueError):
        cli._put_digits(np.zeros((len(values), 1), dtype=np.uint8), values)


def test_term_text_of_19_digit_terms():
    terms = np.array([10**17, 10**18 - 1, 10**18, 2**63 - 1], dtype=np.int64)
    assert "".join(cli._term_text(terms, "text")) == text_of(terms.tolist())
    records = "".join(cli._term_text(terms, "records", "level\t63\t"))
    assert records == records_of("level", 63, terms.tolist())


def test_gen_count_above_the_structural_bound_builds_no_level(no_block, capsys):
    # 614,483,087 = 1 + the sizes of levels 1 to 32: the term 0 and
    # every level that streams
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--count", "614483088"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "reach above level 32; at most 614483087 terms" in captured.err
    with pytest.raises(BoundError):
        levels.stream_terms(614483088)
