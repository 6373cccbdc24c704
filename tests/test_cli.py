import subprocess
import sys

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dycknums import cli, cores
from dycknums.cli import main, read_cache_entry, write_cache_entry
from dycknums.errors import CacheCorrupt
from dycknums.levels import level_structural, stream_terms


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


def test_gen_cache_round_trip(tmp_path, capsys):
    cache = str(tmp_path)
    code, first, _ = run(capsys, "gen", "--level", "6", "--cache-dir", cache)
    assert code == 0
    assert (tmp_path / "level_6.txt").is_file()
    header = (tmp_path / "level_6.txt").read_text().splitlines()[0]
    assert header == "# level 6 10"
    code, cached, _ = run(capsys, "gen", "--level", "6", "--cache-dir", cache)
    assert code == 0 and cached == first
    code, fresh, _ = run(capsys, "gen", "--level", "6", "--cache-dir", cache, "--no-cache")
    assert code == 0 and fresh == first
    assert read_cache_entry(cache, "level", 6) == tuple(
        int(v) for v in first.split()
    )


def test_cache_entry_io(tmp_path):
    write_cache_entry(str(tmp_path), "core", 8, (143, 151, 155, 157, 159))
    assert read_cache_entry(str(tmp_path), "core", 8) == (143, 151, 155, 157, 159)
    assert read_cache_entry(str(tmp_path), "core", 10) is None
    path = tmp_path / "core_8.txt"
    path.write_text("# core 8 4\n143\n151\n155\n157\n159\n")
    with pytest.raises(CacheCorrupt):
        read_cache_entry(str(tmp_path), "core", 8)


def test_corrupt_cache_exits_nonzero(tmp_path, capsys):
    (tmp_path / "level_6.txt").write_text("# level 6 3\n39\n")
    code, _, err = run(capsys, "gen", "--level", "6", "--cache-dir", str(tmp_path))
    assert code == 1
    assert "error:" in err


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


def test_cache_dir_env_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DYCKNUMS_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "gen", "--level", "5")
    assert code == 0
    assert (tmp_path / "level_5.txt").is_file()
    monkeypatch.setenv("DYCKNUMS_CACHE_DIR", str(tmp_path / "nowhere"))
    code, out2, _ = run(capsys, "gen", "--level", "5", "--no-cache")
    assert code == 0 and out2 == out
    assert not (tmp_path / "nowhere").exists()


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
        (("verify", "all", "--max-n", "31", "--offline"), 31),
        (("verify", "eq1", "--max-n", "31"), 31),
    ],
)
def test_verify_max_n_beyond_structural_bound_is_usage_error(capsys, argv, level):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"needs level {level}" in captured.err


def test_verify_all_max_n_30_is_within_the_structural_bound():
    # only planned here: running it builds level 30
    plan = cli._planned_checks("all", 30)
    assert max(n for _, n in plan) == 30


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
    # the scan and structural bounds keep memory bounded; they are not
    # for the command line to raise
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_gen_check_skips_levels_above_the_scan_bound(capsys):
    code, out, err = run(capsys, "gen", "--level", "25", "--check")
    assert code == 0
    assert out.count(" ") + 1 == 2704156  # C(24, 12) terms
    assert err == "check: skipped, 25 exceeds scan bound 24\n"


def test_forged_cache_entry_exits_nonzero(tmp_path, capsys):
    # self-consistent header and body, but 2 is not a term and level 6
    # has ten terms
    (tmp_path / "level_6.txt").write_text("# level 6 2\n1\n2\n")
    code, out, err = run(capsys, "gen", "--level", "6", "--cache-dir", str(tmp_path))
    assert code == 1
    assert out == "" and "error:" in err


@pytest.mark.parametrize(
    "body",
    [
        "# core 8 5\n143\n151\nx\n157\n159\n",       # not an integer
        "# core 8 5\n143\n151\n155\n157\n99999999999999999999\n",  # beyond int64
        "# core 8 4\n143\n151\n155\n157\n",          # count is not core_size(8)
        "# core 8 5\n143\n155\n151\n157\n159\n",     # not ascending
        "# core 8 5\n143\n151\n153\n157\n159\n",     # 153 is not a term
        "# core 8 5\n151\n155\n157\n159\n175\n",     # 175 lies above the core top
        "# core 8 5\n127\n151\n155\n157\n159\n",     # 127 belongs to level 7
    ],
)
def test_cache_entry_validated_on_read(tmp_path, body):
    (tmp_path / "core_8.txt").write_text(body)
    with pytest.raises(CacheCorrupt):
        read_cache_entry(str(tmp_path), "core", 8)


# -- the decimal codec, against str() and int() ------------------------------


def text_of(terms):
    return " ".join(map(str, terms)) + "\n"


def lines_of(terms):
    return "".join(f"{t}\n" for t in terms)


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
        length = draw(st.one_of(st.integers(1, 40), st.integers(cli._CHUNK - 5, cli._CHUNK + 5)))
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
    chunks = list(cli._term_text(terms, "lines"))
    assert all(chunk.count("\n") <= cli._CHUNK for chunk in chunks)
    body = "".join(chunks)
    assert body == lines_of(values)
    parsed = cli._parse_lines(body.encode("ascii"))
    assert parsed.dtype == np.int64 and parsed.tolist() == values


@pytest.mark.parametrize("terms", [(5, 3), (-1, 3)])
def test_codec_refuses_terms_out_of_order(tmp_path, terms):
    with pytest.raises(ValueError):
        write_cache_entry(str(tmp_path), "core", 8, terms)


@pytest.mark.parametrize(
    "body",
    # core 8 with its first line, 143, written otherwise
    [f"{line}\n151\n155\n157\n159\n" for line in (
        "", "0000000000000000143", "0143", "-143", "+143", " 143", "143 ", "143\r", "1_43",
        "13=",  # '=' is '0' + 13 in ASCII: read as a digit, 1·100 + 3·10 + 13 = 143
    )] + [
        "0143\n0151\n0155\n0157\n0159\n",  # every line zero-padded
        "143\n151\n155\n157\n159",  # no final newline
        "143\n151\n155\n157\n159\n1",  # an unterminated sixth line
    ],
)
def test_cache_line_is_exactly_a_decimal(tmp_path, body):
    (tmp_path / "core_8.txt").write_text(f"# core 8 5\n{body}")
    with pytest.raises(CacheCorrupt):
        read_cache_entry(str(tmp_path), "core", 8)


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


def test_gen_cache_file_is_one_term_per_line(tmp_path, capsys):
    terms = level_structural(20).terms
    code, first, _ = run(capsys, "gen", "--level", "20", "--cache-dir", str(tmp_path))
    assert code == 0 and first == text_of(terms)
    path = tmp_path / "level_20.txt"
    assert path.read_bytes() == f"# level 20 {len(terms)}\n{lines_of(terms)}".encode("ascii")
    code, cached, _ = run(capsys, "gen", "--level", "20", "--cache-dir", str(tmp_path))
    assert code == 0 and cached == first
    core = cores.core(22).terms
    write_cache_entry(str(tmp_path), "core", 22, np.array(core))
    assert read_cache_entry(str(tmp_path), "core", 22) == core


@pytest.mark.slow
def test_gen_level_24_is_str_of_each_term(capsys):
    # 1,352,078 terms; 10**7 lies inside level 24
    terms = level_structural(24).terms
    code, out, _ = run(capsys, "gen", "--level", "24")
    assert code == 0 and out == text_of(terms)
    code, out, _ = run(capsys, "gen", "--level", "24", "--format", "records")
    assert code == 0 and out == RECORDS_HEADER + records_of("level", 24, terms)
