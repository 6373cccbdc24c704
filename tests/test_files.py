import pytest

from dycknums.oeis_ref import write_atomic


def failing_chunks():
    yield "partial\n"
    raise RuntimeError("disk full")


def test_write_atomic_writes_chunks_in_order(tmp_path):
    target = tmp_path / "new" / "entry.txt"
    write_atomic(target, iter(["# level 3 2\n", "5\n7\n"]))
    assert target.read_bytes() == b"# level 3 2\n5\n7\n"
    assert list(target.parent.iterdir()) == [target]


def test_write_atomic_leaves_nothing_behind_on_failure(tmp_path):
    target = tmp_path / "new" / "entry.txt"
    with pytest.raises(RuntimeError):
        write_atomic(target, failing_chunks())
    assert list(target.parent.iterdir()) == []
    target.write_text("old\n")
    with pytest.raises(RuntimeError):
        write_atomic(target, failing_chunks())
    assert target.read_text() == "old\n"
    assert list(target.parent.iterdir()) == [target]
