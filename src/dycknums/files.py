"""Atomic text-file writes for the b-file cache."""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable
from pathlib import Path


def write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write the chunks to path through a temp file in the same
    directory and `os.replace`, so a crash never leaves a partial file;
    the temp file is removed on any failure."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
