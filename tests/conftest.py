import re
import subprocess
import sys
from importlib import resources

import pytest

from dycknums import levels

# First 48 terms as listed in the sequence itself (levels 0 through 7
# plus the start of level 8); the independent reference for every
# generator in the package.
FIRST_48 = (
    0, 1, 3, 5, 7, 11, 13, 15, 19, 21, 23, 27, 29, 31,
    39, 43, 45, 47, 51, 53, 55, 59, 61, 63,
    71, 75, 77, 79, 83, 85, 87, 91, 93, 95,
    103, 107, 109, 111, 115, 117, 119, 123, 125, 127,
    143, 151, 155, 157,
)


def run_cli_fresh(*argv, capture=True):
    """Run the CLI with argv in a fresh interpreter and return its exit
    code, its stdout (None unless captured) and its own peak RSS in KiB.
    The peak is the child's VmHWM, read inside it: its ru_maxrss would
    start at the peak of the process it is forked from."""
    script = (
        "import sys; from dycknums.cli import main; "
        "code = main(sys.argv[1:]); sys.stdout.flush(); "
        "hwm = [line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM')]; "
        "print(code, *hwm, file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], stderr=subprocess.PIPE, text=True,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
    )
    code, peak_kib = result.stderr.split()[-2:]
    return int(code), result.stdout, int(peak_kib)


@pytest.fixture(scope="session")
def appendix_terms() -> tuple[int, ...]:
    """The bundled 500-term core-subsequence fixture."""
    text = (
        resources.files("dycknums")
        .joinpath("data/appendix_core_subsequence.txt")
        .read_text()
    )
    return tuple(int(v) for v in re.findall(r"\d+", text))


@pytest.fixture
def no_block(monkeypatch):
    """Any block of any level made during the test fails it: a refusal
    must come before the first block, and a request that was not
    refused fails at once instead of building levels up to 32."""

    def no_blocks(*args, **kwargs):
        raise AssertionError("a block was made")

    monkeypatch.setattr(levels, "_part_blocks", no_blocks)
