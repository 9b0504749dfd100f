"""Every shipped output, pinned: each command runs in process through `cli.main`.

`simulate` and `synthesize` compute in Python floats and `math`, so their
stdout is pinned by the first 16 hex digits of its sha256. `certify` and
`geodesic` go through LAPACK, whose last bits can differ between BLAS builds,
so their stdout is compared with a file under `golden/`: the text between the
numbers exactly, and each number within 1e-12 relative. A change to an output
by design updates its entry here and says why in CHANGES.md.
"""

import hashlib
import math
import re
import shlex
from pathlib import Path

import pytest

from ccmkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
# the microactuator with every check, since no shipped config reaches dual-w
MICRO_ALL = "[system]\nbuiltin = microactuator\n\n[certificate]\nchecks = c1 killing dual-w robust\ngrid = 9\n"


def stdout_of(command, code, tmp_path, capsys):
    (tmp_path / "micro.ini").write_text(MICRO_ALL)
    assert main(shlex.split(command.format(tmp=tmp_path))) == code
    return capsys.readouterr().out


@pytest.fixture(autouse=True)
def at_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("command, digest", [
    ("synthesize --config configs/numex_certify.ini", "98c756c36b7689e5"),
    ("synthesize --config configs/numex_synthesize.ini", "afe96d92a94d10e5"),
    ("simulate --config configs/numex_dynext.ini", "d32b48364ba416a2"),
    ("simulate --config configs/microactuator_static.ini", "e7964cdbe4db074e"),
])
def test_bytes(tmp_path, capsys, command, digest):
    out = stdout_of(command, 0, tmp_path, capsys)
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("command, code, golden", [
    ("certify --config configs/numex_certify.ini", 0, "certify_numex.txt"),
    ("certify --config {tmp}/micro.ini", 1, "certify_microactuator_all.txt"),
    ("certify --config configs/geodesic_demo.ini", 1, "certify_geodesic_demo.txt"),
    ('geodesic --config configs/geodesic_demo.ini --from "-1 0.5" --to "1 0.5"', 0,
     "geodesic_demo.txt"),
])
def test_numbers(tmp_path, capsys, command, code, golden):
    got = NUMBER.split(stdout_of(command, code, tmp_path, capsys))
    want = NUMBER.split((GOLDEN / golden).read_text())
    assert got[0::2] == want[0::2]  # re.split puts the numbers at the odd indices
    for a, b in zip(got[1::2], want[1::2]):
        assert math.isclose(float(a), float(b), rel_tol=1e-12), (a, b)
