"""Checks on the tooling around ccmkit: the traced benchmark run can find
every ccmkit name it wraps, every benchmark workload sets up, and the
sources parse as the oldest Python that pyproject.toml admits.

`perfbench/tracer.py` lists in `TRACED` each function and method that a
traced run (`perfbench/run.py --trace 1`, `perfbench/check_repeat.py`)
wraps, and `Tracer.install` looks each one up without a default: a
module attribute with `getattr`, a method in its class's own `__dict__`.
A rename in ccmkit that misses that list would only break the traced
run; the first test below makes it break Tier-1 instead. Likewise a
change to `config`, `model` or `sim` that breaks a workload's set-up would
only break the benchmark run; the second test runs each set-up. Both read
perfbench and change nothing there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from ccmkit import controller

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS = TRACER.parent / "workloads.py"


def traced_entries():
    """The `TRACED` list of the tracer module, read without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED list")


def test_every_traced_name_resolves_as_install_does():
    entries = traced_entries()
    assert entries
    missing = []
    for module, path, span in entries:
        home = importlib.import_module(f"ccmkit.{module}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(home, cls_name, None)
            found = cls is not None and attr in cls.__dict__
        else:
            found = callable(getattr(home, path, None))
        if not found:
            missing.append(f"{span}: ccmkit.{module}.{path}")
    assert not missing, missing


def test_every_workload_sets_up():
    """`setup()` and `items()` of each workload in perfbench/workloads.py, and
    the gain that track_dynext's oracle builds; no timed body, no oracle run."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, 1)
        workload.setup()
        assert workload.items() > 0, name
        if name == "track_dynext":  # the oracle's gain, as TrackDynext.oracle builds it
            cfg = workload.cfg
            gain = controller.GainField.from_exprs(
                cfg.system.n, cfg.system.m, cfg.bundle.builtin_gain)
            assert (gain.m, gain.n) == (cfg.system.m, cfg.system.n)


def test_sources_parse_as_python_3_10():
    """pyproject.toml declares requires-python >= 3.10; this checks the grammar
    of every ccmkit module against it (not the standard library it calls)."""
    sources = sorted((TRACER.parents[1] / "src" / "ccmkit").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
