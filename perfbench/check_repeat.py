"""Repeatability test: exact counts and bit-identical outputs per seed.

Runs the traced benchmark twice per workload with the same seed, each in
a fresh interpreter, and fails unless every exact count (all `*.calls`,
`expr.fn_calls`, `sim.steps`, `geodesic.iterations_per_solve.*`) and the
sha256 of the program's output agree between the two runs. Claims that
rest on these counts (for example `certificates.check_robust.calls`, the
bisection passes of `gamma0 = auto`) need them to repeat exactly.

Usage, from the repository root (takes a few minutes):
    python3 perfbench/check_repeat.py
Runs every workload with seed 7. Exit code 0 when every workload
repeats, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
SEED = 7
EXACT = re.compile(r"(\.calls|^expr\.fn_calls|^sim\.steps|^geodesic\.iterations_per_solve\..*)$")


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = re.search(r"output sha256 (\w+)", proc.stdout).group(1)
    counts = {name: m["value"] for name, m in result["metrics"].items() if EXACT.search(name)}
    return result["correct"], digest, counts


def main():
    failures = 0
    for workload in WORKLOAD_NAMES:
        first, second = traced_run(workload, SEED), traced_run(workload, SEED)
        problems = []
        if not (first[0] and second[0]):
            problems.append("output check failed")
        if first[1] != second[1]:
            problems.append(f"outputs differ: {first[1][:12]} vs {second[1][:12]}")
        problems += [f"{name}: {first[2][name]} vs {second[2][name]}"
                     for name in first[2] if first[2][name] != second[2][name]]
        failures += bool(problems)
        print(f"{workload}: {'FAIL ' + '; '.join(problems) if problems else 'ok'} "
              f"({len(first[2])} counts, robust passes "
              f"{first[2]['certificates.check_robust.calls']}, "
              f"compiled calls {first[2]['expr.fn_calls']})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
