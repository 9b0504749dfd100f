"""Time one workload set-up in a fresh interpreter and print the seconds.

Set-up is what a user pays before the workload's timed body: importing
ccmkit (numpy and scipy included), loading the config and building the
model (parse, differentiate, compile_fn). Usage, from the repository
root: python3 perfbench/setup_child.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.make(sys.argv[1], int(sys.argv[2])).setup()
print(repr(time.perf_counter() - start))
