"""ccmkit benchmark: runs one workload, checks its output, prints metrics.

Usage, from the repository root (no install needed; ccmkit is imported
from ./src):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Workloads: certify, track_dynext, sweep_static, geodesic_track (see
README.md). `--seconds` is how long the timed body is repeated (at least
once). With `--trace 0` the end-to-end metrics of BENCHMARK.json are
measured with nothing wrapped; with `--trace 1` the body is first run
untraced for `--seconds`, then once more with every public ccmkit function
wrapped in a span, which gives the per-layer metrics of BENCHMARK.json
and the tracing overhead. All reported times are in reference seconds
(timing.py); the spans, in raw seconds, are written to
.perfbench/spans-<workload>-seed<seed>.npz.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import timing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
GATE_A_S = 10.0      # wall-clock gate of acceptance scenario A (track_dynext)
REQUIRED = (
    ROOT / "BENCHMARK.json",
    ROOT / "src" / "ccmkit" / "__init__.py",
    ROOT / "configs" / "numex_certify.ini",
    ROOT / "configs" / "numex_dynext.ini",
    ROOT / "configs" / "geodesic_demo.ini",
)
WORKLOAD_NAMES = ("certify", "track_dynext", "sweep_static", "geodesic_track")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_units(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def measure_setup(name, seed):
    """Median set-up time over fresh interpreters, in reference seconds."""
    values = []
    for _ in range(SETUP_REPEATS):
        before = timing.bracket_speed()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        after = timing.bracket_speed()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        values.append(float(proc.stdout.split()[-1]) * 0.5 * (before + after))
    return statistics.median(values)


def timed_samples(workload, seconds, calibrate):
    """Repeat the timed body until `seconds` have passed, at least once.

    Returns seconds per run, reference seconds per run (when calibrating)
    and {digest: [output, count]} of the distinct outputs.
    """
    raws, refs, outputs = [], [], {}
    deadline = time.perf_counter() + seconds
    while True:
        if calibrate:
            with timing.SpeedMeter() as meter:
                output = workload.run()
            raws.append(meter.net_s)
            refs.append(meter.ref_s)
        else:
            start = time.perf_counter()
            output = workload.run()
            raws.append(time.perf_counter() - start)
        outputs.setdefault(workload.digest(output), [output, 0])[1] += 1
        if time.perf_counter() >= deadline:
            return raws, refs, outputs


def check_outputs(workload, outputs):
    """Check each distinct output once; counts scale by how often it occurred.
    Runs of the same inputs must give bit-identical outputs."""
    attempted = failed = 0
    problems = []
    for output, count in outputs.values():
        tried, bad, found = workload.check(output)
        attempted += tried * count
        failed += bad * count
        problems += found
    if len(outputs) > 1:
        problems.append(f"{len(outputs)} different outputs from identical inputs")
        failed = attempted
    return attempted, failed, problems


def end_to_end(args, workloads):
    setup_s = measure_setup(args.workload, args.seed)
    workload = workloads.make(args.workload, args.seed)
    workload.setup()
    raws, refs, outputs = timed_samples(workload, args.seconds, calibrate=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, problems = check_outputs(workload, outputs)
    wall = timing.summarize(refs)
    items = workload.items()
    tail = "none (under 40 runs)" if wall["tail"] is None else (
        f"p{wall['tail'][0]}={wall['tail'][1]:.4f}")
    print(f"# {args.workload} seed={args.seed}: {wall['n']} runs, wall_s "
          f"median={wall['median']:.4f} q1={wall['q1']:.4f} q3={wall['q3']:.4f} "
          f"tail {tail} (reference seconds; raw median {statistics.median(raws):.4f} s); "
          f"{failed} of {attempted} {workload.unit}s failed")
    metrics = {
        "wall_s": wall["median"],
        "items_per_s": statistics.median(items / ref for ref in refs),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    return attempted, failed, problems, metrics


def per_layer(args, workloads):
    from tracer import SpanTable, Tracer, layer_metrics

    workload = workloads.make(args.workload, args.seed)
    workload.setup()
    _, refs, outputs = timed_samples(workload, args.seconds, calibrate=True)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.make(args.workload, args.seed)
        marks = [tracer.mark()]
        with timing.SpeedMeter() as setup_meter:
            traced.setup()
        marks.append(tracer.mark())
        with timing.SpeedMeter() as body_meter:
            output = traced.run()
        marks.append(tracer.mark())
    finally:
        tracer.uninstall()
    digest = workload.digest(output)
    outputs.setdefault(digest, [output, 0])[1] += 1
    attempted, failed, problems = check_outputs(workload, outputs)
    # Spans hold raw seconds, including the speed samples taken inside them;
    # ref_s / raw_s turns them into reference seconds net of those samples.
    body_scale = body_meter.ref_s / body_meter.raw_s
    metrics = layer_metrics(
        tracer,
        setup=SpanTable(tracer, marks[0], marks[1], setup_meter.ref_s / setup_meter.raw_s),
        section=SpanTable(tracer, marks[0], marks[2], body_scale),
        body_wall_s=body_meter.ref_s,
        untraced_wall_s=statistics.median(refs),
        gate_s=GATE_A_S if args.workload == "track_dynext" else None,
    )
    body = SpanTable(tracer, marks[1], marks[2], body_scale)
    metrics["trace.unaccounted_s"] = body_meter.ref_s - body.top_level_s()
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.save(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    print(f"# {args.workload} seed={args.seed}: traced body {body_meter.ref_s:.3f} s, "
          f"untraced median {statistics.median(refs):.3f} s over {len(refs)} runs "
          f"(reference seconds), "
          f"{tracer.mark()} spans, output sha256 {digest}")
    return attempted, failed, problems, metrics


def main(argv=None):
    args = parse_args(argv)
    missing = [str(path.relative_to(ROOT)) for path in REQUIRED if not path.is_file()]
    if missing:
        sys.stderr.write(f"perfbench: run from a ccmkit checkout; missing {missing}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    measure = per_layer if args.trace else end_to_end
    attempted, failed, problems, values = measure(args, workloads)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    for problem in problems:
        print(f"# check failed: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
