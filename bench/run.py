"""uedmaze design-loop benchmark: one workload, one process, one JSON line.

    python3 bench/run.py --workload desk11-traced --seed 0 --seconds 40 --trace 0

Runs whole rounds of the workload until the next round would end past
--seconds, checks every round's outputs, and prints the metrics as the last
line of standard output. With --trace 0 it prints the end-to-end metrics;
with --trace 1 it runs round 0 untraced and again traced, and prints the
per-layer metrics. A failed check is printed to stderr, sets "correct" to
false and makes the exit code 1. See bench/README.md.
"""

import os
import sys

# One BLAS thread, set before numpy loads: the thread count changes float bits
# and, with them, the design loop's explore/replay sequence.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Scratch space for run outputs (removed at exit) and the traced run's spans.
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("desk11-traced", "full15-traced", "heldout-eval")


def process_age():
    """Seconds since this process started (the kernel stamps the start in clock ticks)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Put this checkout's src/ first on the path; refuse any other uedmaze."""
    if not (SRC / "uedmaze" / "__init__.py").is_file():
        sys.exit(f"bench: no uedmaze sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import uedmaze

    if Path(uedmaze.__file__).resolve().parent != SRC / "uedmaze":
        sys.exit(f"bench: imported uedmaze from {uedmaze.__file__}, not from {SRC}")


def run_rounds(seconds, run_round):
    """Whole rounds until the next one, if as long as the last, would end past `seconds`."""
    start = time.perf_counter()
    rounds = []
    while True:
        began = time.perf_counter()
        rounds.append(run_round(len(rounds)))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return rounds


def main():
    args = parse_args()
    import_program()
    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.workload, args.seed, scratch)
        setup_s = process_age()
        errors = workload.check_setup()
        if args.trace:
            plain = workload.round(0)
            tracer = Tracer()
            traced_round = workload.round(0, tracer)
            rounds = [plain, traced_round]
            loop_layers, trace_errors = workload.loop_layers(plain, traced_round, tracer)
            errors += trace_errors + workload.check_rounds([plain])
            if traced_round["fingerprint"] != plain["fingerprint"]:
                errors.append("the traced round's outputs differ from the untraced round's")
            metrics = workloads.per_layer(tracer, plain, traced_round, loop_layers)
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            workloads.print_breakdown(tracer, traced_round)
        else:
            rounds = run_rounds(args.seconds, workload.round)
            errors += workload.check_rounds(rounds)
            metrics = {"setup_s": (setup_s, "s"), **workload.end_to_end(rounds)}
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        errors += [e for r in rounds for e in r["errors"]]
    finally:
        shutil.rmtree(scratch)
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r["operations"] for r in rounds),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
