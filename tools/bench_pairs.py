"""Paired benchmark runs of two checkouts, with the statistics a gain claim needs.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workload desk11-traced full15-traced heldout-eval \
        --seeds 0 1 2 3 4 5 6 7 8 9 --out runs.jsonl

Takes the workloads one after another. For each, runs each checkout's own
bench/run.py once per seed, never two runs at once, and alternates which
side goes first: the parent in even pairs, the change in odd ones. Each
run's JSON line is appended to --out as
{"side", "workload", "seed", "trace", "result"}. Then it prints, for every
metric, each side's median and quartiles, the change's wins (ties count for
neither side) and whether a gain claim would hold: the change wins at least
nine tenths of the pairs and its median beats the parent's by more than the
parent's interquartile range. Each metric with a bound (the end-to-end
ones) also gets a no-regression verdict:

    worse       the change's median is worse than the parent's by more than
                the bound, a fraction of the parent's median;
    unresolved  otherwise, when either side's interquartile range, as a
                fraction of the parent's median, is wider than the bound,
                unless every change run beats every parent run;
    ok          otherwise.

The summary also gives each checkout's line count of src/uedmaze/*.py. Each
workload's table ends with that summary as one JSON line, so the last line
of standard output is the last workload's. Directions and bounds come from
the change's BENCHMARK.json; a metric it does not list is reported without a
gain or a verdict. Exits 1 if any run of any workload failed or reported
"correct": false.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, nargs="+", help="one or more workloads, run in turn")
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append every run's JSON line here")
    return parser.parse_args()


def run_once(checkout, workload, seed, seconds, trace):
    """The run's result dict, or None if it exited non-zero or printed no JSON line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        print(f"{checkout} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
    return result


def metric_specs(checkout):
    """{name: {"better", "bound"?, ...}} for every metric the checkout's BENCHMARK.json lists."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def src_lines(checkout):
    """Lines in the checkout's src/uedmaze/*.py."""
    return sum(len(path.read_text().splitlines()) for path in (checkout / "src" / "uedmaze").glob("*.py"))


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def no_regression_verdict(parent, change, sign, bound):
    """"ok", "worse" or "unresolved" for one metric; sign is +1 when higher is better, -1 when lower is."""
    scale = abs(statistics.median(parent))
    if scale == 0:
        return "unresolved"
    if sign * (statistics.median(parent) - statistics.median(change)) / scale > bound:
        return "worse"
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    spread = max(quartiles(side)[1] - quartiles(side)[0] for side in (parent, change)) / scale
    return "unresolved" if spread > bound and not every_run_better else "ok"


def summarize(pairs, specs):
    """{metric: statistics} over the pairs in which both sides report the metric."""
    names = sorted({name for p, c in pairs for name in p["metrics"]} & {name for p, c in pairs for name in c["metrics"]})
    summary = {}
    for name in names:
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs if name in p["metrics"] and name in c["metrics"]]
        parent = [p for p, _ in both]
        change = [c for _, c in both]
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        parent_iqr = quartiles(parent)[1] - quartiles(parent)[0]
        entry = {
            "parent_median": parent_median,
            "change_median": change_median,
            "change_over_parent": change_median / parent_median if parent_median else None,
            "parent_q1_q3": quartiles(parent),
            "change_q1_q3": quartiles(change),
            "parent_iqr": parent_iqr,
        }
        spec = specs.get(name, {})
        direction = spec.get("better")
        if direction in ("lower", "higher"):
            sign = 1.0 if direction == "higher" else -1.0
            wins = sum(sign * (c - p) > 0 for p, c in both)
            entry["better"] = direction
            entry["change_wins"] = wins
            entry["gain_holds"] = wins >= 0.9 * len(both) and sign * (change_median - parent_median) > parent_iqr
            if "bound" in spec:
                entry["bound"] = spec["bound"]
                entry["verdict"] = no_regression_verdict(parent, change, sign, spec["bound"])
        summary[name] = entry
    return summary


def compare(args, workload):
    """Run the pairs of one workload and print its table and JSON summary line; False if any run failed."""
    pairs = []
    failed = False
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            result = run_once(getattr(args, side), workload, seed, args.seconds, args.trace)
            results[side] = result
            failed |= result is None or not result.get("correct", False)
            if args.out and result is not None:
                line = {"side": side, "workload": workload, "seed": seed, "trace": args.trace, "result": result}
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(line) + "\n")
        if results["parent"] is not None and results["change"] is not None:
            pairs.append((results["parent"], results["change"]))
    summary = summarize(pairs, metric_specs(args.change)) if pairs else {}
    lines = {side: src_lines(getattr(args, side)) for side in ("parent", "change")}
    print(f"{workload}: {len(pairs)} pairs, seeds {args.seeds}")
    print(f"src/uedmaze/*.py lines: parent {lines['parent']}, change {lines['change']}")
    print(f"{'metric':<28}{'parent median [q1, q3]':>36}{'change median [q1, q3]':>36}{'wins':>7}  gain   verdict")
    for name, s in summary.items():
        p = f"{s['parent_median']:.6g} [{s['parent_q1_q3'][0]:.6g}, {s['parent_q1_q3'][1]:.6g}]"
        c = f"{s['change_median']:.6g} [{s['change_q1_q3'][0]:.6g}, {s['change_q1_q3'][1]:.6g}]"
        gain = str(s.get("gain_holds", "-"))
        print(f"{name:<28}{p:>36}{c:>36}{s.get('change_wins', '-'):>7}  {gain:<6} {s.get('verdict', '-')}")
    print(json.dumps({"workload": workload, "trace": args.trace, "pairs": len(pairs), "seeds": args.seeds,
                      "all_correct": not failed, "src_lines": lines, "metrics": summary}), flush=True)
    return not failed


def main():
    args = parse_args()
    ok = [compare(args, workload) for workload in args.workload]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
