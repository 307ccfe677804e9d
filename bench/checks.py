"""Checks of a workload's outputs against computations made apart from uedmaze.

Each function returns a list of failure messages; an empty list means every
check passed.
"""

from __future__ import annotations

import csv
import json
from collections import Counter, defaultdict

from reference import bernstein_radius, shortest_path

# Largest probability with which one statistical check may fail on correct code.
CHECK_DELTA = 1e-9


def read_run(out_dir):
    with open(out_dir / "logs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(out_dir / "buffer.json") as fh:
        buffer = json.load(fh)
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    return rows, buffer, summary


def check_training(rows, buffer, summary, cfg, step_logs, need_colearn_write):
    """Checks one design-loop run in `traced` mode; step_logs are ued_step's returns in order."""
    errors = []
    if cfg.mode != "traced":
        return [f"mode {cfg.mode!r} is not traced"]

    paths = defaultdict(set)
    for row in rows:
        paths[int(row["task_id"])].add(int(row["shortest_path_len"]))
    for task in buffer["tasks"]:
        want = shortest_path(task["level"])
        if paths.get(task["task_id"]) != {want}:
            errors.append(f"task {task['task_id']}: logged path {paths.get(task['task_id'])}, BFS gives {want}")

    for row in rows:
        pvl, atpl, combined = float(row["pvl"]), float(row["atpl"]), float(row["combined"])
        if pvl < 0 or atpl < 0 or combined != pvl + cfg.alpha * atpl:
            errors.append(f"t={row['t']} task {row['task_id']}: combined {combined} != {pvl} + {cfg.alpha} * {atpl}")

    batches = defaultdict(list)
    for row in rows:
        if row["phase"] == "replay":
            batches[int(row["t"])].append(row)
    for t, batch in sorted(batches.items()):
        ids = {int(r["task_id"]) for r in batch}
        probs = [float(r["priority_prob"]) for r in batch]
        if len(batch) != cfg.batch_size or len(ids) != len(batch):
            errors.append(f"t={t}: replayed {len(batch)} rows over {len(ids)} tasks, batch_size {cfg.batch_size}")
        if not all(0.0 < p <= 1.0 for p in probs) or sum(probs) > 1.0 + 1e-12:
            errors.append(f"t={t}: priority probabilities {probs}")

    step_phase = {}
    for row in rows:
        step_phase[int(row["t"])] = "explore" if row["phase"] == "explore" else "replay"
    phase_counts = Counter(step_phase.values())
    returned = Counter(log.phase for log in step_logs)
    if dict(phase_counts) != summary["phase_counts"] or returned != phase_counts:
        errors.append(f"phase counts: summary {summary['phase_counts']}, logs {dict(phase_counts)}, steps {dict(returned)}")
    if sorted(step_phase) != list(range(cfg.total_updates)) or summary["updates"] != cfg.total_updates:
        errors.append(f"logged updates {len(step_phase)}, summary {summary['updates']}, asked {cfg.total_updates}")
    replay_rows = sum(row["phase"] == "replay" for row in rows)
    if summary["ppo_updates"] != replay_rows:
        errors.append(f"ppo_updates {summary['ppo_updates']} != {replay_rows} replay rows")
    if summary["predictor_updates"] != len(rows):
        errors.append(f"predictor_updates {summary['predictor_updates']} != {len(rows)} scored rollouts")

    writes = sum(log.colearnability_written is not None for log in step_logs)
    if need_colearn_write and writes == 0:
        errors.append("the co-learnability write-back never landed")
    return errors


def check_heldout(suite, pooled, episodes):
    """Pooled per-level solved rate and mean return against the exact uniform-policy reference.

    pooled maps level name -> (solved rate, mean return) over `episodes`
    episodes. Each must lie within the Bernstein radius at CHECK_DELTA.
    """
    errors = []
    for name, _, (solve_p, mean_ret, second) in suite:
        solved, ret = pooled[name]
        for label, seen, want, var in (
            ("solved rate", solved, solve_p, solve_p * (1.0 - solve_p)),
            ("mean return", ret, mean_ret, max(second - mean_ret**2, 0.0)),
        ):
            radius = bernstein_radius(var, episodes, CHECK_DELTA)
            if abs(seen - want) > radius:
                errors.append(f"{name}: {label} {seen:.4f}, reference {want:.4f} +- {radius:.4f} over {episodes} episodes")
    return errors
