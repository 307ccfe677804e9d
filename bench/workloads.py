"""The benchmark's workloads: rounds, their end-to-end metrics and per-layer metrics.

A round is one whole unit of a workload's work, timed from outside through
the public API. Every round's outputs are checked (see checks.py).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from checks import check_heldout, check_training, read_run
from reference import make_suite, write_suite
from tracing import traced
from uedmaze import MazeEnv, PolicyNetwork, harness, load_preset

# preset, design-loop updates per round, whether the co-learnability write-back must land
TRAINING = {
    "desk11-traced": ("desk11", 100, True),
    "full15-traced": ("full15", 20, False),
}
HELDOUT = "heldout-eval"
# Generated suite: one 7x7 level per band of uniform-policy solve probability.
SUITE_BANDS = ((0.05, 0.10), (0.20, 0.25), (0.35, 0.40), (0.50, 0.55), (0.65, 0.70), (0.85, 0.90))
SUITE_SIZE = 7
SUITE_MAX_STEPS = 80
SUITE_EPISODES = 300


@contextmanager
def timed_calls(owner, attr):
    """Yield a list that gets (seconds, result) for every call of owner.attr inside the block."""
    inner = getattr(owner, attr)
    calls = []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = inner(*args, **kwargs)
        calls.append((time.perf_counter() - start, result))
        return result

    setattr(owner, attr, timed)
    try:
        yield calls
    finally:
        setattr(owner, attr, inner)


def _share(part, whole):
    return part / whole if whole else 0.0


class TrainingWorkload:
    """run_experiment on a preset in `traced` mode; round r of seed n trains with seed 1000 n + r."""

    def __init__(self, name, seed, scratch):
        preset, self.updates, self.need_colearn_write = TRAINING[name]
        self.cfg = load_preset(preset)
        self.seed = seed
        self.scratch = scratch
        harness.make_components(self.cfg)
        harness.load_suite(self.cfg.eval_suite)

    def check_setup(self):
        return []

    def round(self, index, tracer=None):
        cfg = dataclasses.replace(self.cfg, total_updates=self.updates, seed=1000 * self.seed + index)
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            with traced(tracer) if tracer else nullcontext(), timed_calls(harness, "ued_step") as steps:
                start = time.perf_counter()
                harness.run_experiment(cfg, out)
                run_s = time.perf_counter() - start
            rows, buffer, summary = read_run(out)
            logs = [log for _, log in steps]
            errors = check_training(rows, buffer, summary, cfg, logs, self.need_colearn_write)
            fingerprint = (out / "logs.csv").read_bytes()
        finally:
            shutil.rmtree(out)
        return {
            "run_s": run_s,
            "steps": [(seconds, log.phase) for seconds, log in steps],
            "colearn_writes": sum(log.colearnability_written is not None for log in logs),
            "row_phases": [row["phase"] for row in rows],
            "child_paths": [int(row["shortest_path_len"]) for row in rows if row["phase"] == "mutate"],
            "explore_ids": [int(row["task_id"]) for row in rows if row["phase"] == "explore"],
            "rollout_steps": len(rows) * cfg.num_workers * cfg.rollout_length,
            "operations": cfg.total_updates,
            "errors": errors,
            "fingerprint": fingerprint,
        }

    def check_rounds(self, rounds):
        return []

    def end_to_end(self, rounds):
        steps = [s for r in rounds for s, _ in r["steps"]]
        return {
            "run_s": (statistics.fmean(r["run_s"] for r in rounds), "s"),
            "op_p50_s": (statistics.median(steps), "s"),
            "env_steps_per_s": (sum(r["rollout_steps"] for r in rounds) / sum(steps), "steps/s"),
        }

    def loop_layers(self, plain, traced_round, tracer):
        """Design-loop metrics of the traced round, phase medians of the untraced one, and trace checks."""
        errors = []
        under_rollout = tracer.calls_under["env.step"]["agent.collect_rollout"]
        if under_rollout != traced_round["rollout_steps"]:
            errors.append(f"MazeEnv.step under collect_rollout: {under_rollout}, rows give {traced_round['rollout_steps']}")
        phases = traced_round["row_phases"]
        children = traced_round["child_paths"]
        explored = traced_round["explore_ids"]
        layers = {
            "loop.replay_step_s": (_median_phase(plain, "replay"), "s"),
            "loop.explore_step_s": (_median_phase(plain, "explore"), "s"),
            "levels.child_solvable_share": (_share(sum(p >= 0 for p in children), len(children)), "fraction"),
            "curriculum.insert_accepted_share": (_share(sum(i >= 0 for i in explored), len(explored)), "fraction"),
            "curriculum.colearn_writes": (traced_round["colearn_writes"], "count"),
            "curriculum.scoring_step_share": (_share(sum(p != "replay" for p in phases), len(phases)), "fraction"),
        }
        return layers, errors


def _median_phase(round_result, phase):
    times = [s for s, p in round_result["steps"] if p == phase]
    return statistics.median(times) if times else 0.0


class HeldoutWorkload:
    """evaluate_policy with an exactly uniform policy on a suite generated from the seed."""

    def __init__(self, name, seed, scratch):
        self.seed = seed
        self.suite = make_suite(seed, SUITE_BANDS, SUITE_SIZE, SUITE_MAX_STEPS)
        suite_dir = Path(scratch) / "suite"
        write_suite(self.suite, suite_dir)
        self.levels = harness.load_suite(str(suite_dir))
        self.policy = PolicyNetwork(load_preset("desk11").policy_arch())
        self.params = self.policy.init_params(np.random.default_rng([seed, 5]))

    def check_setup(self):
        """One forward pass on the suite's reset observations must give equal logits."""
        obs = np.stack([MazeEnv(level, SUITE_MAX_STEPS).reset().vector() for _, level in self.levels])
        logits, _, _ = self.policy.forward(self.params.theta, obs)
        if np.all(logits == logits[:, :1]):
            return []
        return [f"initial policy is not uniform: logits spread {np.ptp(logits, axis=1).max()}"]

    def round(self, index, tracer=None):
        rng = np.random.default_rng([self.seed, index])
        with traced(tracer) if tracer else nullcontext(), timed_calls(harness, "run_episodes") as levels:
            start = time.perf_counter()
            report = harness.evaluate_policy(self.policy, self.params, self.levels, SUITE_EPISODES, SUITE_MAX_STEPS, rng)
            run_s = time.perf_counter() - start
        # A solved episode of T steps returns 1 - T/T_max; an unsolved one runs T_max steps for 0.
        env_steps = sum(
            round(SUITE_MAX_STEPS * SUITE_EPISODES * (1.0 - v["mean_return"])) for v in report["levels"].values()
        )
        return {
            "run_s": run_s,
            "level_s": [seconds for seconds, _ in levels],
            "report": report["levels"],
            "env_steps": env_steps,
            "operations": SUITE_EPISODES * len(self.levels),
            "errors": [],
            "fingerprint": json.dumps(report, sort_keys=True),
        }

    def check_rounds(self, rounds):
        """Pool rounds (each with its own generator) and check them against the exact reference."""
        pooled = {
            name: tuple(statistics.fmean(r["report"][name][key] for r in rounds) for key in ("solved_rate", "mean_return"))
            for name, _, _ in self.suite
        }
        return check_heldout(self.suite, pooled, SUITE_EPISODES * len(rounds))

    def end_to_end(self, rounds):
        return {
            "run_s": (statistics.fmean(r["run_s"] for r in rounds), "s"),
            "op_p50_s": (statistics.median(s for r in rounds for s in r["level_s"]), "s"),
            "env_steps_per_s": (sum(r["env_steps"] for r in rounds) / sum(r["run_s"] for r in rounds), "steps/s"),
        }

    def loop_layers(self, plain, traced_round, tracer):
        """No design loop runs here: its metrics read 0. Checks the traced env-step count."""
        errors = []
        under_eval = tracer.calls_under["env.step"]["harness.run_episodes"]
        if under_eval != traced_round["env_steps"]:
            errors.append(f"MazeEnv.step under run_episodes: {under_eval}, returns give {traced_round['env_steps']}")
        layers = {
            "loop.replay_step_s": (0.0, "s"),
            "loop.explore_step_s": (0.0, "s"),
            "levels.child_solvable_share": (0.0, "fraction"),
            "curriculum.insert_accepted_share": (0.0, "fraction"),
            "curriculum.colearn_writes": (0, "count"),
            "curriculum.scoring_step_share": (0.0, "fraction"),
        }
        return layers, errors


WORKLOADS = {**{name: TrainingWorkload for name in TRAINING}, HELDOUT: HeldoutWorkload}


# Each span reports <span>_s, its self time: the span's duration minus its child spans.
TIMED_SPANS = (
    "env.step", "agent.forward", "agent.backward", "agent.collect_rollout", "agent.ppo_update",
    "agent.compute_gae", "nn.adam_step", "dynamics.train", "dynamics.stack", "scoring.atpl",
    "scoring.pvl", "levels.generate", "levels.mutate", "levels.bfs", "curriculum.sample_replay",
    "curriculum.insert", "curriculum.colearn", "harness.run_episodes", "harness.eval",
    "harness.checkpoint", "harness.snapshot",
)
# Each reports <span>_calls.
COUNTED_SPANS = ("env.step", "env.reset", "agent.forward", "nn.weights", "dynamics.train")
# mean rows per call
ROW_LAYERS = (
    ("agent.forward_rows", "agent.forward"),
    ("agent.ppo_samples", "agent.ppo_update"),
    ("dynamics.train_rows", "dynamics.train"),
)


def per_layer(tracer, plain, traced_round, loop_layers):
    metrics = {}
    for name in TIMED_SPANS:
        metrics[f"{name}_s"] = (float(tracer.self_s[name]), "s")
    for name in COUNTED_SPANS:
        metrics[f"{name}_calls"] = (tracer.calls[name], "count")
    for metric, name in ROW_LAYERS:
        metrics[metric] = (_share(tracer.rows[name], tracer.calls[name]), "rows/call")
    metrics.update(loop_layers)
    metrics["trace.overhead_s"] = (traced_round["run_s"] - plain["run_s"], "s")
    return metrics


def print_breakdown(tracer, traced_round):
    """Every span's calls, self time and share of the traced round, to stderr."""
    total = traced_round["run_s"]
    print(f"traced round {total:.3f} s; self time by span:", file=sys.stderr)
    for name, self_s in tracer.self_s.most_common():
        print(f"  {name:28s} {tracer.calls[name]:>9d} calls {self_s:9.3f} s {100 * self_s / total:6.2f} %", file=sys.stderr)
    rest = total - sum(tracer.self_s.values())
    print(f"  {'(outside every span)':28s} {'':>15s} {rest:9.3f} s {100 * rest / total:6.2f} %", file=sys.stderr)
