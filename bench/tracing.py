"""In-memory spans around uedmaze's module boundaries, patched in from outside.

Each traced function is replaced by a wrapper for the length of a `traced`
block and restored afterwards. A wrapper times the call, charges its
duration to the caller's child time (so self time = span - child spans),
counts the call under its caller's name, and optionally counts rows. Calls
to hot leaves (env steps, policy passes, Adam steps) are only aggregated;
every other call is also kept as a span (name, parent span, start, end),
written out when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from uedmaze import agent, curriculum, dynamics, env, harness, levels, nn


def _rows_of_first_batch(args):
    return len(args[2])


def _rows_of_trajectories(args):
    return sum(traj.length for traj in args[2])


# (owner, attribute, span name, kept as a span, rows counter)
TARGETS = (
    (harness, "ued_step", "curriculum.ued_step", True, None),
    (harness, "evaluate_policy", "harness.eval", True, None),
    (harness, "run_episodes", "harness.run_episodes", True, None),
    (harness, "save_checkpoint", "harness.checkpoint", True, None),
    (harness, "save_buffer_snapshot", "harness.snapshot", True, None),
    (harness, "make_components", "harness.make_components", True, None),
    (harness, "load_suite", "harness.load_suite", True, None),
    (curriculum, "sample_replay_batch", "curriculum.sample_replay", True, None),
    (curriculum, "maybe_insert", "curriculum.insert", True, None),
    (curriculum, "update_colearnability", "curriculum.colearn", True, None),
    (curriculum, "collect_rollout", "agent.collect_rollout", True, None),
    (curriculum, "compute_gae", "agent.compute_gae", True, None),
    (curriculum, "ppo_update", "agent.ppo_update", True, _rows_of_trajectories),
    (curriculum, "train_dynamics", "dynamics.train", True, _rows_of_first_batch),
    (curriculum, "stack_transitions", "dynamics.stack", True, None),
    (curriculum, "average_transition_prediction_loss_many", "scoring.atpl", True, None),
    (curriculum, "positive_value_loss_many", "scoring.pvl", True, None),
    (curriculum, "generate_random_level", "levels.generate", True, None),
    (curriculum, "mutate_level", "levels.mutate", True, None),
    (levels, "shortest_path_length", "levels.bfs", True, None),
    (agent, "adam_step", "nn.adam_step", False, None),
    (dynamics, "adam_step", "nn.adam_step", False, None),
    (agent.PolicyNetwork, "forward", "agent.forward", False, _rows_of_first_batch),
    (agent.PolicyNetwork, "backward", "agent.backward", False, None),
    (env.MazeEnv, "step", "env.step", False, None),
    (env.MazeEnv, "reset", "env.reset", False, None),
)

# Counted only: a timer around a call this small would mostly time itself.
COUNTED = ((nn.ChainSet, "weights", "nn.weights"),)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent span index or None, start, end]
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.rows = Counter()
        self.calls_under = defaultdict(Counter)  # name -> caller name -> calls
        self._stack = []  # frames: [name, span index or None, child seconds]

    def wrap(self, fn, name, keep_span, rows):
        stack = self._stack

        def traced_call(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, None, 0.0]
            if keep_span:
                frame[1] = len(self.spans)
                self.spans.append([name, _span_index(stack), None, None])
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                if keep_span:
                    self.spans[frame[1]][2:] = [start, end]
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[2]
                self.calls_under[name][parent[0] if parent else None] += 1
                if rows is not None:
                    self.rows[name] += rows(args)

        return traced_call

    def count(self, fn, name):
        def counted_call(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted_call

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "start": start, "end": end}) + "\n")


def _span_index(stack):
    for frame in reversed(stack):
        if frame[1] is not None:
            return frame[1]
    return None


@contextmanager
def traced(tracer):
    """Patch every target for the block; the originals come back on exit."""
    saved = []
    try:
        for owner, attr, name, keep_span, rows in TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, keep_span, rows))
        for owner, attr, name in COUNTED:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.count(original, name))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
