"""Task buffer, replay priorities, co-learnability, and the design loop.

Each step flips a replay coin. Tails: sample a fresh level, score it with a
no-gradient rollout, and insert it into the buffer if it beats the current
minimum. Heads: sample a batch of buffered tasks by priority, train the
student on each, re-score them, write the batch's mean score reduction back
to the previously replayed batch (co-learnability), then mutate the
lowest-regret members of the batch and replace them with their scored
variants.

A task keeps one score, the combined regret of its latest scoring rollout;
priority is score + beta * co-learnability passed through a rank transform
(Robust PLR's rank prioritisation) and mixed with a staleness distribution.
The student's parameters change only inside the replay branch.

Every setting, the teacher mode included, is read from state.cfg (a RunConfig).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .agent import collect_rollout, compute_gae, ppo_update
from .dynamics import stack_transitions, train_dynamics
from .levels import generate_random_level, level_metrics, mutate_level
from .scoring import (
    approx_regret,
    average_transition_prediction_loss_many,
    positive_value_loss_many,
)


@dataclass
class TaskRecord:
    """One buffered level; score is the combined regret of its latest scoring rollout."""

    task_id: int
    level: object
    metrics: object
    score: float
    colearnability: float = 0.0
    last_sampled: int | None = None


@dataclass
class CurriculumState:
    cfg: object
    buffer: list = field(default_factory=list)
    t: int = 0
    next_task_id: int = 0
    prev_replay_batch: list = field(default_factory=list)  # task ids


@dataclass
class Student:
    policy: object
    params: object
    updates: int = 0


@dataclass
class Predictor:
    model: object
    params: object
    updates: int = 0


@dataclass(frozen=True)
class LogRow:
    t: int
    phase: str
    task_id: int
    pvl: float
    atpl: float
    combined: float
    colearnability: float
    priority_prob: float | None
    shortest_path_len: int  # -1 when the goal is unreachable
    num_blocks: int


@dataclass
class StepLog:
    phase: str
    rows: list
    colearnability_written: float | None = None


def mode_settings(cfg):
    """Effective (alpha, beta, mutation_enabled) for cfg's teacher mode."""
    if cfg.mode == "traced":
        return cfg.alpha, cfg.beta, True
    if cfg.mode == "accel":
        return 0.0, 0.0, True
    if cfg.mode in ("plr", "dr"):
        return 0.0, 0.0, False
    if cfg.mode == "traced-no-atpl":
        return 0.0, cfg.beta, True
    if cfg.mode == "traced-no-cl":
        return cfg.alpha, 0.0, True
    raise ValueError(f"unknown teacher mode {cfg.mode!r}")


def priority_scores(state: CurriculumState):
    """score + beta * co-learnability per buffered task, in buffer order."""
    _, beta, _ = mode_settings(state.cfg)
    return np.array([r.score + beta * r.colearnability for r in state.buffer])


def _staleness_weights(state):
    t = state.t
    raw = np.array(
        [float(t - r.last_sampled) if r.last_sampled is not None else -1.0 for r in state.buffer]
    )
    never = raw < 0
    if never.any():
        raw[never] = raw[~never].max() if (~never).any() else 1.0
    total = raw.sum()
    if total <= 0:
        return np.full(len(raw), 1.0 / len(raw))
    return raw / total


def task_priority_distribution(state: CurriculumState):
    """Sampling distribution over the buffer: rank transform mixed with staleness.

    Tasks are ranked by score descending (ties broken by task_id, i.e.
    insertion order), weighted (1/rank)^(1/temperature), and mixed with the
    staleness distribution by staleness_coef.

    A task's staleness is t - last_sampled; a task never sampled counts as
    the stalest sampled task (1 when no task has been sampled). The staleness
    distribution is proportional to staleness, and uniform when every
    staleness is 0. So with staleness_coef rho, a task of staleness s gets
    at least rho * s / (sum of all staleness).
    """
    n = len(state.buffer)
    if n == 0:
        raise ValueError("empty task buffer")
    scores = priority_scores(state)
    order = sorted(range(n), key=lambda i: (-scores[i], state.buffer[i].task_id))
    ranks = np.empty(n)
    for position, i in enumerate(order):
        ranks[i] = position + 1
    h = (1.0 / ranks) ** (1.0 / state.cfg.temperature)
    h = h / h.sum()
    rho = state.cfg.staleness_coef
    return (1.0 - rho) * h + rho * _staleness_weights(state)


def sample_replay_batch(state: CurriculumState, rng):
    """Draw batch_size distinct tasks (renormalizing between draws).

    Returns (records, their probabilities under the pre-draw distribution)
    and stamps last_sampled. Raises ValueError when the buffer is too small.
    """
    b = state.cfg.batch_size
    if len(state.buffer) < b:
        raise ValueError(f"buffer holds {len(state.buffer)} tasks, need {b}")
    dist = task_priority_distribution(state)
    remaining = dist.copy()
    chosen = []
    for _ in range(b):
        total = remaining.sum()
        if total <= 0:
            open_idx = [i for i in range(len(remaining)) if i not in chosen]
            p = np.full(len(open_idx), 1.0 / len(open_idx))
            idx = open_idx[int(np.searchsorted(np.cumsum(p), rng.random()))]
        else:
            cum = np.cumsum(remaining / total)
            idx = int(np.searchsorted(cum, rng.random()))
            idx = min(idx, len(remaining) - 1)
            while remaining[idx] <= 0.0:  # zero-mass hit on an exact cdf boundary
                idx = (idx + 1) % len(remaining)
        chosen.append(idx)
        remaining[idx] = 0.0
    records = [state.buffer[i] for i in chosen]
    for rec in records:
        rec.last_sampled = state.t
    return records, [float(dist[i]) for i in chosen]


def maybe_insert(state: CurriculumState, level, score, metrics):
    """Insert a freshly scored level; when full, it must beat the minimum priority score.

    Returns the new TaskRecord, or None when the candidate was discarded.
    """
    if len(state.buffer) >= state.cfg.buffer_size:
        scores = priority_scores(state)
        weakest = int(np.argmin(scores))
        if score.combined <= scores[weakest]:
            return None
        del state.buffer[weakest]
    record = _new_record(state, level, metrics, score)
    state.buffer.append(record)
    return record


def update_colearnability(state: CurriculumState, pres: dict, posts: dict):
    """Write the current batch's mean score reduction onto the previous batch.

    pres and posts map each current batch member's task id to its score just
    before and just after this step's re-scoring. The value is
    (1/|batch|) * sum(pre - post). Every surviving member of the previously
    replayed batch receives that same value; then the current batch becomes
    the previous one. Returns the value, or None when it landed nowhere.
    """
    if not posts:
        raise ValueError("empty replay batch")
    value = sum(pres[tid] - posts[tid] for tid in posts) / len(posts)
    previous = set(state.prev_replay_batch)
    written = None
    for rec in state.buffer:
        if rec.task_id in previous:
            rec.colearnability = value
            written = value
    state.prev_replay_batch = list(posts)
    return written


def select_mutation_parents(records, posts, n):
    """The n batch members with the lowest post-replay combined regret (ties: task_id)."""
    ordered = sorted(records, key=lambda r: (posts[r.task_id], r.task_id))
    return ordered[:n]


def _rollout(state, student, level, rng):
    cfg = state.cfg
    trajs = collect_rollout(
        student.policy,
        student.params,
        [level] * cfg.num_workers,
        cfg.rollout_length,
        cfg.max_episode_steps,
        rng,
    )
    for traj in trajs:
        compute_gae(traj, cfg.gamma, cfg.gae_lambda)
    return trajs


def _train_student(state, student, trajs, rng):
    student.params, _ = ppo_update(student.policy, student.params, trajs, state.cfg, rng)
    student.updates += 1


def _score_and_fit(state, predictor, trajs, alpha):
    """Score a rollout wave with the current predictor, then take one predictor step on it."""
    pvl = positive_value_loss_many(trajs)
    atpl = average_transition_prediction_loss_many(trajs, predictor.model, predictor.params.theta)
    score = approx_regret(pvl, atpl, alpha)
    obs, act, nxt = stack_transitions(trajs)
    predictor.params, _ = train_dynamics(predictor.model, predictor.params, obs, act, nxt, state.cfg)
    predictor.updates += 1
    return score


def _new_record(state, level, metrics, score):
    record = TaskRecord(
        task_id=state.next_task_id,
        level=level,
        metrics=metrics,
        score=score.combined,
        last_sampled=state.t,
    )
    state.next_task_id += 1
    return record


def _row(state, phase, task_id, score, metrics, colearnability=0.0, priority_prob=None):
    path = metrics.shortest_path_len
    return LogRow(
        t=state.t,
        phase=phase,
        task_id=task_id,
        pvl=score.pvl,
        atpl=score.atpl,
        combined=score.combined,
        colearnability=colearnability,
        priority_prob=priority_prob,
        shortest_path_len=-1 if path is None else path,
        num_blocks=metrics.num_blocks,
    )


def ued_step(state: CurriculumState, student: Student, predictor: Predictor, rng):
    """One loop iteration; mutates state/student/predictor in place, returns a StepLog.

    Mode behavior: dr trains on a fresh level every step and keeps no buffer;
    plr skips mutation; accel zeroes alpha and beta; the no-atpl/no-cl
    variants zero one weight each. Exploration steps never touch the
    student's parameters.
    """
    cfg = state.cfg
    if cfg.mode == "dr":
        log = _dr_step(state, student, rng)
    else:
        alpha, _, mutation_enabled = mode_settings(cfg)
        replay_ready = len(state.buffer) >= cfg.batch_size
        want_replay = rng.random() < cfg.replay_rate
        if want_replay and replay_ready:
            log = _replay_step(state, student, predictor, alpha, mutation_enabled, rng)
        else:
            log = _explore_step(state, student, predictor, alpha, rng)
    state.t += 1
    return log


def _fresh_level(cfg, rng):
    return generate_random_level(cfg.grid_width, cfg.grid_height, cfg.max_blocks, rng, cfg.min_blocks)


def _dr_step(state, student, rng):
    level = _fresh_level(state.cfg, rng)
    trajs = _rollout(state, student, level, rng)
    _train_student(state, student, trajs, rng)
    score = approx_regret(positive_value_loss_many(trajs), 0.0, 0.0)
    return StepLog(phase="dr", rows=[_row(state, "dr", -1, score, level_metrics(level))])


def _explore_step(state, student, predictor, alpha, rng):
    level = _fresh_level(state.cfg, rng)
    trajs = _rollout(state, student, level, rng)
    score = _score_and_fit(state, predictor, trajs, alpha)
    metrics = level_metrics(level)
    record = maybe_insert(state, level, score, metrics)
    task_id = record.task_id if record else -1
    return StepLog(phase="explore", rows=[_row(state, "explore", task_id, score, metrics)])


def _replay_step(state, student, predictor, alpha, mutation_enabled, rng):
    cfg = state.cfg
    records, probs = sample_replay_batch(state, rng)
    rows = []
    pres, posts = {}, {}
    for rec, prob in zip(records, probs):
        trajs = _rollout(state, student, rec.level, rng)
        _train_student(state, student, trajs, rng)
        score = _score_and_fit(state, predictor, trajs, alpha)
        pres[rec.task_id] = rec.score
        rec.score = posts[rec.task_id] = score.combined
        rows.append(_row(state, "replay", rec.task_id, score, rec.metrics, rec.colearnability, prob))
    written = update_colearnability(state, pres, posts)
    if mutation_enabled:
        for parent in select_mutation_parents(records, posts, cfg.num_mutations):
            variant = mutate_level(parent.level, cfg.num_edits, cfg.max_blocks, rng)
            trajs = _rollout(state, student, variant, rng)
            score = _score_and_fit(state, predictor, trajs, alpha)
            child = _new_record(state, variant, level_metrics(variant), score)
            slot = next(i for i, r in enumerate(state.buffer) if r is parent)
            state.buffer[slot] = child
            rows.append(_row(state, "mutate", child.task_id, score, child.metrics))
    return StepLog(phase="replay", rows=rows, colearnability_written=written)
