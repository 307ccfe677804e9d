"""Regret estimators used to score levels.

Two signals combine into the score a level is ranked by. Each is averaged
over every step of a rollout wave (all trajectories one rollout collected on
the level), so a long trajectory weighs more than a short one:

- positive value loss: the average positive part of the GAE advantages (the
  lambda-discounted TD-error sums), measuring how much better than its own
  value estimate the agent just did;
- average transition prediction loss: the mean per-step L1 error of the
  learned dynamics model, measuring how unfamiliar the level's transitions
  are.

combined = pvl + alpha * atpl. Scoring never mutates parameters or
trajectories: it reads the cached advantages that compute_gae wrote.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import trajectory_transitions


@dataclass(frozen=True)
class RegretScore:
    pvl: float
    atpl: float
    combined: float


def _positive_advantage_sum(traj):
    """Sum of the positive advantages, accumulated last step first, as GAE produces them."""
    if traj.advantages is None:
        raise ValueError("trajectory has no advantages; run compute_gae first")
    if len(traj.advantages) == 0:
        raise ValueError("empty trajectory")
    total = 0.0
    for a in reversed(traj.advantages.tolist()):
        if a > 0.0:
            total += a
    return total


def positive_value_loss_many(trajs):
    """Step-weighted PVL across a rollout wave: sum of positive parts over total transitions."""
    if not trajs:
        raise ValueError("no trajectories")
    totals = [_positive_advantage_sum(t) for t in trajs]
    return float(sum(totals)) / sum(len(t.advantages) for t in trajs)


def average_transition_prediction_loss_many(trajs, model, theta):
    """Step-weighted ATPL across a rollout wave."""
    if not trajs:
        raise ValueError("no trajectories")
    totals = 0.0
    steps = 0
    for traj in trajs:
        obs, act, nxt = trajectory_transitions(traj)
        pred = model.predict(theta, obs, act)
        totals += float(np.abs(pred - nxt).mean(axis=1).sum())
        steps += traj.length
    return totals / steps


def approx_regret(pvl, atpl, alpha):
    """combined = pvl + alpha * atpl, exactly."""
    if pvl < 0 or atpl < 0:
        raise ValueError(f"pvl and atpl must be non-negative, got {pvl}, {atpl}")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    pvl, atpl = float(pvl), float(atpl)
    return RegretScore(pvl=pvl, atpl=atpl, combined=pvl + alpha * atpl)

