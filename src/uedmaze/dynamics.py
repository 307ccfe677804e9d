"""Learned transition model and its training step.

A feedforward predictor maps (observation vector, one-hot action) to scores
with the observation's shape. Fit quality is measured as exact mean absolute
error (L1) over every output element; optimization goes through a smoothed-L1
surrogate (quadratic within 1e-2 of the kink) so the gradient is continuous,
but every reported number is the exact L1. The training step reads
dynamics_learning_rate, adam_eps and max_grad_norm off the run's RunConfig.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import NUM_ACTIONS, OBS_DIM
from .nn import ChainSet, DenseSpec, FlatParams, adam_step, clip_grad_norm

SMOOTH_L1_WIDTH = 1e-2


@dataclass(frozen=True)
class DynamicsArch:
    hidden: tuple = (64, 64)

    def chains(self):
        layers = []
        width = OBS_DIM + NUM_ACTIONS
        for h in self.hidden:
            layers.append(DenseSpec(width, h, "relu"))
            width = h
        layers.append(DenseSpec(width, OBS_DIM, "linear"))
        return {"net": layers}


class DynamicsModel:
    def __init__(self, arch: DynamicsArch = DynamicsArch()):
        self.arch = arch
        self.net = ChainSet(arch.chains())

    def init_params(self, rng) -> FlatParams:
        return FlatParams(self.net.init_theta(rng))

    def forward(self, theta, obs, action_onehot):
        """Predict next-observation scores for a batch; returns (pred, cache)."""
        obs = np.asarray(obs, dtype=np.float64)
        action_onehot = np.asarray(action_onehot, dtype=np.float64)
        if obs.ndim != 2 or obs.shape[1] != OBS_DIM:
            raise ValueError(f"expected obs of shape (N, {OBS_DIM}), got {obs.shape}")
        if action_onehot.shape != (obs.shape[0], NUM_ACTIONS):
            raise ValueError(f"action batch shape {action_onehot.shape} does not match obs")
        x = self.net.workspace("input", len(obs), OBS_DIM + NUM_ACTIONS)
        x[:, :OBS_DIM] = obs
        x[:, OBS_DIM:] = action_onehot
        pred, cache = self.net.forward(theta, "net", x)
        if not np.all(np.isfinite(pred)):
            raise FloatingPointError("non-finite dynamics prediction")
        return pred, cache

    def predict(self, theta, obs, action_onehot):
        return self.forward(theta, obs, action_onehot)[0]


def _matching_pair(predicted, actual):
    """Both as float64 arrays; ValueError unless their shapes match and are non-empty."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {actual.shape}")
    if predicted.size == 0:
        raise ValueError("empty prediction")
    return predicted, actual


def transition_loss(predicted, actual):
    """Exact L1: mean absolute element-wise difference. Shapes must match."""
    predicted, actual = _matching_pair(predicted, actual)
    return float(np.abs(predicted - actual).mean())


def smooth_l1(diff, width=SMOOTH_L1_WIDTH, out=None):
    """Elementwise surrogate: quadratic inside |d| < width, |d| - width/2 outside; into `out` when given."""
    diff = np.asarray(diff, dtype=np.float64)
    out = np.abs(diff, out=out)
    inside = out < width
    d = diff[inside]
    out -= 0.5 * width
    out[inside] = 0.5 * d * d / width
    return out


def smooth_l1_grad(diff, width=SMOOTH_L1_WIDTH, out=None):
    """Derivative of smooth_l1, written into `out` when given (which may be diff itself)."""
    diff = np.asarray(diff, dtype=np.float64)
    inside = np.abs(diff) < width
    d = diff[inside]
    out = np.sign(diff, out=out)
    out[inside] = d / width
    return out


def dynamics_loss_and_grad(model: DynamicsModel, theta, obs, action_onehot, next_obs):
    """(mean smoothed-L1, its parameter gradient, exact L1) from one forward pass."""
    pred, cache = model.forward(theta, obs, action_onehot)
    pred, next_obs = _matching_pair(pred, next_obs)
    diff = np.subtract(pred, next_obs, out=pred)  # pred is this call's own array
    buf = np.abs(diff)
    l1 = float(buf.mean())  # transition_loss(pred, next_obs), bit for bit
    loss = float(smooth_l1(diff, out=buf).mean())
    dy = smooth_l1_grad(diff, out=diff)
    dy /= dy.size
    grad = np.zeros_like(theta)
    model.net.backward(theta, "net", cache, dy, grad, input_grad=False)
    return loss, grad, l1


def train_dynamics(model, params: FlatParams, obs, action_onehot, next_obs, cfg):
    """One gradient step on the batch under RunConfig cfg; returns (new_params, stats).

    stats["loss_l1"] is the exact pre-step L1. Non-finite gradients abort the
    step: the input parameters come back unchanged with stats["aborted"] True.
    """
    loss, grad, l1 = dynamics_loss_and_grad(model, params.theta, obs, action_onehot, next_obs)
    stats = {"loss_l1": l1, "loss_surrogate": loss, "aborted": False}
    if not np.all(np.isfinite(grad)):
        return params, {**stats, "aborted": True}
    grad, norm = clip_grad_norm(grad, cfg.max_grad_norm)
    stats["grad_norm"] = norm
    return adam_step(params, grad, cfg.dynamics_learning_rate, cfg.adam_eps), stats


def trajectory_transitions(traj):
    """(obs, one-hot action, next_obs) arrays covering every step of the episode."""
    if traj.length == 0:
        raise ValueError("empty trajectory")
    actions = np.eye(NUM_ACTIONS)[traj.actions]
    return traj.observations[:-1], actions, traj.observations[1:]


def stack_transitions(trajs):
    parts = [trajectory_transitions(t) for t in trajs]
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
    )
