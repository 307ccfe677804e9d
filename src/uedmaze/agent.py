"""Actor-critic student: policy network, rollout collection, GAE, and PPO.

The network consumes the flat observation vector: the 5x5x4 local view plus
the one-hot facing direction. The direction block passes through a small
linear embedding, is concatenated with the flattened view, and feeds a shared
relu trunk; separate actor and critic heads produce action logits and the
scalar value. The final actor layer starts at zero so the initial policy is
exactly uniform.

Rollouts run one forward per step; evaluation (harness.run_episodes) runs
one per level and steps by PolicyTable lookups.

All updates are functional: ppo_update returns a fresh parameter object and
never touches its input, which keeps no-gradient scoring rollouts trivially
safe to interleave with training. PPO reads its settings off the RunConfig.

Workspace contract (see uedmaze.nn): a PolicyNetwork reuses its hidden
activations and trunk input across forwards. Logits and values are fresh
arrays the caller may keep; the cache is valid until the next forward on the
same PolicyNetwork and is consumed by backward. ppo_update gathers each
epoch's shuffled batch into buffers it allocates once per call.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, fields

import numpy as np

from .env import NUM_ACTIONS, OBS_DIM, OBS_IMAGE_DIM, MazeEnv, observation_table
from .levels import NUM_DIRECTIONS
from .nn import ChainSet, DenseSpec, FlatParams, adam_step, clip_grad_norm


@dataclass(frozen=True)
class PolicyArch:
    """Layer sizes; the defaults match the reference configuration."""

    dir_embed_dim: int = 5
    trunk_hidden: tuple = (64, 64)
    head_hidden: tuple = (32, 32)

    def chains(self):
        embed = [DenseSpec(NUM_DIRECTIONS, self.dir_embed_dim, "linear")]
        trunk = []
        width = OBS_IMAGE_DIM + self.dir_embed_dim
        for h in self.trunk_hidden:
            trunk.append(DenseSpec(width, h, "relu"))
            width = h
        actor, critic = [], []
        for chain, out_dim, zero in ((actor, NUM_ACTIONS, True), (critic, 1, False)):
            d = width
            for h in self.head_hidden:
                chain.append(DenseSpec(d, h, "relu"))
                d = h
            chain.append(DenseSpec(d, out_dim, "linear", zero_init=zero))
        return {"embed": embed, "trunk": trunk, "actor": actor, "critic": critic}


class PolicyNetwork:
    """Structure object: owns the layout, not the parameters."""

    def __init__(self, arch: PolicyArch = PolicyArch()):
        self.arch = arch
        self.net = ChainSet(arch.chains())

    def init_params(self, rng) -> FlatParams:
        return FlatParams(self.net.init_theta(rng))

    def forward(self, theta, obs_batch):
        """(logits (N, A), values (N,), cache). Raises FloatingPointError on non-finite output."""
        obs_batch = np.asarray(obs_batch, dtype=np.float64)
        if obs_batch.ndim != 2 or obs_batch.shape[1] != OBS_DIM:
            raise ValueError(f"expected obs batch of shape (N, {OBS_DIM}), got {obs_batch.shape}")
        emb, cache_e = self.net.forward(theta, "embed", obs_batch[:, OBS_IMAGE_DIM:])
        trunk_in = self.net.workspace("trunk_in", len(obs_batch), OBS_IMAGE_DIM + emb.shape[1])
        trunk_in[:, :OBS_IMAGE_DIM] = obs_batch[:, :OBS_IMAGE_DIM]
        trunk_in[:, OBS_IMAGE_DIM:] = emb
        hidden, cache_t = self.net.forward(theta, "trunk", trunk_in)
        logits, cache_a = self.net.forward(theta, "actor", hidden)
        values, cache_c = self.net.forward(theta, "critic", hidden)
        values = values[:, 0]
        if not (np.all(np.isfinite(logits)) and np.all(np.isfinite(values))):
            raise FloatingPointError("non-finite policy output")
        return logits, values, (cache_e, cache_t, cache_a, cache_c)

    def backward(self, theta, cache, dlogits, dvalues):
        """Gradient of sum(dlogits * logits) + sum(dvalues * values) w.r.t. theta."""
        cache_e, cache_t, cache_a, cache_c = cache
        grad = np.zeros_like(theta)
        dh = self.net.backward(theta, "actor", cache_a, dlogits, grad)
        dh += self.net.backward(theta, "critic", cache_c, dvalues[:, None], grad)
        dtrunk_in = self.net.backward(theta, "trunk", cache_t, dh, grad)
        self.net.backward(theta, "embed", cache_e, dtrunk_in[:, OBS_IMAGE_DIM:], grad, input_grad=False)
        return grad


def log_softmax(logits):
    m = logits.max(axis=1, keepdims=True)
    return logits - m - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))


def sample_categorical(probs, uniforms):
    """Inverse-CDF sampling, one uniform per row."""
    cum = np.cumsum(probs, axis=1)
    idx = (cum < uniforms[:, None]).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1)


class PolicyTable:
    """The policy on every state of one level (row s: MazeEnv.state_index s), from one forward.

    The network has no memory and sees only (cell, facing): this is all of it.
    cdf[s] omits the last action, which takes the probability the others leave.
    """

    def __init__(self, policy, params, level):
        logits, _, _ = policy.forward(params.theta, observation_table(level).reshape(-1, OBS_DIM))
        self.cdf = np.cumsum(np.exp(log_softmax(logits)), axis=1)[:, :-1].tolist()
        self.greedy = logits.argmax(axis=1).tolist()

    def act(self, state, u=None):
        """Greedy when u is None, else the first action whose cumulative probability reaches u."""
        return self.greedy[state] if u is None else bisect_left(self.cdf[state], u)


@dataclass
class Trajectory:
    """One episode (possibly cut off by the rollout horizon).

    observations holds T+1 rows (the state after the last step included);
    values holds T+1 entries recorded at visit time, the last being the
    bootstrap value, forced to 0 when the episode actually terminated.
    td_errors/advantages/returns are filled in by compute_gae.
    """

    observations: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    terminal: bool
    td_errors: np.ndarray = field(default=None)
    advantages: np.ndarray = field(default=None)
    returns: np.ndarray = field(default=None)

    @property
    def length(self):
        return len(self.actions)


def compute_gae(traj: Trajectory, gamma, lam):
    """Fill td_errors, advantages (reverse recursion), and returns; returns traj."""
    values = traj.values
    deltas = traj.rewards + gamma * values[1:] - values[:-1]
    adv = np.empty_like(deltas)
    acc = 0.0
    for t in range(len(deltas) - 1, -1, -1):
        acc = deltas[t] + gamma * lam * acc
        adv[t] = acc
    traj.td_errors = deltas
    traj.advantages = adv
    traj.returns = adv + values[:-1]
    return traj


def sample_actions(policy, params, obs, rng):
    """(actions, chosen log-probs, values) as lists from one forward pass."""
    logits, values, _ = policy.forward(params.theta, obs)
    logp = log_softmax(logits)
    actions = sample_categorical(np.exp(logp), rng.random(len(logits)))
    return actions.tolist(), logp[np.arange(len(actions)), actions].tolist(), values.tolist()


def collect_rollout(policy: PolicyNetwork, params: FlatParams, levels, horizon, max_episode_steps, rng):
    """Run the softmax policy for `horizon` steps on each level (one env per entry).

    Episodes auto-reset; each completed or horizon-cut episode becomes one
    Trajectory. observations[0] is the observation the first action was
    chosen from (the reset observation), and each trajectory's observations
    are a fresh array, aliasing neither the working observation batch (written
    in place each step) nor the envs' read-only observation tables. Parameters
    are read-only. Returns the trajectories in (env index, episode start) order.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    envs = [MazeEnv(level, max_episode_steps) for level in levels]
    n = len(envs)
    obs = np.stack([e.reset().vector() for e in envs])
    buffers = [dict(obs=[obs[i].copy()], actions=[], log_probs=[], rewards=[], values=[]) for i in range(n)]
    done_trajs = [[] for _ in range(n)]

    def finalize(i, terminal, bootstrap):
        b = buffers[i]
        if not b["actions"]:
            return
        done_trajs[i].append(
            Trajectory(
                observations=np.stack(b["obs"]),
                actions=np.array(b["actions"], dtype=np.int64),
                log_probs=np.array(b["log_probs"]),
                rewards=np.array(b["rewards"]),
                values=np.array(b["values"] + [0.0 if terminal else bootstrap]),
                terminal=terminal,
            )
        )

    for _ in range(horizon):
        actions, log_probs, values = sample_actions(policy, params, obs, rng)
        for i, env in enumerate(envs):
            a = actions[i]
            o, r, done = env.step(a)
            b = buffers[i]
            b["actions"].append(a)
            b["log_probs"].append(log_probs[i])
            b["rewards"].append(r)
            b["values"].append(values[i])
            b["obs"].append(o.vector())
            if done:
                finalize(i, terminal=True, bootstrap=0.0)
                o = env.reset()
                buffers[i] = dict(obs=[o.vector()], actions=[], log_probs=[], rewards=[], values=[])
            obs[i] = o.vector()
    # bootstrap whatever is still running
    _, tail_values, _ = policy.forward(params.theta, obs)
    for i in range(n):
        finalize(i, terminal=False, bootstrap=float(tail_values[i]))
    return [traj for per_env in done_trajs for traj in per_env]


@dataclass
class PpoBatch:
    """Flattened step data; advantages are already normalized."""

    obs: np.ndarray
    actions: np.ndarray
    old_log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray
    old_values: np.ndarray

    def arrays(self):
        return tuple(getattr(self, f.name) for f in fields(self))

    def take(self, idx, out):
        """Rows idx (all in range), in that order, gathered into the leading rows of `out`'s arrays."""
        pairs = zip(self.arrays(), out.arrays())
        # mode="clip" writes straight into dst; the default mode gathers into a temporary first
        return PpoBatch(*(np.take(src, idx, axis=0, out=dst[: len(idx)], mode="clip") for src, dst in pairs))

    def __len__(self):
        return len(self.actions)


def build_batch(trajs):
    """Concatenate trajectories into one PpoBatch (advantages normalized per batch)."""
    if not trajs:
        raise ValueError("no trajectories to build a batch from")
    for traj in trajs:
        if traj.advantages is None:
            raise ValueError("run compute_gae on every trajectory first")
    adv = np.concatenate([t.advantages for t in trajs])
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    return PpoBatch(
        obs=np.concatenate([t.observations[:-1] for t in trajs]),
        actions=np.concatenate([t.actions for t in trajs]),
        old_log_probs=np.concatenate([t.log_probs for t in trajs]),
        advantages=adv,
        returns=np.concatenate([t.returns for t in trajs]),
        old_values=np.concatenate([t.values[:-1] for t in trajs]),
    )


def ppo_loss_and_grad(policy, theta, batch: PpoBatch, cfg):
    """Clipped-surrogate loss with clipped value term under RunConfig cfg; returns (loss, grad, stats).

    loss = -mean(min(ratio A, clip(ratio) A))
           + value_coef * 0.5 * mean(max((v - R)^2, (v_clip - R)^2))
           - entropy_coef * mean(H)
    """
    n = len(batch)
    logits, values, cache = policy.forward(theta, batch.obs)
    logp_all = log_softmax(logits)
    probs = np.exp(logp_all)
    rows = np.arange(n)
    logp = logp_all[rows, batch.actions]
    ratio = np.exp(logp - batch.old_log_probs)

    unclipped = ratio * batch.advantages
    clipped = np.clip(ratio, 1.0 - cfg.clip_range, 1.0 + cfg.clip_range) * batch.advantages
    pg_loss = -np.minimum(unclipped, clipped).mean()
    # gradient flows only where the unclipped branch is the active minimum
    dlogp = np.where(unclipped <= clipped, -ratio * batch.advantages, 0.0) / n

    v_err = values - batch.returns
    if cfg.value_clipping:
        v_clip = batch.old_values + np.clip(values - batch.old_values, -cfg.clip_range, cfg.clip_range)
        vc_err = v_clip - batch.returns
        use_raw = v_err**2 >= vc_err**2
        value_loss = 0.5 * np.maximum(v_err**2, vc_err**2).mean()
        clip_active = np.abs(values - batch.old_values) <= cfg.clip_range
        dvalues = np.where(use_raw, v_err, vc_err * clip_active) * (cfg.value_loss_coef / n)
    else:
        value_loss = 0.5 * (v_err**2).mean()
        dvalues = v_err * (cfg.value_loss_coef / n)

    entropy = -(probs * logp_all).sum(axis=1)
    loss = pg_loss + cfg.value_loss_coef * value_loss - cfg.entropy_coef * entropy.mean()

    dlogits = dlogp[:, None] * (np.eye(logits.shape[1])[batch.actions] - probs)
    if cfg.entropy_coef != 0.0:
        dlogits += cfg.entropy_coef / n * probs * (logp_all + entropy[:, None])
    grad = policy.backward(theta, cache, dlogits, dvalues)
    stats = {
        "policy_loss": float(pg_loss),
        "value_loss": float(value_loss),
        "entropy": float(entropy.mean()),
        "approx_kl": float((batch.old_log_probs - logp).mean()),
    }
    return float(loss), grad, stats


def ppo_update(policy, params: FlatParams, trajs, cfg, rng):
    """Run cfg's PPO epoch schedule (a RunConfig) on the given trajectories.

    Returns (new_params, stats). A non-finite loss or gradient aborts the
    update: the returned parameters are the unmodified input and
    stats["aborted"] is True.
    """
    batch = build_batch(trajs)
    shuffled = PpoBatch(*(np.empty_like(a) for a in batch.arrays()))
    new_params = params
    stats = {"aborted": False, "num_steps": len(batch), "grad_norm": 0.0}
    for _ in range(cfg.ppo_epochs):
        order = rng.permutation(len(batch))
        for idx in np.array_split(order, cfg.ppo_minibatches):
            if len(idx) == 0:
                continue
            loss, grad, step_stats = ppo_loss_and_grad(policy, new_params.theta, batch.take(idx, shuffled), cfg)
            if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
                return params, {**stats, **step_stats, "aborted": True, "loss": float(loss)}
            grad, norm = clip_grad_norm(grad, cfg.max_grad_norm)
            new_params = adam_step(new_params, grad, cfg.adam_learning_rate, cfg.adam_eps)
            stats.update(step_stats, loss=loss, grad_norm=norm)
    return new_params, stats
