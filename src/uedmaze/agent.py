"""Actor-critic student: policy network, rollout collection, GAE, and PPO.

The network consumes the flat observation vector: the 5x5x4 local view plus
the one-hot facing direction. The direction block passes through a small
linear embedding, is concatenated with the flattened view, and feeds a shared
relu trunk; separate actor and critic heads produce action logits and the
scalar value. The final actor layer starts at zero so the initial policy is
exactly uniform.

Rollouts draw their uniforms up front and let each env run ahead on the
outputs it kept per state until it reaches a state new to it; one forward
then serves every stalled env at once, bit for bit as a forward per step
would. A rollout runs as many forwards as the most distinct states any one
env needs outputs for. Evaluation (harness.run_episodes) runs one forward per
level and steps by PolicyTable lookups.

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


def action_cdf(logp):
    """Cumulative action probabilities per row, omitting the last action, which takes what the others leave.

    bisect_left(row, u) is the first action whose cumulative probability reaches u.
    """
    return np.cumsum(np.exp(logp), axis=1)[:, :-1]


class PolicyTable:
    """The policy on every state of one level (row s: MazeEnv.state_index s), from one forward.

    The network has no memory and sees only (cell, facing): this is all of it.
    cdf[s] is action_cdf's row for state s.
    """

    def __init__(self, policy, params, level):
        logits, _, _ = policy.forward(params.theta, observation_table(level).reshape(-1, OBS_DIM))
        self.cdf = action_cdf(log_softmax(logits)).tolist()
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
    g = gamma * lam
    acc = 0.0
    adv = []
    for delta in reversed(deltas.tolist()):
        acc = delta + g * acc
        adv.append(acc)
    adv = np.array(adv[::-1])
    traj.td_errors = deltas
    traj.advantages = adv
    traj.returns = adv + values[:-1]
    return traj


class _Episode:
    """One env's running episode: the observation rows it visited and what each step recorded."""

    __slots__ = ("states", "actions", "log_probs", "rewards", "values")

    def __init__(self, state):
        self.states = [state]
        self.actions, self.log_probs, self.rewards, self.values = [], [], [], []

    def trajectory(self, rows, terminal, bootstrap):
        """The episode as a Trajectory, its observations gathered fresh from rows."""
        return Trajectory(
            observations=rows[self.states],
            actions=np.array(self.actions, dtype=np.int64),
            log_probs=np.array(self.log_probs),
            rewards=np.array(self.rewards),
            values=np.array(self.values + [0.0 if terminal else bootstrap]),
            terminal=terminal,
        )


def collect_rollout(policy: PolicyNetwork, params: FlatParams, levels, horizon, max_episode_steps, rng):
    """Run the softmax policy for `horizon` steps on each level (one env per entry).

    Episodes auto-reset; each completed or horizon-cut episode becomes one
    Trajectory. observations[0] is the observation the first action was
    chosen from (the reset observation), and each trajectory's observations
    are one fresh gather from its level's observation table. Parameters are
    read-only. Returns the trajectories in (env index, episode start) order.

    All uniforms are drawn up front as rng.random((horizon, n)), the same
    stream as one rng.random(n) per step; env i's step t takes entry [t, i].
    Each env keeps the policy's outputs (cumulative probabilities, log-probs,
    value) per state, and runs ahead on its own: it samples from its kept
    outputs, by the same inverse CDF as PolicyTable.act, until it stands on a
    state it has not kept. When every env is stalled there or done, one
    forward on all n envs' current observations clears every stall, and
    each env keeps its row. A forward row's bits depend only on the row
    count, the row's position and its contents, so env i's kept row for
    state s is what any n-row forward would give there: the result is bit
    for bit that of a forward on every step. Only a state an env acts from,
    and a horizon-cut episode's final state (its bootstrap), need outputs, so
    the rollout runs as many forwards as the most such distinct states any
    one env reaches. Every env step goes through MazeEnv.step. If a forward
    raises FloatingPointError, rng has already drawn every uniform, unlike
    the per-step loop.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not levels:
        raise ValueError("collect_rollout needs at least one level")
    envs = [MazeEnv(level, max_episode_steps) for level in levels]
    n = len(envs)
    # the observation rows of each distinct level, one after another: env i's state s is row base[i] + s
    offsets, tables = {}, []
    for env in envs:
        if env.level not in offsets:
            offsets[env.level] = sum(map(len, tables))
            tables.append(env.table.reshape(-1, OBS_DIM))
    rows = tables[0] if len(tables) == 1 else np.concatenate(tables)
    base = [offsets[env.level] for env in envs]
    uniforms = rng.random((horizon, n)).T.tolist()  # env i's uniform for its step t is uniforms[i][t]
    kept = [{} for _ in envs]  # per env: row -> (cdf, log-probs, value)
    for env in envs:
        env.reset()
    episodes = [_Episode(b + env.state_index) for b, env in zip(base, envs)]
    done_trajs = [[] for _ in envs]
    steps = [0] * n

    def run_ahead(i):
        """Step env i on its kept outputs until it stands on a row it has not kept or reaches the horizon; its row."""
        env, k, us, b, ep, t = envs[i], kept[i], uniforms[i], base[i], episodes[i], steps[i]
        s = ep.states[-1]
        while t < horizon and s in k:
            cdf, logp, value = k[s]
            a = bisect_left(cdf, us[t])
            _, r, done = env.step(a)
            t += 1
            ep.actions.append(a)
            ep.log_probs.append(logp[a])
            ep.rewards.append(r)
            ep.values.append(value)
            s = b + env.state_index
            ep.states.append(s)
            if done:
                done_trajs[i].append(ep.trajectory(rows, terminal=True, bootstrap=0.0))
                env.reset()
                s = b + env.state_index
                episodes[i] = ep = _Episode(s)
        steps[i] = t
        return s

    while True:
        # an env at the horizon needs outputs only for a cut episode's final state, its bootstrap: a reset
        # state is always kept, since each env acts from it on its first step
        states = [run_ahead(i) for i in range(n)]
        if all(s in k for k, s in zip(kept, states)):
            break
        logits, values, _ = policy.forward(params.theta, rows[states])
        logp = log_softmax(logits)
        for k, s, out in zip(kept, states, zip(action_cdf(logp).tolist(), logp.tolist(), values.tolist())):
            k[s] = out
    # bootstrap whatever the horizon cut
    for i, (ep, k) in enumerate(zip(episodes, kept)):
        if ep.actions:
            done_trajs[i].append(ep.trajectory(rows, terminal=False, bootstrap=k[ep.states[-1]][2]))
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
        """The rows in the order of idx, a permutation of all rows, gathered into `out`'s arrays."""
        pairs = zip(self.arrays(), out.arrays())
        # mode="clip" writes straight into dst; the default mode gathers into a temporary first
        return PpoBatch(*(np.take(src, idx, axis=0, out=dst, mode="clip") for src, dst in pairs))

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
    v_clip = batch.old_values + np.clip(values - batch.old_values, -cfg.clip_range, cfg.clip_range)
    vc_err = v_clip - batch.returns
    use_raw = v_err**2 >= vc_err**2
    value_loss = 0.5 * np.maximum(v_err**2, vc_err**2).mean()
    clip_active = np.abs(values - batch.old_values) <= cfg.clip_range
    dvalues = np.where(use_raw, v_err, vc_err * clip_active) * (cfg.value_loss_coef / n)

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
    """Run cfg.ppo_epochs PPO steps (cfg a RunConfig), each on the whole batch in a fresh shuffle.

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
        loss, grad, step_stats = ppo_loss_and_grad(policy, new_params.theta, batch.take(order, shuffled), cfg)
        if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
            return params, {**stats, **step_stats, "aborted": True, "loss": float(loss)}
        grad, norm = clip_grad_norm(grad, cfg.max_grad_norm)
        new_params = adam_step(new_params, grad, cfg.adam_learning_rate, cfg.adam_eps)
        stats.update(step_stats, loss=loss, grad_norm=norm)
    return new_params, stats
