"""run_episodes and collect_rollout against the per-step loops they replaced.

run_episodes reads a PolicyTable: one policy forward over every state of a
level. Its reference below is the earlier loop, which runs one forward per
step on the batch of live episodes' observations. Solved flags, returns and
the number of uniforms drawn must match exactly. The table's logits may
differ from the per-step ones in the last bits, because BLAS picks its kernel
(and so its rounding) by row count, and a row's bits can depend on its
position in the batch too: on one machine (numpy 2.4, OpenBLAS) position
mattered at 3, 5, 6 and 7 rows and not at 1, 2, 4, 8 or 16. So an action
could only differ for a uniform within about 1e-16 of a cumulative
probability.

collect_rollout keeps each env's outputs per state and runs an n-row forward
only when some env reaches a state new to it. A row's bits depend on nothing
but the row count, its position (the env index) and its contents (the
state), so its reference, the earlier loop with one forward per step, must
match it exactly: every field of every trajectory, their order, and the
generator's state afterwards.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uedmaze.agent import PolicyNetwork, Trajectory, collect_rollout, log_softmax
from uedmaze.env import MazeEnv
from uedmaze.harness import run_episodes
from uedmaze.levels import generate_random_level
from uedmaze.nn import FlatParams

POLICY = PolicyNetwork()


def sample_categorical(probs, uniforms):
    """Inverse-CDF sampling, one uniform per row."""
    cum = np.cumsum(probs, axis=1)
    idx = (cum < uniforms[:, None]).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1)


def ref_run_episodes(policy, params, level, episodes, max_episode_steps, rng, greedy=False):
    envs = [MazeEnv(level, max_episode_steps) for _ in range(episodes)]
    obs = np.stack([e.reset().vector() for e in envs])
    live = list(range(episodes))
    returns = [0.0] * episodes
    solved = [False] * episodes
    while live:
        logits, _, _ = policy.forward(params.theta, obs[live])
        if greedy:
            actions = logits.argmax(axis=1).tolist()
        else:
            actions = sample_categorical(np.exp(log_softmax(logits)), rng.random(len(live))).tolist()
        still_live = []
        for i, a in zip(live, actions):
            o, r, done = envs[i].step(a)
            returns[i] += r
            if done:
                solved[i] = envs[i].agent_pos == level.goal_pos
            else:
                obs[i] = o.vector()
                still_live.append(i)
        live = still_live
    return np.array(solved), np.array(returns)


def noisy_params(seed, scale):
    """Initial weights plus noise, so the zero-initialised actor head gives a non-uniform policy."""
    rng = np.random.default_rng([seed, 1])
    return FlatParams(POLICY.net.init_theta(rng) + scale * rng.standard_normal(POLICY.net.size))


def make_level(size, blocks, seed):
    return generate_random_level(size, size, blocks, np.random.default_rng([seed, 2]))


@settings(max_examples=30, deadline=None, database=None)
@given(
    size=st.sampled_from([5, 7, 11]),
    blocks=st.integers(0, 12),
    episodes=st.integers(1, 40),
    max_episode_steps=st.integers(1, 60),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([0.0, 0.1, 0.5, 1.5]),
    greedy=st.booleans(),
)
def test_run_episodes_matches_the_per_step_reference(size, blocks, episodes, max_episode_steps, seed, scale, greedy):
    level = make_level(size, blocks, seed)
    params = noisy_params(seed, scale)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    solved, returns = run_episodes(POLICY, params, level, episodes, max_episode_steps, rng, greedy)
    ref_solved, ref_returns = ref_run_episodes(POLICY, params, level, episodes, max_episode_steps, ref_rng, greedy)
    assert np.array_equal(solved, ref_solved)
    assert np.array_equal(returns, ref_returns)
    assert rng.random() == ref_rng.random()  # both drew the same number of uniforms


def test_run_episodes_runs_one_forward_per_call(monkeypatch):
    calls = []
    original = PolicyNetwork.forward

    def counted(self, theta, obs):
        calls.append(len(obs))
        return original(self, theta, obs)

    monkeypatch.setattr(PolicyNetwork, "forward", counted)
    level = make_level(7, 6, 2)
    for greedy in (False, True):
        run_episodes(POLICY, noisy_params(7, 0.1), level, 20, 30, np.random.default_rng(8), greedy)
    assert calls == [7 * 7 * 4] * 2


def ref_collect_rollout(policy, params, levels, horizon, max_episode_steps, rng):
    """The rollout loop with one forward per step on every env's observation, and a forward for the bootstrap."""
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
        logits, values, _ = policy.forward(params.theta, obs)
        logp = log_softmax(logits)
        actions = sample_categorical(np.exp(logp), rng.random(n))
        log_probs = logp[np.arange(n), actions].tolist()
        actions, values = actions.tolist(), values.tolist()
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
    _, tail_values, _ = policy.forward(params.theta, obs)
    for i in range(n):
        finalize(i, terminal=False, bootstrap=float(tail_values[i]))
    return [traj for per_env in done_trajs for traj in per_env]


def assert_same_trajectory(traj, ref, k):
    for f in fields(Trajectory):
        got, want = getattr(traj, f.name), getattr(ref, f.name)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), (k, f.name)
            assert got.tobytes() == want.tobytes(), (k, f.name)
        else:
            assert got == want, (k, f.name)


@settings(max_examples=40, deadline=None, database=None)
@given(
    size=st.sampled_from([5, 7, 11]),
    blocks=st.integers(0, 12),
    num_workers=st.one_of(st.sampled_from([6, 16]), st.integers(1, 17)),
    horizon=st.integers(1, 60),
    max_episode_steps=st.integers(1, 20),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([0.0, 0.1, 0.5, 1.5]),
)
def test_collect_rollout_matches_the_per_step_reference(size, blocks, num_workers, horizon, max_episode_steps, seed,
                                                       scale):
    levels = [make_level(size, blocks, seed + i) for i in range(num_workers)]  # one level per env
    params = noisy_params(seed, scale)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    trajs = collect_rollout(POLICY, params, levels, horizon, max_episode_steps, rng)
    ref = ref_collect_rollout(POLICY, params, levels, horizon, max_episode_steps, ref_rng)
    assert len(trajs) == len(ref)
    for k, (traj, want) in enumerate(zip(trajs, ref)):
        assert_same_trajectory(traj, want, k)
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # one uniform per env per step


def test_collect_rollout_forwards_only_on_steps_that_reach_a_new_state(monkeypatch):
    calls = []
    original = PolicyNetwork.forward

    def counted(self, theta, obs):
        calls.append(len(obs))
        return original(self, theta, obs)

    monkeypatch.setattr(PolicyNetwork, "forward", counted)
    level = make_level(5, 0, 3)  # a walled-in 3x3 floor: at most 36 (cell, facing) states per env
    n, horizon = 3, 128
    collect_rollout(POLICY, noisy_params(3, 0.5), [level] * n, horizon, 30, np.random.default_rng(4))
    assert 0 < len(calls) <= n * 36 < horizon + 1
    assert calls == [n] * len(calls)


def test_collect_rollout_needs_a_level():
    with pytest.raises(ValueError):
        collect_rollout(POLICY, noisy_params(0, 0.0), [], 8, 10, np.random.default_rng(0))
