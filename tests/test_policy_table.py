"""run_episodes against the per-step loop it replaced.

run_episodes reads a PolicyTable: one policy forward over every state of a
level. The reference below is the earlier loop, which runs one forward per
step on the batch of live episodes' observations. Solved flags, returns and
the number of uniforms drawn must match exactly. The table's logits may
differ from the per-step ones in the last bits, because BLAS picks its kernel
(and so its rounding) by row count, so an action could only differ for a
uniform within about 1e-16 of a cumulative probability.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uedmaze.agent import PolicyNetwork, log_softmax, sample_categorical
from uedmaze.env import MazeEnv
from uedmaze.harness import run_episodes
from uedmaze.levels import generate_random_level
from uedmaze.nn import FlatParams

POLICY = PolicyNetwork()


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
