"""The allocation-free network path against a plain reference, bit for bit.

ChainSet caches its weight views per parameter array and writes hidden
activations into reused workspaces; DynamicsModel and PolicyNetwork build
their inputs in workspaces; train_dynamics runs one forward; ppo_update
gathers each epoch into reused buffers. None of that may move a bit. The
reference below is the straightforward version: fresh arrays everywhere,
`x @ w.T + b`, weights sliced on every call, one np.where per smooth-L1
term, and a separate prediction pass for the pre-step L1.
"""

import numpy as np
import pytest

from uedmaze import nn
from uedmaze.agent import (
    PolicyArch,
    PolicyNetwork,
    PpoBatch,
    Trajectory,
    build_batch,
    collect_rollout,
    compute_gae,
    ppo_loss_and_grad,
    ppo_update,
)
from uedmaze.config import RunConfig
from uedmaze.dynamics import SMOOTH_L1_WIDTH, DynamicsModel, train_dynamics
from uedmaze.env import NUM_ACTIONS, OBS_DIM, OBS_IMAGE_DIM
from uedmaze.levels import generate_random_level
from uedmaze.nn import FlatParams, adam_step, clip_grad_norm

SIZES = (1, 6, 300, 768, 4096)


# ---------------------------------------------------------------------------
# reference: fresh arrays, weights sliced per call


def ref_weights(net, theta, name, i):
    spec = net.chains[name][i]
    w_slice, b_slice = net._slices[(name, i)]
    return theta[w_slice].reshape(spec.out_dim, spec.in_dim), theta[b_slice]


def ref_chain_forward(net, theta, name, x):
    cache = []
    for i, spec in enumerate(net.chains[name]):
        w, b = ref_weights(net, theta, name, i)
        z = x @ w.T + b
        cache.append((x, z))
        x = np.maximum(z, 0.0) if spec.activation == "relu" else z
    return x, cache


def ref_chain_backward(net, theta, name, cache, dy, grad):
    for i in range(len(net.chains[name]) - 1, -1, -1):
        x, z = cache[i]
        dz = dy * (z > 0.0) if net.chains[name][i].activation == "relu" else dy
        w_slice, b_slice = net._slices[(name, i)]
        grad[w_slice] += (dz.T @ x).ravel()
        grad[b_slice] += dz.sum(axis=0)
        dy = dz @ ref_weights(net, theta, name, i)[0]
    return dy


class RefPolicy:
    """PolicyNetwork's forward and backward with np.concatenate and fresh arrays."""

    def __init__(self, policy):
        self.net = policy.net

    def forward(self, theta, obs):
        emb, cache_e = ref_chain_forward(self.net, theta, "embed", obs[:, OBS_IMAGE_DIM:])
        trunk_in = np.concatenate([obs[:, :OBS_IMAGE_DIM], emb], axis=1)
        hidden, cache_t = ref_chain_forward(self.net, theta, "trunk", trunk_in)
        logits, cache_a = ref_chain_forward(self.net, theta, "actor", hidden)
        values, cache_c = ref_chain_forward(self.net, theta, "critic", hidden)
        return logits, values[:, 0], (cache_e, cache_t, cache_a, cache_c)

    def backward(self, theta, cache, dlogits, dvalues):
        cache_e, cache_t, cache_a, cache_c = cache
        grad = np.zeros_like(theta)
        dh = ref_chain_backward(self.net, theta, "actor", cache_a, dlogits, grad)
        dh = dh + ref_chain_backward(self.net, theta, "critic", cache_c, dvalues[:, None], grad)
        dtrunk_in = ref_chain_backward(self.net, theta, "trunk", cache_t, dh, grad)
        ref_chain_backward(self.net, theta, "embed", cache_e, dtrunk_in[:, OBS_IMAGE_DIM:], grad)
        return grad


def ref_ppo_update(policy, params, trajs, cfg, rng):
    batch = build_batch(trajs)
    ref = RefPolicy(policy)
    new_params = params
    stats = {}
    for _ in range(cfg.ppo_epochs):
        order = rng.permutation(len(batch))
        part = PpoBatch(*(a[order] for a in batch.arrays()))
        loss, grad, step_stats = ppo_loss_and_grad(ref, new_params.theta, part, cfg)
        grad, norm = clip_grad_norm(grad, cfg.max_grad_norm)
        new_params = adam_step(new_params, grad, cfg.adam_learning_rate, cfg.adam_eps)
        stats.update(step_stats, loss=loss, grad_norm=norm)
    return new_params, stats


def ref_train_dynamics(model, params, obs, act, nxt, cfg):
    """A prediction pass for the exact L1, then a second forward for the surrogate and its gradient."""
    pred, _ = ref_chain_forward(model.net, params.theta, "net", np.concatenate([obs, act], axis=1))
    l1 = float(np.abs(pred - nxt).mean())
    pred, cache = ref_chain_forward(model.net, params.theta, "net", np.concatenate([obs, act], axis=1))
    diff = pred - nxt
    a = np.abs(diff)
    loss = float(np.where(a < SMOOTH_L1_WIDTH, 0.5 * diff * diff / SMOOTH_L1_WIDTH, a - 0.5 * SMOOTH_L1_WIDTH).mean())
    dy = np.where(np.abs(diff) < SMOOTH_L1_WIDTH, diff / SMOOTH_L1_WIDTH, np.sign(diff)) / diff.size
    grad = np.zeros_like(params.theta)
    ref_chain_backward(model.net, params.theta, "net", cache, dy, grad)
    stats = {"loss_l1": l1, "loss_surrogate": loss}
    grad, stats["grad_norm"] = clip_grad_norm(grad, cfg.max_grad_norm)
    return adam_step(params, grad, cfg.dynamics_learning_rate, cfg.adam_eps), stats


# ---------------------------------------------------------------------------
# fixtures


def noisy_params(net, seed, scale=0.1):
    """Initial weights plus noise, so the zero-initialised actor head is not trivially zero."""
    rng = np.random.default_rng(seed)
    return FlatParams(net.init_theta(rng) + scale * rng.standard_normal(net.size))


def random_obs(rng, n):
    obs = rng.random((n, OBS_DIM))
    obs[:, OBS_IMAGE_DIM:] = np.eye(OBS_DIM - OBS_IMAGE_DIM)[rng.integers(0, OBS_DIM - OBS_IMAGE_DIM, size=n)]
    return obs


def random_trajs(rng, total, pieces=3):
    cuts = np.sort(rng.choice(np.arange(1, total), size=min(pieces, total) - 1, replace=False)) if total > 1 else []
    trajs = []
    for n in np.diff(np.concatenate([[0], cuts, [total]])).astype(int):
        traj = Trajectory(
            observations=random_obs(rng, n + 1),
            actions=rng.integers(0, NUM_ACTIONS, size=n),
            log_probs=rng.uniform(-3.0, 0.0, size=n),
            rewards=rng.normal(size=n),
            values=rng.normal(size=n + 1),
            terminal=False,
        )
        trajs.append(compute_gae(traj, 0.995, 0.95))
    assert sum(t.length for t in trajs) == total
    return trajs


def transitions(rng, n):
    return random_obs(rng, n), np.eye(NUM_ACTIONS)[rng.integers(0, NUM_ACTIONS, size=n)], random_obs(rng, n)


def assert_params_equal(a, b):
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.adam_m, b.adam_m)
    assert np.array_equal(a.adam_v, b.adam_v)
    assert a.adam_step == b.adam_step


# ---------------------------------------------------------------------------
# exact bits


@pytest.mark.parametrize("n", SIZES)
def test_policy_forward_and_backward_match_reference_bits(n):
    policy = PolicyNetwork()
    theta = noisy_params(policy.net, n).theta
    rng = np.random.default_rng(100 + n)
    obs = random_obs(rng, n)
    ref_logits, ref_values, ref_cache = RefPolicy(policy).forward(theta, obs)
    logits, values, cache = policy.forward(theta, obs)
    assert np.array_equal(logits, ref_logits) and np.array_equal(values, ref_values)
    dlogits, dvalues = rng.normal(size=logits.shape), rng.normal(size=n)
    expected = RefPolicy(policy).backward(theta, ref_cache, dlogits, dvalues)
    assert np.array_equal(policy.backward(theta, cache, dlogits, dvalues), expected)


@pytest.mark.parametrize("n", SIZES)
def test_ppo_update_matches_reference_bits(n):
    policy = PolicyNetwork()
    params = noisy_params(policy.net, 200 + n)
    trajs = random_trajs(np.random.default_rng(300 + n), n)
    cfg = RunConfig(ppo_epochs=3, adam_learning_rate=1e-3, entropy_coef=0.01)
    expected, ref_stats = ref_ppo_update(policy, params, trajs, cfg, np.random.default_rng(7))
    got, stats = ppo_update(policy, params, trajs, cfg, np.random.default_rng(7))
    assert_params_equal(got, expected)
    assert {k: stats[k] for k in ref_stats} == ref_stats


@pytest.mark.parametrize("n", SIZES)
def test_train_dynamics_matches_predict_then_loss_and_grad_bits(n):
    model = DynamicsModel()
    params = noisy_params(model.net, 400 + n)
    obs, act, nxt = transitions(np.random.default_rng(500 + n), n)
    if n > 1:
        nxt[0] = model.predict(params.theta, obs[:1], act[:1])[0] + 1e-3  # one element inside the quadratic zone
    cfg = RunConfig()
    expected, ref_stats = ref_train_dynamics(model, params, obs, act, nxt, cfg)
    got, stats = train_dynamics(model, params, obs, act, nxt, cfg)
    assert_params_equal(got, expected)
    assert {k: stats[k] for k in ref_stats} == ref_stats
    assert stats["aborted"] is False


# ---------------------------------------------------------------------------
# workspace safety


def test_returned_outputs_survive_later_forwards_at_other_batch_sizes():
    policy, model = PolicyNetwork(), DynamicsModel()
    theta, dyn_theta = noisy_params(policy.net, 1).theta, noisy_params(model.net, 2).theta
    rng = np.random.default_rng(3)
    obs, act, _ = transitions(rng, 300)
    logits, values, _ = policy.forward(theta, obs)
    pred = model.predict(dyn_theta, obs, act)
    kept = logits.copy(), values.copy(), pred.copy()
    for n in (4096, 6):
        later_obs, later_act, _ = transitions(rng, n)
        policy.forward(theta, later_obs)
        model.predict(dyn_theta, later_obs, later_act)
    assert np.array_equal(logits, kept[0])
    assert np.array_equal(values, kept[1])
    assert np.array_equal(pred, kept[2])


def test_in_place_edit_of_theta_reaches_the_next_forward():
    policy = PolicyNetwork()
    theta = noisy_params(policy.net, 4).theta
    obs = random_obs(np.random.default_rng(5), 6)
    before, _, _ = policy.forward(theta, obs)
    w_slice, _ = policy.net._slices[("actor", 2)]
    theta[w_slice] += 0.5
    after, _, _ = policy.forward(theta, obs)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, RefPolicy(policy).forward(theta, obs)[0])


def test_gradients_after_forwards_at_shifting_sizes_match_a_fresh_network():
    used = PolicyNetwork()
    theta = noisy_params(used.net, 6).theta
    rng = np.random.default_rng(7)
    for n in (4096, 6, 768):
        obs = random_obs(rng, n)
        dlogits, dvalues = rng.normal(size=(n, NUM_ACTIONS)), rng.normal(size=n)
        _, _, cache = used.forward(theta, obs)
        grad = used.backward(theta, cache, dlogits, dvalues)
        fresh = PolicyNetwork()
        _, _, fresh_cache = fresh.forward(theta, obs)
        assert np.array_equal(grad, fresh.backward(theta, fresh_cache, dlogits, dvalues))


@pytest.mark.parametrize("last", ["relu", "linear"])
def test_backward_leaves_the_callers_dy_alone(last):
    net = nn.ChainSet({"c": [nn.DenseSpec(7, 9), nn.DenseSpec(9, 4, last)]})
    rng = np.random.default_rng(8)
    theta = net.init_theta(rng)
    _, cache = net.forward(theta, "c", rng.normal(size=(50, 7)))
    dy = rng.normal(size=(50, 4))
    kept = dy.copy()
    net.backward(theta, "c", cache, dy, np.zeros(net.size))
    assert np.array_equal(dy, kept)


# ---------------------------------------------------------------------------
# view reuse


@pytest.fixture
def weights_calls(monkeypatch):
    """(chain, layer) of every ChainSet.weights call made during the test."""
    calls = []
    original = nn.ChainSet.weights

    def counted(self, theta, name, i):
        calls.append((name, i))
        return original(self, theta, name, i)

    monkeypatch.setattr(nn.ChainSet, "weights", counted)
    return calls


def test_one_rollout_builds_each_layer_view_once(weights_calls):
    policy = PolicyNetwork(PolicyArch())
    params = policy.init_params(np.random.default_rng(0))
    level = generate_random_level(7, 7, 4, np.random.default_rng(1))
    collect_rollout(policy, params, [level] * 3, 40, 20, np.random.default_rng(2))  # 10 forwards, not 41
    layers = [(name, i) for name, specs in policy.net.chains.items() for i in range(len(specs))]
    assert sorted(weights_calls) == sorted(layers)


def test_ppo_update_builds_views_once_per_parameter_vector(weights_calls):
    policy = PolicyNetwork()
    params = noisy_params(policy.net, 12)
    cfg = RunConfig(ppo_epochs=3)
    ppo_update(policy, params, random_trajs(np.random.default_rng(13), 64), cfg, np.random.default_rng(14))
    layers = sum(len(specs) for specs in policy.net.chains.values())
    assert len(weights_calls) == cfg.ppo_epochs * layers  # each epoch's step forwards one new theta
