"""Brute-force oracles for the quantities the design loop computes.

Each oracle recomputes a quantity by the most literal method available
(double loops, rules restated from their docstrings, central finite
differences) and is checked against the function the loop itself calls:
compute_gae and the wave scorers, the co-learnability write-back, the replay
sampler and both backward passes. verification_report() bundles them into the
suite behind the CLI's verify command.

No oracle checks the regret decomposition on random tabular MDPs (acceptance
check 2 is retired for the same reason): there the identity holds by algebra,
both sides being gamma * (P v* - P_hat v_hat), so such a check tests only its
own value iteration and no code the loop ships. A decomposition check belongs
on exact regret over the maze's own (cell, facing) MDP.
"""

from __future__ import annotations

import numpy as np

from .agent import (
    PolicyArch,
    PolicyNetwork,
    PpoBatch,
    Trajectory,
    compute_gae,
    log_softmax,
    ppo_loss_and_grad,
)
from .config import RunConfig
from .curriculum import CurriculumState, TaskRecord, task_priority_distribution, update_colearnability
from .dynamics import DynamicsArch, DynamicsModel, dynamics_loss_and_grad
from .env import NUM_ACTIONS, OBS_DIM
from .scoring import average_transition_prediction_loss_many, positive_value_loss_many


# ---------------------------------------------------------------------------
# naive GAE / positive value loss


def naive_gae(td_errors, gamma, lam):
    """O(T^2) advantage recomputation: A_t = sum_k (gamma lam)^(k-t) delta_k."""
    n = len(td_errors)
    adv = np.zeros(n)
    for t in range(n):
        for k in range(t, n):
            adv[t] += (gamma * lam) ** (k - t) * td_errors[k]
    return adv


def naive_pvl(td_errors, gamma, lam):
    """Mean positive part of the naive advantages."""
    adv = naive_gae(td_errors, gamma, lam)
    total = 0.0
    for a in adv:
        if a > 0:
            total += a
    return total / len(adv)


def naive_transition_loss(predicted, actual):
    """Element-by-element L1 with plain Python loops."""
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError("shape mismatch")
    total = 0.0
    count = 0
    for p, a in zip(predicted.ravel().tolist(), actual.ravel().tolist()):
        total += abs(p - a)
        count += 1
    return total / count


# ---------------------------------------------------------------------------
# the replay sampler's bookkeeping, on random buffers


def _random_state(t, n, **cfg_fields):
    """A traced-mode state at update t holding n tasks with unused levels."""
    records = [TaskRecord(task_id=i, level=None, metrics=None, score=0.0) for i in range(n)]
    return CurriculumState(cfg=RunConfig(**cfg_fields), buffer=records, t=t, next_task_id=n)


def staleness_floor(state):
    """rho * s_i / sum(s): the least probability the replay sampler may give each task.

    Staleness by the documented rule: s_i = t - last_sampled, a never-sampled
    task counts as the stalest sampled one (1 when none has been sampled),
    and the floor is rho / n when every staleness is 0.
    """
    rho = state.cfg.staleness_coef
    sampled = [state.t - r.last_sampled for r in state.buffer if r.last_sampled is not None]
    fill = max(sampled) if sampled else 1
    stale = np.array(
        [fill if r.last_sampled is None else state.t - r.last_sampled for r in state.buffer], dtype=np.float64
    )
    if stale.sum() <= 0:
        return np.full(len(stale), rho / len(stale))
    return rho * stale / stale.sum()


# ---------------------------------------------------------------------------
# finite differences


def finite_difference_gradient(f, theta, h=1e-6):
    """Central differences, one coordinate at a time."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        bumped = theta.copy()
        bumped[i] = theta[i] + h
        hi = f(bumped)
        bumped[i] = theta[i] - h
        lo = f(bumped)
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def relative_error(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


# ---------------------------------------------------------------------------
# assembled verification suite


def _random_trajectory(rng, min_len=1, max_len=60):
    n = int(rng.integers(min_len, max_len + 1))
    traj = Trajectory(
        observations=rng.random((n + 1, OBS_DIM)),
        actions=rng.integers(0, NUM_ACTIONS, size=n),
        log_probs=rng.uniform(-3.0, 0.0, size=n),
        rewards=rng.normal(size=n),
        values=rng.normal(size=n + 1),
        terminal=bool(rng.random() < 0.5),
    )
    if traj.terminal:
        traj.values[-1] = 0.0
    return traj


def _random_wave(rng, max_len):
    """1-6 random trajectories of differing lengths, as one scoring rollout returns them."""
    return [_random_trajectory(rng, max_len=max_len) for _ in range(int(rng.integers(1, 7)))]


def _check_gae_pvl(rng):
    """compute_gae against the quadratic loop, and positive_value_loss_many against step-weighted naive PVLs."""
    worst = 0.0
    for _ in range(100):
        gamma = float(rng.uniform(0.9, 1.0))
        lam = float(rng.uniform(0.8, 1.0))
        wave = _random_wave(rng, max_len=60)
        positive_mass = 0.0
        for traj in wave:
            compute_gae(traj, gamma, lam)
            adv_oracle = naive_gae(traj.td_errors, gamma, lam)
            worst = max(worst, float(np.max(np.abs(traj.advantages - adv_oracle))))
            positive_mass += naive_pvl(traj.td_errors, gamma, lam) * traj.length
        steps = sum(traj.length for traj in wave)
        worst = max(worst, abs(positive_value_loss_many(wave) - positive_mass / steps))
    hand = naive_pvl(np.array([1.0, -2.0, 0.5]), 1.0, 1.0)
    hand_ok = abs(hand - 0.5 / 3.0) < 1e-12
    return worst < 1e-10 and hand_ok, f"max abs err {worst:.2e} over 100 waves; hand case {hand:.6f}"


def _check_colearnability(rng):
    """update_colearnability against -mean(post - pre) over the current batch.

    The previous batch mixes buffered and evicted task ids; only buffered ones
    may receive the value, no other task may change, and the current batch's
    ids become the previous batch.
    """
    worst = 0.0
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 12))
        state = _random_state(int(rng.integers(5, 50)), n)
        pre, post = rng.random(n), rng.random(n)
        for rec in state.buffer:
            rec.colearnability = float(rng.normal())
        batch = np.flatnonzero(rng.random(n) < 0.5).tolist() or [0]
        prev = np.flatnonzero(rng.random(n + 4) < 0.4).tolist()
        state.prev_replay_batch = prev
        before = [rec.colearnability for rec in state.buffer]
        written = update_colearnability(state, {i: float(pre[i]) for i in batch}, {i: float(post[i]) for i in batch})
        expected = -float(np.mean(post[batch] - pre[batch]))
        landed = [i for i in prev if i < n]
        ok = ok and (written is None) == (not landed)
        if landed:
            worst = max(worst, abs(written - expected))
        for i, rec in enumerate(state.buffer):
            if i in landed:
                worst = max(worst, abs(rec.colearnability - expected))
            else:
                ok = ok and rec.colearnability == before[i]
        ok = ok and state.prev_replay_batch == batch
    return ok and worst < 1e-12, f"max |write-back + mean(post - pre)| {worst:.2e} over 100 random buffers"


def _check_staleness_floor(rng):
    """task_priority_distribution gives every task at least rho * s_i / sum(s), whatever the scores."""
    margin = np.inf
    ok = True
    for _ in range(200):
        t = int(rng.integers(0, 40))
        n = int(rng.integers(1, 20))
        state = _random_state(
            t,
            n,
            beta=float(rng.random()),
            temperature=float(rng.choice([0.1, 0.3, 1.0, 3.0])),
            staleness_coef=float(1.0 - rng.random()),
        )
        for rec in state.buffer:
            rec.score = float(rng.random())
            rec.colearnability = float(rng.normal())
            rec.last_sampled = None if rng.random() < 0.3 else int(rng.integers(0, t + 1))
        dist = task_priority_distribution(state)
        ok = ok and abs(float(dist.sum()) - 1.0) < 1e-12
        margin = min(margin, float(np.min(dist - staleness_floor(state))))
    return ok and margin >= -1e-15, f"min p_i - rho*s_i/sum(s) {margin:.2e} over 200 random buffers"


def _check_atpl_oracle(rng):
    """average_transition_prediction_loss_many against a per-step loop summed over the wave."""
    model = DynamicsModel(DynamicsArch(hidden=(12,)))
    theta = model.init_params(rng).theta
    worst = 0.0
    for _ in range(100):
        wave = _random_wave(rng, max_len=20)
        total = 0.0
        for traj in wave:
            for t in range(traj.length):
                pred = model.predict(
                    theta,
                    traj.observations[t : t + 1],
                    np.eye(NUM_ACTIONS)[traj.actions[t : t + 1]],
                )
                total += naive_transition_loss(pred[0], traj.observations[t + 1])
        fast = average_transition_prediction_loss_many(wave, model, theta)
        worst = max(worst, abs(fast - total / sum(traj.length for traj in wave)))
    return worst < 1e-12, f"max abs err {worst:.2e} over 100 waves vs per-step loop"


def _toy_policy_batch(policy, rng, n=24):
    obs = rng.random((n, OBS_DIM))
    actions = rng.integers(0, NUM_ACTIONS, size=n)
    # old log-probs from a different random parameter point so ratios != 1
    old_theta = policy.init_params(rng).theta + 0.05 * rng.standard_normal(policy.net.size)
    logits, values, _ = policy.forward(old_theta, obs)
    old_logp = log_softmax(logits)[np.arange(n), actions]
    adv = rng.normal(size=n)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    return PpoBatch(
        obs=obs,
        actions=actions,
        old_log_probs=old_logp,
        advantages=adv,
        returns=rng.normal(size=n),
        old_values=values + 0.1 * rng.standard_normal(n),
    )


def check_policy_gradient(rng, points=5, tol=1e-4, entropy_coef=0.01):
    """Central-difference check of the PPO loss gradient at random parameter points.

    The default is desk11's entropy bonus, 0.01.
    """
    policy = PolicyNetwork(PolicyArch(dir_embed_dim=3, trunk_hidden=(8,), head_hidden=(6,)))
    cfg = RunConfig(clip_range=0.2, value_loss_coef=0.5, entropy_coef=entropy_coef)
    worst = 0.0
    for _ in range(points):
        batch = _toy_policy_batch(policy, rng)
        theta = policy.init_params(rng).theta + 0.1 * rng.standard_normal(policy.net.size)
        _, grad, _ = ppo_loss_and_grad(policy, theta, batch, cfg)
        fd = finite_difference_gradient(lambda th: ppo_loss_and_grad(policy, th, batch, cfg)[0], theta)
        worst = max(worst, relative_error(grad, fd))
    return worst < tol, f"max rel err {worst:.2e} over {points} points"


def check_dynamics_gradient(rng, points=5, tol=1e-4):
    """Central-difference check of the smoothed transition-loss gradient."""
    model = DynamicsModel(DynamicsArch(hidden=(8,)))
    worst = 0.0
    for _ in range(points):
        n = 16
        obs = rng.random((n, OBS_DIM))
        act = np.eye(NUM_ACTIONS)[rng.integers(0, NUM_ACTIONS, size=n)]
        nxt = rng.random((n, OBS_DIM))
        theta = model.init_params(rng).theta + 0.1 * rng.standard_normal(model.net.size)
        _, grad, _ = dynamics_loss_and_grad(model, theta, obs, act, nxt)
        fd = finite_difference_gradient(lambda th: dynamics_loss_and_grad(model, th, obs, act, nxt)[0], theta)
        worst = max(worst, relative_error(grad, fd))
    return worst < tol, f"max rel err {worst:.2e} over {points} points"


def verification_report(seed=0):
    """Run every oracle; returns {"passed": bool, "checks": [{name, passed, detail}]}."""
    checks = []
    suite = (
        ("gae_pvl_vs_naive_oracle", _check_gae_pvl),
        ("colearnability_write_back", _check_colearnability),
        ("staleness_floor", _check_staleness_floor),
        ("transition_loss_vs_loop_oracle", _check_atpl_oracle),
        ("policy_gradient_finite_differences", check_policy_gradient),
        ("dynamics_gradient_finite_differences", check_dynamics_gradient),
    )
    for i, (name, fn) in enumerate(suite):
        rng = np.random.default_rng([seed, i])
        passed, detail = fn(rng)
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
    return {"passed": all(c["passed"] for c in checks), "checks": checks}
