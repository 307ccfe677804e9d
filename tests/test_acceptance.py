"""Acceptance checklist: one test per numbered guarantee the package ships with.

Every test prints a single line

    ACCEPTANCE <n> <PASS|FAIL> - <detail>

before asserting, so `pytest tests/test_acceptance.py -s` doubles as a
human-readable report. Checks 1 and 3-9 and 11 are exact or tightly seeded;
check 10 is a directional desk-scale training experiment (a few minutes of CPU).

Check 2, the regret decomposition identity on random tabular MDPs, is retired
and its number left unused, so the other checks keep the numbers the project's
notes cite. Its identity held by algebra (both sides equal
gamma * (P v* - P_hat v_hat)), so it tested only its own value iteration and
no code the design loop runs.
"""

import csv
import dataclasses
import hashlib
import time

import numpy as np
import pytest

from uedmaze.agent import PolicyArch, PolicyNetwork, Trajectory, collect_rollout, compute_gae
from uedmaze.config import RunConfig, load_preset
from uedmaze.curriculum import (
    CurriculumState,
    TaskRecord,
    mode_settings,
    sample_replay_batch,
    task_priority_distribution,
    ued_step,
    update_colearnability,
)
from uedmaze.dynamics import DynamicsArch, DynamicsModel
from uedmaze.env import NUM_ACTIONS, OBS_DIM
from uedmaze.harness import make_components, run_experiment
from uedmaze.levels import generate_random_level, level_metrics
from uedmaze.oracle import (
    check_dynamics_gradient,
    check_policy_gradient,
    naive_gae,
    naive_pvl,
    naive_transition_loss,
    staleness_floor,
)
from uedmaze.scoring import approx_regret, average_transition_prediction_loss_many, positive_value_loss_many


def _report(n, ok, detail):
    print(f"\nACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance check {n}: {detail}"


def make_traj(rewards, values, gamma=1.0, lam=1.0, observations=None):
    n = len(rewards)
    traj = Trajectory(
        observations=np.zeros((n + 1, OBS_DIM)) if observations is None else observations,
        actions=np.zeros(n, dtype=np.int64),
        log_probs=np.zeros(n),
        rewards=np.asarray(rewards, dtype=np.float64),
        values=np.asarray(values, dtype=np.float64),
        terminal=True,
    )
    return compute_gae(traj, gamma, lam)


SMALL = RunConfig(
    grid_width=5,
    grid_height=5,
    max_episode_steps=10,
    max_blocks=2,
    dir_embed_dim=2,
    trunk_hidden=(12,),
    head_hidden=(8,),
    dynamics_hidden=(12,),
    rollout_length=10,
    ppo_epochs=1,
    num_workers=1,
    buffer_size=8,
    batch_size=2,
    num_mutations=1,
    total_updates=5,
)


def _record(task_id, score, cfg=SMALL):
    level = generate_random_level(cfg.grid_width, cfg.grid_height, cfg.max_blocks, np.random.default_rng(task_id))
    return TaskRecord(
        task_id=task_id,
        level=level,
        metrics=level_metrics(level),
        score=score,
        colearnability=0.0,
        last_sampled=None,
    )


def _state(records, cfg=SMALL, mode="traced", t=10):
    state = CurriculumState(cfg=dataclasses.replace(cfg, mode=mode), t=t)
    state.buffer = list(records)
    state.next_task_id = max((r.task_id for r in records), default=-1) + 1
    return state


def test_01_gae_and_pvl_match_naive_quadratic_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 60))
        gamma = float(rng.uniform(0.5, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        traj = make_traj(rng.normal(size=n), rng.normal(size=n + 1), gamma, lam)
        gae_err = float(np.max(np.abs(traj.advantages - naive_gae(traj.td_errors, gamma, lam))))
        pvl_err = abs(positive_value_loss_many([traj]) - naive_pvl(traj.td_errors, gamma, lam))
        worst = max(worst, gae_err, pvl_err)
    hand = positive_value_loss_many([make_traj([1.0, -2.0, 0.5], [0.0] * 4)])
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and abs(hand - 0.5 / 3) < 1e-15 and elapsed < 1.0
    _report(1, ok, f"max abs err {worst:.2e} over 100 trajectories; hand case {hand:.10f}; {elapsed:.2f}s")


class _PerfectModel:
    """Predicts exactly the observed next observation of the stored trajectory."""

    def __init__(self, traj):
        self._next = traj.observations[1:].copy()

    def predict(self, theta, obs, act):
        return self._next


def test_03_atpl_matches_per_step_loop_oracle():
    rng = np.random.default_rng(303)
    model = DynamicsModel(DynamicsArch(hidden=(12,)))
    theta = model.init_params(rng).theta
    worst = 0.0
    for _ in range(100):
        wave = []
        for _ in range(int(rng.integers(1, 7))):
            n = int(rng.integers(1, 25))
            obs = rng.random((n + 1, OBS_DIM))
            traj = make_traj(rng.normal(size=n), rng.normal(size=n + 1), observations=obs)
            traj.actions[:] = rng.integers(0, NUM_ACTIONS, size=n)
            wave.append(traj)
        fast = average_transition_prediction_loss_many(wave, model, theta)
        total = 0.0
        for traj in wave:
            for t in range(traj.length):
                pred = model.predict(theta, traj.observations[t : t + 1], np.eye(NUM_ACTIONS)[traj.actions[t : t + 1]])
                total += naive_transition_loss(pred[0], traj.observations[t + 1])
        worst = max(worst, abs(fast - total / sum(traj.length for traj in wave)))
    perfect_traj = make_traj(np.zeros(7), np.zeros(8), observations=np.random.default_rng(9).random((8, OBS_DIM)))
    perfect = average_transition_prediction_loss_many([perfect_traj], _PerfectModel(perfect_traj), theta=None)
    ok = worst < 1e-12 and perfect == 0.0
    _report(3, ok, f"max abs err {worst:.2e} over 100 waves of 1-6 trajectories; perfect predictor gives {perfect!r}")


def test_04_combined_score_linearity_and_accel_reduction():
    rng = np.random.default_rng(404)
    exact = True
    for _ in range(200):
        pvl = float(rng.random() * 3)
        atpl = float(rng.random() * 3)
        alpha = float(rng.random() * 2)
        exact = exact and approx_regret(pvl, atpl, alpha).combined == pvl + alpha * atpl
        exact = exact and approx_regret(pvl, atpl, 0.0).combined == pvl

    # alpha=0 on trajectories from a real rollout reproduces the PVL-only scorer
    policy = PolicyNetwork(PolicyArch(dir_embed_dim=2, trunk_hidden=(12,), head_hidden=(8,)))
    params = policy.init_params(np.random.default_rng(5))
    levels = [generate_random_level(5, 5, 2, np.random.default_rng(i)) for i in range(3)]
    trajs = collect_rollout(policy, params, levels, 12, 10, np.random.default_rng(6))
    model = DynamicsModel(DynamicsArch(hidden=(12,)))
    theta = model.init_params(np.random.default_rng(7)).theta
    for traj in trajs:
        compute_gae(traj, 0.995, 0.95)
    for wave in [[traj] for traj in trajs] + [trajs]:
        pvl = positive_value_loss_many(wave)
        atpl = average_transition_prediction_loss_many(wave, model, theta)
        exact = exact and approx_regret(pvl, atpl, 0.0).combined == pvl
    accel_alpha, accel_beta, accel_mutates = mode_settings(dataclasses.replace(SMALL, mode="accel"))
    ok = exact and accel_alpha == 0.0 and accel_beta == 0.0 and accel_mutates
    _report(4, ok, f"combined == pvl + alpha*atpl bit-exact on 200 triples + {len(trajs)} rollout trajectories and their wave; "
                   f"accel mode wires alpha={accel_alpha}, beta={accel_beta}")


def test_05_difficulty_colearnability_and_rank_distribution():
    start = time.monotonic()
    a, b = _record(0, 0.5), _record(1, 0.5)
    state = _state([a, b])
    state.prev_replay_batch = [0, 1]
    written = update_colearnability(state, {0: 0.8, 1: 0.4}, {0: 0.5, 1: 0.5})
    colearn_ok = abs(written - 0.1) < 1e-15

    cfg = dataclasses.replace(SMALL, temperature=1.0, staleness_coef=0.0)
    recs = [_record(i, s) for i, s in enumerate((3.0, 1.0, 2.0))]
    dist = task_priority_distribution(_state(recs, cfg=cfg))
    rank_ok = np.allclose(dist, [6 / 11, 2 / 11, 3 / 11], atol=1e-12)

    scaled = [_record(i, s * 17.3) for i, s in enumerate((3.0, 1.0, 2.0))]
    scale_ok = np.array_equal(task_priority_distribution(_state(scaled, cfg=cfg)), dist)

    elapsed = time.monotonic() - start
    ok = colearn_ok and rank_ok and scale_ok and elapsed < 1.0
    _report(5, ok, f"colearnability hand case {written:.3f}; "
                   f"rank dist {np.round(dist, 6).tolist()}; scaling invariant {scale_ok}; {elapsed:.2f}s")


def test_06_full_buffer_colearnability_equals_negative_mean_change():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 12))
        pre = rng.random(n)
        post = rng.random(n)
        recs = [_record(i, float(post[i])) for i in range(n)]
        state = _state(recs)
        state.prev_replay_batch = list(range(n))
        value = update_colearnability(state, {i: float(pre[i]) for i in range(n)}, {i: float(post[i]) for i in range(n)})
        worst = max(worst, abs(value - (-np.mean(post - pre))))
    ok = worst < 1e-12
    _report(6, ok, f"max |value + mean(post - pre)| {worst:.2e} over 100 random snapshot pairs "
                   "(batch = whole buffer)")


def _random_buffer(rng, n, t, rho):
    cfg = dataclasses.replace(SMALL, staleness_coef=rho, temperature=float(rng.choice([0.3, 1.0])),
                              batch_size=int(rng.integers(1, min(n, 3) + 1)))
    recs = [_record(i, float(rng.random())) for i in range(n)]
    for rec in recs:
        rec.colearnability = float(rng.normal())
        rec.last_sampled = None if rng.random() < 0.3 else int(rng.integers(0, t + 1))
    return _state(recs, cfg=cfg, t=t)


def test_07_wait_time_bound_over_decaying_priorities():
    """The staleness floor bounds every task's wait, however far its priority decays.

    With staleness coefficient rho, the shipped sampler must give a task of
    staleness s at least rho * s / sum(s), so a task's draw probability grows
    while it waits. The first draw of sample_replay_batch must also follow
    task_priority_distribution, within a Bernstein radius at delta = 1e-9.
    """
    start = time.monotonic()
    rng = np.random.default_rng(707)
    min_margin = np.inf
    for _ in range(200):
        n = int(rng.integers(1, 17))
        state = _random_buffer(rng, n, int(rng.integers(0, 40)), float(1.0 - rng.random()))
        min_margin = min(min_margin, float(np.min(task_priority_distribution(state) - staleness_floor(state))))
    floor_ok = min_margin >= -1e-15

    draws = 20_000
    log_term = np.log(2.0 / 1e-9)
    worst_excess = -np.inf
    probs_ok = True
    for _ in range(3):
        n = int(rng.integers(4, 9))
        state = _random_buffer(rng, n, int(rng.integers(5, 40)), float(1.0 - rng.random()))
        dist = task_priority_distribution(state)
        stamps = [r.last_sampled for r in state.buffer]
        counts = np.zeros(n)
        for _ in range(draws):
            records, probs = sample_replay_batch(state, rng)
            counts[records[0].task_id] += 1
            probs_ok = probs_ok and probs[0] == dist[records[0].task_id]
            for rec, stamp in zip(state.buffer, stamps):
                rec.last_sampled = stamp
        radius = (log_term / 3.0 + np.sqrt(log_term**2 / 9.0 + 2.0 * draws * dist * (1.0 - dist) * log_term)) / draws
        worst_excess = max(worst_excess, float(np.max(np.abs(counts / draws - dist) - radius)))
    freq_ok = worst_excess <= 0.0
    elapsed = time.monotonic() - start
    ok = floor_ok and freq_ok and probs_ok and elapsed < 30.0
    _report(7, ok, f"staleness floor: min p_i - rho*s_i/sum(s) {min_margin:.2e} over 200 random buffers; "
                   f"first-draw frequencies within the Bernstein radius (delta 1e-9) on 3 buffers x {draws} draws "
                   f"{freq_ok} (largest |freq - p| - radius {worst_excess:.4f}); reported probabilities exact {probs_ok}; "
                   f"{elapsed:.1f}s")


def test_08_backward_passes_match_central_finite_differences():
    policy_ok, policy_detail = check_policy_gradient(np.random.default_rng(808), points=5, tol=1e-4)
    dyn_ok, dyn_detail = check_dynamics_gradient(np.random.default_rng(809), points=5, tol=1e-4)
    ok = policy_ok and dyn_ok
    _report(8, ok, f"policy: {policy_detail}; dynamics: {dyn_detail}")


def test_09_training_loop_contract():
    # replay fraction over 10^4 seeded steps
    cfg = dataclasses.replace(SMALL, replay_rate=0.5, total_updates=10_000)
    state, student, predictor, rng = make_components(cfg)
    replays = 0
    max_buffer = 0
    replaced_counts = []
    sizes_stable = True
    for _ in range(cfg.total_updates):
        ids_before = {r.task_id for r in state.buffer}
        size_before = len(state.buffer)
        log = ued_step(state, student, predictor, rng)
        max_buffer = max(max_buffer, len(state.buffer))
        if log.phase == "replay":
            replays += 1
            sizes_stable = sizes_stable and len(state.buffer) == size_before
            replaced_counts.append(len(ids_before - {r.task_id for r in state.buffer}))
    fraction = replays / cfg.total_updates
    fraction_ok = abs(fraction - cfg.replay_rate) <= 0.02
    buffer_ok = max_buffer <= cfg.buffer_size
    mutation_ok = sizes_stable and replaced_counts and all(c == cfg.num_mutations for c in replaced_counts)

    # exploration never touches the policy parameters
    explore_cfg = dataclasses.replace(SMALL, replay_rate=0.0, total_updates=60)
    state, student, predictor, rng = make_components(explore_cfg)
    digest = hashlib.sha256(student.params.theta.tobytes()).hexdigest()
    phases = {ued_step(state, student, predictor, rng).phase for _ in range(explore_cfg.total_updates)}
    hash_ok = phases == {"explore"} and hashlib.sha256(student.params.theta.tobytes()).hexdigest() == digest

    ok = fraction_ok and buffer_ok and mutation_ok and hash_ok
    _report(9, ok, f"replay fraction {fraction:.4f} vs rate {cfg.replay_rate} over 10^4 steps; "
                   f"buffer max {max_buffer} <= {cfg.buffer_size}; in-place mutations {mutation_ok}; "
                   f"exploration left the policy hash unchanged {hash_ok}")


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """Three seeded desk-scale runs per mode; DR gets each run's measured PPO budget."""
    root = tmp_path_factory.mktemp("desk")
    base = load_preset("desk11")
    start = time.monotonic()
    runs = {"traced": [], "dr": []}
    for seed in (0, 1, 2):
        cfg = dataclasses.replace(base, seed=seed)
        summary = run_experiment(cfg, root / f"traced-s{seed}")
        runs["traced"].append((cfg, root / f"traced-s{seed}", summary))
    for cfg_traced, _, summary_traced in runs["traced"]:
        cfg = dataclasses.replace(cfg_traced, mode="dr", total_updates=summary_traced["ppo_updates"])
        summary = run_experiment(cfg, root / f"dr-s{cfg.seed}")
        runs["dr"].append((cfg, root / f"dr-s{cfg.seed}", summary))
    runs["wall"] = time.monotonic() - start
    return runs


def _pooled_replay_thirds(runs):
    sums = [0.0] * 3
    counts = [0] * 3
    for cfg, run_dir, _ in runs:
        with open(run_dir / "logs.csv") as fh:
            for row in csv.DictReader(fh):
                if row["phase"] != "replay":
                    continue
                path = float(row["shortest_path_len"])
                if path < 0:
                    continue
                bucket = min(int(row["t"]) * 3 // cfg.total_updates, 2)
                sums[bucket] += path
                counts[bucket] += 1
    return [s / c for s, c in zip(sums, counts)]


@pytest.mark.slow
def test_10_desk_scale_complexity_growth_and_dr_comparison(desk_runs):
    thirds = _pooled_replay_thirds(desk_runs["traced"])
    growth_ok = thirds[0] <= thirds[1] <= thirds[2] and thirds[2] > thirds[0]

    solved_traced = float(np.mean([s["final_solved_rate"] for _, _, s in desk_runs["traced"]]))
    solved_dr = float(np.mean([s["final_solved_rate"] for _, _, s in desk_runs["dr"]]))
    ordering_ok = solved_traced >= solved_dr

    budget_pairs = [
        (t[2]["ppo_updates"], d[2]["ppo_updates"]) for t, d in zip(desk_runs["traced"], desk_runs["dr"])
    ]
    budget_ok = all(t == d for t, d in budget_pairs)
    wall_ok = desk_runs["wall"] < 1800.0

    ok = growth_ok and ordering_ok and budget_ok and wall_ok
    _report(10, ok, f"replayed shortest-path thirds {[round(x, 3) for x in thirds]} (non-decreasing {growth_ok}); "
                    f"held-out solved rate traced {solved_traced:.3f} vs dr {solved_dr:.3f} "
                    f"at matched budgets {budget_pairs}; wall {desk_runs['wall']:.0f}s")


def test_11_identical_config_and_seed_reproduce_logs_byte_for_byte(tmp_path):
    cfg = dataclasses.replace(load_preset("desk11"), seed=5, total_updates=30)
    run_experiment(cfg, tmp_path / "first")
    run_experiment(cfg, tmp_path / "second")
    first = (tmp_path / "first" / "logs.csv").read_bytes()
    second = (tmp_path / "second" / "logs.csv").read_bytes()
    ok = first == second and len(first) > 0
    _report(11, ok, f"two {cfg.total_updates}-update runs wrote identical logs.csv ({len(first)} bytes)")
