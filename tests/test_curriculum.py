import dataclasses
import hashlib

import numpy as np
import pytest

from uedmaze.config import MODES, RunConfig
from uedmaze.curriculum import (
    CurriculumState,
    TaskRecord,
    maybe_insert,
    mode_settings,
    sample_replay_batch,
    select_mutation_parents,
    task_priority_distribution,
    ued_step,
    update_colearnability,
)
from uedmaze.harness import make_components
from uedmaze.levels import LevelMetrics, generate_random_level, level_metrics
from uedmaze.scoring import RegretScore

MICRO = RunConfig(
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


def record(task_id, score, colearn=0.0, last_sampled=None):
    level = generate_random_level(5, 5, 2, np.random.default_rng(task_id))
    return TaskRecord(
        task_id=task_id,
        level=level,
        metrics=level_metrics(level),
        score=score,
        colearnability=colearn,
        last_sampled=last_sampled,
    )


def state_with(records, cfg=None, mode="traced", t=10):
    state = CurriculumState(cfg=dataclasses.replace(cfg or MICRO, mode=mode), t=t)
    state.buffer = list(records)
    state.next_task_id = max((r.task_id for r in records), default=-1) + 1
    return state


def test_colearnability_hand_case():
    # two tasks drop 0.8 -> 0.5 and rise 0.4 -> 0.5: mean reduction 0.1
    a = record(0, 0.5)
    b = record(1, 0.5)
    state = state_with([a, b], t=10)
    state.prev_replay_batch = [0, 1]
    written = update_colearnability(state, {0: 0.8, 1: 0.4}, {0: 0.5, 1: 0.5})
    assert written == pytest.approx(0.1, abs=1e-15)
    assert a.colearnability == pytest.approx(0.1)
    assert b.colearnability == pytest.approx(0.1)
    assert state.prev_replay_batch == [0, 1]


def test_colearnability_skips_evicted_members():
    a = record(0, 0.1)
    state = state_with([a], t=10)
    state.prev_replay_batch = [0, 7]  # task 7 no longer buffered
    written = update_colearnability(state, {0: 0.6}, {0: 0.1})
    assert written == pytest.approx(0.5)
    assert a.colearnability == pytest.approx(0.5)


def test_first_replay_writes_nothing():
    a = record(0, 0.4)
    state = state_with([a], t=10)
    assert update_colearnability(state, {0: 0.6}, {0: 0.4}) is None
    assert a.colearnability == 0.0
    assert state.prev_replay_batch == [0]


def test_run_writes_back_each_replay_batchs_mean_score_drop():
    # a replay step's write-back is the mean, over its batch, of each task's score before the step
    # minus the combined regret its replay row logs
    cfg = dataclasses.replace(MICRO, total_updates=40)
    state, student, predictor, rng = make_components(cfg)
    landed = 0
    for _ in range(cfg.total_updates):
        before = {r.task_id: r.score for r in state.buffer}
        log = ued_step(state, student, predictor, rng)
        if log.colearnability_written is None:
            continue
        replayed = [row for row in log.rows if row.phase == "replay"]
        expected = sum(before[row.task_id] - row.combined for row in replayed) / len(replayed)
        assert log.colearnability_written == pytest.approx(expected, rel=0, abs=1e-12)
        landed += 1
    assert landed >= 3


def test_rank_distribution_hand_case():
    cfg = dataclasses.replace(MICRO, temperature=1.0, staleness_coef=0.0)
    records = [record(i, s) for i, s in enumerate([3.0, 1.0, 2.0])]
    state = state_with(records, cfg=cfg)
    dist = task_priority_distribution(state)
    assert np.allclose(dist, [6 / 11, 2 / 11, 3 / 11], atol=1e-12)


def test_rank_distribution_is_scale_invariant():
    cfg = dataclasses.replace(MICRO, temperature=0.3, staleness_coef=0.0)
    rng = np.random.default_rng(0)
    scores = rng.random(6)
    a = state_with([record(i, s) for i, s in enumerate(scores)], cfg=cfg)
    b = state_with([record(i, s * 17.3) for i, s in enumerate(scores)], cfg=cfg)
    assert np.array_equal(task_priority_distribution(a), task_priority_distribution(b))


def test_priority_includes_colearnability_with_beta():
    cfg = dataclasses.replace(MICRO, temperature=1.0, staleness_coef=0.0, beta=2.0)
    # score 1.0 each; colearnability breaks the tie through beta
    records = [record(0, 1.0, colearn=0.0), record(1, 1.0, colearn=0.3)]
    state = state_with(records, cfg=cfg)
    dist = task_priority_distribution(state)
    assert dist[1] > dist[0]
    # ... unless the mode zeroes beta
    state_nocl = state_with(records, cfg=cfg, mode="traced-no-cl")
    dist_nocl = task_priority_distribution(state_nocl)
    assert dist_nocl[0] > dist_nocl[1]  # tie broken by insertion order rank


def test_stale_tasks_gain_mass():
    cfg = dataclasses.replace(MICRO, temperature=1.0, staleness_coef=0.5)
    records = [
        record(0, 1.0, last_sampled=9),
        record(1, 1.0, last_sampled=1),
    ]
    state = state_with(records, cfg=cfg, t=10)
    dist = task_priority_distribution(state)
    assert dist[1] > dist[0]


def test_never_sampled_tasks_get_max_staleness():
    cfg = dataclasses.replace(MICRO, temperature=1.0, staleness_coef=1.0)
    records = [
        record(0, 1.0, last_sampled=2),  # staleness 8
        record(1, 1.0, last_sampled=6),  # staleness 4
        record(2, 1.0, last_sampled=None),  # treated as 8
    ]
    state = state_with(records, cfg=cfg, t=10)
    dist = task_priority_distribution(state)
    assert dist[0] == pytest.approx(dist[2])
    assert dist[0] == pytest.approx(8 / 20)


def test_zero_staleness_everywhere_is_uniform():
    cfg = dataclasses.replace(MICRO, temperature=1.0, staleness_coef=1.0)
    records = [record(i, 1.0, last_sampled=10) for i in range(4)]
    state = state_with(records, cfg=cfg, t=10)
    assert np.allclose(task_priority_distribution(state), 0.25)


def test_sampling_frequencies_match_distribution():
    cfg = dataclasses.replace(MICRO, temperature=1.0, staleness_coef=0.0, batch_size=1)
    records = [record(i, s) for i, s in enumerate([3.0, 1.0, 2.0])]
    state = state_with(records, cfg=cfg)
    rng = np.random.default_rng(1)
    counts = np.zeros(3)
    n = 20_000
    for _ in range(n):
        batch, probs = sample_replay_batch(state, rng)
        counts[batch[0].task_id] += 1
        assert probs[0] == pytest.approx([6 / 11, 2 / 11, 3 / 11][batch[0].task_id])
    freqs = counts / n
    expected = np.array([6 / 11, 2 / 11, 3 / 11])
    sigma = np.sqrt(expected * (1 - expected) / n)
    assert np.all(np.abs(freqs - expected) < 4 * sigma)


def test_batch_is_distinct_and_stamps_last_sampled():
    cfg = dataclasses.replace(MICRO, batch_size=3)
    records = [record(i, 1.0 + i) for i in range(5)]
    state = state_with(records, cfg=cfg, t=42)
    batch, _ = sample_replay_batch(state, np.random.default_rng(2))
    ids = [r.task_id for r in batch]
    assert len(set(ids)) == 3
    for r in batch:
        assert r.last_sampled == 42


def test_sample_requires_enough_tasks():
    cfg = dataclasses.replace(MICRO, batch_size=4)
    state = state_with([record(0, 1.0)], cfg=cfg)
    with pytest.raises(ValueError):
        sample_replay_batch(state, np.random.default_rng(0))


def score(combined):
    return RegretScore(pvl=combined, atpl=0.0, combined=combined)


def test_insert_respects_capacity_and_evicts_weakest():
    cfg = dataclasses.replace(MICRO, buffer_size=3, staleness_coef=0.0, temperature=1.0)
    state = state_with([record(i, s) for i, s in enumerate([0.5, 0.2, 0.9])], cfg=cfg)
    level = generate_random_level(5, 5, 2, np.random.default_rng(9))
    rejected = maybe_insert(state, level, score(0.1), level_metrics(level))
    assert rejected is None and len(state.buffer) == 3
    inserted = maybe_insert(state, level, score(0.6), level_metrics(level))
    assert inserted is not None
    assert len(state.buffer) == 3
    assert {r.task_id for r in state.buffer} == {0, 2, inserted.task_id}
    assert inserted.score == 0.6 and inserted.last_sampled == state.t


def test_buffer_never_exceeds_capacity():
    cfg = dataclasses.replace(MICRO, buffer_size=4)
    state = state_with([], cfg=cfg)
    rng = np.random.default_rng(3)
    for i in range(50):
        level = generate_random_level(5, 5, 2, rng)
        maybe_insert(state, level, score(float(rng.random())), level_metrics(level))
        assert len(state.buffer) <= 4
    assert len(state.buffer) == 4


def test_select_mutation_parents_prefers_low_regret():
    records = [record(i, 1.0) for i in range(4)]
    posts = {0: 0.5, 1: 0.1, 2: 0.9, 3: 0.1}
    parents = select_mutation_parents(records, posts, 2)
    assert [p.task_id for p in parents] == [1, 3]


def test_mode_settings_matrix():
    cfg = dataclasses.replace(MICRO, alpha=0.7, beta=1.3)
    expected = {
        "traced": (cfg.alpha, cfg.beta, True),
        "accel": (0.0, 0.0, True),
        "plr": (0.0, 0.0, False),
        "dr": (0.0, 0.0, False),
        "traced-no-atpl": (0.0, cfg.beta, True),
        "traced-no-cl": (cfg.alpha, 0.0, True),
    }
    assert set(expected) == set(MODES)
    for mode in MODES:
        assert mode_settings(dataclasses.replace(cfg, mode=mode)) == expected[mode], mode
    with pytest.raises(ValueError):
        mode_settings(dataclasses.replace(cfg, mode="bogus"))


def theta_digest(student):
    return hashlib.sha256(student.params.theta.tobytes()).hexdigest()


def test_exploration_never_touches_the_student():
    cfg = dataclasses.replace(MICRO, replay_rate=0.0, total_updates=1)
    state, student, predictor, rng = make_components(cfg)
    digest = theta_digest(student)
    for _ in range(6):
        log = ued_step(state, student, predictor, rng)
        assert log.phase == "explore"
    assert theta_digest(student) == digest
    assert student.updates == 0
    assert predictor.updates == 6  # the world model does train on those waves


def test_replay_updates_student_and_replaces_parents_in_place():
    cfg = dataclasses.replace(MICRO, replay_rate=1.0)
    state, student, predictor, rng = make_components(cfg)
    # replay_rate=1 still explores until the buffer can fill a batch
    while len(state.buffer) < cfg.batch_size:
        log = ued_step(state, student, predictor, rng)
        assert log.phase == "explore"
    digest = theta_digest(student)
    ids_before = [r.task_id for r in state.buffer]
    size_before = len(state.buffer)
    log = ued_step(state, student, predictor, rng)
    assert log.phase == "replay"
    assert theta_digest(student) != digest
    assert student.updates == cfg.batch_size
    assert len(state.buffer) == size_before  # mutation replaced, never grew
    replaced = set(ids_before) - {r.task_id for r in state.buffer}
    assert len(replaced) == cfg.num_mutations
    mutate_rows = [row for row in log.rows if row.phase == "mutate"]
    assert len(mutate_rows) == cfg.num_mutations


def test_plr_mode_never_mutates():
    cfg = dataclasses.replace(MICRO, mode="plr", replay_rate=1.0)
    state, student, predictor, rng = make_components(cfg)
    while len(state.buffer) < cfg.batch_size:
        ued_step(state, student, predictor, rng)
    ids_before = {r.task_id for r in state.buffer}
    log = ued_step(state, student, predictor, rng)
    assert log.phase == "replay"
    assert {r.task_id for r in state.buffer} == ids_before
    assert all(row.phase != "mutate" for row in log.rows)


def test_dr_mode_keeps_no_buffer_and_always_trains():
    cfg = dataclasses.replace(MICRO, mode="dr")
    state, student, predictor, rng = make_components(cfg)
    for i in range(5):
        log = ued_step(state, student, predictor, rng)
        assert log.phase == "dr"
        assert log.rows[0].atpl == 0.0
    assert len(state.buffer) == 0
    assert student.updates == 5
    assert predictor.updates == 0


def test_accel_mode_scores_without_atpl():
    cfg = dataclasses.replace(MICRO, mode="accel", replay_rate=0.0)
    state, student, predictor, rng = make_components(cfg)
    log = ued_step(state, student, predictor, rng)
    row = log.rows[0]
    assert row.combined == row.pvl  # alpha forced to 0


def test_replay_phase_honors_replay_rate_rng():
    # drive the same rng stream twice and require identical phase sequences
    cfg = dataclasses.replace(MICRO, replay_rate=0.5, total_updates=1)
    phases = []
    for _ in range(2):
        state, student, predictor, rng = make_components(cfg)
        phases.append([ued_step(state, student, predictor, rng).phase for _ in range(30)])
    assert phases[0] == phases[1]
    assert "replay" in phases[0] and "explore" in phases[0]
