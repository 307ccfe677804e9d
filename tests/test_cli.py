import configparser
import dataclasses
import json
import xml.dom.minidom
from importlib import resources

import numpy as np
import pytest

import uedmaze.oracle as oracle
from uedmaze.cli import main
from uedmaze.config import SECTIONS, RunConfig, dump_config, load_preset, parse_config
from uedmaze.env import ACTION_FORWARD, NUM_ACTIONS
from uedmaze.errors import ConfigError
from uedmaze.harness import (
    CHECKPOINT_FORMAT_VERSION,
    emit_report,
    evaluate_policy,
    load_buffer_snapshot,
    load_checkpoint,
    load_suite,
    run_experiment,
    save_buffer_snapshot,
)
from uedmaze.levels import Level
from uedmaze.nn import FlatParams

DESK_MICRO = dict(
    grid_width=7,
    grid_height=7,
    max_episode_steps=20,
    max_blocks=6,
    dir_embed_dim=2,
    trunk_hidden=(12,),
    head_hidden=(8,),
    dynamics_hidden=(12,),
    rollout_length=16,
    ppo_epochs=1,
    num_workers=2,
    buffer_size=8,
    batch_size=2,
    num_mutations=1,
    total_updates=8,
    eval_episodes=2,
)


def micro_config(**overrides):
    return RunConfig(**{**DESK_MICRO, **overrides})


# ---------------------------------------------------------------------------
# configuration


def test_config_round_trip():
    cfg = micro_config(seed=5, mode="accel", temperature=0.7)
    assert parse_config(dump_config(cfg)) == cfg


def test_every_field_sits_in_exactly_one_section():
    placed = [key for keys in SECTIONS.values() for key in keys]
    assert sorted(placed) == sorted(f.name for f in dataclasses.fields(RunConfig))


def test_config_with_every_field_off_its_default_round_trips():
    cfg = RunConfig(
        mode="accel", seed=7, total_updates=3, eval_every=2, eval_episodes=3, checkpoint_every=2,
        eval_suite="full15", grid_width=9, grid_height=7, max_episode_steps=99, min_blocks=1, max_blocks=7,
        dir_embed_dim=3, trunk_hidden=(8, 4), head_hidden=(6,), dynamics_hidden=(5, 5, 5),
        dynamics_learning_rate=0.0123, gamma=0.9, gae_lambda=0.8, rollout_length=33, ppo_epochs=2,
        clip_range=0.1, num_workers=2, adam_learning_rate=3e-4, adam_eps=1e-7,
        max_grad_norm=0.25, value_loss_coef=0.4, entropy_coef=0.01, alpha=0.5,
        beta=2.0, replay_rate=0.5, buffer_size=50, num_edits=3, batch_size=3, num_mutations=2,
        temperature=0.7, staleness_coef=0.1,
    )
    default = RunConfig()
    same = [f.name for f in dataclasses.fields(RunConfig) if getattr(cfg, f.name) == getattr(default, f.name)]
    assert same == []
    assert parse_config(dump_config(cfg)) == cfg


def test_presets_parse_and_differ():
    full = load_preset("full15")
    desk = load_preset("desk11")
    assert full.grid_width == 15 and full.buffer_size == 4000
    assert desk.grid_width == 11 and desk.num_mutations < desk.batch_size
    assert full.gamma == desk.gamma == 0.995


def test_unknown_keys_and_sections_rejected():
    with pytest.raises(ConfigError):
        parse_config("[run]\nmode = traced\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[nosuch]\nmode = traced\n")
    with pytest.raises(ConfigError):
        parse_config("[ppo]\ngamma = not_a_number\n")


def test_validation_catches_bad_values():
    with pytest.raises(ConfigError):
        parse_config("[run]\nmode = bogus\n")
    with pytest.raises(ConfigError):
        parse_config("[env]\ngrid_width = 8\n")  # must be odd
    with pytest.raises(ConfigError):
        parse_config("[teacher]\nreplay_rate = 1.5\n")
    with pytest.raises(ConfigError):
        parse_config("[ppo]\nreturn_normalization = true\n")
    with pytest.raises(ConfigError):
        parse_config("[teacher]\nbatch_size = 10\nbuffer_size = 4\n")
    with pytest.raises(ConfigError):
        parse_config("[env]\nmin_blocks = 30\nmax_blocks = 20\n")
    # rank prioritisation and gradient clipping are fixed: inf would mean uniform replay, 0 a zero gradient
    for raw in ("inf", "0", "-1", "nan"):
        with pytest.raises(ConfigError, match="teacher.temperature: must be finite and > 0"):
            parse_config(f"[teacher]\ntemperature = {raw}\n")
    for raw in ("0", "-0.5", "nan"):
        with pytest.raises(ConfigError, match="ppo.max_grad_norm: must be > 0"):
            parse_config(f"[ppo]\nmax_grad_norm = {raw}\n")
    for key in ("ppo_minibatches = 1", "value_clipping = true"):
        with pytest.raises(ConfigError, match="unknown key ppo."):
            parse_config(f"[ppo]\n{key}\n")


FLOAT_KEYS = [(section, key) for section, keys in SECTIONS.items() for key in keys
              if isinstance(getattr(RunConfig(), key), float)]


@pytest.mark.parametrize("raw", ["nan", "inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
def test_every_float_setting_must_be_finite(section, key, raw):
    # a nan alpha makes every logged combined score nan; an inf max_grad_norm turns gradient clipping off
    with pytest.raises(ConfigError, match=f"^{section}.{key}: "):
        parse_config(f"[{section}]\n{key} = {raw}\n")


def test_dump_lists_sections_and_keys_in_preset_order():
    # round-trip equality ignores order; config.ini is meant to read like the bundled presets
    def order(text):
        parser = configparser.ConfigParser()
        parser.read_string(text)
        return [(section, parser.options(section)) for section in parser.sections()]

    presets = sorted(resources.files("uedmaze").joinpath("configs").iterdir(), key=lambda ref: ref.name)
    assert [ref.name for ref in presets] == ["desk11.ini", "full15.ini"]
    for ref in presets:
        text = ref.read_text()
        assert order(dump_config(parse_config(text))) == order(text), ref.name


# ---------------------------------------------------------------------------
# run artifacts


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "micro"
    cfg = micro_config(seed=11, eval_suite="desk11", checkpoint_every=4, eval_every=4)
    summary = run_experiment(cfg, out)
    return cfg, out, summary


def test_run_writes_all_artifacts(micro_run):
    cfg, out, summary = micro_run
    for name in ("config.ini", "logs.csv", "eval_final.json", "checkpoint_final.json", "buffer.json", "summary.json"):
        assert (out / name).exists(), name
    assert (out / "checkpoint_000004.json").exists()
    assert (out / "eval_000004.json").exists()
    assert summary["updates"] == cfg.total_updates
    header = (out / "logs.csv").read_text().splitlines()[0]
    assert header == "t,phase,task_id,pvl,atpl,combined,colearnability,priority_prob,shortest_path_len,num_blocks"


def test_summary_counts_landed_colearnability_writes(tmp_path):
    # num_mutations < batch_size: part of each replay batch survives for the next write-back
    summary = run_experiment(micro_config(seed=11, total_updates=16), tmp_path / "some-mutated")
    assert summary["phase_counts"]["replay"] >= 2
    assert summary["colearnability_writes"] > 0
    # num_mutations == batch_size, full15's shape: every member is mutated away, so no write-back lands
    summary = run_experiment(micro_config(seed=11, total_updates=16, num_mutations=2), tmp_path / "all-mutated")
    assert summary["phase_counts"]["replay"] >= 2
    assert summary["colearnability_writes"] == 0


def test_config_echo_reparses_to_same_config(micro_run):
    cfg, out, _ = micro_run
    assert parse_config((out / "config.ini").read_text()) == cfg


def test_checkpoint_round_trip(micro_run):
    cfg, out, _ = micro_run
    loaded_cfg, student, predictor, update = load_checkpoint(out / "checkpoint_final.json")
    assert loaded_cfg == cfg
    assert update == cfg.total_updates
    assert student.params.theta.shape == (student.policy.net.size,)
    assert predictor.params.theta.shape == (predictor.model.net.size,)
    assert np.all(np.isfinite(student.params.theta))


def test_checkpoint_rejects_unknown_version(micro_run, tmp_path):
    _, out, _ = micro_run
    data = json.loads((out / "checkpoint_final.json").read_text())
    data["format_version"] = 999
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        load_checkpoint(bad)


def test_checkpoint_rejects_format_1_before_parsing_its_config(micro_run, tmp_path, capsys):
    # format 1 configs carry the removed ppo.return_normalization key, format 2 configs
    # ppo.ppo_minibatches and ppo.value_clipping
    _, out, _ = micro_run
    data = json.loads((out / "checkpoint_final.json").read_text())
    assert data["format_version"] == CHECKPOINT_FORMAT_VERSION == 3
    current = data["config"]
    old = tmp_path / "old.json"
    for version, removed, key in (
        (1, "return_normalization = false\n", "return_normalization"),
        (2, "ppo_minibatches = 1\nvalue_clipping = true\n", "ppo_minibatches"),
    ):
        data["format_version"] = version
        data["config"] = current.replace("[ppo]\n", "[ppo]\n" + removed)
        old.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"format_version {version} "):
            load_checkpoint(old)
        assert main(["evaluate", "--checkpoint", str(old)]) == 2
        assert f"unsupported checkpoint format_version {version} " in capsys.readouterr().err
        data["format_version"] = CHECKPOINT_FORMAT_VERSION
        old.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=f"unknown key ppo.{key}"):
            load_checkpoint(old)


def test_buffer_snapshot_ignores_a_stale_best_return_key(micro_run, tmp_path):
    cfg, out, _ = micro_run
    data = json.loads((out / "buffer.json").read_text())
    assert data["tasks"] and all("best_return" not in task for task in data["tasks"])
    for task in data["tasks"]:
        task["best_return"] = 0.5
    old = tmp_path / "old_buffer.json"
    old.write_text(json.dumps(data))
    state = load_buffer_snapshot(old, cfg)
    assert [r.task_id for r in state.buffer] == [task["task_id"] for task in data["tasks"]]


def test_buffer_snapshot_round_trip(micro_run, tmp_path):
    cfg, out, _ = micro_run
    state = load_buffer_snapshot(out / "buffer.json", cfg)
    assert len(state.buffer) >= 1
    again = tmp_path / "again.json"
    save_buffer_snapshot(again, state)
    assert json.loads(again.read_text()) == json.loads((out / "buffer.json").read_text())


def test_report_outputs_are_well_formed(micro_run):
    _, out, _ = micro_run
    result = emit_report(out, window=2)
    for name in ("complexity.csv", "solved_rate.csv", "complexity.svg", "solved_rate.svg"):
        path = out / "report" / name
        assert path.exists(), name
        if name.endswith(".svg"):
            xml.dom.minidom.parse(str(path))  # raises on malformed XML
    lines = (out / "report" / "complexity.csv").read_text().splitlines()
    assert lines[0] == "window,t_start,t_end,replay_rows,mean_shortest_path,mean_num_blocks"
    assert result["window"] == 2


@pytest.mark.parametrize("window", [0, -2])
def test_report_rejects_a_window_below_one(micro_run, window):
    _, out, _ = micro_run
    with pytest.raises(ValueError, match=f"window must be >= 1, got {window}"):
        emit_report(out, window=window)


# ---------------------------------------------------------------------------
# evaluation


class ScriptedForward:
    """Always walks forward; stands in for a policy network in evaluation."""

    def forward(self, theta, obs):
        n = len(obs)
        logits = np.zeros((n, NUM_ACTIONS))
        logits[:, ACTION_FORWARD] = 50.0
        return logits, np.zeros(n), None


def test_scripted_optimal_policy_solves_a_corridor():
    level = Level(5, 5, frozenset(), (1, 1), 1, (3, 1)).validate()
    report = evaluate_policy(
        ScriptedForward(),
        FlatParams(np.zeros(1)),
        [("corridor", level)],
        episodes=4,
        max_episode_steps=30,
        rng=np.random.default_rng(0),
        greedy=True,
    )
    assert report["levels"]["corridor"]["solved_rate"] == 1.0
    assert report["levels"]["corridor"]["mean_return"] == pytest.approx(1 - 2 / 30)
    assert report["aggregate_solved_rate"] == 1.0


def test_forward_only_policy_fails_a_blocked_corridor():
    level = Level(5, 5, frozenset({(2, 1)}), (1, 1), 1, (3, 1)).validate()
    report = evaluate_policy(
        ScriptedForward(),
        FlatParams(np.zeros(1)),
        [("blocked", level)],
        episodes=2,
        max_episode_steps=10,
        rng=np.random.default_rng(0),
        greedy=True,
    )
    assert report["levels"]["blocked"]["solved_rate"] == 0.0


def test_bundled_suites_load_and_validate():
    for name, expected_size in (("desk11", 11), ("full15", 15)):
        suite = load_suite(name)
        assert len(suite) == 6
        for _, level in suite:
            level.validate()
            assert level.width == expected_size


def test_missing_suite_raises_config_error():
    with pytest.raises(ConfigError):
        load_suite("nonexistent-suite")


# ---------------------------------------------------------------------------
# command line


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "micro.ini"
    cfg_path.write_text(dump_config(micro_config(seed=2, eval_episodes=1)))
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--updates", "6"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["updates"] == 6
    assert main(["report", str(out)]) == 0
    assert (out / "report" / "complexity.svg").exists()
    capsys.readouterr()


def test_cli_mode_override_is_recorded(tmp_path, capsys):
    cfg_path = tmp_path / "micro.ini"
    cfg_path.write_text(dump_config(micro_config(seed=2)))
    out = tmp_path / "dr-run"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--mode", "dr", "--updates", "4"]) == 0
    echoed = parse_config((out / "config.ini").read_text())
    assert echoed.mode == "dr"
    assert json.loads((out / "summary.json").read_text())["phase_counts"] == {"dr": 4}
    capsys.readouterr()


def test_cli_evaluate_reads_checkpoints(tmp_path, capsys):
    cfg_path = tmp_path / "micro.ini"
    cfg_path.write_text(dump_config(micro_config(seed=4, eval_episodes=1)))
    out = tmp_path / "run"
    main(["run", "--config", str(cfg_path), "--out", str(out), "--updates", "5"])
    capsys.readouterr()
    report_path = tmp_path / "eval.json"
    code = main(
        [
            "evaluate",
            "--checkpoint",
            str(out / "checkpoint_final.json"),
            "--episodes",
            "1",
            "--greedy",
            "--out",
            str(report_path),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report == json.loads(printed)
    assert report["greedy"] is True
    assert set(report["levels"]) == {n for n, _ in load_suite("desk11")}


def test_cli_evaluate_repeats_the_runs_final_eval_file(tmp_path, capsys):
    cfg_path = tmp_path / "micro.ini"
    cfg_path.write_text(dump_config(micro_config(seed=4, eval_episodes=2)))
    out = tmp_path / "run"
    main(["run", "--config", str(cfg_path), "--out", str(out), "--updates", "3"])
    report_path = tmp_path / "eval.json"
    checkpoint = str(out / "checkpoint_final.json")
    assert main(["evaluate", "--checkpoint", checkpoint, "--seed", "4", "--out", str(report_path)]) == 0
    assert capsys.readouterr().out.endswith(report_path.read_text())
    assert report_path.read_bytes() == (out / "eval_final.json").read_bytes()


def test_cli_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nmode = bogus\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run", "--config", "not-a-preset"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--episodes", "0"],
        ["evaluate", "--episodes", "-3"],
        ["report", "--window", "0"],
        ["report", "--window", "-2"],
    ],
    ids=["episodes-0", "episodes-minus-3", "window-0", "window-minus-2"],
)
def test_cli_counts_below_one_exit_2(micro_run, argv, capsys):
    _, out, _ = micro_run
    target = ["--checkpoint", str(out / "checkpoint_final.json")] if argv[0] == "evaluate" else [str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + target + argv[1:])
    assert exc.value.code == 2
    assert f"must be >= 1, got {argv[-1]}" in capsys.readouterr().err


def test_cli_unreadable_checkpoint_exits_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    keyless = tmp_path / "keyless.json"
    keyless.write_text(json.dumps({"format_version": CHECKPOINT_FORMAT_VERSION}))
    listed = tmp_path / "listed.json"
    listed.write_text("[]")
    for path in (tmp_path / "nope.json", broken, keyless, listed):
        assert main(["evaluate", "--checkpoint", str(path)]) == 2
        assert f"config error: cannot load checkpoint {path}" in capsys.readouterr().err


def test_cli_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all 6 checks passed" in out
    assert out.count("PASS") == 6


def test_cli_verify_fails_on_broken_oracle(monkeypatch, capsys):
    healthy = oracle.naive_pvl
    monkeypatch.setattr(oracle, "naive_pvl", lambda d, g, l: -healthy(d, g, l))
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "gae_pvl_vs_naive_oracle" in out
