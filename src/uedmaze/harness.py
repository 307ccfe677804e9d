"""Experiment orchestration: runs, evaluation, checkpoints, reports.

A run writes into its output directory:

    config.ini        exact configuration (re-parseable)
    logs.csv          one row per scored level per update
    eval_*.json       held-out evaluation reports
    checkpoint_*.json versioned parameter dumps
    buffer.json       final task-buffer snapshot
    summary.json      counters and final aggregates

Given the same config and seed, logs.csv is byte-identical across re-runs:
the loop is single-threaded, every random draw goes through one generator
seeded from (seed), and floats are printed with repr.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
from importlib import resources
from pathlib import Path

import numpy as np

from .agent import PolicyNetwork, PolicyTable
from .config import RunConfig, dump_config, parse_config
from .curriculum import CurriculumState, LogRow, Predictor, Student, TaskRecord, ued_step
from .dynamics import DynamicsModel
from .env import MazeEnv
from .errors import ConfigError
from .levels import level_from_dict, level_metrics, level_to_dict
from .nn import FlatParams

CHECKPOINT_FORMAT_VERSION = 3

LOG_COLUMNS = tuple(f.name for f in dataclasses.fields(LogRow))


def make_components(cfg: RunConfig):
    """Policy, predictor, curriculum state, and the run's random generator."""
    init_ss, train_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    init_rng = np.random.default_rng(init_ss)
    policy = PolicyNetwork(cfg.policy_arch())
    student = Student(policy=policy, params=policy.init_params(init_rng))
    model = DynamicsModel(cfg.dynamics_arch())
    predictor = Predictor(model=model, params=model.init_params(init_rng))
    state = CurriculumState(cfg=cfg)
    return state, student, predictor, np.random.default_rng(train_ss)


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def _row_cells(row):
    return [_format_cell(getattr(row, name)) for name in LOG_COLUMNS]


def run_experiment(cfg: RunConfig, out_dir):
    """Execute cfg.total_updates design-loop steps; returns the summary dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(dump_config(cfg))
    state, student, predictor, rng = make_components(cfg)
    started = time.monotonic()
    suite = load_suite(cfg.eval_suite)
    phase_counts = {}
    colearnability_writes = 0
    with open(out / "logs.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for step in range(cfg.total_updates):
            log = ued_step(state, student, predictor, rng)
            phase_counts[log.phase] = phase_counts.get(log.phase, 0) + 1
            colearnability_writes += log.colearnability_written is not None
            for row in log.rows:
                writer.writerow(_row_cells(row))
            update = step + 1
            if cfg.eval_every and update % cfg.eval_every == 0 and update < cfg.total_updates:
                _write_eval(cfg, student, suite, update, out / f"eval_{update:06d}.json")
            if cfg.checkpoint_every and update % cfg.checkpoint_every == 0 and update < cfg.total_updates:
                save_checkpoint(out / f"checkpoint_{update:06d}.json", cfg, student, predictor, update)
    final_eval = _write_eval(cfg, student, suite, cfg.total_updates, out / "eval_final.json")
    save_checkpoint(out / "checkpoint_final.json", cfg, student, predictor, cfg.total_updates)
    save_buffer_snapshot(out / "buffer.json", state)
    summary = {
        "mode": cfg.mode,
        "seed": cfg.seed,
        "updates": cfg.total_updates,
        "ppo_updates": student.updates,
        "predictor_updates": predictor.updates,
        "buffer_size": len(state.buffer),
        "phase_counts": phase_counts,
        "colearnability_writes": colearnability_writes,
        "final_solved_rate": final_eval["aggregate_solved_rate"],
        "final_mean_return": final_eval["aggregate_mean_return"],
        "wall_seconds": round(time.monotonic() - started, 3),
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary


def _write_eval(cfg, student, suite, update, path):
    report, text = evaluation_report(student, suite, cfg.eval_episodes, cfg.max_episode_steps, cfg.seed, update)
    path.write_text(text)
    return report


# ---------------------------------------------------------------------------
# evaluation


def load_suite(suite):
    """Resolve a suite name (bundled) or directory path into [(name, Level), ...]."""
    path = Path(suite)
    if path.is_dir():
        files = sorted(path.glob("*.json"))
        if not files:
            raise ConfigError(f"suite directory {suite} holds no .json levels")
        return [(f.stem, _load_level_file(f.read_text(), f)) for f in files]
    ref = resources.files("uedmaze").joinpath("suites", str(suite))
    if ref.is_dir():
        entries = sorted((e for e in ref.iterdir() if e.name.endswith(".json")), key=lambda e: e.name)
        return [(e.name[: -len(".json")], _load_level_file(e.read_text(), e.name)) for e in entries]
    raise ConfigError(f"no such evaluation suite: {suite!r} (not a directory, not bundled)")


def _load_level_file(text, origin):
    try:
        return level_from_dict(json.loads(text))
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad level file {origin}: {exc}") from exc


def run_episodes(policy, params, level, episodes, max_episode_steps, rng, greedy=False):
    """Roll `episodes` independent episodes on one level; returns (solved, returns) arrays.

    Actions come from the level's PolicyTable; a sampled step draws one uniform per live
    episode, greedy play draws nothing from rng.
    """
    table = PolicyTable(policy, params, level)
    envs = [MazeEnv(level, max_episode_steps) for _ in range(episodes)]
    for env in envs:
        env.reset()
    live = list(range(episodes))
    returns = [0.0] * episodes
    solved = [False] * episodes
    while live:
        uniforms = [None] * len(live) if greedy else rng.random(len(live)).tolist()
        still_live = []
        for i, u in zip(live, uniforms):
            env = envs[i]
            _, r, done = env.step(table.act(env.state_index, u))
            returns[i] += r
            if done:
                solved[i] = env.agent_pos == level.goal_pos
            else:
                still_live.append(i)
        live = still_live
    return np.array(solved), np.array(returns)


def evaluation_report(student, suite, episodes, max_episode_steps, seed, update, greedy=False):
    """The eval report of a student at `update`, and its JSON text (sorted keys, 2-space indent).

    Episodes draw from a generator seeded with [seed, 7, update], so `uedmaze evaluate
    --seed S` on a checkpoint repeats the eval file a seed-S run wrote at that update.
    """
    rng = np.random.default_rng([seed, 7, update])
    report = evaluate_policy(student.policy, student.params, suite, episodes, max_episode_steps, rng, greedy)
    report["update"] = update
    return report, json.dumps(report, indent=2, sort_keys=True) + "\n"


def evaluate_policy(policy, params, suite, episodes, max_episode_steps, rng, greedy=False):
    """Per-level and aggregate solved rates / returns over a held-out suite."""
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    levels = {}
    for name, level in suite:
        solved, returns = run_episodes(policy, params, level, episodes, max_episode_steps, rng, greedy)
        levels[name] = {
            "solved_rate": float(solved.mean()),
            "mean_return": float(returns.mean()),
        }
    return {
        "levels": levels,
        "episodes_per_level": episodes,
        "greedy": greedy,
        "aggregate_solved_rate": float(np.mean([v["solved_rate"] for v in levels.values()])),
        "aggregate_mean_return": float(np.mean([v["mean_return"] for v in levels.values()])),
    }


# ---------------------------------------------------------------------------
# checkpoints and buffer snapshots


def _params_to_dict(params: FlatParams):
    return {
        "theta": params.theta.tolist(),
        "adam_m": params.adam_m.tolist(),
        "adam_v": params.adam_v.tolist(),
        "adam_step": params.adam_step,
    }


def _params_from_dict(data):
    return FlatParams(
        np.array(data["theta"], dtype=np.float64),
        np.array(data["adam_m"], dtype=np.float64),
        np.array(data["adam_v"], dtype=np.float64),
        int(data["adam_step"]),
    )


def save_checkpoint(path, cfg, student, predictor, update):
    data = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "update": update,
        "config": dump_config(cfg),
        "policy": _params_to_dict(student.params),
        "dynamics": _params_to_dict(predictor.params),
    }
    with open(path, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")


def load_checkpoint(path):
    """Rebuild (cfg, student, predictor, update) from a checkpoint file."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a checkpoint is a JSON object")
    version = data.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r} (expected {CHECKPOINT_FORMAT_VERSION})")
    cfg = parse_config(data["config"])
    policy = PolicyNetwork(cfg.policy_arch())
    student = Student(policy=policy, params=_params_from_dict(data["policy"]))
    if len(student.params.theta) != policy.net.size:
        raise ValueError("checkpoint policy parameters do not match the configured architecture")
    model = DynamicsModel(cfg.dynamics_arch())
    predictor = Predictor(model=model, params=_params_from_dict(data["dynamics"]))
    if len(predictor.params.theta) != model.net.size:
        raise ValueError("checkpoint dynamics parameters do not match the configured architecture")
    return cfg, student, predictor, int(data["update"])


def save_buffer_snapshot(path, state: CurriculumState):
    data = {
        "t": state.t,
        "next_task_id": state.next_task_id,
        "prev_replay_batch": state.prev_replay_batch,
        "tasks": [
            {
                "task_id": rec.task_id,
                "level": level_to_dict(rec.level),
                "score": rec.score,
                "colearnability": rec.colearnability,
                "last_sampled": rec.last_sampled,
            }
            for rec in state.buffer
        ],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_buffer_snapshot(path, cfg):
    with open(path) as fh:
        data = json.load(fh)
    state = CurriculumState(cfg=cfg, t=int(data["t"]), next_task_id=int(data["next_task_id"]))
    state.prev_replay_batch = [int(tid) for tid in data["prev_replay_batch"]]
    for item in data["tasks"]:
        level = level_from_dict(item["level"])
        state.buffer.append(
            TaskRecord(
                task_id=int(item["task_id"]),
                level=level,
                metrics=level_metrics(level),
                score=float(item["score"]),
                colearnability=float(item["colearnability"]),
                last_sampled=None if item["last_sampled"] is None else int(item["last_sampled"]),
            )
        )
    return state


# ---------------------------------------------------------------------------
# reports


def _read_log(run_dir):
    with open(Path(run_dir) / "logs.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def complexity_series(rows, window):
    """Windowed means of replayed levels' path length and block count.

    Unsolvable levels (path -1) are excluded from the path-length mean but
    counted in the block mean. Returns a list of dicts, one per window that
    contains at least one replay row.
    """
    replay = [r for r in rows if r["phase"] == "replay"]
    series = {}
    for r in replay:
        w = int(r["t"]) // window
        series.setdefault(w, []).append(r)
    out = []
    for w in sorted(series):
        group = series[w]
        paths = [int(r["shortest_path_len"]) for r in group if int(r["shortest_path_len"]) >= 0]
        out.append(
            {
                "window": w,
                "t_start": w * window,
                "t_end": (w + 1) * window - 1,
                "replay_rows": len(group),
                "mean_shortest_path": sum(paths) / len(paths) if paths else None,
                "mean_num_blocks": sum(int(r["num_blocks"]) for r in group) / len(group),
            }
        )
    return out


def emit_report(run_dir, window=None):
    """Digest a run directory into CSV series and SVG charts under <run>/report/.

    window is the number of updates per aggregation window (>= 1); None picks
    about 30 windows over the run.
    """
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    run = Path(run_dir)
    rows = _read_log(run)
    if not rows:
        raise ValueError(f"no log rows in {run}")
    if window is None:
        window = max(1, (max(int(r["t"]) for r in rows) + 1) // 30)
    series = complexity_series(rows, window)
    report_dir = run / "report"
    report_dir.mkdir(exist_ok=True)
    with open(report_dir / "complexity.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "t_start", "t_end", "replay_rows", "mean_shortest_path", "mean_num_blocks"])
        for item in series:
            writer.writerow([_format_cell(item[k]) for k in ("window", "t_start", "t_end", "replay_rows", "mean_shortest_path", "mean_num_blocks")])
    evals = []
    for path in sorted(run.glob("eval_*.json")):
        with open(path) as fh:
            evals.append(json.load(fh))
    evals.sort(key=lambda e: e["update"])
    with open(report_dir / "solved_rate.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["update", "aggregate_solved_rate", "aggregate_mean_return"])
        for e in evals:
            writer.writerow([_format_cell(e[k]) for k in ("update", "aggregate_solved_rate", "aggregate_mean_return")])
    path_points = [(item["t_start"], item["mean_shortest_path"]) for item in series if item["mean_shortest_path"] is not None]
    write_svg_chart(report_dir / "complexity.svg", path_points, "replayed level complexity", "update", "mean shortest path")
    eval_points = [(e["update"], e["aggregate_solved_rate"]) for e in evals]
    write_svg_chart(report_dir / "solved_rate.svg", eval_points, "held-out solved rate", "update", "solved rate")
    return {"report_dir": report_dir, "complexity": series, "evals": evals, "window": window}


def write_svg_chart(path, points, title, xlabel, ylabel):
    """Tiny self-contained line chart (no dependencies, well-formed XML)."""
    width, height = 640, 400
    left, right, top, bottom = 70, 20, 40, 50
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{height / 2}" text-anchor="middle" font-size="12" transform="rotate(-90 18 {height / 2})">{ylabel}</text>',
    ]
    if points:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0
        plot_w = width - left - right
        plot_h = height - top - bottom

        def sx(x):
            return left + (x - x_lo) / x_span * plot_w

        def sy(y):
            return height - bottom - (y - y_lo) / y_span * plot_h

        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
        body.append(f'<polyline points="{coords}" fill="none" stroke="steelblue" stroke-width="2"/>')
        for x, y in points:
            body.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="steelblue"/>')
        body.append(f'<text x="{left}" y="{height - bottom + 16}" font-size="11">{x_lo:g}</text>')
        body.append(f'<text x="{width - right}" y="{height - bottom + 16}" text-anchor="end" font-size="11">{x_hi:g}</text>')
        body.append(f'<text x="{left - 6}" y="{height - bottom}" text-anchor="end" font-size="11">{y_lo:.3g}</text>')
        body.append(f'<text x="{left - 6}" y="{top + 10}" text-anchor="end" font-size="11">{y_hi:.3g}</text>')
    else:
        body.append(f'<text x="{width / 2}" y="{height / 2}" text-anchor="middle" font-size="13">no data</text>')
    body.append("</svg>")
    Path(path).write_text("\n".join(body) + "\n")
