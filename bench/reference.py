"""Reference computations made apart from uedmaze, used to check its outputs.

Levels are plain dicts in uedmaze's JSON level format: width, height (the
outer ring is wall), walls (interior [x, y] cells), agent [x, y, facing],
goal [x, y]. Facing 0 is up (-y), then clockwise. The rules below are the
environment's documented ones, written again here from its description:
actions 0/1 turn left/right, 2 moves forward unless the cell ahead is wall,
3..6 do nothing; reaching the goal after T steps ends the episode with
return 1 - T/T_max, and an episode ends unsolved with return 0 after T_max
steps.
"""

from __future__ import annotations

import json
import math
from collections import deque
from pathlib import Path

import numpy as np

MOVES = ((0, -1), (1, 0), (0, 1), (-1, 0))
NUM_ACTIONS = 7


def _walls(level):
    w, h = level["width"], level["height"]
    walls = {tuple(c) for c in level["walls"]}
    walls.update((x, y) for x in range(w) for y in (0, h - 1))
    walls.update((x, y) for y in range(h) for x in (0, w - 1))
    return walls


def shortest_path(level):
    """Forward moves on the shortest 4-connected path to the goal; -1 when unreachable."""
    walls = _walls(level)
    start = tuple(level["agent"][:2])
    goal = tuple(level["goal"])
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        if (x, y) == goal:
            return dist[(x, y)]
        for dx, dy in MOVES:
            cell = (x + dx, y + dy)
            if cell not in walls and cell not in dist:
                dist[cell] = dist[(x, y)] + 1
                queue.append(cell)
    return -1


def uniform_policy_outcome(level, max_steps):
    """Exact (solve probability, E[return], E[return^2]) under the uniform 7-action policy.

    Dynamic program over (cell, facing): the mass that enters the goal at
    step t adds t's return, the rest walks on until max_steps.
    """
    walls = _walls(level)
    goal = tuple(level["goal"])
    cells = [
        (x, y)
        for y in range(level["height"])
        for x in range(level["width"])
        if (x, y) not in walls and (x, y) != goal
    ]
    index = {(c, d): i for i, (c, d) in enumerate((c, d) for c in cells for d in range(4))}
    stay = np.zeros((len(index), len(index)))
    to_goal = np.zeros(len(index))
    p = 1.0 / NUM_ACTIONS
    for (cell, d), i in index.items():
        stay[i, i] += (NUM_ACTIONS - 3) * p
        stay[i, index[(cell, (d - 1) % 4)]] += p
        stay[i, index[(cell, (d + 1) % 4)]] += p
        ahead = (cell[0] + MOVES[d][0], cell[1] + MOVES[d][1])
        if ahead == goal:
            to_goal[i] += p
        elif ahead in walls:
            stay[i, i] += p
        else:
            stay[i, index[(ahead, d)]] += p
    mass = np.zeros(len(index))
    mass[index[(tuple(level["agent"][:2]), level["agent"][2])]] = 1.0
    solved = mean = second = 0.0
    for t in range(1, max_steps + 1):
        arrive = float(mass @ to_goal)
        ret = 1.0 - t / max_steps
        solved += arrive
        mean += arrive * ret
        second += arrive * ret * ret
        mass = mass @ stay
    return solved, mean, second


def bernstein_radius(variance, n, delta):
    """Half-width that the mean of n i.i.d. values in [0, 1] exceeds with probability <= delta.

    Two-sided Bernstein: P(|mean - mu| >= eps) <= 2 exp(-n eps^2 / (2 var + 2 eps / 3)).
    """
    log_term = math.log(2.0 / delta)
    return (log_term / 3.0 + math.sqrt(log_term**2 / 9.0 + 2.0 * n * variance * log_term)) / n


def random_level(size, rng):
    """A size x size level with a random wall count and random agent, facing and goal."""
    interior = [(x, y) for y in range(1, size - 1) for x in range(1, size - 1)]
    n_walls = int(rng.integers(0, len(interior) // 2))
    picks = rng.permutation(len(interior))
    walls = sorted(list(interior[i]) for i in picks[:n_walls])
    agent, goal = interior[picks[n_walls]], interior[picks[n_walls + 1]]
    return {
        "width": size,
        "height": size,
        "walls": walls,
        "agent": [agent[0], agent[1], int(rng.integers(0, 4))],
        "goal": [goal[0], goal[1]],
    }


def make_suite(seed, bands, size, max_steps, block=1000):
    """One random level per solve-probability band, drawn from the seed.

    Returns [(name, level dict, (solve probability, E[return], E[return^2]))]
    in band order. Candidates are drawn and solved in whole blocks, so the
    set-up cost hardly depends on the seed: the rarest band, [0.85, 0.9)
    at 7x7 and 80 steps, holds about 0.7% of solvable levels.
    """
    rng = np.random.default_rng([seed, 11])
    found = {}
    while len(found) < len(bands):
        for _ in range(block):
            level = random_level(size, rng)
            if shortest_path(level) < 0:
                continue
            outcome = uniform_policy_outcome(level, max_steps)
            for k, (lo, hi) in enumerate(bands):
                if lo <= outcome[0] < hi and k not in found:
                    found[k] = (f"band{k}", level, outcome)
    return [found[k] for k in range(len(bands))]


def write_suite(suite, directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, level, _ in suite:
        (directory / f"{name}.json").write_text(json.dumps(level))
