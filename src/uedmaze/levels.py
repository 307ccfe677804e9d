"""Maze level representation, procedural generation, mutation, and metrics.

A level is a rectangular grid. The outermost ring of cells is always wall;
`walls` lists additional blocked interior cells. The agent starts on a free
interior cell with a facing direction, the goal sits on a different free
interior cell. Generation places walls first and the agent/goal afterwards,
so solvability is *not* guaranteed: unsolvable levels are legal and are left
to the curriculum to score near zero.

Directions: 0 = up (-y), 1 = right (+x), 2 = down (+y), 3 = left (-x).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

NUM_DIRECTIONS = 4

# dx, dy per direction, clockwise from "up"; y grows downward
DIR_VECTORS = ((0, -1), (1, 0), (0, 1), (-1, 0))

# relative frequency of each primitive edit kind
EDIT_WALL_TOGGLE_P = 0.8
EDIT_GOAL_MOVE_P = 0.1
# remaining 0.1 relocates the agent start

AGENT_GLYPHS = "^>v<"


@dataclass(frozen=True)
class Level:
    """Immutable maze description.

    width, height: full grid size including the implicit wall border (odd, >= 5)
    walls: frozenset of blocked interior (x, y) cells
    agent_pos, agent_dir: start cell and facing direction
    goal_pos: target cell
    """

    width: int
    height: int
    walls: frozenset
    agent_pos: tuple
    agent_dir: int
    goal_pos: tuple

    def validate(self):
        if self.width < 5 or self.height < 5 or self.width % 2 == 0 or self.height % 2 == 0:
            raise ValueError(f"grid must be odd-sized and at least 5x5, got {self.width}x{self.height}")
        if not 0 <= self.agent_dir < NUM_DIRECTIONS:
            raise ValueError(f"agent_dir out of range: {self.agent_dir}")
        for name, cell in (("agent", self.agent_pos), ("goal", self.goal_pos)):
            if not self.in_interior(cell):
                raise ValueError(f"{name} cell {cell} outside the interior")
            if cell in self.walls:
                raise ValueError(f"{name} cell {cell} is a wall")
        if self.agent_pos == self.goal_pos:
            raise ValueError("agent and goal share a cell")
        for cell in self.walls:
            if not self.in_interior(cell):
                raise ValueError(f"wall cell {cell} outside the interior")
        return self

    def in_interior(self, cell):
        x, y = cell
        return 1 <= x <= self.width - 2 and 1 <= y <= self.height - 2

    def is_wall(self, x, y):
        """True for border cells and listed interior walls; False elsewhere (including out of bounds)."""
        if x <= 0 or y <= 0 or x >= self.width - 1 or y >= self.height - 1:
            return 0 <= x < self.width and 0 <= y < self.height
        return (x, y) in self.walls


@dataclass(frozen=True)
class LevelMetrics:
    """shortest_path_len counts forward moves, None when the goal is unreachable."""

    shortest_path_len: int | None
    num_blocks: int


def generate_random_level(width, height, max_blocks, rng, min_blocks=0):
    """Sample a fresh level: wall count ~ uniform{min_blocks..max_blocks}, then placements.

    Wall cells are distinct interior cells; the count is capped so at least two
    free cells remain for the agent and goal. Deterministic given the rng state.
    """
    if width < 5 or height < 5 or width % 2 == 0 or height % 2 == 0:
        raise ValueError(f"grid must be odd-sized and at least 5x5, got {width}x{height}")
    if max_blocks < 0:
        raise ValueError(f"max_blocks must be >= 0, got {max_blocks}")
    if not 0 <= min_blocks <= max_blocks:
        raise ValueError(f"min_blocks must be in 0..max_blocks, got {min_blocks}")
    interior = [(x, y) for y in range(1, height - 1) for x in range(1, width - 1)]
    n_blocks = int(rng.integers(min_blocks, max_blocks + 1))
    n_blocks = min(n_blocks, len(interior) - 2)
    wall_idx = rng.choice(len(interior), size=n_blocks, replace=False)
    walls = frozenset(interior[i] for i in wall_idx)
    free = [c for c in interior if c not in walls]
    spots = rng.choice(len(free), size=2, replace=False)
    agent_pos, goal_pos = free[spots[0]], free[spots[1]]
    agent_dir = int(rng.integers(0, NUM_DIRECTIONS))
    return Level(width, height, walls, agent_pos, agent_dir, goal_pos).validate()


def mutate_level(level, n_edits, max_blocks, rng):
    """Apply n_edits primitive edits, resampling any draw that would break invariants.

    Edit kinds: toggle one interior wall cell (p=0.8), relocate the goal (p=0.1),
    relocate the agent start with a fresh direction (p=0.1). Returns a new Level;
    the input is unchanged.
    """
    if n_edits < 1:
        raise ValueError(f"n_edits must be >= 1, got {n_edits}")
    walls = set(level.walls)
    agent_pos, agent_dir, goal_pos = level.agent_pos, level.agent_dir, level.goal_pos
    interior = [(x, y) for y in range(1, level.height - 1) for x in range(1, level.width - 1)]
    for _ in range(n_edits):
        while True:
            kind = rng.random()
            if kind < EDIT_WALL_TOGGLE_P:
                cell = interior[int(rng.integers(0, len(interior)))]
                if cell == agent_pos or cell == goal_pos:
                    continue
                if cell in walls:
                    walls.remove(cell)
                elif len(walls) < max_blocks:
                    walls.add(cell)
                else:
                    continue
                break
            free = [c for c in interior if c not in walls]
            if kind < EDIT_WALL_TOGGLE_P + EDIT_GOAL_MOVE_P:
                options = [c for c in free if c != agent_pos and c != goal_pos]
                if not options:
                    continue
                goal_pos = options[int(rng.integers(0, len(options)))]
            else:
                options = [c for c in free if c != goal_pos and c != agent_pos]
                if not options:
                    continue
                agent_pos = options[int(rng.integers(0, len(options)))]
                agent_dir = int(rng.integers(0, NUM_DIRECTIONS))
            break
    return Level(level.width, level.height, frozenset(walls), agent_pos, agent_dir, goal_pos).validate()


def shortest_path_length(level):
    """BFS over free cells, 4-connected; counts forward moves, turns are free.

    Returns None when no path exists.
    """
    start, goal = level.agent_pos, level.goal_pos
    if start == goal:
        return 0
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        (x, y), dist = frontier.popleft()
        for dx, dy in DIR_VECTORS:
            nxt = (x + dx, y + dy)
            if nxt == goal:
                return dist + 1
            if nxt not in seen and not level.is_wall(*nxt):
                seen.add(nxt)
                frontier.append((nxt, dist + 1))
    return None


def level_metrics(level):
    path = shortest_path_length(level)
    return LevelMetrics(shortest_path_len=path, num_blocks=len(level.walls))


def level_to_dict(level):
    return {
        "width": level.width,
        "height": level.height,
        "walls": sorted([list(c) for c in level.walls]),
        "agent": [level.agent_pos[0], level.agent_pos[1], level.agent_dir],
        "goal": [level.goal_pos[0], level.goal_pos[1]],
    }


def level_from_dict(data):
    try:
        walls = frozenset((int(x), int(y)) for x, y in data["walls"])
        ax, ay, adir = data["agent"]
        gx, gy = data["goal"]
        level = Level(
            int(data["width"]),
            int(data["height"]),
            walls,
            (int(ax), int(ay)),
            int(adir),
            (int(gx), int(gy)),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed level record: {exc}") from exc
    return level.validate()


def save_level(level, path):
    with open(path, "w") as fh:
        json.dump(level_to_dict(level), fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_ascii(level):
    """Debug rendering: '#' wall, '.' free, 'G' goal, agent as ^/>/v/< by facing."""
    rows = []
    for y in range(level.height):
        row = []
        for x in range(level.width):
            if (x, y) == level.agent_pos:
                row.append(AGENT_GLYPHS[level.agent_dir])
            elif (x, y) == level.goal_pos:
                row.append("G")
            elif level.is_wall(x, y):
                row.append("#")
            else:
                row.append(".")
        rows.append("".join(row))
    return "\n".join(rows)


def parse_ascii(text):
    """Inverse of render_ascii; 'A' is accepted as an agent facing up."""
    rows = [line for line in text.strip("\n").splitlines()]
    height = len(rows)
    width = len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        raise ValueError("ragged ascii level")
    walls = set()
    agent_pos = agent_dir = goal_pos = None
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            border = x == 0 or y == 0 or x == width - 1 or y == height - 1
            if ch == "#":
                if not border:
                    walls.add((x, y))
            elif ch == "G":
                goal_pos = (x, y)
            elif ch in AGENT_GLYPHS or ch == "A":
                agent_pos = (x, y)
                agent_dir = 0 if ch == "A" else AGENT_GLYPHS.index(ch)
            elif ch != ".":
                raise ValueError(f"unknown glyph {ch!r} at {(x, y)}")
            if border and ch != "#":
                raise ValueError(f"border cell {(x, y)} must be wall")
    if agent_pos is None or goal_pos is None:
        raise ValueError("ascii level needs both an agent and a goal")
    return Level(width, height, frozenset(walls), agent_pos, agent_dir, goal_pos).validate()
