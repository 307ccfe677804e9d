"""Partially observable maze environment.

The agent sees a 5x5 egocentric window (itself at the bottom-center cell,
facing the top of the window) one-hot encoded over {empty, wall, goal,
out-of-bounds}, plus a one-hot facing direction. Seven discrete actions:
0 turn left, 1 turn right, 2 move forward (blocked by walls), 3..6 do
nothing but still consume a step. The only reward is 1 - T/T_max on
reaching the goal after T steps; episodes end at the goal or after
max_episode_steps. Dynamics are fully deterministic.

Observations are read-only rows of a per-level table holding the observation
of every (cell, facing), built in one vectorised pass and shared by envs on
equal levels: a step is one row lookup, at MazeEnv.state_index when flattened.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .levels import DIR_VECTORS, NUM_DIRECTIONS, Level

CLASS_EMPTY = 0
CLASS_WALL = 1
CLASS_GOAL = 2
CLASS_OOB = 3
NUM_CELL_CLASSES = 4

VIEW_SIZE = 5
VIEW_PAD = 4  # max |offset| between agent and a viewed cell

NUM_ACTIONS = 7
ACTION_LEFT = 0
ACTION_RIGHT = 1
ACTION_FORWARD = 2

OBS_IMAGE_DIM = VIEW_SIZE * VIEW_SIZE * NUM_CELL_CLASSES
OBS_DIM = OBS_IMAGE_DIM + NUM_DIRECTIONS

_EYE_CLASSES = np.eye(NUM_CELL_CLASSES)
_EYE_DIRECTIONS = np.eye(NUM_DIRECTIONS)


def _view_offsets():
    """(facing, view cell, (dx, dy)) offsets from the agent to each view cell, row-major.

    View row 0 is furthest ahead, row 4 contains the agent at column 2;
    columns run left to right from the agent's perspective.
    """
    forward = np.repeat(np.arange(VIEW_SIZE - 1, -1, -1), VIEW_SIZE)[:, None]
    lateral = np.tile(np.arange(VIEW_SIZE) - VIEW_SIZE // 2, VIEW_SIZE)[:, None]
    ahead = np.array(DIR_VECTORS)[:, None, :]
    return forward * ahead + lateral * np.roll(ahead, -1, axis=0)  # the next facing clockwise points right


_VIEW_OFFSETS = _view_offsets()


@lru_cache(maxsize=2)
def observation_table(level):
    """Read-only (height, width, 4, OBS_DIM) float64 array; [y, x, d] is the observation at (x, y) facing d.

    Cached for the two most recent levels: each rollout or evaluation steps the envs of one level.
    """
    grid = np.full((level.height + 2 * VIEW_PAD, level.width + 2 * VIEW_PAD), CLASS_OOB, dtype=np.intp)
    inside = grid[VIEW_PAD:-VIEW_PAD, VIEW_PAD:-VIEW_PAD]
    inside[:] = CLASS_WALL
    inside[1:-1, 1:-1] = CLASS_EMPTY
    if level.walls:
        wall_x, wall_y = np.array(list(level.walls)).T
        inside[wall_y, wall_x] = CLASS_WALL
    gx, gy = level.goal_pos
    inside[gy, gx] = CLASS_GOAL
    ys, xs = np.mgrid[VIEW_PAD : VIEW_PAD + level.height, VIEW_PAD : VIEW_PAD + level.width]
    classes = grid[
        ys[:, :, None, None] + _VIEW_OFFSETS[:, :, 1],
        xs[:, :, None, None] + _VIEW_OFFSETS[:, :, 0],
    ]  # (height, width, facing, view cell)
    image = _EYE_CLASSES[classes].reshape(level.height, level.width, NUM_DIRECTIONS, OBS_IMAGE_DIM)
    direction = np.broadcast_to(_EYE_DIRECTIONS, image.shape[:2] + _EYE_DIRECTIONS.shape)
    table = np.concatenate([image, direction], axis=-1)
    table.flags.writeable = False
    return table


class Observation:
    """One read-only observation-table row."""

    __slots__ = ("_row",)

    def __init__(self, row):
        self._row = row

    def vector(self):
        """Flat read-only float64 feature vector of length OBS_DIM: the (5, 5, 4) one-hot cell
        classes of the egocentric view in C order, then the (4,) one-hot facing."""
        return self._row


class MazeEnv:
    """Single-level episodic environment. reset() before stepping; step() after done raises."""

    def __init__(self, level: Level, max_episode_steps: int):
        if max_episode_steps < 1:
            raise ValueError(f"max_episode_steps must be >= 1, got {max_episode_steps}")
        level.validate()
        self.level = level
        self.max_episode_steps = max_episode_steps
        self.table = observation_table(level)  # read-only; .reshape(-1, OBS_DIM)[state_index] is the observation
        self.agent_pos = level.agent_pos
        self.agent_dir = level.agent_dir
        self.t = 0
        self.done = False
        self._started = False

    def reset(self):
        self.agent_pos = self.level.agent_pos
        self.agent_dir = self.level.agent_dir
        self.t = 0
        self.done = False
        self._started = True
        return self._observe()

    def step(self, action):
        """Advance one step; returns (observation, reward, done)."""
        if not self._started:
            raise RuntimeError("call reset() before step()")
        if self.done:
            raise RuntimeError("step() after the episode ended; call reset()")
        if not 0 <= action < NUM_ACTIONS:
            raise ValueError(f"action out of range: {action}")
        if action == ACTION_LEFT:
            self.agent_dir = (self.agent_dir - 1) % NUM_DIRECTIONS
        elif action == ACTION_RIGHT:
            self.agent_dir = (self.agent_dir + 1) % NUM_DIRECTIONS
        elif action == ACTION_FORWARD:
            dx, dy = DIR_VECTORS[self.agent_dir]
            target = (self.agent_pos[0] + dx, self.agent_pos[1] + dy)
            if not self.level.is_wall(*target):
                self.agent_pos = target
        self.t += 1
        reward = 0.0
        if self.agent_pos == self.level.goal_pos:
            self.done = True
            reward = 1.0 - self.t / self.max_episode_steps
        elif self.t >= self.max_episode_steps:
            self.done = True
        return self._observe(), reward, self.done

    @property
    def state_index(self):
        """Row of the current observation in observation_table(level).reshape(-1, OBS_DIM)."""
        x, y = self.agent_pos
        return (y * self.level.width + x) * NUM_DIRECTIONS + self.agent_dir

    def _observe(self):
        x, y = self.agent_pos
        return Observation(self.table[y, x, self.agent_dir])
