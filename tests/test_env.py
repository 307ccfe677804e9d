import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uedmaze.env import (
    ACTION_FORWARD,
    ACTION_LEFT,
    ACTION_RIGHT,
    CLASS_EMPTY,
    CLASS_GOAL,
    CLASS_OOB,
    CLASS_WALL,
    MazeEnv,
    NUM_ACTIONS,
    NUM_CELL_CLASSES,
    OBS_DIM,
    OBS_IMAGE_DIM,
    VIEW_SIZE,
    observation_table,
)
from uedmaze.levels import Level


def view_and_facing(obs):
    """The observation's (5, 5, 4) one-hot cell classes and (4,) one-hot facing, read from vector()."""
    vec = obs.vector()
    return vec[:OBS_IMAGE_DIM].reshape(VIEW_SIZE, VIEW_SIZE, NUM_CELL_CLASSES), vec[OBS_IMAGE_DIM:]


def corridor(goal_x=2):
    return Level(5, 5, frozenset(), (1, 1), 1, (goal_x, 1)).validate()


def test_goal_reward_follows_elapsed_time():
    env = MazeEnv(corridor(goal_x=2), 250)
    env.reset()
    obs, reward, done = env.step(ACTION_FORWARD)
    assert done and reward == 1 - 1 / 250
    env = MazeEnv(corridor(goal_x=3), 250)
    env.reset()
    env.step(ACTION_FORWARD)
    _, reward, done = env.step(ACTION_FORWARD)
    assert done and reward == 1 - 2 / 250


def test_timeout_gives_zero_reward():
    env = MazeEnv(corridor(), 3)
    env.reset()
    total = 0.0
    for _ in range(3):
        _, r, done = env.step(ACTION_LEFT)
        total += r
    assert done and total == 0.0


def test_noop_actions_change_nothing_but_time():
    env = MazeEnv(corridor(), 100)
    env.reset()
    for action in range(3, NUM_ACTIONS):
        _, r, done = env.step(action)
        assert env.agent_pos == (1, 1) and env.agent_dir == 1
        assert r == 0.0 and not done
    assert env.t == NUM_ACTIONS - 3


def test_turning_cycles_all_directions():
    env = MazeEnv(corridor(), 100)
    env.reset()
    seen = [env.agent_dir]
    for _ in range(4):
        env.step(ACTION_RIGHT)
        seen.append(env.agent_dir)
    assert seen == [1, 2, 3, 0, 1]
    env.step(ACTION_LEFT)
    assert env.agent_dir == 0


def test_walls_and_border_block_movement():
    level = Level(5, 5, frozenset({(2, 1)}), (1, 1), 1, (3, 3)).validate()
    env = MazeEnv(level, 100)
    env.reset()
    env.step(ACTION_FORWARD)  # into the wall at (2, 1)
    assert env.agent_pos == (1, 1)
    env.step(ACTION_LEFT)  # face up, border above
    env.step(ACTION_FORWARD)
    assert env.agent_pos == (1, 1)


def test_view_is_egocentric_with_agent_bottom_center():
    # facing up: the cell directly ahead appears one row above the agent slot
    level = Level(7, 7, frozenset({(3, 2)}), (3, 3), 0, (5, 5)).validate()
    view, facing = view_and_facing(MazeEnv(level, 100).reset())
    assert view[3, 2, CLASS_WALL] == 1.0  # (3, 2) is straight ahead
    assert view[4, 2].sum() == 1.0  # agent's own cell is visible and empty
    assert facing.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_view_rotates_with_the_agent():
    level = Level(7, 7, frozenset({(4, 3)}), (3, 3), 1, (5, 5)).validate()
    view, facing = view_and_facing(MazeEnv(level, 100).reset())  # facing right: (4, 3) is straight ahead
    assert view[3, 2, CLASS_WALL] == 1.0
    assert facing.tolist() == [0.0, 1.0, 0.0, 0.0]


def test_view_marks_out_of_bounds_and_goal():
    level = Level(5, 5, frozenset(), (1, 1), 0, (2, 1)).validate()
    view, _ = view_and_facing(MazeEnv(level, 100).reset())
    # facing up from (1, 1): two rows ahead is outside the grid entirely
    assert view[0, 2, CLASS_OOB] == 1.0
    assert view[4, 3, CLASS_GOAL] == 1.0  # goal right of the agent


def test_observation_vector_layout():
    obs = MazeEnv(corridor(), 100).reset()
    assert obs.vector().shape == (OBS_DIM,)
    view, facing = view_and_facing(obs)
    assert np.array_equal(view.sum(axis=2), np.ones((VIEW_SIZE, VIEW_SIZE)))  # one class per viewed cell
    assert facing.tolist() == [0.0, 1.0, 0.0, 0.0]


def test_step_contract_violations_raise():
    env = MazeEnv(corridor(), 100)
    with pytest.raises(RuntimeError):
        env.step(ACTION_FORWARD)
    env.reset()
    with pytest.raises(ValueError):
        env.step(NUM_ACTIONS)
    env.step(ACTION_FORWARD)  # reaches the goal
    with pytest.raises(RuntimeError):
        env.step(ACTION_FORWARD)


def test_deterministic_given_actions():
    level = Level(9, 9, frozenset({(3, 3), (4, 5)}), (1, 1), 1, (7, 7)).validate()
    rng = np.random.default_rng(0)
    actions = rng.integers(0, NUM_ACTIONS, size=60)
    results = []
    for _ in range(2):
        env = MazeEnv(level, 100)
        env.reset()
        trace = []
        for a in actions:
            obs, r, done = env.step(int(a))
            trace.append((obs.vector().tobytes(), r, done))
            if done:
                break
        results.append(trace)
    assert results[0] == results[1]


def test_observations_are_read_only():
    env = MazeEnv(corridor(goal_x=3), 100)
    with pytest.raises(ValueError):
        env.reset().vector()[0] = 1.0
    obs, _, _ = env.step(ACTION_LEFT)
    with pytest.raises(ValueError):
        obs.vector()[0] = 1.0


def test_equal_levels_share_one_table():
    twin = Level(5, 5, frozenset(), (1, 1), 1, (2, 1))
    assert twin is not corridor() and observation_table(twin) is observation_table(corridor())


# Reference observation, computed cell by cell from the documented rules.
FORWARD = {0: (0, -1), 1: (1, 0), 2: (0, 1), 3: (-1, 0)}  # up, right, down, left; y grows downward


def reference_class(level, x, y):
    if not (0 <= x < level.width and 0 <= y < level.height):
        return CLASS_OOB
    if (x, y) == level.goal_pos:
        return CLASS_GOAL
    border = x in (0, level.width - 1) or y in (0, level.height - 1)
    return CLASS_WALL if border or (x, y) in level.walls else CLASS_EMPTY


def reference_observation(level, x, y, facing):
    """View rows run from 4 cells ahead (row 0) to the agent's row (row 4, agent at column 2);
    columns run left to right as the agent sees them."""
    fx, fy = FORWARD[facing]
    rx, ry = -fy, fx  # the agent's right hand
    vec = np.zeros(OBS_DIM)
    for row in range(5):
        for col in range(5):
            ahead, right = 4 - row, col - 2
            cell_class = reference_class(level, x + ahead * fx + right * rx, y + ahead * fy + right * ry)
            vec[(row * 5 + col) * 4 + cell_class] = 1.0
    vec[OBS_IMAGE_DIM + facing] = 1.0
    return vec


@st.composite
def random_levels(draw):
    width, height = (2 * draw(st.integers(2, 7)) + 1 for _ in range(2))
    interior = [(x, y) for y in range(1, height - 1) for x in range(1, width - 1)]
    cells = draw(st.permutations(interior))
    num_walls = draw(st.integers(0, len(interior) - 2))
    walls = frozenset(cells[2 : 2 + num_walls])
    return Level(width, height, walls, cells[0], draw(st.integers(0, 3)), cells[1]).validate()


@settings(max_examples=60, deadline=None, database=None)
@given(random_levels())
def test_table_matches_reference_on_every_free_cell_and_facing(level):
    table = observation_table(level)
    assert table.shape == (level.height, level.width, 4, OBS_DIM) and table.dtype == np.float64
    assert not table.flags.writeable
    for y in range(1, level.height - 1):
        for x in range(1, level.width - 1):
            if (x, y) not in level.walls:
                for facing in range(4):
                    assert np.array_equal(table[y, x, facing], reference_observation(level, x, y, facing)), (x, y, facing)


@settings(max_examples=60, deadline=None, database=None)
@given(random_levels(), st.lists(st.integers(0, NUM_ACTIONS - 1), min_size=1, max_size=80))
def test_random_actions_match_reference_stepped_alongside(level, actions):
    max_steps = 60
    env = MazeEnv(level, max_steps)
    rows = observation_table(level).reshape(-1, OBS_DIM)  # indexed by env.state_index
    (x, y), facing = level.agent_pos, level.agent_dir
    first = env.reset().vector()
    assert np.array_equal(first, reference_observation(level, x, y, facing))
    assert np.array_equal(rows[env.state_index], first)
    for t, action in enumerate(actions, start=1):
        if action == ACTION_LEFT:
            facing = (facing - 1) % 4
        elif action == ACTION_RIGHT:
            facing = (facing + 1) % 4
        elif action == ACTION_FORWARD:
            ahead = (x + FORWARD[facing][0], y + FORWARD[facing][1])
            if reference_class(level, *ahead) in (CLASS_EMPTY, CLASS_GOAL):
                x, y = ahead
        at_goal = (x, y) == level.goal_pos
        obs, reward, done = env.step(action)
        assert np.array_equal(obs.vector(), reference_observation(level, x, y, facing)), t
        assert np.array_equal(rows[env.state_index], obs.vector()), t
        assert reward == (1.0 - t / max_steps if at_goal else 0.0)
        assert done == (at_goal or t >= max_steps)
        if done:
            break
