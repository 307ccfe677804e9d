import heapq
import json

import numpy as np
import pytest

from uedmaze.levels import (
    Level,
    generate_random_level,
    level_from_dict,
    level_metrics,
    level_to_dict,
    mutate_level,
    parse_ascii,
    render_ascii,
    shortest_path_length,
)


def dijkstra_path_length(level):
    """Independent shortest-path check (priority queue over free cells)."""
    start, goal = level.agent_pos, level.goal_pos
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        d, (x, y) = heapq.heappop(heap)
        if (x, y) == goal:
            return d
        if d > dist.get((x, y), float("inf")):
            continue
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if level.is_wall(nx, ny):
                continue
            if d + 1 < dist.get((nx, ny), float("inf")):
                dist[(nx, ny)] = d + 1
                heapq.heappush(heap, (d + 1, (nx, ny)))
    return None


def test_generation_is_deterministic():
    a = generate_random_level(11, 11, 25, np.random.default_rng(5))
    b = generate_random_level(11, 11, 25, np.random.default_rng(5))
    assert a == b


def test_generated_levels_satisfy_invariants():
    rng = np.random.default_rng(0)
    for _ in range(300):
        level = generate_random_level(9, 9, 20, rng)
        level.validate()
        assert len(level.walls) <= 20
        assert level.agent_pos != level.goal_pos
        assert level.agent_pos not in level.walls
        assert level.goal_pos not in level.walls


def test_min_blocks_bounds_the_wall_count_draw():
    rng = np.random.default_rng(3)
    counts = set()
    for _ in range(200):
        level = generate_random_level(11, 11, 40, rng, min_blocks=30)
        level.validate()
        assert 30 <= len(level.walls) <= 40
        counts.add(len(level.walls))
    assert len(counts) > 1  # actually samples the range, not one endpoint
    fixed = generate_random_level(9, 9, 12, rng, min_blocks=12)
    assert len(fixed.walls) == 12
    with pytest.raises(ValueError):
        generate_random_level(9, 9, 10, rng, min_blocks=11)
    with pytest.raises(ValueError):
        generate_random_level(9, 9, 10, rng, min_blocks=-1)


def test_mutation_preserves_invariants_over_many_edits():
    rng = np.random.default_rng(1)
    level = generate_random_level(9, 9, 15, rng)
    for _ in range(10_000):
        level = mutate_level(level, 3, 15, rng)
    level.validate()
    assert len(level.walls) <= 15
    assert level.width == level.height == 9


def test_mutation_changes_the_level():
    rng = np.random.default_rng(2)
    level = generate_random_level(9, 9, 15, rng)
    changed = sum(mutate_level(level, 2, 15, rng) != level for _ in range(50))
    assert changed == 50


def test_bfs_matches_dijkstra_on_random_levels():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        level = generate_random_level(int(rng.choice([5, 7, 9, 11])), 9, 18, rng)
        assert shortest_path_length(level) == dijkstra_path_length(level)


def test_straight_corridor_path_length():
    level = Level(5, 5, frozenset(), (1, 1), 1, (3, 1)).validate()
    assert shortest_path_length(level) == 2


def test_unsolvable_level_reports_none():
    walls = frozenset({(2, 1), (2, 2), (2, 3), (1, 2)})
    level = Level(5, 5, walls, (1, 1), 0, (3, 3)).validate()
    assert shortest_path_length(level) is None
    metrics = level_metrics(level)
    assert metrics.shortest_path_len is None
    assert metrics.num_blocks == 4


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    for _ in range(25):
        level = generate_random_level(11, 11, 30, rng)
        assert level_from_dict(level_to_dict(level)) == level
    text = json.dumps(level_to_dict(level))
    assert level_from_dict(json.loads(text)) == level


def test_ascii_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(25):
        level = generate_random_level(9, 9, 12, rng)
        assert parse_ascii(render_ascii(level)) == level


def test_parse_ascii_rejects_broken_borders():
    bad = "#####\n#^.G.\n#...#\n#...#\n#####"
    with pytest.raises(ValueError):
        parse_ascii(bad)


def test_validate_rejects_even_and_tiny_grids():
    with pytest.raises(ValueError):
        Level(4, 5, frozenset(), (1, 1), 0, (2, 2)).validate()
    with pytest.raises(ValueError):
        Level(3, 3, frozenset(), (1, 1), 0, (1, 1)).validate()


def test_validate_rejects_overlaps():
    with pytest.raises(ValueError):
        Level(5, 5, frozenset(), (1, 1), 0, (1, 1)).validate()
    with pytest.raises(ValueError):
        Level(5, 5, frozenset({(1, 1)}), (1, 1), 0, (3, 3)).validate()
    with pytest.raises(ValueError):
        Level(5, 5, frozenset({(0, 1)}), (1, 1), 0, (3, 3)).validate()
