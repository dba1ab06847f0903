"""Tests for the blockage grid and tau-feasible shortest paths (Sec. 3.8)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.grid import blockgrid
from repro.grid.blockgrid import (
    BlockageGrid,
    blockage_grid_coordinates,
    min_segment_length,
    path_segments,
    point_buried,
)
from repro.obs import OBS


def _grid(obstacles, tau, bbox, terminals):
    return BlockageGrid(obstacles, tau, bbox, terminals)


class TestCoordinates:
    def test_includes_terminals_and_borders(self):
        xs, ys = blockage_grid_coordinates(
            [Rect(100, 100, 200, 200)], [(10, 20), (300, 310)], tau=40,
            bbox=Rect(0, 0, 400, 400),
        )
        for coord in (10, 100, 200, 300):
            assert coord in xs
        for coord in (20, 100, 200, 310):
            assert coord in ys

    def test_tau_refinement_present(self):
        xs, _ys = blockage_grid_coordinates(
            [Rect(100, 0, 130, 10)], [(0, 0)], tau=40, bbox=Rect(0, 0, 400, 400)
        )
        # 100 and 130 are closer than 4*tau: tau-offsets appear around them.
        assert 100 + 40 in xs
        assert 130 + 40 in xs

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            BlockageGrid([], 0, Rect(0, 0, 10, 10))


class TestShortestPath:
    def test_straight_line(self):
        grid = _grid([], 40, Rect(0, 0, 1000, 1000), [(0, 0), (500, 0)])
        result = grid.shortest_path([(0, 0)], [(500, 0)])
        assert result is not None
        length, points = result
        assert length == 500
        assert points[0] == (0, 0) and points[-1] == (500, 0)

    def test_l_shape(self):
        grid = _grid([], 40, Rect(0, 0, 1000, 1000), [(0, 0), (300, 400)])
        length, points = grid.shortest_path([(0, 0)], [(300, 400)])
        assert length == 700
        assert min_segment_length(points) >= 40

    def test_source_equals_target(self):
        grid = _grid([], 40, Rect(0, 0, 100, 100), [(50, 50)])
        assert grid.shortest_path([(50, 50)], [(50, 50)]) == (0, [(50, 50)])

    def test_detours_around_obstacle(self):
        wall = Rect(200, 0, 240, 800)
        grid = _grid([wall], 40, Rect(0, 0, 1000, 1000), [(0, 400), (500, 400)])
        length, points = grid.shortest_path([(0, 400)], [(500, 400)])
        # Must climb over the wall: detour of 2 * (800 - 400).
        assert length == 500 + 2 * 400
        for a, b in path_segments(points):
            seg = Rect.from_points(a[0], a[1], b[0], b[1])
            assert not seg.intersects_open(wall)

    def test_no_path_when_walled_in(self):
        walls = [
            Rect(100, 100, 400, 140),
            Rect(100, 360, 400, 400),
            Rect(100, 100, 140, 400),
            Rect(360, 100, 400, 400),
        ]
        grid = _grid(walls, 40, Rect(0, 0, 500, 500), [(250, 250), (450, 450)])
        assert grid.shortest_path([(250, 250)], [(450, 450)]) is None

    def test_minimum_segment_length_enforced(self):
        """Fig. 5 scenario: narrow offset forces tau-long segments."""
        tau = 100
        # Target offset by only 20 in y: a geometric shortest path would
        # use a 20-long jog, violating tau.
        grid = _grid([], tau, Rect(0, 0, 2000, 2000), [(0, 0), (500, 20)])
        result = grid.shortest_path([(0, 0)], [(500, 20)])
        assert result is not None
        length, points = result
        assert min_segment_length(points) >= tau
        # The path is longer than the l1 distance (it must overshoot).
        assert length > 520

    def test_path_segments_all_tau_long(self):
        tau = 80
        obstacles = [Rect(300, 0, 380, 500), Rect(600, 200, 680, 1000)]
        grid = _grid(
            obstacles, tau, Rect(0, 0, 1000, 1000), [(0, 600), (900, 100)]
        )
        result = grid.shortest_path([(0, 600)], [(900, 100)])
        assert result is not None
        _length, points = result
        assert min_segment_length(points) >= tau

    def test_multiple_sources_and_targets(self):
        grid = _grid(
            [], 40, Rect(0, 0, 1000, 1000),
            [(0, 0), (0, 900), (800, 0), (900, 900)],
        )
        length, points = grid.shortest_path(
            [(0, 0), (0, 900)], [(800, 0), (900, 900)]
        )
        # Closest pair is (0,0)-(800,0).
        assert length == 800

    def test_off_grid_terminal_raises(self):
        grid = _grid([], 40, Rect(0, 0, 100, 100), [(0, 0)])
        with pytest.raises(ValueError):
            grid.shortest_path([(0, 0)], [(33, 33)])

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 900), st.integers(0, 900),
        st.integers(0, 900), st.integers(0, 900),
    )
    def test_lower_bound_is_l1(self, x0, y0, x1, y1):
        tau = 50
        grid = _grid([], tau, Rect(0, 0, 1000, 1000), [(x0, y0), (x1, y1)])
        result = grid.shortest_path([(x0, y0)], [(x1, y1)])
        l1 = abs(x0 - x1) + abs(y0 - y1)
        if result is None:
            return
        length, points = result
        assert length >= l1
        assert min_segment_length(points) >= tau or length == 0
        # In unobstructed space with both offsets >= tau (or zero), the
        # path achieves the l1 distance exactly.
        dx, dy = abs(x0 - x1), abs(y0 - y1)
        if (dx == 0 or dx >= tau) and (dy == 0 or dy >= tau):
            assert length == l1


class TestBuriedTerminals:
    """A terminal strictly inside an obstacle ends the search before any
    heap work: only source == target can succeed there."""

    WALL = Rect(400, 400, 600, 600)
    BURIED = (500, 500)
    FREE = (100, 100)

    @pytest.fixture(autouse=True)
    def _obs_on_no_heap(self, monkeypatch):
        OBS.reset()
        OBS.configure(enabled=True)

        def no_heap():
            raise AssertionError("the search must not build a heap")

        monkeypatch.setattr(blockgrid, "AddressableHeap", no_heap)
        yield
        OBS.reset()
        OBS.enabled = False

    def _grid(self):
        grid = _grid(
            [self.WALL], 40, Rect(0, 0, 1000, 1000), [self.BURIED, self.FREE]
        )
        assert point_buried(self.BURIED, [self.WALL])
        assert not point_buried(self.FREE, [self.WALL])
        return grid

    def test_buried_target_returns_none_with_zero_pops(self):
        assert self._grid().shortest_path([self.FREE], [self.BURIED]) is None
        assert OBS.counters["blockgrid.searches"] == 1
        assert OBS.counters.get("blockgrid.pops", 0) == 0

    def test_buried_source_equal_target_is_zero_length(self):
        grid = self._grid()
        assert grid.shortest_path([self.BURIED], [self.BURIED]) == (
            0, [self.BURIED]
        )

    def test_buried_source_returns_none(self):
        assert self._grid().shortest_path([self.BURIED], [self.FREE]) is None
        assert OBS.counters.get("blockgrid.pops", 0) == 0

    def test_border_point_is_not_buried(self):
        assert not point_buried((400, 500), [self.WALL])
        assert not point_buried((400, 400), [self.WALL])
