"""The blockage grid must return exactly what the original search returns.

:mod:`tests.blockgrid_oracle` keeps the original dict-of-sets grid, which
scans runs edge by edge and searches even from or to a buried terminal.
On random obstacle soups, every ``shortest_path`` answer — the length
and the polyline with its tie-breaks, or ``None`` — must be identical,
and so must every blocked edge, blocked vertex and run check.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.grid.blockgrid import BlockageGrid, point_buried
from tests.blockgrid_oracle import OracleBlockageGrid

BBOX = Rect(0, 0, 600, 600)

_rects = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h),
    st.integers(-50, 590), st.integers(-50, 590),
    st.integers(1, 250), st.integers(1, 250),
)


@st.composite
def _scenes(draw):
    """Obstacles, tau, and terminals of which some are buried."""
    obstacles = draw(st.lists(_rects, max_size=8))
    tau = draw(st.sampled_from((1, 40, 80)))

    def terminal():
        # A free point, or the centre of an obstacle (buried when the
        # obstacle is at least 2 wide and high).
        inside = [r for r in obstacles if r.intersects(BBOX)]
        if inside and draw(st.booleans()):
            rect = draw(st.sampled_from(inside))
            x, y = rect.center
            return (min(max(x, 0), 600), min(max(y, 0), 600))
        return (draw(st.integers(0, 600)), draw(st.integers(0, 600)))

    sources = [terminal() for _ in range(draw(st.integers(1, 2)))]
    targets = [terminal() for _ in range(draw(st.integers(1, 2)))]
    return obstacles, tau, sources, targets


def _grids(obstacles, tau, terminals):
    return (
        BlockageGrid(obstacles, tau, BBOX, terminals),
        OracleBlockageGrid(obstacles, tau, BBOX, terminals),
    )


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(_scenes())
    def test_shortest_path_identical(self, scene):
        obstacles, tau, sources, targets = scene
        grid, oracle = _grids(obstacles, tau, sources + targets)
        assert grid.shortest_path(sources, targets) == oracle.shortest_path(
            sources, targets
        )

    @settings(max_examples=60, deadline=None)
    @given(_scenes())
    def test_blocked_edges_vertices_and_runs_identical(self, scene):
        obstacles, tau, sources, targets = scene
        grid, oracle = _grids(obstacles, tau, sources + targets)
        xs, ys = grid.xs, grid.ys
        assert (xs, ys) == (oracle.xs, oracle.ys)
        assert grid.vertex_blocked == oracle.vertex_blocked
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert point_buried((x, y), obstacles) == (
                    (i, j) in grid.vertex_blocked
                )
        for j in range(len(ys)):
            for i in range(len(xs) - 1):
                assert grid._h_edge_free(i, j) == oracle._h_edge_free(i, j)
            for i_lo in range(len(xs)):
                for i_hi in range(i_lo, min(i_lo + 6, len(xs))):
                    assert grid._run_free_h(j, i_lo, i_hi) == (
                        oracle._run_free_h(j, i_lo, i_hi)
                    )
            assert grid._run_free_h(j, 0, len(xs) - 1) == (
                oracle._run_free_h(j, 0, len(xs) - 1)
            )
        for i in range(len(xs)):
            for j in range(len(ys) - 1):
                assert grid._v_edge_free(i, j) == oracle._v_edge_free(i, j)
            for j_lo in range(len(ys)):
                for j_hi in range(j_lo, min(j_lo + 6, len(ys))):
                    assert grid._run_free_v(i, j_lo, j_hi) == (
                        oracle._run_free_v(i, j_lo, j_hi)
                    )
            assert grid._run_free_v(i, 0, len(ys) - 1) == (
                oracle._run_free_v(i, 0, len(ys) - 1)
            )
