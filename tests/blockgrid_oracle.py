"""Reference copy of the original dict-of-sets ``BlockageGrid``.

It scans every run edge by edge and searches even when a terminal is
buried inside an obstacle.  ``tests/test_blockgrid_oracle.py`` checks
that :class:`repro.grid.blockgrid.BlockageGrid` returns exactly what
this copy returns.  Do not optimise it: it is the oracle.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry.rect import Rect
from repro.grid.blockgrid import (
    EAST,
    NORTH,
    SOUTH,
    WEST,
    _HORIZONTAL,
    _VERTICAL,
    Point,
    _simplify,
    blockage_grid_coordinates,
)
from repro.util.heap import AddressableHeap


class OracleBlockageGrid:
    """Single-layer tau-feasible shortest path search."""

    def __init__(
        self,
        obstacles: Sequence[Rect],
        tau: int,
        bbox: Rect,
        terminals: Sequence[Point] = (),
    ) -> None:
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = tau
        self.bbox = bbox
        self.obstacles = [r for r in obstacles if r.area > 0 and r.intersects(bbox)]
        self.xs, self.ys = blockage_grid_coordinates(
            self.obstacles, terminals, tau, bbox
        )
        self._x_index = {x: i for i, x in enumerate(self.xs)}
        self._y_index = {y: j for j, y in enumerate(self.ys)}
        self._build_blocked_edges()

    # ------------------------------------------------------------------
    # Geometry preprocessing
    # ------------------------------------------------------------------
    def _build_blocked_edges(self) -> None:
        """Mark grid edges whose open interior crosses an obstacle interior."""
        nx, ny = len(self.xs), len(self.ys)
        # hblock[j] is a set of i such that edge (xs[i], ys[j])-(xs[i+1], ys[j])
        # is blocked; vblock[i] likewise for vertical edges.
        self.hblock: Dict[int, set] = {}
        self.vblock: Dict[int, set] = {}
        self.vertex_blocked: set = set()
        for rect in self.obstacles:
            # A horizontal line at y crosses the interior iff y is strictly
            # between the rect's y borders; the edge's open x-span must
            # overlap the rect's open x-span.
            j_lo = bisect.bisect_right(self.ys, rect.y_lo)
            j_hi = bisect.bisect_left(self.ys, rect.y_hi)
            i_lo = bisect.bisect_left(self.xs, rect.x_lo)
            i_hi = bisect.bisect_left(self.xs, rect.x_hi)
            for j in range(j_lo, j_hi):
                blocked = self.hblock.setdefault(j, set())
                blocked.update(range(i_lo, i_hi))
            i_lo_v = bisect.bisect_right(self.xs, rect.x_lo)
            i_hi_v = bisect.bisect_left(self.xs, rect.x_hi)
            j_lo_v = bisect.bisect_left(self.ys, rect.y_lo)
            j_hi_v = bisect.bisect_left(self.ys, rect.y_hi)
            for i in range(i_lo_v, i_hi_v):
                blocked = self.vblock.setdefault(i, set())
                blocked.update(range(j_lo_v, j_hi_v))
            # Vertices strictly inside an obstacle are unusable.
            for i in range(i_lo_v, i_hi_v):
                for j in range(j_lo, j_hi):
                    self.vertex_blocked.add((i, j))

    def _h_edge_free(self, i: int, j: int) -> bool:
        blocked = self.hblock.get(j)
        return blocked is None or i not in blocked

    def _v_edge_free(self, i: int, j: int) -> bool:
        blocked = self.vblock.get(i)
        return blocked is None or j not in blocked

    def _run_free_h(self, j: int, i_lo: int, i_hi: int) -> bool:
        """Is the horizontal run xs[i_lo]..xs[i_hi] at ys[j] obstacle-free?"""
        blocked = self.hblock.get(j)
        if blocked is None:
            return True
        return all(i not in blocked for i in range(i_lo, i_hi))

    def _run_free_v(self, i: int, j_lo: int, j_hi: int) -> bool:
        blocked = self.vblock.get(i)
        if blocked is None:
            return True
        return all(j not in blocked for j in range(j_lo, j_hi))

    # ------------------------------------------------------------------
    # Long arcs (first move after a bend / from a source)
    # ------------------------------------------------------------------
    def _long_arc_target(self, i: int, j: int, direction: int) -> Optional[Tuple[int, int, int]]:
        """Nearest vertex at distance >= tau in ``direction`` with a clear
        run; returns (i', j', length) or None."""
        tau = self.tau
        if direction == EAST:
            target = self.xs[i] + tau
            k = bisect.bisect_left(self.xs, target)
            if k >= len(self.xs):
                return None
            if not self._run_free_h(j, i, k):
                return None
            return (k, j, self.xs[k] - self.xs[i])
        if direction == WEST:
            target = self.xs[i] - tau
            k = bisect.bisect_right(self.xs, target) - 1
            if k < 0:
                return None
            if not self._run_free_h(j, k, i):
                return None
            return (k, j, self.xs[i] - self.xs[k])
        if direction == NORTH:
            target = self.ys[j] + tau
            k = bisect.bisect_left(self.ys, target)
            if k >= len(self.ys):
                return None
            if not self._run_free_v(i, j, k):
                return None
            return (i, k, self.ys[k] - self.ys[j])
        target = self.ys[j] - tau
        k = bisect.bisect_right(self.ys, target) - 1
        if k < 0:
            return None
        if not self._run_free_v(i, k, j):
            return None
        return (i, k, self.ys[j] - self.ys[k])

    # ------------------------------------------------------------------
    # Shortest path
    # ------------------------------------------------------------------
    def shortest_path(
        self, sources: Sequence[Point], targets: Sequence[Point]
    ) -> Optional[Tuple[int, List[Point]]]:
        """Shortest tau-feasible path from any source to any target.

        Returns (length, polyline of grid points including endpoints), or
        None when no tau-feasible connection exists.  All terminals must
        lie on grid coordinates (they do when passed to the constructor).
        """
        target_set = set()
        for x, y in targets:
            i = self._x_index.get(x)
            j = self._y_index.get(y)
            if i is None or j is None:
                raise ValueError(f"target ({x}, {y}) not on the blockage grid")
            target_set.add((i, j))
        if not target_set:
            return None

        heap = AddressableHeap()
        dist: Dict[Tuple[int, int, int], int] = {}
        parent: Dict[Tuple[int, int, int], Optional[Tuple[int, int, int]]] = {}

        for x, y in sources:
            i = self._x_index.get(x)
            j = self._y_index.get(y)
            if i is None or j is None:
                raise ValueError(f"source ({x}, {y}) not on the blockage grid")
            if (i, j) in target_set:
                return (0, [(x, y)])
            # First segment: a long arc in each direction.
            for direction in (EAST, WEST, NORTH, SOUTH):
                arc = self._long_arc_target(i, j, direction)
                if arc is None:
                    continue
                ti, tj, length = arc
                if (ti, tj) in self.vertex_blocked:
                    continue
                state = (ti, tj, direction)
                if length < dist.get(state, float("inf")):
                    dist[state] = length
                    parent[state] = (i, j, -1)  # -1: source marker
                    heap.push(state, length)

        settled = set()
        final_state: Optional[Tuple[int, int, int]] = None
        while heap:
            state, d = heap.pop()
            if state in settled:
                continue
            settled.add(state)
            i, j, direction = state
            if (i, j) in target_set:
                final_state = state
                break
            # Straight continuation.
            for cont in self._continuations(i, j, direction):
                ci, cj, length = cont
                if (ci, cj) in self.vertex_blocked:
                    continue
                nstate = (ci, cj, direction)
                nd = d + length
                if nd < dist.get(nstate, float("inf")):
                    dist[nstate] = nd
                    parent[nstate] = state
                    heap.push(nstate, nd)
            # Bends: long arc perpendicular to the incoming direction.
            perp = _VERTICAL if direction in _HORIZONTAL else _HORIZONTAL
            for ndirection in perp:
                arc = self._long_arc_target(i, j, ndirection)
                if arc is None:
                    continue
                ti, tj, length = arc
                if (ti, tj) in self.vertex_blocked:
                    continue
                nstate = (ti, tj, ndirection)
                nd = d + length
                if nd < dist.get(nstate, float("inf")):
                    dist[nstate] = nd
                    parent[nstate] = state
                    heap.push(nstate, nd)
        if final_state is None:
            return None
        # Reconstruct the polyline.
        points: List[Point] = []
        state: Optional[Tuple[int, int, int]] = final_state
        while state is not None:
            i, j, direction = state
            points.append((self.xs[i], self.ys[j]))
            state = parent.get(state)
            if state is not None and state[2] == -1:
                points.append((self.xs[state[0]], self.ys[state[1]]))
                state = None
        points.reverse()
        return (dist[final_state], _simplify(points))

    def _continuations(self, i: int, j: int, direction: int):
        """One-step straight continuation arcs from (i, j, direction)."""
        if direction == EAST and i + 1 < len(self.xs) and self._h_edge_free(i, j):
            yield (i + 1, j, self.xs[i + 1] - self.xs[i])
        elif direction == WEST and i > 0 and self._h_edge_free(i - 1, j):
            yield (i - 1, j, self.xs[i] - self.xs[i - 1])
        elif direction == NORTH and j + 1 < len(self.ys) and self._v_edge_free(i, j):
            yield (i, j + 1, self.ys[j + 1] - self.ys[j])
        elif direction == SOUTH and j > 0 and self._v_edge_free(i, j - 1):
            yield (i, j - 1, self.ys[j] - self.ys[j - 1])
