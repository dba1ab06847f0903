"""Tests for the fast grid cache (Sec. 3.6)."""

import pytest

from repro.chip.generator import ChipSpec, generate_chip
from repro.droute.space import RoutingSpace
from repro.geometry.rect import Rect
from repro.grid.shapegrid import RipupLevel
from repro.tech.wiring import ShapeKind, StickFigure


@pytest.fixture(scope="module")
def space():
    spec = ChipSpec("fgtest", rows=2, row_width_cells=4, net_count=4, seed=3)
    return RoutingSpace(generate_chip(spec))


def _some_vertex(space, z=3):
    graph = space.graph
    t = len(graph.tracks[z]) // 2
    c = len(graph.crosses[z]) // 2
    return (z, t, c)


class TestWords:
    def test_word_has_four_entries(self, space):
        word = space.fast_grid.word("default", _some_vertex(space))
        assert len(word) == 4

    def test_word_cached(self, space):
        fast = space.fast_grid
        vertex = _some_vertex(space)
        fast.word("default", vertex)
        misses = fast.misses
        fast.word("default", vertex)
        assert fast.misses == misses
        assert fast.hits > 0

    def test_free_space_usable(self, space):
        vertex = _some_vertex(space, z=5)
        assert space.fast_grid.vertex_usable("default", vertex, "wire")
        assert space.fast_grid.vertex_usable("default", vertex, "jog")

    def test_wide_type_layer_restriction(self, space):
        vertex = _some_vertex(space, z=1)
        # "wide" is not allowed on layer 1 at all.
        assert not space.fast_grid.vertex_usable("wide", vertex, "wire")

    def test_batch_matches_individual(self, space):
        """A batch fill stores the wire half; ``word`` completes the rest.

        Both halves must equal a freshly computed word bit for bit.
        """
        fast = space.fast_grid
        z, t = 3, 1
        fast.ensure_words("default", z, t, 0, 10)
        for c in range(0, 11):
            cached = fast.cached_word("default", z, t, c)
            fresh = fast._compute_word(fast.wire_types["default"], (z, t, c))
            assert cached == (fresh[0], None, None, None), (
                f"batched wire half differs at c={c}"
            )
            assert fast.word("default", (z, t, c)) == fresh, (
                f"completed word differs at c={c}"
            )
            assert fast.cached_word("default", z, t, c) == fresh


class TestInvalidation:
    def test_shape_add_invalidates(self):
        spec = ChipSpec("fginv", rows=2, row_width_cells=4, net_count=4, seed=3)
        space = RoutingSpace(generate_chip(spec))
        graph = space.graph
        z = 3
        t = len(graph.tracks[z]) // 2
        c = len(graph.crosses[z]) // 2
        vertex = (z, t, c)
        assert space.fast_grid.vertex_usable("default", vertex, "wire")
        x, y, _ = graph.position(vertex)
        # Drop a foreign wire exactly through the vertex.
        space.add_wire("blockernet", "default", StickFigure(z, x - 200, y, x + 200, y))
        assert not space.fast_grid.vertex_usable("default", vertex, "wire")
        # Removal restores usability.
        space.remove_wire("blockernet", StickFigure(z, x - 200, y, x + 200, y))
        assert space.fast_grid.vertex_usable("default", vertex, "wire")

    def test_ripup_levels_in_word(self):
        spec = ChipSpec("fgrip", rows=2, row_width_cells=4, net_count=4, seed=3)
        space = RoutingSpace(generate_chip(spec))
        graph = space.graph
        z = 3
        vertex = (z, len(graph.tracks[z]) // 2, len(graph.crosses[z]) // 2)
        x, y, _ = graph.position(vertex)
        space.add_wire(
            "softnet", "default", StickFigure(z, x - 200, y, x + 200, y),
            ripup_level=int(RipupLevel.NORMAL),
        )
        fast = space.fast_grid
        assert not fast.vertex_usable("default", vertex, "wire")
        assert fast.vertex_usable(
            "default", vertex, "wire", ripup_level=int(RipupLevel.NORMAL)
        )
        assert not fast.vertex_usable(
            "default", vertex, "wire", ripup_level=int(RipupLevel.CRITICAL)
        )

    def test_dirty_bits_force_segment_check(self):
        spec = ChipSpec("fgdirty", rows=2, row_width_cells=4, net_count=4, seed=3)
        space = RoutingSpace(generate_chip(spec))
        graph = space.graph
        z = 3
        t = len(graph.tracks[z]) // 2
        c = len(graph.crosses[z]) // 2
        v, w = (z, t, c), (z, t, c + 1)
        assert space.fast_grid.edge_usable("default", v, w, "wire")
        # An off-track blob strictly between the two vertices.
        xv, yv, _ = graph.position(v)
        xw, yw, _ = graph.position(w)
        mid_x = (xv + xw) // 2
        space.shape_grid.add_shape(
            "wiring", z, Rect(mid_x - 10, yv - 10, mid_x + 10, yv + 10),
            "offnet", "blob", __import__("repro.tech.wiring", fromlist=["ShapeKind"]).ShapeKind.WIRE,
            3, 20,
        )
        space.fast_grid.invalidate_region(
            z, Rect(mid_x - 10, yv - 10, mid_x + 10, yv + 10), off_track=True
        )
        assert not space.fast_grid.edge_usable("default", v, w, "wire")


class TestWordHalves:
    """The wire half is batch-filled; the jog/via half is filled on demand.

    Invalidation must drop both halves, so a jog/via half filled before a
    shape change can never survive the wire half's refill.
    """

    def test_counters_split_by_half(self):
        spec = ChipSpec("fghalf", rows=2, row_width_cells=4, net_count=4, seed=3)
        fast = RoutingSpace(generate_chip(spec)).fast_grid
        z, t = 3, 1
        assert fast.ensure_words("default", z, t, 0, 4) == 5
        assert (fast.misses, fast.hits, fast.cross_fills) == (5, 0, 0)
        fast.vertex_usable("default", (z, t, 2), "wire")
        assert (fast.misses, fast.hits, fast.cross_fills) == (5, 1, 0)
        fast.vertex_usable("default", (z, t, 2), "jog")
        assert (fast.misses, fast.hits, fast.cross_fills) == (5, 2, 1)
        fast.vertex_usable("default", (z, t, 2), "via_up")
        assert (fast.misses, fast.hits, fast.cross_fills) == (5, 3, 1)
        # An uncached vertex asked for a via computes both halves at once.
        fast.vertex_usable("default", (z, t, 9), "via_down")
        assert (fast.misses, fast.hits, fast.cross_fills) == (6, 3, 2)
        # ... and one asked for its wire only computes the wire half.
        fast.vertex_usable("default", (z, t, 11), "wire")
        assert (fast.misses, fast.cross_fills) == (7, 2)
        assert fast.cached_word("default", z, t, 11)[1:] == (None, None, None)

    @pytest.mark.parametrize("shape_type", ["via_up", "via_down"])
    def test_stale_cross_half_never_survives(self, shape_type):
        spec = ChipSpec("fgstale", rows=2, row_width_cells=4, net_count=4, seed=3)
        space = RoutingSpace(generate_chip(spec))
        graph = space.graph
        fast = space.fast_grid
        wire_type = fast.wire_types["default"]
        z = 3
        t = len(graph.tracks[z]) // 2
        c = len(graph.crosses[z]) // 2
        vertex = (z, t, c)
        x, y, _ = graph.position(vertex)
        fast.ensure_words("default", z, t, 0, len(graph.crosses[z]) - 1)
        before = fast._compute_word(wire_type, vertex)
        assert fast.vertex_usable("default", vertex, shape_type)
        assert fast.word("default", vertex) == before
        if shape_type == "via_up":
            # A foreign via cut right above the vertex: only via legality.
            layer, kind, shape_kind = z, "via", ShapeKind.VIA_CUT
        else:
            # Foreign metal on the layer below: only via-down legality.
            layer, kind, shape_kind = z - 1, "wiring", ShapeKind.WIRE
        blob = Rect(x - 10, y - 10, x + 10, y + 10)
        space.shape_grid.add_shape(
            kind, layer, blob, "othernet", "blob", shape_kind, 3, 20
        )
        fast.invalidate_region(layer, blob)
        fast.ensure_words("default", z, t, 0, len(graph.crosses[z]) - 1)
        after = fast._compute_word(wire_type, vertex)
        assert after[0] == before[0]  # the wire half did not change ...
        i = ("wire", "jog", "via_down", "via_up").index(shape_type)
        assert not after[i][0]  # ... but the via became illegal
        assert fast.cached_word("default", z, t, c) == (after[0], None, None, None)
        assert not fast.vertex_usable("default", vertex, shape_type)
        assert fast.word("default", vertex) == after


class TestStats:
    def test_hit_rate_grows_with_reuse(self, space):
        fast = space.fast_grid
        for _ in range(3):
            for c in range(0, 20):
                fast.word("default", (3, 1, c))
        assert fast.hit_rate > 0.5

    def test_interval_count_positive_after_queries(self, space):
        space.fast_grid.ensure_words("default", 3, 2, 0, 30)
        assert space.fast_grid.interval_count() > 0
        # Far fewer intervals than cached vertices (compression works).
        cached = space.fast_grid.cached_word_count()
        assert space.fast_grid.interval_count() < cached

    def test_interval_count_stored_order(self):
        """interval_count walks cached words in stored (array) order.

        Filling a track out of order must not split runs: the count only
        reflects real gaps in cached coverage and legality flips, so it
        equals the count after an in-order fill of the same segments.
        """
        spec = ChipSpec("fgcount", rows=2, row_width_cells=4, net_count=4, seed=3)
        chip = generate_chip(spec)
        counts = []
        for segments in (((10, 14), (0, 4)), ((0, 4), (10, 14))):
            fast = RoutingSpace(chip).fast_grid
            assert fast.interval_count() == 0
            # Fill [10, 14] before [0, 4]: stored-order iteration sees
            # [0, 4] then the gap then [10, 14] -> exactly 2 runs on a
            # uniformly-legal track.
            for c_lo, c_hi in segments:
                fast.ensure_words("default", 3, 1, c_lo, c_hi)
            counts.append(fast.interval_count())
        assert counts[0] == counts[1]
        assert counts[0] >= 2  # the gap forces separate runs

    def test_disabled_grid_always_misses(self):
        spec = ChipSpec("fgoff", rows=2, row_width_cells=4, net_count=4, seed=3)
        space = RoutingSpace(generate_chip(spec), fast_grid_enabled=False)
        vertex = _some_vertex(space)
        space.fast_grid.word("default", vertex)
        space.fast_grid.word("default", vertex)
        assert space.fast_grid.hits == 0
        assert space.fast_grid.misses == 2
