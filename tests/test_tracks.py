"""Tests for track optimization (Thm 3.1) and the track graph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chip.generator import TABLE_CHIP_SPECS, generate_chip
from repro.geometry.rect import Rect
from repro.grid.tracks import (
    TrackPlan,
    build_track_plan,
    coverage_profile,
    optimize_tracks,
)
from repro.grid.trackgraph import TrackGraph
from repro.tech.layers import Direction


class TestCoverageProfile:
    def test_single_rect(self):
        pieces = coverage_profile([Rect(0, 0, 100, 50)], Direction.HORIZONTAL)
        assert pieces == [(0, 51, 100)]

    def test_stacked_rects_sum(self):
        pieces = coverage_profile(
            [Rect(0, 0, 100, 50), Rect(200, 20, 260, 30)], Direction.HORIZONTAL
        )
        # Between y=20 and y=30 both contribute: 100 + 60.
        values = {y: v for lo, hi, v in pieces for y in range(lo, hi)}
        assert values[25] == 160
        assert values[10] == 100
        assert values[40] == 100

    def test_degenerate_alignment_rect(self):
        pieces = coverage_profile([Rect(0, 5, 100, 5)], Direction.HORIZONTAL)
        assert pieces == [(5, 6, 100)]


class TestOptimizeTracks:
    def test_free_plane_packs_at_pitch(self):
        rects = [Rect(0, 0, 1000, 800)]
        tracks = optimize_tracks(rects, pitch=80, span=(0, 800))
        assert len(tracks) == 11  # 0, 80, ..., 800
        for a, b in zip(tracks, tracks[1:]):
            assert b - a >= 80

    def test_respects_pitch(self):
        rects = [Rect(0, 0, 1000, 100)]
        tracks = optimize_tracks(rects, pitch=80, span=(0, 100))
        for a, b in zip(tracks, tracks[1:]):
            assert b - a >= 80

    def test_avoids_blocked_band(self):
        # Usable area split by a blocked band: tracks should sit in the
        # usable rects, not the gap.
        rects = [Rect(0, 0, 1000, 100), Rect(0, 300, 1000, 400)]
        tracks = optimize_tracks(rects, pitch=80, span=(0, 400))
        uncovered = [t for t in tracks if 100 < t < 300]
        assert uncovered == []

    def test_offset_matters(self):
        # A single usable band narrower than 2 pitches but wide enough for
        # two tracks only at exact positions.
        rects = [Rect(0, 95, 1000, 175)]
        tracks = optimize_tracks(rects, pitch=80, span=(0, 400))
        assert len(tracks) == 2
        assert tracks[0] >= 95 and tracks[1] <= 175

    def test_empty_input(self):
        assert optimize_tracks([], pitch=80, span=(0, 100)) == []

    def test_bad_pitch_rejected(self):
        with pytest.raises(ValueError):
            optimize_tracks([], pitch=0, span=(0, 10))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 400), st.integers(10, 120), st.integers(20, 300)),
            min_size=1,
            max_size=6,
        )
    )
    def test_optimal_vs_bruteforce(self, bands):
        """DP result matches brute force over all pitch-grid placements."""
        pitch = 40
        rects = []
        y = 0
        for gap, height, width in bands:
            y += gap
            rects.append(Rect(0, y, width, y + height))
            y += height
        span = (0, min(y + 50, 600))
        tracks = optimize_tracks(rects, pitch, span)
        pieces = coverage_profile(rects, Direction.HORIZONTAL)

        def value(coord):
            for lo, hi, v in pieces:
                if lo <= coord < hi:
                    return v
            return 0

        achieved = sum(value(t) for t in tracks)
        # Brute force over candidate coordinates with a small-step DP.
        candidates = sorted(
            {c for lo, hi, _ in pieces for c in (lo, hi)}
            | {span[0] + k * pitch for k in range((span[1] - span[0]) // pitch + 1)}
            | {lo + k * pitch for lo, hi, _ in pieces for k in range(-2, (span[1] - lo) // pitch + 1)}
        )
        candidates = [c for c in candidates if span[0] <= c <= span[1]]
        import bisect as _bisect

        best = [0] * (len(candidates) + 1)
        for i, c in enumerate(candidates):
            j = _bisect.bisect_right(candidates, c - pitch)
            best[i + 1] = max(best[i], value(c) + best[j])
        assert achieved == best[len(candidates)]


class TestTrackPlan:
    def test_plan_avoids_power_rails(self):
        chip = generate_chip(TABLE_CHIP_SPECS[0])
        plan = build_track_plan(chip, pin_alignment=False)
        rails = [b.rect for b in chip.blockages if b.label == "power_rail"]
        layer = chip.stack[1]
        margin = layer.min_width // 2 + layer.min_spacing
        for track_y in plan.layer_tracks(1):
            for rail in rails:
                assert not (rail.y_lo - margin < track_y < rail.y_hi + margin), (
                    f"track {track_y} runs inside expanded power rail {rail}"
                )

    def test_tracks_at_pitch_everywhere(self):
        chip = generate_chip(TABLE_CHIP_SPECS[0])
        plan = build_track_plan(chip)
        for layer in chip.stack:
            tracks = plan.layer_tracks(layer.index)
            assert tracks, f"no tracks on layer {layer.index}"
            for a, b in zip(tracks, tracks[1:]):
                assert b - a >= layer.pitch

    def test_pin_alignment_attracts_tracks(self):
        chip = generate_chip(TABLE_CHIP_SPECS[0])
        aligned = build_track_plan(chip, pin_alignment=True)
        plain = build_track_plan(chip, pin_alignment=False)
        # Count pins whose centre y (M1 horizontal) lies exactly on a track.
        def on_track_pins(plan: TrackPlan) -> int:
            tracks = set(plan.layer_tracks(1))
            count = 0
            for pin in chip.all_pins():
                for layer, rect in pin.shapes:
                    if layer == 1 and rect.center[1] in tracks:
                        count += 1
            return count

        assert on_track_pins(aligned) >= on_track_pins(plain)


class TestTrackGraph:
    def _graph(self):
        chip = generate_chip(TABLE_CHIP_SPECS[0])
        plan = build_track_plan(chip)
        return chip, TrackGraph(chip.stack, plan)

    def test_positions_roundtrip(self):
        chip, graph = self._graph()
        for z in chip.stack.indices:
            if not graph.tracks[z] or not graph.crosses[z]:
                continue
            vertex = (z, 0, 0)
            x, y, zz = graph.position(vertex)
            assert graph.vertex_at(x, y, zz) == vertex

    def test_neighbors_are_symmetric(self):
        chip, graph = self._graph()
        vertex = (2, 1, 1)
        assert graph.is_vertex(vertex)
        for neighbour, kind, length in graph.neighbors(vertex):
            back = dict(
                (n, (k, l)) for n, k, l in graph.neighbors(neighbour)
            )
            assert vertex in back
            assert back[vertex][0] == kind
            assert back[vertex][1] == length

    def test_via_partner_shares_xy(self):
        chip, graph = self._graph()
        found = False
        for t in range(min(3, len(graph.tracks[2]))):
            for c in range(min(5, len(graph.crosses[2]))):
                vertex = (2, t, c)
                partner = graph.via_partner(vertex, 3)
                if partner is not None:
                    x1, y1, _ = graph.position(vertex)
                    x2, y2, _ = graph.position(partner)
                    assert (x1, y1) == (x2, y2)
                    found = True
        assert found

    @pytest.mark.parametrize("spec_index", [0, 1])
    def test_via_partner_matches_position_oracle(self, spec_index):
        """The index-map ``via_partner`` equals position -> vertex_at.

        Checked for every vertex and both adjacent layers, including the
        ``None`` answers past the top and bottom of the stack and at
        crosses that are tracks of the layer on the other side only.
        """
        chip = generate_chip(TABLE_CHIP_SPECS[spec_index])
        graph = TrackGraph(chip.stack, build_track_plan(chip))
        nones = {"off_stack": 0, "not_a_track": 0}
        partners = 0
        for z in chip.stack.indices:
            for t in range(len(graph.tracks[z])):
                for c in range(len(graph.crosses[z])):
                    vertex = (z, t, c)
                    for other in (z - 1, z + 1):
                        if chip.stack.has_layer(other):
                            x, y, _ = graph.position(vertex)
                            expected = graph.vertex_at(x, y, other)
                        else:
                            expected = None
                        got = graph.via_partner(vertex, other)
                        assert got == expected, (vertex, other)
                        if got is not None:
                            partners += 1
                        elif chip.stack.has_layer(other):
                            nones["not_a_track"] += 1
                        else:
                            nones["off_stack"] += 1
        assert partners and nones["off_stack"] and nones["not_a_track"]

    def test_vertices_in_rect(self):
        chip, graph = self._graph()
        die = chip.die
        inside = graph.vertices_in_rect(2, die.x_lo, die.y_lo, die.x_hi, die.y_hi)
        assert len(inside) == len(graph.tracks[2]) * len(graph.crosses[2])
        empty = graph.vertices_in_rect(2, -100, -100, -90, -90)
        assert empty == []

    def test_nearest_vertex(self):
        chip, graph = self._graph()
        x, y, z = graph.position((1, 0, 0))
        assert graph.nearest_vertex(x + 3, y + 3, 1) == (1, 0, 0)
