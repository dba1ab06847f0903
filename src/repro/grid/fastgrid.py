"""The fast grid (Sec. 3.6).

Caches, for a small set of frequently used wire types, the legality of the
four shape types {preferred-direction wire, jog, via down, via up} at
on-track locations, so the on-track path search rarely needs the (much
slower) distance rule checking module.  Words are computed lazily and kept
per track in *packed* per-track arrays; every shape insertion or removal
invalidates the affected region by clearing validity bits and bumping
generation counters (epochs) instead of popping dict entries.

Storage layout: one uint16 word per vertex, four legal bits (bit ``i`` for
``SHAPE_TYPES[i]``) plus four 3-bit ripup fields (bits ``4 + 3i``), with
``RIPUP_FIXED`` encoded as 7, in a pure-python ``array('H')`` per track
with two ``bytearray`` validity maps beside it, one per word half:

* the *wire half* (wire bit and its ripup field) is what the interval
  decomposition reads; ``ensure_words`` batch-fills it with one
  ``check_metal`` per vertex against a prefetched band of the track's
  own layer;
* the *jog/via half* (jog, via_down, via_up) is filled per vertex the
  first time a lookup needs it (``vertex_usable``/``vertex_needs_ripup``
  for those shape types, or ``word``).

A half that is not filled is stored as zero bits.  Invalidation clears
both halves together, so every answer equals a freshly computed word.

Edge usability is deduced from the two endpoint vertex words whenever only
on-track wiring is present; where off-track shapes are nearby, a *dirty
bit* at a vertex forces a direct shape-grid query for its incident edges
(the zigzag-edge bit of Fig. 4).  Those segment checks are memoized per
(wire type, edge) and validated against the global epoch, so repeated
searches over an unchanged region stop re-querying the shape grid.

Counter semantics (normalized): ``hits``/``misses`` count *vertex-word
lookups* by their wire half (a batch fill counts one miss per wire half
computed and one hit per word reused; a lookup whose wire half is cached
is a hit even when it fills the jog/via half); ``cross_fills`` counts
jog/via-half computations; ``fastgrid.queries`` counts *edge* queries, so
hits may legitimately exceed queries.  ``fastgrid.interval_cache_hits``
and ``fastgrid.segment_cache_hits`` count reuse in the two cross-search
memo layers on top of the words themselves.  With the grid disabled
every lookup computes a full word and counts one miss.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.geometry.rect import Rect
from repro.grid.drc_query import DistanceRuleChecker, PlacementCheck, PrefetchedBand
from repro.grid.shapegrid import RIPUP_FIXED
from repro.obs import OBS
from repro.grid.trackgraph import TrackGraph, Vertex
from repro.tech.layers import Direction
from repro.tech.wiring import StickFigure, WireType

#: Shape types a fast-grid word stores, in order.
SHAPE_TYPES = ("wire", "jog", "via_down", "via_up")

_SHAPE_INDEX = {name: i for i, name in enumerate(SHAPE_TYPES)}

#: Per shape type: (legal, ripup_level_needed); RIPUP_FIXED when not even
#: ripup can make it legal.
Word = Tuple[Tuple[bool, int], ...]

#: 3-bit ripup encoding: levels 0..6 verbatim, RIPUP_FIXED (and anything
#: beyond the encodable range) as 7.
_RIPUP_FIXED_ENC = 7

#: Entry of a shape type the wire type cannot place here at all.
_BLOCKED = (False, RIPUP_FIXED)


def _pack_entry(i: int, legal: bool, needed: int) -> int:
    """Bits of entry ``i`` (legal bit + 3-bit ripup field) of a word."""
    if needed == RIPUP_FIXED or needed > 6 or needed < 0:
        enc = _RIPUP_FIXED_ENC
    else:
        enc = int(needed)
    return (1 << i if legal else 0) | enc << (4 + 3 * i)


def pack_word(word: Word) -> int:
    """Pack a 4-entry legality word into one uint16."""
    bits = 0
    for i, (legal, needed) in enumerate(word):
        bits |= _pack_entry(i, legal, needed)
    return bits


def unpack_word(bits: int) -> Word:
    """Inverse of :func:`pack_word`."""
    out = []
    for i in range(4):
        legal = bool((bits >> i) & 1)
        enc = (bits >> (4 + 3 * i)) & 7
        out.append((legal, RIPUP_FIXED if enc == _RIPUP_FIXED_ENC else enc))
    return tuple(out)


def _entry(check: PlacementCheck) -> Tuple[bool, int]:
    return (check.legal, check.max_ripup_needed)


class _TrackWords:
    """Packed words + per-half validity bits for one (wire type, layer, track).

    ``valid[c]`` marks the wire half of word ``c`` filled, ``cross_valid[c]``
    its jog/via half; a filled jog/via half implies a filled wire half.
    """

    __slots__ = ("words", "valid", "cross_valid")

    def __init__(self, ncross: int) -> None:
        self.words = array("H", bytes(2 * ncross))
        self.valid = bytearray(ncross)
        self.cross_valid = bytearray(ncross)


class IntervalCache:
    """Cross-search cache of track interval decompositions.

    Keys carry everything a decomposition depends on besides the shapes
    themselves — (wire type, ripup level, layer, track, area cross
    ranges); values are penalty-free runs ``(c_lo, c_hi, needs_ripup)``
    stamped with the track epoch they were scanned at.  A stale epoch is
    a miss, so invalidation is generation-based: mutating the space never
    walks this cache.  Penalties (ripup history, spreading) are applied
    per :class:`~repro.droute.intervals.GraphView` on materialization, so
    cached runs stay deterministic and view-independent.
    """

    def __init__(self, max_entries: int = 8192) -> None:
        self._entries: Dict[tuple, Tuple[int, list]] = {}
        self.max_entries = max_entries

    def lookup(self, key: tuple, epoch: int) -> Optional[list]:
        entry = self._entries.get(key)
        if entry is None or entry[0] != epoch:
            if OBS.enabled:
                OBS.count("fastgrid.interval_cache_misses")
            return None
        if OBS.enabled:
            OBS.count("fastgrid.interval_cache_hits")
        return entry[1]

    def store(self, key: tuple, epoch: int, runs: list) -> None:
        if len(self._entries) >= self.max_entries:
            self._entries.clear()
        self._entries[key] = (epoch, runs)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class FastGrid:
    """Per-wire-type legality cache over the track graph."""

    def __init__(
        self,
        graph: TrackGraph,
        checker: DistanceRuleChecker,
        wire_types: Sequence[WireType],
        enabled: bool = True,
    ) -> None:
        self.graph = graph
        self.checker = checker
        self.wire_types: Dict[str, WireType] = {wt.name: wt for wt in wire_types}
        #: When disabled, every query goes straight to the checker
        #: (ablation baseline for the 5.29x speed-up statistic).
        self.enabled = enabled
        # (wiretype, z, t) -> packed per-track word array
        self._tracks: Dict[Tuple[str, int, int], _TrackWords] = {}
        # Vertices whose incident edges cannot be deduced from vertex
        # words because off-track shapes are nearby.
        self._dirty: Dict[Tuple[int, int], set] = {}
        #: Global generation counter, bumped once per invalidated region;
        #: validates the segment-check memo.
        self.epoch = 0
        #: Per-(z, t) generation counters; validate interval-cache runs.
        self._track_epochs: Dict[Tuple[int, int], int] = {}
        # (wiretype, v, w) -> (epoch, legal, max_ripup_needed)
        self._segment_memo: Dict[tuple, Tuple[int, bool, int]] = {}
        self.hits = 0
        self.misses = 0
        self.cross_fills = 0

    # ------------------------------------------------------------------
    # Word computation
    # ------------------------------------------------------------------
    def _wire_entry(
        self, wire_type: WireType, x: int, y: int, z: int, band=None
    ) -> Tuple[bool, int]:
        """Wire-half entry: a preferred-direction wire start at (x, y, z).

        ``band`` is an optional :class:`PrefetchedBand` of layer z's
        wiring covering the check window.
        """
        if not wire_type.has_layer(z):
            return _BLOCKED
        shape, cls, _ = wire_type.wire_shape(
            StickFigure(z, x, y, x, y), self.graph.stack
        )
        return _entry(
            self.checker.check_metal(z, shape, cls.rule_width, None, prefetched=band)
        )

    def _cross_entries(
        self, wire_type: WireType, x: int, y: int, z: int
    ) -> Tuple[Tuple[bool, int], ...]:
        """Jog/via-half entries: jog, via down and via up at (x, y, z)."""
        stack = self.graph.stack
        checker = self.checker
        jog = via_down = via_up = _BLOCKED
        if wire_type.has_layer(z):
            model = wire_type.nonpreferred_model(z)
            shape = model.metal_shape(StickFigure(z, x, y, x, y), stack.direction(z))
            jog = _entry(
                checker.check_metal(z, shape, model.shape_class.rule_width, None)
            )
        if stack.has_layer(z - 1) and wire_type.has_via_layer(z - 1):
            via_down = _entry(checker.check_via(wire_type, z - 1, x, y, None))
        if stack.has_layer(z + 1) and wire_type.has_via_layer(z):
            via_up = _entry(checker.check_via(wire_type, z, x, y, None))
        return (jog, via_down, via_up)

    def _compute_word(self, wire_type: WireType, vertex: Vertex) -> Word:
        """The full word at ``vertex``, computed from the rule checker."""
        x, y, z = self.graph.position(vertex)
        return (self._wire_entry(wire_type, x, y, z),) + self._cross_entries(
            wire_type, x, y, z
        )

    def _cross_bits(self, wire_type: WireType, vertex: Vertex) -> int:
        """Packed jog/via half at ``vertex`` (one counted cross fill).

        Computed per vertex with direct shape-grid queries: only about
        one word in ten ever gets a jog or via query, and a band prefetch
        per track chunk measured slower than these small queries.
        """
        self.cross_fills += 1
        if OBS.enabled:
            OBS.count("fastgrid.cross_fills")
        x, y, z = self.graph.position(vertex)
        bits = 0
        for i, entry in enumerate(self._cross_entries(wire_type, x, y, z), 1):
            bits |= _pack_entry(i, *entry)
        return bits

    def _track_words(self, wire_type_name: str, z: int, t: int) -> _TrackWords:
        key = (wire_type_name, z, t)
        tw = self._tracks.get(key)
        if tw is None:
            tw = _TrackWords(len(self.graph.crosses[z]))
            self._tracks[key] = tw
        return tw

    def ensure_words(
        self, wire_type_name: str, z: int, t: int, c_lo: int, c_hi: int
    ) -> int:
        """Batch-fill the wire halves of the words of a track segment.

        One shape-grid traversal of layer z's wiring over the segment's
        band replaces the per-vertex traversals; each vertex's wire check
        then filters the prefetched entries by its own query window,
        giving results identical to individual :meth:`word` calls.  The
        jog/via halves stay unfilled until a lookup needs them.  Returns
        the number of wire halves actually computed (invalid before the
        call).
        """
        if not self.enabled or c_lo > c_hi:
            return 0
        tw = self._track_words(wire_type_name, z, t)
        valid = tw.valid
        missing = [c for c in range(c_lo, c_hi + 1) if not valid[c]]
        if not missing:
            return 0
        wire_type = self.wire_types[wire_type_name]
        graph = self.graph
        crosses = graph.crosses[z]
        track = graph.tracks[z][t]
        horizontal = graph.stack.direction(z) is Direction.HORIZONTAL
        lo, hi = crosses[missing[0]], crosses[missing[-1]]
        band = Rect(lo, track, hi, track) if horizontal else Rect(track, lo, track, hi)
        margin = (
            self.checker.rules.max_interaction_distance(z)
            + 4 * graph.stack[z].pitch
        )
        wiring = PrefetchedBand(
            self.checker.prefetch_entries("wiring", z, band.expanded(margin)),
            axis_x=band.width >= band.height,
        )
        words = tw.words
        wire_entry = self._wire_entry
        for c in missing:
            if horizontal:
                entry = wire_entry(wire_type, crosses[c], track, z, wiring)
            else:
                entry = wire_entry(wire_type, track, crosses[c], z, wiring)
            words[c] = _pack_entry(0, *entry)
            valid[c] = True
        self.misses += len(missing)
        if OBS.enabled:
            OBS.count("fastgrid.misses", len(missing))
            OBS.count("fastgrid.words_prefetched", len(missing))
        return len(missing)

    def _packed(self, wire_type_name: str, vertex: Vertex, cross: bool = True) -> int:
        """Packed legality word at a vertex, from cache or computed.

        ``cross`` asks for the jog/via half as well; without it only the
        wire half is guaranteed filled in the returned bits.
        """
        wire_type = self.wire_types[wire_type_name]
        if not self.enabled:
            self.misses += 1
            if OBS.enabled:
                OBS.count("fastgrid.misses")
            return pack_word(self._compute_word(wire_type, vertex))
        z, t, c = vertex
        tw = self._track_words(wire_type_name, z, t)
        if tw.valid[c]:
            self.hits += 1
            if OBS.enabled:
                OBS.count("fastgrid.hits")
            bits = tw.words[c]
            if not cross or tw.cross_valid[c]:
                return bits
        else:
            self.misses += 1
            if OBS.enabled:
                OBS.count("fastgrid.misses")
            x, y, _ = self.graph.position(vertex)
            bits = _pack_entry(0, *self._wire_entry(wire_type, x, y, z))
            tw.valid[c] = True
            if not cross:
                tw.words[c] = bits
                return bits
        bits |= self._cross_bits(wire_type, vertex)
        tw.words[c] = bits
        tw.cross_valid[c] = True
        return bits

    def word(self, wire_type_name: str, vertex: Vertex) -> Word:
        """Legality word at a vertex, from cache or freshly computed.

        The word is computed net-blind (net=None): any foreign *or own*
        shape in range counts.  The path search treats the source/target
        components specially by temporarily removing their shapes
        (Sec. 4.4), so net-blind words stay correct.
        """
        return unpack_word(self._packed(wire_type_name, vertex))

    def cached_word(
        self, wire_type_name: str, z: int, t: int, c: int
    ) -> Optional[Tuple[Optional[Tuple[bool, int]], ...]]:
        """The stored word at (z, t, c), or None when not cached.

        A word whose jog/via half is not filled yet (after a batch fill
        or a wire-only lookup) comes back as ``(wire, None, None, None)``.
        Read-only introspection for tests and stats — never computes.
        """
        tw = self._tracks.get((wire_type_name, z, t))
        if tw is None or not tw.valid[c]:
            return None
        word = unpack_word(tw.words[c])
        if tw.cross_valid[c]:
            return word
        return (word[0], None, None, None)

    def cached_word_count(self) -> int:
        """Number of currently valid cached words across all tracks."""
        return sum(tw.valid.count(1) for tw in self._tracks.values())

    # ------------------------------------------------------------------
    # Usability queries used by the path search
    # ------------------------------------------------------------------
    def vertex_usable(
        self, wire_type_name: str, vertex: Vertex, shape_type: str, ripup_level: int = -2
    ) -> bool:
        """Is ``shape_type`` legal at ``vertex`` (with optional ripup)?

        ``ripup_level`` -2 (default) requires full legality; otherwise
        shapes up to that ripup level may be assumed removable.
        """
        i = _SHAPE_INDEX[shape_type]
        bits = self._packed(wire_type_name, vertex, i > 0)
        if (bits >> i) & 1:
            return True
        if ripup_level < 0:
            return False
        enc = (bits >> (4 + 3 * i)) & 7
        return enc != _RIPUP_FIXED_ENC and enc <= ripup_level

    def vertex_needs_ripup(
        self, wire_type_name: str, vertex: Vertex, shape_type: str
    ) -> bool:
        i = _SHAPE_INDEX[shape_type]
        return not (self._packed(wire_type_name, vertex, i > 0) >> i) & 1

    def edge_usable(
        self,
        wire_type_name: str,
        v: Vertex,
        w: Vertex,
        kind: str,
        ripup_level: int = -2,
    ) -> bool:
        """Usability of the track-graph edge (v, w) for the wire type.

        Deduce from the endpoint words unless a dirty bit forces a direct
        segment query (Sec. 3.6 / Fig. 4).
        """
        if OBS.enabled:
            OBS.count("fastgrid.queries")
        if kind == "via":
            upper_vertex = v if v[0] > w[0] else w
            lower_vertex = w if v[0] > w[0] else v
            return self.vertex_usable(
                wire_type_name, lower_vertex, "via_up", ripup_level
            ) and self.vertex_usable(
                wire_type_name, upper_vertex, "via_down", ripup_level
            )
        shape_type = "wire" if kind == "wire" else "jog"
        if self._is_dirty(v) or self._is_dirty(w):
            return self._segment_check(wire_type_name, v, w, kind, ripup_level)
        return self.vertex_usable(
            wire_type_name, v, shape_type, ripup_level
        ) and self.vertex_usable(wire_type_name, w, shape_type, ripup_level)

    def _segment_check(
        self, wire_type_name: str, v: Vertex, w: Vertex, kind: str, ripup_level: int
    ) -> bool:
        memo_key = (wire_type_name, v, w)
        entry = self._segment_memo.get(memo_key)
        if entry is not None and entry[0] == self.epoch:
            if OBS.enabled:
                OBS.count("fastgrid.segment_cache_hits")
            legal, needed = entry[1], entry[2]
        else:
            if OBS.enabled:
                OBS.count("fastgrid.shapegrid_fallbacks")
            wire_type = self.wire_types[wire_type_name]
            xv, yv, z = self.graph.position(v)
            xw, yw, _ = self.graph.position(w)
            stick = StickFigure(z, xv, yv, xw, yw)
            check = self.checker.check_wire(wire_type, stick, None)
            legal, needed = check.legal, check.max_ripup_needed
            if len(self._segment_memo) >= 65536:
                self._segment_memo.clear()
            self._segment_memo[memo_key] = (self.epoch, legal, needed)
        if legal:
            return True
        if ripup_level < 0:
            return False
        return needed != RIPUP_FIXED and needed <= ripup_level

    def _is_dirty(self, vertex: Vertex) -> bool:
        z, t, c = vertex
        dirty = self._dirty.get((z, t))
        return dirty is not None and c in dirty

    # ------------------------------------------------------------------
    # Word-level interval scans
    # ------------------------------------------------------------------
    def track_epoch(self, z: int, t: int) -> int:
        """Generation counter of track (z, t); bumped on invalidation."""
        return self._track_epochs.get((z, t), 0)

    def scan_track_runs(
        self,
        wire_type_name: str,
        z: int,
        t: int,
        ranges: Sequence[Tuple[int, int]],
        ripup_level: int = -2,
        forced_cs: Optional[Set[int]] = None,
    ) -> List[Tuple[int, int, bool]]:
        """Decompose track (z, t) into wire-usable runs by word scans.

        Returns ``(c_lo, c_hi, needs_ripup)`` triples in cross order:
        maximal runs of plainly usable vertices, plus singleton runs for
        vertices only usable by ripping foreign wiring (level <=
        ``ripup_level``).  ``forced_cs`` vertices count as plainly usable
        regardless of their words (the source/target override).
        """
        runs: List[Tuple[int, int, bool]] = []
        for c_lo, c_hi in ranges:
            if c_lo > c_hi:
                continue
            if not self.enabled:
                state = [
                    self._state_for_bits(
                        self._packed(wire_type_name, (z, t, c)), ripup_level
                    )
                    for c in range(c_lo, c_hi + 1)
                ]
            else:
                computed = self.ensure_words(wire_type_name, z, t, c_lo, c_hi)
                reused = (c_hi - c_lo + 1) - computed
                if reused > 0:
                    self.hits += reused
                    if OBS.enabled:
                        OBS.count("fastgrid.hits", reused)
                words = self._tracks[(wire_type_name, z, t)].words
                state = [
                    self._state_for_bits(words[c], ripup_level)
                    for c in range(c_lo, c_hi + 1)
                ]
            if forced_cs:
                for c in forced_cs:
                    if c_lo <= c <= c_hi:
                        state[c - c_lo] = 1
            self._append_state_runs(runs, state, c_lo)
        return runs

    @staticmethod
    def _state_for_bits(bits: int, ripup_level: int) -> int:
        """0 = blocked, 1 = plainly wire-usable, 2 = usable via ripup."""
        if bits & 1:
            return 1
        if ripup_level < 0:
            return 0
        enc = (bits >> 4) & 7
        if enc != _RIPUP_FIXED_ENC and enc <= ripup_level:
            return 2
        return 0

    @staticmethod
    def _append_state_runs(
        runs: List[Tuple[int, int, bool]], state: List[int], c_lo: int
    ) -> None:
        n = len(state)
        starts = [0] + [i for i in range(1, n) if state[i] != state[i - 1]]
        starts.append(n)
        for k in range(len(starts) - 1):
            s, e = starts[k], starts[k + 1]
            st = state[s]
            if st == 1:
                runs.append((c_lo + s, c_lo + e - 1, False))
            elif st == 2:
                for c in range(c_lo + s, c_lo + e):
                    runs.append((c, c, True))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def invalidate_region(self, layer: int, rect: Rect, off_track: bool = False) -> None:
        """Clear cached words near ``rect`` on ``layer`` and its neighbours.

        Via legality on adjacent layers depends on shapes here, so the
        invalidation spans layers ``layer - 1 .. layer + 1``.  The validity
        bits of both word halves are cleared with one slice store each per
        cached track, the global epoch is bumped once (invalidating the
        segment memo), and each touched track's epoch is bumped
        (invalidating interval-cache runs).  With ``off_track`` set, the
        affected vertices additionally get dirty bits so incident-edge
        legality is re-derived from the shape grid.
        """
        self.epoch += 1
        stack = self.graph.stack
        track_epochs = self._track_epochs
        for z in (layer - 1, layer, layer + 1):
            if not stack.has_layer(z):
                continue
            radius = self.checker.rules.max_interaction_distance(z) + 2 * stack[z].pitch
            window = rect.expanded(radius)
            if stack.direction(z) is Direction.HORIZONTAL:
                track_lo, track_hi = window.y_lo, window.y_hi
                cross_lo, cross_hi = window.x_lo, window.x_hi
            else:
                track_lo, track_hi = window.x_lo, window.x_hi
                cross_lo, cross_hi = window.y_lo, window.y_hi
            track_range = self.graph.tracks_in_range(z, track_lo, track_hi)
            cross_range = self.graph.crosses_in_range(z, cross_lo, cross_hi)
            if not cross_range:
                continue
            c_lo, c_hi = cross_range[0], cross_range[-1]
            for t in track_range:
                track_epochs[(z, t)] = track_epochs.get((z, t), 0) + 1
            cleared = bytes(c_hi - c_lo + 1)
            for wt_name in self.wire_types:
                for t in track_range:
                    tw = self._tracks.get((wt_name, z, t))
                    if tw is not None:
                        tw.valid[c_lo:c_hi + 1] = cleared
                        tw.cross_valid[c_lo:c_hi + 1] = cleared
            if off_track:
                for t in track_range:
                    dirty = self._dirty.setdefault((z, t), set())
                    dirty.update(range(c_lo, c_hi + 1))

    def clear_dirty(self, layer: int, rect: Rect) -> None:
        """Remove dirty bits in a region (after off-track shapes left)."""
        stack = self.graph.stack
        for z in (layer - 1, layer, layer + 1):
            if not stack.has_layer(z):
                continue
            radius = self.checker.rules.max_interaction_distance(z) + 2 * stack[z].pitch
            window = rect.expanded(radius)
            if stack.direction(z) is Direction.HORIZONTAL:
                track_range = self.graph.tracks_in_range(z, window.y_lo, window.y_hi)
                cross_range = self.graph.crosses_in_range(z, window.x_lo, window.x_hi)
            else:
                track_range = self.graph.tracks_in_range(z, window.x_lo, window.x_hi)
                cross_range = self.graph.crosses_in_range(z, window.y_lo, window.y_hi)
            if not cross_range:
                continue
            for t in track_range:
                dirty = self._dirty.get((z, t))
                if dirty:
                    dirty.difference_update(cross_range)

    # ------------------------------------------------------------------
    # Statistics (Sec. 3.6 / Fig. 4)
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def interval_count(self) -> int:
        """Number of maximal runs of identical cached words.

        This is the storage unit of the real fast grid (Fig. 4); we keep
        per-vertex word arrays for simplicity but report the interval
        statistic they would compress to.  Tracks iterate in stored
        (array) order — no per-call sorting.  Words are compared as
        stored, so an unfilled jog/via half compares as zero bits.
        """
        count = 0
        for tw in self._tracks.values():
            previous_c: Optional[int] = None
            previous_word: Optional[int] = None
            valid = tw.valid
            words = tw.words
            for c in range(len(valid)):
                if not valid[c]:
                    continue
                word = words[c]
                if previous_c is None or c != previous_c + 1 or word != previous_word:
                    count += 1
                previous_c = c
                previous_word = word
        return count
