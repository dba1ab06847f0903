"""Ablation: future costs pi_H vs pi_P vs pi_GR vs none (Sec. 4.1).

Paper: goal orientation cuts labelling steps; the blockage-aware pi_P
labels fewer vertices than pi_H around large obstacles but costs more to
compute, so it is only used for connections whose global route detours.
The corridor future cost pi_GR (arXiv:2111.06169), a backward sweep
over the search's own open vertices, must label fewer vertices than
pi_H inside a global-routing corridor - the evidence the detailed
router's default policy (pi_GR for every corridor-restricted search)
rests on.

The bench runs identical searches under all four potentials, once over
the whole chip and once inside an L-shaped corridor of the kind global
routing hands the detailed router, and compares labelling work; within
each area all four must return identical optimal costs.
"""

import pytest

from benchmarks.common import print_table
from repro.chip.generator import ChipSpec, generate_chip
from repro.droute.area import RoutingArea
from repro.droute.future_cost import (
    FutureCostGR,
    FutureCostH,
    FutureCostP,
    SearchCosts,
)
from repro.droute.intervals import GraphView
from repro.droute.pathsearch import interval_path_search
from repro.droute.space import RoutingSpace
from repro.geometry.rect import Rect
from repro.tech.wiring import StickFigure


def _build():
    chip = generate_chip(
        ChipSpec("ablfc", rows=3, row_width_cells=7, net_count=6, seed=31)
    )
    space = RoutingSpace(chip)
    graph = space.graph
    # A large wall on layer 5 the searches must detour around.
    z = 5
    t_mid = len(graph.tracks[z]) // 2
    for t in range(max(0, t_mid - 3), min(len(graph.tracks[z]), t_mid + 4)):
        y = graph.tracks[z][t]
        x_lo, _, _ = graph.position((z, t, len(graph.crosses[z]) // 3))
        x_hi, _, _ = graph.position((z, t, 2 * len(graph.crosses[z]) // 3))
        space.add_wire(f"wall{t}", "default", StickFigure(z, x_lo, y, x_hi, y))
    s = (z, 1, 1)
    t = (z, len(graph.tracks[z]) - 2, len(graph.crosses[z]) - 2)
    return space, s, t


def _corridor(space, s, t):
    """An L-shaped corridor: along s's track, then up t's column.

    Eight pitches of margin on the search layer and its two neighbours,
    the shape a two-leg global route gives a connection.
    """
    graph = space.graph
    xs, ys, z = graph.position(s)
    xt, yt, _ = graph.position(t)
    margin = 8 * space.chip.stack[space.chip.stack.bottom].pitch
    boxes = []
    legs = (
        Rect(xs - margin, ys - margin, xt + margin, ys + margin),
        Rect(xt - margin, ys - margin, xt + margin, yt + margin),
    )
    for layer in (z - 1, z, z + 1):
        boxes.extend((layer, leg) for leg in legs)
    return RoutingArea.from_boxes(boxes)


def test_future_cost_ablation(benchmark):
    space, s, t = _build()
    costs = SearchCosts()
    large = [
        (layer, rect)
        for layer, rect, _own in space.chip.obstruction_shapes()
    ]
    areas = (
        ("chip", RoutingArea.everywhere()),
        ("corridor", _corridor(space, s, t)),
    )

    def potentials(area):
        return (
            ("none", lambda view: lambda v: 0),
            ("pi_H", lambda view: FutureCostH(space.graph, [t], costs)),
            ("pi_P", lambda view: FutureCostP(
                space.graph, [t], costs, area, large
            )),
            ("pi_GR", lambda view: FutureCostGR(
                space.graph, [t], costs, area, view=view, stop_vertices={s}
            )),
        )

    def run_all():
        out = {}
        for area_name, area in areas:
            for name, make_pi in potentials(area):
                view = GraphView(space, "default", area, forced_vertices={s, t})
                out[area_name, name] = interval_path_search(
                    view, {s: 0}, {t}, costs, make_pi(view)
                )
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [area_name, name, r.cost, r.stats.pops, r.stats.labels_pushed,
         r.stats.vertices_processed]
        for (area_name, name), r in results.items()
    ]
    print_table(
        "Ablation: future cost choice (identical costs per area required)",
        ["area", "potential", "cost", "pops", "labels", "vertices"],
        rows,
    )
    for area_name, _area in areas:
        costs_seen = {
            r.cost for (a, _name), r in results.items() if a == area_name
        }
        assert len(costs_seen) == 1, "potentials must not change optimality"
    chip = {name: r for (a, name), r in results.items() if a == "chip"}
    corridor = {name: r for (a, name), r in results.items() if a == "corridor"}
    assert chip["pi_H"].stats.pops <= chip["none"].stats.pops
    assert chip["pi_P"].stats.pops <= chip["pi_H"].stats.pops
    assert (
        corridor["pi_GR"].stats.labels_pushed
        < corridor["pi_H"].stats.labels_pushed
    ), "pi_GR must label fewer vertices than pi_H inside a corridor"
    benchmark.extra_info["pops"] = {
        f"{a}/{name}": r.stats.pops for (a, name), r in results.items()
    }
