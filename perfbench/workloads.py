"""The three benchmark workloads, built from a workload seed.

Each workload has a ``setup`` (instance generation and router
construction; timed as ``setup_s``) and a ``measure`` step (the routing
work the end-to-end ``route_s`` times).  Both run inside one fresh
child process (``perfbench/child.py``); nothing here starts a process.

Workload seed ``ws`` fixes every input:

* ``flow_quick``   - Table I quick chip (2x5 cells, 8 nets), chip seed
  ``100 + ws`` (ws=1 is ``BENCH_CHIP_SPECS[0]``, seed 101);
* ``eco_moves``    - the same chip, plus an ECO edit list that is a
  function of the unrouted chip and ``ws`` only (:func:`eco_edits`);
* ``global_dense`` - Table III's four chips, chip seeds
  ``300 + 10 * (ws - 1) + k`` for k = 1..4 (ws=1 is t3a-t3d).

The specs are copied here, not imported from ``benchmarks/``, so an
edit there cannot silently change this benchmark's inputs.
"""

from __future__ import annotations

import random
import time
from statistics import median
from typing import Dict, List, Tuple

from hostspeed import Timing, timed

from repro.chip.generator import ChipSpec, generate_chip
from repro.drc.checker import DrcChecker
from repro.engine.changes import MovePin, RemoveNet
from repro.engine.session import RoutingSession
from repro.flow.bonnroute import BonnRouteFlow
from repro.flow.stats import SCENIC_LENGTH_THRESHOLD, scenic_nets
from repro.groute.router import GlobalRouter
from repro.steiner.rsmt import steiner_length

#: Router settings shared by the flow and ECO workloads (Table I bench).
GR_PHASES = 10
ROUTER_SEED = 1

#: Table III settings: dense-congestion capacities, 10 sharing phases.
CAPACITY_SCALE = 0.35

#: ECO edit list shape: this many pin moves, then one net removal.
ECO_PIN_MOVES = 5
#: Candidate pin displacements in dbu (multiples of the 80-dbu pitch).
ECO_SHIFTS = (-320, -240, -160, 160, 240, 320)
#: Clearance a moved pin keeps from every other same-layer shape and
#: from the die boundary.
ECO_CLEARANCE = 80

#: Table I's scenic column: detour of at least 25 % over the Steiner length.
SCENIC_DETOUR = 0.25

#: Cheap set-ups are repeated and their median reported (a flow set-up
#: takes milliseconds, a global-routing one ~0.1 s).  The repeats are
#: spread over a second or two: on a shared host the speed of a
#: sub-second window swings by up to 1.7x, so samples from one instant
#: would make the median a snapshot of the host.
FLOW_SETUP_REPEATS, FLOW_SETUP_SPREAD_S = 25, 2.0
GLOBAL_SETUP_REPEATS, GLOBAL_SETUP_SPREAD_S = 5, 1.0


def timed_repeats(repeats: int, spread_s: float, step) -> float:
    """Median scaled time (:func:`timed`) of ``repeats`` calls over ``spread_s``."""
    times = []
    for index in range(repeats):
        if index:
            time.sleep(spread_s / repeats)
        times.append(timed(step)[1].seconds)
    return median(times)


def flow_spec(ws: int) -> ChipSpec:
    return ChipSpec("chip1", rows=2, row_width_cells=5, net_count=8, seed=100 + ws)


def table3_specs(ws: int) -> List[ChipSpec]:
    base = 300 + 10 * (ws - 1)
    return [
        ChipSpec("t3a", rows=4, row_width_cells=10, net_count=28, seed=base + 1),
        ChipSpec("t3b", rows=4, row_width_cells=11, net_count=30, seed=base + 2),
        ChipSpec("t3c", rows=5, row_width_cells=10, net_count=32, seed=base + 3),
        ChipSpec("t3d", rows=5, row_width_cells=12, net_count=40, seed=base + 4),
    ]


def new_session(chip) -> RoutingSession:
    return RoutingSession(chip, gr_phases=GR_PHASES, seed=ROUTER_SEED)


# ----------------------------------------------------------------------
# ECO edit list
# ----------------------------------------------------------------------
def _clear_of(rect, layer, others) -> bool:
    grown = rect.expanded(ECO_CLEARANCE)
    return not any(
        other_layer == layer and grown.intersects(other)
        for other_layer, other in others
    )


def eco_edits(chip, ws: int) -> List[object]:
    """ECO edits from the unrouted chip and the workload seed only.

    ``ECO_PIN_MOVES`` pin moves on distinct nets, each to a spot that
    keeps ``ECO_CLEARANCE`` from the die edge and from every obstruction
    and every other pin (at its position after the earlier moves) on its
    layer, then the removal of one of the smallest nets no move touched.
    Routed wiring is never read, so a change to the router cannot change
    the edit list.
    """
    rng = random.Random(f"eco_moves:{chip.name}:{ws}")
    fixed = [(layer, rect) for layer, rect, _owner in chip.obstruction_shapes()]
    nets = sorted(chip.nets, key=lambda n: n.name)
    placed = {
        (net.name, pin.name): list(pin.shapes) for net in nets for pin in net.pins
    }
    candidates = list(placed)
    rng.shuffle(candidates)
    inner = chip.die.expanded(-ECO_CLEARANCE)
    edits: List[object] = []
    for key in candidates:
        if len(edits) == ECO_PIN_MOVES:
            break
        if any(edit.net_name == key[0] for edit in edits):
            continue
        others = fixed + [
            shape for other, shapes in placed.items() if other != key
            for shape in shapes
        ]
        shifts = list(ECO_SHIFTS)
        rng.shuffle(shifts)
        for dx in shifts:
            moved = [(layer, rect.translated(dx, 0)) for layer, rect in placed[key]]
            if all(
                inner.contains_rect(rect) and _clear_of(rect, layer, others)
                for layer, rect in moved
            ):
                edits.append(MovePin(key[0], key[1], dx, 0))
                placed[key] = moved
                break
    if len(edits) < ECO_PIN_MOVES:
        raise ValueError(
            f"{chip.name}: only {len(edits)} of {ECO_PIN_MOVES} pins can move"
        )
    touched = {edit.net_name for edit in edits}
    removable = [net for net in nets if net.name not in touched]
    fewest = min(len(net.pins) for net in removable)
    edits.append(
        RemoveNet(rng.choice([n for n in removable if len(n.pins) == fewest]).name)
    )
    return edits


# ----------------------------------------------------------------------
# Output checks shared by the detailed-routing workloads
# ----------------------------------------------------------------------
def wiring_outputs(space) -> Dict[str, int]:
    """Deterministic outputs of a routed space, DRC by drc/checker.py."""
    report = DrcChecker(space).run()
    return {
        "netlength_dbu": space.total_wire_length(),
        "vias": space.total_via_count(),
        "errors": report.error_count,
        "opens": report.opens,
        "scenic_nets": len(scenic_nets(space, SCENIC_DETOUR)),
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class FlowQuick:
    """The full BonnRoute flow (preroute, global, detailed, cleanup)."""

    name = "flow_quick"

    def __init__(self, ws: int) -> None:
        self.ws = ws

    def setup(self) -> float:
        return timed_repeats(
            FLOW_SETUP_REPEATS, FLOW_SETUP_SPREAD_S, self._setup_once
        )

    def _setup_once(self) -> None:
        self.chip = generate_chip(flow_spec(self.ws))
        self.session = new_session(self.chip)

    def measure(self) -> Timing:
        flow = BonnRouteFlow(
            self.chip, gr_phases=GR_PHASES, seed=ROUTER_SEED,
            session=self.session,
        )
        self.result, timing = timed(flow.run)
        return timing

    def outputs(self) -> Tuple[Dict[str, object], List[str]]:
        result = self.result
        out: Dict[str, object] = wiring_outputs(result.space)
        out["max_congestion"] = result.global_result.fractional.max_congestion
        out["attempted"] = len(self.chip.nets)
        out["failed"] = len(result.failure_report.net_failures)
        problems = []
        if out["opens"]:
            problems.append(f"{out['opens']} opens after the flow")
        if result.metrics.errors != out["errors"]:
            problems.append(
                f"flow reports {result.metrics.errors} errors, "
                f"drc/checker.py counts {out['errors']}"
            )
        if result.failure_report.degraded_stages:
            problems.append(
                f"degraded stages {sorted(result.failure_report.degraded_stages)}"
            )
        return out, problems


class EcoMoves:
    """One route (set-up), then ECO edits applied one at a time."""

    name = "eco_moves"

    def __init__(self, ws: int) -> None:
        self.ws = ws

    def setup(self) -> float:
        return timed(self._setup_once)[1].seconds

    def _setup_once(self) -> None:
        self.chip = generate_chip(flow_spec(self.ws))
        self.edits = eco_edits(self.chip, self.ws)
        self.session = new_session(self.chip)
        # The base route skips the DRC cleanup pass (a third of a flow)
        # to keep a run inside the time budget; reroute() runs none either.
        self.base = self.session.route(cleanup=False)

    def measure(self) -> Timing:
        self.reports, timing = timed(self._apply_edits)
        return timing

    def _apply_edits(self) -> List[object]:
        reports = []
        for edit in self.edits:
            self.session.apply_changes([edit])
            reports.append(self.session.reroute())
        return reports

    def outputs(self) -> Tuple[Dict[str, object], List[str]]:
        session = self.session
        out: Dict[str, object] = wiring_outputs(session.space)
        out["max_congestion"] = (
            self.base.global_result.fractional.max_congestion
        )
        out["attempted"] = sum(r.nets_rerouted for r in self.reports)
        out["failed"] = sum(r.nets_failed for r in self.reports) + len(
            self.base.failure_report.net_failures
        )
        out["nets_dirty"] = sum(r.nets_dirty for r in self.reports)
        problems = []
        if out["opens"]:
            problems.append(f"{out['opens']} opens after the edits")
        removed = [e.net_name for e in self.edits if isinstance(e, RemoveNet)]
        for name in removed:
            if name in session.space.routes:
                problems.append(f"removed net {name} still has wiring")
        for edit in self.edits:
            if (
                isinstance(edit, MovePin)
                and edit.net_name not in removed
                and edit.net_name not in session.space.routes
            ):
                problems.append(f"moved net {edit.net_name} has no wiring")
        return out, problems


class GlobalDense:
    """Global routing alone (Alg 1 + 2, rounding, R&R) on Table III chips."""

    name = "global_dense"

    def __init__(self, ws: int) -> None:
        self.ws = ws

    def setup(self) -> float:
        return timed_repeats(
            GLOBAL_SETUP_REPEATS, GLOBAL_SETUP_SPREAD_S, self._setup_once
        )

    def _setup_once(self) -> None:
        self.routers = [
            GlobalRouter(
                generate_chip(spec), phases=GR_PHASES, seed=ROUTER_SEED,
                capacity_scale=CAPACITY_SCALE,
            )
            for spec in table3_specs(self.ws)
        ]

    def measure(self) -> Timing:
        self.results, timing = timed(
            lambda: [router.run() for router in self.routers]
        )
        return timing

    def outputs(self) -> Tuple[Dict[str, object], List[str]]:
        netlength = vias = scenic = attempted = overflows = failed = 0
        bound = 0
        congestion = []
        problems = []
        for router, result in zip(self.routers, self.results):
            chip = router.chip
            congestion.append(result.fractional.max_congestion)
            overflows += result.rounding_stats.final_violations
            netlength += result.wire_length()
            vias += result.via_count()
            attempted += len(result.routes) + len(result.local_nets)
            for name in result.routes:
                net = chip.net(name)
                lower = steiner_length(net.terminal_points())
                length = result.net_wire_length(name)
                bound += lower
                if (
                    length >= SCENIC_LENGTH_THRESHOLD
                    and length >= (1.0 + SCENIC_DETOUR) * lower
                ):
                    scenic += 1
            missing = [
                net.name for net in chip.nets
                if net.name not in result.routes
                and net.name not in result.local_nets
            ]
            failed += len(missing)
        if netlength < bound:
            problems.append(
                f"global netlength {netlength} below the Steiner bound {bound}"
            )
        out: Dict[str, object] = {
            "netlength_dbu": netlength,
            "vias": vias,
            "errors": overflows,
            "scenic_nets": scenic,
            "steiner_bound_dbu": bound,
            "max_congestion": sum(congestion) / len(congestion),
            "attempted": attempted + failed,
            "failed": failed,
        }
        return out, problems


WORKLOADS = {w.name: w for w in (FlowQuick, EcoMoves, GlobalDense)}
