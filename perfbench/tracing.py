"""Per-layer timing from outside the program.

:class:`LayerTracer` wraps the public entry point of each router layer
(a class attribute or a module-level name, patched where the callers
look it up) and accumulates calls, inclusive time and self time.  Self
time is inclusive time minus the time of wrapped calls nested inside.
The program's own ``OBS`` counters are read next to it for the work
ratios.  Nothing inside ``src/`` is edited; :meth:`LayerTracer.remove`
restores every patched attribute.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer name, module, attribute path, extra modules that import the
#: name directly).  Several targets may share one layer name; their
#: calls and times add up (``droute.space.commit`` is ``add_wire`` plus
#: ``add_via``; ``groute.router.run`` is ``run`` plus ``run_incremental``).
TARGETS: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("grid.blockgrid.build", "repro.grid.blockgrid", "BlockageGrid.__init__", ()),
    ("grid.blockgrid.shortest_path", "repro.grid.blockgrid",
     "BlockageGrid.shortest_path", ()),
    ("droute.pinaccess.build_catalogue", "repro.droute.pinaccess",
     "PinAccessPlanner.build_catalogue", ()),
    ("droute.pinaccess.conflict_free_solution", "repro.droute.pinaccess",
     "PinAccessPlanner.conflict_free_solution", ()),
    ("droute.pinaccess.jumper_fallback", "repro.droute.pinaccess",
     "PinAccessPlanner.jumper_fallback", ()),
    ("droute.future_cost.build", "repro.droute.future_cost",
     "FutureCostGR.__init__", ()),
    ("droute.pathsearch.interval_search", "repro.droute.pathsearch",
     "interval_path_search", ("repro.droute.connect",)),
    ("droute.pathsearch.node_search", "repro.droute.pathsearch",
     "node_path_search", ("repro.droute.connect",)),
    ("grid.drc_query.check_via", "repro.grid.drc_query",
     "DistanceRuleChecker.check_via", ()),
    ("grid.drc_query.check_wire", "repro.grid.drc_query",
     "DistanceRuleChecker.check_wire", ()),
    ("droute.connect.connect_net", "repro.droute.connect",
     "NetConnector.connect_net", ()),
    ("droute.router.run", "repro.droute.router", "DetailedRouter.run", ()),
    ("droute.space.commit", "repro.droute.space", "RoutingSpace.add_wire", ()),
    ("droute.space.commit", "repro.droute.space", "RoutingSpace.add_via", ()),
    ("droute.space.ripup", "repro.droute.space",
     "RoutingSpace.remove_net_route", ()),
    ("engine.session.apply_changes", "repro.engine.session",
     "RoutingSession.apply_changes", ()),
    ("engine.session.reroute", "repro.engine.session",
     "RoutingSession.reroute", ()),
    ("baseline.cleanup.run", "repro.baseline.cleanup", "DrcCleanup.run", ()),
    ("drc.checker.run", "repro.drc.checker", "DrcChecker.run", ()),
    ("groute.steiner_oracle.tree", "repro.groute.steiner_oracle",
     "path_composition_steiner_tree",
     ("repro.groute.sharing", "repro.groute.rounding")),
    ("groute.sharing.solve", "repro.groute.sharing",
     "ResourceSharingSolver.solve", ()),
    ("groute.rounding.round", "repro.groute.rounding",
     "RoundingPostprocessor.round", ()),
    ("groute.rounding.repair", "repro.groute.rounding",
     "RoundingPostprocessor.repair", ()),
    ("groute.router.build", "repro.groute.router", "GlobalRouter.__init__", ()),
    ("groute.router.run", "repro.groute.router", "GlobalRouter.run", ()),
    ("groute.router.run", "repro.groute.router",
     "GlobalRouter.run_incremental", ()),
]

#: Layers whose results are counted: result -> amount added to
#: ``LayerStat.outcome`` (paths found; nets the cleanup rerouted).
OUTCOMES: Dict[str, Callable[[object], int]] = {
    "grid.blockgrid.shortest_path": lambda result: int(result is not None),
    "baseline.cleanup.run": lambda report: report.rerouted_nets,
}


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


class LayerStat:
    __slots__ = ("calls", "incl_s", "self_s", "outcome")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.outcome = 0


class LayerTracer:
    """Wraps :data:`TARGETS`; :attr:`stats` maps layer name -> totals."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStat] = {}
        #: Per open wrapped call: time spent in wrapped calls nested in it.
        self._nested: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def _wrap(self, name: str, original: Callable) -> Callable:
        stat = self.stats[name]
        nested = self._nested
        outcome: Optional[Callable[[object], int]] = OUTCOMES.get(name)
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            nested.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = nested.pop()
                if nested:
                    nested[-1] += elapsed
                stat.calls += 1
                stat.incl_s += elapsed
                stat.self_s += elapsed - inner
            if outcome is not None:
                stat.outcome += outcome(result)
            return result

        return wrapper

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "LayerTracer":
        """Wrap every target; one the program no longer has is listed in
        :attr:`missing` and its layer reports zero."""
        for name, module_name, path, importers in TARGETS:
            self.stats.setdefault(name, LayerStat())
            owner = _module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original)
            self._patch(owner, attr, wrapper)
            for importer in importers:
                imported = _module(importer)
                if getattr(imported, "__dict__", {}).get(attr) is original:
                    self._patch(imported, attr, wrapper)
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_total(self) -> float:
        return sum(stat.self_s for stat in self.stats.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: LayerTracer, counters: Dict[str, float], measured_s: float
) -> Dict[str, float]:
    """The per-layer metrics of one traced run (names as in BENCHMARK.json).

    ``counters`` are the program's ``OBS`` counters for the measured
    section; ``measured_s`` its traced wall time.
    """
    stats = tracer.stats

    def calls(name: str) -> int:
        return stats[name].calls

    def self_s(name: str) -> float:
        return stats[name].self_s

    def incl_s(name: str) -> float:
        return stats[name].incl_s

    def counter(name: str) -> float:
        return counters.get(name, 0)

    blockgrid_searches = calls("grid.blockgrid.shortest_path")
    memo_hits = counter("pinaccess.catalogue_memo_hits")
    grid_hits = counter("fastgrid.hits")
    grid_lookups = grid_hits + counter("fastgrid.misses")
    interval_hits = counter("fastgrid.interval_cache_hits")
    metrics = {
        "grid.blockgrid.build.calls": calls("grid.blockgrid.build"),
        "grid.blockgrid.build.self_s": self_s("grid.blockgrid.build"),
        "grid.blockgrid.shortest_path.calls": blockgrid_searches,
        "grid.blockgrid.shortest_path.self_s": self_s("grid.blockgrid.shortest_path"),
        "grid.blockgrid.found_ratio": _ratio(
            stats["grid.blockgrid.shortest_path"].outcome, blockgrid_searches
        ),
        "droute.pinaccess.build_catalogue.calls": calls(
            "droute.pinaccess.build_catalogue"
        ),
        "droute.pinaccess.build_catalogue.incl_s": incl_s(
            "droute.pinaccess.build_catalogue"
        ),
        "droute.pinaccess.memo_hit_ratio": _ratio(
            memo_hits, memo_hits + counter("pinaccess.catalogues_built")
        ),
        "droute.pinaccess.conflict_free_solution.self_s": self_s(
            "droute.pinaccess.conflict_free_solution"
        ),
        "droute.pinaccess.jumper_fallback.calls": calls(
            "droute.pinaccess.jumper_fallback"
        ),
        "droute.future_cost.build.calls": calls("droute.future_cost.build"),
        "droute.future_cost.build.self_s": self_s("droute.future_cost.build"),
        "droute.pathsearch.interval_search.calls": calls(
            "droute.pathsearch.interval_search"
        ),
        "droute.pathsearch.interval_search.self_s": self_s(
            "droute.pathsearch.interval_search"
        ),
        "droute.pathsearch.node_search.calls": calls("droute.pathsearch.node_search"),
        "droute.pathsearch.labels_pushed": counter("pathsearch.labels_pushed"),
        "grid.drc_query.check_via.calls": calls("grid.drc_query.check_via"),
        "grid.drc_query.check_via.self_s": self_s("grid.drc_query.check_via"),
        "grid.drc_query.check_wire.calls": calls("grid.drc_query.check_wire"),
        "grid.drc_query.check_wire.self_s": self_s("grid.drc_query.check_wire"),
        "grid.fastgrid.hit_ratio": _ratio(grid_hits, grid_lookups),
        "grid.fastgrid.interval_cache_hit_ratio": _ratio(
            interval_hits,
            interval_hits + counter("fastgrid.interval_cache_misses"),
        ),
        "grid.fastgrid.shapegrid_fallbacks": counter("fastgrid.shapegrid_fallbacks"),
        "droute.connect.connect_net.calls": calls("droute.connect.connect_net"),
        "droute.connect.connect_net.self_s": self_s("droute.connect.connect_net"),
        "droute.router.run.incl_s": incl_s("droute.router.run"),
        "droute.router.run.self_s": self_s("droute.router.run"),
        "droute.router.retries": counter("droute.retries"),
        "droute.space.commit.calls": calls("droute.space.commit"),
        "droute.space.commit.self_s": self_s("droute.space.commit"),
        "droute.space.ripup.calls": calls("droute.space.ripup"),
        "droute.space.ripup.self_s": self_s("droute.space.ripup"),
        "engine.session.reroute.incl_s": incl_s("engine.session.reroute"),
        "engine.session.apply_changes.self_s": self_s("engine.session.apply_changes"),
        "engine.session.nets_dirty": counter("engine.nets_dirty"),
        "engine.session.ripups_propagated": counter("engine.ripups_propagated"),
        "baseline.cleanup.run.incl_s": incl_s("baseline.cleanup.run"),
        "baseline.cleanup.run.self_s": self_s("baseline.cleanup.run"),
        "baseline.cleanup.nets_rerouted": stats["baseline.cleanup.run"].outcome,
        "drc.checker.run.calls": calls("drc.checker.run"),
        "drc.checker.run.self_s": self_s("drc.checker.run"),
        "groute.steiner_oracle.tree.calls": calls("groute.steiner_oracle.tree"),
        "groute.steiner_oracle.tree.self_s": self_s("groute.steiner_oracle.tree"),
        "groute.sharing.solve.self_s": self_s("groute.sharing.solve"),
        "groute.sharing.phases": counter("sharing.phases"),
        "groute.sharing.oracle_reuses": counter("sharing.oracle_reuses"),
        "groute.rounding.round.self_s": self_s("groute.rounding.round"),
        "groute.rounding.repair.self_s": self_s("groute.rounding.repair"),
        "groute.router.build.self_s": self_s("groute.router.build"),
        "groute.router.run.incl_s": incl_s("groute.router.run"),
        "trace.coverage": _ratio(tracer.self_total(), measured_s),
    }
    return metrics
