"""End-to-end automatic layout pipeline (paper Fig. 1).

``run_pipeline`` chains every stage: functional blocks (the circuit's own;
:func:`repro.sr.recognize_rules` recovers them from a flat device list)
-> multi-shape configuration -> floorplanning (RL agent or a baseline)
-> OARSMT global routing -> channel definition -> detailed routing ->
procedural layout generation -> DRC + LVS signoff.

``run_pipeline_batch`` fans several circuits out through
:mod:`repro.engine`, so a multi-circuit signoff sweep can run on a
process pool and be served from the artifact cache on re-runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from .baselines.common import FloorplanResult
from .baselines.sa import SAConfig, simulated_annealing
from .circuits.netlist import Circuit
from .layout.drc import DRCReport, check_drc
from .layout.generator import generate_layout
from .layout.geometry import Layout
from .layout.lvs import LVSReport, check_lvs
from .routing.channels import Channel, CongestionMap, congestion, define_channels
from .routing.detailed import DetailedRoute, detailed_route
from .routing.global_router import GlobalRoute, route_circuit

#: A floorplanner is any callable producing a FloorplanResult for a circuit.
Floorplanner = Callable[[Circuit], FloorplanResult]


@dataclass
class PipelineResult:
    """Artifacts and timings of one pipeline run."""

    circuit: Circuit
    floorplan: FloorplanResult
    route: GlobalRoute
    channels: List[Channel]
    congestion: CongestionMap
    detail: DetailedRoute
    layout: Layout
    drc: DRCReport
    lvs: LVSReport
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())

    @property
    def signoff_clean(self) -> bool:
        return self.drc.clean and not self.lvs.short_pairs

    def summary(self, timings: bool = True) -> str:
        """One-line result; ``timings=False`` omits the wall-clock ``time=``."""
        text = (
            f"{self.circuit.name}: area={self.layout.area:.1f} um^2, "
            f"dead_space={100 * self.floorplan.dead_space:.1f}%, "
            f"wirelength={self.route.total_wirelength:.1f} um, "
            f"DRC={'clean' if self.drc.clean else f'{len(self.drc.violations)} violations'}, "
            f"LVS={'clean' if self.lvs.clean else f'{len(self.lvs.open_nets)} opens / {len(self.lvs.short_pairs)} shorts'}"
        )
        return f"{text}, time={self.total_time:.2f} s" if timings else text


def default_floorplanner(circuit: Circuit) -> FloorplanResult:
    """SA fallback used when no RL agent is supplied."""
    return simulated_annealing(circuit, SAConfig(moves_per_temperature=25, seed=0))


def run_pipeline(
    circuit: Circuit,
    floorplanner: Optional[Floorplanner] = None,
) -> PipelineResult:
    """Run the full Fig. 1 flow on ``circuit``."""
    floorplanner = floorplanner or default_floorplanner
    timings: Dict[str, float] = {}

    t0 = time.perf_counter()
    floorplan = floorplanner(circuit)
    timings["floorplan"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    route = route_circuit(circuit, floorplan.rects)
    timings["global_route"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    channels = define_channels(floorplan.rects, route)
    cmap = congestion(floorplan.rects, route)
    timings["channels"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    detail = detailed_route(route)
    timings["detailed_route"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    layout = generate_layout(circuit, floorplan.rects, routing=detail, pins=route.pins)
    timings["layout"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    drc = check_drc(layout)
    lvs = check_lvs(circuit, layout)
    timings["signoff"] = time.perf_counter() - t0

    return PipelineResult(
        circuit=circuit,
        floorplan=floorplan,
        route=route,
        channels=channels,
        congestion=cmap,
        detail=detail,
        layout=layout,
        drc=drc,
        lvs=lvs,
        timings=timings,
    )


def run_pipeline_batch(
    circuits: Sequence[str],
    method: str = "sa",
    config: Optional[Dict] = None,
    seed: int = 0,
    executor: Optional["Executor"] = None,  # noqa: F821 (forward ref)
) -> List[PipelineResult]:
    """Run the full flow on several circuits through :mod:`repro.engine`.

    ``circuits`` are library names (strings, not :class:`Circuit` objects,
    so the task specs stay picklable and content-hashable); ``method`` and
    ``config`` select/override the baseline floorplanner exactly like the
    ``repro floorplan`` CLI.  Results come back in input order; with a
    process executor the circuits run concurrently, and with a cache
    attached repeated batches replay from disk.
    """
    from .engine.executor import Executor
    from .engine.task import TaskSpec

    executor = executor or Executor()
    specs = [
        TaskSpec(
            fn="pipeline",
            params={"circuit": name, "method": method, "config": config or {}},
            seed=seed,
            tag=f"pipeline/{name}",
        )
        for name in circuits
    ]
    return [r.value for r in executor.map_tasks(specs)]
