"""Table II harness: complete layouts vs. manual design.

The paper compares the automated pipeline against human layouts of an OTA
(3 blocks), Bias-1 (9) and Driver (17): floorplan area, dead space, and
the time to reach a DRC/LVS-clean layout.

Substitution note: we have no human designers, so

* the **manual layout** is simulated by a high-effort compact SA flow
  (tight spacing, long schedule) followed by the same routing/layout
  stages — representing the quality a careful engineer reaches;
* **manual design hours** are workload-model constants taken from the
  paper's reported engineering effort (8 h / 8 h / 32 h) — they cannot be
  measured synthetically and are reported as model inputs, not results;
* the automated flow's **template generation time** is truly measured,
  and the residual **manual improvement time** is modeled as proportional
  to the signoff issues left by the automated flow (one designer-minute
  per open net / DRC violation class, floor of paper-like constants).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..baselines.sa import SAConfig, simulated_annealing
from ..circuits.library import TABLE2_SET, get_circuit
from ..circuits.netlist import Circuit
from ..pipeline import PipelineResult, run_pipeline
from ..rl.agent import FloorplanAgent

#: Modeled full-manual design effort (hours) per circuit — paper Table II.
MANUAL_HOURS: Dict[str, float] = {
    "OTA-small": 8.0,
    "Bias-1": 8.0,
    "Driver": 32.0,
}

#: Modeled residual manual-improvement effort (hours per signoff issue).
HOURS_PER_ISSUE = 0.05


@dataclass
class Table2Row:
    circuit: str
    method: str                     # "Ours" or "Manual"
    area: float                     # um^2 (floorplan bounding box)
    dead_space: float               # percent
    template_seconds: Optional[float]      # automated only
    improvement_hours: Optional[float]     # automated only (modeled)
    total_hours: float              # end-to-end layout time

    def summary(self) -> str:
        t = (
            f"template {self.template_seconds:.1f}s + manual {self.improvement_hours:.2f}h"
            if self.template_seconds is not None
            else "manual flow"
        )
        return (
            f"{self.circuit:<10} {self.method:<7} area={self.area:9.1f} um^2 "
            f"dead={self.dead_space:5.2f}% total={self.total_hours:7.3f} h ({t})"
        )


def _manual_reference(circuit: Circuit) -> PipelineResult:
    """High-effort compact SA standing in for the hand-crafted layout."""

    def manual_floorplanner(ckt: Circuit):
        return simulated_annealing(
            ckt,
            SAConfig(
                initial_temperature=4.0,
                final_temperature=0.005,
                cooling=0.97,
                moves_per_temperature=60,
                spacing=0.02,  # humans pack tighter than channel reservation
                seed=7,
            ),
        )

    return run_pipeline(circuit, floorplanner=manual_floorplanner)


def run_table2(
    agent: Optional[FloorplanAgent] = None,
    circuits: Optional[Sequence[str]] = None,
) -> List[Table2Row]:
    """Regenerate Table II rows ("Ours" vs "Manual") per circuit."""
    names = list(circuits) if circuits is not None else list(TABLE2_SET)
    rows: List[Table2Row] = []

    for name in names:
        circuit = get_circuit(name)

        if agent is not None:
            def ours_floorplanner(ckt: Circuit):
                return agent.solve(ckt, method_name="R-GCN RL")
        else:
            def ours_floorplanner(ckt: Circuit):
                return simulated_annealing(ckt, SAConfig(moves_per_temperature=25, seed=0))

        ours = run_pipeline(circuit, floorplanner=ours_floorplanner)
        issues = len(ours.drc.violations) + len(ours.lvs.open_nets) + len(ours.lvs.short_pairs)
        improvement_hours = issues * HOURS_PER_ISSUE
        template_seconds = ours.total_time
        total_hours = template_seconds / 3600.0 + improvement_hours
        rows.append(Table2Row(
            circuit=circuit.name,
            method="Ours",
            area=ours.floorplan.area,
            dead_space=100 * ours.floorplan.dead_space,
            template_seconds=template_seconds,
            improvement_hours=improvement_hours,
            total_hours=total_hours,
        ))

        manual = _manual_reference(circuit)
        rows.append(Table2Row(
            circuit=circuit.name,
            method="Manual",
            area=manual.floorplan.area,
            dead_space=100 * manual.floorplan.dead_space,
            template_seconds=None,
            improvement_hours=None,
            total_hours=MANUAL_HOURS.get(circuit.name, 8.0),
        ))
    return rows


def format_table2(rows: Sequence[Table2Row], timings: bool = True) -> str:
    """Render Ours/Manual rows per circuit with area and time deltas.

    ``timings=False`` reports the automated flow's modeled hours only
    (``improvement_hours``, without the measured template seconds), so
    the text is deterministic (the form persisted as
    ``results/table2.txt``).
    """
    time_head = "layout time(h)" if timings else "modeled time(h)"
    lines = [
        f"{'circuit':<10} {'method':<7} {'area(um^2)':>12} {'dead space(%)':>14} "
        f"{time_head:>15}"
    ]
    circuits: List[str] = []
    for row in rows:
        if row.circuit not in circuits:
            circuits.append(row.circuit)
    for circuit in circuits:
        ours = next(r for r in rows if r.circuit == circuit and r.method == "Ours")
        manual = next(r for r in rows if r.circuit == circuit and r.method == "Manual")
        ours_hours = ours.total_hours if timings else ours.improvement_hours
        area_delta = 100 * (ours.area - manual.area) / manual.area
        time_delta = 100 * (ours_hours - manual.total_hours) / manual.total_hours
        lines.append(
            f"{circuit:<10} {'Ours':<7} {ours.area:>12.1f} {ours.dead_space:>14.2f} "
            f"{ours_hours:>15.3f}   ({area_delta:+.1f}% area, {time_delta:+.1f}% time)"
        )
        lines.append(
            f"{circuit:<10} {'Manual':<7} {manual.area:>12.1f} {manual.dead_space:>14.2f} "
            f"{manual.total_hours:>15.3f}"
        )
    return "\n".join(lines)
