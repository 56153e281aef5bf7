"""Sweep definitions: (method x circuit x seed) grids over the engine.

A :class:`SweepSpec` declares the grid; :func:`run_sweep` expands it into
:class:`~repro.engine.task.TaskSpec` cells, fans them out through an
:class:`~repro.engine.executor.Executor`, and aggregates per-cell
:class:`~repro.baselines.common.FloorplanResult` runs into IQM±std rows —
the same shape as the Table I harness, but for arbitrary grids
(``repro sweep`` on the command line).

A killed sweep resumes by running it again on the same artifact cache:
every cell that finished was cached as it completed (an atomic
write-then-rename), so the rerun serves those from the cache and
computes only the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..baselines.common import FloorplanResult
from ..experiments.stats import iqm_and_std
from .executor import Executor
from .task import TaskResult, TaskSpec


@dataclass
class SweepSpec:
    """A (method x circuit x seed) grid of baseline floorplanning runs.

    ``config`` entries override fields of each method's config dataclass
    (applied to every method that has the field).
    """

    methods: Sequence[str]
    circuits: Sequence[str]
    seeds: Sequence[int]
    config: Mapping[str, Any] = field(default_factory=dict)
    unconstrained: bool = False

    def _method_config(self, method: str) -> Dict[str, Any]:
        from .tasks import BASELINE_RUNNERS

        _, config_cls = BASELINE_RUNNERS[method]
        fields = set(config_cls.__dataclass_fields__)
        config = {k: v for k, v in self.config.items() if k in fields}
        config.pop("seed", None)  # the spec seed wins
        return config

    def expand(self) -> List[TaskSpec]:
        """One task per grid cell, ordered circuit-major then method."""
        specs: List[TaskSpec] = []
        for circuit in self.circuits:
            for method in self.methods:
                params: Dict[str, Any] = {
                    "circuit": circuit,
                    "method": method,
                    "config": self._method_config(method),
                }
                if self.unconstrained:
                    params["unconstrained"] = True
                for seed in self.seeds:
                    specs.append(TaskSpec(
                        fn="baseline", params=params, seed=int(seed),
                        tag=f"{method}/{circuit}/s{seed}",
                    ))
        return specs


@dataclass
class SweepCell:
    """Aggregated (IQM, std) metrics for one (circuit, method) cell."""

    circuit: str
    method: str
    runs: List[FloorplanResult]
    runtime: tuple
    dead_space: tuple
    hpwl: tuple
    reward: tuple


@dataclass
class SweepResult:
    spec: SweepSpec
    results: List[TaskResult]
    cells: List[SweepCell]
    cache_hits: int
    wall_seconds: float

    def table(self) -> str:
        """Render the grid grouped by circuit (Table I layout)."""
        lines: List[str] = []
        for circuit in self.spec.circuits:
            lines.append(f"\n=== {circuit} ===")
            lines.append(f"{'method':<10} {'runtime(s)':>16} {'dead space(%)':>18} "
                         f"{'HPWL(um)':>18} {'reward':>16}")
            for cell in self.cells:
                if cell.circuit != circuit:
                    continue
                lines.append(
                    f"{cell.method:<10} "
                    f"{cell.runtime[0]:>8.2f}±{cell.runtime[1]:<6.2f} "
                    f"{cell.dead_space[0]:>9.2f}±{cell.dead_space[1]:<6.2f} "
                    f"{cell.hpwl[0]:>10.1f}±{cell.hpwl[1]:<6.1f} "
                    f"{cell.reward[0]:>8.2f}±{cell.reward[1]:<5.2f}"
                )
        return "\n".join(lines)

    def summary(self) -> str:
        return (f"{len(self.results)} cells ({self.cache_hits} from cache) "
                f"in {self.wall_seconds:.2f} s wall")


def run_sweep(spec: SweepSpec, executor: Optional[Executor] = None) -> SweepResult:
    """Expand and execute ``spec``, aggregating per-cell statistics."""
    executor = executor or Executor()
    specs = spec.expand()
    results = executor.map_tasks(specs)

    by_cell: Dict[tuple, List[FloorplanResult]] = {}
    for task, result in zip(specs, results):
        key = (task.params["circuit"], task.params["method"])
        by_cell.setdefault(key, []).append(result.value)

    cells: List[SweepCell] = []
    for (circuit, method), runs in by_cell.items():
        cells.append(SweepCell(
            circuit=circuit,
            method=method,
            runs=runs,
            runtime=iqm_and_std([r.runtime for r in runs]),
            dead_space=iqm_and_std([100 * r.dead_space for r in runs]),
            hpwl=iqm_and_std([r.hpwl for r in runs]),
            reward=iqm_and_std([r.reward for r in runs]),
        ))
    return SweepResult(
        spec=spec,
        results=results,
        cells=cells,
        cache_hits=executor.stats.cache_hits,
        wall_seconds=executor.stats.wall_seconds,
    )
