"""Figure harnesses: Fig. 3 (pre-training), Fig. 5 (masks), Fig. 7 (layout
comparison).  Fig. 6's HCL curves come from ``FloorplanAgent.train_hcl``.

Each function returns the numeric series / artifacts the corresponding
paper figure plots; benchmarks print them, tests assert their shapes and
invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..circuits.library import get_circuit
from ..config import PretrainConfig
from ..floorplan.masks import dead_space_mask, wire_mask
from ..floorplan.metrics import hpwl_lower_bound
from ..floorplan.state import FloorplanState
from ..gnn.dataset import DatasetConfig, generate_dataset
from ..gnn.reward_model import RewardModel, TrainingHistory, train_reward_model
from ..graph.features import FEATURE_DIM
from ..pipeline import PipelineResult, run_pipeline
from ..rl.agent import FloorplanAgent
from .table2 import _manual_reference


# ---------------------------------------------------------------------------
# Fig. 3 — R-GCN reward model pre-training
# ---------------------------------------------------------------------------

@dataclass
class Fig3Result:
    history: TrainingHistory
    dataset_size: int


def run_fig3(
    dataset_config: Optional[DatasetConfig] = None,
    pretrain_config: Optional[PretrainConfig] = None,
    seed: int = 0,
) -> Tuple[Fig3Result, RewardModel]:
    """Pre-train the reward model; returns loss curves and the model."""
    dataset_config = dataset_config or DatasetConfig(size=60, seed=seed)
    pretrain_config = pretrain_config or PretrainConfig(epochs=15, seed=seed)
    dataset = generate_dataset(dataset_config)
    model = RewardModel(FEATURE_DIM, rng=np.random.default_rng(seed))
    history = train_reward_model(model, dataset, pretrain_config)
    return Fig3Result(history=history, dataset_size=len(dataset)), model


# ---------------------------------------------------------------------------
# Fig. 5 — dead-space and wire masks
# ---------------------------------------------------------------------------

@dataclass
class Fig5Result:
    wire: np.ndarray        # (32, 32)
    dead_space: np.ndarray  # (32, 32)
    placed_blocks: int


def run_fig5(circuit_name: str = "ota2", placed: int = 4) -> Fig5Result:
    """Masks for a partial placement (the paper's Fig. 5 visual)."""
    circuit = get_circuit(circuit_name).with_constraints([])
    state = FloorplanState(circuit)
    hmin = hpwl_lower_bound(circuit)
    # Greedy corner packing for the first `placed` blocks.
    count = 0
    while count < placed and not state.done:
        done = False
        for gy in range(state.grid.n):
            for gx in range(state.grid.n):
                if state.can_place(1, gx, gy):
                    state.place(1, gx, gy)
                    done = True
                    break
            if done:
                break
        if not done:
            break
        count += 1
    if state.done:
        raise ValueError("all blocks placed; nothing left to mask")
    return Fig5Result(
        wire=wire_mask(state, 1, hmin),
        dead_space=dead_space_mask(state, 1),
        placed_blocks=count,
    )


def render_mask_ascii(mask: np.ndarray, levels: str = " .:-=+*#%@") -> str:
    """Coarse ASCII rendering of a [0,1] mask (for the bench output)."""
    quantized = np.clip((mask * (len(levels) - 1)).astype(int), 0, len(levels) - 1)
    return "\n".join("".join(levels[v] for v in row) for row in quantized[::-1])


# ---------------------------------------------------------------------------
# Fig. 7 — automated vs manual Driver layout
# ---------------------------------------------------------------------------

@dataclass
class Fig7Result:
    automated: PipelineResult
    manual: PipelineResult

    @property
    def area_ratio(self) -> float:
        return self.automated.layout.area / self.manual.layout.area

    def format(self, timings: bool = True) -> str:
        """The comparison text; ``timings=False`` drops the wall-clock
        ``time=`` fields and per-stage timings, leaving deterministic text
        (the form persisted as ``results/fig7_driver.txt``)."""
        auto = self.automated
        lines = [f"Automated: {auto.summary(timings)}",
                 f"Manual   : {self.manual.summary(timings)}",
                 f"Area ratio (auto / manual): {self.area_ratio:.2f}"]
        if timings:
            lines += ["", "Automated stage timings:"]
            lines += [f"  {stage:<15} {seconds:8.3f} s"
                      for stage, seconds in auto.timings.items()]
        lines.append(f"Global routing: {auto.route.num_nets} nets, "
                     f"{len(auto.route.conduits)} conduits, "
                     f"{len(auto.route.failed_nets)} detoured over blocks")
        lines.append(f"Channels: {len(auto.channels)}; congestion max demand "
                     f"{auto.congestion.max_demand}, overflow "
                     f"{auto.congestion.overflow_cells}")
        return "\n".join(lines)


def run_fig7(
    circuit_name: str = "driver",
    agent: Optional[FloorplanAgent] = None,
) -> Fig7Result:
    """The Fig. 7 pipeline artifacts: RL placement + OARSMT (a), channels
    (b), final layout (c) against the manual reference (e)."""
    circuit = get_circuit(circuit_name)
    if agent is not None:
        automated = run_pipeline(circuit, floorplanner=lambda c: agent.solve(c))
    else:
        automated = run_pipeline(circuit)
    manual = _manual_reference(circuit)
    return Fig7Result(automated=automated, manual=manual)
