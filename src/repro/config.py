"""Global constants of the reproduction.

Paper-fixed values (Sec. IV) are kept verbatim; scale-down knobs
(dataset sizes, episode counts) default to CPU-friendly values and can be
raised toward the paper's numbers by callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

# ---------------------------------------------------------------------------
# Paper constants (Sec. IV) — do not change; these define the method.
# ---------------------------------------------------------------------------
GRID_SIZE: int = 32                # discretized layout canvas, 32x32 (IV-D1)
NUM_SHAPES: int = 3                # candidate shapes per block (IV-D1)
ACTION_SPACE: int = NUM_SHAPES * GRID_SIZE * GRID_SIZE  # 3072
MAX_ASPECT_RATIO: float = 11.0     # Rmax, empirically derived (IV-D1)
EMBEDDING_DIM: int = 32            # R-GCN node/graph embedding size (IV-A)
NUM_STRUCTURE_CLASSES: int = 28    # one-hot functional-structure encoding (IV-C)
NUM_RGCN_LAYERS: int = 4           # Fig. 3
NUM_REWARD_FC_LAYERS: int = 5      # Fig. 3
REWARD_ALPHA: float = 1.0          # area weight in Eq. 5
REWARD_BETA: float = 5.0           # HPWL weight in Eq. 5
REWARD_GAMMA: float = 5.0          # aspect-ratio weight in Eq. 5
VIOLATION_PENALTY: float = -50.0   # constraint-violation reward (IV-D4)
P_CIRCUIT: float = 0.5             # HCL random circuit sampling prob (V-A)
P_CONSTRAINT: float = 0.3          # HCL random constraint sampling prob (V-A)
CNN_CHANNELS: Tuple[int, ...] = (16, 32, 32, 64, 64)   # extractor (IV-D3)
CNN_KERNEL: int = 3
CNN_FC_DIM: int = 512
DECONV_CHANNELS: Tuple[int, ...] = (32, 16, 8)          # policy head (IV-D3)
DECONV_KERNEL: int = 4
DECONV_STRIDE: int = 2
NUM_MASK_CHANNELS: int = 6         # fg + fw + fds + 3 x fp (IV-D2)

# Paper training-scale references (V-A); reproduced at reduced scale.
PAPER_EPISODES_PER_CIRCUIT: int = 4096
PAPER_NUM_ENVS: int = 16
PAPER_PRETRAIN_DATASET: int = 21600


@dataclass
class TrainConfig:
    """Scale-down knobs for CPU training (paper values: the ``PAPER_*`` constants)."""

    episodes_per_circuit: int = 48
    num_envs: int = 4
    rollout_steps: int = 256
    ppo_epochs: int = 4
    minibatch_size: int = 64
    learning_rate: float = 3e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_range: float = 0.2
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        # A zero budget would never step the envs, so training would
        # never end.
        for name in ("num_envs", "rollout_steps", "ppo_epochs", "minibatch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"TrainConfig.{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class PretrainConfig:
    """R-GCN reward-model pre-training scale (paper: 21600 floorplans)."""

    dataset_size: int = 1200
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    validation_fraction: float = 0.1
    seed: int = 0
