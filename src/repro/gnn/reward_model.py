"""R-GCN reward-prediction model and its supervised pre-training.

Paper Fig. 3 / Sec. IV-C: four R-GCN layers, node mean aggregation, then
five fully-connected layers regressing the floorplan reward; trained with
MSE on metaheuristic-optimized floorplans.  In the paper the FC head is
then dropped and the pre-trained encoder conditions the RL agent; here
the agent still builds its own untrained encoder, so only Fig. 3 runs
this model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import EMBEDDING_DIM, NUM_REWARD_FC_LAYERS, PretrainConfig
from ..graph.hetero import HeteroGraph
from ..nn import Adam, Module, Tensor, mlp, mse_loss, no_grad
from .rgcn import RGCNEncoder


class RewardModel(Module):
    """Encoder + 5-layer MLP head predicting a scalar reward per graph."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int = EMBEDDING_DIM,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.encoder = RGCNEncoder(in_dim, hidden_dim, rng=rng)
        # Fig. 3: 5 FC layers; funnel down to the scalar output.
        self.head = mlp([hidden_dim, 64, 64, 32, 16, 1], rng=rng)

    def forward(self, graph: HeteroGraph) -> Tensor:
        _, graph_embedding = self.encoder.encode_batch([graph])
        return self.head(graph_embedding).reshape(())

    def predict(self, graph: HeteroGraph) -> float:
        """Inference-only scoring: tape-free under ``nn.no_grad()``."""
        with no_grad():
            return float(self.forward(graph).item())


@dataclass
class TrainingHistory:
    """Per-epoch losses from reward-model pre-training."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)

    @property
    def best_val(self) -> float:
        return min(self.val_loss) if self.val_loss else float("nan")


def train_reward_model(
    model: RewardModel,
    dataset: Sequence[Tuple[HeteroGraph, float]],
    config: Optional[PretrainConfig] = None,
) -> TrainingHistory:
    """Supervised MSE training of the reward model.

    Rewards are standardized over the training split (stored on the model
    as ``reward_mean`` / ``reward_std`` plain attributes) so the MLP head
    trains on unit-scale targets regardless of circuit mix.
    """
    config = config or PretrainConfig()
    rng = np.random.default_rng(config.seed)
    if len(dataset) < 4:
        raise ValueError("dataset too small to train on")

    indices = rng.permutation(len(dataset))
    n_val = max(1, int(len(dataset) * config.validation_fraction))
    val_idx = indices[:n_val]
    train_idx = indices[n_val:]

    rewards = np.array([dataset[i][1] for i in train_idx])
    reward_mean = float(rewards.mean())
    reward_std = float(rewards.std()) or 1.0
    model.reward_mean = reward_mean  # type: ignore[attr-defined]
    model.reward_std = reward_std    # type: ignore[attr-defined]

    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    history = TrainingHistory()

    def standardized(value: float) -> float:
        return (value - reward_mean) / reward_std

    for epoch in range(config.epochs):
        rng.shuffle(train_idx)
        epoch_losses = []
        for start in range(0, len(train_idx), config.batch_size):
            batch = train_idx[start:start + config.batch_size]
            optimizer.zero_grad()
            losses = []
            for i in batch:
                graph, reward = dataset[i]
                prediction = model(graph)
                losses.append(mse_loss(prediction, standardized(reward)))
            total = losses[0]
            for extra in losses[1:]:
                total = total + extra
            loss = total * (1.0 / len(losses))
            loss.backward()
            optimizer.clip_grad_norm(5.0)
            optimizer.step()
            epoch_losses.append(loss.item())
        history.train_loss.append(float(np.mean(epoch_losses)))

        val_losses = [
            (model.predict(dataset[i][0]) - standardized(dataset[i][1])) ** 2
            for i in val_idx
        ]
        history.val_loss.append(float(np.mean(val_losses)))
    return history


def predict_reward(model: RewardModel, graph: HeteroGraph) -> float:
    """Predict the (de-standardized) reward for a circuit graph."""
    mean = getattr(model, "reward_mean", 0.0)
    std = getattr(model, "reward_std", 1.0)
    return model.predict(graph) * std + mean
