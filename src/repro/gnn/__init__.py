"""Graph neural networks: R-GCN encoder, reward model, datasets."""

from .dataset import DatasetConfig, dataset_statistics, generate_dataset
from .reward_model import (
    RewardModel,
    TrainingHistory,
    predict_reward,
    train_reward_model,
)
from .rgcn import RGCNEncoder, RGCNLayer

__all__ = [
    "DatasetConfig",
    "RGCNEncoder",
    "RGCNLayer",
    "RewardModel",
    "TrainingHistory",
    "dataset_statistics",
    "generate_dataset",
    "predict_reward",
    "train_reward_model",
]
