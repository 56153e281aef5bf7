"""Shared fixtures for the benchmark suite.

The HCL-trained agent is expensive (minutes of CPU); it is trained once
per session and shared by the Table I / Table II / Fig. 7 benches.
Set ``REPRO_BENCH_SCALE=full`` for longer training closer to the paper's
schedule (still CPU-bound; expect hours).
"""

import os
import sys
from pathlib import Path

import pytest

from repro.circuits import TRAINING_SET, get_circuit
from repro.config import TrainConfig
from repro.experiments.table1 import Table1Scale
from repro.rl import FloorplanAgent

SCALE = os.environ.get("REPRO_BENCH_SCALE", "default")

# The scalar reference implementations the hot-path benches time against
# live with the golden tests in tests/oracles.py.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


def bench_scale() -> Table1Scale:
    if SCALE == "full":
        return Table1Scale(
            hcl_episodes=64,
            shot_episodes={
                "R-GCN RL 1-shot": 1,
                "R-GCN RL 100-shot": 16,
                "R-GCN RL 1000-shot": 48,
            },
            repeats=5,
        )
    return Table1Scale(
        hcl_episodes=10,
        shot_episodes={
            "R-GCN RL 1-shot": 1,
            "R-GCN RL 100-shot": 3,
            "R-GCN RL 1000-shot": 8,
        },
        repeats=3,
    )


@pytest.fixture(scope="session")
def table1_scale():
    return bench_scale()


@pytest.fixture(scope="session")
def shared_agent(table1_scale):
    """One HCL-trained agent shared across all benches."""
    agent = FloorplanAgent(config=table1_scale.train)
    circuits = [get_circuit(name) for name in TRAINING_SET]
    record = agent.train_hcl(circuits, episodes_per_circuit=table1_scale.hcl_episodes)
    agent.hcl_record = record  # stash for fig6-style reporting
    return agent
