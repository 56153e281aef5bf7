"""repro — Analog IC floorplanning with relational GCNs and RL.

A from-scratch reproduction of "Effective Analog ICs Floorplanning with
Relational Graph Neural Networks and Reinforcement Learning" (DATE 2025),
including every substrate the paper depends on: a numpy autograd engine,
R-GCN models, a masked-PPO floorplanning agent, sequence-pair
metaheuristic baselines, OARSMT routing, and a procedural layout
generator with DRC / LVS signoff.

Quickstart::

    from repro.circuits import get_circuit
    from repro.rl import FloorplanAgent

    agent = FloorplanAgent()
    agent.train_hcl([get_circuit("ota_small")], episodes_per_circuit=8)
    result = agent.solve(get_circuit("ota1"))
    print(result.summary())

See README.md for the architecture overview and the CLI commands that
regenerate each table and figure.
"""

from . import (
    baselines,
    circuits,
    config,
    experiments,
    floorplan,
    gnn,
    graph,
    layout,
    nn,
    rl,
    routing,
    shapes,
    sr,
)
from .pipeline import PipelineResult, run_pipeline

__version__ = "1.0.0"

__all__ = [
    "PipelineResult",
    "baselines",
    "circuits",
    "config",
    "experiments",
    "floorplan",
    "gnn",
    "graph",
    "layout",
    "nn",
    "rl",
    "routing",
    "run_pipeline",
    "shapes",
    "sr",
]
