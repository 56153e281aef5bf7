"""Builtin task functions: baselines, Table I RL cells, pipeline runs.

Importing this module populates the engine task registry (worker
processes do so in their pool initializer).  Every function here is a
pure function of ``(params, seed)`` plus an optional executor *context*;
any live object shipped through the context (the shared HCL-trained
agent) is summarized into ``params`` as a digest so the artifact cache
stays sound.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Mapping, Optional, Tuple

import numpy as np

from ..baselines import (
    GAConfig,
    PSOConfig,
    RLSAConfig,
    RLSPConfig,
    SAConfig,
    genetic_algorithm,
    particle_swarm,
    rl_sequence_pair,
    rl_simulated_annealing,
    simulated_annealing,
)
from ..baselines.common import FloorplanResult
from ..circuits.library import get_circuit
from ..floorplan.metrics import hpwl_lower_bound
from .task import register_task

#: Method name -> (runner, config class); also the CLI's ``--method`` choices.
BASELINE_RUNNERS = {
    "sa": (simulated_annealing, SAConfig),
    "ga": (genetic_algorithm, GAConfig),
    "pso": (particle_swarm, PSOConfig),
    "rl-sa": (rl_simulated_annealing, RLSAConfig),
    "rl-sp": (rl_sequence_pair, RLSPConfig),
}

#: Table I column label -> baseline key.
TABLE1_BASELINE_KEYS = {
    "SA": "sa",
    "GA": "ga",
    "PSO": "pso",
    "RL-SA [13]": "rl-sa",
    "RL [13]": "rl-sp",
}


def _load_circuit(params: Mapping[str, Any]):
    circuit = get_circuit(params["circuit"])
    if params.get("unconstrained"):
        circuit = circuit.with_constraints([])
    return circuit


@register_task("baseline")
def baseline_task(params: Mapping[str, Any], seed: int, context: Any) -> FloorplanResult:
    """Run one metaheuristic floorplanner.

    params: ``circuit`` (library name), ``method`` (sa/ga/pso/rl-sa/rl-sp),
    optional ``config`` (overrides for the method's config dataclass),
    optional ``unconstrained`` (drop placement constraints, as Table I),
    optional ``target_aspect`` (the aspect-ratio term of the cost).
    The spec seed overrides any seed inside ``config``.
    """
    method = params["method"]
    if method not in BASELINE_RUNNERS:
        raise ValueError(
            f"unknown baseline {method!r}; known: {sorted(BASELINE_RUNNERS)}"
        )
    runner, config_cls = BASELINE_RUNNERS[method]
    circuit = _load_circuit(params)
    config = config_cls(**{**dict(params.get("config", {})), "seed": seed})
    hmin = hpwl_lower_bound(circuit)
    return runner(circuit, config, hpwl_min=hmin, target_aspect=params.get("target_aspect"))


def agent_fingerprint(agent: Any) -> str:
    """Digest of an agent's weights, for use as a cache-key parameter.

    Cached RL cells are keyed on this digest so retraining the shared
    agent (different weights) invalidates them automatically.
    """
    digest = hashlib.sha256()
    for module in (agent.policy, agent.encoder):
        state = module.state_dict()
        for name in sorted(state):
            arr = np.ascontiguousarray(state[name])
            digest.update(name.encode("utf-8"))
            digest.update(str(arr.dtype).encode("utf-8"))
            digest.update(str(arr.shape).encode("utf-8"))
            digest.update(arr.tobytes())
    return digest.hexdigest()[:16]


@register_task("table1_rl")
def table1_rl_task(
    params: Mapping[str, Any], seed: int, context: Any
) -> Tuple[FloorplanResult, float]:
    """One Table I RL cell repeat: optional k-shot fine-tune, then solve.

    params: ``circuit``, ``method`` (column label), ``episodes`` (0 for
    zero-shot), ``agent`` (weight digest — cache-key only).  The executor
    context must carry the shared agent under ``"agent"``.

    A k-shot repeat clones the shared agent and reseeds the clone's
    sampler from the spec seed; a zero-shot repeat solves with the shared
    agent itself, drawing from its own seed-derived generator (a solve
    given ``rng`` never reads ``ppo.rng`` and leaves the weights alone).
    Either way results are independent of execution order and
    bit-identical across the serial and process backends.
    """
    if context is None or "agent" not in context:
        raise RuntimeError("table1_rl task needs an executor context with 'agent'")
    agent = context["agent"]
    circuit = _load_circuit(params)
    hmin = hpwl_lower_bound(circuit)
    episodes = int(params.get("episodes", 0))
    method = params["method"]

    if episodes > 0:
        tuned = agent.clone()
        tuned.ppo.rng = np.random.default_rng(1000 + seed)
        start = time.perf_counter()
        tuned.fine_tune(circuit, episodes=episodes)
        result = tuned.solve(
            circuit, hpwl_min=hmin, method_name=method,
            rng=np.random.default_rng(seed),
        )
        elapsed = time.perf_counter() - start
    else:
        result = agent.solve(
            circuit, hpwl_min=hmin, deterministic=(seed == 0),
            method_name=method, rng=np.random.default_rng(seed),
        )
        elapsed = result.runtime
    return result, elapsed


@register_task("solve_rl")
def solve_rl_task(
    params: Mapping[str, Any], seed: int, context: Any
) -> FloorplanResult:
    """One zero-shot RL solve — the serving path's cache-key twin.

    params: ``circuit``, ``agent`` (weight digest — cache-key only),
    optional ``netlist`` (content fingerprint — cache-key only),
    ``deterministic``, ``attempts``, optional ``target_aspect`` /
    ``unconstrained``.  The executor context must carry the live agent
    under ``"agent"``.

    ``repro.serve`` writes its artifacts under this task's key space, so
    any served answer can be recomputed offline by running the spec
    through an executor with the same agent — the serving determinism
    tests pin that the two paths produce bit-identical results.
    """
    if context is None or "agent" not in context:
        raise RuntimeError("solve_rl task needs an executor context with 'agent'")
    agent = context["agent"]
    circuit = _load_circuit(params)
    hmin = hpwl_lower_bound(circuit)
    return agent.solve(
        circuit,
        hpwl_min=hmin,
        target_aspect=params.get("target_aspect"),
        deterministic=bool(params.get("deterministic", True)),
        attempts=int(params.get("attempts", 8)),
        rng=np.random.default_rng(seed),
    )


@register_task("pipeline")
def pipeline_task(params: Mapping[str, Any], seed: int, context: Any):
    """Full Fig. 1 pipeline on one circuit with a named floorplanner.

    params: ``circuit``, optional ``method`` (baseline key, default sa),
    optional ``config`` (floorplanner config overrides).
    """
    from ..pipeline import run_pipeline

    method = params.get("method", "sa")
    runner, config_cls = BASELINE_RUNNERS[method]
    config = config_cls(**{**dict(params.get("config", {})), "seed": seed})
    circuit = get_circuit(params["circuit"])

    def floorplanner(ckt):
        return runner(ckt, config)

    return run_pipeline(circuit, floorplanner=floorplanner)
