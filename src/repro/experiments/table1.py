"""Table I harness: 9 methods x 6 circuits comparative analysis.

Reproduces the paper's comparison of the R-GCN + RL agent (zero-shot and
k-shot fine-tuned) against SA / GA / PSO and the RL-SA / RL baselines of
ref [13], on three seen and three unseen circuits.  Cells report the
interquartile mean and standard deviation of runtime, dead space, HPWL and
reward over repeated runs.

Every (circuit, method, repeat) cell is expressed as a
:class:`~repro.engine.task.TaskSpec` and fanned out through
:mod:`repro.engine` — pass an :class:`~repro.engine.executor.Executor`
to :func:`run_table1` to parallelize across processes and/or serve
repeated cells from the artifact cache; the default executor runs the
cells serially in-process.  Seeds travel inside the specs, so the grid
is bit-identical across backends.

Scale-down: the paper fine-tunes for 1 / 100 / 1000 episodes on a GPU; the
default :class:`Table1Scale` uses proportionally smaller shot counts and
metaheuristic budgets so the full table regenerates on CPU in minutes.
The *shape* to check is ordering, not absolute values: training is
CPU-scale and the circuits are synthetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines.common import FloorplanResult
from ..baselines.ga import GAConfig
from ..baselines.pso import PSOConfig
from ..baselines.rl_sa import RLSAConfig
from ..baselines.rl_sp import RLSPConfig
from ..baselines.sa import SAConfig
from ..circuits.library import TABLE1_SEEN, TABLE1_UNSEEN, TRAINING_SET, get_circuit
from ..circuits.netlist import Circuit
from ..config import TrainConfig
from ..engine.executor import Executor
from ..engine.task import TaskSpec
from ..engine.tasks import TABLE1_BASELINE_KEYS, agent_fingerprint
from ..rl.agent import FloorplanAgent
from .stats import iqm_and_std

#: Paper's method order (columns of Table I).
METHOD_ORDER = [
    "R-GCN RL 0-shot",
    "R-GCN RL 1-shot",
    "R-GCN RL 100-shot",
    "R-GCN RL 1000-shot",
    "SA",
    "GA",
    "PSO",
    "RL-SA [13]",
    "RL [13]",
]


@dataclass
class Table1Scale:
    """CPU-scale effort knobs (paper-scale values in comments)."""

    hcl_episodes: int = 10          # paper: 4096 per circuit
    shot_episodes: Dict[str, int] = field(default_factory=lambda: {
        "R-GCN RL 1-shot": 1,       # paper: 1
        "R-GCN RL 100-shot": 4,     # paper: 100
        "R-GCN RL 1000-shot": 12,   # paper: 1000
    })
    repeats: int = 3                # paper: enough runs for IQM±std
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        num_envs=2, rollout_steps=48, ppo_epochs=2, minibatch_size=24, seed=0,
    ))
    # Metaheuristic budgets sized so runtimes land in the paper's regime
    # (SA ~1 s, GA/PSO several seconds, RL-SP the slowest): search methods
    # pay per-instance optimization cost that the 0-shot agent amortizes.
    sa: SAConfig = field(default_factory=lambda: SAConfig(moves_per_temperature=40))
    ga: GAConfig = field(default_factory=lambda: GAConfig(population=30, generations=80))
    pso: PSOConfig = field(default_factory=lambda: PSOConfig(particles=25, iterations=100))
    rl_sa: RLSAConfig = field(default_factory=lambda: RLSAConfig(moves_per_temperature=40))
    rl_sp: RLSPConfig = field(default_factory=lambda: RLSPConfig(iterations=250, batch=8))


@dataclass
class Table1Cell:
    circuit: str
    num_blocks: int
    unseen: bool
    method: str
    runtime: Tuple[float, float]      # (iqm, std) seconds
    dead_space: Tuple[float, float]   # percent
    hpwl: Tuple[float, float]         # um
    reward: Tuple[float, float]


def _cell(circuit: Circuit, unseen: bool, method: str,
          runs: Sequence[FloorplanResult],
          runtimes: Optional[Sequence[float]] = None) -> Table1Cell:
    runtimes = list(runtimes) if runtimes is not None else [r.runtime for r in runs]
    return Table1Cell(
        circuit=circuit.name,
        num_blocks=circuit.num_blocks,
        unseen=unseen,
        method=method,
        runtime=iqm_and_std(runtimes),
        dead_space=iqm_and_std([100 * r.dead_space for r in runs]),
        hpwl=iqm_and_std([r.hpwl for r in runs]),
        reward=iqm_and_std([r.reward for r in runs]),
    )


def train_shared_agent(scale: Table1Scale) -> FloorplanAgent:
    """HCL-train the single transferable agent used by all RL columns."""
    agent = FloorplanAgent(config=scale.train)
    circuits = [get_circuit(name) for name in TRAINING_SET]
    agent.train_hcl(circuits, episodes_per_circuit=scale.hcl_episodes)
    return agent


def _config_dict(config) -> Dict:
    """Dataclass config -> JSON-canonical overrides (seed travels separately)."""
    return {k: v for k, v in config.__dict__.items() if k != "seed"}


def table1_task_specs(
    scale: Table1Scale, names: Sequence[str], agent_digest: str
) -> List[Tuple[TaskSpec, str]]:
    """Expand the Table I grid into engine tasks.

    Returns ``(spec, column_label)`` pairs, circuit-major in the paper's
    column order, one task per repeat.  RL cells key on ``agent_digest``
    so cached artifacts are invalidated when the shared agent changes.
    """
    baseline_configs = {
        "SA": scale.sa, "GA": scale.ga, "PSO": scale.pso,
        "RL-SA [13]": scale.rl_sa, "RL [13]": scale.rl_sp,
    }
    pairs: List[Tuple[TaskSpec, str]] = []
    for name in names:
        rl_columns = [("R-GCN RL 0-shot", 0)] + list(scale.shot_episodes.items())
        for method, episodes in rl_columns:
            for r in range(scale.repeats):
                pairs.append((TaskSpec(
                    fn="table1_rl",
                    params={"circuit": name, "method": method,
                            "episodes": episodes, "agent": agent_digest,
                            "unconstrained": True},
                    seed=r,
                    tag=f"{method}/{name}/s{r}",
                ), method))
        for method, config in baseline_configs.items():
            params = {"circuit": name, "method": TABLE1_BASELINE_KEYS[method],
                      "config": _config_dict(config), "unconstrained": True}
            for r in range(scale.repeats):
                pairs.append((TaskSpec(
                    fn="baseline", params=params, seed=r,
                    tag=f"{method}/{name}/s{r}",
                ), method))
    return pairs


def run_table1(
    scale: Optional[Table1Scale] = None,
    agent: Optional[FloorplanAgent] = None,
    circuits: Optional[Sequence[str]] = None,
    executor: Optional[Executor] = None,
) -> List[Table1Cell]:
    """Regenerate Table I; returns one cell per (circuit, method).

    The grid runs through ``executor`` (default: serial, no cache); pass
    ``Executor(backend="process", workers=N, cache=...)`` to parallelize
    and memoize.  Each repeat solves with an independently reseeded clone
    of the shared agent, so cell results do not depend on the execution
    order or backend.

    Note: as in the paper, all circuits are evaluated without constraints
    ("No constraints are imposed on any circuit").
    """
    scale = scale or Table1Scale()
    executor = executor or Executor()
    agent = agent or train_shared_agent(scale)
    names = list(circuits) if circuits is not None else list(TABLE1_SEEN + TABLE1_UNSEEN)

    pairs = table1_task_specs(scale, names, agent_fingerprint(agent))
    results = executor.map_tasks([spec for spec, _ in pairs],
                                 context={"agent": agent})

    grouped: Dict[Tuple[str, str], List] = {}
    for (spec, label), result in zip(pairs, results):
        grouped.setdefault((spec.params["circuit"], label), []).append(result.value)

    cells: List[Table1Cell] = []
    for name in names:
        circuit = get_circuit(name).with_constraints([])
        unseen = name in TABLE1_UNSEEN
        for method in METHOD_ORDER:
            values = grouped.get((name, method))
            if not values:
                continue
            if method.startswith("R-GCN"):
                runs = [value[0] for value in values]
                times = [value[1] for value in values]
                cells.append(_cell(circuit, unseen, method, runs, times))
            else:
                cells.append(_cell(circuit, unseen, method, values))
    return cells


def format_table1(cells: Sequence[Table1Cell], timings: bool = True) -> str:
    """Render rows grouped by circuit, matching the paper's layout.

    ``timings=False`` drops the wall-clock runtime column, leaving only
    deterministic text (the form persisted as ``results/table1.txt``).
    """
    lines = []
    circuits = []
    for cell in cells:
        if cell.circuit not in circuits:
            circuits.append(cell.circuit)
    for circuit in circuits:
        group = [c for c in cells if c.circuit == circuit]
        tag = " (unseen)" if group[0].unseen else ""
        lines.append(f"\n=== {circuit}{tag} — {group[0].num_blocks} blocks ===")
        runtime = f"{'runtime(s)':>16} " if timings else ""
        lines.append(f"{'method':<20} {runtime}{'dead space(%)':>18} "
                     f"{'HPWL(um)':>18} {'reward':>16}")
        for method in METHOD_ORDER:
            match = [c for c in group if c.method == method]
            if not match:
                continue
            c = match[0]
            runtime = f"{c.runtime[0]:>8.2f}±{c.runtime[1]:<6.2f} " if timings else ""
            lines.append(
                f"{method:<20} {runtime}"
                f"{c.dead_space[0]:>9.2f}±{c.dead_space[1]:<6.2f} "
                f"{c.hpwl[0]:>10.1f}±{c.hpwl[1]:<6.1f} "
                f"{c.reward[0]:>8.2f}±{c.reward[1]:<5.2f}"
            )
    return "\n".join(lines)


def best_method_by_reward(cells: Sequence[Table1Cell], circuit: str) -> str:
    group = [c for c in cells if c.circuit == circuit]
    return max(group, key=lambda c: c.reward[0]).method
