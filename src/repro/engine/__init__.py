"""Parallel task execution and artifact caching (``repro.engine``).

The experiment grids of the paper — Table I's 9 methods x 6 circuits x
repeated seeds, Table II's pipeline runs, the benchmark figures — are
embarrassingly parallel and fully deterministic given their seeds.  This
subsystem turns each grid cell into a content-hashed
:class:`~repro.engine.task.TaskSpec`, fans the cells out over a pluggable
:class:`~repro.engine.executor.Executor` (serial or process), and
memoizes artifacts in a content-addressed on-disk
:class:`~repro.engine.cache.ArtifactCache` so identical cells are never
recomputed — which is also how a killed sweep resumes: rerun it on the
same cache and only the unfinished cells compute.

Guarantees:

* **Determinism** — seeds travel inside the spec and every task builds
  its own generators, so the serial and process backends produce
  bit-identical artifacts.
* **Ordered results** — :meth:`Executor.map_tasks` returns results in
  submission order regardless of completion order.
* **Sound caching** — the cache key covers the task function name, all
  parameters, the seed, and a global ``CACHE_VERSION``; live context
  objects (e.g. the trained agent) enter the key only via an explicit
  digest.

See :mod:`repro.engine.tasks` for the builtin task functions and
:mod:`repro.engine.sweep` for grid definitions (``repro sweep`` CLI).
"""

from .cache import ArtifactCache, default_cache_root
from .executor import BACKENDS, Executor, ExecutorStats
from .sweep import SweepCell, SweepResult, SweepSpec, run_sweep
from .task import (
    CACHE_VERSION,
    TaskResult,
    TaskSpec,
    canonical_json,
    get_task,
    register_task,
    registered_tasks,
    run_task,
)

__all__ = [
    "ArtifactCache",
    "BACKENDS",
    "CACHE_VERSION",
    "Executor",
    "ExecutorStats",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "TaskResult",
    "TaskSpec",
    "canonical_json",
    "default_cache_root",
    "get_task",
    "register_task",
    "registered_tasks",
    "run_sweep",
    "run_task",
]
