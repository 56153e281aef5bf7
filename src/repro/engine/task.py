"""Deterministic task specifications and the task-function registry.

A :class:`TaskSpec` names *what* to compute — a registered task function,
its JSON-canonical parameters, and the seed — without holding any live
objects, so it is cheap to pickle across process boundaries and stable to
hash for the artifact cache.  The content hash is the cache key: two specs
with the same (function, params, seed) triple are the same computation and
may share a cached artifact, regardless of which harness created them.

Task functions are plain module-level callables registered by name with
:func:`register_task`; workers resolve the name through the registry after
importing :mod:`repro.engine.tasks`, which keeps specs picklable even
under the ``spawn`` start method.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from ..resil import chaos

#: Bump to invalidate every cached artifact after a semantic change to any
#: builtin task function.
CACHE_VERSION = 1

#: Task name -> callable(params, seed, context) -> value.
_REGISTRY: Dict[str, Callable[[Mapping[str, Any], int, Any], Any]] = {}


def register_task(name: str) -> Callable:
    """Decorator registering a task function under ``name``.

    The function receives ``(params, seed, context)`` where ``params`` is
    the spec's parameter mapping, ``seed`` the spec's seed, and ``context``
    an optional live object shared by the executor (e.g. a trained agent)
    that is deliberately *not* part of the cache key — callers fold a
    digest of the context into ``params`` when it affects the result.
    """

    def decorator(fn: Callable) -> Callable:
        if name in _REGISTRY and _REGISTRY[name] is not fn:
            raise ValueError(f"task {name!r} already registered")
        _REGISTRY[name] = fn
        return fn

    return decorator


def get_task(name: str) -> Callable:
    """Look up a registered task function, loading the builtins lazily."""
    if name not in _REGISTRY:
        # Builtin tasks live in repro.engine.tasks; importing it populates
        # the registry (needed in freshly spawned worker processes).
        from . import tasks  # noqa: F401  (import for side effect)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown task {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered_tasks() -> list:
    """Names of all currently registered task functions."""
    return sorted(_REGISTRY)


def _jsonable(value: Any) -> Any:
    """Coerce ``value`` into the canonical JSON subset used for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and callable(value.item) and not isinstance(
        value, (str, bytes, bool, int, float)
    ):
        return value.item()  # numpy scalars
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    raise TypeError(
        f"task params must be JSON-canonical; got {type(value).__name__}: {value!r}"
    )


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(_jsonable(value), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TaskSpec:
    """One deterministic unit of work: ``fn(params, seed) -> artifact``.

    Attributes
    ----------
    fn:
        Name of a task function registered via :func:`register_task`.
    params:
        JSON-canonical parameters (circuit name, method, config dict...).
        Live objects never go here — they would break pickling and
        hashing; ship them through the executor ``context`` instead and
        put a digest of them in ``params``.
    seed:
        RNG seed; part of the identity, so repeated runs of the same cell
        with different seeds are distinct computations.
    tag:
        Free-form display label for logs and traces; *excluded* from the
        content hash.
    """

    fn: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    tag: str = ""

    def content_hash(self) -> str:
        """Stable hex digest identifying this computation."""
        payload = canonical_json(
            {"fn": self.fn, "params": self.params, "seed": self.seed,
             "v": CACHE_VERSION}
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        return self.tag or f"{self.fn}[{self.seed}]"


@dataclass
class TaskResult:
    """Outcome of running (or cache-loading) one :class:`TaskSpec`."""

    spec: TaskSpec
    value: Any
    seconds: float            # compute time of the original run
    cached: bool = False      # served from the artifact cache?
    #: Metrics-registry snapshot recorded by a process-backend worker
    #: while running this task (``repro.obs``); merged into the parent
    #: registry by the executor, never persisted to the artifact cache.
    obs: Optional[Dict[str, Any]] = None

    @property
    def key(self) -> str:
        return self.spec.content_hash()


def run_task(spec: TaskSpec, context: Any = None) -> TaskResult:
    """Execute ``spec`` in the current process, timing the call."""
    fn = get_task(spec.fn)
    if chaos.enabled():
        # Fault-injection point for the execution layer: keyed by the
        # content hash, so the same grid cell is hit on every run
        # regardless of backend or submission order.
        chaos.inject_task(spec.content_hash(), spec.label)
    start = time.perf_counter()
    value = fn(spec.params, spec.seed, context)
    return TaskResult(spec=spec, value=value, seconds=time.perf_counter() - start)
