"""Deterministic fault injection — the proof harness for ``repro.resil``.

Chaos testing is only trustworthy when a failing run can be replayed
exactly, so every injection decision here is a pure function of
``(injector seed, fault kind, site key)`` — a SHA-256 hash compared
against the injector's ``rate`` — and **never** touches the program's
seeded generators.  The same seed therefore kills the same worker,
hangs the same task, and corrupts the same cache entry on every run,
in every process of the fleet (workers inherit the configuration
through the environment).

Activation
----------
Set ``$REPRO_CHAOS`` to a spec string (or :func:`install` a
:class:`ChaosConfig` programmatically — tests use the fixture form)::

    REPRO_CHAOS="kill_worker:rate=0.5,seed=3;delay_task:value=20"

Spec grammar: ``kind[:key=value,...]`` joined by ``;``.  Known kinds:

==================  ======================================================
``kill_worker``     ``os._exit`` the process running a task (engine
                    worker under the process backend; the sweep process
                    itself under the serial backend — simulating a
                    mid-sweep kill, which a rerun on the same artifact
                    cache resumes).
``hang_task``       sleep ``value`` seconds (default 3600) inside a task
                    — exercises per-task timeouts and pool rebuilds.
``delay_task``      sleep ``value`` milliseconds (default 50) inside a
                    task — latency without failure.
``corrupt_cache``   overwrite an artifact-cache meta file with garbage
                    just before it is read — exercises corrupt-entry
                    eviction and recompute.
``drop_conn``       abort a serve connection right after a request line
                    is read — exercises client reconnect/retry.
==================  ======================================================

Per-injector options: ``rate`` (probability in [0, 1], default 1.0),
``seed`` (decision seed, default 0), ``value`` (kind-specific magnitude),
``once`` (1/0, default 1 — each site fires at most once, so a retried
task *succeeds* on the retry instead of dying forever).

Once-markers
------------
``once`` semantics must survive the very crash they cause (a killed
worker respawns with no memory), so markers are empty files created
with ``O_EXCL`` under ``$REPRO_CHAOS_DIR`` — atomic across processes.
Without the env var, markers fall back to a process-local set, which is
enough for serial chaos but not for killed-and-respawned workers.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..obs import OBS, get_logger

ENV_VAR = "REPRO_CHAOS"
DIR_ENV_VAR = "REPRO_CHAOS_DIR"

#: Exit status used by kill-style injectors, distinguishable from real
#: crashes in test assertions.
KILL_EXIT_CODE = 43

KINDS = (
    "kill_worker",
    "hang_task",
    "delay_task",
    "corrupt_cache",
    "drop_conn",
)

#: Kind-specific ``value`` defaults (seconds for hang, ms for delay).
_VALUE_DEFAULTS = {"hang_task": 3600.0, "delay_task": 50.0}

logger = get_logger("resil.chaos")


@dataclass(frozen=True)
class Injector:
    """One configured fault kind."""

    kind: str
    rate: float = 1.0
    seed: int = 0
    value: Optional[float] = None
    once: bool = True

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r}; known: {', '.join(KINDS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")

    @property
    def magnitude(self) -> float:
        if self.value is not None:
            return self.value
        return _VALUE_DEFAULTS.get(self.kind, 0.0)


@dataclass
class ChaosConfig:
    """The set of active injectors, keyed by kind."""

    injectors: Dict[str, Injector] = field(default_factory=dict)

    @classmethod
    def parse(cls, spec: str) -> "ChaosConfig":
        """Parse a ``$REPRO_CHAOS`` spec string."""
        injectors: Dict[str, Injector] = {}
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            kind, _, options = part.partition(":")
            kind = kind.strip()
            kwargs: Dict[str, float] = {}
            for pair in options.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                if "=" not in pair:
                    raise ValueError(
                        f"chaos option must be key=value, got {pair!r}"
                    )
                name, raw = (s.strip() for s in pair.split("=", 1))
                if name not in ("rate", "seed", "value", "once"):
                    raise ValueError(f"unknown chaos option {name!r}")
                kwargs[name] = float(raw)
            injectors[kind] = Injector(
                kind=kind,
                rate=kwargs.get("rate", 1.0),
                seed=int(kwargs.get("seed", 0)),
                value=kwargs.get("value"),
                once=bool(kwargs.get("once", 1)),
            )
        return cls(injectors=injectors)

    def get(self, kind: str) -> Optional[Injector]:
        return self.injectors.get(kind)


# ---------------------------------------------------------------------------
# Module state: programmatic install wins over the environment variable.
# The env spec is parsed lazily and memoized per spec string, so the
# disabled fast path is one attribute read plus one dict lookup.
# ---------------------------------------------------------------------------

_installed: Optional[ChaosConfig] = None
_env_cache: tuple = (None, None)  # (spec string, parsed config)
#: Process-local once-markers (fallback when $REPRO_CHAOS_DIR is unset).
_local_markers: Set[str] = set()


def install(config: ChaosConfig) -> None:
    """Activate ``config`` in this process (tests; overrides the env)."""
    global _installed
    _installed = config


def uninstall() -> None:
    """Deactivate the programmatic config (env spec, if any, reapplies)."""
    global _installed
    _installed = None
    _local_markers.clear()


def active() -> Optional[ChaosConfig]:
    """The currently active configuration, or ``None``."""
    global _env_cache
    if _installed is not None:
        return _installed
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return None
    if _env_cache[0] != spec:
        _env_cache = (spec, ChaosConfig.parse(spec))
    return _env_cache[1]


def enabled() -> bool:
    """Cheap guard for injection sites (no parsing on the common path)."""
    return _installed is not None or bool(os.environ.get(ENV_VAR))


def _fraction(seed: int, kind: str, key: str) -> float:
    """Deterministic uniform fraction in [0, 1) from (seed, kind, key)."""
    digest = hashlib.sha256(f"{seed}:{kind}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def _claim_marker(kind: str, key: str) -> bool:
    """Atomically claim the once-marker for (kind, key); True if first."""
    token = hashlib.sha256(f"{kind}:{key}".encode("utf-8")).hexdigest()[:24]
    root = os.environ.get(DIR_ENV_VAR)
    if not root:
        marker = f"{kind}:{token}"
        if marker in _local_markers:
            return False
        _local_markers.add(marker)
        return True
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, f"{kind}-{token}")
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def fires(kind: str, key: str) -> bool:
    """Should injector ``kind`` fire at site ``key``?  Pure + seeded.

    The decision is ``hash(seed, kind, key) < rate`` — identical in
    every process and on every run with the same spec — then gated by
    the once-marker so a retried site is not re-broken forever.
    """
    config = active()
    if config is None:
        return False
    injector = config.get(kind)
    if injector is None:
        return False
    if _fraction(injector.seed, kind, key) >= injector.rate:
        return False
    if injector.once and not _claim_marker(kind, key):
        return False
    if OBS.enabled:
        OBS.registry.inc(f"chaos.fired.{kind}")
    logger.warning("chaos: %s fires at %s", kind, key[:16])
    return True


# ---------------------------------------------------------------------------
# Injection sites.  Each helper is called from exactly one place in the
# production code, always behind an ``enabled()`` guard at the call site.
# ---------------------------------------------------------------------------

def inject_task(key: str, label: str = "") -> None:
    """Task-body injectors: delay, hang, or kill the running process.

    Called by :func:`repro.engine.task.run_task` with the spec's content
    hash as the site key, so the same grid cell is targeted on every
    run regardless of backend or submission order.
    """
    config = active()
    if config is None:
        return
    if config.get("delay_task") and fires("delay_task", key):
        time.sleep(config.injectors["delay_task"].magnitude / 1000.0)
    if config.get("hang_task") and fires("hang_task", key):
        time.sleep(config.injectors["hang_task"].magnitude)
    if config.get("kill_worker") and fires("kill_worker", key):
        sys.stderr.write(f"chaos: kill_worker fires for {label or key[:12]}\n")
        sys.stderr.flush()
        os._exit(KILL_EXIT_CODE)


def corrupt_cache_entry(key: str, meta_path) -> None:
    """Overwrite a cache meta file with garbage just before it is read.

    The cache's own corrupt-entry handling (evict + recompute) is the
    recovery path under test; this only plants the fault.
    """
    if not fires("corrupt_cache", key):
        return
    try:
        if os.path.exists(meta_path):
            with open(meta_path, "w") as handle:
                handle.write("{chaos-corrupted")
    except OSError:
        pass


def drop_connection(key: str) -> bool:
    """True when the server should abort this connection (serve hook)."""
    return fires("drop_conn", key)
