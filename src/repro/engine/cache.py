"""Content-addressed on-disk artifact cache.

Every cache entry is keyed by a :class:`~repro.engine.task.TaskSpec`
content hash and stored as a pair of files under
``<root>/<hh>/<hash>.{json,pkl}``:

* ``<hash>.json`` — human-readable metadata: the spec that produced the
  artifact, its compute time, the payload format, and a timestamp.
* payload — ``<hash>.pkl`` (pickle) for arbitrary Python artifacts, or
  JSON embedded in the meta file for plain results such as
  :class:`~repro.baselines.common.FloorplanResult`.

The cache root defaults to ``~/.cache/repro`` and can be redirected with
the ``REPRO_CACHE_DIR`` environment variable or the ``root`` argument
(the CLI exposes ``--cache-dir``).  Invalidation is by construction:
changing any parameter, the seed, or :data:`~repro.engine.task.CACHE_VERSION`
changes the key; stale entries are simply never addressed again and can
be removed wholesale with :meth:`ArtifactCache.clear`.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Optional, Tuple

import numpy as np

from ..baselines.common import FloorplanResult, PlacedRect
from ..obs import OBS
from ..obs.metrics import MetricsRegistry
from ..resil import chaos
from .task import TaskResult, TaskSpec, canonical_json

DEFAULT_CACHE_DIR = "~/.cache/repro"


def default_cache_root() -> Path:
    """Resolve the cache directory (env override, else ``~/.cache/repro``)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)).expanduser()


# ---------------------------------------------------------------------------
# Payload codecs: JSON for the common flat artifacts, pickle fallback.
# ---------------------------------------------------------------------------

def floorplan_result_to_dict(result: FloorplanResult) -> dict:
    """JSON-safe encoding of a :class:`FloorplanResult`."""
    payload = dataclasses.asdict(result)
    payload["rects"] = [dataclasses.asdict(r) for r in result.rects]
    return payload


def floorplan_result_from_dict(payload: dict) -> FloorplanResult:
    rects = [PlacedRect(**r) for r in payload.pop("rects")]
    return FloorplanResult(rects=rects, **payload)


def _json_stable(value: Any) -> bool:
    """True when a JSON round-trip reproduces ``value`` with exact types.

    ``json.dumps`` happily *encodes* tuples (as arrays) and non-string
    scalar dict keys (coerced to strings), but the decode comes back as
    lists / string keys — so a warm-cache replay would return a different
    type than the cold run produced.  Anything that would drift is routed
    to the pickle codec instead.
    """
    if value is None or isinstance(value, (str, bool, int, float)):
        return True
    if isinstance(value, list):
        return all(_json_stable(v) for v in value)
    if isinstance(value, dict):
        return all(
            isinstance(k, str) and _json_stable(v) for k, v in value.items()
        )
    return False  # tuples, sets, numpy arrays, arbitrary objects


def _encode(value: Any) -> Tuple[str, Any]:
    """Return (format, json-payload-or-None); pickle handled separately."""
    if isinstance(value, FloorplanResult):
        payload = floorplan_result_to_dict(value)
        # ``extra`` is free-form; if it would not round-trip (tuples,
        # arrays...), store the whole result via pickle instead.
        if _json_stable(payload):
            return "floorplan_result", payload
        return "pickle", None
    if isinstance(value, tuple) and len(value) == 2 \
            and isinstance(value[0], FloorplanResult) \
            and isinstance(value[1], (int, float)):
        payload = floorplan_result_to_dict(value[0])
        if _json_stable(payload):
            return "floorplan_result_timed", [payload, float(value[1])]
        return "pickle", None
    if isinstance(value, dict) and value and all(
        isinstance(k, str) and isinstance(v, np.ndarray) for k, v in value.items()
    ):
        return "npz", None  # dict of arrays -> .npz sidecar
    if _json_stable(value):
        return "json", value
    return "pickle", None


def _decode(fmt: str, payload: Any, blob_path: Path) -> Any:
    if fmt == "floorplan_result":
        return floorplan_result_from_dict(payload)
    if fmt == "floorplan_result_timed":
        return floorplan_result_from_dict(payload[0]), float(payload[1])
    if fmt == "json":
        return payload
    if fmt == "npz":
        with np.load(blob_path) as archive:
            return {name: archive[name] for name in archive.files}
    if fmt == "pickle":
        with open(blob_path, "rb") as handle:
            return pickle.load(handle)
    raise ValueError(f"unknown cache payload format {fmt!r}")


class ArtifactCache:
    """Content-addressed store mapping task hashes to computed artifacts."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root).expanduser() if root is not None else default_cache_root()
        #: Single source of truth for hit/miss/put accounting: a private
        #: always-on metrics registry.  ``stats()`` and the executor's
        #: per-call ``ExecutorStats`` both read from it, so the two can
        #: no longer disagree when one Executor is reused across
        #: ``map_tasks`` calls (the counts here span the cache lifetime;
        #: the executor takes per-call deltas).
        self.metrics = MetricsRegistry()

    def _count(self, name: str) -> None:
        self.metrics.inc(name)
        if OBS.enabled:  # mirror into the global telemetry registry
            OBS.registry.inc(f"cache.{name}")

    @property
    def hits(self) -> int:
        return int(self.metrics.counters.get("hit", 0))

    @property
    def misses(self) -> int:
        return int(self.metrics.counters.get("miss", 0))

    @property
    def puts(self) -> int:
        return int(self.metrics.counters.get("put", 0))

    @property
    def corrupt(self) -> int:
        return int(self.metrics.counters.get("corrupt", 0))

    # -- paths ---------------------------------------------------------
    def _meta_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _blob_path(self, key: str, fmt: str) -> Path:
        return self.root / key[:2] / f"{key}.{'npz' if fmt == 'npz' else 'pkl'}"

    # -- access --------------------------------------------------------
    def get(self, spec: TaskSpec) -> Optional[TaskResult]:
        """Load the artifact for ``spec``, or ``None`` on a miss.

        A *present but undecodable* entry (truncated meta, unreadable or
        missing blob) is not a plain miss: it is counted as ``corrupt``
        and evicted on the spot, so the next request for the same spec
        recomputes and overwrites instead of re-paying the failed parse
        forever — and the hit-rate arithmetic stays honest.
        """
        key = spec.content_hash()
        meta_path = self._meta_path(key)
        if chaos.enabled():
            # Fault-injection point: trash the meta file just before the
            # read, so the evict-and-recompute path below is what runs.
            chaos.corrupt_cache_entry(key, meta_path)
        try:
            with open(meta_path) as handle:
                meta = json.load(handle)
        except FileNotFoundError:
            self._count("miss")
            return None
        except (OSError, ValueError):
            self._evict_corrupt(key)
            return None
        try:
            value = _decode(meta["format"], meta.get("payload"),
                            self._blob_path(key, meta["format"]))
        except (OSError, ValueError, KeyError, pickle.UnpicklingError, EOFError):
            self._evict_corrupt(key)
            return None
        self._count("hit")
        return TaskResult(spec=spec, value=value,
                          seconds=float(meta.get("seconds", 0.0)), cached=True)

    def _evict_corrupt(self, key: str) -> None:
        """Delete a broken entry (meta + any blob) and count it."""
        for path in (self._meta_path(key),
                     self._blob_path(key, "pickle"),
                     self._blob_path(key, "npz")):
            try:
                path.unlink()
            except OSError:
                pass
        self._count("corrupt")

    def put(self, result: TaskResult) -> None:
        """Persist ``result`` atomically (write-temp + rename)."""
        key = result.key
        meta_path = self._meta_path(key)
        meta_path.parent.mkdir(parents=True, exist_ok=True)
        fmt, payload = _encode(result.value)
        if fmt == "pickle":
            self._atomic_write(self._blob_path(key, fmt),
                               pickle.dumps(result.value, protocol=pickle.HIGHEST_PROTOCOL))
        elif fmt == "npz":
            buffer = io.BytesIO()
            np.savez(buffer, **result.value)
            self._atomic_write(self._blob_path(key, fmt), buffer.getvalue())
        meta = {
            "fn": result.spec.fn,
            "params": json.loads(canonical_json(result.spec.params)),
            "seed": result.spec.seed,
            "seconds": result.seconds,
            "format": fmt,
            "created": time.time(),
        }
        if payload is not None:
            meta["payload"] = payload
        self._atomic_write(meta_path, json.dumps(meta).encode("utf-8"))
        self._count("put")

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- maintenance ---------------------------------------------------
    def clear(self) -> int:
        """Delete every entry under the cache root; returns files removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in sorted(self.root.rglob("*"), reverse=True):
            if path.is_file():
                path.unlink()
                removed += 1
            elif path.is_dir():
                try:
                    path.rmdir()
                except OSError:
                    pass
        return removed

    def stats(self) -> dict:
        """Lifetime hit/miss/put counts, read from the metrics registry."""
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts,
                "corrupt": self.corrupt, "root": str(self.root)}
