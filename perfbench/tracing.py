"""Per-layer timing wrappers installed from the benchmark's own files.

A :class:`Tracer` replaces public functions and methods of the package
with thin wrappers that count calls, sum busy seconds and count failed
calls, then puts the originals back when it is closed.  Nothing under
``src/`` is edited.  For plain functions only the outermost call of a
recursive or nested chain on one thread counts, so a layer's busy time is
never counted twice; every call of a coroutine function counts.

Targets are given as ``(module path, attribute path)``; a target that the
package no longer has is skipped and reads as zero, so later refactors of
the package do not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _resolve(module_path: str, attr_path: str):
    """Return ``(owner, attribute name, original)`` or ``None`` if absent."""
    try:
        owner = importlib.import_module(module_path)
    except ImportError:
        return None
    *parents, name = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, name, None)
    if original is None:
        return None
    return owner, name, original


class Tracer:
    """Counts calls and busy time of wrapped callables, by layer name."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.failed: Dict[str, int] = defaultdict(int)
        #: Free-form accumulators filled by ``on_call`` hooks.
        self.extra: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    def _record(self, layer: str, seconds: float, failed: bool) -> None:
        with self._lock:
            self.calls[layer] += 1
            self.busy[layer] += seconds
            if failed:
                self.failed[layer] += 1

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.extra[key] += value

    def wrap(
        self,
        layer: str,
        module_path: str,
        attr_path: str,
        failure: Tuple[type, ...] = (),
        on_call: Optional[Callable[["Tracer", tuple, object, float], None]] = None,
    ) -> bool:
        """Wrap ``module_path.attr_path`` under ``layer``.

        ``failure`` lists the exception types that count as a failed
        call; ``on_call(tracer, args, result, seconds)`` runs after each
        counted successful call.  Returns False if the target is absent.
        """
        found = _resolve(module_path, attr_path)
        if found is None:
            return False
        owner, name, original = found
        local = self._local
        key = f"{layer}:{module_path}.{attr_path}"

        def enter() -> bool:
            depth = getattr(local, key, 0)
            setattr(local, key, depth + 1)
            return depth == 0

        def leave() -> None:
            setattr(local, key, getattr(local, key) - 1)

        if inspect.iscoroutinefunction(original):
            # Coroutines interleave on one thread, so a per-thread depth
            # would mistake concurrent calls for nested ones: count each.
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                began = time.perf_counter()
                try:
                    result = await original(*args, **kwargs)
                except failure:
                    self._record(layer, time.perf_counter() - began, True)
                    raise
                seconds = time.perf_counter() - began
                self._record(layer, seconds, False)
                if on_call is not None:
                    on_call(self, args, result, seconds)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                outer = enter()
                began = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                except failure:
                    if outer:
                        self._record(layer, time.perf_counter() - began, True)
                    raise
                finally:
                    leave()
                if outer:
                    seconds = time.perf_counter() - began
                    self._record(layer, seconds, False)
                    if on_call is not None:
                        on_call(self, args, result, seconds)
                return result

        own = isinstance(owner, type) and name in vars(owner)
        self._patches.append((owner, name, original, own or not isinstance(owner, type)))
        setattr(owner, name, wrapper)
        return True

    def close(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original, own = self._patches.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
