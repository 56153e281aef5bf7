"""Seeded fault injection for the resilience tests.

Faults are planted from outside the package — by wrapping the engine's
``run_task``, the artifact cache's ``get`` or the server's request
handler — so the code under test is the production path.  Each
decision is a pure function of ``(seed, kind, site key)``, never of the
program's seeded generators: the same seed picks the same victims on
every run and in every process.  A once-marker is an empty file created
with ``O_EXCL``, atomic across processes, so it outlives the kill it
causes and a retried site succeeds.
"""

import hashlib
import os
import sys
import time

import repro.engine.executor as engine_executor

#: Exit status of an injected kill, distinguishable from a real crash.
KILL_EXIT_CODE = 43


def fraction(seed: int, kind: str, key: str) -> float:
    """Deterministic uniform fraction in [0, 1) from (seed, kind, key)."""
    digest = hashlib.sha256(f"{seed}:{kind}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def fires(kind: str, key: str, seed: int, rate: float = 1.0,
          marker_dir=None) -> bool:
    """``fraction < rate``, then — given ``marker_dir`` — once per site."""
    if fraction(seed, kind, key) >= rate:
        return False
    if marker_dir is None:
        return True
    os.makedirs(marker_dir, exist_ok=True)
    token = hashlib.sha256(f"{kind}:{key}".encode("utf-8")).hexdigest()[:24]
    try:
        fd = os.open(os.path.join(marker_dir, f"{kind}-{token}"),
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def faulty_run_task(kind: str, seed: int, rate: float = 1.0,
                    seconds: float = 0.0, marker_dir=None):
    """The engine's ``run_task`` behind one task fault, keyed by the
    spec's content hash (the same cell whatever the backend or order).

    ``kill_worker`` exits the process running the task; ``hang_task``
    and ``delay_task`` sleep ``seconds``.  ``.fired`` lists the keys hit
    in this process.
    """
    inner = engine_executor.run_task

    def run_task(spec, context=None):
        key = spec.content_hash()
        if fires(kind, key, seed, rate, marker_dir):
            run_task.fired.append(key)
            if kind == "kill_worker":
                sys.stderr.write(f"fault: kill_worker at {spec.label}\n")
                sys.stderr.flush()
                os._exit(KILL_EXIT_CODE)
            time.sleep(seconds)
        return inner(spec, context)

    run_task.fired = []
    return run_task
