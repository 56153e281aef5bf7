"""Wire protocol of the floorplan solve service.

Line-delimited JSON over TCP: every request is one JSON object on one
line, every response is one JSON object on one line, in request order
per connection.  The protocol is deliberately framework-free — ``nc``/``socat`` or a ten-line client in
any language can talk to it.

Requests::

    {"op": "solve", "circuit": "ota1", "seed": 3}
    {"op": "solve", "circuit": "bias1", "method": "sa", "seed": 0,
     "unconstrained": true}
    {"op": "ping"}
    {"op": "stats"}

Solve responses carry the JSON-safe :class:`FloorplanResult` encoding
used by the artifact cache plus provenance flags::

    {"id": ..., "ok": true, "result": {...}, "cached": false,
     "coalesced": false, "seconds": 0.41}

Errors never kill the connection (let alone the server)::

    {"id": ..., "ok": false, "error": "unknown circuit 'nope'"}

``TaskSpec`` construction lives here too: a request is hashed into the
same content-addressed key space the engine's sweeps use, with the
*netlist fingerprint* (not just the circuit name) and — for RL solves —
the serving agent's weight digest folded into the parameters, so a
library edit or a retrained agent can never replay a stale artifact.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..circuits.netlist import Circuit
from ..engine.task import TaskSpec, canonical_json
from ..engine.tasks import BASELINE_RUNNERS

#: Protocol revision; bump on incompatible wire changes.
PROTOCOL_VERSION = 1

#: Methods a solve request may name: the RL policy (micro-batched in the
#: server process) or one of the metaheuristic baselines (sharded to the
#: engine's process backend).
RL_METHOD = "rl"
BASELINE_METHODS = tuple(BASELINE_RUNNERS)

#: Upper bound on one request line; longer lines are a protocol error
#: (and protect the server from unbounded buffering).
MAX_LINE_BYTES = 1 << 20


class ProtocolError(ValueError):
    """A malformed request; reported to the client, never fatal."""


def circuit_fingerprint(circuit: Circuit) -> str:
    """Content digest of a netlist (blocks, nets, constraints).

    This — not the circuit's display name — anchors the cache key of a
    served solve, so two library versions that reuse a name can never
    alias each other's artifacts.
    """
    payload = {
        "name": circuit.name,
        "blocks": [
            [block.name, block.structure.name, block.routing_direction,
             repr(block.area), repr(block.stripe_width)]
            for block in circuit.blocks
        ],
        "nets": [[net.name, list(net.blocks)] for net in circuit.nets],
        "constraints": [
            [c.kind.name, list(c.blocks)] for c in circuit.constraints
        ],
    }
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass
class SolveRequest:
    """One parsed ``solve`` request."""

    circuit: str
    method: str = RL_METHOD
    seed: int = 0
    deterministic: bool = True
    attempts: int = 8
    unconstrained: bool = False
    target_aspect: Optional[float] = None
    config: Dict[str, Any] = field(default_factory=dict)
    request_id: Any = None
    #: Client-side deadline in milliseconds; the server answers with a
    #: ``deadline_exceeded`` error once it elapses (the solve keeps
    #: running in the background and still lands in the cache, so a
    #: retry usually hits).  Execution policy, not identity — never part
    #: of the cache key built by :meth:`task_spec`.
    deadline_ms: Optional[float] = None

    def task_spec(self, circuit: Circuit, agent_digest: str) -> TaskSpec:
        """Hash this request into the engine's content-addressed key space.

        Baseline requests reuse the sweep grid's ``baseline`` task
        function, RL requests the ``solve_rl`` task keyed additionally on
        the serving agent's weight digest — so repeat requests and
        service restarts share artifacts.  The netlist fingerprint makes
        serve keys self-validating (a library edit under the same name
        cannot replay a stale artifact), which deliberately distinguishes
        them from the name-keyed sweep cells.
        """
        params: Dict[str, Any] = {
            "circuit": self.circuit,
            "netlist": circuit_fingerprint(circuit),
        }
        if self.unconstrained:
            params["unconstrained"] = True
        # Only when set, so the keys of requests without it stay put.
        if self.target_aspect is not None:
            params["target_aspect"] = self.target_aspect
        if self.method == RL_METHOD:
            fn = "solve_rl"
            params["agent"] = agent_digest
            params["deterministic"] = self.deterministic
            params["attempts"] = self.attempts
        else:
            fn = "baseline"
            params["method"] = self.method
            if self.config:
                params["config"] = dict(self.config)
        return TaskSpec(fn=fn, params=params, seed=self.seed,
                        tag=f"serve:{self.circuit}:{self.method}[{self.seed}]")


def parse_request(line: bytes) -> Mapping[str, Any]:
    """Decode one request line into a JSON object (dict)."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"request line exceeds {MAX_LINE_BYTES} bytes")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def parse_solve(payload: Mapping[str, Any]) -> SolveRequest:
    """Validate a ``solve`` payload into a :class:`SolveRequest`."""
    circuit = payload.get("circuit")
    if not isinstance(circuit, str) or not circuit:
        raise ProtocolError("solve needs a 'circuit' (string)")
    method = payload.get("method", RL_METHOD)
    if method != RL_METHOD and method not in BASELINE_METHODS:
        raise ProtocolError(
            f"unknown method {method!r}; expected {RL_METHOD!r} or one of "
            f"{list(BASELINE_METHODS)}"
        )
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ProtocolError("'seed' must be a non-negative integer")
    attempts = payload.get("attempts", 8)
    if not isinstance(attempts, int) or isinstance(attempts, bool) or attempts < 1:
        raise ProtocolError("'attempts' must be a positive integer")
    target_aspect = payload.get("target_aspect")
    if target_aspect is not None and (
            not isinstance(target_aspect, (int, float))
            or isinstance(target_aspect, bool)
            or not (math.isfinite(target_aspect) and target_aspect > 0)):
        raise ProtocolError("'target_aspect' must be a finite positive number")
    deterministic = payload.get("deterministic", True)
    unconstrained = payload.get("unconstrained", False)
    if not isinstance(deterministic, bool) or not isinstance(unconstrained, bool):
        raise ProtocolError("'deterministic' and 'unconstrained' must be booleans")
    config = payload.get("config", {})
    if not isinstance(config, dict):
        raise ProtocolError("'config' must be an object")
    if method in BASELINE_METHODS:
        # The config class checks the overrides (unknown keys, an endless
        # schedule, an empty budget) here, so a bad request is the
        # client's error and never reaches the cache or the executor.
        _, config_cls = BASELINE_RUNNERS[method]
        try:
            config_cls(**{**config, "seed": seed})
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid {method} config: {exc}") from None
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if (not isinstance(deadline_ms, (int, float))
                or isinstance(deadline_ms, bool) or not deadline_ms > 0):
            raise ProtocolError("'deadline_ms' must be a positive number")
    return SolveRequest(
        circuit=circuit,
        method=method,
        seed=seed,
        deterministic=deterministic,
        attempts=attempts,
        unconstrained=unconstrained,
        target_aspect=None if target_aspect is None else float(target_aspect),
        config=config,
        request_id=payload.get("id"),
        deadline_ms=None if deadline_ms is None else float(deadline_ms),
    )


def encode_response(payload: Mapping[str, Any]) -> bytes:
    """One response object -> one wire line."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def ok_response(request_id: Any, **fields: Any) -> bytes:
    return encode_response({"id": request_id, "ok": True, **fields})


def error_response(request_id: Any, message: str, **fields: Any) -> bytes:
    """Failure line; ``fields`` carry machine-readable flags such as
    ``shed=True`` or ``deadline_exceeded=True`` so clients can branch on
    the failure class without parsing the message."""
    return encode_response(
        {"id": request_id, "ok": False, "error": message, **fields}
    )
