"""The four benchmark workloads: train, layout, serve and sweep.

Each workload drives the package through its public API only.  A workload
object is built from the workload seed and a private scratch directory,
and goes through ``setup`` -> ``measure`` (once untraced, and in a traced
run once more with a :class:`~tracing.Tracer` installed) -> ``check`` ->
``teardown``.  ``measure`` returns a :class:`Window` of raw counts; the
metric methods turn windows into named numbers.

End-to-end times are scaled to a reference core speed by the
:class:`~speed.Stopwatch` (see :mod:`speed`); the report prints the raw
figures beside them.  Per-layer counts and busy times are raw, divided by
the number of workload operations in the traced window (PPO iterations,
layout passes, cold requests, or sweep grids), so a faster program that
fits more operations into the window does not look busier.
"""

from __future__ import annotations

import itertools
import json
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.pipeline import run_pipeline
from speed import Stopwatch
from tracing import Tracer

#: Table I evaluation circuits (three seen, three unseen), in paper order.
TABLE1_CIRCUITS = ("ota1", "ota2", "bias1", "rs_latch", "driver", "bias2")


@dataclass
class Window:
    """Raw result of one measurement window."""

    op_seconds: List[float] = field(default_factory=list)   # raw
    op_scaled: List[float] = field(default_factory=list)    # reference speed
    op_peak_mb: List[float] = field(default_factory=list)   # peak RSS per op
    work: float = 0.0          # units behind work_per_s, over all ops
    attempted: int = 0
    failed: int = 0
    data: Dict[str, Any] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.op_seconds)

    def add(self, raw: float, scaled: float, peak_mb: float) -> None:
        self.op_seconds.append(raw)
        self.op_scaled.append(scaled)
        self.op_peak_mb.append(peak_mb)


def median_ms(values) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def percentile_ms(values, q: float) -> float:
    return 1000.0 * float(np.percentile(values, q)) if values else 0.0


def _per_op(tracer: Tracer, ops: int, layer: str, kind: str = "busy") -> float:
    source = tracer.busy if kind == "busy" else tracer.calls
    return source.get(layer, 0) / max(1, ops)


def _wrap_policy_layers(tracer: Tracer) -> None:
    """Layers shared by every workload that runs the policy network."""
    from repro.nn.tensor import is_grad_enabled

    def count_rows(t: Tracer, args, result, seconds) -> None:
        if not is_grad_enabled():  # inference: one embedding lookup per row
            t.add("embed.rows", args[1].shape[0])

    def count_graphs(t: Tracer, args, result, seconds) -> None:
        t.add("embed.encoded", len(args[1]))

    tracer.wrap("nn.extractor", "repro.rl.policy", "CnnExtractor.forward")
    tracer.wrap("nn.policy_head", "repro.rl.policy", "DeconvPolicyHead.forward")
    tracer.wrap("nn.policy", "repro.rl.policy", "ActorCritic.forward", on_call=count_rows)
    for method in ("__init__", "sample", "sample_rows", "mode", "log_prob", "entropy"):
        tracer.wrap("rl.dist", "repro.rl.distributions", f"MaskedCategorical.{method}")
    tracer.wrap("floorplan.step", "repro.floorplan.env", "FloorplanEnv.step")
    tracer.wrap("gnn.encode", "repro.gnn.rgcn", "RGCNEncoder.encode_batch_numpy",
                on_call=count_graphs)


def _policy_layer_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    rows = tracer.extra.get("embed.rows", 0.0)
    encoded = tracer.extra.get("embed.encoded", 0.0)
    return {
        "nn.extractor.busy_s": _per_op(tracer, ops, "nn.extractor"),
        "nn.policy_head.busy_s": _per_op(tracer, ops, "nn.policy_head"),
        "rl.dist.busy_s": _per_op(tracer, ops, "rl.dist"),
        "floorplan.step.calls": _per_op(tracer, ops, "floorplan.step", "calls"),
        "floorplan.step.busy_s": _per_op(tracer, ops, "floorplan.step"),
        "gnn.encode.calls": _per_op(tracer, ops, "gnn.encode", "calls"),
        "gnn.encode.busy_s": _per_op(tracer, ops, "gnn.encode"),
        "rl.embed.hit_rate": 1.0 - encoded / rows if rows else 0.0,
    }


class Workload:
    """Base class: seed, scratch directory and the common life cycle."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 5

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.problems: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def measure(self, seconds: float) -> Window:
        raise NotImplementedError

    def install(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def layers(self, tracer: Tracer, window: Window) -> Dict[str, float]:
        raise NotImplementedError

    def residual_share(self, tracer: Tracer, window: Window) -> float:
        raise NotImplementedError

    def report(self, window: Window) -> Dict[str, float]:
        """The workload's own figures, by their long names."""
        raise NotImplementedError

    def check(self) -> List[str]:
        return self.problems

    def end_to_end(self, window: Window) -> Dict[str, float]:
        """Median operation time, and the work of a mean operation done
        at that time, at reference speed."""
        op = statistics.median(window.op_scaled)
        return {"work_per_s": window.work / window.ops / op, "op_ms": 1000.0 * op}


# ---------------------------------------------------------------------------
# train: HCL training on the five training circuits
# ---------------------------------------------------------------------------

class Train(Workload):
    """``FloorplanAgent.train_hcl`` on ``TRAINING_SET`` with a fixed config.

    One operation is one PPO iteration: collect 4 envs x 16 steps, then
    4 epochs over one 64-sample minibatch.
    """

    name = "train"
    CONFIG = dict(num_envs=4, rollout_steps=16, ppo_epochs=4, minibatch_size=64)
    #: HCL budget of one timed ``train_hcl`` call (about four iterations).
    EPISODES_PER_CIRCUIT = 10

    def setup(self) -> None:
        from repro.circuits.library import TRAINING_SET, get_circuit
        from repro.config import TrainConfig
        from repro.rl.agent import FloorplanAgent

        self.circuits = [get_circuit(name) for name in TRAINING_SET]
        self.config = TrainConfig(seed=self.seed, **self.CONFIG)
        self.agent = FloorplanAgent(config=self.config)
        self.rng = np.random.default_rng(self.seed)
        self.window: Optional[Window] = None
        self.watch: Optional[Stopwatch] = None
        ppo = self.agent.ppo

        def checked_update(buffer):
            # Every sampled action must lie inside its action mask.
            picked = np.take_along_axis(
                buffer.action_mask, buffer.actions[..., None], axis=-1)
            if not picked.all():
                self.problems.append("train: sampled action outside its action_mask")
            stats = type(ppo).update(ppo, buffer)  # class lookup: traced if wrapped
            if self.watch is not None:  # an iteration ends here
                self.window.add(*self.watch.lap())
            return stats

        ppo.update = checked_update
        # The first, cache-filling iteration belongs to set-up.
        self._train_once(2)

    def _train_once(self, episodes: int) -> None:
        record = self.agent.train_hcl(
            self.circuits, episodes_per_circuit=episodes, rng=self.rng)
        for it in record.history.iterations:
            losses = (it.policy_loss, it.value_loss, it.entropy,
                      it.approx_kl, it.clip_fraction)
            if not np.all(np.isfinite(losses)):
                self.problems.append(f"train: non-finite loss at iteration {it.iteration}")

    def measure(self, seconds: float) -> Window:
        self.window = window = Window()
        self.watch = Stopwatch()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.watch.resume()
            self._train_once(self.EPISODES_PER_CIRCUIT)
        self.watch = None
        window.work = window.ops * self.config.num_envs * self.config.rollout_steps
        window.attempted = window.ops
        return window

    def install(self, tracer: Tracer) -> None:
        tracer.wrap("rl.update", "repro.rl.ppo", "MaskedPPO.update")
        tracer.wrap("rl.collect", "repro.rl.ppo", "MaskedPPO.collect")
        tracer.wrap("nn.backward", "repro.nn.tensor", "Tensor.backward")
        tracer.wrap("nn.optim.step", "repro.nn.optim", "Adam.step")
        tracer.wrap("nn.optim.clip", "repro.nn.optim", "Adam.clip_grad_norm")
        _wrap_policy_layers(tracer)

    def layers(self, tracer: Tracer, window: Window) -> Dict[str, float]:
        out = {
            "rl.update.busy_s": _per_op(tracer, window.ops, "rl.update"),
            "rl.update.minibatches": _per_op(tracer, window.ops, "nn.optim.step", "calls"),
            "nn.backward.busy_s": _per_op(tracer, window.ops, "nn.backward"),
            "nn.optim.busy_s": (_per_op(tracer, window.ops, "nn.optim.step")
                                + _per_op(tracer, window.ops, "nn.optim.clip")),
            "rl.collect.busy_s": _per_op(tracer, window.ops, "rl.collect"),
        }
        out.update(_policy_layer_metrics(tracer, window.ops))
        return out

    def residual_share(self, tracer: Tracer, window: Window) -> float:
        busy = tracer.busy.get("rl.collect", 0.0) + tracer.busy.get("rl.update", 0.0)
        return 1.0 - busy / sum(window.op_seconds)

    def report(self, window: Window) -> Dict[str, float]:
        figures = self.end_to_end(window)
        return {"train.samples_per_s": figures["work_per_s"],
                "train.iteration_ms": figures["op_ms"],
                "train.iteration_raw_ms": median_ms(window.op_seconds)}


# ---------------------------------------------------------------------------
# layout: the Fig. 1 flow with the default SA floorplanner
# ---------------------------------------------------------------------------

class Layout(Workload):
    """``run_pipeline`` with its default SA floorplanner, serially in-process.

    bias2 and the Driver circuit are left out: one pass over them takes 18 s
    on a 2-core VM, longer than a whole measurement window.  The default
    floorplanner's fixed SA seed keeps the placements, and so the routing
    work, the same in every run: routing time swings 4x across SA seeds
    (ota2: 0.4-1.8 s), which would make the pass time a property of the
    seed rather than of the code.  The workload seed orders the circuits
    of each pass.
    """

    name = "layout"
    setups = 9  # cheap: circuits and one warm-up pipeline
    CIRCUITS = ("ota_small", "bias_small", "ota1", "rs_latch", "ota2", "bias1")
    STAGES = ("floorplan", "global_route", "channels", "detailed_route",
              "layout", "signoff")

    def setup(self) -> None:
        from repro.circuits.library import get_circuit

        self.circuits = [get_circuit(name) for name in self.CIRCUITS]
        self.rng = np.random.default_rng(self.seed)
        run_pipeline(self.circuits[0])  # warm-up

    def _check(self, circuit, result) -> None:
        route = result.route
        nets = {net.name for net in circuit.nets}
        if set(route.trees) != nets:
            self.problems.append(f"layout: {circuit.name}: unrouted nets "
                                 f"{sorted(nets - set(route.trees))}")
        recount = 0.0
        for tree in route.trees.values():
            # A net whose pins all sit on one point (two devices of one
            # block) needs no wire; covers_terminals() rejects its empty tree.
            single_point = len({(t.x, t.y) for t in tree.terminals}) == 1
            if not (single_point or tree.covers_terminals()):
                self.problems.append(f"layout: {circuit.name}: net {tree.net} "
                                     "misses a terminal")
            recount += sum(abs(s.x2 - s.x1) + abs(s.y2 - s.y1) for s in tree.segments)
        if abs(recount - route.total_wirelength) > 1e-9 * max(1.0, recount):
            self.problems.append(f"layout: {circuit.name}: wirelength "
                                 f"{route.total_wirelength} != {recount}")

    def measure(self, seconds: float) -> Window:
        window = Window()
        stages = dict.fromkeys(self.STAGES, 0.0)
        per_circuit: Dict[str, List[float]] = {c.name: [] for c in self.circuits}
        nets = failed_nets = 0
        wirelength = errors = 0.0
        watch = Stopwatch()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            raw_pass = scaled_pass = peak_pass = 0.0
            for index in self.rng.permutation(len(self.circuits)):
                circuit = self.circuits[index]
                window.attempted += 1
                watch.resume()
                result = run_pipeline(circuit)
                raw, scaled, peak = watch.lap()
                raw_pass += raw
                scaled_pass += scaled
                peak_pass = max(peak_pass, peak)
                per_circuit[circuit.name].append(scaled)
                self._check(circuit, result)
                for stage in self.STAGES:
                    stages[stage] += result.timings.get(stage, 0.0)
                nets += len(result.route.trees)
                failed_nets += len(result.route.failed_nets)
                wirelength += result.route.total_wirelength
                errors += (len(result.drc.violations) + len(result.lvs.open_nets)
                           + len(result.lvs.short_pairs))
            window.add(raw_pass, scaled_pass, peak_pass)
        window.data = dict(stages=stages, nets=nets, failed_nets=failed_nets,
                           wirelength=wirelength, errors=errors,
                           per_circuit=per_circuit)
        return window

    def end_to_end(self, window: Window) -> Dict[str, float]:
        """A pass is the sum of each circuit's median pipeline time."""
        per_circuit = window.data["per_circuit"]
        pass_s = sum(statistics.median(times) for times in per_circuit.values())
        return {"work_per_s": len(per_circuit) / pass_s, "op_ms": 1000.0 * pass_s}

    def install(self, tracer: Tracer) -> None:
        tracer.wrap("routing.escape_graph", "repro.routing.oarsmt", "build_escape_graph")
        tracer.wrap("routing.oarsmt", "repro.routing.global_router", "oarsmt",
                    failure=(RuntimeError,))
        tracer.wrap("layout.drc", "repro.pipeline", "check_drc")
        tracer.wrap("layout.lvs", "repro.pipeline", "check_lvs")

    def layers(self, tracer: Tracer, window: Window) -> Dict[str, float]:
        stages = window.data["stages"]
        per_pass = 1.0 / window.ops
        oarsmt = _per_op(tracer, window.ops, "routing.oarsmt")
        escape = _per_op(tracer, window.ops, "routing.escape_graph")
        return {
            "routing.route.busy_s": stages["global_route"] * per_pass,
            "routing.escape_graph.calls": _per_op(tracer, window.ops, "routing.escape_graph", "calls"),
            "routing.escape_graph.busy_s": escape,
            "routing.oarsmt.calls": _per_op(tracer, window.ops, "routing.oarsmt", "calls"),
            "routing.oarsmt.busy_s": oarsmt,
            "routing.oarsmt.failed": tracer.failed.get("routing.oarsmt", 0) * per_pass,
            "routing.steiner.busy_s": oarsmt - escape,
            "routing.first_try_share": self._first_try(window),
            "baselines.sa.busy_s": stages["floorplan"] * per_pass,
            "routing.channels.busy_s": stages["channels"] * per_pass,
            "routing.detailed.busy_s": stages["detailed_route"] * per_pass,
            "layout.generate.busy_s": stages["layout"] * per_pass,
            "layout.drc.busy_s": _per_op(tracer, window.ops, "layout.drc"),
            "layout.lvs.busy_s": _per_op(tracer, window.ops, "layout.lvs"),
            "layout.wirelength_um": window.data["wirelength"] * per_pass,
            "layout.signoff_errors": window.data["errors"] * per_pass,
        }

    @staticmethod
    def _first_try(window: Window) -> float:
        nets = window.data["nets"]
        return 1.0 - window.data["failed_nets"] / nets if nets else 0.0

    def residual_share(self, tracer: Tracer, window: Window) -> float:
        return 1.0 - sum(window.data["stages"].values()) / sum(window.op_seconds)

    def report(self, window: Window) -> Dict[str, float]:
        per_pass = 1.0 / window.ops
        return {
            "layout.pass_s": self.end_to_end(window)["op_ms"] / 1000.0,
            "layout.pass_raw_s": statistics.median(window.op_seconds),
            "layout.wirelength_um": window.data["wirelength"] * per_pass,
            "layout.signoff_errors": window.data["errors"] * per_pass,
            "routing.first_try_share": self._first_try(window),
        }


# ---------------------------------------------------------------------------
# serve: closed-loop clients against an in-process solve server
# ---------------------------------------------------------------------------

@dataclass
class _Request:
    kind: str                 # "cold", "warm" or "sa"
    payload: Dict[str, Any]
    seconds: float = 0.0      # client-side latency, raw
    scaled: float = 0.0       # the same at reference speed
    response: Optional[Dict[str, Any]] = None


class Serve(Workload):
    """Two closed-loop ``SolveClient`` connections against ``ServerThread``.

    Each client repeats a seeded cycle of ten requests: seven cold
    stochastic RL solves over the Table I circuits, two warm repeats of
    that client's own completed cold solves, and one ``sa`` baseline
    request.  The cold/warm/sa split is fixed by the seed, not by timing.
    The window runs as one-second bursts; the clients pause between
    bursts while the stopwatch calibrates, so the calibration kernel never
    competes with the server for the interpreter lock.
    """

    name = "serve"
    CLIENTS = 2
    BURST_S = 1.0
    CYCLE = ("cold",) * 7 + ("warm",) * 2 + ("sa",)
    #: Stochastic RL solves without placement constraints, as in Table I,
    #: so every answer takes one attempt and latency tracks circuit size.
    RL_FIELDS = {"deterministic": False, "unconstrained": True}
    #: SA budget of a baseline request (a quarter of the default moves).
    SA_CONFIG = {"moves_per_temperature": 10}
    #: Cold answers recomputed offline after the window (served == offline).
    OFFLINE_SAMPLE = 6

    def setup(self) -> None:
        from repro.config import TrainConfig
        from repro.rl.agent import FloorplanAgent
        from repro.serve import ServeConfig, ServerThread, SolveClient

        # The default ServeConfig's agent; the seed varies only the requests.
        self.agent = FloorplanAgent(config=TrainConfig(seed=ServeConfig().agent_seed))
        self.cache_dir = self.scratch / f"serve-cache-{time.perf_counter_ns()}"
        self.handle = ServerThread(
            ServeConfig(cache_dir=str(self.cache_dir)), agent=self.agent)
        self.clients = [SolveClient(self.handle.address) for _ in range(self.CLIENTS)]
        self.cold: List[_Request] = []
        self.plans = [self._plan(i) for i in range(self.CLIENTS)]
        # Warm-up outside the workload's key space: one solve per circuit
        # fills the policy's embedding cache, one sa request starts the pool.
        for circuit in TABLE1_CIRCUITS:
            self.clients[0].solve(circuit, seed=2 ** 31 - 1, **self.RL_FIELDS)
        self.clients[1].solve("ota1", method="sa", seed=2 ** 31 - 1,
                              config=dict(self.SA_CONFIG), unconstrained=True)

    def teardown(self) -> None:
        for client in getattr(self, "clients", ()):
            client.close()
        if getattr(self, "handle", None) is not None:
            self.handle.stop()
            self.handle = None
        shutil.rmtree(getattr(self, "cache_dir", ""), ignore_errors=True)

    def _plan(self, client: int):
        """Endless seeded stream of ``(request, origin)`` for one client."""
        rng = np.random.default_rng([self.seed, client])
        streams: Dict[str, List[str]] = {"cold": [], "sa": []}
        completed: List[_Request] = []

        def next_circuit(kind: str) -> str:
            # Round-robin over seeded permutations: every circuit gets
            # the same share of each request kind.
            if not streams[kind]:
                streams[kind] = [str(c) for c in rng.permutation(TABLE1_CIRCUITS)]
            return streams[kind].pop()

        serial = itertools.count(1)
        base = (self.seed * self.CLIENTS + client) * 10 ** 6
        while True:
            kinds = list(self.CYCLE[1:])
            rng.shuffle(kinds)
            for kind in ("cold", *kinds):
                if kind == "warm":
                    # Clients are closed loops: every earlier request of
                    # this client has completed by now.
                    origin = completed[int(rng.integers(len(completed)))]
                    yield _Request("warm", dict(origin.payload)), origin
                    continue
                payload = {"op": "solve", "circuit": next_circuit(kind),
                           "seed": base + next(serial)}
                if kind == "sa":
                    payload.update(method="sa", config=dict(self.SA_CONFIG),
                                   unconstrained=True)
                else:
                    payload.update(self.RL_FIELDS)
                request = _Request(kind, payload)
                if kind == "cold":
                    completed.append(request)
                yield request, None

    def _client_loop(self, index: int, deadline: float, log: List) -> None:
        client = self.clients[index]
        plan = self.plans[index]
        while time.perf_counter() < deadline:
            request, origin = next(plan)
            began = time.perf_counter()
            request.response = client.request(request.payload)
            request.seconds = time.perf_counter() - began
            log.append((request, origin))

    def _burst(self, seconds: float) -> List:
        logs: List[List] = [[] for _ in range(self.CLIENTS)]
        deadline = time.perf_counter() + seconds
        threads = [threading.Thread(target=self._client_loop, args=(i, deadline, logs[i]))
                   for i in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [entry for log in logs for entry in log]

    def measure(self, seconds: float) -> Window:
        window = Window()
        by_kind: Dict[str, List[_Request]] = {"cold": [], "warm": [], "sa": []}
        cached = coalesced = 0
        watch = Stopwatch()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            watch.resume()
            entries = self._burst(self.BURST_S)
            raw, scaled, peak = watch.lap()
            window.add(raw, scaled, peak)
            for request, origin in entries:
                request.scaled = request.seconds * scaled / raw
                window.attempted += 1
                response = request.response
                if not response.get("ok"):
                    window.failed += 1
                    self.problems.append(f"serve: request failed: {response.get('error')}")
                    continue
                by_kind[request.kind].append(request)
                cached += bool(response.get("cached"))
                coalesced += bool(response.get("coalesced"))
                if request.kind == "warm":
                    self._check_warm(request, origin)
                elif request.kind == "cold":
                    self.cold.append(request)
        window.work = window.attempted
        window.data = dict(by_kind=by_kind, cached=cached, coalesced=coalesced)
        return window

    @staticmethod
    def _answer(response: Dict[str, Any]) -> Dict[str, Any]:
        return {k: v for k, v in response["result"].items() if k != "runtime"}

    def _check_warm(self, request: _Request, origin: _Request) -> None:
        if not request.response.get("cached"):
            self.problems.append("serve: warm repeat missed the cache")
        if self._answer(request.response) != self._answer(origin.response):
            self.problems.append("serve: warm answer differs from its cold original")

    def check(self) -> List[str]:
        """Served == offline on a seeded sample of cold RL answers."""
        from repro.circuits.library import get_circuit
        from repro.engine.cache import floorplan_result_to_dict
        from repro.floorplan.metrics import hpwl_lower_bound

        rng = np.random.default_rng([self.seed, 99])
        size = min(self.OFFLINE_SAMPLE, len(self.cold))
        for pick in rng.choice(len(self.cold), size=size, replace=False):
            request = self.cold[int(pick)]
            circuit = get_circuit(request.payload["circuit"]).with_constraints([])
            offline = self.agent.solve(
                circuit, hpwl_min=hpwl_lower_bound(circuit), deterministic=False,
                rng=np.random.default_rng(request.payload["seed"]))
            answer = json.loads(json.dumps(floorplan_result_to_dict(offline)))
            answer.pop("runtime", None)
            if answer != self._answer(request.response):
                self.problems.append(
                    f"serve: served answer for {request.payload} differs from offline solve")
        return self.problems

    @staticmethod
    def _cold_ms(window: Window, attr: str) -> float:
        """Geometric mean over circuits of the median cold latency: cold
        latency scales with circuit size, so one median over all circuits
        would jump between them."""
        by_circuit: Dict[str, List[float]] = {}
        for request in window.data["by_kind"]["cold"]:
            by_circuit.setdefault(request.payload["circuit"], []).append(
                getattr(request, attr))
        medians = [statistics.median(v) for v in by_circuit.values()]
        return 1000.0 * statistics.geometric_mean(medians)

    def end_to_end(self, window: Window) -> Dict[str, float]:
        return {"work_per_s": window.work / sum(window.op_scaled),
                "op_ms": self._cold_ms(window, "scaled")}

    def install(self, tracer: Tracer) -> None:
        def count_act_rows(t: Tracer, args, result, seconds) -> None:
            rows = len(args[1])
            t.add("act.rows", rows)
            t.add("act.row_seconds", rows * seconds)

        tracer.wrap("serve.act", "repro.rl.ppo", "MaskedPPO.act", on_call=count_act_rows)
        tracer.wrap("serve.submit", "repro.serve.batcher", "MicroBatcher.submit")
        tracer.wrap("engine.cache.get", "repro.engine.cache", "ArtifactCache.get")
        _wrap_policy_layers(tracer)

    @staticmethod
    def _batcher_wait_s(tracer: Tracer) -> float:
        """Mean time a step waited in the batcher: submit-to-result minus
        the ``act`` call that served it."""
        submits = tracer.calls.get("serve.submit", 0)
        if not submits:
            return 0.0
        waited = tracer.busy["serve.submit"] - tracer.extra.get("act.row_seconds", 0.0)
        return waited / submits

    def layers(self, tracer: Tracer, window: Window) -> Dict[str, float]:
        acts = tracer.calls.get("serve.act", 0)
        cold = len(window.data["by_kind"]["cold"])  # per cold request, not per burst
        out = _policy_layer_metrics(tracer, cold)
        out.update({
            "serve.act.calls": _per_op(tracer, cold, "serve.act", "calls"),
            "serve.act.rows_mean": tracer.extra.get("act.rows", 0.0) / acts if acts else 0.0,
            "serve.act.busy_s": _per_op(tracer, cold, "serve.act"),
            "serve.batcher.wait_ms": 1000.0 * self._batcher_wait_s(tracer),
            "engine.cache.get.calls": _per_op(tracer, cold, "engine.cache.get", "calls"),
            "engine.cache.get.busy_s": _per_op(tracer, cold, "engine.cache.get"),
        })
        out.update(self._client_side(window))
        return out

    @staticmethod
    def _client_side(window: Window) -> Dict[str, float]:
        by_kind = {k: [r.seconds for r in v] for k, v in window.data["by_kind"].items()}
        answered = sum(len(v) for v in by_kind.values())
        cold = by_kind["cold"]
        return {
            "serve.hit_rate": window.data["cached"] / answered if answered else 0.0,
            "serve.coalesced_share": window.data["coalesced"] / answered if answered else 0.0,
            "serve.sa_p50_ms": median_ms(by_kind["sa"]),
            "serve.warm_p50_ms": median_ms(by_kind["warm"]),
            # p90 is reported only with at least ten samples beyond it.
            "serve.cold_p90_ms": percentile_ms(cold, 90) if len(cold) >= 100 else 0.0,
        }

    def residual_share(self, tracer: Tracer, window: Window) -> float:
        latency = sum(r.seconds for v in window.data["by_kind"].values() for r in v)
        attributed = (tracer.busy.get("serve.submit", 0.0)
                      + tracer.busy.get("floorplan.step", 0.0)
                      + tracer.busy.get("engine.cache.get", 0.0))
        return 1.0 - attributed / latency if latency else 0.0

    def report(self, window: Window) -> Dict[str, float]:
        figures = self.end_to_end(window)
        cold = [r.seconds for r in window.data["by_kind"]["cold"]]
        out = {"serve.rps": figures["work_per_s"],
               "serve.rps_raw": window.work / sum(window.op_seconds),
               "serve.cold_ms": figures["op_ms"],
               "serve.cold_raw_ms": self._cold_ms(window, "seconds"),
               "serve.cold_p50_ms": median_ms(cold),
               "serve.cold_samples": float(len(cold))}
        out.update(self._client_side(window))
        if not out["serve.cold_p90_ms"]:
            del out["serve.cold_p90_ms"]
        return out


# ---------------------------------------------------------------------------
# sweep: the Table I grid through the process executor
# ---------------------------------------------------------------------------

SWEEP_METHODS = ("rl0", "sa", "ga", "pso", "rl-sa", "rl-sp")


class Sweep(Workload):
    """Table I grid (0-shot RL + five baselines x 6 circuits) on 2 workers.

    Every grid runs against a fresh artifact cache, so each task writes
    one entry.  Baseline budgets are a quarter of ``Table1Scale``'s so
    that several grids fit into one window.
    """

    name = "sweep"
    setups = 9  # cheap: an agent, the grid specs and one tiny pool
    WORKERS = 2

    def setup(self) -> None:
        from repro.baselines import GAConfig, PSOConfig, RLSAConfig, RLSPConfig, SAConfig
        from repro.config import TrainConfig
        from repro.engine import Executor
        from repro.engine.tasks import agent_fingerprint
        from repro.experiments.table1 import Table1Scale, table1_task_specs
        from repro.rl.agent import FloorplanAgent

        # One fixed agent, as Table I shares one; the seed varies the tasks.
        self.agent = FloorplanAgent(config=TrainConfig(seed=0))
        scale = Table1Scale(
            repeats=1, shot_episodes={},
            sa=SAConfig(moves_per_temperature=10),
            ga=GAConfig(population=30, generations=20),
            pso=PSOConfig(particles=25, iterations=25),
            rl_sa=RLSAConfig(moves_per_temperature=10),
            rl_sp=RLSPConfig(iterations=63, batch=8),
        )
        pairs = table1_task_specs(scale, TABLE1_CIRCUITS, agent_fingerprint(self.agent))
        self.specs = [replace(spec, seed=self.seed * 7 + spec.seed) for spec, _ in pairs]
        self.grids = 0
        # Warm-up: one small grid starts and stops a worker pool.
        Executor(backend="process", workers=self.WORKERS).map_tasks(
            [s for s in self.specs if s.fn == "baseline"][:2],
            context={"agent": self.agent})

    @staticmethod
    def _method(spec) -> str:
        return "rl0" if spec.fn == "table1_rl" else spec.params["method"]

    def measure(self, seconds: float) -> Window:
        from repro.engine import ArtifactCache, Executor

        window = Window()
        task_s: Dict[str, float] = {}
        baseline_ds: List[float] = []
        baseline_hpwl: List[float] = []
        retries = rebuilds = 0
        busy = 0.0
        watch = Stopwatch()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            root = self.scratch / f"sweep-cache-{self.grids}"
            self.grids += 1
            cache = ArtifactCache(root=root)
            executor = Executor(backend="process", workers=self.WORKERS, cache=cache)
            watch.resume()
            results = executor.map_tasks(self.specs, context={"agent": self.agent})
            window.add(*watch.lap())
            stats = executor.stats
            window.attempted += len(self.specs)
            busy += stats.task_seconds
            retries += stats.retries
            rebuilds += stats.pool_rebuilds
            if cache.puts != len(self.specs):
                self.problems.append(f"sweep: {cache.puts} cache writes for "
                                     f"{len(self.specs)} tasks")
            for result in results:
                method = self._method(result.spec)
                task_s[method] = task_s.get(method, 0.0) + result.seconds
                if result.spec.fn == "baseline":
                    self._check_baseline(result)
                    baseline_ds.append(100.0 * result.value.dead_space)
                    baseline_hpwl.append(result.value.hpwl)
            shutil.rmtree(root, ignore_errors=True)
        window.work = window.attempted
        window.data = dict(task_s=task_s, busy=busy, retries=retries, rebuilds=rebuilds,
                           dead_space=float(np.mean(baseline_ds)),
                           hpwl=float(np.mean(baseline_hpwl)))
        return window

    def _check_baseline(self, result) -> None:
        from repro.baselines.common import evaluate_placement
        from repro.circuits.library import get_circuit
        from repro.floorplan.metrics import hpwl_lower_bound

        circuit = get_circuit(result.spec.params["circuit"]).with_constraints([])
        value = result.value
        _, hpwl, dead_space, _ = evaluate_placement(
            circuit, value.rects, hpwl_min=hpwl_lower_bound(circuit))
        if (abs(hpwl - value.hpwl) > 1e-9 * max(1.0, hpwl)
                or abs(dead_space - value.dead_space) > 1e-12):
            self.problems.append(f"sweep: {result.spec.label}: re-scored placement "
                                 "does not match the reported HPWL/dead space")

    def install(self, tracer: Tracer) -> None:
        tracer.wrap("engine.cache.put", "repro.engine.cache", "ArtifactCache.put")

    def _efficiency(self, window: Window) -> float:
        """Task seconds over pool capacity (grid wall x workers)."""
        return window.data["busy"] / (sum(window.op_seconds) * self.WORKERS)

    def layers(self, tracer: Tracer, window: Window) -> Dict[str, float]:
        grids = window.ops
        out = {
            "engine.cache.put.calls": _per_op(tracer, window.ops, "engine.cache.put", "calls"),
            "engine.cache.put.busy_s": _per_op(tracer, window.ops, "engine.cache.put"),
            "engine.efficiency": self._efficiency(window),
            "engine.retries": window.data["retries"] / grids,
            "engine.pool_rebuilds": window.data["rebuilds"] / grids,
            "sweep.dead_space_pct": window.data["dead_space"],
            "sweep.hpwl_um": window.data["hpwl"],
        }
        for method in SWEEP_METHODS:
            out[f"engine.task_s.{method}"] = window.data["task_s"].get(method, 0.0) / grids
        return out

    def residual_share(self, tracer: Tracer, window: Window) -> float:
        return 1.0 - self._efficiency(window)

    def report(self, window: Window) -> Dict[str, float]:
        figures = self.end_to_end(window)
        return {"sweep.tasks_per_s": figures["work_per_s"],
                "sweep.grid_s": figures["op_ms"] / 1000.0,
                "sweep.grid_raw_s": statistics.median(window.op_seconds),
                "sweep.dead_space_pct": window.data["dead_space"],
                "sweep.hpwl_um": window.data["hpwl"]}


WORKLOADS = {cls.name: cls for cls in (Train, Layout, Serve, Sweep)}
