"""Tests for the solve service (repro.serve): batcher, protocol, server.

Every live-server test binds an ephemeral port (``ServeConfig.port=0``
through :class:`ServerThread`), so parallel test runs never collide.
Serving *determinism* (bit-identical answers across serial / concurrent
/ cached paths) lives in ``tests/test_determinism.py``.
"""

import asyncio
import json
import socket
import threading

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.config import TrainConfig
from repro.engine import TaskSpec
from repro.rl import FloorplanAgent
from repro.serve import (
    MicroBatcher,
    ProtocolError,
    ServeConfig,
    ServerThread,
    SolveClient,
    SolveRequest,
    circuit_fingerprint,
)
from repro.serve.protocol import parse_request, parse_solve


def small_agent(seed: int = 0) -> FloorplanAgent:
    return FloorplanAgent(config=TrainConfig(
        num_envs=2, rollout_steps=16, ppo_epochs=1, minibatch_size=8, seed=seed,
    ))


# ---------------------------------------------------------------------------
# MicroBatcher
# ---------------------------------------------------------------------------

class TestMicroBatcher:
    def test_lone_submit_dispatches_without_a_timer(self):
        """An idle service answers a lone request within a few loop
        turns: no timer holds a batch of one open for company."""
        async def run():
            batches = []

            async def handler(items):
                batches.append(list(items))
                return [item * 2 for item in items]

            batcher = MicroBatcher(handler, max_batch=8)
            batcher.start()
            try:
                pending = asyncio.ensure_future(batcher.submit(21))
                for _ in range(5):
                    await asyncio.sleep(0)
                assert pending.done()
                assert pending.result() == 42
            finally:
                await batcher.stop()
            assert batches == [[21]]

        asyncio.run(run())

    @staticmethod
    def _closed_loop_batches(producers, max_batch, rounds=4):
        """Batch sizes seen when ``producers`` sessions each do
        synchronous work on the loop, then resubmit on their result —
        the shape of the server's solve sessions around ``env.step``."""
        async def run():
            batches = []

            async def handler(items):
                batches.append(len(items))
                return await asyncio.to_thread(list, items)

            batcher = MicroBatcher(handler, max_batch=max_batch)
            batcher.start()

            async def session(value):
                for _ in range(rounds):
                    sum(range(5000))  # the env step, run on the loop
                    value = await batcher.submit(value)
                return value

            try:
                results = await asyncio.gather(
                    *(session(i) for i in range(producers)))
            finally:
                await batcher.stop()
            assert results == list(range(producers))
            return batches

        return asyncio.run(run())

    def test_closed_loop_sessions_batch_in_waves(self):
        """Every session woken by one wave re-submits before the next
        dispatch, so each wave after the first is whole."""
        batches = self._closed_loop_batches(producers=3, max_batch=8)
        assert batches[1:] == [3] * 3

    def test_closed_loop_waves_split_at_max_batch(self):
        batches = self._closed_loop_batches(producers=6, max_batch=4)
        assert batches == [4] * 6

    def test_stop_mid_gather_rejects_dequeued_item(self):
        """An item the consumer has dequeued but not yet dispatched is in
        neither the queue nor a handler call; stop() must still reject
        it rather than leave its submit() pending forever."""
        async def run():
            async def handler(items):
                await asyncio.Event().wait()  # never answers
                return list(items)

            batcher = MicroBatcher(handler, max_batch=8)
            batcher.start()
            pending = asyncio.ensure_future(batcher.submit("x"))
            await asyncio.sleep(0)  # the submit task enqueues "x"
            while batcher.queue_depth:  # consumer has not dequeued yet
                await asyncio.sleep(0)
            await batcher.stop()
            with pytest.raises(RuntimeError, match="stopped"):
                await asyncio.wait_for(pending, timeout=1.0)

        asyncio.run(run())

    def test_concurrent_submits_coalesce_up_to_max_batch(self):
        async def run():
            batches = []

            async def handler(items):
                await asyncio.sleep(0)  # let producers queue up
                batches.append(len(items))
                return [item + 100 for item in items]

            batcher = MicroBatcher(handler, max_batch=4)
            batcher.start()
            try:
                results = await asyncio.gather(
                    *(batcher.submit(i) for i in range(10))
                )
            finally:
                await batcher.stop()
            assert results == [i + 100 for i in range(10)]
            assert max(batches) <= 4       # cap respected
            assert len(batches) < 10       # and coalescing actually happened

        asyncio.run(run())

    def test_cancelled_item_dropped_others_served(self):
        """A client disconnect mid-flight must not poison the batch."""
        async def run():
            seen = []

            async def handler(items):
                seen.append(list(items))
                return [item for item in items]

            batcher = MicroBatcher(handler, max_batch=4)
            batcher.start()
            try:
                doomed = asyncio.ensure_future(batcher.submit("doomed"))
                await asyncio.sleep(0)   # enqueue before cancelling
                doomed.cancel()
                survivor = await asyncio.wait_for(
                    batcher.submit("alive"), timeout=5)
                with pytest.raises(asyncio.CancelledError):
                    await doomed
            finally:
                await batcher.stop()
            assert survivor == "alive"
            assert all("doomed" not in batch for batch in seen)

        asyncio.run(run())

    def test_handler_exception_rejects_batch_but_batcher_survives(self):
        async def run():
            calls = []

            async def handler(items):
                calls.append(list(items))
                if "bad" in items:
                    raise RuntimeError("boom")
                return list(items)

            batcher = MicroBatcher(handler, max_batch=1)
            batcher.start()
            try:
                with pytest.raises(RuntimeError, match="boom"):
                    await batcher.submit("bad")
                assert await batcher.submit("good") == "good"
            finally:
                await batcher.stop()

        asyncio.run(run())

    def test_result_length_mismatch_is_an_error(self):
        async def run():
            async def handler(items):
                return []  # wrong arity

            batcher = MicroBatcher(handler, max_batch=1)
            batcher.start()
            try:
                with pytest.raises(RuntimeError, match="returned 0 results"):
                    await batcher.submit("x")
            finally:
                await batcher.stop()

        asyncio.run(run())

    def test_submit_requires_running_batcher(self):
        async def run():
            async def handler(items):
                return list(items)

            batcher = MicroBatcher(handler)
            with pytest.raises(RuntimeError, match="not running"):
                await batcher.submit(1)

        asyncio.run(run())

    def test_stop_rejects_pending(self):
        async def run():
            started = asyncio.Event()

            async def handler(items):
                started.set()
                await asyncio.sleep(30)
                return list(items)

            batcher = MicroBatcher(handler, max_batch=1)
            batcher.start()
            pending = asyncio.ensure_future(batcher.submit("x"))
            await started.wait()
            await batcher.stop()
            with pytest.raises(RuntimeError, match="stopped"):
                await pending

        asyncio.run(run())


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_parse_request_rejects_non_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_request(b"{nope")

    def test_parse_request_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_request(b"[1, 2]")

    def test_parse_solve_requires_circuit(self):
        with pytest.raises(ProtocolError, match="circuit"):
            parse_solve({"op": "solve"})

    def test_parse_solve_rejects_unknown_method(self):
        with pytest.raises(ProtocolError, match="unknown method"):
            parse_solve({"circuit": "ota1", "method": "magic"})

    def test_parse_solve_rejects_bool_seed(self):
        with pytest.raises(ProtocolError, match="seed"):
            parse_solve({"circuit": "ota1", "seed": True})

    def test_parse_solve_defaults(self):
        req = parse_solve({"circuit": "ota1"})
        assert req.method == "rl"
        assert req.seed == 0
        assert req.deterministic is True
        assert req.attempts == 8

    def test_boolean_flags_keep_their_cache_keys(self):
        circuit = get_circuit("ota_small")
        default = parse_solve({"circuit": "ota_small"})
        for method in ("rl", "sa"):
            for det in (True, False):
                for unc in (True, False):
                    req = parse_solve({"circuit": "ota_small", "method": method,
                                       "deterministic": det,
                                       "unconstrained": unc})
                    assert (req.deterministic, req.unconstrained) == (det, unc)
                    direct = SolveRequest(circuit="ota_small", method=method,
                                          deterministic=det, unconstrained=unc)
                    assert (req.task_spec(circuit, "a").content_hash()
                            == direct.task_spec(circuit, "a").content_hash())
        assert default == parse_solve({"circuit": "ota_small",
                                       "deterministic": True,
                                       "unconstrained": False})

    def test_task_spec_keys_on_netlist_and_agent(self):
        circuit = get_circuit("ota_small")
        req = SolveRequest(circuit="ota_small", seed=1)
        a = req.task_spec(circuit, "agentA").content_hash()
        b = req.task_spec(circuit, "agentB").content_hash()
        assert a != b  # retrained agent -> different key
        edited = circuit.with_constraints([])
        c = req.task_spec(edited, "agentA").content_hash()
        assert a != c  # edited netlist -> different key

    def test_baseline_target_aspect_keys_the_request(self):
        circuit = get_circuit("ota1")
        plain = SolveRequest(circuit="ota1", method="sa").task_spec(circuit, "a")
        aimed = SolveRequest(circuit="ota1", method="sa",
                             target_aspect=3.0).task_spec(circuit, "a")
        assert "target_aspect" not in plain.params
        assert aimed.params["target_aspect"] == 3.0
        assert plain.content_hash() != aimed.content_hash()

    def test_circuit_fingerprint_stable_per_content(self):
        a = circuit_fingerprint(get_circuit("ota_small"))
        b = circuit_fingerprint(get_circuit("ota_small"))
        assert a == b
        assert a != circuit_fingerprint(get_circuit("bias_small"))


# ---------------------------------------------------------------------------
# Per-row batched act (the sampling contract behind coalescing)
# ---------------------------------------------------------------------------

class TestPerRowAct:
    def test_batched_act_matches_batch_of_one_per_row(self):
        """Row i of a coalesced act call must equal a batch-of-one call
        with the same generator — batch composition cannot leak."""
        agent = small_agent()
        env_a = agent_fixture_env("ota_small")
        env_b = agent_fixture_env("bias_small")
        obs = [env_a.reset(), env_b.reset(), env_a.reset()]

        batched, _, _ = agent.ppo.act(
            obs,
            deterministic=np.array([False, True, False]),
            rng=[np.random.default_rng(7), np.random.default_rng(0),
                 np.random.default_rng(11)],
        )
        singles = []
        for o, det, seed in zip(obs, (False, True, False), (7, 0, 11)):
            actions, _, _ = agent.ppo.act(
                [o], deterministic=det, rng=np.random.default_rng(seed))
            singles.append(int(actions[0]))
        assert [int(a) for a in batched] == singles

    def test_scalar_call_unchanged(self):
        agent = small_agent()
        env = agent_fixture_env("ota_small")
        obs = env.reset()
        a, _, _ = agent.ppo.act([obs], deterministic=True)
        b, _, _ = agent.ppo.act([obs], deterministic=True)
        assert int(a[0]) == int(b[0])


def agent_fixture_env(name):
    from repro.floorplan import FloorplanEnv

    return FloorplanEnv(get_circuit(name))


# ---------------------------------------------------------------------------
# Live server (ephemeral ports throughout)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def server():
    config = ServeConfig(max_batch=4, backend="serial",
                         cache=False)
    with ServerThread(config, agent=small_agent()) as handle:
        yield handle


class TestSolveServer:
    def test_ping(self, server):
        with SolveClient(server.address) as client:
            response = client.ping()
            assert response["pong"] is True
            assert response["version"] == 1

    def test_solve_returns_floorplan(self, server):
        with SolveClient(server.address) as client:
            response = client.solve("ota_small", seed=0)
            result = response["result"]
            assert result["circuit_name"] == get_circuit("ota_small").name
            assert result["method"] == "R-GCN RL"
            assert len(result["rects"]) == 3
            assert result["area"] > 0
            assert response["cached"] is False

    def test_malformed_request_error_without_killing_server(self, server):
        with SolveClient(server.address) as client:
            bad = client.request({"op": "solve"})   # missing circuit
            assert bad["ok"] is False and "circuit" in bad["error"]
            worse = client.request({"op": "wat"})
            assert worse["ok"] is False and "unknown op" in worse["error"]
            # raw garbage on the same connection
            client._sock.sendall(b"{not json}\n")
            raw = json.loads(client._file.readline())
            assert raw["ok"] is False
            # the connection AND the server still work afterwards
            assert client.ping()["pong"] is True

    def test_unknown_circuit_is_a_request_error(self, server):
        with SolveClient(server.address) as client:
            response = client.request({"op": "solve", "circuit": "nope"})
            assert response["ok"] is False
            assert "unknown circuit" in response["error"]

    def test_request_id_echoed(self, server):
        with SolveClient(server.address) as client:
            response = client.request({"op": "ping", "id": "req-17"})
            assert response["id"] == "req-17"

    def test_client_disconnect_mid_flight_does_not_kill_server(self, server):
        # Fire a solve and slam the connection shut before the answer.
        sock = socket.create_connection(server.address, timeout=30)
        sock.sendall(b'{"op": "solve", "circuit": "bias_small", "seed": 9}\n')
        sock.close()
        with SolveClient(server.address) as client:
            assert client.ping()["pong"] is True
            assert client.solve("ota_small", seed=1)["result"]["area"] > 0

    def test_stats_op_reports_counters_and_histograms(self, server):
        with SolveClient(server.address) as client:
            client.solve("ota_small", seed=0)
            stats = client.stats()
            assert stats["requests"] >= 1
            assert stats["latency"]["count"] >= 1
            assert "p99" in stats["latency"]
            assert stats["batched_steps"] >= 1

    def test_concurrent_clients(self, server):
        results = {}

        def work(seed):
            with SolveClient(server.address) as client:
                results[seed] = client.solve(
                    "bias_small", seed=seed, deterministic=False)["result"]

        threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(results) == list(range(6))
        assert all(r["area"] > 0 for r in results.values())


class TestServeBatching:
    def test_two_concurrent_sessions_share_step_waves(self):
        """Two live solve sessions step in lockstep: most policy steps
        are answered two to a batch, without a batching timer.  A first
        round builds the per-circuit envs and graph, so the measured
        round's sessions start together."""
        config = ServeConfig(max_batch=4, backend="serial", cache=False)
        with ServerThread(config, agent=small_agent()) as handle:
            def solve_pair(seeds):
                barrier = threading.Barrier(len(seeds))

                def work(seed):
                    with SolveClient(handle.address) as client:
                        barrier.wait()
                        client.solve("bias1", seed=seed)

                threads = [threading.Thread(target=work, args=(seed,))
                           for seed in seeds]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                stats = handle.server.stats()
                return stats["batched_steps"], stats["batches"]

            warm_steps, warm_batches = solve_pair((0, 1))
            steps, batches = solve_pair((2, 3))
        assert (steps - warm_steps) / (batches - warm_batches) > 1.5


class TestServeCache:
    def test_warm_cache_repeats_answer_without_recompute(self, tmp_path):
        config = ServeConfig(max_batch=4, backend="serial",
                             cache=True, cache_dir=str(tmp_path))
        with ServerThread(config, agent=small_agent()) as handle:
            with SolveClient(handle.address) as client:
                cold = client.solve("ota_small", seed=3)
                assert cold["cached"] is False
                steps_after_cold = handle.server._batcher.items_dispatched
                warm = client.solve("ota_small", seed=3)
                assert warm["cached"] is True
                assert warm["result"] == cold["result"]
                assert warm["seconds"] == cold["seconds"]  # replayed timing
                # no policy step ran for the warm request
                assert handle.server._batcher.items_dispatched == steps_after_cold
                stats = client.stats()
                assert stats["cache_hits"] == 1

    def test_cache_survives_server_restart(self, tmp_path):
        config = ServeConfig(backend="serial", cache=True,
                             cache_dir=str(tmp_path))
        with ServerThread(config, agent=small_agent()) as first:
            with SolveClient(first.address) as client:
                cold = client.solve("ota_small", seed=5)
        with ServerThread(config, agent=small_agent()) as second:
            with SolveClient(second.address) as client:
                warm = client.solve("ota_small", seed=5)
        assert warm["cached"] is True
        assert warm["result"] == cold["result"]

    def test_identical_inflight_requests_coalesce(self, tmp_path):
        """Single-flight: N identical cold requests -> one compute."""
        config = ServeConfig(max_batch=4, backend="serial",
                             cache=True, cache_dir=str(tmp_path))
        results = []
        with ServerThread(config, agent=small_agent()) as handle:
            def work():
                with SolveClient(handle.address) as client:
                    results.append(client.solve("bias_small", seed=2))

            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(results) == 4
        reference = results[0]["result"]
        assert all(r["result"] == reference for r in results)
        # exactly one entry was computed and written
        assert sum(1 for r in results if not r["cached"]
                   and not r["coalesced"]) == 1


class TestServeBaselines:
    def test_baseline_method_served(self, server):
        with SolveClient(server.address) as client:
            response = client.solve(
                "ota_small", method="sa", seed=0,
                config={"moves_per_temperature": 4})
            assert response["result"]["method"] == "SA"
            assert response["result"]["area"] > 0

    def test_baseline_target_aspect_served_as_offline(self, server):
        from repro.baselines import SAConfig, simulated_annealing
        from repro.floorplan.metrics import hpwl_lower_bound

        circuit = get_circuit("ota1")
        config = {"moves_per_temperature": 4}
        offline = simulated_annealing(
            circuit, SAConfig(**config, seed=0),
            hpwl_min=hpwl_lower_bound(circuit), target_aspect=3.0)
        with SolveClient(server.address) as client:
            aimed = client.solve("ota1", method="sa", seed=0, config=config,
                                 target_aspect=3.0)["result"]
            plain = client.solve("ota1", method="sa", seed=0,
                                 config=config)["result"]
        assert aimed["reward"] == offline.reward
        assert aimed["area"] == offline.area
        assert aimed["hpwl"] == offline.hpwl
        assert plain["reward"] != aimed["reward"]

    def test_endless_annealing_schedule_is_a_prompt_error(self, server):
        # cooling = 1.0 would never cool: the config is rejected before
        # the worker starts annealing, so the answer comes back at once
        # and the server keeps serving.
        with SolveClient(server.address, timeout=30.0) as client:
            response = client.request({
                "op": "solve", "circuit": "ota_small", "method": "sa",
                "seed": 0, "config": {"cooling": 1.0}})
            assert response["ok"] is False
            assert "cooling" in response["error"]
            assert client.ping()["pong"] is True

    @pytest.mark.parametrize("fields", [
        {"method": "sa", "config": {"bogus": 1}},
        {"method": "sa", "config": {"cooling": "x"}},
        {"method": "sa", "config": {"cooling": 1.0}},
        {"method": "sa", "config": {"moves_per_temperature": "x"}},
        {"method": "sa", "config": {"moves_per_temperature": 2.5}},
        {"method": "sa", "config": {"spacing": "x"}},
        {"method": "sa", "config": {"spacing": -1.0}},
        {"method": "rl", "seed": -1},
        {"method": "sa", "seed": -1},
        {"method": "rl", "target_aspect": 0},
        {"method": "rl", "target_aspect": -1},
        {"method": "rl", "target_aspect": float("nan")},
        {"method": "sa", "deadline_ms": float("nan")},
        {"method": "rl", "deterministic": "false"},
        {"method": "rl", "deterministic": 0},
        {"method": "rl", "unconstrained": "false"},
        {"method": "sa", "unconstrained": 1},
        {"method": "rl", "deterministic": None},
    ])
    def test_bad_solve_request_is_a_client_error(self, server, fields,
                                                 monkeypatch):
        # Rejected while parsing: nothing is computed (neither an
        # executor round trip nor an RL session), and the answer is a
        # client error rather than an "internal error".
        computed = []
        monkeypatch.setattr(server.server, "_compute",
                            lambda *args: computed.append(args))
        with SolveClient(server.address, timeout=30.0) as client:
            response = client.request(
                {"op": "solve", "circuit": "ota_small", **fields})
            assert response["ok"] is False
            assert not response["error"].startswith("internal error")
            assert computed == []
            assert client.ping()["pong"] is True
