"""Policy/NN-core throughput bench (fast NN core, ISSUE 5).

Measures the RL hot paths against a faithful reimplementation of the
seed's NN-stack behaviour — float64 end to end, einsum-based (non-BLAS)
convolution kernels, autograd tape built during rollout forwards, the
unfused where/log_softmax/exp masked-categorical chain, and per-parameter
Adam/clip loops:

* policy ``act``: inference steps/sec (reported, no floor);
* full ``MaskedPPO.collect``: env steps/sec
  (floor ``REPRO_POLICY_FLOOR``, default 2.0x);
* PPO ``update``: wall time per update
  (floor ``REPRO_POLICY_UPDATE_FLOOR``, default 1.5x);
* batched-collect sweep over ``num_envs`` in {1, 4, 16, 32} with cold
  embedding caches, so the cross-graph batched R-GCN path (ISSUE 7) is
  actually exercised (floor ``REPRO_BATCH_FLOOR``, default 3.0x, applied
  at ``num_envs >= 16``).

The reference and fast paths run on the same Table I circuits with
weight-identical policies (the float64 twin loads the float32 state
dict).  Each phase is timed as the best of ``REPEATS`` passes after a
warmup, which filters the scheduling noise of shared/virtualized hosts.
Results go to ``results/policy_throughput.txt`` and the machine-readable
``BENCH_policy.json`` at the repo root.
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np

from _util import RESULTS_DIR, check, save_artifact
from oracles import encode_reference

from repro import nn
from repro.circuits import get_circuit
from repro.config import EMBEDDING_DIM, TrainConfig
from repro.floorplan import FloorplanEnv, VecEnv
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.functional import _col2im, _im2col
from repro.nn.tensor import Tensor as _T
from repro.rl import FloorplanAgent
from repro.rl.distributions import MASK_VALUE
from repro.rl.rollout import RolloutBuffer

TABLE1 = ("ota1", "ota2", "bias1", "bias2", "driver")
COLLECT_FLOOR = float(os.environ.get("REPRO_POLICY_FLOOR", "2.0"))
UPDATE_FLOOR = float(os.environ.get("REPRO_POLICY_UPDATE_FLOOR", "1.5"))
BATCH_FLOOR = float(os.environ.get("REPRO_BATCH_FLOOR", "3.0"))
BENCH_JSON = os.path.join(os.path.dirname(RESULTS_DIR), "BENCH_policy.json")

ROLLOUT_STEPS = 48
ACT_ROUNDS = 24
REPEATS = 2

# Batched-collect sweep: cold-cache collects at these fleet sizes.
SWEEP_ENVS = (1, 4, 16, 32)
SWEEP_ROLLOUT_STEPS = 12
BATCH_FLOOR_MIN_ENVS = 16


# ---------------------------------------------------------------------------
# The seed's convolution kernels (plain einsum, no BLAS dispatch), applied
# to the reference model via monkeypatching while its phases are timed.
# ---------------------------------------------------------------------------

def _seed_conv2d(x, weight, bias, stride=1, padding=0):
    c_out, c_in, kh, kw = weight.shape
    n = x.shape[0]
    cols, out_h, out_w = _im2col(x.data, kh, kw, stride, padding)
    w_mat = weight.data.reshape(c_out, -1)
    out = np.einsum("of,nfl->nol", w_mat, cols) + bias.data.reshape(1, c_out, 1)
    out_data = out.reshape(n, c_out, out_h, out_w)

    def backward(grad, send):
        g = grad.reshape(n, c_out, -1)
        send(bias, g.sum(axis=(0, 2)))
        send(weight, np.einsum("nol,nfl->of", g, cols).reshape(weight.shape))
        gcols = np.einsum("of,nol->nfl", w_mat, g)
        send(x, _col2im(gcols, x.data.shape, kh, kw, stride, padding))

    return _T._make(out_data, (x, weight, bias), backward)


def _seed_conv_transpose2d(x, weight, bias, stride=1, padding=0):
    c_in, c_out, kh, kw = weight.shape
    n, _, h, w = x.shape
    out_h = (h - 1) * stride - 2 * padding + kh
    out_w = (w - 1) * stride - 2 * padding + kw
    w_mat = weight.data.reshape(c_in, c_out * kh * kw)
    x_flat = x.data.reshape(n, c_in, h * w)
    cols = np.einsum("if,nil->nfl", w_mat, x_flat)
    out_data = _col2im(cols, (n, c_out, out_h, out_w), kh, kw, stride, padding)
    out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    def backward(grad, send):
        send(bias, grad.sum(axis=(0, 2, 3)))
        gcols, _, _ = _im2col(grad, kh, kw, stride, padding)
        send(x, np.einsum("if,nfl->nil", w_mat, gcols).reshape(x.data.shape))
        send(weight, np.einsum("nil,nfl->if", x_flat, gcols).reshape(weight.shape))

    return _T._make(out_data, (x, weight, bias), backward)


@contextmanager
def _seed_kernels():
    """Route conv layers through the seed's einsum kernels."""
    fast_conv, fast_deconv = F.conv2d, F.conv_transpose2d
    F.conv2d, F.conv_transpose2d = _seed_conv2d, _seed_conv_transpose2d
    try:
        yield
    finally:
        F.conv2d, F.conv_transpose2d = fast_conv, fast_deconv


def _best_of(fn, repeats=REPEATS):
    """Best wall time over ``repeats`` runs (noise-robust on shared hosts)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _config() -> TrainConfig:
    return TrainConfig(
        num_envs=len(TABLE1), rollout_steps=ROLLOUT_STEPS, ppo_epochs=2,
        minibatch_size=60, learning_rate=3e-4, seed=0,
    )


def _vecenv(num_envs: int = len(TABLE1)) -> VecEnv:
    """A vec-env of ``num_envs`` environments cycling the Table I circuits.

    Every env gets its own graph instance (distinct ``uid``), so a
    ``num_envs``-wide cold-cache collect really encodes ``num_envs``
    graphs — the workload the batched R-GCN path exists for.
    """
    return VecEnv([
        FloorplanEnv(get_circuit(TABLE1[i % len(TABLE1)]))
        for i in range(num_envs)
    ])


# ---------------------------------------------------------------------------
# Seed-faithful reference implementations
# ---------------------------------------------------------------------------

class _ReferenceMaskedCategorical:
    """The seed's distribution: separate where/log_softmax/exp tape passes."""

    def __init__(self, logits, mask):
        self.mask = np.asarray(mask, dtype=bool)
        self.masked_logits = nn.where(
            self.mask, logits, Tensor(np.full(logits.shape, MASK_VALUE))
        )
        self.log_probs = nn.log_softmax(self.masked_logits, axis=-1)

    def sample(self, rng):
        gumbel = -np.log(-np.log(rng.uniform(1e-12, 1.0, size=self.mask.shape)))
        scores = np.where(self.mask, self.log_probs.numpy() + gumbel, -np.inf)
        return scores.argmax(axis=-1)

    def log_prob(self, actions):
        return nn.gather(self.log_probs, np.asarray(actions, dtype=np.int64))

    def entropy(self):
        probs = self.log_probs.exp()
        plogp = probs * self.log_probs
        plogp = nn.where(self.mask, plogp, Tensor(np.zeros(self.mask.shape)))
        return -plogp.sum(axis=-1)


class _ReferenceAdam:
    """The seed's Adam: per-parameter python loops, no flat vectors."""

    def __init__(self, params, lr):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def clip_grad_norm(self, max_norm):
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                total += float(np.sum(p.grad ** 2))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for p in self.params:
                if p.grad is not None:
                    p.grad *= scale
        return norm

    def step(self):
        self._t += 1
        b1t = 1.0 - self.beta1 ** self._t
        b2t = 1.0 - self.beta2 ** self._t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            self._m[i] = self.beta1 * self._m[i] + (1 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1 - self.beta2) * grad ** 2
            m_hat = self._m[i] / b1t
            v_hat = self._v[i] / b2t
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _reference_collect(ppo, vecenv, observations, rollout_steps=None):
    """The seed's collect: float64 batches/storage, tape-built forwards,
    unfused distribution, and per-observation (unbatched) graph encodes."""
    cfg = ppo.config
    steps = rollout_steps if rollout_steps is not None else cfg.rollout_steps
    buffer = RolloutBuffer(
        steps, vecenv.num_envs, EMBEDDING_DIM, dtype=np.float64
    )

    def batch(obs):
        masks = np.stack([o.masks for o in obs]).astype(np.float64, copy=False)
        action_mask = np.stack([o.action_mask for o in obs])
        encoded = [encode_reference(ppo, o) for o in obs]
        node = np.stack([e[0] for e in encoded]).astype(np.float64, copy=False)
        graph = np.stack([e[1] for e in encoded]).astype(np.float64, copy=False)
        return masks, node, graph, action_mask

    while not buffer.full:
        masks, node_emb, graph_emb, action_mask = batch(observations)
        logits, values = ppo.policy(Tensor(masks), Tensor(node_emb), Tensor(graph_emb))
        dist = _ReferenceMaskedCategorical(logits, action_mask)
        actions = dist.sample(ppo.rng)
        log_probs = dist.log_prob(actions).numpy()
        observations, rewards, dones, _ = vecenv.step(actions)
        buffer.add(masks, node_emb, graph_emb, action_mask, actions,
                   log_probs, values.numpy(), rewards, dones)
    masks, node_emb, graph_emb, _ = batch(observations)
    _, last_values = ppo.policy(Tensor(masks), Tensor(node_emb), Tensor(graph_emb))
    buffer.compute_gae(last_values.numpy(), cfg.gamma, cfg.gae_lambda)
    return buffer


def _reference_update(ppo, buffer, optimizer):
    """The seed's update loop over a float64 buffer."""
    cfg = ppo.config
    for _ in range(cfg.ppo_epochs):
        for batch in buffer.iter_minibatches(cfg.minibatch_size, ppo.rng):
            optimizer.zero_grad()
            logits, values = ppo.policy(
                Tensor(batch.masks), Tensor(batch.node_emb), Tensor(batch.graph_emb)
            )
            dist = _ReferenceMaskedCategorical(logits, batch.action_mask)
            log_probs = dist.log_prob(batch.actions)
            ratio = (log_probs - Tensor(batch.old_log_probs)).exp()
            advantages = Tensor(batch.advantages)
            surrogate1 = ratio * advantages
            surrogate2 = ratio.clip(1.0 - cfg.clip_range, 1.0 + cfg.clip_range) * advantages
            diff = surrogate1 - surrogate2
            policy_loss = -(surrogate2 + diff.clip(-1e30, 0.0)).mean()
            value_error = values - Tensor(batch.returns)
            value_loss = (value_error * value_error).mean()
            entropy = dist.entropy().mean()
            loss = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy
            loss.backward()
            optimizer.clip_grad_norm(cfg.max_grad_norm)
            optimizer.step()


# ---------------------------------------------------------------------------
# The bench
# ---------------------------------------------------------------------------

def _measure():
    cfg = _config()
    fast = FloorplanAgent(config=cfg)
    with nn.dtype_scope(np.float64):
        seed_like = FloorplanAgent(config=cfg)
    # Weight-identical models so both paths do the same logical work.
    seed_like.policy.load_state_dict(fast.policy.state_dict())
    seed_like.encoder.load_state_dict(fast.encoder.state_dict())
    seed_like.ppo.invalidate_cache()

    # Warm both embedding caches for every circuit, outside the clocks.
    for o in _vecenv().reset():
        encode_reference(fast.ppo, o)
        encode_reference(seed_like.ppo, o)

    # --- act (inference) steps/sec, fast path only ---------------------
    vec = _vecenv()
    observations = vec.reset()
    fast.ppo.act(observations)  # warm BLAS/allocator

    def act_round():
        for _ in range(ACT_ROUNDS):
            fast.ppo.act(observations)

    t_act, _ = _best_of(act_round)
    act_rate = ACT_ROUNDS * vec.num_envs / t_act

    # --- collect steps/sec: reference vs fast --------------------------
    env_steps = ROLLOUT_STEPS * len(TABLE1)
    vec_ref = _vecenv()
    vec_fast = _vecenv()

    def ref_collect():
        with _seed_kernels():
            return _reference_collect(seed_like.ppo, vec_ref, vec_ref.reset())

    def fast_collect():
        buffer, _, _ = fast.ppo.collect(vec_fast, vec_fast.reset())
        return buffer

    fast_collect()  # warmup pass
    t_collect_fast, fast_buffer = _best_of(fast_collect)
    ref_collect()  # warmup pass
    t_collect_ref, ref_buffer = _best_of(ref_collect)

    collect_ref_rate = env_steps / t_collect_ref
    collect_fast_rate = env_steps / t_collect_fast
    collect_speedup = t_collect_ref / t_collect_fast

    # --- update wall time: reference vs fast ---------------------------
    ref_adam = _ReferenceAdam(seed_like.policy.parameters(), cfg.learning_rate)

    def ref_update():
        with _seed_kernels():
            _reference_update(seed_like.ppo, ref_buffer, ref_adam)

    t_update_fast, _ = _best_of(lambda: fast.ppo.update(fast_buffer))
    t_update_ref, _ = _best_of(ref_update)
    update_speedup = t_update_ref / t_update_fast

    # --- batched-collect sweep over fleet sizes ------------------------
    # Embedding caches are invalidated inside the timed region: the point
    # is to measure the cold path, where the fast side batch-encodes all
    # misses in one R-GCN forward and the reference encodes per graph.
    sweep = []
    for num_envs in SWEEP_ENVS:
        vec_b = _vecenv(num_envs)
        sweep_steps = SWEEP_ROLLOUT_STEPS * num_envs

        def fast_cold_collect(vec=vec_b):
            fast.ppo.invalidate_cache()
            buffer, _, _ = fast.ppo.collect(
                vec, vec.reset(), rollout_steps=SWEEP_ROLLOUT_STEPS
            )
            return buffer

        def ref_cold_collect(vec=vec_b):
            seed_like.ppo.invalidate_cache()
            with _seed_kernels():
                return _reference_collect(
                    seed_like.ppo, vec, vec.reset(),
                    rollout_steps=SWEEP_ROLLOUT_STEPS,
                )

        fast_cold_collect()  # warmup (BLAS shapes, batch-structure cache)
        t_fast, _ = _best_of(fast_cold_collect)
        ref_cold_collect()
        t_ref, _ = _best_of(ref_cold_collect)
        sweep.append({
            "num_envs": num_envs,
            "reference_steps_per_sec": round(sweep_steps / t_ref, 2),
            "fast_steps_per_sec": round(sweep_steps / t_fast, 2),
            "speedup": round(t_ref / t_fast, 3),
        })

    return {
        "bench": "policy_throughput",
        "dtype": str(nn.default_dtype()),
        "circuits": list(TABLE1),
        "num_envs": len(TABLE1),
        "rollout_steps": ROLLOUT_STEPS,
        "act_steps_per_sec": round(act_rate, 2),
        "collect": {
            "reference_steps_per_sec": round(collect_ref_rate, 2),
            "fast_steps_per_sec": round(collect_fast_rate, 2),
            "speedup": round(collect_speedup, 3),
            "floor": COLLECT_FLOOR,
        },
        "update": {
            "reference_seconds": round(t_update_ref, 4),
            "fast_seconds": round(t_update_fast, 4),
            "speedup": round(update_speedup, 3),
            "floor": UPDATE_FLOOR,
        },
        "batched_collect": {
            "rollout_steps": SWEEP_ROLLOUT_STEPS,
            "floor": BATCH_FLOOR,
            "floor_min_envs": BATCH_FLOOR_MIN_ENVS,
            "sizes": sweep,
        },
    }


def test_policy_throughput(benchmark):
    def body():
        result = _measure()
        col, upd = result["collect"], result["update"]
        batched = result["batched_collect"]
        lines = [
            "policy/NN-core throughput (Table I circuits, "
            f"{result['num_envs']} envs x {result['rollout_steps']} rollout steps, "
            f"dtype {result['dtype']})",
            "reference = seed NN stack: float64, einsum convs, tape-built "
            "rollouts, unfused dist, per-param Adam",
            "",
            f"act (inference)   {result['act_steps_per_sec']:9.1f} steps/s",
            f"collect           reference {col['reference_steps_per_sec']:8.1f} steps/s"
            f"   fast {col['fast_steps_per_sec']:8.1f} steps/s"
            f"   speedup {col['speedup']:5.2f}x",
            f"PPO update        reference {upd['reference_seconds']:8.3f} s"
            f"       fast {upd['fast_seconds']:8.3f} s"
            f"       speedup {upd['speedup']:5.2f}x",
            "",
            "batched collect, cold embedding caches "
            f"({batched['rollout_steps']} rollout steps):",
        ]
        for row in batched["sizes"]:
            lines.append(
                f"  num_envs {row['num_envs']:3d}   "
                f"reference {row['reference_steps_per_sec']:8.1f} steps/s"
                f"   fast {row['fast_steps_per_sec']:8.1f} steps/s"
                f"   speedup {row['speedup']:5.2f}x"
            )
        text = "\n".join(lines)
        print("\n" + text)
        save_artifact("policy_throughput", text)
        with open(BENCH_JSON, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")

        assert col["speedup"] >= COLLECT_FLOOR, (
            f"rollout collection regressed: {col['speedup']:.2f}x "
            f"< {COLLECT_FLOOR}x floor"
        )
        assert upd["speedup"] >= UPDATE_FLOOR, (
            f"PPO update regressed: {upd['speedup']:.2f}x "
            f"< {UPDATE_FLOOR}x floor"
        )
        for row in batched["sizes"]:
            if row["num_envs"] < BATCH_FLOOR_MIN_ENVS:
                continue
            assert row["speedup"] >= BATCH_FLOOR, (
                f"batched collect regressed at num_envs={row['num_envs']}: "
                f"{row['speedup']:.2f}x < {BATCH_FLOOR}x floor"
            )

    check(benchmark, body)
