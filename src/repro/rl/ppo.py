"""Masked Proximal Policy Optimization (paper Sec. IV-D).

On-policy training loop over the vectorized floorplanning environment:
collect a fixed-size rollout with the masked policy, compute GAE, then run
clipped-surrogate updates.  Invalid actions never receive probability mass
(see :mod:`repro.rl.distributions`), matching the paper's masked PPO.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import EMBEDDING_DIM, TrainConfig
from ..floorplan.env import Observation
from ..floorplan.vecenv import StackedObservations, VecEnv, stack_observations
from ..graph.hetero import HeteroGraph
from ..gnn.rgcn import RGCNEncoder
from ..nn import Adam, Tensor, no_grad
from ..obs import OBS, get_logger, phase
from .distributions import MaskedCategorical
from .policy import ActorCritic

logger = get_logger("rl.ppo")


@dataclass
class IterationStats:
    """Diagnostics of one PPO iteration (drives paper Fig. 6)."""

    iteration: int
    episode_reward_mean: float
    approx_kl: float
    policy_loss: float
    value_loss: float
    entropy: float
    episodes_completed: int
    clip_fraction: float


@dataclass
class TrainHistory:
    iterations: List[IterationStats] = field(default_factory=list)

    def reward_curve(self) -> np.ndarray:
        return np.array([s.episode_reward_mean for s in self.iterations])

    def kl_curve(self) -> np.ndarray:
        return np.array([s.approx_kl for s in self.iterations])


def publish_iteration(stats: IterationStats) -> None:
    """Fold one :class:`IterationStats` into logging and the metrics sink.

    Every training loop (``MaskedPPO.train``, HCL, fine-tune) calls this
    after appending to its history, so ``--metrics`` runs carry a
    per-iteration ``train.iteration`` JSONL record and ``--log-level
    DEBUG`` streams the same diagnostics — no raw prints anywhere.
    """
    logger.debug(
        "iter %d: reward=%.3f kl=%.4f policy_loss=%.4f value_loss=%.3f "
        "entropy=%.3f clip=%.3f episodes=%d",
        stats.iteration, stats.episode_reward_mean, stats.approx_kl,
        stats.policy_loss, stats.value_loss, stats.entropy,
        stats.clip_fraction, stats.episodes_completed,
    )
    if OBS.enabled:
        registry = OBS.registry
        registry.record("train.iteration", asdict(stats))
        registry.inc("train.iterations")
        registry.set_gauge("train.episode_reward_mean", stats.episode_reward_mean)


class MaskedPPO:
    """PPO driver binding the policy, frozen R-GCN encoder and envs."""

    #: Embedding-cache capacity; beyond it the least-recently-used graph
    #: is evicted (curriculum stages that sweep many circuits keep their
    #: hot set instead of periodically losing everything).
    EMBEDDING_CACHE_SIZE = 256

    def __init__(
        self,
        policy: ActorCritic,
        encoder: RGCNEncoder,
        config: Optional[TrainConfig] = None,
    ):
        self.policy = policy
        self.encoder = encoder
        self.config = config or TrainConfig()
        self.optimizer = Adam(policy.parameters(), lr=self.config.learning_rate)
        self.rng = np.random.default_rng(self.config.seed)
        self._embedding_cache: "OrderedDict[object, Tuple[np.ndarray, np.ndarray]]" = OrderedDict()
        self._episode_returns: deque = deque(maxlen=100)
        self._running_returns: Optional[np.ndarray] = None
        self.episodes_total = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _cache_key(graph: HeteroGraph) -> object:
        """Stable cache key for a graph.

        Keyed on the graph's ``uid`` token (not ``id()``: a GC'd graph's
        recycled id could silently alias a different graph, and the uid
        survives pickling across worker processes).  ``id()`` is
        the fallback for foreign graph objects without a uid token.
        """
        key = getattr(graph, "uid", None)
        return id(graph) if key is None else key

    def _cache_get(self, key: object) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        entry = self._embedding_cache.get(key)
        if entry is not None:
            self._embedding_cache.move_to_end(key)
        return entry

    def _cache_put(self, key: object, entry: Tuple[np.ndarray, np.ndarray]) -> None:
        cache = self._embedding_cache
        cache[key] = entry
        cache.move_to_end(key)
        while len(cache) > self.EMBEDDING_CACHE_SIZE:
            cache.popitem(last=False)  # evict least recently used

    def _encode_batch(
        self, graphs: Sequence[HeteroGraph], block_indices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Frozen features for a batch of (graph, block) pairs.

        Cache misses are deduplicated (vec-envs usually share a handful of
        circuits) and encoded in **one** batched R-GCN forward
        (:meth:`RGCNEncoder.encode_batch_numpy`), which is bit-identical
        to encoding each graph on its own.  Returns ``(node_emb,
        graph_emb)`` stacks of shape ``(B, d)``.
        """
        entries: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
        keys: List[object] = []
        miss_keys: List[object] = []
        miss_graphs: List[HeteroGraph] = []
        seen_misses: set = set()
        for graph in graphs:
            key = self._cache_key(graph)
            keys.append(key)
            entry = self._cache_get(key)
            if entry is None and key not in seen_misses:
                seen_misses.add(key)
                miss_keys.append(key)
                miss_graphs.append(graph)
            entries.append(entry)
        fresh: Dict[object, Tuple[np.ndarray, np.ndarray]] = {}
        if miss_graphs:
            encoded = self.encoder.encode_batch_numpy(miss_graphs)
            for key, pair in zip(miss_keys, encoded):
                fresh[key] = pair
                self._cache_put(key, pair)
        node_rows: List[np.ndarray] = []
        graph_rows: List[np.ndarray] = []
        for key, entry, node_index in zip(keys, entries, block_indices):
            if entry is None:
                entry = fresh[key]
            nodes, graph_emb = entry
            node_index = int(node_index)
            node_rows.append(
                nodes[node_index]
                if 0 <= node_index < nodes.shape[0]
                else np.zeros_like(graph_emb)
            )
            graph_rows.append(graph_emb)
        return np.stack(node_rows), np.stack(graph_rows)

    def invalidate_cache(self) -> None:
        """Drop cached embeddings (after encoder updates or task swaps)."""
        self._embedding_cache.clear()

    def _batch_observations(
        self, observations: Union[Sequence[Observation], StackedObservations]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Stack observations, cast once to the policy's compute dtype.

        Accepts either a list of per-env :class:`Observation` or an
        already-stacked :class:`StackedObservations` (the vec-env
        ``step_stacked`` method produces the latter, skipping per-step
        re-marshalling).
        """
        stacked = stack_observations(observations)
        dtype = self.policy.dtype
        masks = stacked.masks.astype(dtype, copy=False)
        action_mask = stacked.action_mask
        node_emb, graph_emb = self._encode_batch(stacked.graphs, stacked.block_indices)
        node_emb = node_emb.astype(dtype, copy=False)
        graph_emb = graph_emb.astype(dtype, copy=False)
        if OBS.enabled:
            OBS.registry.observe("policy.batch_size", len(stacked))
        return masks, node_emb, graph_emb, action_mask

    def act(
        self,
        observations: Union[Sequence[Observation], StackedObservations],
        deterministic: Union[bool, Sequence[bool], np.ndarray] = False,
        rng: Union[None, np.random.Generator, Sequence[np.random.Generator]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Policy step: returns (actions, log_probs, values) as ndarrays.

        Pure inference — runs tape-free under ``nn.no_grad()``.  Stochastic
        sampling draws from ``rng`` when given, else the trainer's own
        stream; passing an explicit generator keeps inference reproducible
        regardless of how much of ``self.rng`` prior training consumed.

        Batched entry for externally-supplied observations (the serving
        micro-batcher): ``rng`` may be a *sequence* of per-row generators
        and ``deterministic`` a per-row boolean sequence.  Row ``i`` then
        consumes only ``rngs[i]``, as much of it as a batch-of-one call
        would, and samples exactly what that call would sample *given the
        row's logits* (:meth:`MaskedCategorical.sample_rows`).  The logits
        themselves may differ in the last bits with the batch a row
        shares: numpy runs a one-row dense layer as a matrix-vector
        product and a multi-row one as a matrix product, whose float32
        sums round differently (ota1's first observation batched with
        bias2's moves its logits by up to ~2e-7).  An action or log-prob
        can therefore change only when such a difference moves the
        sampled argmax.
        """
        per_row_rng = rng is not None and not isinstance(rng, np.random.Generator)
        per_row_det = not isinstance(deterministic, (bool, np.bool_))
        with no_grad():
            masks, node_emb, graph_emb, action_mask = self._batch_observations(observations)
            logits, values = self.policy(Tensor(masks), Tensor(node_emb), Tensor(graph_emb))
            dist = MaskedCategorical(logits, action_mask)
            if per_row_rng or per_row_det:
                batch = action_mask.shape[0]
                det_rows = np.broadcast_to(
                    np.asarray(deterministic, dtype=bool), (batch,)
                )
                if per_row_rng:
                    rngs = list(rng)
                else:
                    shared = rng if rng is not None else self.rng
                    rngs = [shared] * batch
                actions = dist.sample_rows(rngs, det_rows)
            elif deterministic:
                actions = dist.mode()
            else:
                actions = dist.sample(rng if rng is not None else self.rng)
            log_probs = dist.log_prob(actions).numpy()
            return actions, log_probs, values.numpy()

    # ------------------------------------------------------------------
    def collect(
        self,
        vecenv: VecEnv,
        observations: Union[List[Observation], StackedObservations],
        on_episode_end: Optional[Callable[[int, float, Dict], None]] = None,
        rollout_steps: Optional[int] = None,
    ) -> Tuple["RolloutBuffer", StackedObservations, int]:
        """Fill a rollout buffer; returns (buffer, next_observations, episodes).

        ``rollout_steps`` overrides the configured rollout length for this
        call only (k-shot fine-tuning sizes rollouts to the episode
        budget) — callers never need to mutate the shared config.

        Observations flow through the loop in stacked form
        (:class:`StackedObservations`): the vec-env steps with
        ``step_stacked`` and the returned ``next_observations`` are
        stacked too — feed them straight back into the next ``collect``.
        """
        from .rollout import RolloutBuffer

        cfg = self.config
        steps = rollout_steps if rollout_steps is not None else cfg.rollout_steps
        observations = stack_observations(observations)
        with phase("ppo.collect", env_steps=steps * vecenv.num_envs):
            buffer = RolloutBuffer(
                steps, vecenv.num_envs, EMBEDDING_DIM, dtype=self.policy.dtype,
            )
            if self._running_returns is None or len(self._running_returns) != vecenv.num_envs:
                self._running_returns = np.zeros(vecenv.num_envs)
            episodes = 0
            while not buffer.full:
                # Rollout forward passes are pure inference: no autograd tape.
                with no_grad():
                    masks, node_emb, graph_emb, action_mask = self._batch_observations(observations)
                    logits, values = self.policy(Tensor(masks), Tensor(node_emb), Tensor(graph_emb))
                    dist = MaskedCategorical(logits, action_mask)
                    actions = dist.sample(self.rng)
                    log_probs = dist.log_prob(actions).numpy()
                next_observations, rewards, dones, infos = vecenv.step_stacked(actions)
                buffer.add(masks, node_emb, graph_emb, action_mask, actions,
                           log_probs, values.numpy(), rewards, dones)
                self._running_returns += rewards
                for i, done in enumerate(dones):
                    if done:
                        episodes += 1
                        self.episodes_total += 1
                        self._episode_returns.append(self._running_returns[i])
                        if on_episode_end is not None:
                            on_episode_end(i, self._running_returns[i], infos[i])
                        self._running_returns[i] = 0.0
                observations = next_observations

            # Bootstrap values for the unfinished trajectories.
            with no_grad():
                masks, node_emb, graph_emb, _ = self._batch_observations(observations)
                _, last_values = self.policy(Tensor(masks), Tensor(node_emb), Tensor(graph_emb))
            buffer.compute_gae(last_values.numpy(), cfg.gamma, cfg.gae_lambda)
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("ppo.collects")
            registry.inc("ppo.collect.env_steps", steps * vecenv.num_envs)
            registry.inc("ppo.collect.episodes", episodes)
        return buffer, observations, episodes

    # ------------------------------------------------------------------
    def update(self, buffer) -> Dict[str, float]:
        """PPO clipped-surrogate update over the collected rollout."""
        cfg = self.config
        policy_losses, value_losses, entropies, kls, clip_fracs = [], [], [], [], []
        with phase("ppo.update"):
            for _ in range(cfg.ppo_epochs):
                for batch in buffer.iter_minibatches(cfg.minibatch_size, self.rng):
                    self.optimizer.zero_grad()
                    logits, values = self.policy(
                        Tensor(batch.masks), Tensor(batch.node_emb), Tensor(batch.graph_emb)
                    )
                    dist = MaskedCategorical(logits, batch.action_mask)
                    log_probs = dist.log_prob(batch.actions)
                    ratio = (log_probs - Tensor(batch.old_log_probs)).exp()
                    advantages = Tensor(batch.advantages)
                    surrogate1 = ratio * advantages
                    surrogate2 = ratio.clip(1.0 - cfg.clip_range, 1.0 + cfg.clip_range) * advantages
                    # min(s1, s2) == s2 + (s1 - s2).clip(max=0)
                    diff = surrogate1 - surrogate2
                    policy_loss = -(surrogate2 + diff.clip(-1e30, 0.0)).mean()

                    value_error = values - Tensor(batch.returns)
                    value_loss = (value_error * value_error).mean()
                    entropy = dist.entropy().mean()

                    loss = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy
                    loss.backward()
                    self.optimizer.clip_grad_norm(cfg.max_grad_norm)
                    self.optimizer.step()

                    with_np = log_probs.numpy()
                    kls.append(float(np.mean(batch.old_log_probs - with_np)))
                    clip_fracs.append(float(np.mean(np.abs(ratio.numpy() - 1.0) > cfg.clip_range)))
                    policy_losses.append(policy_loss.item())
                    value_losses.append(value_loss.item())
                    entropies.append(entropy.item())
        if OBS.enabled:
            OBS.registry.inc("ppo.updates")
            OBS.registry.inc("ppo.minibatches", len(policy_losses))
        return {
            "policy_loss": float(np.mean(policy_losses)),
            "value_loss": float(np.mean(value_losses)),
            "entropy": float(np.mean(entropies)),
            "approx_kl": float(np.mean(np.abs(kls))),
            "clip_fraction": float(np.mean(clip_fracs)),
        }

    # ------------------------------------------------------------------
    @property
    def episode_reward_mean(self) -> float:
        if not self._episode_returns:
            return float("nan")
        return float(np.mean(self._episode_returns))

    def record_iteration(
        self, history: TrainHistory, stats: Dict[str, float], episodes: int
    ) -> IterationStats:
        """Append one iteration's diagnostics to ``history`` and publish them.

        ``stats`` is what :meth:`update` returned; ``episodes`` is the
        caller's episode count for the iteration.
        """
        entry = IterationStats(
            iteration=len(history.iterations),
            episode_reward_mean=self.episode_reward_mean,
            episodes_completed=episodes,
            **stats,
        )
        history.iterations.append(entry)
        publish_iteration(entry)
        return entry

    def train(
        self,
        vecenv: VecEnv,
        iterations: int,
        on_episode_end: Optional[Callable[[int, float, Dict], None]] = None,
        history: Optional[TrainHistory] = None,
    ) -> TrainHistory:
        """Run ``iterations`` collect+update cycles."""
        history = history or TrainHistory()
        observations = vecenv.reset()
        for it in range(iterations):
            buffer, observations, episodes = self.collect(vecenv, observations, on_episode_end)
            self.record_iteration(history, self.update(buffer), episodes)
        return history
