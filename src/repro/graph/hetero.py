"""Heterogeneous (multi-relational) graphs for R-GCN consumption.

Paper Sec. IV-C: circuits are undirected graphs whose edges carry one of
five relations — netlist connectivity, horizontal / vertical alignment,
horizontal / vertical symmetry.  Circuits are small (3..19 blocks), so we
store dense per-relation normalized adjacency matrices; R-GCN layers then
reduce to a handful of dense matmuls, which is both simple and fast on
numpy.
"""

from __future__ import annotations

import itertools
import os
import secrets
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Canonical relation order; W_r weights in the R-GCN are indexed by this.
RELATIONS: Tuple[str, ...] = ("connect", "h_align", "v_align", "h_sym", "v_sym")

#: Per-process salt + monotonic counter backing ``HeteroGraph.uid``.  The
#: salt keeps uids unique across worker processes (a bare counter
#: would restart at 1 in every worker and collide), while pickling keeps a
#: graph's uid stable — a copy shipped to/from a worker still hits the
#: same embedding-cache entry.
_UID_SALT: str = secrets.token_hex(8)
_UID_COUNTER = itertools.count(1)


def _reseed_uid_salt() -> None:
    """Give a forked child its own salt.

    ``fork`` copies the parent's salt *and* counter position, so graphs
    built after the fork in different workers would otherwise receive
    identical uids — and a shared embedding cache keyed on uid would
    silently serve one circuit's embeddings for another.  Graphs created
    before the fork keep their uid in both processes, which is the
    desired pickle-like stability.
    """
    global _UID_SALT
    _UID_SALT = secrets.token_hex(8)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reseed_uid_salt)


@dataclass
class HeteroGraph:
    """An undirected multi-relational graph with dense node features.

    Attributes
    ----------
    num_nodes:
        Node count.
    features:
        Node feature matrix of shape ``(num_nodes, feature_dim)``.
    edges:
        Mapping from relation name to a list of undirected ``(u, v)``
        pairs.  Self-loops are handled separately by the R-GCN's W_0 term
        and must not appear here.
    """

    num_nodes: int
    features: np.ndarray
    edges: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Stable identity token for embedding caches (never recycled, unlike
        # id(); survives pickling so worker-process copies share the key).
        self.uid: Tuple[str, int] = (_UID_SALT, next(_UID_COUNTER))
        # Mutation counter: bumped by add_edge so batched-structure caches
        # keyed on (uid, version) never serve a stale snapshot.
        self._version: int = 0
        self._adj_cache: Dict[bool, np.ndarray] = {}
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != self.num_nodes:
            raise ValueError(
                f"features must be (num_nodes, d); got {self.features.shape} for {self.num_nodes} nodes"
            )
        for relation, pairs in self.edges.items():
            if relation not in RELATIONS:
                raise ValueError(f"unknown relation {relation!r}; expected one of {RELATIONS}")
            for u, v in pairs:
                if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                    raise ValueError(f"edge ({u}, {v}) out of range for {self.num_nodes} nodes")
                if u == v:
                    raise ValueError(f"self-loop ({u}, {v}) not allowed; R-GCN adds W_0 self-term")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def add_edge(self, relation: str, u: int, v: int) -> None:
        if relation not in RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        self.edges.setdefault(relation, []).append((u, v))
        self._adj_cache_dict().clear()
        self._version = self.version + 1

    @property
    def version(self) -> int:
        """Structure mutation counter (getattr tolerates old pickles)."""
        return getattr(self, "_version", 0)

    def _adj_cache_dict(self) -> Dict[bool, np.ndarray]:
        # getattr tolerates instances unpickled from pre-cache payloads.
        cache = getattr(self, "_adj_cache", None)
        if cache is None:
            cache = self._adj_cache = {}
        return cache

    def num_edges(self, relation: str = None) -> int:
        if relation is not None:
            return len(self.edges.get(relation, []))
        return sum(len(pairs) for pairs in self.edges.values())

    # ------------------------------------------------------------------
    def adjacency(self, relation: str, normalize: bool = True) -> np.ndarray:
        """Dense symmetric adjacency for ``relation``.

        With ``normalize=True``, each row is divided by the node's degree
        under this relation (the c_{u,r} constant of paper Eq. 2).
        """
        adj = np.zeros((self.num_nodes, self.num_nodes))
        for u, v in self.edges.get(relation, []):
            adj[u, v] = 1.0
            adj[v, u] = 1.0
        if normalize:
            degree = adj.sum(axis=1, keepdims=True)
            degree[degree == 0] = 1.0
            adj = adj / degree
        return adj

    def adjacency_stack(self, normalize: bool = True) -> np.ndarray:
        """All relations stacked: shape ``(num_relations, N, N)``.

        Cached per ``normalize`` (invalidated by :meth:`add_edge`).  Treat
        the result as read-only.
        """
        cache = self._adj_cache_dict()
        stack = cache.get(bool(normalize))
        if stack is None:
            stack = np.stack([self.adjacency(r, normalize) for r in RELATIONS])
            cache[bool(normalize)] = stack
        return stack

    def neighbors(self, node: int, relation: str) -> List[int]:
        result = []
        for u, v in self.edges.get(relation, []):
            if u == node:
                result.append(v)
            elif v == node:
                result.append(u)
        return sorted(set(result))


class BatchedHeteroGraph:
    """A batch of heterogeneous graphs viewed as one padded structure.

    Node sets are concatenated with per-graph offsets; the relation
    structure is materialized as a zero-padded adjacency stack of shape
    ``(num_relations, num_graphs, max_nodes, max_nodes)`` so one batched
    ``np.matmul`` per relation applies every graph's message passing at
    once (equivalent to a block-diagonal matrix, laid out for batched
    GEMM instead).  The stack and the padded feature tensor are memoized
    per dtype.
    """

    def __init__(self, graphs: Sequence[HeteroGraph]):
        if not graphs:
            raise ValueError("cannot batch zero graphs")
        feature_dims = {g.feature_dim for g in graphs}
        if len(feature_dims) != 1:
            raise ValueError(f"graphs disagree on feature_dim: {sorted(feature_dims)}")
        self.graphs: List[HeteroGraph] = list(graphs)
        self.num_graphs = len(self.graphs)
        self.feature_dim = feature_dims.pop()
        self.sizes = np.array([g.num_nodes for g in self.graphs], dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.total_nodes = int(self.offsets[-1])
        self.max_nodes = int(self.sizes.max())
        #: Cache key: the member graphs' identity + structure versions.
        self.key: Tuple = tuple((g.uid, g.version) for g in self.graphs)
        #: Flat indices of the valid rows inside the padded
        #: (num_graphs * max_nodes, d) layout, in concatenation order.
        self.flat_index = np.concatenate([
            np.arange(n, dtype=np.int64) + g * self.max_nodes
            for g, n in enumerate(self.sizes)
        ])
        self._feature_cache: Dict[str, np.ndarray] = {}
        self._adj_cache: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def features_padded(self, dtype=None) -> np.ndarray:
        """Node features zero-padded to ``(G, max_nodes, feature_dim)``."""
        dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        cached = self._feature_cache.get(dtype.str)
        if cached is None:
            cached = np.zeros(
                (self.num_graphs, self.max_nodes, self.feature_dim), dtype=dtype
            )
            for g, graph in enumerate(self.graphs):
                cached[g, : graph.num_nodes] = graph.features
            self._feature_cache[dtype.str] = cached
        return cached

    def adjacency_padded(self, dtype=None) -> Tuple[np.ndarray, np.ndarray]:
        """Padded normalized adjacency + per-relation activity flags.

        Returns ``(stack, active)`` where ``stack`` has shape
        ``(R, G, max_nodes, max_nodes)`` (each graph's row-normalized
        adjacency in its top-left block, zeros elsewhere) and
        ``active[r]`` is True iff any graph has relation-``r`` edges
        (the R-GCN layers skip inactive relations entirely).
        """
        dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        cached = self._adj_cache.get(dtype.str)
        if cached is None:
            stack = np.zeros(
                (len(RELATIONS), self.num_graphs, self.max_nodes, self.max_nodes),
                dtype=dtype,
            )
            for g, graph in enumerate(self.graphs):
                n = graph.num_nodes
                stack[:, g, :n, :n] = graph.adjacency_stack(normalize=True)
            active = np.array([
                any(graph.num_edges(r) for graph in self.graphs) for r in RELATIONS
            ])
            cached = (stack, active)
            self._adj_cache[dtype.str] = cached
        return cached

    def node_slices(self) -> List[slice]:
        """Per-graph slices into the concatenated node dimension."""
        return [
            slice(int(self.offsets[g]), int(self.offsets[g + 1]))
            for g in range(self.num_graphs)
        ]


#: Memoized batch structures keyed on the member (uid, version) tuple.
_BATCH_CACHE: "OrderedDict[Tuple, BatchedHeteroGraph]" = OrderedDict()
_BATCH_CACHE_MAX = 64
_BATCH_CACHE_LOCK = threading.Lock()


def batch_graphs(graphs: Sequence[HeteroGraph]) -> BatchedHeteroGraph:
    """LRU-cached :class:`BatchedHeteroGraph` construction.

    Repeated batches of the same graph objects (keyed on their
    ``(uid, version)`` tuples) reuse the cached structure, so a vec-env
    that encodes the same fleet of circuits every rollout pays the
    concatenation/padding cost once.
    """
    key = tuple((g.uid, g.version) for g in graphs)
    with _BATCH_CACHE_LOCK:
        batch = _BATCH_CACHE.get(key)
        if batch is not None:
            _BATCH_CACHE.move_to_end(key)
            return batch
    batch = BatchedHeteroGraph(graphs)
    with _BATCH_CACHE_LOCK:
        _BATCH_CACHE[batch.key] = batch
        _BATCH_CACHE.move_to_end(batch.key)
        while len(_BATCH_CACHE) > _BATCH_CACHE_MAX:
            _BATCH_CACHE.popitem(last=False)
    return batch
