"""Relational graph convolution layers (paper Eq. 2) and the encoder.

The benchmark circuits have at most ~20 blocks, so adjacency is dense and
an R-GCN layer is a handful of matmuls:

    h' = sigma( h @ W0 + sum_r A_r_norm @ h @ W_r )

with A_r_norm the row-normalized adjacency of relation r (the 1/c_{u,r}
constant of Eq. 2 baked in).

There is one forward, :meth:`RGCNEncoder.encode_batch`, shared by the
reward model (a batch of one graph) and the RL agent (a fleet of
graphs).  It runs a whole batch through one set of GEMMs per layer: node
features are zero-padded to ``(G, max_nodes, d)``, each relation is
applied as a single batched ``np.matmul`` against the padded adjacency
stack, and the readout is a per-graph node mean.  Forward values and
parameter gradients do not depend on which graphs share a batch (up to
the sign of a zero); the golden tests in ``tests/test_gnn_batched.py``
pin them bit for bit to the per-graph reference in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import EMBEDDING_DIM, NUM_RGCN_LAYERS
from ..graph.hetero import RELATIONS, BatchedHeteroGraph, HeteroGraph, batch_graphs
from ..nn import Module, Tensor, default_dtype, no_grad, take, xavier_uniform
from ..nn.tensor import _as_array
from ..obs import OBS, phase


# ---------------------------------------------------------------------------
# Padded-batch autograd ops.  These exist (rather than composing generic
# tensor ops) so a graph's result does not depend on its batch:
# weight/bias gradients accumulate per graph in batch order, exactly like
# encoding the graphs one at a time (``rgcn_encode_reference`` in
# ``tests/oracles.py``).
# ---------------------------------------------------------------------------

def _padded_bias_add(x: Tensor, bias: Tensor) -> Tensor:
    """``x + bias`` for padded ``(G, N_max, d)`` activations.

    The bias VJP reduces per graph first (``sum(axis=1)``) and then
    sequentially over graphs — the order one-graph-at-a-time encoding
    accumulates — where a plain broadcast add would reduce with
    ``sum(axis=(0, 1))`` and regroup the partial sums.
    """
    out_data = x.data + bias.data

    def backward(grad, send):
        send(x, grad)
        send(bias, grad.sum(axis=1).sum(axis=0))

    return Tensor._make(out_data, (x, bias), backward)


def _padded_spmm(adj: np.ndarray, h: Tensor) -> Tensor:
    """Batched message passing: ``out[g] = adj[g] @ h[g]``.

    ``adj`` is the zero-padded per-graph adjacency ``(G, N_max, N_max)``
    (structure only — no gradient); the VJP applies the transposed
    blocks graph by graph.
    """
    out_data = np.matmul(adj, h.data)
    adj_t = adj.transpose(0, 2, 1)

    def backward(grad, send):
        send(h, np.matmul(adj_t, grad))

    return Tensor._make(out_data, (h,), backward)


def _padded_graph_readout(h: Tensor, sizes: np.ndarray) -> Tensor:
    """Per-graph node mean over padded activations -> ``(G, d)``.

    Each row is ``nodes.mean(axis=0)`` of that graph's nodes, exactly:
    contiguous-slice row sum times a reciprocal cast to the default NN
    dtype (the op order ``Tensor.mean`` produces).
    """
    scalars = [_as_array(1.0 / int(n)) for n in sizes]
    rows = [
        h.data[g, : int(n)].sum(axis=0) * scalars[g]
        for g, n in enumerate(sizes)
    ]
    out_data = np.stack(rows)

    def backward(grad, send):
        g_h = np.zeros_like(h.data)
        for g, n in enumerate(sizes):
            g_h[g, : int(n)] = grad[g] * scalars[g]
        send(h, g_h)

    return Tensor._make(out_data, (h,), backward)


class RGCNLayer(Module):
    """One relational graph convolution (Eq. 2) with ReLU."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        num_relations: int = len(RELATIONS),
        rng: Optional[np.random.Generator] = None,
        activation: bool = True,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.num_relations = num_relations
        self.activation = activation
        self.w_self = Tensor(xavier_uniform(rng, (in_dim, out_dim), in_dim, out_dim), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim, dtype=default_dtype()), requires_grad=True)
        for r in range(num_relations):
            setattr(
                self,
                f"w_rel{r}",
                Tensor(xavier_uniform(rng, (in_dim, out_dim), in_dim, out_dim), requires_grad=True),
            )

    def relation_weight(self, r: int) -> Tensor:
        return getattr(self, f"w_rel{r}")

    def forward(
        self, h: Tensor, adj_padded: np.ndarray, active: np.ndarray
    ) -> Tensor:
        """Apply the layer to a padded batch of graphs at once.

        Parameters
        ----------
        h:
            Padded node features, shape ``(G, N_max, in_dim)`` (rows past
            a graph's node count are ignored garbage).
        adj_padded:
            Zero-padded normalized adjacency per relation, shape
            ``(R, G, N_max, N_max)``.
        active:
            Per-relation flags; relations with no edges anywhere in the
            batch are skipped.
        """
        if adj_padded.shape[0] != self.num_relations:
            raise ValueError(
                f"expected {self.num_relations} relations, got {adj_padded.shape[0]}"
            )
        out = _padded_bias_add(h @ self.w_self, self.bias)
        for r in range(self.num_relations):
            if not active[r]:
                continue
            out = out + _padded_spmm(adj_padded[r], h) @ self.relation_weight(r)
        return out.relu() if self.activation else out


class RGCNEncoder(Module):
    """Stack of R-GCN layers producing 32-dim node and graph embeddings.

    Paper Fig. 3: four R-GCN layers followed by node mean aggregation for
    the graph embedding.  The same module serves the reward model (with an
    MLP head) and the RL agent (as a frozen feature encoder).
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int = EMBEDDING_DIM,
        num_layers: int = NUM_RGCN_LAYERS,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        if num_layers < 1:
            raise ValueError("need at least one R-GCN layer")
        dims = [in_dim] + [hidden_dim] * num_layers
        self.num_layers = num_layers
        for i in range(num_layers):
            setattr(self, f"layer{i}", RGCNLayer(dims[i], dims[i + 1], rng=rng))

    def encode_batch(
        self, graphs: Union[BatchedHeteroGraph, Sequence[HeteroGraph]]
    ) -> Tuple[Tensor, Tensor]:
        """Encode a whole batch of graphs in one forward pass.

        Returns ``(node_embeddings, graph_embeddings)`` with node
        embeddings concatenated over graphs (``(total_nodes, d)``, rows
        ordered by graph then node — use ``batch.node_slices()`` /
        ``batch.offsets`` to split) and one graph embedding per graph
        (``(G, d)``).  Each graph's values and parameter gradients are
        those of encoding it alone, up to the sign of a zero (a relation
        only other graphs use adds an exact-zero term); honors
        ``no_grad`` and the ``REPRO_NN_DTYPE`` policy.
        """
        batch = (
            graphs
            if isinstance(graphs, BatchedHeteroGraph)
            else batch_graphs(list(graphs))
        )
        with phase("gnn.encode_batch", graphs=batch.num_graphs,
                   nodes=batch.total_nodes):
            dtype = self.dtype
            adj_padded, active = batch.adjacency_padded(dtype=dtype)
            h = Tensor(batch.features_padded(dtype=dtype))
            for i in range(self.num_layers):
                h = getattr(self, f"layer{i}")(h, adj_padded, active)
            graph_embeddings = _padded_graph_readout(h, batch.sizes)
            nodes = take(
                h.reshape(batch.num_graphs * batch.max_nodes, h.shape[-1]),
                batch.flat_index,
            )
        if OBS.enabled:
            OBS.registry.inc("gnn.encode_batch.calls")
            OBS.registry.inc("gnn.encode_batch.graphs", batch.num_graphs)
        return nodes, graph_embeddings

    def encode_batch_numpy(
        self, graphs: Union[BatchedHeteroGraph, Sequence[HeteroGraph]]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Gradient-free batched encoding, split back per graph.

        Returns one ``(node_embeddings (N, d), graph_embedding (d,))``
        ndarray pair per input graph, so embedding caches can be filled
        from a single batched forward.
        """
        batch = (
            graphs
            if isinstance(graphs, BatchedHeteroGraph)
            else batch_graphs(list(graphs))
        )
        with no_grad():
            nodes, graph_embeddings = self.encode_batch(batch)
        node_data, graph_data = nodes.numpy(), graph_embeddings.numpy()
        return [
            (node_data[sl].copy(), graph_data[g].copy())
            for g, sl in enumerate(batch.node_slices())
        ]
