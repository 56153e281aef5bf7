"""Actor-critic network of paper Fig. 4.

State path: the six 32x32 masks go through a CNN feature extractor
(channel progression 16/32/32/64/64 as in Sec. IV-D3) into a 512-dim
embedding, concatenated with the R-GCN graph embedding and current-node
embedding (32 + 32).  The policy head is one FC layer plus three
stride-2 deconvolutions (32/16/8 channels) projected to 3 x 32 x 32 shape
x position logits; the value head is an MLP on the same state embedding.

Scale-down note: the paper keeps stride 1 everywhere, giving a 65536 ->
512 dense layer (~34M weights) — fine on an A30, hostile on CPU/numpy.
We use stride 2 in the 2nd and 4th conv layers so the dense
layer shrinks to 4096 -> 512 while preserving the channel progression and
receptive-field growth.  The deconv head is exactly the paper's.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..config import (
    ACTION_SPACE,
    CNN_CHANNELS,
    CNN_FC_DIM,
    DECONV_CHANNELS,
    EMBEDDING_DIM,
    GRID_SIZE,
    NUM_MASK_CHANNELS,
    NUM_SHAPES,
)
from ..nn import (
    Conv2d,
    ConvTranspose2d,
    Linear,
    Module,
    ReLU,
    Sequential,
    Tensor,
    concatenate,
    mlp,
)

#: Spatial size after the strided extractor (32 -> 16 -> 8).
_FEATURE_SPATIAL = GRID_SIZE // 4
#: FC input once flattened.
_FLAT_DIM = CNN_CHANNELS[-1] * _FEATURE_SPATIAL * _FEATURE_SPATIAL
#: Deconv head starts from a (DECONV_CHANNELS[0], 4, 4) seed.
_SEED_SPATIAL = GRID_SIZE // 8


class CnnExtractor(Module):
    """Mask tensor (B, 6, 32, 32) -> 512-dim state feature."""

    def __init__(self, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        c = CNN_CHANNELS
        strides = (1, 2, 1, 2, 1)  # scale-down: see module docstring
        channels = (NUM_MASK_CHANNELS,) + tuple(c)
        layers: List[Module] = []
        for i in range(len(c)):
            layers.append(
                Conv2d(channels[i], channels[i + 1], kernel_size=3,
                       stride=strides[i], padding=1, rng=rng)
            )
            layers.append(ReLU())
        self.convs = Sequential(*layers)
        self.fc = Linear(_FLAT_DIM, CNN_FC_DIM, rng=rng)

    def forward(self, masks: Tensor) -> Tensor:
        h = self.convs(masks)
        h = h.reshape(h.shape[0], -1)
        return self.fc(h).relu()


class DeconvPolicyHead(Module):
    """State embedding -> (B, 3 * 32 * 32) action logits (Sec. IV-D3)."""

    def __init__(self, state_dim: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        d = DECONV_CHANNELS
        self.fc = Linear(state_dim, d[0] * _SEED_SPATIAL * _SEED_SPATIAL, rng=rng)
        self.deconv0 = ConvTranspose2d(d[0], d[0], 4, stride=2, padding=1, rng=rng)
        self.deconv1 = ConvTranspose2d(d[0], d[1], 4, stride=2, padding=1, rng=rng)
        self.deconv2 = ConvTranspose2d(d[1], d[2], 4, stride=2, padding=1, rng=rng)
        # 1x1 projection from the 8 deconv channels to the 3 shape planes.
        self.project = Conv2d(d[2], NUM_SHAPES, kernel_size=1, rng=rng)

    def forward(self, state: Tensor) -> Tensor:
        batch = state.shape[0]
        h = self.fc(state).relu()
        h = h.reshape(batch, DECONV_CHANNELS[0], _SEED_SPATIAL, _SEED_SPATIAL)
        h = self.deconv0(h).relu()
        h = self.deconv1(h).relu()
        h = self.deconv2(h).relu()
        logits = self.project(h)  # (B, 3, 32, 32)
        return logits.reshape(batch, ACTION_SPACE)


class ActorCritic(Module):
    """Full Fig. 4 model: CNN extractor + embeddings -> policy & value."""

    #: CNN feature + graph embedding + current-node embedding.
    STATE_DIM = CNN_FC_DIM + 2 * EMBEDDING_DIM

    def __init__(self, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.extractor = CnnExtractor(rng=rng)
        self.policy_head = DeconvPolicyHead(self.STATE_DIM, rng=rng)
        self.value_head = mlp([self.STATE_DIM, 256, 64, 1], rng=rng)

    def _cast_input(self, t: Tensor) -> Tensor:
        """Align a constant input leaf with the module's compute dtype.

        Only gradient-free leaves are rewrapped (casting a graph node would
        detach it); callers feeding float64 observations into a float32
        policy otherwise silently upcast the whole forward pass.
        """
        dtype = self.dtype
        if t.data.dtype != dtype and not t.requires_grad and t._parents == ():
            return Tensor(t.data.astype(dtype))
        return t

    def state_embedding(
        self, masks: Tensor, node_emb: Tensor, graph_emb: Tensor
    ) -> Tensor:
        """Concatenate CNN features with the R-GCN embeddings.

        Shapes: masks (B, 6, 32, 32); node_emb, graph_emb (B, 32).
        """
        masks = self._cast_input(masks)
        node_emb = self._cast_input(node_emb)
        graph_emb = self._cast_input(graph_emb)
        features = self.extractor(masks)
        return concatenate([features, node_emb, graph_emb], axis=1)

    def forward(
        self, masks: Tensor, node_emb: Tensor, graph_emb: Tensor
    ) -> Tuple[Tensor, Tensor]:
        """Returns (action logits (B, A), state values (B,))."""
        state = self.state_embedding(masks, node_emb, graph_emb)
        logits = self.policy_head(state)
        values = self.value_head(state).reshape(-1)
        return logits, values
