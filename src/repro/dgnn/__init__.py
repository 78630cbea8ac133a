"""Memory-based dynamic graph neural networks (paper §III-B).

The generic message → aggregate → update → embed framework with the three
named backbones of paper Table III: TGN, JODIE and DyRep.
"""

from .embedding import (EmbeddingContext, IdentityEmbedding,
                        TemporalAttentionEmbedding, TimeProjectionEmbedding)
from .encoder import (BACKBONES, DGNNEncoder, ZeroEdgeFeatures,
                      embed_together, make_encoder)
from .memory import Memory, StagedMessages
from .messages import AttentionMessage, IdentityMessage
from .time_encoding import TimeEncoder
from .updaters import GRUUpdater, RNNUpdater, make_updater

__all__ = [
    "DGNNEncoder", "make_encoder", "embed_together", "BACKBONES",
    "Memory", "StagedMessages",
    "ZeroEdgeFeatures", "TimeEncoder",
    "IdentityMessage", "AttentionMessage",
    "GRUUpdater", "RNNUpdater", "make_updater",
    "EmbeddingContext", "IdentityEmbedding", "TimeProjectionEmbedding",
    "TemporalAttentionEmbedding",
]
