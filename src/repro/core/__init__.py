"""CPDG core — the paper's contribution.

Structural-temporal subgraph samplers (§IV-A), the temporal and structural
contrastive objectives plus the link-prediction pretext (§IV-B), the
pre-training loop (Algorithm 1) and the evolution-information-enhanced
fine-tuning module (§IV-C).
"""

from .checkpoints import CheckpointSchedule, MemoryCheckpoints
from .config import CPDGConfig
from .contrast import (OBJECTIVES, READOUTS, contrast_loss_from_pairs,
                       draw_other_roots, subgraph_readout)
from .eie import EIE_FUSERS, EIEModule
from .pretext import LinkPredictionHead
from .pretrainer import CPDGPreTrainer, PretrainResult
from .probability import (PROBABILITY_FUNCTIONS, chronological_probability,
                          reverse_chronological_probability,
                          uniform_probability)
from .samplers import (EpsilonDFSSampler, EtaBFSSampler, PrecomputedSampler,
                       SubgraphBatch)

__all__ = [
    "CPDGConfig", "CPDGPreTrainer", "PretrainResult",
    "EtaBFSSampler", "EpsilonDFSSampler", "PrecomputedSampler",
    "SubgraphBatch",
    "chronological_probability", "reverse_chronological_probability",
    "uniform_probability", "PROBABILITY_FUNCTIONS",
    "contrast_loss_from_pairs", "draw_other_roots", "subgraph_readout",
    "READOUTS", "OBJECTIVES",
    "LinkPredictionHead",
    "EIEModule", "EIE_FUSERS",
    "CheckpointSchedule", "MemoryCheckpoints",
]
