"""Streaming batch pipeline: plan → producers → trainer.

Everything Algorithm 1 does before the gradient step that needs no model
state — chronological slicing, negative drawing, §IV-A subgraph sampling
— is extracted behind a producer/consumer seam:

* :class:`BatchPlan` deterministically enumerates ``(epoch, batch)``
  work items; :func:`batch_rngs` derives each batch's generators from
  ``(seed, epoch, batch_idx)``, so production is order-independent and
  process-independent.
* :class:`SerialProducer` runs production in process on the caller's
  thread (the serial oracle, and fine-tuning's producer);
  :class:`ForkProducer` runs it in N forked children that inherit the
  sampling context copy-on-write, ahead of the trainer (pre-training's
  ``num_workers=N``, one child for 0, given a spare core).  Both yield
  bit-identical :class:`PreparedBatch`es.
* Trainers (:class:`~repro.core.pretrainer.CPDGPreTrainer`, the
  fine-tuning tasks) are consumers: they iterate prepared batches and
  keep encoder / memory / optimizer state.
"""

from .plan import (BatchPlan, BatchRngs, StreamError, WorkItem,
                   batch_rngs, batch_seed_sequence)
from .prepared import PreparedBatch
from .producer import (BatchProducer, ForkProducer, ProducerSpec,
                       SamplingContext, SerialProducer, make_producer,
                       produce_batch)

__all__ = [
    "BatchPlan", "BatchRngs", "StreamError", "WorkItem",
    "batch_rngs", "batch_seed_sequence",
    "PreparedBatch",
    "BatchProducer", "ForkProducer", "ProducerSpec", "SamplingContext",
    "SerialProducer", "make_producer", "produce_batch",
]
