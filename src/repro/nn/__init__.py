"""Pure-numpy neural-network substrate (autograd, layers, optimizers).

This subpackage substitutes for PyTorch in the execution environment: it
provides reverse-mode autodiff (:class:`Tensor`), a module system, the
layers needed by DGNN encoders (linear/MLP/embedding/recurrent cells/
attention), the Adam optimizer and the losses the paper uses.
"""

from . import functional
from .attention import AdditiveAttention, TemporalAttention
from .autograd import (Node, Primitive, SparseRowGrad, Tensor, apply_op,
                       as_tensor, default_dtype, defvjp, get_default_dtype,
                       graph_nodes_created, is_grad_enabled, no_grad,
                       primitive, set_default_dtype)
from .compile import CompiledStep, ReplayMismatch
from .layers import MLP, Embedding, Linear
from .losses import (bce_with_logits, binary_cross_entropy, info_nce_loss,
                     jsd_mutual_information_loss, mse_loss, softplus,
                     triplet_margin_loss)
from .gradcheck import GradCheckError, check_gradients, numeric_gradient
from .module import Module, Parameter
from .optim import Adam, Optimizer, clip_grad_norm
from .recurrent import GRUCell, RNNCell
from .serialization import load_arrays, save_arrays

__all__ = [
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled", "functional",
    "SparseRowGrad", "default_dtype", "get_default_dtype", "set_default_dtype",
    "Primitive", "Node", "primitive", "defvjp", "apply_op",
    "graph_nodes_created", "CompiledStep", "ReplayMismatch",
    "Module", "Parameter",
    "Linear", "MLP", "Embedding", "RNNCell", "GRUCell",
    "TemporalAttention", "AdditiveAttention",
    "Optimizer", "Adam", "clip_grad_norm",
    "triplet_margin_loss", "bce_with_logits", "binary_cross_entropy",
    "jsd_mutual_information_loss", "info_nce_loss", "mse_loss", "softplus",
    "save_arrays", "load_arrays",
    "numeric_gradient", "check_gradients", "GradCheckError",
]
