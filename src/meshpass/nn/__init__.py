"""Dense tensor math with reverse-mode gradients, MLPs, normalizers, Adam."""

from .autodiff import (
    NonFiniteError,
    SparseOp,
    Tensor,
    add,
    backward,
    concat,
    layer_norm,
    matmul,
    mean_sq,
    mul,
    no_tape,
    relu,
    row_block,
    spmm,
    sub,
    value,
)
from .checkpoint import CheckpointError, load_blocks, save_blocks
from .layers import Mlp, Normalizer, mlp_apply
from .optim import Adam, adam_step

__all__ = [
    "Adam",
    "CheckpointError",
    "Mlp",
    "NonFiniteError",
    "Normalizer",
    "SparseOp",
    "Tensor",
    "adam_step",
    "add",
    "backward",
    "concat",
    "layer_norm",
    "load_blocks",
    "matmul",
    "mean_sq",
    "mlp_apply",
    "mul",
    "no_tape",
    "relu",
    "row_block",
    "save_blocks",
    "spmm",
    "sub",
    "value",
]
