"""Sparse feedforward networks with tree-shaped receptive fields.

The pipeline: estimate pairwise mutual information over (binarized)
features, keep a maximum-weight spanning tree, cover the tree with
receptive fields that become the connectivity mask of a hidden layer,
pretrain the layer as a denoising autoencoder, project, repeat, then
fine-tune the stack with a classifier head.
"""

import os as _os

# honored only if set before numpy's BLAS loads, hence before the imports below
if "TRFNET_THREADS" in _os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["TRFNET_THREADS"])

from .data import (
    BinaryDataset,
    Dataset,
    DiscretizationPolicy,
    discretize,
    load_dense_csv,
    load_sparse_bow,
    split,
)
from .stats import MiBlocks, MiPairs, mi_matrix
from .tree import ChowLiuTree, chow_liu, hop_distances, max_spanning_tree
from .receptive_field import ReceptiveFieldPlan, build_masks
from .nn import DenseLayer, MaskedLayer, Adam, dropout, reconstruction_loss
from .dae import CorruptionConfig, DaeHyper, corrupt, project, train_dae
from .builder import (
    BuildConfig,
    EvalReport,
    FinetuneHyper,
    TrfNetwork,
    attach_head,
    build_trf_net,
    evaluate,
    finetune,
    load,
    save,
)
from .baselines import DenseNetConfig, prune_and_retrain, train_dense, train_l1
from .interpret import EmbeddingTable, interpretability_score, load_embeddings, top_correlated_features

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "BinaryDataset",
    "BuildConfig",
    "ChowLiuTree",
    "CorruptionConfig",
    "DaeHyper",
    "Dataset",
    "DenseLayer",
    "DenseNetConfig",
    "DiscretizationPolicy",
    "EmbeddingTable",
    "EvalReport",
    "FinetuneHyper",
    "MaskedLayer",
    "MiBlocks",
    "MiPairs",
    "ReceptiveFieldPlan",
    "TrfNetwork",
    "attach_head",
    "build_masks",
    "build_trf_net",
    "chow_liu",
    "corrupt",
    "discretize",
    "dropout",
    "evaluate",
    "finetune",
    "hop_distances",
    "interpretability_score",
    "load",
    "load_dense_csv",
    "load_embeddings",
    "load_sparse_bow",
    "max_spanning_tree",
    "mi_matrix",
    "project",
    "prune_and_retrain",
    "reconstruction_loss",
    "save",
    "split",
    "top_correlated_features",
    "train_dae",
    "train_dense",
    "train_l1",
]
