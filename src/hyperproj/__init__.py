"""Projection learning for hypernym prediction in word embedding spaces.

Learns per-cluster square matrices mapping hyponym vectors toward their
hypernym vectors, with optional asymmetric and neighbor (negative
sampling) regularizers, and evaluates ranked predictions with hit@l and
trapezoid AUC.
"""

from .clustering import ClusterModel, assign_cluster, assign_clusters, fit_kmeans, offsets
from .dataset import (
    RelationDataset,
    RelationPair,
    build_dataset,
    lexical_split,
    load_relations,
    sample_negative,
)
from .embeddings import (
    EmbeddingTable,
    NeighborList,
    load_embeddings,
    nearest_neighbors,
    save_embeddings_text,
)
from .errors import HyperprojError, InputError, TrainingError
from .evaluation import EvalReport, auc, evaluate, hit_at, predict_candidates
from .projection import ProjectionModel, Regularizer, load_model, save_model
from .training import AdamState, TrainConfig, adam_step, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "ClusterModel",
    "EmbeddingTable",
    "EvalReport",
    "HyperprojError",
    "InputError",
    "NeighborList",
    "ProjectionModel",
    "Regularizer",
    "RelationDataset",
    "RelationPair",
    "TrainConfig",
    "TrainingError",
    "adam_step",
    "assign_cluster",
    "assign_clusters",
    "auc",
    "build_dataset",
    "evaluate",
    "fit_kmeans",
    "hit_at",
    "lexical_split",
    "load_embeddings",
    "load_model",
    "load_relations",
    "nearest_neighbors",
    "offsets",
    "predict_candidates",
    "sample_negative",
    "save_embeddings_text",
    "save_model",
    "train",
]
