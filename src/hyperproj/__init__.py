"""Projection learning for hypernym prediction in word embedding spaces.

Learns per-cluster square matrices mapping hyponym vectors toward their
hypernym vectors, with optional asymmetric and neighbor (negative
sampling) regularizers, and evaluates ranked predictions with hit@l and
trapezoid AUC.

Relations take one form, ``Relations``: a word list with int arrays of
word ids and relation codes, as ``read_relations`` reads a file and
``synth.make_fixture`` generates one. ``lexical_split`` returns each
row's bucket as its int8 index in ``dataset.BUCKETS``.

The one-query forms (``embeddings.nearest_neighbors``, which is
``embeddings.top_cosines`` of one query, ``clustering.assign_cluster`` and
``dataset.sample_negative``) are imported from their modules.
"""

from .clustering import ClusterModel, assign_clusters, fit_kmeans, offsets
from .dataset import RelationDataset, Relations, build_dataset, lexical_split, read_relations
from .embeddings import EmbeddingTable, load_embeddings, save_embeddings_text
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
    "ProjectionModel",
    "Regularizer",
    "RelationDataset",
    "Relations",
    "TrainConfig",
    "TrainingError",
    "adam_step",
    "assign_clusters",
    "auc",
    "build_dataset",
    "evaluate",
    "fit_kmeans",
    "hit_at",
    "lexical_split",
    "load_embeddings",
    "load_model",
    "offsets",
    "predict_candidates",
    "read_relations",
    "save_embeddings_text",
    "save_model",
    "train",
]
