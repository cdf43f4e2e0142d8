"""Selective contrastive learning on noisily labeled vector data.

Pipeline: contrastive warm-up, per-epoch selection of confident examples and
pairs from embedding neighborhoods, composite contrastive + classification +
pair-similarity training, and classifier fine-tuning on the confident subset.
"""

from .data import (Dataset, augment, dump_features_csv, inject_noise, load_features_csv,
                   make_blobs, mixup)
from .evaluation import (dump_projection_2d, pair_precision, project_2d, selection_precision,
                         weighted_knn_eval)
from .losses import (classification_loss, masked_contrastive, mixup_contrastive,
                     positive_mask, similarity_loss, total_loss, unsup_contrastive)
from .network import (ForwardCache, NetworkParams, OptState, apply_lr_schedule, backward,
                      forward, init_params, load_checkpoint, save_checkpoint, sgd_step)
from .neighbors import EmbeddingBank, PseudoLabelState, aggregate_pseudo_labels
from .selection import (SelectionState, nearest_rank_fractile, run_selection,
                        select_confident_examples, select_confident_pairs)
from .training import (EpochRecord, PretrainResult, RunConfig, benchmark_config,
                       compute_selection, dataset_from_config, finetune, model_metrics,
                       pretrain, pretrain_epoch, test_accuracy, train_cross_entropy_baseline,
                       train_embedding, warmup, write_metrics_csv)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
