"""Self-supervised architecture search for multimodal fusion networks.

A desk-scale engine: differentiable search over a fusion-cell space driven
by a two-view contrastive objective, alternating bilevel updates of
operator weights and architecture logits, then contrastive pretraining of
the derived network and supervised fitting of a linear classifier on
scarce labels. Everything runs on numpy float64 through a small built-in
reverse-mode autodiff tape.
"""

__version__ = "0.1.0"

from .autodiff import Tape, Tensor
from .bilevel import SearchConfig, SearchState, run_search
from .contrastive import ContrastiveConfig, ntxent_loss
from .data import Dataset, SyntheticSpec, generate, split
from .pipeline import PipelineConfig, run_pipeline, weighted_f1
from .searchspace import (
    ArchParams,
    Genotype,
    SearchSpaceConfig,
    derive_genotype,
    instantiate,
)

__all__ = [
    "__version__",
    "Tape",
    "Tensor",
    "SearchConfig",
    "SearchState",
    "run_search",
    "ContrastiveConfig",
    "ntxent_loss",
    "Dataset",
    "SyntheticSpec",
    "generate",
    "split",
    "PipelineConfig",
    "run_pipeline",
    "weighted_f1",
    "ArchParams",
    "Genotype",
    "SearchSpaceConfig",
    "derive_genotype",
    "instantiate",
]
