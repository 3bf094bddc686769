"""The benchmark's tracer still cuts every stage loop into its batches.

``perfbench/spans.py`` recovers batches from the direct children of the
``search_epoch``, ``pretrain`` and ``fit_classifier`` spans: a batch ends at
its optimizer step, or at a loss that no backward pass follows. A refactor
that moves a batch's loss, backward pass or step under another traced span
would silently merge or lose batches. The tracer is loaded from its file,
unedited, and run around one tiny pipeline.
"""

import importlib.util
from pathlib import Path

from mmnas.bilevel import SearchConfig, batch_indices
from mmnas.contrastive import ContrastiveConfig
from mmnas.data import SyntheticSpec, generate, split
from mmnas.pipeline import PipelineConfig, run_pipeline
from mmnas.searchspace import SearchSpaceConfig

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_finds_every_batch_of_every_stage():
    ds = generate(SyntheticSpec(num_samples=200, image_layer_dims=(10, 10), text_layer_dims=(10, 10), seed=0))
    space = SearchSpaceConfig(
        features_per_modality=(ds.image_dims, ds.text_dims), num_cells=1, steps_per_cell=1, hidden_dim=6
    )
    scfg = SearchConfig(max_epochs=1)
    pcfg = PipelineConfig(labeled_ratio=0.5, pretrain_epochs=2, clf_epochs=3)
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        run_pipeline(ds, space, scfg, ContrastiveConfig(), pcfg, seed=0)
    finally:
        tracer.uninstall()
    tracer.segment()
    counts = {}
    for b in tracer.batches:
        counts[b["kind"]] = counts.get(b["kind"], 0) + 1

    splits = split(ds, pcfg.labeled_ratio, 0)
    valid = len(batch_indices(len(splits.search_valid), scfg.batch_size))
    expected = {
        "train": len(batch_indices(len(splits.search_train), scfg.batch_size)),
        "valid": valid,
        "eval": valid,
        "pretrain": pcfg.pretrain_epochs * len(batch_indices(len(splits.search_train), pcfg.pretrain_batch_size)),
        # the fit keeps a size-1 last chunk
        "fit": pcfg.clf_epochs * -(-len(splits.labeled_train) // pcfg.clf_batch_size),
    }
    assert counts == expected == {"train": 5, "valid": 2, "eval": 2, "pretrain": 10, "fit": 6}
