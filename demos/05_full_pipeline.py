"""All three stages end to end, plus the label-efficiency comparison.

Stage 1 searches the architecture on unlabeled data, stage 2 pretrains the
derived network contrastively, stage 3 fits a linear classifier on the few
labeled samples. Each seed is then compared with a random-encoder
baseline that skips pretraining. At these sizes the two score about the
same, and the margin may come out negative; the demo reports it as it is.

Run:  python demos/05_full_pipeline.py   (well under a minute)
"""

import numpy as np

from mmnas.bilevel import SearchConfig
from mmnas.config import RunConfig
from mmnas.contrastive import ContrastiveConfig
from mmnas.data import SyntheticSpec, generate
from mmnas.pipeline import PipelineConfig, run_pipeline

ds = generate(SyntheticSpec(num_samples=1200, seed=2))
space = RunConfig().space_config(ds.image_dims, ds.text_dims)
ccfg = ContrastiveConfig()
scfg = SearchConfig(max_epochs=3, batch_size=16)

# only 5% of the pool gets labels; the rest feeds stages 1 and 2
r = 0.05

full, baseline = [], []
for seed in (0, 1, 2):
    reports, art = run_pipeline(
        ds, space, scfg, ccfg, PipelineConfig(labeled_ratio=r), seed=seed
    )
    for rep in reports:
        print(f"  seed {seed} [{rep['stage']}] {rep['metrics']}")
    full.append(art["weighted_f1"])

    # same genotype, same seed, no pretraining: the encoder stays random
    _, art_base = run_pipeline(
        ds,
        space,
        scfg,
        ccfg,
        PipelineConfig(labeled_ratio=r, pretrain_epochs=0),
        seed=seed,
        genotype=art["genotype"],
    )
    baseline.append(art_base["weighted_f1"])
    print(f"  seed {seed}: pretrained f1 {full[-1]:.4f}  vs  random encoder {baseline[-1]:.4f}")

print()
print(f"mean weighted F1, pretrained encoder : {np.mean(full):.4f}")
print(f"mean weighted F1, random encoder     : {np.mean(baseline):.4f}")
margin = np.mean(np.array(full) - np.array(baseline))
print(f"mean margin, pretrained - random     : {margin:+.4f}")
