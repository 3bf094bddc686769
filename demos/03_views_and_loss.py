"""Two-view augmentation and the temperature-scaled contrastive loss.

Run:  python demos/03_views_and_loss.py
"""

import math

import numpy as np

import mmnas.autodiff as ad
from mmnas.contrastive import ContrastiveConfig, augment_views, ntxent_loss
from mmnas.data import SyntheticSpec, generate

ds = generate(SyntheticSpec(num_samples=8, seed=0))
cfg = ContrastiveConfig()
# The dataset is columnar: one n x d matrix per backbone source. Rows 0:1
# of each matrix are sample 0 as a one-row batch.
image = [ds.features[f"image:{l}"][0:1] for l in range(len(ds.image_dims))]
text = [ds.features[f"text:{l}"][0:1] for l in range(len(ds.text_dims))]

rng = np.random.default_rng(7)
view_i = augment_views(image, text, ds.text_len, cfg, rng)
view_j = augment_views(image, text, ds.text_len, cfg, rng)
print("image layer 0, original    :", np.round(image[0][0, :8], 2))
print("image layer 0, view i      :", np.round(view_i[0][0][0, :8], 2))
print("image layer 0, view j      :", np.round(view_j[0][0][0, :8], 2))
masked = np.flatnonzero(view_i[1][0])
print(f"text view i masks {len(masked)}/{ds.text_len} positions {masked.tolist()} (p={cfg.mask_prob})")

# Same seed, same view: augmentation is pure in (rows, rng state).
again = augment_views(image, text, ds.text_len, cfg, np.random.default_rng(7))
print("replay identical:", all((a == b).all() for a, b in zip(view_i[0], again[0])))

# The loss takes 2N projection rows ordered pairwise. With one pair the
# denominator holds only the positive term, so the loss is exactly zero.
z1 = np.random.default_rng(0).standard_normal((2, 16))
print("loss with N=1:", float(ntxent_loss(ad.constant(z1), cfg.temperature).data))

# The classic hand value: two pairs, identical within, orthogonal across,
# temperature 1 -> ln(1 + 2/e).
z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
val = float(ntxent_loss(ad.constant(z), 1.0).data)
print(f"two orthogonal pairs: {val:.6f}  (ln(1 + 2/e) = {math.log(1 + 2 / math.e):.6f})")

# Cosine similarity makes the loss scale-free.
zr = np.random.default_rng(1).standard_normal((12, 8))
a = float(ntxent_loss(ad.constant(zr), 0.1).data)
b = float(ntxent_loss(ad.constant(zr * 100.0), 0.1).data)
print("scale invariance |diff|:", abs(a - b))
