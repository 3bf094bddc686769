"""Continuous and discrete forms of the searchable multimodal fusion model.

The fusion model sits on top of frozen per-modality backbone features. Its
architecture is controlled by three families of logits:

  alpha  per fusion cell, over that cell's candidate inputs (every backbone
         feature plus the outputs of earlier cells);
  beta   per inner step, over ordered candidate input pairs drawn from the
         cell's two input slots and earlier steps;
  gamma  per inner step, over the primitive operator set.

During search every choice is a softmax-weighted mixture, so the whole
network is differentiable in (alpha, beta, gamma) and in the operator
weights. ``derive_genotype`` discretizes the logits into a ``Genotype``,
and ``instantiate`` builds the pruned network with fresh weights.

Both encoders build on ``_FusionEncoder``: weight shapes and init, source
projections, step weights and cell outputs. ``MixedFusionEncoder`` selects
every source and primitive and wires them through softmax mixtures;
``DerivedFusionEncoder`` selects what its genotype names.

Primitive operators (two ``batch x hidden`` inputs -> one ``batch x hidden``
output):

  Sum                 x + y
  ScaledDotAttention  softmax(x Wq (y Wk)^T / sqrt(hidden)) (y Wv), rows of
                      the batch attending over the batch's keys
  LinearGLU           (concat(x, y) W1) * sigmoid(concat(x, y) W2)
  ConcatFC            relu(concat(x, y) W + b)
  Zero                exact zeros, no weights

Given cc = concat(x, y), which ``mixed_step`` builds once for both
primitives that read it, Sum records one ``add`` node, Zero none, ConcatFC
two (``relu(linear(cc, W, b))``), and attention and GLU one ``fused`` node
each. Their gradients, for an upstream gradient G:

  Sum                 dx = dy = G
  ConcatFC            dZ = G * (cc W + b > 0); dcc = dZ W^T, dW = cc^T dZ,
                      db = column sums of dZ
  Zero                none (a constant)
  ScaledDotAttention  q = x Wq, k = y Wk, v = y Wv, c = 1/sqrt(hidden),
                      P = softmax(c q k^T) row-wise, out = P v;
                      dP = G v^T, dS = c (dP - rowsum(dP * P)) * P,
                      dq = dS k, dk = dS^T q, dv = P^T G;
                      dx = dq Wq^T, dy = dk Wk^T + dv Wv^T,
                      dWq = x^T dq, dWk = y^T dk, dWv = y^T dv
  LinearGLU           a = cc W1, s = sigmoid(cc W2), out = a * s;
                      da = G * s, db = G * a * s * (1 - s);
                      dcc = da W1^T + db W2^T, dW1 = cc^T da, dW2 = cc^T db

The fused attention and GLU nodes evaluate the same numpy expressions in
the same order as their unfused op chains did, so their values are
bitwise unchanged; their backward passes are the closed forms above.

Cell input slots: a cell has one alpha vector but two input slots. Slot A
is the plain softmax mixture over candidates; slot B is the same mixture
with the current argmax logit masked to -1e9 (renormalized by the softmax),
so saturating the top-2 logits drives slot A and slot B onto two distinct
sources, matching the derived top-2 genotype.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .util import canonical_json, flat_views, init_linear, short_hash

PRIMITIVES = ("Sum", "ScaledDotAttention", "LinearGLU", "ConcatFC", "Zero")

_MASK_LOGIT = -1e9


class SpaceError(ValueError):
    """Configuration or wiring inconsistency in the search space."""


class GenotypeError(SpaceError):
    """Genotype fails validation against its configuration."""


@dataclass(frozen=True)
class SearchSpaceConfig:
    """Static shape of the search space.

    features_per_modality[m][l] is the raw dimension of backbone layer l of
    modality m; every such feature is linearly projected to ``hidden_dim``
    before entering the fusion model.
    """

    modality_names: tuple = ("image", "text")
    features_per_modality: tuple = ((32, 32), (32, 32))
    num_cells: int = 1
    steps_per_cell: int = 2
    hidden_dim: int = 16

    def __post_init__(self):
        names = tuple(self.modality_names)
        feats = tuple(tuple(int(d) for d in layer_dims) for layer_dims in self.features_per_modality)
        object.__setattr__(self, "modality_names", names)
        object.__setattr__(self, "features_per_modality", feats)
        if len(names) != len(feats) or not names:
            raise SpaceError("modality_names and features_per_modality must align and be non-empty")
        if len(set(names)) != len(names) or any(":" in n for n in names):
            raise SpaceError("modality names must be unique and colon-free")
        reserved = [n for n in names if n in ("cell", "step")]
        if reserved:
            raise SpaceError(f"modality name {reserved[0]!r} is reserved: genotypes use 'cell:k' and 'step:k'")
        if self.num_cells < 1 or self.steps_per_cell < 1 or self.hidden_dim < 1:
            raise SpaceError("num_cells, steps_per_cell and hidden_dim must be >= 1")
        for dims in feats:
            if not dims or any(d < 1 for d in dims):
                raise SpaceError("every modality needs at least one layer of positive dim")
        if sum(len(d) for d in feats) < 2:
            raise SpaceError("need at least two backbone feature sources (cells take two inputs)")

    @property
    def num_modalities(self) -> int:
        return len(self.modality_names)

    def sources(self) -> list:
        """Backbone feature sources in canonical order, e.g. 'image:0'."""
        out = []
        for name, dims in zip(self.modality_names, self.features_per_modality):
            out.extend(f"{name}:{l}" for l in range(len(dims)))
        return out

    def source_dim(self, source: str) -> int:
        name, _, layer = source.partition(":")
        try:
            m = self.modality_names.index(name)
            return self.features_per_modality[m][int(layer)]
        except (ValueError, IndexError):
            raise SpaceError(f"unknown source {source!r}") from None

    def num_cell_candidates(self, cell: int) -> int:
        return len(self.sources()) + cell

    def to_dict(self) -> dict:
        return {
            "modality_names": list(self.modality_names),
            "features_per_modality": [list(d) for d in self.features_per_modality],
            "num_cells": self.num_cells,
            "steps_per_cell": self.steps_per_cell,
            "hidden_dim": self.hidden_dim,
        }

    def hash(self) -> str:
        return short_hash(self.to_dict())


def ordered_pairs(pool_size: int) -> list:
    """Lexicographic ordered pairs (i, j), i != j, over a candidate pool."""
    return [(i, j) for i in range(pool_size) for j in range(pool_size) if i != j]


def cell_candidate_names(config: SearchSpaceConfig, cell: int) -> list:
    return config.sources() + [f"cell:{k}" for k in range(cell)]


@dataclass
class ArchParams:
    """The continuous architecture: one logit vector per softmax choice.

    alpha[c] has length num_cell_candidates(c); beta[c][s] ranges over the
    ordered pairs of the step's pool (slot A, slot B, earlier steps);
    gamma[c][s] ranges over PRIMITIVES.

    Construction validates the logits and copies them into one owned
    vector, ``flat``, in the order of ``named()``; the alpha, beta and gamma
    lists then hold views of it. So an in-place write to a logit vector is
    a write to ``flat`` and the other way round, the architecture optimizer
    steps ``flat`` whole, and ``copy()`` owns a vector of its own.
    """

    config: SearchSpaceConfig
    alpha: list = field(default_factory=list)
    beta: list = field(default_factory=list)
    gamma: list = field(default_factory=list)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.validate()
        self.flat, views = flat_views(self.named())
        cells, steps = range(self.config.num_cells), range(self.config.steps_per_cell)
        self.alpha = [views[f"alpha/c{c}"] for c in cells]
        self.beta = [[views[f"beta/c{c}/s{s}"] for s in steps] for c in cells]
        self.gamma = [[views[f"gamma/c{c}/s{s}"] for s in steps] for c in cells]

    @classmethod
    def init(cls, config: SearchSpaceConfig, rng: np.random.Generator, scale: float = 1e-3):
        """Noisy alpha/beta logits (seed diversity); gamma starts at exact
        zero so Zero cannot out-prune real primitives by init noise alone."""
        alpha, beta, gamma = [], [], []
        for c in range(config.num_cells):
            alpha.append(scale * rng.standard_normal(config.num_cell_candidates(c)))
            bs, gs = [], []
            for s in range(config.steps_per_cell):
                bs.append(scale * rng.standard_normal(len(ordered_pairs(2 + s))))
                gs.append(np.zeros(len(PRIMITIVES)))
            beta.append(bs)
            gamma.append(gs)
        return cls(config, alpha, beta, gamma)

    def validate(self) -> None:
        cfg = self.config
        if len(self.alpha) != cfg.num_cells:
            raise SpaceError("alpha count != num_cells")
        for c in range(cfg.num_cells):
            if self.alpha[c].shape != (cfg.num_cell_candidates(c),):
                raise SpaceError(f"alpha[{c}] has wrong length")
            if len(self.beta[c]) != cfg.steps_per_cell or len(self.gamma[c]) != cfg.steps_per_cell:
                raise SpaceError(f"cell {c}: beta/gamma step counts wrong")
            for s in range(cfg.steps_per_cell):
                if self.beta[c][s].shape != (len(ordered_pairs(2 + s)),):
                    raise SpaceError(f"beta[{c}][{s}] has wrong length")
                if self.gamma[c][s].shape != (len(PRIMITIVES),):
                    raise SpaceError(f"gamma[{c}][{s}] has wrong length")

    def named(self) -> dict:
        """name -> logit vector, each a view of ``flat`` (in ``flat``'s order)."""
        out = {}
        for c in range(self.config.num_cells):
            out[f"alpha/c{c}"] = self.alpha[c]
            for s in range(self.config.steps_per_cell):
                out[f"beta/c{c}/s{s}"] = self.beta[c][s]
                out[f"gamma/c{c}/s{s}"] = self.gamma[c][s]
        return out

    def copy(self) -> "ArchParams":
        return ArchParams(self.config, self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class StepGene:
    pair: tuple  # two source strings from {cell inputs} | {"step:k"}
    op: str


@dataclass(frozen=True)
class CellGene:
    inputs: tuple  # two distinct source strings
    steps: tuple   # StepGene, re-indexed after pruning


@dataclass(frozen=True)
class Genotype:
    """Discretized architecture plus the hash of the config it came from."""

    cells: tuple
    config_hash: str

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "cells": [
                {
                    "inputs": list(cell.inputs),
                    "steps": [{"pair": list(s.pair), "op": s.op} for s in cell.steps],
                }
                for cell in self.cells
            ],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "Genotype":
        try:
            cells = tuple(
                CellGene(
                    inputs=_names(c["inputs"]),
                    steps=tuple(StepGene(pair=_names(s["pair"]), op=_names([s["op"]])[0]) for s in c["steps"]),
                )
                for c in d["cells"]
            )
            return cls(cells=cells, config_hash=str(d["config_hash"]))
        except (KeyError, TypeError) as e:
            raise GenotypeError(f"malformed genotype document: {e}") from e

    @classmethod
    def from_json(cls, text: str) -> "Genotype":
        import json

        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as e:
            raise GenotypeError(f"genotype document is not valid JSON: {e}") from e

    def hash(self) -> str:
        return short_hash(self.to_dict())


def _names(values) -> tuple:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise TypeError(f"expected a list of source or op names, got {values!r}")
    return tuple(values)


def _ref_index(src: str, where: str) -> int:
    """k of a "cell:k" / "step:k" reference."""
    try:
        return int(src.split(":", 1)[1])
    except ValueError:
        raise GenotypeError(f"{where}: malformed reference {src!r}") from None


def validate_genotype(genotype: Genotype, config: SearchSpaceConfig) -> None:
    if genotype.config_hash != config.hash():
        raise GenotypeError(
            f"genotype was derived for config {genotype.config_hash}, not {config.hash()}"
        )
    sources = set(config.sources())
    if len(genotype.cells) != config.num_cells:
        raise GenotypeError("cell count does not match config")
    for c, cell in enumerate(genotype.cells):
        if len(cell.inputs) != 2 or cell.inputs[0] == cell.inputs[1]:
            raise GenotypeError(f"cell {c}: needs two distinct inputs")
        for src in cell.inputs:
            if src.startswith("cell:"):
                k = _ref_index(src, f"cell {c}")
                if not 0 <= k < c:
                    raise GenotypeError(f"cell {c}: input {src} is not an earlier cell")
            elif src not in sources:
                raise GenotypeError(f"cell {c}: unknown input source {src!r}")
        if not cell.steps:
            raise GenotypeError(f"cell {c}: all steps pruned, nothing to instantiate")
        if len(cell.steps) > config.steps_per_cell:
            raise GenotypeError(f"cell {c}: more steps than the config allows")
        for s, step in enumerate(cell.steps):
            if step.op not in PRIMITIVES or step.op == "Zero":
                raise GenotypeError(f"cell {c} step {s}: bad primitive {step.op!r}")
            if len(step.pair) != 2 or step.pair[0] == step.pair[1]:
                raise GenotypeError(f"cell {c} step {s}: needs two distinct pair sources")
            for src in step.pair:
                if src.startswith("step:"):
                    j = _ref_index(src, f"cell {c} step {s}")
                    if not 0 <= j < s:
                        raise GenotypeError(f"cell {c} step {s}: {src} is not an earlier step")
                elif src not in cell.inputs:
                    raise GenotypeError(f"cell {c} step {s}: {src!r} is not a cell input")


# ---------------------------------------------------------------------------
# primitive operators
# ---------------------------------------------------------------------------

def primitive_param_shapes(op: str, hidden: int) -> dict:
    if op == "ScaledDotAttention":
        return {"Wq": (hidden, hidden), "Wk": (hidden, hidden), "Wv": (hidden, hidden)}
    if op == "LinearGLU":
        return {"W1": (2 * hidden, hidden), "W2": (2 * hidden, hidden)}
    if op == "ConcatFC":
        return {"W": (2 * hidden, hidden), "b": (hidden,)}
    if op in ("Sum", "Zero"):
        return {}
    raise SpaceError(f"unknown primitive {op!r}")


def apply_primitive(op: str, x: Tensor, y: Tensor, params: dict, hidden: int, cc: Tensor | None = None) -> Tensor:
    """Apply one primitive to (batch x hidden) inputs; see module docstring.

    ``cc`` is ``concat([x, y], axis=1)`` when the caller already built it.
    ``params`` values are tape leaves or raw arrays.
    """
    if x.shape != y.shape or x.data.ndim != 2 or x.shape[1] != hidden:
        raise SpaceError(f"{op}: inputs must both be batch x {hidden}, got {x.shape} / {y.shape}")
    if op == "Sum":
        return x + y
    if op == "Zero":
        return ad.constant(np.zeros(x.shape))
    weights = []
    for name, shape in primitive_param_shapes(op, hidden).items():
        w = params[name]
        if w.shape != shape:
            raise SpaceError(f"{op}: weight {name} has shape {w.shape}, expected {shape}")
        weights.append(w)
    if op == "ScaledDotAttention":
        return _attention(x, y, *weights, hidden)
    if cc is None:
        cc = ad.concat([x, y], axis=1)
    if op == "LinearGLU":
        return _glu(cc, *weights)
    return ad.relu(ad.linear(cc, *weights))


def _array(w) -> np.ndarray:
    return w.data if isinstance(w, Tensor) else w


def _attention(x: Tensor, y: Tensor, wq, wk, wv, hidden: int) -> Tensor:
    xd, yd = x.data, y.data
    mq, mk, mv = _array(wq), _array(wk), _array(wv)
    q, k, v = xd @ mq, yd @ mk, yd @ mv
    c = float(1.0 / np.sqrt(hidden))
    scores = (q @ k.T.copy()) * c
    e = np.exp(scores - np.max(scores, axis=1, keepdims=True))
    p = e / np.sum(e, axis=1, keepdims=True)

    def backward(g):
        dp = g @ v.T
        ds = (dp - np.sum(dp * p, axis=1, keepdims=True)) * p * c
        dq, dk, dv = ds @ k, ds.T @ q, p.T @ g
        return dq @ mq.T, dk @ mk.T + dv @ mv.T, xd.T @ dq, yd.T @ dk, yd.T @ dv

    return ad.fused("ScaledDotAttention", [x, y, wq, wk, wv], p @ v, backward)


def _glu(cc: Tensor, w1, w2) -> Tensor:
    cd = cc.data
    m1, m2 = _array(w1), _array(w2)
    a = cd @ m1
    s = ad.stable_sigmoid(cd @ m2)

    def backward(g):
        da, db = g * s, g * a * s * (1.0 - s)
        return da @ m1.T + db @ m2.T, cd.T @ da, cd.T @ db

    return ad.fused("LinearGLU", [cc, w1, w2], a * s, backward)


# ---------------------------------------------------------------------------
# mixed (continuous) operations
# ---------------------------------------------------------------------------

def mixed_cell_input(alpha: Tensor, candidates: list) -> Tensor:
    """Softmax(alpha)-weighted sum of candidate tensors."""
    if alpha.data.ndim != 1 or len(candidates) != alpha.data.shape[0]:
        raise SpaceError(
            f"alpha length {alpha.data.shape} does not match {len(candidates)} candidates"
        )
    shape = candidates[0].shape
    for cand in candidates:
        if cand.shape != shape:
            raise SpaceError(f"candidate shapes differ: {cand.shape} vs {shape}")
    return ad.mix(ad.softmax(alpha, axis=0), candidates)


def mixed_step(beta: Tensor, gamma: Tensor, pair_candidates: list, prim_params: dict, hidden: int) -> Tensor:
    """Beta-mixture per input slot, then gamma-mixture over primitives.

    ``pair_candidates`` is the ordered-pair list over the step's pool;
    ``prim_params`` maps primitive name -> {param name -> Tensor leaf}.

    The beta mixture is linear, so it is computed per pool entry rather
    than per pair (the pair-marginal identity): with w = softmax(beta),

      in0 = sum_j w_j pair_j[0] = sum_p (sum_{j: pair_j[0] is pool_p} w_j) pool_p

    and likewise in1 with pair_j[1]. The pool is recovered from the pairs
    by identity, in first-seen order, and each slot is one ``mix`` with a
    0/1 scatter matrix S[p, j] = 1 iff pair j holds pool_p in that slot.
    """
    if beta.data.ndim != 1 or len(pair_candidates) != beta.data.shape[0]:
        raise SpaceError("beta length does not match pair candidate count")
    if gamma.data.ndim != 1 or gamma.data.shape[0] != len(PRIMITIVES):
        raise SpaceError("gamma length does not match primitive count")
    pool, index = [], {}
    for pair in pair_candidates:
        for t in pair:
            if id(t) not in index:
                index[id(t)] = len(pool)
                pool.append(t)
    scatter = np.zeros((2, len(pool), len(pair_candidates)))
    for j, (u, v) in enumerate(pair_candidates):
        scatter[0, index[id(u)], j] = 1.0
        scatter[1, index[id(v)], j] = 1.0
    wb = ad.softmax(beta, axis=0)
    in0 = ad.mix(wb, pool, scatter[0])
    in1 = ad.mix(wb, pool, scatter[1])
    cc = ad.concat([in0, in1], axis=1)  # shared by LinearGLU and ConcatFC
    outs = [apply_primitive(op, in0, in1, prim_params.get(op, {}), hidden, cc) for op in PRIMITIVES]
    return ad.mix(ad.softmax(gamma, axis=0), outs)


class _FusionEncoder:
    """The builders both encoders share; a subclass says only what it selects.

    ``sources`` are the backbone sources that get a projection, in
    canonical order; ``cell_ops[c][s]`` names the primitives whose weights
    step s of cell c holds. Weight names run projections first, then per
    cell each step's primitive weights and the cell-output layer, and
    ``init_weights`` draws in that order.
    """

    def __init__(self, config: SearchSpaceConfig, sources: list, cell_ops: list):
        self.config = config
        self.sources = sources
        self.cell_ops = cell_ops

    def weight_shapes(self) -> dict:
        cfg = self.config
        h = cfg.hidden_dim
        shapes = {}
        for src in self.sources:
            shapes[f"proj/{src}/W"] = (cfg.source_dim(src), h)
            shapes[f"proj/{src}/b"] = (h,)
        for c, step_ops in enumerate(self.cell_ops):
            for s, ops in enumerate(step_ops):
                for op in ops:
                    for pname, pshape in primitive_param_shapes(op, h).items():
                        shapes[f"cell{c}/step{s}/{op}/{pname}"] = pshape
            shapes[f"cell{c}/out/W"] = (len(step_ops) * h, h)
            shapes[f"cell{c}/out/b"] = (h,)
        return shapes

    def init_weights(self, rng: np.random.Generator) -> dict:
        return init_linear(rng, self.weight_shapes())

    def _project(self, weights: dict, features) -> dict:
        """Source name -> projected tensor; ``features`` is a list aligned
        with ``config.sources()`` or a source -> array map (extras ignored)."""
        if isinstance(features, (list, tuple)):
            srcs = self.config.sources()
            if len(features) != len(srcs):
                raise SpaceError(f"expected {len(srcs)} feature arrays, got {len(features)}")
            features = dict(zip(srcs, features))
        projected = {}
        for src in self.sources:
            if src not in features:
                raise SpaceError(f"missing features for source {src!r}")
            projected[src] = ad.linear(features[src], weights[f"proj/{src}/W"], weights[f"proj/{src}/b"])
        return projected

    def _step_params(self, weights: dict, c: int, s: int) -> dict:
        """Primitive name -> {param name -> weight} for step s of cell c."""
        return {
            op: {
                pname: weights[f"cell{c}/step{s}/{op}/{pname}"]
                for pname in primitive_param_shapes(op, self.config.hidden_dim)
            }
            for op in self.cell_ops[c][s]
        }

    def _cell_output(self, weights: dict, c: int, step_outs: list) -> Tensor:
        merged = ad.concat(step_outs, axis=1) if len(step_outs) > 1 else step_outs[0]
        return ad.linear(merged, weights[f"cell{c}/out/W"], weights[f"cell{c}/out/b"])


class MixedFusionEncoder(_FusionEncoder):
    """The search-phase encoder: projections + softmax-mixed fusion cells.

    Every source is projected and every step holds every primitive.
    ``forward`` consumes one raw feature array per backbone source (aligned
    with ``config.sources()``) and returns the fused representation
    (batch x hidden_dim), the output of the last cell.
    """

    def __init__(self, config: SearchSpaceConfig):
        super().__init__(config, config.sources(), [[PRIMITIVES] * config.steps_per_cell] * config.num_cells)

    def forward(self, weights: dict, arch: dict, features: list) -> Tensor:
        """weights/arch map names to tape leaves, or raw arrays when frozen."""
        cfg = self.config
        base = list(self._project(weights, features).values())
        cell_outs = []
        for c in range(cfg.num_cells):
            candidates = base + cell_outs
            alpha = arch[f"alpha/c{c}"]
            if not isinstance(alpha, Tensor):
                alpha = ad.constant(alpha)
            slot_a = mixed_cell_input(alpha, candidates)
            mask = np.zeros(alpha.data.shape)
            mask[int(np.argmax(alpha.data))] = _MASK_LOGIT
            slot_b = mixed_cell_input(ad.add(alpha, ad.constant(mask)), candidates)
            pool = [slot_a, slot_b]
            for s in range(cfg.steps_per_cell):
                pairs = [(pool[i], pool[j]) for i, j in ordered_pairs(len(pool))]
                pool.append(mixed_step(
                    arch[f"beta/c{c}/s{s}"], arch[f"gamma/c{c}/s{s}"], pairs,
                    self._step_params(weights, c, s), cfg.hidden_dim,
                ))
            cell_outs.append(self._cell_output(weights, c, pool[2:]))
        return cell_outs[-1]


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def derive_genotype(arch: ArchParams) -> Genotype:
    """Discretize logits: top-2 cell inputs, top-1 pair, argmax primitive.

    Zero is excluded from the primitive argmax unless its softmax weight
    strictly exceeds every other primitive's, in which case the step is
    pruned, except that a cell never loses its last step: when Zero wins
    every step of a cell, the step it wins by the smallest margin stays.
    Pairs whose endpoints reference pruned steps are skipped. Ties always
    resolve to the lowest candidate index. Surviving steps are re-indexed
    densely in the emitted genotype.
    """
    arch.validate()
    cfg = arch.config
    zero_idx = PRIMITIVES.index("Zero")
    cells = []
    for c in range(cfg.num_cells):
        names = cell_candidate_names(cfg, c)
        order = sorted(range(len(names)), key=lambda i: (-arch.alpha[c][i], i))
        top1, top2 = order[0], order[1]
        inputs = (names[top1], names[top2])

        gws = [_softmax_np(g) for g in arch.gamma[c]]
        margins = [gw[zero_idx] - np.delete(gw, zero_idx).max() for gw in gws]
        pruned = {s for s, m in enumerate(margins) if m > 0}
        if len(pruned) == cfg.steps_per_cell:
            pruned.remove(min(pruned, key=lambda s: (margins[s], s)))
        emitted = []          # StepGene list
        emitted_index = {}    # original step idx -> emitted idx
        for s in range(cfg.steps_per_cell):
            if s in pruned:
                continue
            gw = gws[s]
            non_zero = [i for i in range(len(PRIMITIVES)) if i != zero_idx]
            op_idx = max(non_zero, key=lambda i: (gw[i], -i))
            # pool: 0 = input A, 1 = input B, 2+k = original step k
            pairs = ordered_pairs(2 + s)
            bw = _softmax_np(arch.beta[c][s])

            def pair_valid(pair):
                return all(p < 2 or (p - 2) in emitted_index for p in pair)

            valid = [j for j, pair in enumerate(pairs) if pair_valid(pair)]
            if not valid:
                continue  # every candidate pair references pruned steps
            best = max(valid, key=lambda j: (bw[j], -j))

            def pool_name(p):
                if p == 0:
                    return inputs[0]
                if p == 1:
                    return inputs[1]
                return f"step:{emitted_index[p - 2]}"

            emitted_index[s] = len(emitted)
            emitted.append(StepGene(pair=(pool_name(pairs[best][0]), pool_name(pairs[best][1])), op=PRIMITIVES[op_idx]))
        cells.append(CellGene(inputs=inputs, steps=tuple(emitted)))
    return Genotype(cells=tuple(cells), config_hash=cfg.hash())


def _softmax_np(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max())
    return e / e.sum()


def saturate_toward(genotype: Genotype, config: SearchSpaceConfig, margin: float = 60.0) -> ArchParams:
    """ArchParams whose softmaxes concentrate on the genotype's choices.

    Only meaningful for genotypes without pruned steps (every cell has
    exactly steps_per_cell steps).
    """
    validate_genotype(genotype, config)
    arch = ArchParams.init(config, np.random.default_rng(0), scale=0.0)
    for c, cell in enumerate(genotype.cells):
        if len(cell.steps) != config.steps_per_cell:
            raise GenotypeError("saturation needs a genotype with no pruned steps")
        names = cell_candidate_names(config, c)
        arch.alpha[c][names.index(cell.inputs[0])] = 2.0 * margin
        arch.alpha[c][names.index(cell.inputs[1])] = margin
        for s, step in enumerate(cell.steps):
            pool = {cell.inputs[0]: 0, cell.inputs[1]: 1}
            pool.update({f"step:{j}": 2 + j for j in range(s)})
            pair_idx = ordered_pairs(2 + s).index((pool[step.pair[0]], pool[step.pair[1]]))
            arch.beta[c][s][pair_idx] = margin
            arch.gamma[c][s][PRIMITIVES.index(step.op)] = margin
    return arch


def random_genotype(config: SearchSpaceConfig, rng: np.random.Generator) -> Genotype:
    """Uniformly random valid genotype with no pruned steps."""
    cells = []
    for c in range(config.num_cells):
        names = cell_candidate_names(config, c)
        i, j = rng.choice(len(names), size=2, replace=False)
        inputs = (names[int(i)], names[int(j)])
        steps = []
        for s in range(config.steps_per_cell):
            pool = [inputs[0], inputs[1]] + [f"step:{k}" for k in range(s)]
            pairs = ordered_pairs(len(pool))
            u, v = pairs[int(rng.integers(len(pairs)))]
            op = PRIMITIVES[int(rng.integers(len(PRIMITIVES) - 1))]  # exclude Zero
            steps.append(StepGene(pair=(pool[u], pool[v]), op=op))
        cells.append(CellGene(inputs=inputs, steps=tuple(steps)))
    return Genotype(cells=tuple(cells), config_hash=config.hash())


class DerivedFusionEncoder(_FusionEncoder):
    """Fixed network instantiated from a genotype; only retained edges exist.

    Only the sources that some cell reads are projected, and each step
    holds the weights of its one primitive.
    """

    def __init__(self, genotype: Genotype, config: SearchSpaceConfig):
        validate_genotype(genotype, config)
        self.genotype = genotype
        used = {src for cell in genotype.cells for src in cell.inputs if not src.startswith("cell:")}
        super().__init__(
            config,
            [s for s in config.sources() if s in used],
            [[(step.op,) for step in cell.steps] for cell in genotype.cells],
        )

    def used_sources(self) -> list:
        return list(self.sources)

    def forward(self, weights: dict, features) -> Tensor:
        """``features`` maps source name -> raw array (extra sources ignored)."""
        env = self._project(weights, features)  # gains "cell:k" -> output of cell k
        for c, cell in enumerate(self.genotype.cells):
            refs = {src: env[src] for src in cell.inputs}  # gains "step:k" -> output of step k
            for s, step in enumerate(cell.steps):
                x, y = (refs[src] for src in step.pair)
                params = self._step_params(weights, c, s)[step.op]
                refs[f"step:{s}"] = apply_primitive(step.op, x, y, params, self.config.hidden_dim)
            env[f"cell:{c}"] = self._cell_output(weights, c, [refs[f"step:{s}"] for s in range(len(cell.steps))])
        return env[f"cell:{len(self.genotype.cells) - 1}"]


def instantiate(genotype: Genotype, config: SearchSpaceConfig) -> DerivedFusionEncoder:
    """Build the pruned fixed network; weights are initialized separately."""
    return DerivedFusionEncoder(genotype, config)
