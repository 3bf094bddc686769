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

Each primitive has one implementation, ``apply_primitive``, a kernel on
raw arrays that returns its value and its vector-Jacobian product. For an
upstream gradient G, with cc = concat(x, y):

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

Every node here is recorded by ``autodiff.fused``. The derived encoder
records each step's kernel as one node (``primitive_node``). The search
records each mixed step as one node (``mixed_step``) over its pool (slot A,
slot B, then earlier steps): wb = softmax(beta) over the pool's ordered
pairs, the slot inputs in0 = sum_p c0[p] pool_p and in1 likewise (c =
scatter @ wb, see ``mixed_step``), the shared cc, every primitive's kernel
in ``PRIMITIVES`` order, wg = softmax(gamma) and out = sum_p wg[p] out_p.
Its backward pass is the closed form of that chain, for an upstream
gradient G:

  G_p    = wg[p] G, into each primitive's vjp
  gamma  dwg[p] = <G, out_p>; dgamma = (dwg - <dwg, wg>) * wg
  slots  dcc = dcc_ConcatFC + dcc_LinearGLU;
         din0 = (dx_attention + G_Sum) + dcc[:, :hidden],
         din1 = (dy_attention + G_Sum) + dcc[:, hidden:]
  beta   dwb = S1^T [<din1, pool_p>]_p + S0^T [<din0, pool_p>]_p;
         dbeta = (dwb - <dwb, wb>) * wb
  pool   din1 * c1[p], then din0 * c0[p]: every pool entry on the tape is
         listed twice as an operand, so the tape adds them in that order

The forward pass evaluates the numpy expressions of the generic op chain it
replaces (two scatter ``mix`` nodes, a concat, ``add``, the fused attention
and GLU, ``relu(linear(..))``, a constant zero, softmaxes and the gamma
``mix``) in the same order, and the backward pass adds into each shared
quantity in the order that chain's tape did, so values and gradients are
bitwise unchanged. A gradient nobody reads is not computed: the weights'
in the valid phase, beta's and gamma's in the train phase. Weights and
pool entries off the tape are not operands of the node, so they are read
without a finiteness scan; a non-finite output raises ``NonFiniteError``
naming the first non-finite slot input or primitive output.

Cell input slots: a cell has one alpha vector but two input slots. Slot A
is the plain softmax mixture over candidates; slot B is the same mixture
with the current argmax logit masked to -1e9 (renormalized by the softmax),
so saturating the top-2 logits drives slot A and slot B onto two distinct
sources, matching the derived top-2 genotype. Each slot is one node
(``mixed_cell_input``) with the closed-form backward of the softmax, mask
and ``mix`` nodes it replaces; alpha receives slot B's part first.

Plans: within a search phase one set (weights or logits) is constant, so
``MixedFusionEncoder.plan`` builds once per phase what every batch would
rebuild: per step the scatter matrices of its pool's ordered pairs, its
shape-checked weight arrays (read as ``cell<c>/step<s>/<op>/<param>``, the
names of ``weight_shapes``) and which operands are on the tape; for logits
off the tape (train phase, eval pass) the softmax of each cell slot (slot B
masked), c0 = S0 @ softmax(beta), c1 and softmax(gamma). ``forward`` hands
each part to ``mixed_cell_input`` and ``mixed_step``; called without a
plan, each of the three plans on the spot and runs the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Tensor
from .data import MODALITIES
from .util import canonical_json, flat_views, init_linear, integer, short_hash

PRIMITIVES = ("Sum", "ScaledDotAttention", "LinearGLU", "ConcatFC", "Zero")

_MASK_LOGIT = -1e9

# input gradients of each primitive's vjp: (dx, dy), (dcc,) or none
_VJP_INPUTS = {"Sum": 2, "ScaledDotAttention": 2, "LinearGLU": 1, "ConcatFC": 1, "Zero": 0}


class SpaceError(ValueError):
    """Configuration or wiring inconsistency in the search space."""


class GenotypeError(SpaceError):
    """Genotype fails validation against its configuration."""


@dataclass(frozen=True)
class SearchSpaceConfig:
    """Static shape of the search space.

    The modalities are ``data.MODALITIES``, in that order.
    features_per_modality[m][l] is the raw dimension of backbone layer l of
    modality m; every such feature is linearly projected to ``hidden_dim``
    before entering the fusion model.
    """

    features_per_modality: tuple = ((32, 32), (32, 32))
    num_cells: int = 1
    steps_per_cell: int = 2
    hidden_dim: int = 16

    def __post_init__(self):
        feats = tuple(tuple(integer(d, "layer dim", SpaceError) for d in dims) for dims in self.features_per_modality)
        for name in ("num_cells", "steps_per_cell", "hidden_dim"):
            integer(getattr(self, name), name, SpaceError)
        object.__setattr__(self, "features_per_modality", feats)
        if len(feats) != len(MODALITIES):
            raise SpaceError(
                f"features_per_modality needs one tuple of layer dims per modality {MODALITIES}, got {len(feats)}"
            )
        if self.num_cells < 1 or self.steps_per_cell < 1 or self.hidden_dim < 1:
            raise SpaceError("num_cells, steps_per_cell and hidden_dim must be >= 1")
        for dims in feats:
            if not dims or any(d < 1 for d in dims):
                raise SpaceError("every modality needs at least one layer of positive dim")

    def sources(self) -> list:
        """Backbone feature sources in canonical order, e.g. 'image:0'."""
        out = []
        for name, dims in zip(MODALITIES, self.features_per_modality):
            out.extend(f"{name}:{l}" for l in range(len(dims)))
        return out

    def source_dim(self, source: str) -> int:
        name, _, layer = source.partition(":")
        try:
            m = MODALITIES.index(name)
            return self.features_per_modality[m][int(layer)]
        except (ValueError, IndexError):
            raise SpaceError(f"unknown source {source!r}") from None

    def num_cell_candidates(self, cell: int) -> int:
        return len(self.sources()) + cell

    def to_dict(self) -> dict:
        # the modalities are not a setting, but their key stays: this dict is
        # hashed into every genotype's config_hash, which saved genotypes pin
        return {
            "modality_names": list(MODALITIES),
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
    """k of a "cell:k" / "step:k" reference, written as the encoders look it up."""
    k = src.split(":", 1)[1]
    if not (k.isdecimal() and k == str(int(k))):
        raise GenotypeError(f"{where}: malformed reference {src!r}")
    return int(k)


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


def apply_primitive(op: str, x: np.ndarray, y: np.ndarray, weights: tuple, hidden: int, cc=None):
    """Apply one primitive to raw (batch x hidden) arrays: ``(value, vjp)``.

    ``weights`` is the tuple of the primitive's raw weights in
    ``primitive_param_shapes`` order, as ``_weights_of`` checked them (a
    step plan's, or ``primitive_node``'s). LinearGLU and ConcatFC read
    ``cc = concat([x, y], axis=1)``, built here unless the caller passes it.
    ``vjp(g, need)`` returns, for an upstream gradient ``g``, the gradient
    of each operand: ``(dx, dy)`` for Sum and attention, ``(dcc,)`` for
    LinearGLU and ConcatFC and nothing for Zero, then one per weight in
    ``primitive_param_shapes`` order. It computes only those whose flag in
    ``need`` is set and gives None for the rest.
    """
    if x.shape != y.shape or x.ndim != 2 or x.shape[1] != hidden:
        raise SpaceError(f"{op}: inputs must both be batch x {hidden}, got {x.shape} / {y.shape}")
    if op == "Sum":
        return x + y, _sum_vjp
    if op == "Zero":
        return np.zeros(x.shape), _zero_vjp
    if op == "ScaledDotAttention":
        return _attention(x, y, *weights, hidden)
    if cc is None:
        cc = np.concatenate([x, y], axis=1)
    if op == "LinearGLU":
        return _glu(cc, *weights)
    return _concat_fc(cc, *weights)


def _weights_of(op: str, params: dict, hidden: int) -> tuple:
    """The raw weights of ``op`` (``params`` maps each param name to a tape
    leaf or an array) in ``primitive_param_shapes`` order, shape-checked."""
    weights = []
    for name, shape in primitive_param_shapes(op, hidden).items():
        w = _array(params[name])
        if w.shape != shape:
            raise SpaceError(f"{op}: weight {name} has shape {w.shape}, expected {shape}")
        weights.append(w)
    return tuple(weights)


def _sum_vjp(g, need):
    return tuple(g if n else None for n in need)


def _zero_vjp(g, need):
    return ()


def _attention(x, y, wq, wk, wv, hidden: int):
    q, k, v = x @ wq, y @ wk, y @ wv
    c = float(1.0 / np.sqrt(hidden))
    scores = (q @ k.T.copy()) * c
    e = np.exp(scores - np.max(scores, axis=1, keepdims=True))
    p = e / np.sum(e, axis=1, keepdims=True)

    def vjp(g, need):
        dp = g @ v.T
        ds = (dp - np.sum(dp * p, axis=1, keepdims=True)) * p * c
        dq, dk, dv = ds @ k, ds.T @ q, p.T @ g
        nx, ny, nq, nk, nv = need
        return (
            dq @ wq.T if nx else None,
            dk @ wk.T + dv @ wv.T if ny else None,
            x.T @ dq if nq else None,
            y.T @ dk if nk else None,
            y.T @ dv if nv else None,
        )

    return p @ v, vjp


def _glu(cc, w1, w2):
    a = cc @ w1
    s = ad.stable_sigmoid(cc @ w2)

    def vjp(g, need):
        da, db = g * s, g * a * s * (1.0 - s)
        ncc, n1, n2 = need
        return (
            da @ w1.T + db @ w2.T if ncc else None,
            cc.T @ da if n1 else None,
            cc.T @ db if n2 else None,
        )

    return a * s, vjp


def _concat_fc(cc, w, b):
    z = cc @ w + b
    mask = z > 0.0

    def vjp(g, need):
        gz = g * mask
        ncc, nw, nb = need
        return (gz @ w.T if ncc else None, cc.T @ gz if nw else None, gz.sum(axis=0) if nb else None)

    return z * mask, vjp


def _array(v) -> np.ndarray:
    return v.data if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64)


def primitive_node(op: str, x: Tensor, y: Tensor, params: dict, hidden: int) -> Tensor:
    """``apply_primitive`` recorded as one ``fused`` node, as the derived
    encoder applies a step; ``params`` values are tape leaves or raw arrays."""
    operands = [x, y, *(params[name] for name in primitive_param_shapes(op, hidden))]
    need = tuple(map(_on_tape, operands))
    value, vjp = apply_primitive(op, _array(x), _array(y), _weights_of(op, params, hidden), hidden)
    if op in ("LinearGLU", "ConcatFC"):
        def backward(g):
            dcc, *dw = vjp(g, (need[0] or need[1], *need[2:]))
            return (None, None, *dw) if dcc is None else (dcc[:, :hidden], dcc[:, hidden:], *dw)
    else:
        def backward(g):
            return vjp(g, need)
    return ad.fused(op, operands, value, backward)


# ---------------------------------------------------------------------------
# mixed (continuous) operations
# ---------------------------------------------------------------------------

def _on_tape(v) -> bool:
    return isinstance(v, Tensor) and v.tape is not None


class _SlotPlan:
    """A cell-input slot for one phase: slot A mixes by softmax(alpha), slot
    B by the softmax after masking alpha's argmax; ``w`` is fixed when alpha
    is off the tape."""

    __slots__ = ("alpha", "masked", "need_alpha", "w")

    def __init__(self, alpha, count: int, masked: bool):
        self.alpha, self.masked, self.need_alpha = _array(alpha), masked, _on_tape(alpha)
        if self.alpha.ndim != 1 or self.alpha.shape[0] != count:
            raise SpaceError(f"alpha length {self.alpha.shape} does not match {count} candidates")
        self.w = None if self.need_alpha else self.weights()

    def weights(self) -> np.ndarray:
        logits = self.alpha
        if self.masked:
            mask = np.zeros(logits.shape)
            mask[int(np.argmax(logits))] = _MASK_LOGIT
            logits = logits + mask
        return _softmax_np(logits)


def mixed_cell_input(alpha, candidates: list, plan: _SlotPlan | None = None) -> Tensor:
    """Softmax(alpha)-weighted sum of candidate tensors, as one tape node.

    ``plan`` is a cell slot of ``MixedFusionEncoder.plan``; without one the
    call plans slot A. For slot weights w and upstream gradient G, the
    backward pass gives candidate p ``w[p] G`` and alpha ``(dw - <dw, w>) w``
    with ``dw[p] = <G, cand_p>``, as the softmax and ``mix`` nodes did.
    """
    if plan is None:
        plan = _SlotPlan(alpha, len(candidates), masked=False)
    datas = [_array(t) for t in candidates]
    shape = datas[0].shape
    for d in datas:
        if d.shape != shape:
            raise SpaceError(f"candidate shapes differ: {d.shape} vs {shape}")
    need_alpha = plan.need_alpha
    w = plan.weights() if need_alpha else plan.w
    on = [_on_tape(t) for t in candidates]

    def backward(g):
        dalpha = None
        if need_alpha:
            gw = np.array([np.vdot(g, d) for d in datas])
            dalpha = (gw - np.sum(gw * w, axis=0, keepdims=True)) * w
        return [dalpha, *(g * w[p] if o else None for p, o in enumerate(on))]

    return ad.fused("mixed_cell_input", [alpha, *candidates], ad.weighted_sum(datas, w), backward)


def _scatter(pool_size: int) -> np.ndarray:
    """The (2, P, J) 0/1 matrices of the J ordered pairs of a pool of P
    entries: entry [s, p, j] is 1 iff pair j holds pool entry p in slot s."""
    pairs = ordered_pairs(pool_size)
    scatter = np.zeros((2, pool_size, len(pairs)))
    for j, (u, v) in enumerate(pairs):
        scatter[0, u, j] = 1.0
        scatter[1, v, j] = 1.0
    return scatter


class _StepPlan:
    """A mixed step for one phase: the scatter matrices of the ordered pairs
    of its pool of ``pool_size`` entries, each primitive's shape-checked
    weights (``weights[prefix + "<op>/<param>"]``), the names of those on
    the tape, and ``coef`` (wb, c0, c1) and ``wg`` when beta and gamma are
    off the tape."""

    __slots__ = ("beta", "gamma", "scatter", "need_beta", "need_gamma", "coef", "wg", "weights", "taped", "needs")

    def __init__(self, beta, gamma, pool_size: int, weights: dict, hidden: int, prefix: str = ""):
        self.beta, self.gamma = _array(beta), _array(gamma)
        self.scatter = _scatter(pool_size)
        if self.beta.ndim != 1 or self.beta.shape[0] != self.scatter.shape[2]:
            raise SpaceError("beta length does not match pair candidate count")
        if self.gamma.ndim != 1 or self.gamma.shape[0] != len(PRIMITIVES):
            raise SpaceError("gamma length does not match primitive count")
        self.need_beta, self.need_gamma = _on_tape(beta), _on_tape(gamma)
        self.coef = None if self.need_beta else self.beta_coefficients()
        self.wg = None if self.need_gamma else _softmax_np(self.gamma)
        names = {op: {k: f"{prefix}{op}/{k}" for k in primitive_param_shapes(op, hidden)} for op in PRIMITIVES}
        self.weights = [_weights_of(op, {k: weights[n] for k, n in names[op].items()}, hidden) for op in PRIMITIVES]
        on = {op: tuple(_on_tape(weights[n]) for n in names[op].values()) for op in PRIMITIVES}
        self.taped = [n for op in PRIMITIVES for n, t in zip(names[op].values(), on[op]) if t]
        # per primitive, which vjp gradients a batch needs, by whether it needs the slot inputs'
        self.needs = {b: [(b,) * _VJP_INPUTS[op] + on[op] for op in PRIMITIVES] for b in (False, True)}

    def beta_coefficients(self) -> tuple:
        wb = _softmax_np(self.beta)
        return wb, self.scatter[0] @ wb, self.scatter[1] @ wb


def mixed_step(beta, gamma, pool: list, weights: dict, hidden: int, plan: _StepPlan | None = None) -> Tensor:
    """Beta-mixture per input slot, then gamma-mixture over primitives, as
    one tape node (see the module docstring for its backward pass).

    ``pool`` is the step's candidate pool: slot A, slot B, then earlier
    steps; beta ranges over ``ordered_pairs(len(pool))``. The step reads
    each primitive's weights as ``weights["<op>/<param>"]``. Logits, pool
    entries and weights are tape leaves or plain arrays. A caller that runs
    the step for a whole phase passes its ``plan`` (one step of
    ``MixedFusionEncoder.plan``), built from the same ``weights``, whose
    names then carry the plan's prefix.

    The beta mixture is linear, so it is computed per pool entry rather
    than per pair (the pair-marginal identity): with w = softmax(beta),

      in0 = sum_j w_j pair_j[0] = sum_p (sum_{j: pair_j[0] is pool_p} w_j) pool_p

    and likewise in1 with pair_j[1]. Each slot's coefficients come from a
    0/1 scatter matrix S[p, j] = 1 iff pair j holds pool_p in that slot.
    """
    if plan is None:
        plan = _StepPlan(beta, gamma, len(pool), weights, hidden)
    datas = [_array(t) for t in pool]
    for d in datas:
        if d.shape != datas[0].shape:
            raise SpaceError(f"pool entry shapes differ: {[d.shape for d in datas]}")
    need_beta, need_gamma, scatter = plan.need_beta, plan.need_gamma, plan.scatter
    pool_on = [p for p, t in enumerate(pool) if _on_tape(t)]
    need_in = need_beta or bool(pool_on)

    wb, c0, c1 = plan.beta_coefficients() if need_beta else plan.coef
    in0, in1 = ad.weighted_sum(datas, c0), ad.weighted_sum(datas, c1)
    cc = np.concatenate([in0, in1], axis=1)  # shared by LinearGLU and ConcatFC
    outs, vjps = [], []
    for op, op_weights in zip(PRIMITIVES, plan.weights):
        value, vjp = apply_primitive(op, in0, in1, op_weights, hidden, cc)
        outs.append(value)
        vjps.append(vjp)
    wg = _softmax_np(plan.gamma) if need_gamma else plan.wg
    out = ad.weighted_sum(outs, wg)
    needs = plan.needs[need_in]
    taped_pool = [pool[p] for p in pool_on]
    operands = [beta, gamma, *(weights[n] for n in plan.taped), *taped_pool, *taped_pool]

    def backward(g):
        gsum, att, glu, fc, _ = (
            vjp(g * wg[p], need) if any(need) else (None,) * len(need)
            for p, (vjp, need) in enumerate(zip(vjps, needs))
        )
        grads = [None, None]  # beta's and gamma's
        if need_in:
            dcc = fc[0] + glu[0]
            d_in0 = (att[0] + gsum[0]) + dcc[:, :hidden]
            d_in1 = (att[1] + gsum[1]) + dcc[:, hidden:]
        if need_beta:
            gc0 = np.array([np.vdot(d_in0, d) for d in datas])
            gc1 = np.array([np.vdot(d_in1, d) for d in datas])
            dwb = scatter[1].T @ gc1 + scatter[0].T @ gc0
            grads[0] = (dwb - np.sum(dwb * wb, axis=0, keepdims=True)) * wb
        if need_gamma:
            gc = np.array([np.vdot(g, o) for o in outs])
            grads[1] = (gc - np.sum(gc * wg, axis=0, keepdims=True)) * wg
        grads.extend(dw for dw in (*att[2:], *glu[1:], *fc[1:]) if dw is not None)
        grads.extend(d_in1 * c1[p] for p in pool_on)
        grads.extend(d_in0 * c0[p] for p in pool_on)
        return grads

    try:
        return ad.fused("mixed_step", operands, out, backward)
    except NonFiniteError:
        parts = [("slot input 0", in0), ("slot input 1", in1)]
        parts += [(f"{op} output", o) for op, o in zip(PRIMITIVES, outs)]
        bad = next((name for name, v in parts if not np.isfinite(v).all()), "output")
        raise NonFiniteError(f"mixed_step: non-finite {bad}") from None


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
        with ``self.sources`` or a source -> array map (extras ignored)."""
        if isinstance(features, (list, tuple)):
            if len(features) != len(self.sources):
                raise SpaceError(f"expected {len(self.sources)} feature arrays, got {len(features)}")
            features = dict(zip(self.sources, features))
        projected = {}
        for src in self.sources:
            if src not in features:
                raise SpaceError(f"missing features for source {src!r}")
            projected[src] = ad.linear(features[src], weights[f"proj/{src}/W"], weights[f"proj/{src}/b"])
        return projected

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

    def plan(self, weights: dict, arch: dict) -> list:
        """Per cell, the plans of its two input slots and of its steps, for
        batches that pass ``weights`` and ``arch`` as given here (tape leaves
        or plain operands). A plan holds arrays, never tensors: those batches
        pass the same plain operands, unchanged, and leaves of the same
        arrays (``Tape.leaves`` of the same views, stepped in place).
        """
        cfg = self.config
        cells = []
        for c in range(cfg.num_cells):
            alpha, count = arch[f"alpha/c{c}"], cfg.num_cell_candidates(c)
            steps = [
                _StepPlan(arch[f"beta/c{c}/s{s}"], arch[f"gamma/c{c}/s{s}"], 2 + s, weights, cfg.hidden_dim,
                          f"cell{c}/step{s}/")
                for s in range(cfg.steps_per_cell)
            ]
            cells.append(((_SlotPlan(alpha, count, False), _SlotPlan(alpha, count, True)), steps))
        return cells

    def forward(self, weights: dict, arch: dict, features: list, plan: list | None = None) -> Tensor:
        """weights/arch map names to tape leaves, or raw arrays when frozen;
        ``plan`` is ``self.plan(weights, arch)``, built here when not given."""
        if plan is None:
            plan = self.plan(weights, arch)
        hidden = self.config.hidden_dim
        base = list(self._project(weights, features).values())
        cell_outs = []
        for c, (slots, steps) in enumerate(plan):
            alpha, candidates = arch[f"alpha/c{c}"], base + cell_outs
            pool = [mixed_cell_input(alpha, candidates, slot) for slot in slots]
            for s, step in enumerate(steps):
                pool.append(mixed_step(arch[f"beta/c{c}/s{s}"], arch[f"gamma/c{c}/s{s}"], pool, weights, hidden, step))
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
    non_zero = [i for i in range(len(PRIMITIVES)) if i != zero_idx]
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
        emitted = []  # StepGene list
        pool = list(inputs)  # name of each pool entry: the inputs, then each step's, None if pruned
        for s in range(cfg.steps_per_cell):
            if s in pruned:
                pool.append(None)
                continue
            gw, bw = gws[s], _softmax_np(arch.beta[c][s])
            op_idx = max(non_zero, key=lambda i: (gw[i], -i))
            # the pair of the two inputs is always a candidate
            pairs = [(pool[u], pool[v]) for u, v in ordered_pairs(2 + s)]
            best = max((j for j, pair in enumerate(pairs) if None not in pair), key=lambda j: (bw[j], -j))
            emitted.append(StepGene(pair=pairs[best], op=PRIMITIVES[op_idx]))
            pool.append(f"step:{len(emitted) - 1}")
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

    def forward(self, weights: dict, features) -> Tensor:
        """``features`` maps source name -> raw array (extra sources ignored),
        or is a list aligned with ``self.sources``."""
        env = self._project(weights, features)  # gains "cell:k" -> output of cell k
        hidden = self.config.hidden_dim
        for c, cell in enumerate(self.genotype.cells):
            refs = {src: env[src] for src in cell.inputs}  # gains "step:k" -> output of step k
            for s, step in enumerate(cell.steps):
                x, y = (refs[src] for src in step.pair)
                params = {k: weights[f"cell{c}/step{s}/{step.op}/{k}"] for k in primitive_param_shapes(step.op, hidden)}
                refs[f"step:{s}"] = primitive_node(step.op, x, y, params, hidden)
            env[f"cell:{c}"] = self._cell_output(weights, c, [refs[f"step:{s}"] for s in range(len(cell.steps))])
        return env[f"cell:{len(self.genotype.cells) - 1}"]


def instantiate(genotype: Genotype, config: SearchSpaceConfig) -> DerivedFusionEncoder:
    """Build the pruned fixed network; weights are initialized separately."""
    return DerivedFusionEncoder(genotype, config)
