"""Independent oracles shared by the unit and acceptance tests.

Everything here deliberately avoids the library's own computation paths:
finite differences instead of the tape, direct loops instead of the
vectorized metric, explicit enumeration instead of the derivation logic.
"""

import math

import numpy as np


def finite_difference_gradients(f, params: dict, step: float = 1e-5) -> dict:
    """Central differences of a scalar function of named arrays."""
    grads = {}
    for name, base in params.items():
        g = np.zeros_like(base, dtype=np.float64)
        flat = base.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = f(params)
            flat[i] = orig - step
            down = f(params)
            flat[i] = orig
            g.reshape(-1)[i] = (up - down) / (2.0 * step)
        grads[name] = g
    return grads


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Per-coordinate |a - n| / max(1, |a|, |n|), maximized."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(build_scalar, params: dict, tol: float, step: float = 1e-5) -> float:
    """Compare tape gradients of build_scalar(leaves) against finite differences.

    ``build_scalar`` gets a dict of tape leaves and returns a scalar Tensor.
    Returns the worst relative error across all parameters.
    """
    from mmnas.autodiff import Tape

    tape = Tape()
    leaves = {k: tape.leaf(v, k) for k, v in params.items()}
    loss = build_scalar(leaves)
    grads = tape.backward(loss)
    analytic = {k: grads.of(t) for k, t in leaves.items()}

    def scalar_fn(p):
        t2 = Tape()
        l2 = {k: t2.leaf(v, k) for k, v in p.items()}
        return float(build_scalar(l2).data)

    numeric = finite_difference_gradients(scalar_fn, params, step)
    worst = 0.0
    for k in params:
        err = max_rel_err(analytic[k], numeric[k])
        assert err < tol, f"gradient mismatch for {k}: rel err {err:.3e} >= {tol}"
        worst = max(worst, err)
    return worst


def naive_ntxent(z: np.ndarray, tau: float) -> float:
    """Direct, unstabilized two-view contrastive loss (rows paired (2k, 2k+1))."""
    n2 = z.shape[0]
    norms = np.linalg.norm(z, axis=1)
    sims = (z @ z.T) / np.outer(norms, norms)

    def l(i, j):
        denom = 0.0
        for k in range(n2):
            if k != i:
                denom += math.exp(sims[i, k] / tau)
        return -math.log(math.exp(sims[i, j] / tau) / denom)

    total = 0.0
    for k in range(n2 // 2):
        total += l(2 * k, 2 * k + 1) + l(2 * k + 1, 2 * k)
    return total / n2


def bce_oracle(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean binary cross entropy -[t log p + (1 - t) log(1 - p)], p = sigmoid(x).

    One element at a time; each log-probability is written in the form that
    cannot overflow for the element's sign (so x = +-800 stay finite).
    """
    total = 0.0
    for x, t in zip(np.ravel(logits).tolist(), np.ravel(targets).tolist()):
        if x >= 0:
            log_p = -math.log1p(math.exp(-x))
            log_not_p = -x - math.log1p(math.exp(-x))
        else:
            log_p = x - math.log1p(math.exp(x))
            log_not_p = -math.log1p(math.exp(x))
        total += -(t * log_p + (1.0 - t) * log_not_p)
    return total / np.size(logits)


def weighted_f1_oracle(pred: np.ndarray, truth: np.ndarray) -> float:
    """Loop-based confusion-matrix weighted F1."""
    n, num_labels = truth.shape
    scores, supports = [], []
    for label in range(num_labels):
        tp = fp = fn = 0
        for i in range(n):
            p, t = int(pred[i, label]), int(truth[i, label])
            if p == 1 and t == 1:
                tp += 1
            elif p == 1 and t == 0:
                fp += 1
            elif p == 0 and t == 1:
                fn += 1
        support = tp + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        scores.append(f1)
        supports.append(support)
    mass = sum(supports)
    if mass == 0:
        return 0.0
    return sum(f * s for f, s in zip(scores, supports)) / mass


def derive_oracle(arch):
    """Enumerate-and-rank rendering of genotype derivation, written separately.

    Builds candidate rankings with explicit sorts and reproduces the pruning
    and re-indexing rules from first principles. A step is pruned when Zero
    strictly outweighs every other primitive, unless that would empty the
    cell: then the step with the smallest Zero lead (lowest index on ties)
    survives.
    """
    from mmnas.searchspace import (
        PRIMITIVES,
        CellGene,
        Genotype,
        StepGene,
        cell_candidate_names,
        ordered_pairs,
    )

    cfg = arch.config
    zero = PRIMITIVES.index("Zero")
    cells = []
    for c in range(cfg.num_cells):
        names = cell_candidate_names(cfg, c)
        ranked = sorted(enumerate(arch.alpha[c]), key=lambda kv: (-kv[1], kv[0]))
        inputs = (names[ranked[0][0]], names[ranked[1][0]])
        step_weights = []
        zero_lead = []
        for s in range(cfg.steps_per_cell):
            weights = np.exp(arch.gamma[c][s] - arch.gamma[c][s].max())
            weights = weights / weights.sum()
            step_weights.append(weights)
            zero_lead.append(weights[zero] - max(w for i, w in enumerate(weights) if i != zero))
        rescued = None
        if all(lead > 0 for lead in zero_lead):
            rescued = sorted(range(cfg.steps_per_cell), key=lambda s: (zero_lead[s], s))[0]
        kept = []
        index_map = {}
        for s in range(cfg.steps_per_cell):
            weights = step_weights[s]
            if zero_lead[s] > 0 and s != rescued:
                continue
            op_ranked = sorted(
                (i for i in range(len(PRIMITIVES)) if i != zero),
                key=lambda i: (-weights[i], i),
            )
            pairs = ordered_pairs(2 + s)
            ok = []
            for j, (u, v) in enumerate(pairs):
                endpoints_ok = True
                for p in (u, v):
                    if p >= 2 and (p - 2) not in index_map:
                        endpoints_ok = False
                if endpoints_ok:
                    ok.append(j)
            if not ok:
                continue
            ranked_pairs = sorted(ok, key=lambda j: (-arch.beta[c][s][j], j))
            u, v = pairs[ranked_pairs[0]]

            def name_of(p):
                if p == 0:
                    return inputs[0]
                if p == 1:
                    return inputs[1]
                return f"step:{index_map[p - 2]}"

            index_map[s] = len(kept)
            kept.append(StepGene(pair=(name_of(u), name_of(v)), op=PRIMITIVES[op_ranked[0]]))
        cells.append(CellGene(inputs=inputs, steps=tuple(kept)))
    return Genotype(cells=tuple(cells), config_hash=cfg.hash())


def augment_image_layer_oracle(x: np.ndarray, cfg, rng: np.random.Generator) -> np.ndarray:
    """One image layer of one row, augmented op by op in the library's draw order.

    This is the original per-row implementation, kept as the reference for
    the batched ``augment_views``. One condition differs: a blur window
    wider than the vector leaves it unblurred (``np.convolve`` "same" would
    return a vector of the window's length).
    """
    from mmnas.contrastive import ContrastiveError

    if x.size == 0:
        raise ContrastiveError("empty feature vector")
    out = np.array(x, dtype=np.float64)
    d = out.shape[0]
    # gates are drawn unconditionally so the rng stream does not depend on
    # the config, only on the draw order
    if rng.random() < cfg.crop_prob:
        span = int(round(cfg.crop_fraction * d))
        if span > 0:
            start = int(rng.integers(0, d - span + 1))
            out[start : start + span] = 0.0
    if rng.random() < cfg.flip_prob:
        out *= np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    if rng.random() < cfg.jitter_prob:
        chunks = np.array_split(np.arange(d), min(4, d))
        for idx in chunks:
            a = rng.uniform(1.0 - cfg.jitter_scale, 1.0 + cfg.jitter_scale)
            b = rng.normal(0.0, cfg.jitter_scale)
            out[idx] = out[idx] * a + b
    if rng.random() < cfg.blur_prob and 1 < cfg.blur_width <= d:
        kernel = np.full(cfg.blur_width, 1.0 / cfg.blur_width)
        out = np.convolve(out, kernel, mode="same")
    if rng.random() < cfg.rotate_prob and d >= 2:
        theta = rng.uniform(-cfg.rotate_max_angle, cfg.rotate_max_angle)
        c, s = np.cos(theta), np.sin(theta)
        even = out[0 : 2 * (d // 2) : 2].copy()
        odd = out[1 : 2 * (d // 2) : 2].copy()
        out[0 : 2 * (d // 2) : 2] = c * even - s * odd
        out[1 : 2 * (d // 2) : 2] = s * even + c * odd
    if cfg.noise_scale > 0:
        out += rng.normal(0.0, cfg.noise_scale, d)
    return out


def augment_view_oracle(image: list, text: list, seq_len: int, cfg, rng: np.random.Generator):
    """One augmented view of one sample row: (image layers, mask, text layers).

    Image layers draw from ``rng`` first, in layer order, then the
    ``seq_len`` mask positions.
    """
    from mmnas.contrastive import ContrastiveError

    if seq_len < 1:
        raise ContrastiveError("text view requires seq_len >= 1")
    if any(f.size == 0 for f in text):
        raise ContrastiveError("empty feature vector")
    image_view = [augment_image_layer_oracle(x, cfg, rng) for x in image]
    mask = rng.random(seq_len) < cfg.mask_prob
    text_view = [np.array(f, dtype=np.float64) * ~mask[np.arange(f.shape[0]) % seq_len] for f in text]
    return image_view, mask, text_view


def mixed_cell_input_oracle(alpha, candidates):
    """The original per-candidate loop: one scalar-weighted term per candidate.

    Kept as the reference for the fused ``mixed_cell_input``.
    """
    import mmnas.autodiff as ad

    w = ad.softmax(alpha, axis=0)
    out = None
    for i, cand in enumerate(candidates):
        term = ad.mul(cand, w[(i,)])
        out = term if out is None else out + term
    return out


def linear_oracle(x, w, b):
    """The original two-node affine layer, the reference for ``autodiff.linear``."""
    import mmnas.autodiff as ad

    return ad.add(ad.matmul(x, w), b)


def primitive_oracle(op, x, y, params, hidden):
    """The original op chain of each primitive, one tape node per array op.

    Kept as the reference for the fused ``apply_primitive``: attention
    recorded 8 nodes, GLU 4 plus the concat, ConcatFC 3 plus the concat.
    """
    import mmnas.autodiff as ad

    if op == "Sum":
        return ad.add(x, y)
    if op == "Zero":
        return ad.constant(np.zeros(x.shape))
    if op == "ScaledDotAttention":
        q = ad.matmul(x, params["Wq"])
        k = ad.matmul(y, params["Wk"])
        v = ad.matmul(y, params["Wv"])
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(hidden))
        return ad.matmul(ad.softmax(scores, axis=1), v)
    cc = ad.concat([x, y], axis=1)
    if op == "LinearGLU":
        return ad.mul(ad.matmul(cc, params["W1"]), ad.sigmoid(ad.matmul(cc, params["W2"])))
    if op == "ConcatFC":
        return ad.relu(linear_oracle(cc, params["W"], params["b"]))
    raise AssertionError(f"no oracle for primitive {op!r}")


def mixed_step_oracle(beta, gamma, pair_candidates, prim_params, hidden):
    """The original per-pair loop: both slots sum one weighted term per pair,
    and every primitive is its unfused op chain.

    Kept as the reference for the pair-marginal ``mixed_step``.
    """
    import mmnas.autodiff as ad
    from mmnas.searchspace import PRIMITIVES

    wb = ad.softmax(beta, axis=0)
    in0 = None
    in1 = None
    for j, (u, v) in enumerate(pair_candidates):
        wj = wb[(j,)]
        t0 = ad.mul(u, wj)
        t1 = ad.mul(v, wj)
        in0 = t0 if in0 is None else in0 + t0
        in1 = t1 if in1 is None else in1 + t1
    wg = ad.softmax(gamma, axis=0)
    out = None
    for p, op in enumerate(PRIMITIVES):
        term = ad.mul(primitive_oracle(op, in0, in1, prim_params.get(op, {}), hidden), wg[(p,)])
        out = term if out is None else out + term
    return out


def derived_forward_oracle(genotype, weights: dict, features: dict) -> np.ndarray:
    """The derived network in plain numpy: one explicit loop per cell and step.

    ``weights`` uses the derived encoder's names (steps re-indexed after
    pruning) and ``features`` maps source name -> raw array. Primitives
    follow the search space's definitions written out here again.
    """
    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    def primitive(op, prefix, x, y):
        if op == "Sum":
            return x + y
        if op == "ScaledDotAttention":
            q, k, v = x @ weights[prefix + "Wq"], y @ weights[prefix + "Wk"], y @ weights[prefix + "Wv"]
            scores = q @ k.T / math.sqrt(x.shape[1])
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            return (e / e.sum(axis=1, keepdims=True)) @ v
        cc = np.concatenate([x, y], axis=1)
        if op == "LinearGLU":
            return (cc @ weights[prefix + "W1"]) * sigmoid(cc @ weights[prefix + "W2"])
        if op == "ConcatFC":
            return np.maximum(cc @ weights[prefix + "W"] + weights[prefix + "b"], 0.0)
        raise AssertionError(f"no oracle for primitive {op!r}")

    cell_outputs = []
    for c, cell in enumerate(genotype.cells):
        inputs = {}
        for src in cell.inputs:
            if src.startswith("cell:"):
                inputs[src] = cell_outputs[int(src[len("cell:"):])]
            else:
                inputs[src] = features[src] @ weights[f"proj/{src}/W"] + weights[f"proj/{src}/b"]
        step_outputs = []
        for s, step in enumerate(cell.steps):
            operands = []
            for src in step.pair:
                if src.startswith("step:"):
                    operands.append(step_outputs[int(src[len("step:"):])])
                else:
                    operands.append(inputs[src])
            step_outputs.append(primitive(step.op, f"cell{c}/step{s}/{step.op}/", *operands))
        merged = np.concatenate(step_outputs, axis=1)
        cell_outputs.append(merged @ weights[f"cell{c}/out/W"] + weights[f"cell{c}/out/b"])
    return cell_outputs[-1]


def corruptions(blob: bytes, values=(0x00, 0x01, 0x7F, 0x80, 0xFF)):
    """Every proper prefix of ``blob``, then every single-byte replacement
    by each of ``values`` that changes the byte, as (description, bytes)."""
    for end in range(len(blob)):
        yield f"prefix of {end} bytes", blob[:end]
    for pos, orig in enumerate(blob):
        for value in values:
            if value != orig:
                yield f"byte {pos} {orig:#04x} -> {value:#04x}", blob[:pos] + bytes([value]) + blob[pos + 1 :]


def sign_test_p(wins: int, trials: int) -> float:
    """One-sided exact binomial sign test: P(X >= wins | p = 1/2)."""
    return sum(math.comb(trials, k) for k in range(wins, trials + 1)) / 2.0 ** trials


class MomentumSGDOracle:
    """Per-array momentum SGD over a dict of arrays, each stepped in place:
    v <- momentum * v + g;  p <- p - lr * v."""

    def __init__(self, lr: float, momentum: float):
        self.lr, self.momentum, self.velocity = lr, momentum, {}

    def step(self, params: dict, grads: dict) -> None:
        for name, p in params.items():
            v = self.momentum * self.velocity.get(name, np.zeros_like(p)) + grads[name]
            self.velocity[name] = v
            p -= self.lr * v


class AdamOracle:
    """Per-array bias-corrected Adam over a dict of arrays, each stepped in place."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m, self.v, self.t = {}, {}, 0

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name, p in params.items():
            g = grads[name]
            m = self.beta1 * self.m.get(name, np.zeros_like(p)) + (1.0 - self.beta1) * g
            v = self.beta2 * self.v.get(name, np.zeros_like(p)) + (1.0 - self.beta2) * (g * g)
            self.m[name], self.v[name] = m, v
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
