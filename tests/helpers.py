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

    Kept as the reference for the kernels of ``apply_primitive``: attention
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


def mixed_step_oracle(beta, gamma, pool, weights, hidden):
    """The original per-pair loop: both slots sum one weighted term per
    ordered pair of ``pool`` (lexicographic, i != j), and every primitive is
    its unfused op chain over ``weights["<op>/<param>"]``.

    Kept as the reference for the pair-marginal ``mixed_step``.
    """
    import mmnas.autodiff as ad
    from mmnas.searchspace import PRIMITIVES

    pairs = [(pool[i], pool[j]) for i in range(len(pool)) for j in range(len(pool)) if i != j]
    wb = ad.softmax(beta, axis=0)
    in0 = None
    in1 = None
    for j, (u, v) in enumerate(pairs):
        wj = wb[(j,)]
        t0 = ad.mul(u, wj)
        t1 = ad.mul(v, wj)
        in0 = t0 if in0 is None else in0 + t0
        in1 = t1 if in1 is None else in1 + t1
    wg = ad.softmax(gamma, axis=0)
    out = None
    for p, op in enumerate(PRIMITIVES):
        params = {k[len(op) + 1:]: w for k, w in weights.items() if k.startswith(op + "/")}
        term = ad.mul(primitive_oracle(op, in0, in1, params, hidden), wg[(p,)])
        out = term if out is None else out + term
    return out


def mix(w, parts, scatter=None):
    """``sum_p c[p] * parts[p]`` of equal-shape parts as one ``fused`` node.

    ``c = w`` for a 1-D weight vector with one entry per part, or ``c =
    scatter @ w`` for a constant ``(P, J)`` matrix that maps J weights onto
    the P parts. Parts are summed left to right (``weighted_sum``). Part p
    gets the gradient ``c[p] * g`` and ``w`` the vector ``<g, parts[p]>``,
    mapped back through ``scatter.T``; ``fused`` drops those of operands
    that are off the tape. Kept as the node the composed references below
    mix with; the search space's one-node slots and steps replace it.
    """
    import mmnas.autodiff as ad

    w, *parts = [t if isinstance(t, ad.Tensor) else ad.constant(t) for t in (w, *parts)]
    datas = [p.data for p in parts]
    c = w.data if scatter is None else scatter @ w.data

    def backward(g):
        gc = np.array([np.vdot(g, d) for d in datas])
        return [gc if scatter is None else scatter.T @ gc, *(g * cp for cp in c)]

    return ad.fused("mix", [w, *parts], ad.weighted_sum(datas, c), backward)


def mixed_step_composed(beta, gamma, pool, weights, hidden):
    """The mixed step as generic tape nodes: softmax, two scatter ``mix``
    nodes for the slots over the ordered pairs of ``pool``, one shared
    concat, ``add`` for Sum, one ``fused`` node each for attention and GLU,
    ``relu(linear(..))`` for ConcatFC, a constant for Zero, then the gamma
    softmax and ``mix``; ``weights`` maps ``"<op>/<param>"`` to a weight.

    Kept as the bitwise reference for the one-node ``mixed_step``: the tape
    adds this chain's gradients in the order the closed form must keep.
    """
    import mmnas.autodiff as ad
    from mmnas.searchspace import PRIMITIVES, ordered_pairs

    pairs = ordered_pairs(len(pool))
    scatter = np.zeros((2, len(pool), len(pairs)))
    for j, (u, v) in enumerate(pairs):
        scatter[0, u, j] = 1.0
        scatter[1, v, j] = 1.0
    wb = ad.softmax(beta, axis=0)
    in0 = mix(wb, pool, scatter[0])
    in1 = mix(wb, pool, scatter[1])
    cc = ad.concat([in0, in1], axis=1)
    outs = [_composed_primitive(op, in0, in1, weights, hidden, cc) for op in PRIMITIVES]
    return mix(ad.softmax(gamma, axis=0), outs)


def _composed_primitive(op, x, y, weights, hidden, cc):
    import mmnas.autodiff as ad

    def data(w):
        return w.data if isinstance(w, ad.Tensor) else w

    if op == "Sum":
        return x + y
    if op == "Zero":
        return ad.constant(np.zeros(x.shape))
    if op == "ConcatFC":
        return ad.relu(ad.linear(cc, weights["ConcatFC/W"], weights["ConcatFC/b"]))
    if op == "ScaledDotAttention":
        wq, wk, wv = (weights[f"ScaledDotAttention/{k}"] for k in ("Wq", "Wk", "Wv"))
        xd, yd, mq, mk, mv = x.data, y.data, data(wq), data(wk), data(wv)
        q, k, v = xd @ mq, yd @ mk, yd @ mv
        c = float(1.0 / np.sqrt(hidden))
        scores = (q @ k.T.copy()) * c
        e = np.exp(scores - np.max(scores, axis=1, keepdims=True))
        p = e / np.sum(e, axis=1, keepdims=True)

        def attention_backward(g):
            dp = g @ v.T
            ds = (dp - np.sum(dp * p, axis=1, keepdims=True)) * p * c
            dq, dk, dv = ds @ k, ds.T @ q, p.T @ g
            return dq @ mq.T, dk @ mk.T + dv @ mv.T, xd.T @ dq, yd.T @ dk, yd.T @ dv

        return ad.fused(op, [x, y, wq, wk, wv], p @ v, attention_backward)
    if op == "LinearGLU":
        w1, w2 = weights["LinearGLU/W1"], weights["LinearGLU/W2"]
        cd, m1, m2 = cc.data, data(w1), data(w2)
        a = cd @ m1
        s = ad.stable_sigmoid(cd @ m2)

        def glu_backward(g):
            da, db = g * s, g * a * s * (1.0 - s)
            return da @ m1.T + db @ m2.T, cd.T @ da, cd.T @ db

        return ad.fused(op, [cc, w1, w2], a * s, glu_backward)
    raise AssertionError(f"no composed form of primitive {op!r}")


def mixed_cell_slots_composed(alpha, candidates):
    """Both input slots of a search cell as generic tape nodes: slot A is
    ``mix(softmax(alpha), candidates)``, slot B the same after an ``add`` of
    the constant mask that sends alpha's argmax logit to -1e9.

    Kept as the bitwise reference for the one-node ``mixed_cell_input``: the
    tape adds slot B's gradient into alpha and the candidates before slot A's.
    """
    import mmnas.autodiff as ad

    alpha = alpha if isinstance(alpha, ad.Tensor) else ad.constant(alpha)
    mask = np.zeros(alpha.shape)
    mask[int(np.argmax(alpha.data))] = -1e9
    slot_a = mix(ad.softmax(alpha, axis=0), candidates)
    return slot_a, mix(ad.softmax(ad.add(alpha, ad.constant(mask)), axis=0), candidates)


def mixed_forward_composed(config, weights: dict, arch: dict, features: list):
    """The search encoder's forward pass as generic tape nodes: projections,
    ``mixed_cell_slots_composed``, ``mixed_step_composed`` over the ordered
    pairs of each step's pool, and the cell-output layer.

    Kept as the bitwise reference for ``MixedFusionEncoder.forward`` and
    the plans it runs from; operands are tape leaves or plain arrays.
    """
    import mmnas.autodiff as ad

    h = config.hidden_dim
    base = [ad.linear(f, weights[f"proj/{s}/W"], weights[f"proj/{s}/b"]) for s, f in zip(config.sources(), features)]
    cell_outs = []
    for c in range(config.num_cells):
        pool = list(mixed_cell_slots_composed(arch[f"alpha/c{c}"], base + cell_outs))
        for s in range(config.steps_per_cell):
            prefix = f"cell{c}/step{s}/"
            step = {k[len(prefix):]: w for k, w in weights.items() if k.startswith(prefix)}
            pool.append(mixed_step_composed(arch[f"beta/c{c}/s{s}"], arch[f"gamma/c{c}/s{s}"], pool, step, h))
        merged = ad.concat(pool[2:], axis=1) if len(pool) > 3 else pool[2]
        cell_outs.append(ad.linear(merged, weights[f"cell{c}/out/W"], weights[f"cell{c}/out/b"]))
    return cell_outs[-1]


def search_one_epoch(state, train, valid, scfg, ccfg, encoder, head, opt_w, opt_arch, report=None):
    """``search_epoch`` over a view stream of its one epoch's sections, as
    ``run_search`` streams every epoch's from one; returns its rows."""
    from mmnas.bilevel import epoch_sections, search_epoch, view_stream

    sections = epoch_sections(scfg, train, valid, state.epoch)
    with view_stream(sections, scfg.batch_size, ccfg, encoder.sources) as views:
        return search_epoch(state, views, train, valid, scfg, ccfg, encoder, head, opt_w, opt_arch, report)


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
