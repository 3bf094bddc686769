"""Outside-in span tracing of the mmnas layers.

The tracer wraps public functions and methods of the ``mmnas`` modules from
here, never from inside the program. Wrappers exist only between
``install()`` and ``uninstall()``; an untraced run never sees them. Each
wrapped call appends one span ``[name, start, end, parent, batch, extra]``
to an in-memory list; nothing is written until ``dump()`` at the end.

A boundary that a later version of the program no longer has is recorded
in ``absent`` and skipped, so the trace degrades instead of crashing.

Batches are recovered after the fact from the stage loops' direct
children: an optimizer step ends a taped batch, and a batch loss that no
backward pass follows ends an evaluation batch. ``analyze`` turns spans
into per-batch and per-call layer figures.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import sys
import time

# (span name, module, attribute); "Class.method" patches the class, a plain
# name is patched in every mmnas module that imported that function
BOUNDARIES = (
    ("contrastive.augment", "bilevel", "stack_view_features"),
    ("contrastive.head", "contrastive", "ProjectionHead.forward"),
    ("contrastive.loss", "contrastive", "ntxent_loss"),
    ("searchspace.encoder_forward", "searchspace", "MixedFusionEncoder.forward"),
    ("searchspace.encoder_forward", "searchspace", "DerivedFusionEncoder.forward"),
    ("searchspace.mixed_cell_input", "searchspace", "mixed_cell_input"),
    ("searchspace.mixed_step", "searchspace", "mixed_step"),
    ("searchspace.primitive", "searchspace", "apply_primitive"),
    ("autodiff.backward", "autodiff", "Tape.backward"),
    ("optim.sgd_step", "optim", "MomentumSGD.step"),
    ("optim.adam_step", "optim", "Adam.step"),
    ("bilevel.run_search", "bilevel", "run_search"),
    ("bilevel.search_epoch", "bilevel", "search_epoch"),
    ("bilevel.batch_loss", "bilevel", "contrastive_batch_loss"),
    ("pipeline.run_pipeline", "pipeline", "run_pipeline"),
    ("pipeline.pretrain", "pipeline", "pretrain"),
    ("pipeline.fit_classifier", "pipeline", "fit_classifier"),
    ("pipeline.encode_dataset", "pipeline", "encode_dataset"),
    ("pipeline.raw_features", "pipeline", "raw_features"),
    ("pipeline.fit_loss", "pipeline", "bce_with_logits"),
    ("pipeline.predict", "pipeline", "predict_bits"),
    ("checkpoint.save_weights", "checkpoint", "save_weights"),
    ("checkpoint.load_weights", "checkpoint", "load_weights"),
    ("config.build_id", "config", "build_id"),
    ("data.load", "data", "load"),
    ("data.split", "data", "split"),
)

PRIMITIVES = ("Sum", "ScaledDotAttention", "LinearGLU", "ConcatFC", "Zero")

# stage span -> batch kind by the optimizer that ends the batch (None: no step)
STAGES = {
    "bilevel.search_epoch": {"optim.sgd_step": "train", "optim.adam_step": "valid", None: "eval"},
    "pipeline.pretrain": {"optim.sgd_step": "pretrain"},
    "pipeline.fit_classifier": {"optim.adam_step": "fit"},
}
# direct children of a stage that belong to a batch (others, such as the
# frozen-feature encoding before fitting, precede the first batch)
BATCH_MEMBERS = {
    "contrastive.augment",
    "bilevel.batch_loss",
    "autodiff.backward",
    "optim.sgd_step",
    "optim.adam_step",
    "pipeline.fit_loss",
}
CONTRASTIVE_KINDS = ("train", "valid", "eval", "pretrain")
TAPED_CONTRASTIVE_KINDS = ("train", "valid", "pretrain")

NAME, START, END, PARENT, BATCH, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.batches: list = []
        self.absent: list = []
        self._stack: list = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str, extra=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, -1, extra])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        tracer = self
        if name == "searchspace.primitive":
            def label(args, kwargs):
                return f"{name}.{args[0] if args else kwargs.get('op')}", None
        elif name == "autodiff.backward":
            def label(args, kwargs):
                return name, len(args[0])  # tape nodes recorded before backward
        else:
            def label(args, kwargs):
                return name, None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(*label(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        wrapper.perfbench_wrapped = True
        return wrapper

    def install(self) -> None:
        """Wrap every boundary that exists; record the ones that do not."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k == "mmnas" or k.startswith("mmnas.")]
        for name, modname, attr in BOUNDARIES:
            home = sys.modules.get(f"mmnas.{modname}")
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            target = meth if owner_name else attr
            orig = getattr(owner, target, None) if owner is not None else None
            if orig is None:
                if f"{modname}.{attr}" not in self.absent:
                    self.absent.append(f"{modname}.{attr}")
                continue
            if getattr(orig, "perfbench_wrapped", False):
                continue  # inherited from a class patched above
            wrapped = self._wrap(orig, name)
            if owner_name:
                self._patches.append((owner, target, orig if target in vars(owner) else None))
                setattr(owner, target, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._patches):
            if orig is None:
                delattr(obj, key)  # the method was inherited
            else:
                setattr(obj, key, orig)
        self._patches.clear()

    # -- batches -----------------------------------------------------------
    def segment(self) -> None:
        """Cut each stage span's direct children into batches."""
        children: dict = {}
        for i, s in enumerate(self.spans):
            children.setdefault(s[PARENT], []).append(i)
        for si, stage in enumerate(self.spans):
            kinds = STAGES.get(stage[NAME])
            if kinds is None:
                continue
            kids = children.get(si, [])
            members = [i for i in kids if self.spans[i][NAME] in BATCH_MEMBERS]
            if not members:
                continue
            start = self.spans[members[0]][START]
            current: list = []
            for pos, i in enumerate(kids):
                s = self.spans[i]
                if s[START] < start:
                    continue
                current.append(i)
                step = s[NAME] if s[NAME] in ("optim.sgd_step", "optim.adam_step") else None
                ends_eval = False
                if s[NAME] == "bilevel.batch_loss" and None in kinds:
                    follow = next((self.spans[j][NAME] for j in itertools.islice(kids, pos + 1, None)
                                   if self.spans[j][NAME] in ("bilevel.batch_loss", "autodiff.backward")), None)
                    ends_eval = follow != "autodiff.backward"
                if step is None and not ends_eval:
                    continue
                kind = kinds.get(step)
                if kind is None:
                    continue
                self._add_batch(kind, start, s[END], current, children)
                start, current = s[END], []

    def _add_batch(self, kind, start, end, direct, children) -> None:
        bid = len(self.batches)
        stack = list(direct)
        while stack:
            i = stack.pop()
            self.spans[i][BATCH] = bid
            stack.extend(children.get(i, []))
        self.batches.append({"kind": kind, "start": start, "end": end, "direct": list(direct)})

    def dump(self, path) -> None:
        """Write every span and batch once, as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "batch": s[BATCH], "extra": s[EXTRA]}) + "\n")
            for b in self.batches:
                fh.write(json.dumps({"batch": b}) + "\n")


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def tail(values: list) -> tuple:
    """(level, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    level = next((p for p in (99.9, 99.0, 95.0, 90.0) if n * (1.0 - p / 100.0) >= 10), 50.0)
    return level, sorted(values)[max(0, math.ceil(level / 100.0 * n) - 1)]


def summary(values: list, unit: str) -> dict | None:
    if not values:
        return None
    level, tail_value = tail(values)
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "tail_level": level, "tail": tail_value}


def analyze(tracer: Tracer, op_windows: list) -> dict:
    """Per-layer figures from a segmented trace.

    ``op_windows`` holds the (start, end) of each traced program call, used
    for per-run counts. Layers a workload never reaches come back as None.
    """
    spans, batches = tracer.spans, tracer.batches
    ms = 1000.0
    per_batch: list = [dict() for _ in batches]
    for s in spans:
        if s[BATCH] >= 0:
            d = per_batch[s[BATCH]]
            d[s[NAME]] = d.get(s[NAME], 0.0) + (s[END] - s[START]) * ms
            if s[NAME] == "autodiff.backward":
                d["nodes"] = s[EXTRA]
    child_ms: dict = {}
    for s in spans:
        if s[PARENT] >= 0:
            child_ms[s[PARENT]] = child_ms.get(s[PARENT], 0.0) + (s[END] - s[START]) * ms
    durations = [(b["end"] - b["start"]) * ms for b in batches]
    self_ms = [dur - sum((spans[i][END] - spans[i][START]) * ms for i in b["direct"])
               for dur, b in zip(durations, batches)]

    def of_kind(kinds):
        return [k for k, b in enumerate(batches) if b["kind"] in kinds]

    contrastive = of_kind(CONTRASTIVE_KINDS)
    taped = of_kind(TAPED_CONTRASTIVE_KINDS)
    search = of_kind(("train", "valid", "eval"))
    training = of_kind(("train", "pretrain"))

    def batch_sum(name, idx):
        present = any(name in per_batch[k] for k in idx)
        return [per_batch[k].get(name, 0.0) for k in idx] if present else []

    def prefixed(prefix, k):
        return sum(v for n, v in per_batch[k].items() if n.startswith(prefix))

    def calls(name):
        return [(s[END] - s[START]) * ms for s in spans if s[NAME] == name]

    def self_of(name):
        out = {}
        for i, s in enumerate(spans):
            if s[NAME] == name and s[BATCH] >= 0:
                out[s[BATCH]] = out.get(s[BATCH], 0.0) + (s[END] - s[START]) * ms - child_ms.get(i, 0.0)
        return out

    out: dict = {}
    out["contrastive.augment_ms_per_batch"] = summary(batch_sum("contrastive.augment", contrastive), "ms")
    augment_total = sum(per_batch[k].get("contrastive.augment", 0.0) for k in contrastive)
    base_total = sum(durations[k] for k in contrastive)
    out["contrastive.augment_share"] = (
        {"value": augment_total / base_total, "unit": "share", "base_ms": base_total, "n": len(contrastive)}
        if augment_total > 0 and base_total > 0 else None
    )
    out["contrastive.loss_ms_per_batch"] = summary(batch_sum("contrastive.loss", contrastive), "ms")
    out["contrastive.head_ms_per_batch"] = summary(batch_sum("contrastive.head", contrastive), "ms")
    out["searchspace.encoder_forward_ms_per_batch"] = summary(
        batch_sum("searchspace.encoder_forward", contrastive), "ms")
    prim = [prefixed("searchspace.primitive.", k) for k in contrastive]
    out["searchspace.primitive_ms_per_batch"] = summary(prim if any(prim) else [], "ms")
    enc = batch_sum("searchspace.encoder_forward", contrastive)
    out["searchspace.non_primitive_ms_per_batch"] = summary(
        [e - p for e, p in zip(enc, prim)] if enc else [], "ms")
    for op in PRIMITIVES:
        out[f"searchspace.primitive_ms_per_batch.{op}"] = summary(
            batch_sum(f"searchspace.primitive.{op}", contrastive), "ms")
    out["searchspace.mixed_cell_input_ms_per_batch"] = summary(
        batch_sum("searchspace.mixed_cell_input", contrastive), "ms")
    step_self = self_of("searchspace.mixed_step")
    out["searchspace.mixed_step_self_ms_per_batch"] = summary(
        [step_self.get(k, 0.0) for k in contrastive] if step_self else [], "ms")
    nodes = [per_batch[k]["nodes"] for k in taped if "nodes" in per_batch[k]]
    out["autodiff.tape_nodes_per_batch"] = (
        {"value": statistics.median(nodes), "unit": "count", "n": len(nodes),
         "distinct": sorted(set(nodes))} if nodes else None
    )
    out["autodiff.backward_ms_per_batch"] = summary(batch_sum("autodiff.backward", taped), "ms")
    out["optim.sgd_step_ms"] = summary(calls("optim.sgd_step"), "ms")
    out["optim.adam_step_ms"] = summary(calls("optim.adam_step"), "ms")
    for kind in ("train", "valid", "eval"):
        out[f"bilevel.{kind}_batch_ms"] = summary([durations[k] for k in of_kind((kind,))], "ms")
    out["bilevel.loop_self_ms_per_batch"] = summary([self_ms[k] for k in search], "ms")
    out["pipeline.pretrain_batch_ms"] = summary([durations[k] for k in of_kind(("pretrain",))], "ms")
    out["pipeline.fit_batch_ms"] = summary([durations[k] for k in of_kind(("fit",))], "ms")
    out["pipeline.raw_features_ms"] = summary(calls("pipeline.raw_features"), "ms")
    out["pipeline.predict_ms"] = summary(calls("pipeline.predict"), "ms")
    out["checkpoint.save_weights_ms"] = summary(calls("checkpoint.save_weights"), "ms")
    out["checkpoint.load_weights_ms"] = summary(calls("checkpoint.load_weights"), "ms")
    build_calls = [
        sum(1 for s in spans if s[NAME] == "config.build_id" and lo <= s[START] <= hi)
        for lo, hi in op_windows
    ]
    out["config.build_id_calls"] = (
        {"value": statistics.median(build_calls), "unit": "count", "n": len(build_calls)}
        if any(build_calls) else None
    )
    out["config.build_id_ms"] = summary(calls("config.build_id"), "ms")
    # the contrastive training batch of whichever stage the workload runs
    out["loop.train_batch_ms"] = summary([durations[k] for k in training], "ms")
    out["loop.self_ms_per_batch"] = summary([self_ms[k] for k in training], "ms")
    return out
