"""mmnas benchmark: stage throughput of search, deep search and the derived
pipeline, with an outside-in traced mode for per-layer figures.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

One process, one thread, BLAS pinned to one thread, closed loop with one
client: each workload operation starts when the previous one has ended.
The seed makes the dataset and run configuration; the program receives
only the generated MMNF file, the configs and the fixed genotype. Every
operation's outputs are checked; the last stdout line is the JSON result
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). Workloads, metrics and their layer map are described in
perfbench/METHOD.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Tracer, analyze, tail

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIXTURES = BENCH / "fixtures"
TMP_PARENT = ROOT / ".perfbench-tmp"
TRACE_OUT = ROOT / ".perfbench-out"
WORKLOADS = ("search", "search-deep", "derived-pipeline")
SETUP_REPEATS = 7
# smoke-test sizes: every code path, in seconds
TINY = {"data": {"num_samples": 200}, "search": {"max_epochs": 1},
        "pipeline": {"pretrain_epochs": 1, "clf_epochs": 2}}

# per-layer metrics printed in the JSON result: the ones every workload
# reaches; the full table, including workload-specific layers, goes to the
# report lines above it. Name -> unit; a "_tail" name is the tail of its base figure.
PER_LAYER_RESULT = {
    "data.generate_s": "s",
    "data.save_s": "s",
    "data.load_s": "s",
    "data.split_s": "s",
    "contrastive.augment_ms_per_batch": "ms",
    "contrastive.augment_ms_per_batch_tail": "ms",
    "contrastive.augment_share": "share",
    "contrastive.loss_ms_per_batch": "ms",
    "contrastive.head_ms_per_batch": "ms",
    "searchspace.encoder_forward_ms_per_batch": "ms",
    "searchspace.non_primitive_ms_per_batch": "ms",
    "searchspace.primitive_ms_per_batch": "ms",
    "autodiff.tape_nodes_per_batch": "count",
    "autodiff.backward_ms_per_batch": "ms",
    "autodiff.backward_ms_per_batch_tail": "ms",
    "optim.sgd_step_ms": "ms",
    "optim.adam_step_ms": "ms",
    "loop.train_batch_ms": "ms",
    "loop.train_batch_ms_tail": "ms",
    "loop.self_ms_per_batch": "ms",
    "trace.overhead_share": "share",
}


class CheckFailed(Exception):
    """An operation ran but left nothing that can be measured."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes (200 samples, 1 epoch)")
    return p.parse_args(argv)


def pin_environment() -> None:
    """Pin BLAS to one thread and keep git inside the checkout; before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    os.environ["GIT_CONFIG_NOSYSTEM"] = "1"
    os.environ["GIT_CONFIG_GLOBAL"] = os.devnull


def load_program():
    """Import mmnas from this checkout's sources, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "mmnas" / "__init__.py").is_file():
        print(f"error: no mmnas sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import numpy as np

    import mmnas
    from mmnas import bilevel, checkpoint, cli, config, data, pipeline, searchspace

    if Path(mmnas.__file__).resolve().parent != (src / "mmnas").resolve():
        print(f"error: imported mmnas from {mmnas.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return argparse.Namespace(np=np, bilevel=bilevel, checkpoint=checkpoint, cli=cli, config=config,
                              data=data, pipeline=pipeline, searchspace=searchspace)


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def machine_record(np) -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except Exception:  # build info layout differs across numpy versions
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        out[k] = merge(out.get(k, {}), v) if isinstance(v, dict) else v
    return out


def oracle_weighted_f1(pred, truth) -> float:
    """Support-weighted per-label F1 by counting, independent of the program."""
    pred = [[int(v) for v in row] for row in pred]
    truth = [[int(v) for v in row] for row in truth]
    total, mass = 0.0, 0
    for j in range(len(truth[0])):
        tp = sum(1 for p, t in zip(pred, truth) if p[j] and t[j])
        fp = sum(1 for p, t in zip(pred, truth) if p[j] and not t[j])
        fn = sum(1 for p, t in zip(pred, truth) if not p[j] and t[j])
        support = tp + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        total += f1 * support
        mass += support
    return total / mass if mass else 0.0


def loss_values(rows) -> list:
    """Every number a report row holds under a key naming a loss."""
    found = []
    for row in rows:
        for key, value in row.items():
            if "loss" in key and isinstance(value, (int, float)) and not isinstance(value, bool):
                found.append(float(value))
    return found


def loss_problems(losses, where: str) -> list:
    if not losses:
        return [f"{where}: no loss values reported"]
    if not all(math.isfinite(v) for v in losses):
        return [f"{where}: non-finite loss in {losses}"]
    return []


class Bench:
    def __init__(self, mm, args, tmp: Path):
        self.mm, self.args, self.tmp = mm, args, tmp
        raw = json.loads((FIXTURES / f"{args.workload}.json").read_text())
        raw = merge(raw, {"seed": args.seed, "data": {"seed": args.seed}})
        if args.tiny:
            raw = merge(raw, TINY)
        self.cfg = mm.config.RunConfig.from_dict(raw)
        self.config_path = tmp / "config.json"
        self.config_path.write_text(json.dumps(raw, sort_keys=True))
        self.data_path = tmp / "dataset.mmnf"
        self.space = self.cfg.space_config(self.cfg.data.image_layer_dims, self.cfg.data.text_layer_dims)
        self.genotype = None
        self.genotype_path = FIXTURES / "derived-genotype.json"
        if args.workload == "derived-pipeline":
            # a config-hash or wiring drift fails here, before anything runs
            self.genotype = mm.searchspace.Genotype.from_json(self.genotype_path.read_text())
            mm.searchspace.validate_genotype(self.genotype, self.space)
        self.setup_times: dict = {"generate": [], "save": [], "load": [], "split": [], "total": []}
        self.attempted = 0
        self.failed = 0
        self.fingerprint = None
        self.splits = None

    # -- set-up: generate, MMNF save and load, split ----------------------
    def setup(self, repeats: int) -> None:
        d, cfg = self.mm.data, self.cfg
        for _ in range(repeats):
            self.attempted += 1
            t0 = time.perf_counter()
            ds = d.generate(cfg.data)
            t1 = time.perf_counter()
            d.save(ds, self.data_path, text_len=cfg.data.text_len, vocab_size=cfg.data.vocab_size)
            t2 = time.perf_counter()
            loaded = d.load(self.data_path, text_len=cfg.data.text_len, vocab_size=cfg.data.vocab_size)
            t3 = time.perf_counter()
            splits = d.split(loaded, cfg.pipeline.labeled_ratio, cfg.seed)
            t4 = time.perf_counter()
            for key, a, b in (("generate", t0, t1), ("save", t1, t2), ("load", t2, t3), ("split", t3, t4)):
                self.setup_times[key].append(b - a)
            self.setup_times["total"].append(t4 - t0)
            # MMNF round trip: saving what was loaded reproduces the file
            again = self.tmp / "roundtrip.mmnf"
            d.save(loaded, again, text_len=cfg.data.text_len, vocab_size=cfg.data.vocab_size)
            if again.read_bytes() != self.data_path.read_bytes():
                self.failed += 1
                print("check failed: MMNF save/load/save is not byte-stable", file=sys.stderr)
            again.unlink()
            self.splits = splits

    # -- one operation of the workload ------------------------------------
    def op(self, index: int, tracer=None) -> dict:
        if self.args.workload == "derived-pipeline":
            return self._derived_op(index, tracer)
        return self._search_op(tracer)

    @staticmethod
    def _timed(tracer, fn):
        """(fn(), wall seconds); a traced call also gets an "op" span."""
        span = tracer.open("op") if tracer is not None else None
        t0 = time.perf_counter()
        try:
            return fn(), time.perf_counter() - t0
        finally:
            if span is not None:
                tracer.close(span)

    def _search_op(self, tracer) -> dict:
        mm, cfg, s = self.mm, self.cfg, self.splits
        rows: list = []
        (genotype, state), wall = self._timed(tracer, lambda: mm.bilevel.run_search(
            cfg.search_config(), self.space, cfg.contrastive, s.search_train, s.search_valid,
            report=rows.append))
        losses = loss_values(rows)
        problems = loss_problems(losses, "search")
        if not math.isfinite(state.best_valid_loss):
            problems.append(f"search: best validation loss {state.best_valid_loss}")
        try:
            mm.searchspace.validate_genotype(genotype, self.space)
        except mm.searchspace.GenotypeError as e:
            problems.append(f"search: derived genotype {genotype.to_json()} does not validate: {e}")
        samples = cfg.search.max_epochs * (len(s.search_train) + len(s.search_valid))
        return {
            "wall_s": wall,
            "train": (samples, wall),
            "problems": problems,
            "fingerprint": {"genotype_hash": genotype.hash(), "losses": losses,
                            "best_valid_loss": state.best_valid_loss},
        }

    def _derived_op(self, index: int, tracer) -> dict:
        """run-all in process; raises CheckFailed when nothing can be measured."""
        mm, cfg, s = self.mm, self.cfg, self.splits
        out = self.tmp / f"op-{index}"
        argv = ["run-all", "--config", str(self.config_path), "--data", str(self.data_path),
                "--genotype", str(self.genotype_path), "--out-dir", str(out)]
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured):
                rc, wall = self._timed(tracer, lambda: mm.cli.main(argv))
            if rc != 0:
                raise CheckFailed(f"run-all exited {rc}: {captured.getvalue()[-500:]}")
            rows = [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]
            stage_s = {}
            for stage in ("pretrain", "fit"):
                durations = [r["duration_s"] for r in rows
                             if r.get("stage") == stage and isinstance(r.get("duration_s"), (int, float))]
                if not durations or max(durations) <= 0:
                    raise CheckFailed(f"run-all reported no {stage} stage duration")
                stage_s[stage] = max(durations)
            losses = loss_values(rows)
            problems = loss_problems(losses, "run-all")
            if (out / ".incomplete").exists():
                problems.append("run-all left its .incomplete marker")
            hashes = {r["genotype_hash"] for r in rows if r.get("genotype_hash")}
            if hashes != {self.genotype.hash()}:
                problems.append(f"run-all genotype hashes {hashes} != {self.genotype.hash()}")
            reported = {holder["weighted_f1"] for r in rows for holder in (r, r.get("metrics") or {})
                        if isinstance(holder.get("weighted_f1"), float)}
            model = mm.checkpoint.load_weights(out / "model.mmnw")
            if not all(mm.np.all(mm.np.isfinite(arr)) for arr in model.values()):
                problems.append("model checkpoint holds non-finite weights")
            encoder = mm.searchspace.instantiate(self.genotype, self.space)
            truth = s.test.labels_matrix()
            pred = mm.pipeline.predict_bits(encoder, model, s.test, cfg.pipeline.classifier_loss)
            f1 = oracle_weighted_f1(pred, truth)
            zeros = oracle_weighted_f1([[0] * len(truth[0])] * len(truth), truth)
            if not reported or any(abs(f - f1) > 1e-9 for f in reported):
                problems.append(f"reported weighted F1 {sorted(reported)} != oracle {f1}")
            if not f1 > zeros:
                problems.append(f"weighted F1 {f1} does not beat all-zeros {zeros}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return {
            "wall_s": wall,
            "train": (cfg.pipeline.pretrain_epochs * len(s.search_train), stage_s["pretrain"]),
            "fit": (cfg.pipeline.clf_epochs * len(s.labeled_train), stage_s["fit"]),
            "weighted_f1": f1,
            "problems": problems,
            "fingerprint": {"genotype_hash": self.genotype.hash(), "losses": losses, "weighted_f1": f1},
        }

    def run_ops(self, seconds: float, traced: bool):
        """Closed loop until the next operation would overrun ``seconds``.

        With ``traced``, operations alternate untraced and traced (wrappers
        installed only around the traced ones), so the trace overhead is
        measured within one run.
        """
        tracer = Tracer() if traced else None
        results = {False: [], True: []}
        attempt_s = {False: [], True: []}
        windows = []
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            with_trace = traced and index % 2 == 1
            past = attempt_s[with_trace] or attempt_s[False]
            if index >= (2 if traced else 1) and time.perf_counter() + statistics.median(past) > deadline:
                break
            gc.collect()  # free the previous operation's garbage outside the timed region
            self.attempted += 1
            t0 = time.perf_counter()
            first = len(tracer.spans) if with_trace else 0
            if with_trace:
                tracer.install()
            try:
                res = self.op(index, tracer if with_trace else None)
                # a failed output check still leaves a valid timing
                problems = res.pop("problems")
                if self.fingerprint is None:
                    self.fingerprint = res["fingerprint"]
                elif res["fingerprint"] != self.fingerprint:
                    problems.append(f"fingerprint {res['fingerprint']} != first {self.fingerprint}")
                results[with_trace].append(res)
                if with_trace:
                    windows.extend((s[1], s[2]) for s in tracer.spans[first:] if s[0] == "op")
                if problems:
                    self.failed += 1
                    print(f"operation {index}: check failed: " + "; ".join(problems), file=sys.stderr)
            except Exception:  # count the failure, report it, keep measuring
                self.failed += 1
                traceback.print_exc()
            finally:
                if with_trace:
                    tracer.uninstall()
            attempt_s[with_trace].append(time.perf_counter() - t0)
            index += 1
        return results, tracer, windows


def rate(results, key):
    """Samples per second over all operations of the run: total work / total time."""
    pairs = [r[key] for r in results if key in r]
    return (sum(n for n, _ in pairs) / sum(t for _, t in pairs), len(pairs)) if pairs else (None, 0)


def report_line(name, value, unit, detail="") -> None:
    print(f"metric {name} = {value!r} {unit}" + (f"  ({detail})" if detail else ""))


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    mm = load_program()
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_PARENT))
    try:
        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}{' tiny' if args.tiny else ''}")
        print("machine " + json.dumps(machine_record(mm.np), sort_keys=True))
        bench = Bench(mm, args, tmp)
        bench.setup(1 if args.tiny else SETUP_REPEATS)
        results, tracer, windows = bench.run_ops(args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_PARENT.rmdir()
    plain, traced = results[False], results[True]
    if not plain or (args.trace and not traced):
        print("error: no operation completed", file=sys.stderr)
        return 1
    print("fingerprint " + json.dumps(bench.fingerprint, sort_keys=True))
    print("op wall_s " + json.dumps({"untraced": [r["wall_s"] for r in plain],
                                     "traced": [r["wall_s"] for r in traced]}))
    setup = bench.setup_times
    metrics = {}
    if not args.trace:
        reps = len(setup["total"])
        metrics["setup_s"] = (statistics.median(setup["total"]), "s", f"median of {reps} set-ups")
        walls = [r["wall_s"] for r in plain]
        level, slow = tail(walls)
        metrics["run_s"] = (statistics.mean(walls), "s", f"mean of {len(walls)} operations; median "
                            f"{statistics.median(walls)!r}, p{level:g} {slow!r}")
        value, n = rate(plain, "train")
        metrics["train_samples_per_s"] = (value, "1/s", f"total over {n} operations")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                                  "peak resident set of this process")
        for name, value in metrics.items():
            report_line(name, *value)
        # the same throughput under its stage's name, and the fit stage and
        # F1 of derived-pipeline: reported, not bounded
        derived = args.workload == "derived-pipeline"
        report_line("pretrain_samples_per_s" if derived else "search_samples_per_s",
                    metrics["train_samples_per_s"][0], "1/s", f"total over {n} operations")
        if derived:
            value, n = rate(plain, "fit")
            report_line("fit_samples_per_s", value, "1/s", f"total over {n} operations")
            report_line("weighted_f1", plain[0]["weighted_f1"], "f1", "identical in every operation")
        report_line("attempted_ops", bench.attempted, "count")
        report_line("failed_ops", bench.failed, "count")
    else:
        tracer.segment()
        TRACE_OUT.mkdir(exist_ok=True)
        dump = TRACE_OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(dump)
        layers = analyze(tracer, windows)
        for key in ("generate", "save", "load", "split"):
            layers[f"data.{key}_s"] = {"value": statistics.median(setup[key]), "unit": "s",
                                       "n": len(setup[key])}
        untraced = statistics.median(r["wall_s"] for r in plain)
        layers["trace.overhead_share"] = {
            "value": (statistics.median(r["wall_s"] for r in traced) - untraced) / untraced,
            "unit": "share", "base_s": untraced, "n": len(traced)}
        print(f"trace spans={len(tracer.spans)} batches={len(tracer.batches)} dump={dump.relative_to(ROOT)}")
        print("absent boundaries " + json.dumps(tracer.absent))
        for name in sorted(layers):
            item = layers[name]
            if item is None:
                print(f"layer {name} = n/a (not reached on this workload, or its boundary is absent)")
                continue
            extra = {k: v for k, v in item.items() if k not in ("value", "unit")}
            report_line(name, item["value"], item["unit"], json.dumps(extra, sort_keys=True))
        for name, unit in PER_LAYER_RESULT.items():
            base = name.removesuffix("_tail")
            item = layers.get(base)
            metrics[name] = (float(item["tail" if base != name else "value"]) if item else 0.0, unit)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(v[0]), "unit": v[1]} for name, v in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
