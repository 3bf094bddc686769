"""Command-line surface for the full experiment loop.

Subcommands: gen-data, audit-data, search, pretrain, fit, eval, run-all,
sweep-r. Every command reads one JSON config (optionally overridden by
flags), writes JSON-lines reports into the output directory, and marks
interrupted runs with a ``.incomplete`` file. Exit code 0 means every
requested stage completed and its sanity screens passed.

search, pretrain, fit and run-all share one runner: each calls
``pipeline.run_pipeline`` with the artifacts given by ``--genotype`` and
``--weights``, stops after the stage it names (fit and run-all run to the
end), and ends the log with one ``command`` row (command, config,
genotype hash, weighted F1). Each sweep-r cell is a run-all. eval scores a
fitted model through ``pipeline.score``, as the fit stage does, into one
stage row; a ``--weights`` file must hold each weight its genotype needs,
in its shape. ``_Reporter`` is the one place that stamps provenance: every
row it writes carries the config hash, the build id and the seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import data as dataio
from .checkpoint import load_weights
from .config import ConfigError, RunConfig, build_id
from .pipeline import run_pipeline, score
from .searchspace import Genotype, instantiate, validate_genotype
from .util import atomic_open


class CliError(RuntimeError):
    pass


class _Reporter:
    """Appends one canonical JSON object per record to reports.jsonl,
    stamped with the run's config hash, build id and seed."""

    def __init__(self, out_dir: Path, config_hash: str, bid: str, seed: int):
        self.path = out_dir / "reports.jsonl"
        self.stamp = {"config_hash": config_hash, "build_id": bid, "seed": seed}
        self._fh = open(self.path, "a")

    def __call__(self, record: dict):
        row = dict(record)
        for k, v in self.stamp.items():
            row.setdefault(k, v)
        self._fh.write(json.dumps(row, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_seed(args.seed)
    if getattr(args, "freeze_encoder", None) is not None:
        cfg = dataclasses.replace(
            cfg, pipeline=dataclasses.replace(cfg.pipeline, freeze_encoder=args.freeze_encoder)
        )
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(data_path, cfg: RunConfig):
    """The MMNF file at ``data_path``, or the config's synthetic dataset."""
    if data_path:
        return dataio.load(data_path, text_len=cfg.data.text_len)
    return dataio.generate(cfg.data)


def _genotype_from_file(path, space) -> Genotype:
    genotype = Genotype.from_json(Path(path).read_text())
    validate_genotype(genotype, space)
    return genotype


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    ds = dataio.generate(cfg.data)
    path = out / "dataset.mmnf"
    dataio.save(ds, path)
    print(f"wrote {path} ({len(ds)} samples, labels={ds.num_labels})")
    return 0


def cmd_audit_data(args) -> int:
    cfg = _load_config(args)
    ds = _load_dataset(args.data, cfg)
    report = dataio.audit(ds, cfg.data)
    print(json.dumps(report, sort_keys=True, indent=2))
    if not report["planted_dominates"]:
        print("error: planted cross-modal correlation does not dominate", file=sys.stderr)
        return 1
    return 0


def _checkpoint(path, shapes: dict) -> dict:
    """The MMNW file at ``path``; a ``CliError`` unless it holds each name in ``shapes`` in that shape (or more)."""
    weights = load_weights(path)
    for name, shape in shapes.items():
        if name not in weights or weights[name].shape != shape:
            raise CliError(f"{path}: checkpoint needs {name!r} of shape {shape}")
    return weights


def _run_guard(out: Path):
    marker = out / ".incomplete"
    marker.write_text("run in progress\n")
    return marker


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    t0 = time.perf_counter()
    ds = _load_dataset(args.data, cfg)
    space = cfg.space_config(ds.image_dims, ds.text_dims)
    genotype = _genotype_from_file(args.genotype, space)
    encoder = instantiate(genotype, space)
    clf = {"clf/W": (space.hidden_dim, ds.num_labels), "clf/b": (ds.num_labels,)}
    model = _checkpoint(args.weights, {**encoder.weight_shapes(), **clf})
    test = dataio.split(ds, cfg.pipeline.labeled_ratio, cfg.seed).test
    if len(test) == 0:
        raise CliError("test split is empty at this labeled_ratio")
    f1 = score(encoder, model, test)
    row = {"stage": "eval", "metrics": {"weighted_f1": f1}, "genotype_hash": genotype.hash(),
           "duration_s": round(time.perf_counter() - t0, 6)}
    reporter = _Reporter(out, cfg.hash(), build_id(), cfg.seed)  # a failed eval leaves no log behind
    reporter(row)
    reporter.close()
    print(f"weighted_f1 = {f1:.6f}")
    return 0


def _run_stages(cfg: RunConfig, out: Path, command: str, data_path, last_stage="fit", genotype_path=None,
                weights_path=None):
    """``run_pipeline`` up to ``last_stage``, logged to ``out/reports.jsonl``.

    The log ends with one ``command`` row: the command, the effective
    config, the genotype hash and the test weighted F1 (None before the
    fit stage or on an empty test split). ``run-all`` and ``sweep-r``
    cells start a fresh log; the staged commands append to the one they share.
    """
    if weights_path and not genotype_path:
        raise CliError(f"{command}: --weights needs --genotype, the genotype its checkpoint was pretrained for")
    ds = _load_dataset(data_path, cfg)
    space = cfg.space_config(ds.image_dims, ds.text_dims)
    genotype = _genotype_from_file(genotype_path, space) if genotype_path else None
    pretrained = _checkpoint(weights_path, instantiate(genotype, space).weight_shapes()) if weights_path else None
    if command in ("run-all", "sweep-r"):
        (out / "reports.jsonl").unlink(missing_ok=True)
    reporter = _Reporter(out, cfg.hash(), build_id(), cfg.seed)
    try:
        reports, artifacts = run_pipeline(
            ds,
            space,
            cfg.search_config(),
            cfg.contrastive,
            cfg.pipeline,
            cfg.seed,
            out_dir=out,
            genotype=genotype,
            pretrained=pretrained,
            report=reporter,
            last_stage=last_stage,
        )
        reporter(
            {
                "command": command,
                "config": cfg.to_dict(),
                "genotype_hash": artifacts["genotype"].hash(),
                "weighted_f1": artifacts.get("weighted_f1"),
            }
        )
    finally:
        reporter.close()
    return reports, artifacts


def cmd_run(args) -> int:
    """search, pretrain, fit and run-all: the pipeline stopped after ``args.last_stage``."""
    cfg = _load_config(args)
    out = _out_dir(args)
    marker = _run_guard(out)
    genotype, weights = getattr(args, "genotype", None), getattr(args, "weights", None)
    reports, artifacts = _run_stages(cfg, out, args.command, args.data, args.last_stage, genotype, weights)
    for rep in reports:
        print(f"[{rep['stage']}] " + ", ".join(f"{k}={v}" for k, v in rep["metrics"].items()))
    print(f"genotype {artifacts['genotype'].hash()}")
    if "weighted_f1" in artifacts:
        print(f"weighted_f1 = {artifacts['weighted_f1']:.6f}")
    marker.unlink()
    return 0


def cmd_sweep_r(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    marker = _run_guard(out)
    grid = [float(x) for x in args.r_grid.split(",") if x.strip()]
    seeds = [int(x) for x in args.seeds.split(",") if x.strip()]
    if not grid or not seeds:
        raise CliError("sweep-r needs non-empty --r-grid and --seeds")
    # the split sizes follow from n and r alone: refuse the grid before any cell trains
    n = len(_load_dataset(args.data, cfg))
    for r in grid:
        labeled, n_test = dataio.split_sizes(n, r)
        if not n_test:
            raise CliError(
                f"sweep-r cell r={r:g} seed={seeds[0]} has an empty test split: the test split holds "
                f"floor(0.1 * floor(n * r)) samples, and floor(n * r) = {labeled} here; "
                f"raise r or the sample count"
            )
    rows = []
    for r in grid:
        for seed in seeds:
            cell_cfg = dataclasses.replace(
                cfg.with_seed(seed), pipeline=dataclasses.replace(cfg.pipeline, labeled_ratio=r)
            )
            cell_dir = out / f"r{r:g}_seed{seed}"
            cell_dir.mkdir(parents=True, exist_ok=True)
            cell_marker = _run_guard(cell_dir)
            _, artifacts = _run_stages(cell_cfg, cell_dir, "sweep-r", args.data)
            rows.append((r, seed, artifacts["weighted_f1"]))
            cell_marker.unlink()
            print(f"r={r:g} seed={seed} weighted_f1={artifacts['weighted_f1']:.6f}")
    csv_path = out / "sweep.csv"
    with atomic_open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "seed", "weighted_f1"])
        for row in rows:
            writer.writerow([f"{row[0]:g}", row[1], f"{row[2]:.6f}"])
    print(f"wrote {csv_path} ({len(rows)} rows)")
    marker.unlink()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmnas",
        description="Contrastive architecture search, pretraining and evaluation "
        "for multimodal fusion networks over precomputed features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True):
        p.add_argument("--config", help="JSON run config (defaults apply when omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out-dir", default="runs/out", help="artifact directory")
        if data:
            p.add_argument("--data", help="MMNF dataset file (otherwise generated from config)")

    p = sub.add_parser("gen-data", help="generate the synthetic planted dataset")
    common(p, data=False)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("audit-data", help="check planted cross-modal correlation dominance")
    common(p)
    p.set_defaults(fn=cmd_audit_data)

    p = sub.add_parser("search", help="stage 1: contrastive architecture search")
    common(p)
    p.set_defaults(fn=cmd_run, last_stage="search")

    p = sub.add_parser("pretrain", help="stage 2: contrastive pretraining of a genotype")
    common(p)
    p.add_argument("--genotype", required=True, help="genotype JSON from the search stage")
    p.set_defaults(fn=cmd_run, last_stage="pretrain")

    p = sub.add_parser("fit", help="stage 3: fit the classification layer")
    common(p)
    p.add_argument("--genotype", required=True)
    p.add_argument("--weights", required=True, help="encoder MMNW checkpoint")
    p.add_argument("--freeze-encoder", action=argparse.BooleanOptionalAction, default=None)
    p.set_defaults(fn=cmd_run, last_stage="fit")

    p = sub.add_parser("eval", help="score a fitted model on the test split")
    common(p)
    p.add_argument("--genotype", required=True)
    p.add_argument("--weights", required=True, help="fitted model MMNW checkpoint")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("run-all", help="stages 1-3 plus evaluation")
    common(p)
    p.add_argument("--genotype", help="skip the search stage with this genotype")
    p.add_argument("--weights", help="skip the pretraining stage with this checkpoint (needs --genotype)")
    p.add_argument("--freeze-encoder", action=argparse.BooleanOptionalAction, default=None)
    p.set_defaults(fn=cmd_run, last_stage="fit")

    p = sub.add_parser("sweep-r", help="run-all across a labeled-ratio grid and seeds")
    common(p)
    p.add_argument("--r-grid", required=True, help="comma list, e.g. 0.1,0.5,1.0")
    p.add_argument("--seeds", required=True, help="comma list, e.g. 0,1,2")
    p.set_defaults(fn=cmd_sweep_r)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ConfigError, ValueError, RuntimeError, OSError) as e:
        print(json.dumps({"error": str(e), "type": type(e).__name__}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
