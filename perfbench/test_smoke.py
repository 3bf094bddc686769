"""Smoke test of the benchmark at tiny sizes (200 samples, one epoch).

Runs every workload untraced and traced, in a few seconds each, and checks
that every metric the benchmark defines is printed with its unit:

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# metrics every run prints above its result line, by name
REPORTED = {
    "search": ("search_samples_per_s", "attempted_ops", "failed_ops"),
    "search-deep": ("search_samples_per_s", "attempted_ops", "failed_ops"),
    "derived-pipeline": ("pretrain_samples_per_s", "fit_samples_per_s", "weighted_f1",
                         "attempted_ops", "failed_ops"),
}
# per-layer figures of the full trace table: a value, or "n/a" where the
# workload never reaches the layer
TRACE_TABLE = (
    "data.generate_s", "data.save_s", "data.load_s", "data.split_s",
    "contrastive.augment_ms_per_batch", "contrastive.augment_share",
    "contrastive.loss_ms_per_batch", "contrastive.head_ms_per_batch",
    "searchspace.encoder_forward_ms_per_batch", "searchspace.mixed_cell_input_ms_per_batch",
    "searchspace.mixed_step_self_ms_per_batch", "searchspace.primitive_ms_per_batch.Sum",
    "searchspace.primitive_ms_per_batch.ScaledDotAttention", "searchspace.primitive_ms_per_batch.LinearGLU",
    "searchspace.primitive_ms_per_batch.ConcatFC", "searchspace.primitive_ms_per_batch.Zero",
    "autodiff.tape_nodes_per_batch", "autodiff.backward_ms_per_batch",
    "optim.sgd_step_ms", "optim.adam_step_ms",
    "bilevel.train_batch_ms", "bilevel.valid_batch_ms", "bilevel.eval_batch_ms",
    "bilevel.loop_self_ms_per_batch",
    "pipeline.pretrain_batch_ms", "pipeline.fit_batch_ms", "pipeline.raw_features_ms", "pipeline.predict_ms",
    "checkpoint.save_weights_ms", "checkpoint.load_weights_ms", "config.build_id_calls", "config.build_id_ms",
    "trace.overhead_share",
)
# layers each workload must reach (the rest may be n/a)
REACHED = {
    "search": ("bilevel.train_batch_ms", "bilevel.valid_batch_ms", "bilevel.eval_batch_ms",
               "searchspace.mixed_cell_input_ms_per_batch", "searchspace.primitive_ms_per_batch.Zero"),
    "search-deep": ("bilevel.train_batch_ms", "searchspace.mixed_step_self_ms_per_batch"),
    "derived-pipeline": ("pipeline.pretrain_batch_ms", "pipeline.fit_batch_ms", "pipeline.predict_ms",
                         "checkpoint.save_weights_ms", "checkpoint.load_weights_ms", "config.build_id_calls"),
}


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(out) -> tuple:
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stderr[-3000:]
    assert result["attempted"] >= 1
    return result, lines[:-1]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, lines = result_of(run(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in REPORTED[workload]:
        assert any(line.startswith(f"metric {name} = ") for line in lines), name
    assert any(line.startswith("machine ") for line in lines)
    assert any(line.startswith("fingerprint ") for line in lines)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_per_layer_metric(workload):
    result, lines = result_of(run(workload, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert float(result["metrics"]["autodiff.tape_nodes_per_batch"]["value"]).is_integer()
    for name in TRACE_TABLE:
        assert any(line.startswith((f"metric {name} = ", f"layer {name} = n/a")) for line in lines), name
    for name in REACHED[workload]:
        assert any(line.startswith(f"metric {name} = ") for line in lines), name
    # a boundary a later version removes is listed here instead of crashing
    assert any(line.startswith("absent boundaries ") for line in lines)


def test_fails_without_program_sources(tmp_path):
    """A directory holding only the benchmark exits non-zero with no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = run("search", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
