"""Self-tests of the benchmark. Run from the repository root with

    python3 -m pytest benchmark -q

They take about a minute: each workload runs for one second, the
traced replay for six.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(*args):
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert ([(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
            == [m[:3] for m in run.PER_LAYER])
    assert all(moves for *_, moves in run.PER_LAYER)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_short_run_has_no_failed_operations(workload):
    result = _result("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _, _ in run.END_TO_END]
    assert result["metrics"]["ok_ops_frac"]["value"] == 1.0


def test_traced_replay_attributes_its_time_to_the_layers():
    result = _result("--workload", "replay", "--seed", "7", "--seconds", "6",
                     "--trace", "1")
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [name for name, *_ in run.PER_LAYER]
    assert metrics["experiment.plot_parse_ratio"] == pytest.approx(2.0, rel=1e-3)
    assert metrics["simkernel.steps"] == 80000
    layers = [metrics[f"{layer}.self_pct"] for layer in
              ("experiment", "simkernel.simulate", "analysis", "cli.main")]
    assert min(layers) > 0
    # The shares split the traced operations' time, and trace.overhead_pct
    # is the traced median over the untraced one. So the shares account for
    # the untraced op_ms_p50 within that overhead when (a) the program's
    # layers cover the traced time, leaving the harness a small share, and
    # (b) the overhead is small; (b) allows for the host's speed drift
    # between the few interleaved operations of a short run.
    assert metrics["harness.self_pct"] < 1.0
    assert abs(metrics["trace.overhead_pct"]) < 50.0


def test_corrupted_reference_digest_is_a_failed_operation(tmp_path):
    workload = run.Replay(run.load_program(), 0, tmp_path)
    corrupted = "nominal/summary.csv"
    workload.reference[corrupted] = "0" * 64
    result = run.measure(workload, 0)
    assert (result.attempted, result.failed) == (1, 1)
    assert corrupted in result.errors[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "replay", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
