"""Tests of the benchmark itself: pinned counters and its declared metrics.

Run from the repository root with ``python -m pytest perfbench``.

Counters come from pass 1 traced after pass 0 untraced, as in a
``--trace 1`` run.  They repeat exactly for a given seed, so they can gate a
change where wall time cannot.  A change that moves
``embedding.first_copy.calls`` on purpose, such as a carving memo, updates
the pin and says so.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def traced_pass(name: str, seed: int, tmp_path) -> dict:
    workload = workloads.make(name, seed, tmp_path / "inputs")
    try:
        run.run_pass(workload, 0)
        result = run.run_pass(workload, 1, tracing.Tracer())
    finally:
        workload.close()
    assert result["failures"] == []
    return result["layers"]


def counters(layers: dict) -> dict:
    """The deterministic metrics: counts and ratios of counts."""
    return {k: v for k, v in layers.items() if isinstance(v, int) or k.endswith("_ratio")}


def test_carve_wide_first_copy_calls_pinned(tmp_path):
    assert traced_pass("carve-wide", 0, tmp_path)["embedding.first_copy.calls"] == 502


def test_census_nodes_pinned(tmp_path):
    # one DFS node per counted family: the counts the pass asks for, plus
    # the experiment table's own counts of V-free families over [2] and [3]
    expected = sum(want for *_, want in workloads.COUNTS) + sum(
        count for count, _, _ in workloads.EXPERIMENT.values()
    )
    assert expected == 5636
    assert traced_pass("census", 0, tmp_path)["census.count_p_free.nodes"] == expected


def test_census_count_of_dedekind_m5(tmp_path):
    census = workloads.make("census", 0, tmp_path / "inputs")
    try:
        name, n, want = workloads.DEDEKIND_M5
        op = census._cli_op("count", name, n, f"{want}\n")
        assert op.check(op.run())
    finally:
        census.close()


def traced_run(name: str, seed: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_counters_repeat_across_runs():
    first = counters(traced_run("carve-narrow", 3))
    second = counters(traced_run("carve-narrow", 3))
    assert first == second
    assert first["embedding.first_copy.calls"] > 0


def test_declared_metrics_match_the_output():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(
        run.LAYER_METRICS
    )
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
