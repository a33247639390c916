"""Tests of the benchmark itself: tracing, output checks and the result line.

Run from the repository root (they take about a minute)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def _bindings() -> dict[str, object]:
    """Every object bound in a ``clare`` module or on one of its classes."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "clare" and not mod_name.startswith("clare."):
            continue
        for name, value in vars(module).items():
            out[f"{mod_name}.{name}"] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[f"{mod_name}.{name}.{attr}"] = member
    return out


@pytest.fixture(scope="module")
def workdir():
    path = os.path.join(run.WORK, f"tests-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def passes(workdir):
    """Each workload set up and run once untraced, then once traced."""
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        plain = workload.run_once(workload.setup(SEED, workdir))
        before = _bindings()
        tracer = tracing.LayerTracer()
        with tracer.installed():
            traced = workload.run_once(workload.setup(SEED, workdir))
        out[name] = (plain, traced, tracer, before, _bindings())
    return out


def test_every_wrapper_fires_on_the_workload_meant_to_exercise_it(passes):
    silent = [
        f"{t.metric} on {t.home}"
        for t in tracing.TARGETS
        if t.home is not None and passes[t.home][2].stats[t.metric][0] == 0
    ]
    assert silent == []
    for _, _, tracer, _, _ in passes.values():
        assert tracer.missing == []


def test_traced_and_untraced_runs_give_identical_outputs(passes):
    for name, (plain, traced, _, _, _) in passes.items():
        assert traced.fingerprint == plain.fingerprint, name
        assert all(traced.checks.values()), (name, traced.checks)


def test_wrappers_are_removed_after_the_traced_run(passes):
    for name, (_, _, tracer, before, after) in passes.items():
        assert tracer.leftovers() == [], name
        changed = [key for key in before if after.get(key) is not before[key]]
        assert changed == [], name


def test_work_counters_follow_the_shapes(passes):
    toy = passes["toy-quickstart"][2]
    assert toy.counters["gflop"] > 0
    assert toy.counters["graph_nodes"] / toy.counters["backward_roots"] > 1
    assert len(toy.step_ms) > 0
    replay_eval = passes["digits-replay-eval"][2]
    classes = workloads.DIGIT_CLASSES
    assert replay_eval.counters["replay_samples"] >= workloads.REPLAY_PER_CLASS * classes
    assert replay_eval.stats["numkit.backward"][0] == 0
    assert replay_eval.stats["numkit.optimizer_step"][0] == 0


def test_benchmark_json_names_the_metrics_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in tracing.PER_LAYER_METRICS.items()
    }


def _result(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_follows_the_contract(trace):
    done = _result(ROOT, "--workload", "toy-quickstart", "--seed", "5",
                   "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = tracing.PER_LAYER_METRICS if trace == "1" else run.END_TO_END
    assert list(result["metrics"]) == list(names)
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"}
        assert isinstance(value["value"], float)


def test_refuses_to_run_without_the_program(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = _result(bare, "--workload", "digits-g1", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
