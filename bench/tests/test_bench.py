"""Tests of the benchmark itself: run with ``python -m pytest bench/tests``."""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from outputs import OpOutput, judge  # noqa: E402
from tracer import Tracer  # noqa: E402


def _fake_module(name: str, code: str) -> types.ModuleType:
    module = types.ModuleType(name)
    exec(code, module.__dict__)
    return module


def test_self_time_is_total_minus_children():
    now = [0.0]
    fake = _fake_module(
        "fake",
        "def inner():\n"
        "    now[0] += 1.0\n"
        "def outer():\n"
        "    now[0] += 2.0\n"
        "    inner()\n"
        "    inner()\n"
        "    now[0] += 3.0\n"
        "def countdown(k):\n"
        "    now[0] += 1.0\n"
        "    if k:\n"
        "        countdown(k - 1)\n"
        "REGISTRY = {'inner': inner}\n",
    )
    fake.now = now
    user = _fake_module("user", "")
    user.outer = fake.outer
    original_outer = fake.outer
    tracer = Tracer({"fake": fake, "user": user}, clock=lambda: now[0])
    with tracer:
        assert user.outer is not original_outer
        assert fake.REGISTRY["inner"] is fake.inner
        user.outer()
        fake.countdown(2)
    assert user.outer is original_outer
    outer, inner, countdown = (tracer.get(f"fake.{n}") for n in ("outer", "inner", "countdown"))
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 7.0, 5.0)
    assert (inner.calls, inner.total_s, inner.self_s) == (2, 2.0, 2.0)
    assert outer.self_s == outer.total_s - inner.total_s
    # recursion: the outermost span counts once in total, every level in self
    assert (countdown.calls, countdown.total_s, countdown.self_s) == (3, 3.0, 3.0)
    assert tracer.layer_self_s() == {"fake": 10.0, "user": 0.0}


def test_missing_function_is_reported_absent(monkeypatch):
    modules = run._import_alignlab()
    monkeypatch.delattr(modules["bestofn"], "group_reward_levels")
    tracer = run.make_tracer(modules)
    with tracer:
        pass
    battery = run.Battery(wall_s=1.0, cpu_s=1.0, outputs=[], peak_rss_mb=1.0)
    values, absent = run.layer_metrics(tracer, [battery], [battery])
    assert "bestofn.group_reward_levels" in absent
    assert values["bestofn.group_reward_levels.calls"] == 0.0
    assert values["bestofn.group_reward_levels.self_s"] == 0.0
    assert set(values) == set(run.PER_LAYER) - {
        "ops_failed_frac",
        "checks.known_failing",
        "outputs.identical",
        "outputs.max_abs_dev",
        "reference.covered",
    }


def test_aborting_op_counts_as_failed(tmp_path, monkeypatch):
    """closeness-bound at seed 2 aborts with NonPositiveWeight in the tilt solver."""
    modules = run._import_alignlab()
    monkeypatch.setattr(run, "WORK", tmp_path)
    battery = run.run_battery(modules["cli"], "tiltsolve", (("closeness-bound",),), 2)
    tally = run.tally([battery], run.load_reference("tiltsolve", 2))
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
    assert "probabilities sum to" in tally.problems[0]


def test_check_flip_and_moved_field_are_wrong():
    reference = OpOutput(0, checks={"a": True}, exact={"x": 1.0}, sha256={"f": "0"}).to_record()
    same = judge(OpOutput(0, checks={"a": True}, exact={"x": 1.0 + 1e-12}, sha256={"f": "1"}), reference, None)
    assert not same.failed and same.identical is False and same.max_abs_dev == pytest.approx(1e-12)
    flipped = judge(OpOutput(1, checks={"a": False}, exact={"x": 1.0}), reference, None)
    assert len(flipped.wrong) == 2
    moved = judge(OpOutput(0, checks={"a": True}, exact={"x": 1.001}), reference, None)
    assert moved.wrong and not moved.errors


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, run.WORKLOADS[name].why) for name in run.GATED
    ]
    units = run.END_TO_END | run.PER_LAYER
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert entry["unit"] == units[entry["name"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
