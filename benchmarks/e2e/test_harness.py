"""Tests of the end-to-end benchmark harness (short horizons)."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import harness
import run
import spans

BENCHMARK = json.loads(run.BENCHMARK_FILE.read_text())


def test_benchmark_file_names_the_harness_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    expected = json.loads(harness.EXPECTED_FILE.read_text())
    assert expected["seed"] == harness.DEFAULT_SEED
    assert list(expected["digests"]) == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace, listed", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_workload_emits_every_metric_with_its_unit(tmp_path, trace, listed):
    trace_arg = str(tmp_path) if trace == "1" else "0"
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--rounds", "3", "--trace", trace_arg],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    reps = sum(w.reps + (trace == "1") for w in harness.WORKLOADS.values())
    assert result["attempted"] == 3 * reps
    for workload in harness.WORKLOADS:
        for metric in BENCHMARK[listed]:
            reported = result["metrics"][f"{workload}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))
    printed = "\n".join(lines[:-1])
    for metric in BENCHMARK[listed]:
        assert f"{metric['name']} " in printed and f"  {metric['unit']}" in printed


def test_wrong_expected_digest_fails_every_round(monkeypatch, capsys):
    def child(job, timeout):
        return harness.measure(job["workload"], rounds=job["rounds"])

    monkeypatch.setattr(harness, "committed_digest", lambda name, seed, rounds: "0" * 64)
    monkeypatch.setattr(run, "run_child", child)
    assert run.main(["--workload", "flashcrowd_50k", "--rounds", "3"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 3 * harness.WORKLOADS["flashcrowd_50k"].reps
    assert result["metrics"] == {}


@pytest.mark.parametrize("name", ["checkpoint_25k", "churn_20k"])
def test_traced_run_reproduces_the_digest_and_accounts_for_the_loop(tmp_path, name):
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in spans.PATCHES}
    rounds = 4
    # The checkpoint workload continues on restored sessions, which must
    # stay traced; the others take one checkpoint cycle after the loop.  A
    # correct result means the traced repetition's digest equals the
    # untraced ones' (and, for the checkpoint workload, the uninterrupted
    # run's), and the restored session reproduces it.
    result = harness.measure(name, rounds=rounds, trace_dir=tmp_path)
    assert result["correct"], result["problems"]
    assert result["repetitions"] == harness.WORKLOADS[name].reps + 1
    metrics = result["metrics"]
    assert metrics["core.matching.match_calls"][0] == rounds
    checkpoints = rounds if harness.WORKLOADS[name].checkpoint else 1
    assert metrics["api.session.restore_calls"][0] == checkpoints
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original

    # The spans of the loop's rounds account for the loop time; the cycle
    # after the last round is stamped with round index ``rounds``.
    dump = json.loads((tmp_path / f"{name}.spans.json").read_text())
    tracer = spans.Tracer()
    tracer.spans = [
        [dump["names"][code], *rest] for code, *rest in dump["spans"] if rest[-1] < rounds
    ]
    self_ns = sum(layer["self_ns"] for layer in tracer.layer_times().values())
    loop_ns = metrics["trace.loop_ms"][0] * 1e6
    assert abs(self_ns - loop_ns) <= 0.02 * loop_ns
