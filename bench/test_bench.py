"""Self-tests of the benchmark: span arithmetic, instrumentation that
restores what it patched, and a tiny-size smoke run of every workload.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".bytes", ".slots", ".px", ".ok_ratio")


@pytest.fixture(scope="module")
def program():
    run.load_program()
    import shotstego
    return shotstego


def _span(name, parent, start, end):
    return [name, 0, parent, start, end, 0, True]


def test_self_times_on_nested_tree():
    tree = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("statcheck.ward_test", 0, 1.0, 4.0),
        _span("statcheck.histogram", 1, 2.0, 3.0),
        _span("imageio.write_report", 0, 5.0, 9.0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    metrics = spans.layer_metrics(tree, n_ops=2, overhead_frac=0.25)
    assert metrics["cli.main.self_ms"]["value"] == 1500.0
    assert metrics["statcheck.ward_test.self_ms"]["value"] == 1000.0
    assert metrics["imageio.write_report.self_ms"]["value"] == 2000.0
    assert metrics["codec.rs_decode.calls"]["value"] == 0
    assert metrics["trace.overhead_frac"]["value"] == 0.25
    assert set(metrics) == set(spans.METRICS)


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(v) for v in range(20)]) == (14.0, 75.0)  # short run: p75
    value, pct = run.tail([float(v) for v in range(100)])
    assert (value, pct) == (89.0, 90.0)  # ten samples lie above it


def _bindings():
    return {(m.__name__, attr): v for m in spans._package_modules()
            for attr, v in vars(m).items() if callable(v)}


def test_instrumentation_catches_internal_calls_and_restores(program):
    from shotstego import camera, cli, pipeline, statcheck
    before = _bindings()
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder):
        assert statcheck.capture is camera.capture  # the from-import is patched too
        assert camera.capture is not before[("shotstego.camera", "capture")]
        assert cli.capture_pair is camera.capture_pair  # not a target
        scene = camera.make_scene(64, 64, "flat", 1e4)
        key, cover = camera.capture_pair(scene, camera.SensorConfig(seed=3))
        res = pipeline.embed_message(key, cover, b"hello", parity_symbols=8)
        assert pipeline.extract_message(res.stego_image, key) == b"hello"
    assert _bindings() == before
    names = [s[0] for s in recorder.spans]
    assert names.count("camera.capture") == 2  # via capture_pair's module global
    encode = recorder.spans[names.index("codec.rs_encode")]
    assert recorder.spans[encode[2]][0] == "pipeline.embed_message"


def test_traced_run_restores_originals(program):
    import workloads
    before = _bindings()
    args = argparse.Namespace(workload="warden", seed=1, seconds=0.0, tiny=True)
    run.OUT_DIR.mkdir(exist_ok=True)
    loop, metrics, _ = run.traced(args, workloads, spans)
    assert _bindings() == before
    assert not loop.failures
    assert metrics["cli.main.self_ms"]["value"] > 0


def _bench(*args, cwd=run.ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_workload_names(program):
    import workloads
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run_emits_every_metric(workload):
    common = ["--workload", workload, "--seed", "3", "--seconds", "0.3", "--tiny"]
    metrics = _result(_bench(*common, "--trace", "0"))
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    traced = [_result(_bench(*common, "--trace", "1")) for _ in range(2)]
    assert set(traced[0]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in t.items() if k.endswith(COUNT_SUFFIXES)}
              for t in traced]
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "warden", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode == 2
    assert '"metrics"' not in proc.stdout
