"""The top level holds what a user calls, and the demos use only that.

Internals stay importable from their modules; a demo that needs one
imports it from there. The demos' imports are parsed, so a trimmed top
level shows up here by name, and each demo is also run in a subprocess
against `src/` and must exit 0.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shotstego
from shotstego import camera, statcheck

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

PUBLIC = {
    "embed_message", "extract_message",
    "SceneRadiance", "SensorConfig", "make_scene", "capture", "capture_pair",
    "RawImage", "read_pgm16", "write_pgm16", "write_report",
    "Calibration", "AnalysisReport", "build_calibration", "ward_test",
    "read_calibration", "write_calibration",
    "CodecError", "DecodeError", "PgmFormatError", "CalibrationError",
}


def test_all_is_the_public_surface():
    assert len(shotstego.__all__) == len(PUBLIC)
    assert set(shotstego.__all__) == PUBLIC
    for name in shotstego.__all__:
        assert getattr(shotstego, name) is not None


def top_level_imports_outside_all(source: str) -> list[str]:
    return sorted(
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "shotstego"
        for alias in node.names if alias.name not in shotstego.__all__)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_only_public_names(demo):
    assert top_level_imports_outside_all(demo.read_text()) == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    src = Path(shotstego.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_checker_flags_internal_names():
    source = ("from shotstego import embed_message, scatter\n"
              "from shotstego.codec import scatter\n")
    assert top_level_imports_outside_all(source) == ["line 1: scatter"]


def test_import_leaves_scipy_stats_out():
    """The package and its CLI need numpy alone and load no scipy module:
    scipy.special added about 0.23 s and 25 MB of peak RSS to a fresh
    `import shotstego.cli` (2-core Xeon, compiled from source), and
    scipy.stats would add about 0.6 s and 45 MB more."""
    src = Path(shotstego.__file__).resolve().parents[1]
    code = ("import sys, shotstego, shotstego.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def _bench_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_targets_resolve():
    """Every function the benchmark traces is a callable of shotstego, and
    the pixel-counted ones take their image or scene first. statcheck keeps
    its own binding of capture, which the benchmark's tracer patches too."""
    spans = _bench_spans()
    for name, amount in spans.TARGETS.items():
        module, func = name.split(".")
        fn = getattr(importlib.import_module(f"shotstego.{module}"), func, None)
        assert callable(fn), name
        if amount is spans._px:
            first = next(iter(inspect.signature(fn).parameters.values()))
            assert first.annotation in ("RawImage", "SceneRadiance"), name
    assert statcheck.capture is camera.capture
