"""In-memory span recorder and the per-layer metrics of a traced run.

The benchmark wraps the public functions of shotstego's modules at the
places callers look them up (module attributes, and names bound by
``from ... import``), records one span per call with its parent span and
the operation it belongs to, and turns the spans into per-operation
metrics named ``<module>.<function>.<quantity>``. Nothing under ``src/`` is
changed; the originals are restored when the traced run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

PACKAGE = "shotstego"


def _px(args):  # a SceneRadiance or a RawImage
    return args[0].width * args[0].height


def _nbytes(args):
    return len(args[0])


def _count(args):
    return int(args[0])


# Wrapped function -> how much work one call does (None: no amount).
TARGETS = {
    "camera.capture": _px,
    "codec.rs_encode": _nbytes,
    "codec.rs_decode": None,
    "codec.mixing_permutation": _count,
    "codec.keyed_filler_bits": None,
    "codec.scatter": None,
    "codec.gather": None,
    "stego.default_usable_mask": None,
    "stego.embed": _px,
    "stego.extract": _px,
    "statcheck.build_calibration": None,
    "statcheck.histogram": None,
    "statcheck.kl_divergence": None,
    "statcheck.chi_square_attack": None,
    "statcheck.autocorrelation": None,
    "statcheck.normalized_deviation": None,
    "statcheck.ward_test": None,
    "statcheck.read_calibration": None,
    "statcheck.write_calibration": None,
    "imageio.read_pgm16": _nbytes,
    "imageio.write_report": None,
    "pipeline.embed_message": None,
    "pipeline.extract_message": None,
    "cli.main": None,
}

# Per-layer metrics: name -> unit. Every span metric is per operation except
# the ratios (ok_ratio, ns_per_px), which are taken over the whole run.
METRICS = {
    "camera.capture.calls": "count",
    "camera.capture.self_ms": "ms",
    "camera.capture.ns_per_px": "ns/px",
    "codec.rs_encode.self_ms": "ms",
    "codec.rs_encode.bytes": "B",
    "codec.rs_decode.calls": "count",
    "codec.rs_decode.self_ms": "ms",
    "codec.rs_decode.ok_ratio": "ratio",
    "codec.mixing_permutation.self_ms": "ms",
    "codec.mixing_permutation.slots": "count",
    "codec.keyed_filler_bits.self_ms": "ms",
    "codec.scatter.self_ms": "ms",
    "codec.gather.calls": "count",
    "codec.gather.self_ms": "ms",
    "stego.default_usable_mask.self_ms": "ms",
    "stego.embed.self_ms": "ms",
    "stego.extract.self_ms": "ms",
    "stego.px": "count",
    "statcheck.build_calibration.self_ms": "ms",
    "statcheck.histogram.self_ms": "ms",
    "statcheck.kl_divergence.self_ms": "ms",
    "statcheck.chi_square_attack.self_ms": "ms",
    "statcheck.autocorrelation.self_ms": "ms",
    "statcheck.normalized_deviation.self_ms": "ms",
    "statcheck.ward_test.self_ms": "ms",
    "statcheck.read_calibration.self_ms": "ms",
    "statcheck.write_calibration.self_ms": "ms",
    "imageio.read_pgm16.self_ms": "ms",
    "imageio.read_pgm16.bytes": "B",
    "imageio.write_report.self_ms": "ms",
    "pipeline.embed_message.self_ms": "ms",
    "pipeline.extract_message.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class SpanRecorder:
    """Spans of one single-threaded process, kept in memory.

    Each span is a list ``[name, op, parent, start, end, amount, ok]``;
    ``parent`` is the index of the enclosing span or -1, ``op`` the
    operation the span belongs to.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, amount=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, self.op, parent, 0.0, 0.0,
                    amount(args) if amount else 0, False]
            spans.append(span)
            stack.append(idx)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[6] = True
                return result
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, parent, start, end, amount, ok in self.spans:
                fh.write(json.dumps({"name": name, "op": op, "parent": parent,
                                     "start": start, "end": end,
                                     "amount": amount, "ok": ok}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap each other and
    the part of a span its children cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for _name, _op, parent, start, end, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[4] - s[3]) - c for s, c in zip(spans, child)]


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


@contextmanager
def instrumented(recorder: SpanRecorder):
    """Replace every binding of each target function inside the package
    with a traced wrapper; restore the originals on exit."""
    modules = _package_modules()
    patches = []
    for qual, amount in TARGETS.items():
        mod_name, fn_name = qual.split(".")
        original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
        wrapper = recorder.wrap(qual, original, amount)
        for mod in modules:
            for attr in [a for a, v in vars(mod).items() if v is original]:
                patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)


def layer_metrics(spans, n_ops: int, overhead_frac: float) -> dict:
    """Per-operation per-layer metrics from the spans of ``n_ops`` ops."""
    totals = {q: {"calls": 0, "ok": 0, "self_s": 0.0, "amount": 0} for q in TARGETS}
    for span, self_s in zip(spans, self_times(spans)):
        t = totals[span[0]]
        t["calls"] += 1
        t["ok"] += span[6]
        t["self_s"] += self_s
        t["amount"] += span[5]

    def per_op(x):
        return x / n_ops

    values = {}
    for name in METRICS:
        if name == "trace.overhead_frac":
            values[name] = overhead_frac
        elif name == "stego.px":
            values[name] = per_op(totals["stego.embed"]["amount"]
                                  + totals["stego.extract"]["amount"])
        else:
            qual, _, quantity = name.rpartition(".")
            t = totals[qual]
            if quantity == "calls":
                values[name] = per_op(t["calls"])
            elif quantity == "self_ms":
                values[name] = per_op(t["self_s"] * 1e3)
            elif quantity == "ok_ratio":
                values[name] = t["ok"] / t["calls"] if t["calls"] else 0.0
            elif quantity == "ns_per_px":
                values[name] = t["self_s"] * 1e9 / t["amount"] if t["amount"] else 0.0
            else:  # bytes, slots: the work amount
                values[name] = per_op(t["amount"])
    return {name: {"value": v, "unit": METRICS[name]} for name, v in values.items()}
