"""Command-line surface for the capture / embed / extract / analyze flow.

Exit codes are a stable scripting contract:
  0  success
  1  usage error (bad flags, message too large)
  2  I/O or file-format error, or an input the library refuses: a scene or
     sensor value out of range (--width 0, a negative or non-finite
     --mean-level or --read-noise-sigma, --full-well outside [1, 65535],
     --exposure-jitter-fraction outside [0, 1)), an image a statistic
     cannot use
  3  decode failure (uncorrectable data or CRC mismatch; wrong key lands here)
  4  analysis verdict "suspicious" while --fail-on-suspicious is set

Outputs are written atomically (temp file + rename), and a command that
writes several removes those already written when a later one fails, so
no partial artifact survives an error. Every run with fixed seeds is
byte-reproducible for one numpy build on one CPU dispatch (see `camera`).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import codec, pipeline, statcheck
from .camera import DEFAULT_FULL_WELL, SensorConfig, capture, capture_pair, make_scene
from .codec import CodecError, DecodeError
from .imageio import PGM_MAXVAL, read_pgm16, write_pgm16, write_report


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _write_atomic(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    fh = open(tmp, "wb")  # if this fails, there is no temp file to remove
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _write_all(outputs: list[tuple[str, bytes]]) -> None:
    """Write each (path, data) atomically; when one write fails, remove the
    outputs already written, so a command leaves all of them or none."""
    written = []
    try:
        for path, data in outputs:
            _write_atomic(path, data)
            written.append(path)
    except BaseException:
        for path in written:
            os.remove(path)
        raise


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_image(path: str):
    return read_pgm16(_read_file(path))


def _add_scene_flags(p: _Parser) -> None:
    p.add_argument("--width", type=int, default=512)
    p.add_argument("--height", type=int, default=512)
    p.add_argument("--pattern", choices=("flat", "gradient", "pcb"), default="flat")
    p.add_argument("--mean-level", type=float, default=10000.0)


def _add_sensor_flags(p: _Parser) -> None:
    p.add_argument("--full-well", type=int, default=DEFAULT_FULL_WELL)
    p.add_argument("--read-noise-sigma", type=float, default=0.0)
    p.add_argument("--exposure-jitter-fraction", type=float, default=0.0)
    p.add_argument("--seed", type=_int_in(0, 2**64 - 1), default=1)


def _int_in(low: int, high: float = float("inf")):
    """An argparse type: an int in [low, high]; any other value is a usage
    error (exit 1) like any other bad flag."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_plan_flags(p: _Parser) -> None:
    p.add_argument("--parity-symbols", type=int, default=8)
    p.add_argument("--mixing-seed", type=_int_in(0, 2**64 - 1), default=1)
    p.add_argument("--block-pixels", type=_int_in(1), default=1)
    p.add_argument("--full-well", type=int, default=DEFAULT_FULL_WELL,
                   help="full well that bounds the usable pixels")


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The command-line parser, built once per process and shared by every
    call (argparse keeps no state between parses)."""
    parser = _Parser(prog="shotstego", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("capture", help="simulate a key/cover capture pair")
    _add_scene_flags(p)
    _add_sensor_flags(p)
    p.add_argument("--key-out", required=True)
    p.add_argument("--cover-out", required=True)

    p = sub.add_parser("embed", help="hide a message file in a stego image",
                       description="Hide a message file in a stego image. One key "
                                   "capture carries one message: two stego images "
                                   "made with one key share its values at about "
                                   "a quarter of their pixels, which the warden's "
                                   "pair statistics flag. A second message needs "
                                   "a fresh key capture, shared ahead like the "
                                   "first.")
    p.add_argument("--key", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--message", required=True, help="raw payload bytes")
    p.add_argument("--stego-out", required=True)
    _add_plan_flags(p)

    p = sub.add_parser("extract", help="recover the message with the key image")
    p.add_argument("--stego", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--message-out", required=True)
    _add_plan_flags(p)

    p = sub.add_parser("analyze", help="run the steganalysis battery")
    p.add_argument("--image", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--report-out", required=True)
    p.add_argument("--reference", default=None,
                   help="optional second capture of the same scene; enables "
                        "the pair statistics")
    p.add_argument("--fail-on-suspicious", action="store_true")

    p = sub.add_parser("demo-lsb", help="LSB-embed an image and dump paired "
                                        "histograms for comparison")
    p.add_argument("--image", required=True)
    p.add_argument("--seed", type=_int_in(0, 2**64 - 1), default=1)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--bin-width", type=_int_in(1, PGM_MAXVAL + 1), default=1)

    p = sub.add_parser("calibrate", help="build battery null distributions "
                                         "from clean simulated captures")
    _add_scene_flags(p)
    _add_sensor_flags(p)
    p.add_argument("--runs", type=_int_in(2), default=100)
    p.add_argument("--bin-width", type=_int_in(1, PGM_MAXVAL + 1), default=1)
    p.add_argument("--calibration-out", required=True)

    return parser


def _scene_and_sensor(args):
    scene = make_scene(args.width, args.height, args.pattern, args.mean_level)
    sensor = SensorConfig(full_well=args.full_well,
                          read_noise_sigma=args.read_noise_sigma,
                          exposure_jitter_fraction=args.exposure_jitter_fraction,
                          seed=args.seed)
    return scene, sensor


def _cmd_capture(args) -> int:
    key, cover = capture_pair(*_scene_and_sensor(args))
    _write_all([(args.key_out, write_pgm16(key)), (args.cover_out, write_pgm16(cover))])
    print(f"wrote {args.key_out} and {args.cover_out} "
          f"({args.width}x{args.height} {args.pattern})")
    return 0


def _cmd_embed(args) -> int:
    key = _load_image(args.key)
    cover = _load_image(args.cover)
    payload = _read_file(args.message)
    result = pipeline.embed_message(
        key, cover, payload,
        parity_symbols=args.parity_symbols, mixing_seed=args.mixing_seed,
        block_pixels=args.block_pixels, full_well=args.full_well)
    _write_atomic(args.stego_out, write_pgm16(result.stego_image))
    print(f"embedded {len(payload)} payload bytes "
          f"({result.coded_length} coded) into {args.stego_out}")
    return 0


def _cmd_extract(args) -> int:
    stego_img = _load_image(args.stego)
    key = _load_image(args.key)
    payload = pipeline.extract_message(
        stego_img, key,
        parity_symbols=args.parity_symbols, mixing_seed=args.mixing_seed,
        block_pixels=args.block_pixels, full_well=args.full_well)
    _write_atomic(args.message_out, payload)
    print(f"recovered {len(payload)} bytes into {args.message_out}")
    return 0


def _cmd_analyze(args) -> int:
    img = _load_image(args.image)
    cal = statcheck.read_calibration(_read_file(args.calibration))
    reference = _load_image(args.reference) if args.reference else None
    report = statcheck.ward_test(img, cal, reference)
    _write_atomic(args.report_out, write_report(report))
    print(f"verdict: {report.verdict} (kl={report.kl_bits:.6g} bits, "
          f"chi2 p={report.chi2_pvalue:.6g})")
    if args.fail_on_suspicious and report.verdict == "suspicious":
        return 4
    return 0


def _cmd_demo_lsb(args) -> int:
    img = _load_image(args.image)
    bits = codec.keyed_filler_bits(img.pixel_count, args.seed)
    embedded = statcheck.lsb_embed(img, bits)
    hist_clean = statcheck.histogram(img, args.bin_width)
    hist_lsb = statcheck.histogram(embedded, args.bin_width)
    _write_all([(args.out_prefix + ".pgm", write_pgm16(embedded)),
                (args.out_prefix + "-original-hist.csv", statcheck.histogram_csv(hist_clean)),
                (args.out_prefix + "-lsb-hist.csv", statcheck.histogram_csv(hist_lsb))])
    print(f"wrote {args.out_prefix}.pgm and paired histogram CSVs")
    return 0


def _cmd_calibrate(args) -> int:
    cal = statcheck.build_calibration(*_scene_and_sensor(args), runs=args.runs,
                                      bin_width=args.bin_width)
    _write_atomic(args.calibration_out, statcheck.write_calibration(cal))
    print(f"calibrated {args.runs} runs -> {args.calibration_out}")
    return 0


_COMMANDS = {
    "capture": _cmd_capture,
    "embed": _cmd_embed,
    "extract": _cmd_extract,
    "analyze": _cmd_analyze,
    "demo-lsb": _cmd_demo_lsb,
    "calibrate": _cmd_calibrate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except (UsageError, CodecError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DecodeError as exc:
        print(f"decode failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        # unreadable files, malformed PGM or calibration text, and unsuitable
        # inputs surfaced by the library (mismatched image dimensions, image
        # too small for a statistic, ...)
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
