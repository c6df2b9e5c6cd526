import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shotstego
from shotstego import cli
from shotstego.imageio import read_pgm16


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def ws(tmp_path):
    return lambda name: str(tmp_path / name)


def test_capture_embed_extract_round_trip(ws):
    """Default flags on a 512x512 flat scene: the message comes back
    byte-exact and every step exits 0."""
    assert run("capture", "--key-out", ws("k.pgm"), "--cover-out", ws("c.pgm"),
               "--seed", "77") == 0
    message = b"the park bench, noon, umbrella open"
    with open(ws("m.bin"), "wb") as fh:
        fh.write(message)
    assert run("embed", "--key", ws("k.pgm"), "--cover", ws("c.pgm"),
               "--message", ws("m.bin"), "--stego-out", ws("s.pgm")) == 0
    assert run("extract", "--stego", ws("s.pgm"), "--key", ws("k.pgm"),
               "--message-out", ws("out.bin")) == 0
    with open(ws("out.bin"), "rb") as fh:
        assert fh.read() == message


def test_extract_with_wrong_key_exits_3(ws):
    assert run("capture", "--width", "256", "--height", "256",
               "--key-out", ws("k.pgm"), "--cover-out", ws("c.pgm"),
               "--seed", "78") == 0
    with open(ws("m.bin"), "wb") as fh:
        fh.write(b"not for the cover image")
    assert run("embed", "--key", ws("k.pgm"), "--cover", ws("c.pgm"),
               "--message", ws("m.bin"), "--stego-out", ws("s.pgm")) == 0
    rc = run("extract", "--stego", ws("s.pgm"), "--key", ws("c.pgm"),
             "--message-out", ws("no.bin"))
    assert rc == 3
    assert not os.path.exists(ws("no.bin"))       # no partial artifact
    assert not os.path.exists(ws("no.bin") + ".tmp")


def test_usage_errors_exit_1(ws):
    assert run("capture", "--bogus", "1") == 1
    assert run("embed", "--key", ws("k.pgm")) == 1
    with pytest.raises(cli.UsageError):
        cli.build_parser().parse_args(["not-a-command"])


@pytest.mark.parametrize("command", ["embed", "extract"])
def test_block_pixels_below_1_exits_1(ws, command):
    assert run("capture", "--width", "64", "--height", "64",
               "--key-out", ws("k.pgm"), "--cover-out", ws("c.pgm")) == 0
    with open(ws("m.bin"), "wb") as fh:
        fh.write(b"x")
    files = {"embed": ["--key", ws("k.pgm"), "--cover", ws("c.pgm"),
                       "--message", ws("m.bin"), "--stego-out", ws("out")],
             "extract": ["--stego", ws("c.pgm"), "--key", ws("k.pgm"),
                         "--message-out", ws("out")]}[command]
    assert run(command, *files, "--block-pixels", "0") == 1
    assert not os.path.exists(ws("out"))


@pytest.mark.parametrize("command, flag, value", [
    ("calibrate", "--bin-width", "0"),
    ("calibrate", "--runs", "1"),
    ("calibrate", "--runs", "two"),
    ("demo-lsb", "--bin-width", "0"),
    ("demo-lsb", "--bin-width", "-4"),
    ("demo-lsb", "--seed", "-1"),
    ("demo-lsb", "--seed", str(2**64)),
    ("calibrate", "--seed", "-1"),
    ("calibrate", "--seed", str(2**64)),
    ("capture", "--seed", "-1"),
    ("capture", "--seed", str(2**64)),
])
def test_bad_flag_values_exit_1(ws, command, flag, value):
    """A flag value out of range is a usage error, rejected before any
    input is read or any output is written."""
    assert run("capture", "--width", "8", "--height", "8",
               "--key-out", ws("k.pgm"), "--cover-out", ws("c.pgm")) == 0
    outputs = {"calibrate": ["--width", "8", "--height", "8",
                             "--calibration-out", ws("out.cal")],
               "demo-lsb": ["--image", ws("k.pgm"), "--out-prefix", ws("out")],
               "capture": ["--width", "8", "--height", "8",
                           "--key-out", ws("out-k.pgm"), "--cover-out", ws("out-c.pgm")]}[command]
    assert run(command, *outputs, flag, value) == 1
    assert sorted(os.listdir(os.path.dirname(ws("k.pgm")))) == ["c.pgm", "k.pgm"]


def test_io_errors_exit_2(ws):
    assert run("extract", "--stego", ws("missing.pgm"), "--key", ws("missing.pgm"),
               "--message-out", ws("x.bin")) == 2
    with open(ws("bad.pgm"), "wb") as fh:
        fh.write(b"P5\n1 1\n255\n\x00")
    assert run("analyze", "--image", ws("bad.pgm"), "--calibration", ws("nope.cal"),
               "--report-out", ws("r.txt")) == 2


def test_failed_write_leaves_no_temp_file(ws, tmp_path):
    """The output path is an existing directory: the final rename fails,
    the command exits 2, and the complete stego image written to the temp
    file is removed with it. A capture whose cover cannot be written leaves
    no key image either."""
    os.mkdir(ws("d.pgm"))
    assert run("capture", "--width", "128", "--height", "128",
               "--key-out", ws("k.pgm"), "--cover-out", ws("d.pgm")) == 2
    assert not os.path.exists(ws("k.pgm"))
    assert list(tmp_path.glob("*.tmp")) == []
    assert run("capture", "--width", "128", "--height", "128",
               "--key-out", ws("k.pgm"), "--cover-out", ws("c.pgm")) == 0
    with open(ws("m.bin"), "wb") as fh:
        fh.write(b"no partial artifact")
    os.mkdir(ws("s.pgm"))
    assert run("embed", "--key", ws("k.pgm"), "--cover", ws("c.pgm"),
               "--message", ws("m.bin"), "--stego-out", ws("s.pgm")) == 2
    assert list(tmp_path.glob("*.tmp")) == []
    assert os.listdir(ws("s.pgm")) == []


def test_unsuitable_inputs_exit_2(ws, warden_ws):
    # image too small for the pairs-of-values statistic
    assert run("capture", "--width", "64", "--height", "64", "--mean-level", "100",
               "--key-out", ws("tiny-k.pgm"), "--cover-out", ws("tiny-c.pgm")) == 0
    assert run("analyze", "--image", ws("tiny-k.pgm"),
               "--calibration", warden_ws("flat100.cal"),
               "--report-out", ws("r.txt")) == 2
    # reference pair with mismatched dimensions
    assert run("analyze", "--image", warden_ws("k.pgm"),
               "--reference", ws("tiny-c.pgm"),
               "--calibration", warden_ws("flat100.cal"),
               "--report-out", ws("r2.txt")) == 2


@pytest.mark.parametrize("flag, value", [
    ("--mean-level", "nan"), ("--mean-level", "inf"), ("--mean-level", "1e39"),
    ("--read-noise-sigma", "nan"), ("--read-noise-sigma", "inf"),
    ("--read-noise-sigma", "1e39"),
    ("--width", "0"), ("--mean-level", "-5"), ("--full-well", "0"),
    ("--read-noise-sigma", "-1"), ("--exposure-jitter-fraction", "2")])
def test_non_finite_capture_inputs_exit_2(ws, tmp_path, flag, value):
    """A scene or sensor value out of range, non-finite ones included, is
    refused by the camera rather than the parser: capture and calibrate
    both exit 2 and write nothing."""
    outputs = {"capture": ["--key-out", ws("k.pgm"), "--cover-out", ws("c.pgm")],
               "calibrate": ["--calibration-out", ws("out.cal")]}
    for command, out in outputs.items():
        assert run(command, "--width", "16", "--height", "16", flag, value, *out) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["0", "-3", "70000"])
def test_full_well_out_of_range_exits_2(ws, tmp_path, value):
    """embed and extract refuse a --full-well outside [1, 65535] with exit 2
    and write nothing, rather than reading it as a zero capacity (exit 1 or
    3) or as an ordinary mask (exit 0)."""
    assert run("capture", "--width", "64", "--height", "64",
               "--key-out", ws("k.pgm"), "--cover-out", ws("c.pgm")) == 0
    with open(ws("m.bin"), "wb") as fh:
        fh.write(b"full well")
    assert run("embed", "--key", ws("k.pgm"), "--cover", ws("c.pgm"),
               "--message", ws("m.bin"), "--stego-out", ws("s.pgm")) == 0
    inputs = sorted(tmp_path.iterdir())
    assert run("embed", "--key", ws("k.pgm"), "--cover", ws("c.pgm"),
               "--message", ws("m.bin"), "--stego-out", ws("s2.pgm"),
               "--full-well", value) == 2
    assert run("extract", "--stego", ws("s.pgm"), "--key", ws("k.pgm"),
               "--message-out", ws("out.bin"), "--full-well", value) == 2
    assert sorted(tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("flag, value, embed_code, extract_code", [
    ("--block-pixels", 2**50, 1, 3), ("--block-pixels", 10**20, 1, 3),
    ("--parity-symbols", 252, 0, 0), ("--parity-symbols", 254, 0, 0),
    ("--parity-symbols", 256, 1, 1),
    ("--full-well", 0, 2, 2), ("--full-well", 65536, 2, 2),
    ("--mixing-seed", -1, 1, 1), ("--mixing-seed", 2**64, 1, 1)])
def test_plan_flag_extremes_exit_cleanly(ws, tmp_path, capsys, flag, value,
                                         embed_code, extract_code):
    """One plan flag at an extreme: embed, then extract from what it wrote
    (from the cover where it wrote nothing). Each exits with its documented
    code and no traceback, and writes its output only on exit 0, where the
    message comes back."""
    assert run("capture", "--width", "200", "--height", "200",
               "--key-out", ws("k.pgm"), "--cover-out", ws("c.pgm")) == 0
    message = b"plan flags"  # 4590 coded bytes at parity 254, within 40000 bits
    with open(ws("m.bin"), "wb") as fh:
        fh.write(message)
    assert run("embed", "--key", ws("k.pgm"), "--cover", ws("c.pgm"), "--message", ws("m.bin"),
               "--stego-out", ws("s.pgm"), flag, str(value)) == embed_code
    assert os.path.exists(ws("s.pgm")) == (embed_code == 0)
    stego = ws("s.pgm") if embed_code == 0 else ws("c.pgm")
    assert run("extract", "--stego", stego, "--key", ws("k.pgm"),
               "--message-out", ws("out.bin"), flag, str(value)) == extract_code
    if extract_code == 0:
        with open(ws("out.bin"), "rb") as fh:
            assert fh.read() == message
    else:
        assert not os.path.exists(ws("out.bin"))
    assert list(tmp_path.glob("*.tmp")) == []
    assert "Traceback" not in capsys.readouterr().err


def test_message_too_large_exits_1(ws):
    assert run("capture", "--width", "64", "--height", "64",
               "--key-out", ws("k.pgm"), "--cover-out", ws("c.pgm")) == 0
    with open(ws("big.bin"), "wb") as fh:
        fh.write(b"\x00" * 5000)
    assert run("embed", "--key", ws("k.pgm"), "--cover", ws("c.pgm"),
               "--message", ws("big.bin"), "--stego-out", ws("s.pgm")) == 1
    assert not os.path.exists(ws("s.pgm"))


def test_seeded_runs_are_byte_reproducible(ws):
    for suffix in ("1", "2"):
        assert run("capture", "--width", "128", "--height", "128", "--seed", "500",
                   "--key-out", ws(f"k{suffix}.pgm"),
                   "--cover-out", ws(f"c{suffix}.pgm")) == 0
    with open(ws("k1.pgm"), "rb") as a, open(ws("k2.pgm"), "rb") as b:
        assert a.read() == b.read()


@pytest.fixture(scope="module")
def warden_ws(tmp_path_factory):
    """Calibration plus clean captures at the detector operating point,
    shared across the analyze tests."""
    d = tmp_path_factory.mktemp("warden")
    ws = lambda name: str(d / name)  # noqa: E731
    rc = cli.main(["calibrate", "--width", "256", "--height", "256",
                   "--pattern", "flat", "--mean-level", "100", "--seed", "900",
                   "--runs", "100", "--calibration-out", ws("flat100.cal")])
    assert rc == 0
    rc = cli.main(["capture", "--width", "256", "--height", "256",
                   "--pattern", "flat", "--mean-level", "100", "--seed", "901",
                   "--key-out", ws("k.pgm"), "--cover-out", ws("c.pgm")])
    assert rc == 0
    return ws


def test_analyze_flags_lsb_but_not_stego(warden_ws):
    ws = warden_ws
    # LSB baseline: demo-lsb output must be flagged
    assert cli.main(["demo-lsb", "--image", ws("k.pgm"), "--seed", "7",
                     "--out-prefix", ws("demo")]) == 0
    rc = cli.main(["analyze", "--image", ws("demo.pgm"),
                   "--calibration", ws("flat100.cal"),
                   "--report-out", ws("lsb-report.txt"), "--fail-on-suspicious"])
    assert rc == 4
    with open(ws("lsb-report.txt"), "rb") as fh:
        assert b"verdict suspicious" in fh.read()

    # pixel-selection stego: indistinguishable, analyze exits 0
    with open(ws("m.bin"), "wb") as fh:
        fh.write(b"x" * 1500)
    assert cli.main(["embed", "--key", ws("k.pgm"), "--cover", ws("c.pgm"),
                     "--message", ws("m.bin"), "--stego-out", ws("s.pgm")]) == 0
    rc = cli.main(["analyze", "--image", ws("s.pgm"),
                   "--calibration", ws("flat100.cal"),
                   "--report-out", ws("stego-report.txt"), "--fail-on-suspicious"])
    assert rc == 0


def test_demo_lsb_outputs(warden_ws):
    ws = warden_ws
    assert cli.main(["demo-lsb", "--image", ws("k.pgm"), "--seed", "8",
                     "--out-prefix", ws("pair")]) == 0
    embedded = read_pgm16(open(ws("pair.pgm"), "rb").read())
    original = read_pgm16(open(ws("k.pgm"), "rb").read())
    changed = embedded.pixels != original.pixels
    assert 0.3 < float(np.mean(changed)) < 0.7  # half the LSBs flip
    with open(ws("pair-original-hist.csv")) as fh:
        header = fh.readline().strip()
    assert header == "bin_low,bin_high,count"
    assert os.path.exists(ws("pair-lsb-hist.csv"))


def test_analyze_with_reference_pair(warden_ws):
    ws = warden_ws
    rc = cli.main(["analyze", "--image", ws("k.pgm"), "--reference", ws("c.pgm"),
                   "--calibration", ws("flat100.cal"),
                   "--report-out", ws("pair-report.txt")])
    assert rc == 0
    with open(ws("pair-report.txt"), "rb") as fh:
        text = fh.read().decode()
    assert "norm_dev" in text and "autocorr" in text


@pytest.mark.parametrize("old, new", [
    ("\nreference_counts ", "\nreference_counts 5:-3 "),
    ("\nreference_total 65536\n", "\nreference_total -65536\n"),
])
def test_analyze_rejects_inconsistent_reference_counts(warden_ws, ws, old, new):
    """A negative count or a total that is not the sum of the counts would
    make KL NaN, which no threshold trips: exit 2 and no report, not a
    silent "clean"."""
    with open(warden_ws("flat100.cal"), "rb") as fh:
        text = fh.read().decode()
    assert old in text
    with open(ws("bad.cal"), "w") as fh:
        fh.write(text.replace(old, new))
    assert run("analyze", "--image", warden_ws("k.pgm"), "--calibration", ws("bad.cal"),
               "--report-out", ws("r.txt"), "--fail-on-suspicious") == 2
    assert not os.path.exists(ws("r.txt"))


def test_analyze_rejects_image_of_another_size(warden_ws, ws, capsys):
    """A 256^2 calibration does not describe a 128^2 image: exit 2 and no
    report, not a verdict against the wrong null."""
    assert run("capture", "--width", "128", "--height", "128", "--pattern", "flat",
               "--mean-level", "100", "--key-out", ws("k.pgm"), "--cover-out", ws("c.pgm")) == 0
    capsys.readouterr()
    assert run("analyze", "--image", ws("k.pgm"), "--calibration", warden_ws("flat100.cal"),
               "--report-out", ws("r.txt")) == 2
    assert "65536 pixels, not 16384" in capsys.readouterr().err
    assert not os.path.exists(ws("r.txt"))


def test_analyze_rejects_invalid_calibration(warden_ws, ws, capsys):
    """A reference_counts index past the last bin: exit 2 with a one-line
    error, and no report."""
    with open(warden_ws("flat100.cal"), "rb") as fh:
        text = fh.read().decode()
    with open(ws("bad.cal"), "w") as fh:
        fh.write(text.replace("\nreference_counts ", "\nreference_counts 70000:3 "))
    capsys.readouterr()
    assert run("analyze", "--image", warden_ws("k.pgm"), "--calibration", ws("bad.cal"),
               "--report-out", ws("r.txt")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not os.path.exists(ws("r.txt"))


def test_cli_runs_without_scipy(tmp_path):
    """numpy is the only runtime dependency: with a shadow scipy that
    refuses to import first on the path, every command of a 128x128 flat
    lambda = 100 round trip exits 0 in a fresh process, and the payload
    comes back."""
    shadow = tmp_path / "shadow" / "scipy"
    shadow.mkdir(parents=True)
    (shadow / "__init__.py").write_text("raise ImportError('scipy is not installed')\n")
    src = Path(shotstego.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(shadow.parent), str(src)]))
    message = b"numpy alone"
    (tmp_path / "m.bin").write_bytes(message)
    scene = ["--width", "128", "--height", "128", "--mean-level", "100"]
    steps = [
        ["capture", *scene, "--key-out", "k.pgm", "--cover-out", "c.pgm"],
        ["embed", "--key", "k.pgm", "--cover", "c.pgm", "--message", "m.bin",
         "--stego-out", "s.pgm"],
        ["extract", "--stego", "s.pgm", "--key", "k.pgm", "--message-out", "out.bin"],
        ["calibrate", *scene, "--runs", "100", "--calibration-out", "flat.cal"],
        ["analyze", "--image", "s.pgm", "--calibration", "flat.cal", "--report-out", "r.txt"],
    ]
    for argv in steps:
        done = subprocess.run([sys.executable, "-m", "shotstego.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, (argv[0], done.stderr)
    assert (tmp_path / "out.bin").read_bytes() == message
