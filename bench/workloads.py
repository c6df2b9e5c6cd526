"""The four benchmark workloads.

Each workload is a single-client closed loop: the runner calls
``prepare(i)`` to build the inputs of operation ``i`` (a pure function of
the seed and ``i``), then times the returned task, and starts operation
``i + 1`` only when the task has returned. A task raises ``OpFailure`` when
the program's output is wrong; any other exception is unexpected and
counts as a failure too. ``setup()`` builds the workload's pools and runs
one warm-up operation. ``finish()`` returns the run-level check failures
and ``details()`` the counts behind them.

Every input (scenes, sensor seeds, payloads, mixing seeds and the order of
operations) is drawn from ``numpy.random.default_rng([seed, stream, ...])``,
so the same seed gives the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile

import numpy as np

from shotstego import camera, cli, codec, imageio, pipeline, statcheck

PARITY = 32
WARMUP_OP = 1 << 30  # operation index of the warm-up op; never reached in a run

# rng streams
_SETUP, _OP, _BLOCK, _PASS = 0, 1, 2, 3


class OpFailure(Exception):
    """The program returned a wrong output."""


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _seed64(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 1 << 63))


class Workload:
    name = ""
    trace_ops = 1  # ops in one round of a traced run

    def __init__(self, seed: int, tiny: bool, out_dir: str):
        self.seed = seed
        self.tiny = tiny
        self.out_dir = out_dir

    def setup(self) -> None:
        self.prepare(WARMUP_OP)()

    def prepare(self, i: int):
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []

    def details(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class Exchange16k(Workload):
    """Alice embeds 16 kB, Bob extracts with length discovery (criterion 3b)."""

    name = "exchange-16k"
    trace_ops = 8
    pool_size = 8

    def setup(self):
        side = 128 if self.tiny else 512
        self.payload_len = 1024 if self.tiny else 16384
        scene = camera.make_scene(side, side, "pcb", 1e4)
        rng = _rng(self.seed, _SETUP)
        self.pool = [camera.capture_pair(scene, camera.SensorConfig(seed=_seed64(rng)))
                     for _ in range(self.pool_size)]
        super().setup()

    def prepare(self, i):
        rng = _rng(self.seed, _OP, i)
        key, cover = self.pool[int(rng.integers(self.pool_size))]
        payload = rng.bytes(self.payload_len)
        mixing_seed = _seed64(rng)

        def task():
            res = pipeline.embed_message(key, cover, payload, parity_symbols=PARITY,
                                         mixing_seed=mixing_seed)
            got = pipeline.extract_message(res.stego_image, key, parity_symbols=PARITY,
                                           mixing_seed=mixing_seed)
            if got != payload:
                raise OpFailure("recovered payload differs from the embedded one")
        return task


class ReceiveShort(Workload):
    """Bob receives 1-200 B notes; one receive in four uses the wrong key
    (capture index 2 of the same sensor, criterion 4)."""

    name = "receive-short"
    trace_ops = 64  # 16 blocks of four: three passes over the pool plus 16 wrong keys

    def setup(self):
        side = 128 if self.tiny else 512
        self.pool_size = 4 if self.tiny else 16
        # a fixed ladder of lengths, so every seed sees the same mix of work
        lengths = np.rint(np.linspace(1, 200, self.pool_size)).astype(int)
        scene = camera.make_scene(side, side, "pcb", 1e4)
        rng = _rng(self.seed, _SETUP)
        self.pool = []
        for length in rng.permutation(lengths):
            sensor = camera.SensorConfig(seed=_seed64(rng))
            key, cover = camera.capture_pair(scene, sensor)
            wrong = camera.capture(scene, sensor, 2)
            payload = rng.bytes(int(length))
            mixing_seed = _seed64(rng)
            stego = pipeline.embed_message(key, cover, payload, parity_symbols=PARITY,
                                           mixing_seed=mixing_seed).stego_image
            self.pool.append((stego, key, wrong, payload, mixing_seed))
        super().setup()

    def prepare(self, i):
        block, pos = divmod(i, 4)
        wrong_pos = int(_rng(self.seed, _BLOCK, block).integers(4))
        if pos == wrong_pos:
            stego, _, key, _, mixing_seed = self.pool[
                int(_rng(self.seed, _OP, i).integers(self.pool_size))]
            payload = None
        else:
            # right-key receives walk the pool in seeded passes, so each
            # image is received equally often
            r = 3 * block + pos - (pos > wrong_pos)
            order = _rng(self.seed, _PASS, r // self.pool_size).permutation(self.pool_size)
            stego, key, _, payload, mixing_seed = self.pool[int(order[r % self.pool_size])]

        def task():
            try:
                got = pipeline.extract_message(stego, key, parity_symbols=PARITY,
                                               mixing_seed=mixing_seed)
            except codec.DecodeError:
                if payload is not None:
                    raise OpFailure("right-key receive raised DecodeError") from None
                return
            if payload is None:
                raise OpFailure("wrong-key receive returned bytes")
            if got != payload:
                raise OpFailure("recovered payload differs from the embedded one")
        return task


class Warden(Workload):
    """A warden session through ``cli.main``: calibrate, then analyze 8
    clean, 8 pixel-selection stego and 8 LSB images (criterion 5, demo 03).

    Each session draws its 8 images per kind from a set-up pool of 24 per
    kind. A fixed image is either an outlier under most calibrations or
    under almost none, so the run's flag rate is an average over the
    images; with only 8 clean and 8 stego images it exceeds the 10% limit
    for about one seed in fifty at the battery's ~3% false-alarm rate.
    """

    name = "warden"
    trace_ops = 2
    kinds = ("clean", "stego", "lsb")
    pool_per_kind = 24
    per_session = 8
    side = 256  # also when tiny: smaller images raise the false-alarm rate

    def setup(self):
        self.dir = tempfile.mkdtemp(prefix="warden-", dir=self.out_dir)
        self.cal_path = os.path.join(self.dir, "cal.txt")
        self.report_path = os.path.join(self.dir, "report.txt")
        self.flagged = {kind: 0 for kind in self.kinds}
        self.judged = {kind: 0 for kind in self.kinds}
        scene = camera.make_scene(self.side, self.side, "flat", 100.0)
        rng = _rng(self.seed, _SETUP)
        self.images = {kind: [] for kind in self.kinds}
        for kind in self.kinds:
            for n in range(self.pool_per_kind):
                sensor = camera.SensorConfig(seed=_seed64(rng))
                if kind == "clean":
                    img = camera.capture(scene, sensor, 0)
                elif kind == "stego":
                    key, cover = camera.capture_pair(scene, sensor)
                    img = pipeline.embed_message(key, cover, rng.bytes(1800),
                                                 mixing_seed=_seed64(rng)).stego_image
                else:
                    img = camera.capture(scene, sensor, 0)
                    img = statcheck.lsb_embed(
                        img, codec.keyed_filler_bits(img.pixel_count, _seed64(rng)))
                path = os.path.join(self.dir, f"{kind}{n}.pgm")
                with open(path, "wb") as fh:
                    fh.write(imageio.write_pgm16(img))
                self.images[kind].append(path)
        super().setup()

    def prepare(self, i):
        rng = _rng(self.seed, _OP, i)
        side = str(self.side)
        calibrate = ["calibrate", "--width", side, "--height", side,
                     "--pattern", "flat", "--mean-level", "100", "--runs", "100",
                     "--seed", str(_seed64(rng)), "--calibration-out", self.cal_path]
        session = [(kind, self.images[kind][int(n)]) for kind in self.kinds
                   for n in rng.choice(self.pool_per_kind, self.per_session,
                                       replace=False)]

        def task():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(calibrate)
                if code != 0:
                    raise OpFailure(f"calibrate exited {code}")
                for kind, path in session:
                    code = cli.main(["analyze", "--image", path,
                                     "--calibration", self.cal_path,
                                     "--report-out", self.report_path,
                                     "--fail-on-suspicious"])
                    self._judge(kind, code)
        return task

    def _judge(self, kind, code):
        if code not in (0, 4):
            raise OpFailure(f"analyze exited {code}")
        try:
            with open(self.report_path, encoding="utf-8") as fh:
                report = fh.read()
        except FileNotFoundError:
            raise OpFailure("analyze wrote no report") from None
        os.remove(self.report_path)
        verdict = "suspicious" if code == 4 else "clean"
        if f"\nverdict {verdict}\n" not in report:
            raise OpFailure(f"report verdict disagrees with exit code {code}")
        self.judged[kind] += 1
        self.flagged[kind] += code == 4

    def finish(self):
        failures = []
        lsb = self.flagged["lsb"] / max(self.judged["lsb"], 1)
        if lsb < 0.9:
            failures.append(f"only {lsb:.1%} of LSB images flagged (need >= 90%)")
        quiet = ((self.flagged["clean"] + self.flagged["stego"])
                 / max(self.judged["clean"] + self.judged["stego"], 1))
        if quiet > 0.1:
            failures.append(f"{quiet:.1%} of clean and stego images flagged "
                            "(need <= 10%)")
        return failures

    def details(self):
        return {"flagged": self.flagged, "judged": self.judged}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class Bigframe(Workload):
    """A full exchange on a 4096^2 gradient: capture pair, embed, extract
    in block mode g=16. The only workload whose captures span several
    camera slabs."""

    name = "bigframe"
    trace_ops = 1

    def setup(self):
        side = 512 if self.tiny else 4096
        self.payload_len = 1024 if self.tiny else 16384
        self.scene = camera.make_scene(side, side, "gradient", 1000.0)
        super().setup()

    def prepare(self, i):
        rng = _rng(self.seed, _OP, i)
        sensor = camera.SensorConfig(seed=_seed64(rng))
        payload = rng.bytes(self.payload_len)
        mixing_seed = _seed64(rng)
        plan = dict(parity_symbols=PARITY, mixing_seed=mixing_seed, block_pixels=16)

        def task():
            key, cover = camera.capture_pair(self.scene, sensor)
            res = pipeline.embed_message(key, cover, payload, **plan)
            got = pipeline.extract_message(res.stego_image, key, **plan)
            if got != payload:
                raise OpFailure("recovered payload differs from the embedded one")
        return task


WORKLOADS = {w.name: w for w in (Exchange16k, ReceiveShort, Warden, Bigframe)}
