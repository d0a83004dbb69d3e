#!/usr/bin/env python3
"""End-to-end benchmark of gripstream, with a traced per-layer run.

    PYTHONPATH=src python3 perfbench/run.py --workload simulate_record --seed 1 \
        --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

  simulate_record  synthesize -> emit -> encode two long glove sessions,
                   damage the captures (untimed), then feed -> session ->
                   record_session, as `gripstream record` does
  study_analyze    load a recorded study, then summaries, shares,
                   population means, two-way ANOVA, batch alerting, CSV
                   export and an SVG chart
  live_serve       `python -m gripstream serve` over loopback, fed by an
                   open-loop sender at a fixed accelerated rate

`--trace 0` measures end-to-end metrics; `--trace 1` alternates untraced
and traced repetitions and reports per-layer metrics and the tracing
overhead. Every output is checked against the benchmark's own references
(perfbench/reference.py); any mismatch makes the run exit 1. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs every workload, each in its own process.
"""

import argparse
import gc
import json
import os
import random
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("simulate_record", "study_analyze", "live_serve")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, smaller ones are for tests."""

    record_s: float = 300.0  # simulate_record: seconds of each glove's session
    drop_every: int = 400  # simulate_record: one frame in this many never sent
    subjects: int = 3  # study_analyze: subjects x 2 hands x 2 conditions
    study_s: float = 60.0  # study_analyze: seconds per session
    rate_hz: float = 1250.0  # live_serve: frames per second per glove (50 Hz = real time)
    setups: int = 3  # set-ups per run; setup_s is their median
    min_iterations: int = 3


THRESHOLD_N, HYSTERESIS_N, DEBOUNCE = 3.0, 0.5, 2
SHARE_SENSORS = (2, 3, 4, 5)
PLOT_SENSORS = (2, 4)
PRESET = "precision_lift"
STARTED_AT = "bench"

# Per-layer figures taken from the checks rather than from spans. A workload
# whose layers do not do that work reports 0 for them.
CHECK_FIGURES = (
    "protocol.events.crc_mismatch", "protocol.events.sync_loss", "protocol.events.format_error",
    "protocol.garbage_bytes", "protocol.frames_decoded_ratio", "ingest.events.sequence_gap",
    "ingest.events.duplicate_frame", "ingest.events.out_of_order", "ingest.missing_frames",
    "ingest.builder_mib_per_glove_hour", "alerting.alerts", "bench.alert_latency_p50_ms", "bench.alert_latency_p99_ms",
    "bench.alert_latency_samples", "bench.drain_ms", "bench.generator_late_ms",
    "bench.steal_pct",
)


def _import_package():
    """Put the checkout's src/ and benchmarks/ first on sys.path."""
    if not (ROOT / "src" / "gripstream" / "__init__.py").is_file():
        print(f"error: no gripstream sources under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    for sub in ("benchmarks", "src"):
        sys.path.insert(0, str(ROOT / sub))
    import gripstream

    if Path(gripstream.__file__).resolve().parent != ROOT / "src" / "gripstream":
        raise SystemExit(f"error: imported gripstream from {gripstream.__file__}, not this checkout")


class Tally:
    """Operations attempted and failed: glove-frames and checked outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def frames(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} frames missing or wrong")

    def outputs(self, want: list, got: list, what: str) -> None:
        """Compare two multisets of outputs; each unmatched item fails."""
        missing = Counter(want) - Counter(got)
        extra = Counter(got) - Counter(want)
        bad = sum(missing.values()) + sum(extra.values())
        self.attempted += len(want) + sum(extra.values())
        self.failed += bad
        if bad:
            self.problems.append(f"{what}: {sum(missing.values())} missing, "
                                 f"{sum(extra.values())} unexpected")


class Clock:
    """Accumulates wall and CPU time over the timed segments of one iteration."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self):
        self._w, self._c = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall += time.perf_counter() - self._w
        self.cpu += time.process_time() - self._c


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    frames: int
    counters: dict = field(default_factory=dict)


def _plan_record(seed: int, sizes: Sizes):
    from gripstream.core import Side
    from gripstream.simulate import SessionPlan, get_preset

    preset = get_preset(PRESET)
    return SessionPlan(
        profiles={Side.LEFT: preset, Side.RIGHT: preset},
        duration_s=sizes.record_s,
        seed=seed,
        dominant=Side.RIGHT if seed % 2 else Side.LEFT,
        waveform="lift",
    )


def _drop_and_salt(blob: bytes, dropped, salt_seed: int) -> bytes:
    """The damage: drop whole frames, then bench_codec's garbage runs and bit flips."""
    import numpy as np
    from bench_codec import salt_stream

    frames = np.frombuffer(blob, dtype=np.uint8).reshape(-1, 36)
    kept = np.delete(frames, dropped, axis=0).tobytes()
    return salt_stream(kept, random.Random(salt_seed))


# ---------------------------------------------------------------------------
# simulate_record


class SimulateRecord:
    """The write path: synthesize, emit, encode, damage, then feed, session, record."""

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed, self.sizes, self.work = seed, sizes, work

    def setup(self) -> None:
        """Plan, reference frames and wire bytes, damage and its ledger."""
        import numpy as np

        import reference as ref
        from gripstream.core import Calibration, GloveConfig

        cal, cfg = Calibration(), GloveConfig()
        self.plan = _plan_record(self.seed, self.sizes)
        self.matrices = ref.reference_frames(self.plan, cal, cfg)
        rng = np.random.default_rng([self.seed, 7])
        self.expect = {}
        for k, (side, matrix) in enumerate(self.matrices.items()):
            clean = ref.encode(matrix)
            n = len(matrix)
            dropped = np.sort(rng.choice(n, size=n // self.sizes.drop_every, replace=False))
            salt_seed = self.seed * 10 + k
            damaged = _drop_and_salt(clean, dropped, salt_seed)
            ledger = ref.reference_scan(damaged)
            rows = ref.surviving_frames(damaged, ledger) // 20
            gaps, missing = ref.gap_ledger(matrix.seq[rows])
            self.expect[side] = dict(
                clean=clean, dropped=dropped, salt_seed=salt_seed, rows=rows,
                digests=ref.tsv_digests(matrix, rows), ledger=ledger, gaps=gaps,
                missing=missing, damaged=damaged,
            )

    def iterate(self, tally: Tally) -> Iteration:
        from gripstream.core import Calibration, GloveConfig
        from gripstream.ingest import SessionBuilder, record_session
        from gripstream.simulate import emit_frames, encode_session, synthesize_session

        cal, cfg = Calibration(), GloveConfig()
        out = self.work / "record"
        clock = Clock()
        counters = {}
        with clock:
            trajectories = synthesize_session(self.plan, cal, cfg)
        frames = 0
        for side, traj in trajectories.items():
            exp = self.expect[side]
            with clock:
                blob = encode_session(emit_frames(traj, cal, cfg, side=side))
            frames += len(blob) // 36
            tally.check(blob == exp["clean"], f"{side.value}: encoded capture differs from reference")
            damaged = _drop_and_salt(blob, exp["dropped"], exp["salt_seed"])
            with clock:
                builder = SessionBuilder(subject="rec", condition="lift",
                                         dominant_side=self.plan.dominant, started_at=STARTED_AT)
                builder.feed(damaged)
                session = builder.session()
                manifest = record_session(session, out)
            for key, value in self._check(tally, side, exp, builder, session, manifest,
                                          len(damaged)).items():
                counters[key] = counters.get(key, 0) + value
        counters["protocol.frames_decoded_ratio"] = (
            counters.pop("frames_decoded") / counters.pop("frames_expected"))
        return Iteration(clock.wall, clock.cpu, frames, counters)

    def _check(self, tally, side, exp, builder, session, manifest, fed: int) -> dict:
        import reference as ref
        from gripstream.protocol import EventKind

        kinds = [ev.kind for ev in builder.events]
        count = {k: kinds.count(k) for k in EventKind}
        rows = exp["rows"]
        digests = {
            suffix: ref.file_digest(manifest.directory / f"{session.stem}_{suffix}.tsv")
            for suffix in exp["digests"]
        }
        failed = 0
        if digests != exp["digests"]:
            failed = ref.frame_failures(manifest.directory, session.stem,
                                        self.matrices[side], rows)
        tally.frames(len(rows), failed, f"{side.value} recording")
        scanned = (builder.frames + count[EventKind.DUPLICATE_FRAME]
                   + count[EventKind.OUT_OF_ORDER] + count[EventKind.FORMAT_ERROR])
        garbage = (fed - builder.pending_bytes - 36 * scanned - count[EventKind.CRC_MISMATCH])
        missing = sum(ev.missing_count for ev in session.gaps)
        led = exp["ledger"]
        got_want = {
            "protocol.events.crc_mismatch": (count[EventKind.CRC_MISMATCH], led.crc_mismatch),
            "protocol.events.sync_loss": (count[EventKind.SYNC_LOSS], led.sync_loss),
            "protocol.events.format_error": (count[EventKind.FORMAT_ERROR], led.format_error),
            "protocol.garbage_bytes": (garbage, led.garbage_bytes),
            "ingest.events.sequence_gap": (count[EventKind.SEQUENCE_GAP], exp["gaps"]),
            "ingest.missing_frames": (missing, exp["missing"]),
            "ingest.events.duplicate_frame": (count[EventKind.DUPLICATE_FRAME], 0),
            "ingest.events.out_of_order": (count[EventKind.OUT_OF_ORDER], 0),
            "frames_decoded": (session.frame_count, len(rows)),
        }
        for what, (got, want) in got_want.items():
            tally.check(got == want, f"{side.value} {what}: {got} != ledger {want}")
        meta = manifest.meta_path.read_text(encoding="utf-8")
        tally.check(f"frames = {len(rows)}\n" in meta, f"{side.value} metadata frame count")
        counters = {what: got for what, (got, _) in got_want.items()}
        counters["frames_expected"] = len(rows)
        return counters

    def builder_mib_per_glove_hour(self) -> float:
        """tracemalloc peak of one glove's feed + session(), per glove-hour."""
        from gripstream.ingest import SessionBuilder

        side, exp = next(iter(self.expect.items()))
        gc.collect()
        tracemalloc.start()
        try:
            builder = SessionBuilder(dominant_side=self.plan.dominant)
            builder.feed(exp["damaged"])
            builder.session()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        hours = len(self.matrices[side]) * 0.020 / 3600.0
        return peak / 2**20 / hours


# ---------------------------------------------------------------------------
# study_analyze


class StudyAnalyze:
    """The read path: load a recorded study, analyse, monitor and export it."""

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed, self.sizes, self.work = seed, sizes, work

    def _plans(self):
        import numpy as np

        from gripstream.core import Side
        from gripstream.simulate import SessionPlan, condition_gain, get_preset

        rng = np.random.default_rng([self.seed, 11])
        plans = []
        for k in range(self.sizes.subjects):
            strength = float(rng.uniform(0.8, 1.1))
            dominant = Side.RIGHT if rng.random() < 0.8 else Side.LEFT
            for c, condition in enumerate(("quiet", "hardrock")):
                profile = get_preset(PRESET).scaled(strength).with_gains(
                    condition=condition_gain(condition))
                plan = SessionPlan(
                    profiles={Side.LEFT: profile, Side.RIGHT: profile},
                    duration_s=self.sizes.study_s,
                    seed=self.seed * 1000 + 2 * k + c,
                    dominant=dominant,
                    waveform="lift",
                )
                plans.append((f"s{k:02d}", condition, plan))
        return plans

    def setup(self) -> None:
        """Record the study through gripstream's simulate -> record path."""
        from gripstream.core import Calibration, GloveConfig
        from gripstream.ingest import record_session
        from gripstream.pipeline import run_plan

        cal, cfg = Calibration(), GloveConfig()
        self.study = self.work / "study"
        shutil.rmtree(self.study, ignore_errors=True)
        self.plans = self._plans()
        for subject, condition, plan in self.plans:
            for session in run_plan(plan, subject, condition, cal, cfg, STARTED_AT).values():
                record_session(session, self.study)

    def reference(self) -> None:
        """Expected outputs, from the plans alone (untimed, once per run)."""
        import numpy as np

        import reference as ref
        from gripstream.core import Calibration, Dominance, GloveConfig

        cal, cfg = Calibration(), GloveConfig()
        sessions = {}
        for subject, condition, plan in self.plans:
            for side, matrix in ref.reference_frames(plan, cal, cfg).items():
                dominance = Dominance.DOMINANT if side is plan.dominant else Dominance.NON_DOMINANT
                sessions[f"{subject}_{side.value}_{condition}"] = (matrix, dominance.value, condition)
        self.expected = [sessions[stem] for stem in sorted(sessions, key=lambda s: s + "_meta.txt")]
        self.stems = sorted(sessions, key=lambda s: s + "_meta.txt")
        self.frames = sum(len(m) for m, _, _ in self.expected)
        self.means = [ref.session_means(m, cal) for m, _, _ in self.expected]
        self.shares = [ref.shares(mean, SHARE_SENSORS) for mean in self.means]
        groups: dict[tuple[str, str], list[float]] = {}
        for (_, hand, condition), mean in zip(self.expected, self.means):
            groups.setdefault((hand, condition), []).extend(mean.tolist())
        self.population = {key: float(np.mean(v)) for key, v in groups.items()}
        hands, conditions = sorted({h for h, _ in groups}), sorted({c for _, c in groups})
        cube = np.array([[groups[(h, c)] for c in conditions] for h in hands])
        self.anova = ref.twoway_anova(cube)
        self.alerts = [
            [(a[0], a[1], a[3], a[4])
             for a in ref.reference_alerts(m.forces(cal), m.ts, THRESHOLD_N, HYSTERESIS_N, DEBOUNCE)]
            for m, _, _ in self.expected
        ]
        self.csv_digest, self.csv_rows = ref.csv_digest(
            [(stem.split("_")[1], m) for stem, (m, _, _) in zip(self.stems, self.expected)])

    def iterate(self, tally: Tally) -> Iteration:
        from gripstream.alerting import AlertPolicy, monitor_session
        from gripstream.analytics import (anova_from_sessions, contribution_shares,
                                          population_average, sensor_profile)
        from gripstream.core import Calibration, GloveConfig
        from gripstream.ingest import export_csv, load_sessions, session_summary
        from gripstream.svgplot import render_profile_svg

        cal, cfg = Calibration(), GloveConfig()
        policy = AlertPolicy(THRESHOLD_N, HYSTERESIS_N, DEBOUNCE)
        csv_path, svg_path = self.work / "study.csv", self.work / "study.svg"
        clock = Clock()
        with clock:
            sessions = load_sessions(self.study)
            summaries = [session_summary(s) for s in sessions]
            shares = [contribution_shares(s, SHARE_SENSORS, cal, cfg) for s in sessions]
            population = population_average(sessions, ["hand", "condition"], cal, cfg)
            anova = anova_from_sessions(sessions, ["hand", "condition"], cal, cfg)
            alerts = [monitor_session(s, policy, cal, cfg) for s in sessions]
            rows = export_csv(sessions, csv_path)
            series = [(f"{s.stem} S{sid}", sensor_profile(s, sid, cal, cfg).points)
                      for s in sessions for sid in PLOT_SENSORS]
            svg_path.write_text(render_profile_svg(series, title="study"), encoding="utf-8")
        self._check(tally, sessions, summaries, shares, population, anova, alerts, rows, svg_path)
        return Iteration(clock.wall, clock.cpu, self.frames,
                         {"alerting.alerts": sum(len(a) for a in alerts)})

    def _check(self, tally, sessions, summaries, shares, population, anova, alerts, rows,
               svg_path) -> None:
        import reference as ref

        tally.check([s.stem for s in sessions] == self.stems, "loaded session set")
        for k, ((matrix, hand, _), session) in enumerate(zip(self.expected, sessions)):
            tally.frames(len(matrix), ref.session_failures(session, matrix), session.stem)
            m = summaries[k]
            tally.check(
                (m.frames, m.gap_count, m.missing_frames, m.min_voltage_mv, m.max_voltage_mv,
                 m.battery_final_mv) == (len(matrix), 0, 0, int(matrix.mv.min()),
                                         int(matrix.mv.max()), int(matrix.battery[-1]))
                and ref.close(m.duration_s, (matrix.ts[-1] - matrix.ts[0]) / 1000.0),
                f"{session.stem} summary")
            tally.check(session.hand.dominance.value == hand, f"{session.stem} dominance")
            tally.check(all(ref.close(shares[k][sid], self.shares[k][sid]) for sid in SHARE_SENSORS),
                        f"{session.stem} contribution shares")
            got = [(a.onset_timestamp_ms, a.sensor, a.peak_force_n, a.cleared_timestamp_ms)
                   for a in alerts[k]]
            tally.outputs(self.alerts[k], got, f"{session.stem} alerts")
        for key, want in self.population.items():
            tally.check(ref.close(population.get(key, float("nan")), want),
                        f"population mean {key}")
        effects = anova.effects
        for mine, theirs in (("a", "hand"), ("b", "condition"), ("ab", "hand*condition")):
            f_want, p_want = self.anova[mine]
            got = effects[theirs]
            tally.check(ref.close(got.f_stat, f_want, rel=1e-7), f"ANOVA F {theirs}")
            tally.check(ref.close(got.p_value, p_want, rel=1e-6, abs_tol=1e-12),
                        f"ANOVA p {theirs}")
        tally.check(rows == self.csv_rows, "export row count")
        tally.check(ref.file_digest(self.work / "study.csv") == self.csv_digest, "export digest")
        tally.check(ref.svg_ok(svg_path, [len(m) for m, _, _ in self.expected
                                          for _ in PLOT_SENSORS]), "SVG polylines")


# ---------------------------------------------------------------------------
# live_serve


@dataclass
class ServeRun:
    proc: subprocess.Popen
    port: int
    lines: list  # (read time, text) of every stderr line
    reader: threading.Thread


class LiveServe:
    """The small-chunk path: `gripstream serve` fed open-loop over loopback."""

    def __init__(self, seed: int, sizes: Sizes, work: Path, seconds: float):
        self.seed, self.sizes, self.work, self.seconds = seed, sizes, work, seconds
        self.serve: ServeRun | None = None

    def setup(self, trace_path: Path | None = None) -> None:
        """Both gloves' clean captures, then `serve` started up to its listening line."""
        import reference as ref
        from gripstream.core import Calibration, GloveConfig, Side
        from gripstream.simulate import SessionPlan, get_preset

        self.stop()
        preset = get_preset(PRESET)
        n = max(int(self.sizes.rate_hz * self.seconds), 2)
        self.plan = SessionPlan(profiles={Side.LEFT: preset, Side.RIGHT: preset},
                                duration_s=n * 0.020, seed=self.seed, waveform="lift",
                                dominant=Side.RIGHT)
        self.matrices = ref.reference_frames(self.plan, Calibration(), GloveConfig())
        self.captures = {side: ref.encode(m) for side, m in self.matrices.items()}
        self.out = self.work / "live"
        shutil.rmtree(self.out, ignore_errors=True)
        launcher = ([str(HERE / "tracer.py"), str(trace_path)] if trace_path
                    else ["-m", "gripstream"])
        cmd = [sys.executable, *launcher, "serve", "--sessions", "2", "--port", "0",
               "--out", str(self.out), "--threshold", str(THRESHOLD_N),
               "--hysteresis", str(HYSTERESIS_N), "--debounce", str(DEBOUNCE)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), GRIPSTREAM_LOG="warning")
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, env=env, cwd=str(self.work))
        first = proc.stderr.readline().decode()
        if not first.startswith("listening on "):
            proc.kill()
            proc.wait()
            proc.stderr.close()
            raise RuntimeError(f"serve did not start: {first!r}")
        port = int(first.rsplit(":", 1)[1])
        lines: list = []
        reader = threading.Thread(target=self._read, args=(proc, lines), daemon=True)
        self.serve = ServeRun(proc, port, lines, reader)

    @staticmethod
    def _read(proc, lines) -> None:
        for raw in proc.stderr:
            lines.append((time.perf_counter(), raw.decode().rstrip("\n")))

    def stop(self) -> None:
        if self.serve is not None:
            if self.serve.proc.poll() is None:
                self.serve.proc.kill()
                self.serve.proc.wait()
            self.serve.proc.stderr.close()
        self.serve = None

    def iterate(self, tally: Tally) -> Iteration:
        import numpy as np

        serve = self.serve
        rate = self.sizes.rate_hz
        socks = [socket.create_connection(("127.0.0.1", serve.port)) for _ in self.captures]
        for s in socks:
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        serve.reader.start()
        blobs = list(self.captures.values())
        t0 = time.perf_counter() + 0.05
        late: list[float] = []
        sent_at = [0.0]
        send_errors: list[OSError] = []

        def send() -> None:
            n = len(blobs[0]) // 36
            sent, tick = 0, 0
            try:
                while sent < n:
                    now = time.perf_counter()
                    due = min(n, int((now - t0) * rate) + 1) if now >= t0 else 0
                    if due > sent:
                        for sock, blob in zip(socks, blobs):
                            sock.sendall(blob[sent * 36 : due * 36])
                        late.append(now - (t0 + sent / rate))
                        sent = due
                    tick += 1
                    pause = t0 + tick * 0.001 - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                sent_at[0] = time.perf_counter()
                for sock in socks:
                    sock.shutdown(socket.SHUT_WR)
            except OSError as exc:
                send_errors.append(exc)

        sender = threading.Thread(target=send)
        sender.start()
        sender.join()
        tally.check(not send_errors, f"sending to serve failed: {send_errors}")
        serve.reader.join(timeout=120)
        if serve.reader.is_alive():
            serve.proc.kill()
            serve.reader.join()
        for sock in socks:
            sock.close()
        serve.proc.stderr.close()
        _, status, usage = os.wait4(serve.proc.pid, 0)
        serve.proc.returncode = os.waitstatus_to_exitcode(status)
        self.usage = usage
        tally.check(serve.proc.returncode == 0, f"serve exit code {serve.proc.returncode}")
        frames = sum(len(b) // 36 for b in blobs)
        done = [t for t, line in serve.lines if line.startswith("session ")]
        end = done[-1] if len(done) == 2 else time.perf_counter()
        latencies = []
        alerts = []
        for t, line in serve.lines:
            text = line.lstrip("\a")
            if text.startswith("ALERT "):
                alerts.append(text)
                onset = int(text.split("onset=")[1].split()[0])
                latencies.append(t - (t0 + onset // 20 / rate))
        self.latencies_ms = np.asarray(latencies) * 1e3
        self.generator_late_ms = float(np.percentile(late, 99) * 1e3) if late else 0.0
        self.drain_ms = (end - sent_at[0]) * 1e3
        counters = self._check(tally, alerts,
                               [line for _, line in serve.lines if line.startswith("session ")])
        self.serve = None
        counters["protocol.frames_decoded_ratio"] = counters.pop("frames_recorded") / frames
        counters["alerting.alerts"] = len(alerts)
        return Iteration(end - t0, usage.ru_utime + usage.ru_stime, frames, counters)

    def _check(self, tally, alert_lines, session_lines) -> dict:
        import numpy as np

        import reference as ref
        from gripstream.alerting import AlertPolicy, format_alert, monitor_session
        from gripstream.core import Calibration, GloveConfig
        from gripstream.ingest import IngestError, load_sessions

        cal, cfg = Calibration(), GloveConfig()
        for side, matrix in self.matrices.items():
            stem = f"anon_{side.value}_quiet"
            rows = np.arange(len(matrix))
            digests = {suffix: ref.file_digest(self.out / f"{stem}_{suffix}.tsv")
                       for suffix in ("battery", *(f"S{s}" for s in range(1, 13)))}
            failed = 0
            if digests != ref.tsv_digests(matrix, rows):
                failed = ref.frame_failures(self.out, stem, matrix, rows)
            tally.frames(len(matrix), failed, f"serve recording {stem}")
            want = f"session {stem}: {len(matrix)} frames, 0 gap(s), battery {matrix.battery[-1]} mV"
            tally.check(want in session_lines, f"serve summary line for {stem}")
        try:
            sessions = load_sessions(self.out)
        except IngestError as exc:
            tally.check(False, f"serve recording unreadable: {exc}")
            return {"frames_recorded": 0}
        policy = AlertPolicy(THRESHOLD_N, HYSTERESIS_N, DEBOUNCE)
        expected = []
        for session in sessions:
            # serve prints an alert when it opens, before later samples raise its peak
            onset_peak = ref.onset_peaks(session, DEBOUNCE, cal)
            expected += [format_alert(replace(alert, peak_force_n=onset_peak(alert)))
                         for alert in monitor_session(session, policy, cal, cfg)]
        tally.outputs(expected, alert_lines, "serve ALERT lines")
        return {
            "frames_recorded": sum(s.frame_count for s in sessions),
            "ingest.events.sequence_gap": sum(len(s.gaps) for s in sessions),
            "ingest.missing_frames": sum(ev.missing_count for s in sessions for ev in s.gaps),
        }


# ---------------------------------------------------------------------------
# running a workload


def _median(values) -> float:
    return float(statistics.median(values))


def _loop(workload, seconds: float, tally: Tally, min_iterations: int) -> list[Iteration]:
    runs = []
    start = time.perf_counter()
    while len(runs) < min_iterations or time.perf_counter() - start < seconds:
        gc.collect()
        runs.append(workload.iterate(tally))
    return runs


def _metadata(seed: int) -> dict:
    import numpy

    from gripstream.protocol import kernel_backend

    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                             ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": kernel_backend(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "transport": "loopback",
    }


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) ticks of all CPUs so far, from /proc/stat; (0, 0) if unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) == 8 else 0), sum(ticks)


def _setups(workload, count: int, **kwargs) -> float:
    times = []
    for _ in range(count):
        gc.collect()
        start = time.perf_counter()
        workload.setup(**kwargs)
        times.append(time.perf_counter() - start)
    return _median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
                 work: Path) -> tuple[Tally, dict, dict]:
    """Run one workload; returns the tally, end-to-end metrics and per-layer metrics."""
    import tracer as tracing

    tally = Tally()
    e2e: dict = {}
    layers: dict = {}
    work.mkdir(parents=True, exist_ok=True)
    if name == "live_serve":
        return _run_live(seed, seconds, trace, sizes, work, tally)
    workload = (SimulateRecord if name == "simulate_record" else StudyAnalyze)(seed, sizes, work)
    setup_s = _setups(workload, 1 if trace else sizes.setups)
    if hasattr(workload, "reference"):
        workload.reference()
    if not trace:
        runs = _loop(workload, seconds, tally, sizes.min_iterations)
        e2e = {
            "setup_s": (setup_s, "s"),
            "frames_per_s": (_median([r.frames / r.wall_s for r in runs]), "1/s"),
            "cpu_us_per_frame": (_median([r.cpu_s / r.frames * 1e6 for r in runs]), "us"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        return tally, e2e, layers
    # alternate untraced and traced repetitions, so both see the same machine
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain += _loop(workload, 0, tally, 1)
        tracer.install()
        try:
            traced += _loop(workload, 0, tally, 1)
        finally:
            tracer.uninstall()
    dump = tracer.dump()
    _save_trace(work, name, seed, dump)
    layers = tracing.layer_metrics(dump, len(traced))
    layers.update(traced[-1].counters)
    layers["bench.tracing_overhead_pct"] = 100.0 * (
        _median([r.wall_s for r in traced]) / _median([r.wall_s for r in plain]) - 1.0)
    if isinstance(workload, SimulateRecord):
        layers["ingest.builder_mib_per_glove_hour"] = workload.builder_mib_per_glove_hour()
    return tally, e2e, layers


def _run_live(seed, seconds, trace, sizes, work, tally) -> tuple[Tally, dict, dict]:
    import tracer as tracing

    if not trace:
        live = LiveServe(seed, sizes, work, seconds)
        try:
            setup_s = _setups(live, sizes.setups)
            run = live.iterate(tally)
        finally:
            live.stop()
        e2e = {
            "setup_s": (setup_s, "s"),
            "frames_per_s": (run.frames / run.wall_s, "1/s"),
            "cpu_us_per_frame": (run.cpu_s / run.frames * 1e6, "us"),
            "peak_rss_mib": (live.usage.ru_maxrss / 1024, "MiB"),
        }
        return tally, e2e, _live_diagnostics(live)
    cpu = []
    for trace_path in (None, work / "serve-trace.json"):
        live = LiveServe(seed, sizes, work, seconds / 2)
        try:
            live.setup(trace_path=trace_path)
            run = live.iterate(tally)
        finally:
            live.stop()
        cpu.append(run.cpu_s / run.frames)
    dump = json.loads(trace_path.read_text(encoding="utf-8"))
    _save_trace(work, "live_serve", seed, dump)
    layers = tracing.layer_metrics(dump, 1)
    layers.update(run.counters)
    layers.update(_live_diagnostics(live))
    layers["bench.tracing_overhead_pct"] = 100.0 * (cpu[1] / cpu[0] - 1.0)
    return tally, {}, layers


def _live_diagnostics(live: LiveServe) -> dict:
    import numpy as np

    lat = live.latencies_ms
    return {
        "bench.alert_latency_p50_ms": float(np.percentile(lat, 50)) if len(lat) else 0.0,
        "bench.alert_latency_p99_ms": float(np.percentile(lat, 99)) if len(lat) else 0.0,
        "bench.alert_latency_samples": len(lat),
        "bench.generator_late_ms": live.generator_late_ms,
        "bench.drain_ms": live.drain_ms,
    }


def _save_trace(work: Path, name: str, seed: int, dump: dict) -> None:
    traces = work.parent / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    (traces / f"{name}-seed{seed}.json").write_text(json.dumps(dump), encoding="utf-8")


def _per_layer_names() -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def _run_all(args) -> int:
    code = 0
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
        code = code or proc.returncode
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    if args.workload == "all":
        return _run_all(args)
    base = ROOT / ".perfbench"
    work = base / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    meta = _metadata(args.seed)
    print("# run " + json.dumps(dict(meta, workload=args.workload, trace=args.trace)))
    steal, total = _cpu_ticks()
    try:
        tally, e2e, layers = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace), Sizes(), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # time the hypervisor gave this machine's CPUs to others during the run
    steal_end, total_end = _cpu_ticks()
    layers["bench.steal_pct"] = 100.0 * (steal_end - steal) / max(total_end - total, 1)
    if args.trace:
        layers = dict(dict.fromkeys(CHECK_FIGURES, 0.0), **layers)
        metrics = {name: {"value": float(layers[name]), "unit": unit}
                   for name, unit in _per_layer_names()}
    else:
        metrics = {name: {"value": float(v), "unit": u} for name, (v, u) in e2e.items()}
        for name, value in layers.items():
            print(f"# diagnostic {name} = {value:.6g}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"# error_rate = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems[:20]:
        print(f"# MISMATCH {problem}")
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json").write_text(
        json.dumps({"meta": meta, "metrics": metrics, "attempted": tally.attempted,
                    "failed": tally.failed}), encoding="utf-8")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
