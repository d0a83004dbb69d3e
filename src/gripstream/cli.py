"""Command-line front end: simulate | serve | record | analyze | plot | monitor | export.

argparse converts and checks every flag, `_check_flags` the rules that span
flags, and only then does `main` load `--config` and call the command's
handler as handler(args, cfg, cal); so a usage error reads no file.
Exit codes: 0 success, 1 usage error, 2 data or I/O error; a reader that
closes stdout early, as `| head` does, ends the command quietly with 0.
Diagnostics go to stderr; data goes to files or stdout. Set
GRIPSTREAM_LOG=debug|info|... for chattier logs.
"""

import argparse
import csv
import logging
import os
import selectors
import socket
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import fields
from datetime import datetime
from functools import partial
from pathlib import Path

import numpy as np

from gripstream.alerting import AlertPolicy, GripMonitor, format_alert, monitor_session
from gripstream.core import SENSOR_COUNT, Calibration, GloveConfig, Side, _ascii_int, load_config
from gripstream.errors import GripstreamError
from gripstream.ingest import (
    GROUP_KEYS,
    SENSOR_IDS,
    SessionBuilder,
    SessionSummary,
    export_csv,
    label_problem,
    load_sessions,
    record_session,
    session_summary,
)
from gripstream.pipeline import capture_plan, session_from_capture
from gripstream.simulate import (PRESETS, WAVEFORMS, ProfilePreset, SessionPlan, condition_gain,
                                 get_preset)

log = logging.getLogger("gripstream")

DEFAULT_PORT = 7332


class CliUsageError(Exception):
    """Bad invocation; rendered as usage text with exit code 1."""

    def __init__(self, message: str, usage: str = ""):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; this tool reserves 2 for
    # data errors, so route usage problems through an exception instead
    def error(self, message):
        raise CliUsageError(message, self.format_usage())


def _setup_logging() -> None:
    name = os.environ.get("GRIPSTREAM_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")


def _now() -> str:
    return datetime.now().isoformat(timespec="seconds")


# ---------------------------------------------------------------------------
# flag types: argparse calls these, and their CliUsageError passes parse_args unchanged

def _parse_side(text: str) -> Side:
    try:
        return Side(text.upper())
    except ValueError:
        raise CliUsageError(f"hand must be L or R, got {text!r}") from None


def _parse_sides(text: str) -> list[Side]:
    key = text.upper()
    if key in ("BOTH", "LR", "RL"):
        return [Side.LEFT, Side.RIGHT]
    return [_parse_side(key)]


def _parse_sensor_list(text: str) -> list[int]:
    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            sid = _ascii_int(token[1:] if token.startswith(("S", "s")) else token)
        except ValueError:
            raise CliUsageError(f"bad sensor id {token!r}; use forms like S2 or 2") from None
        if sid not in SENSOR_IDS:
            raise CliUsageError(f"sensor id {sid} outside 1..{SENSOR_COUNT}")
        if sid in out:
            raise CliUsageError(f"sensor S{sid} listed twice")
        out.append(sid)
    return out


def _group_keys(flag: str, count: str, most: int):
    """The type of a flag that names 1..most distinct GROUP_KEYS, such as --anova."""
    def parse(text: str) -> list[str]:
        keys = [t.strip() for t in text.split(",") if t.strip()]
        if not 1 <= len(keys) <= most or len(set(keys)) < len(keys) or set(keys) - set(GROUP_KEYS):
            raise CliUsageError(f"{flag} takes {count} of: {', '.join(GROUP_KEYS)}")
        return keys
    return parse


def _parse_preset(name: str) -> ProfilePreset:
    try:
        return get_preset(name)
    except GripstreamError as exc:
        raise CliUsageError(str(exc)) from None


def _check_flags(args) -> None:
    """The rules that span flags or ranges; main runs them before reading any file."""
    if args.command in ("simulate", "serve", "record"):
        problem = label_problem(args.subject, args.condition)
        if problem:
            raise CliUsageError(problem)
    if args.command in ("serve", "monitor"):
        try:
            args.policy = AlertPolicy(threshold_n=args.threshold, hysteresis_n=args.hysteresis,
                                      debounce=args.debounce, sensor_scope=args.sensors)
        except GripstreamError as exc:
            raise CliUsageError(str(exc)) from None
    if args.command == "simulate" and not args.out and not args.raw:
        raise CliUsageError("simulate needs --out DIR and/or --raw FILE")
    if args.command == "serve" and not 1 <= args.sessions <= 2:
        raise CliUsageError("--sessions must be 1 or 2 (one per glove)")
    if args.command == "serve" and not 0 <= args.port <= 0xFFFF:
        raise CliUsageError("--port must be 0..65535 (0 = ephemeral)")
    if args.command == "plot" and args.units not in ("n", "mv"):
        raise CliUsageError("--units must be n or mv")
    if args.command == "analyze":
        modes = [m for m in ("anova", "shares", "population") if getattr(args, m)]
        if len(modes) > 1:
            raise CliUsageError(f"pick one of --anova/--shares/--population, got {modes}")
        if args.sensors and not args.anova:
            raise CliUsageError("--sensors restricts the observations of --anova; it needs --anova")


def _session_builder(args, cfg: GloveConfig) -> SessionBuilder:
    return SessionBuilder(
        subject=args.subject,
        condition=args.condition,
        dominant_side=args.dominant,
        started_at=_now(),
        sample_period_ms=cfg.sample_period_ms,
    )


class _StdoutClosed(Exception):
    """The reader of stdout left before the output ended, as `| head -1` does."""


@contextmanager
def _output(args):
    """Destination text stream for tabular/SVG output; '-' or unset = stdout."""
    if args.out not in (None, "-"):
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()  # a reader that left shows here, not at interpreter exit
    except BrokenPipeError:
        raise _StdoutClosed from None


# ---------------------------------------------------------------------------
# subcommands

_RECORD_WINDOW = 1 << 16  # bytes of a capture that record feeds at a time


def _record(session, out) -> None:
    print(f"recorded {record_session(session, out).meta_path}", file=sys.stderr)


def _cmd_simulate(args, cfg: GloveConfig, cal: Calibration) -> int:
    profile = args.preset.with_gains(
        condition=condition_gain(args.condition),
        noise_sd_mv=args.noise_sd,
    )
    plan = SessionPlan(
        profiles={side: profile for side in args.hand},
        duration_s=args.duration,
        seed=args.seed,
        dominant=args.dominant,
        waveform=args.waveform,
    )
    started = _now()
    for side, blob in capture_plan(plan, cal, cfg).items():
        if args.raw:
            raw_path = Path(args.raw)
            if len(args.hand) > 1:
                raw_path = raw_path.with_name(f"{raw_path.stem}_{side.value}{raw_path.suffix}")
            raw_path.write_bytes(blob)
            log.info("wrote %d raw bytes to %s", len(blob), raw_path)
        if args.out:
            _record(session_from_capture(blob, args.dominant, args.subject, args.condition,
                                         started, cfg), args.out)
    return 0


class _GloveLink:
    """One connection of serve's loop: its builder, monitor and stall deadline."""

    def __init__(self, conn, builder: SessionBuilder, deadline: float):
        self.conn = conn
        self.builder = builder
        self.monitor: GripMonitor | None = None  # made once a frame names the glove
        self.deadline = deadline  # time.monotonic() past which the connection has stalled

    def take(self, chunk: bytes, new_monitor) -> None:
        """Feed one read; step the monitor over each frame it accepted.

        The frames come as the feed's field tuples (builder.last_accepted), so
        none is unpacked again: the monitor takes a tuple's S1..S12 millivolts
        as they are. new_monitor(glove=side) makes the monitor once a frame
        names the glove; a take that raises ends the link.
        """
        builder = self.builder
        _, events = builder.feed(chunk)
        for ev in events:
            log.info("stream event %s at byte %d", ev.kind.name, ev.at_byte_offset)
        if self.monitor is None and builder.hand is not None:
            self.monitor = new_monitor(glove=builder.hand.side)
        for fields in builder.last_accepted():
            for alert in self.monitor.step(fields[3], fields[5:17]):
                print("\a" + format_alert(alert), file=sys.stderr, flush=True)

    def record(self, out, stems: set[str], problem: Exception | None) -> Exception | None:
        """Close the connection and record what arrived; returns the first problem, if any."""
        self.conn.close()
        try:
            session = self.builder.session()
            summary = session_summary(session)
            # a second connection of one glove would overwrite the first one's files
            taken = bool(out) and session.stem in stems
            stems.add(session.stem)
            if out and not taken:
                _record(session, out)
            print(
                f"session {session.stem}: {summary.frames} frames, "
                f"{summary.gap_count} gap(s), battery {summary.battery_final_mv} mV",
                file=sys.stderr,
            )
            if taken:
                raise GripstreamError(f"session {session.stem} already came from another "
                                      f"connection; these {summary.frames} frames were not recorded")
        except Exception as exc:
            problem = problem or exc
        return problem


def _cmd_serve(args, cfg: GloveConfig, cal: Calibration) -> int:
    """Ingest, alert on and record up to --sessions gloves' connections.

    One thread serves every connection through a selectors loop: it accepts
    the connections and reads whichever socket is ready, so two gloves do not
    take turns at the interpreter lock on every read. Each connection has its
    own builder, monitor and stall deadline, 1,000 sample periods after its
    last byte. A read shorter than ingest.BLOCK_MIN_BYTES is scanned, checked
    and accepted in the builder's one walk, without numpy, a replayed or
    stale frame included; the monitor steps over the millivolts of the field
    tuples that walk unpacked, and a frame with no watched reading over the
    threshold while no alert or run is under way costs one comparison. A
    connection's session is recorded when it ends (end of stream, reset,
    stall or a sample that cannot be converted) inside the loop, a few
    microseconds per frame, and the other glove's reads wait in the
    kernel's buffer meanwhile. On Ctrl-C or any other error of the loop,
    every open connection is recorded before the error goes on.
    """
    stall_s = cfg.sample_period_ms  # 1,000 sample periods (20 s at 50 Hz) without a byte
    new_monitor = partial(GripMonitor, args.policy, cal=cal, cfg=cfg)

    failures: list[Exception] = []
    stems: set[str] = set()
    links: list[_GloveLink] = []  # open connections
    with (socket.create_server(("127.0.0.1", args.port)) as server,
          selectors.DefaultSelector() as selector):
        host, port = server.getsockname()
        print(f"listening on {host}:{port}", file=sys.stderr, flush=True)
        selector.register(server, selectors.EVENT_READ)

        def end(link: _GloveLink, problem: Exception | None = None) -> None:
            selector.unregister(link.conn)
            links.remove(link)
            problem = link.record(args.out, stems, problem)
            if problem is not None:
                failures.append(problem)

        waiting = args.sessions
        try:
            while waiting or links:
                timeout = None
                if links:
                    timeout = max(0.0, min(link.deadline for link in links) - time.monotonic())
                ready = selector.select(timeout)
                now = time.monotonic()
                for key, _ in ready:
                    link = key.data
                    if link is None:  # the listening socket
                        conn, addr = server.accept()
                        log.info("connection from %s:%d", *addr)
                        link = _GloveLink(conn, _session_builder(args, cfg), now + stall_s)
                        selector.register(conn, selectors.EVENT_READ, link)
                        links.append(link)
                        waiting -= 1
                        if not waiting:  # refuse further gloves rather than leave them unread
                            selector.unregister(server)
                            server.close()
                        continue
                    problem = None
                    try:
                        chunk = link.conn.recv(4096)
                        if chunk:
                            link.deadline = now + stall_s
                            link.take(chunk, new_monitor)
                            continue
                    except Exception as exc:  # e.g. a reset or an unconvertible sample
                        problem = exc
                    end(link, problem)
                for link in [link for link in links if link.deadline <= now]:
                    end(link, TimeoutError(f"no byte came for {stall_s:g} s"))
        except BaseException:  # Ctrl-C, or the loop itself failed: record what arrived first
            for link in list(links):
                end(link)
            raise
    if failures:
        raise failures[0]
    return 0


def _cmd_record(args, cfg: GloveConfig, cal: Calibration) -> int:
    builder = _session_builder(args, cfg)
    # windows keep memory to the recording's size; the builder's result does not depend on the cuts
    with (nullcontext(sys.stdin.buffer) if args.infile == "-" else open(args.infile, "rb")) as fh:
        while window := fh.read(_RECORD_WINDOW):
            builder.feed(window)
    session = builder.session()
    _record(session, args.out)
    print(
        f"{session.frame_count} frames, {SENSOR_COUNT * session.frame_count} samples, "
        f"{len(builder.events)} event(s)"
        + (f", {builder.pending_bytes} byte(s) of trailing partial frame" if builder.pending_bytes else ""),
        file=sys.stderr,
    )
    for ev in builder.events:
        log.info("stream event %s at byte %d", ev.kind.name, ev.at_byte_offset)
    return 0


def _anova_rows(result) -> list[list]:
    from gripstream.analytics import AnovaResult, TwoWayAnova

    def row(effect: str, r: AnovaResult) -> list:
        return [effect, f"{r.f_stat:.6g}", r.df_between, r.df_within, f"{r.p_value:.6g}"]

    if isinstance(result, TwoWayAnova):
        return [row(name, r) for name, r in result.effects.items()]
    return [row("group", result)]


def _cmd_analyze(args, cfg: GloveConfig, cal: Calibration) -> int:
    from gripstream.analytics import anova_from_sessions, contribution_shares, population_average

    sessions = load_sessions(args.indir)
    with _output(args) as fh:
        w = csv.writer(fh, lineterminator="\n")
        if args.anova:
            result = anova_from_sessions(sessions, args.anova, cal, cfg, sensors=args.sensors)
            w.writerow(["effect", "f_stat", "df_between", "df_within", "p_value"])
            w.writerows(_anova_rows(result))
        elif args.shares:
            w.writerow(["subject", "hand", "condition", "sensor", "share_pct"])
            for s in sessions:
                shares = contribution_shares(s, args.shares, cal, cfg)
                for sid in args.shares:
                    w.writerow(
                        [s.subject, s.hand.side.value, s.condition, f"S{sid}", f"{shares[sid]:.4f}"]
                    )
        elif args.population:
            averages = population_average(sessions, args.population, cal, cfg)
            w.writerow(sorted(args.population, key=GROUP_KEYS.index) + ["mean_force_n"])
            for key, value in averages.items():
                w.writerow(list(key) + [f"{value:.6g}"])
        else:
            cell = {"hand": lambda hand: hand.side.value, "duration_s": "{:.3f}".format}
            w.writerow([f.name for f in fields(SessionSummary)])
            for m in map(session_summary, sessions):
                w.writerow([cell.get(f.name, str)(getattr(m, f.name)) for f in fields(m)])
    return 0


def _cmd_plot(args, cfg: GloveConfig, cal: Calibration) -> int:
    from gripstream.analytics import sensor_profile
    from gripstream.svgplot import render_profile_svg

    sessions = load_sessions(args.indir)
    series = []
    for s in sessions:
        for sid in args.sensor:
            label = f"{s.subject} {s.condition} {s.hand.side.value} S{sid}"
            values = (sensor_profile(s, sid, cal, cfg).forces_n if args.units == "n"
                      else s.voltages_mv[:, sid - 1])
            series.append((label, np.column_stack((s.timestamps_ms, values))))
    y_label = "force (N)" if args.units == "n" else "voltage (mV)"
    svg = render_profile_svg(series, y_label=y_label, title=args.title)
    with _output(args) as fh:
        fh.write(svg)
    log.info("plotted %d series", len(series))
    return 0


def _cmd_monitor(args, cfg: GloveConfig, cal: Calibration) -> int:
    sessions = load_sessions(args.indir)
    total = 0
    with _output(args) as fh:
        for session in sessions:
            for alert in monitor_session(session, args.policy, cal, cfg):
                print(format_alert(alert), file=fh)
                total += 1
    print(f"{total} alert(s) across {len(sessions)} session(s)", file=sys.stderr)
    return 0


def _cmd_export(args, cfg: GloveConfig, cal: Calibration) -> int:
    sessions = load_sessions(args.indir)
    with _output(args) as fh:
        rows = export_csv(sessions, fh)
    print(f"exported {rows} row(s) from {len(sessions)} session(s)", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threshold", type=float, default=8.0, help="alert threshold in newtons")
    p.add_argument("--hysteresis", type=float, default=0.5, help="release band in newtons")
    p.add_argument("--debounce", type=int, default=2, help="consecutive samples over threshold")
    p.add_argument("--sensors", type=_parse_sensor_list,
                   help="comma-separated sensor scope, e.g. S2,S4")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="glove configuration file (key = value lines)")

    parser = _Parser(
        prog="gripstream",
        description="Grip-force glove telemetry toolkit: emulate, record, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("simulate", parents=[common],
                       help="synthesize sessions and write recordings/raw captures")
    p.add_argument("--preset", type=_parse_preset, default="steady",
                   help=f"force profile preset ({', '.join(sorted(PRESETS))})")
    p.add_argument("--condition", default="quiet", help="condition label (soft, hardrock, ...)")
    p.add_argument("--hand", type=_parse_sides, default="R", help="L, R, or both")
    p.add_argument("--dominant", type=_parse_side, default="R",
                   help="which side is the dominant hand")
    p.add_argument("--subject", default="anon", help="subject id used in file names")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=10.0, help="task length in seconds")
    p.add_argument("--waveform", choices=WAVEFORMS, default="hold")
    p.add_argument("--noise-sd", dest="noise_sd", type=float, default=None,
                   help="sensor noise sd in millivolts (preset default if omitted)")
    p.add_argument("--out", help="directory for session files")
    p.add_argument("--raw", help="file for raw wire bytes (per side when --hand both)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("serve", parents=[common],
                       help="listen on loopback, ingest live glove streams, alert, record")
    p.add_argument("--port", type=int, default=DEFAULT_PORT, help="TCP port (0 = ephemeral)")
    p.add_argument("--sessions", type=int, default=1, help="connections to accept (1 or 2)")
    p.add_argument("--subject", default="anon")
    p.add_argument("--condition", default="quiet")
    p.add_argument("--dominant", type=_parse_side, default="R")
    p.add_argument("--out", help="directory for session files")
    _add_policy_flags(p)
    p.set_defaults(handler=_cmd_serve)

    p = sub.add_parser("record", parents=[common],
                       help="decode a raw capture file into session files")
    p.add_argument("--in", dest="infile", required=True, help="capture file, or - for stdin")
    p.add_argument("--out", required=True, help="directory for session files")
    p.add_argument("--subject", default="anon")
    p.add_argument("--condition", default="quiet")
    p.add_argument("--dominant", type=_parse_side, default="R")
    p.set_defaults(handler=_cmd_record)

    p = sub.add_parser("analyze", parents=[common],
                       help="summaries, contribution shares, population means, ANOVA")
    p.add_argument("--in", dest="indir", required=True, help="directory of recorded sessions")
    p.add_argument("--anova", type=_group_keys("--anova", "one or two", 2),
                   help="factor(s): one or two of hand,sensor,condition")
    p.add_argument("--shares", type=_parse_sensor_list,
                   help="sensor subset for contribution shares, e.g. S2,S3,S4,S5")
    p.add_argument("--population", type=_group_keys("--population", "one to three", 3),
                   help="group keys for population means: one to three of hand,sensor,condition")
    p.add_argument("--sensors", type=_parse_sensor_list,
                   help="restrict ANOVA observations to these sensors")
    p.add_argument("--out", help="CSV destination (default stdout)")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("plot", parents=[common], help="render profiles as an SVG chart")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--sensor", type=_parse_sensor_list, default="S2,S4", help="sensors to plot")
    p.add_argument("--units", default="n", help="n (newtons) or mv (raw millivolts)")
    p.add_argument("--title", default="grip force profiles")
    p.add_argument("--out", help="SVG destination (default stdout)")
    p.set_defaults(handler=_cmd_plot)

    p = sub.add_parser("monitor", parents=[common],
                       help="replay recordings through the over-force monitor")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--out", help="alert log destination (default stdout)")
    _add_policy_flags(p)
    p.set_defaults(handler=_cmd_monitor)

    p = sub.add_parser("export", parents=[common], help="flatten recordings into one CSV")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--out", help="CSV destination (default stdout)")
    p.set_defaults(handler=_cmd_export)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.usage:
            print(exc.usage, end="", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        cfg, cal = load_config(args.config) if args.config else (GloveConfig(), Calibration())
        return args.handler(args, cfg, cal)
    except _StdoutClosed:
        # the Python docs' note on SIGPIPE: send the rest of stdout to devnull
        # so that the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (GripstreamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2

