"""Spans around calls into gripstream's layers, installed from outside.

The tracer replaces public functions by module attribute, never by editing
the package: every module of gripstream that holds a reference to a traced
function (including names imported with `from ... import`) gets the
wrapper, so calls made inside the package are traced too.

Chunk-level calls get one span each (start, end, parent, work done). Calls
made once per frame or per sample would cost more to record than to run,
so they keep a (count, total seconds) aggregate per thread instead. A
span's self time is its duration minus every traced call made inside it.

Run as a script, this module is the launcher for a traced `serve`:

    python perfbench/tracer.py TRACE.json serve --sessions 2 ...

installs the wrappers, runs gripstream.cli.main with the remaining
arguments, and writes the spans to TRACE.json when main returns.
"""

import functools
import itertools
import json
import sys
import threading
import time

def _frames_of(result):
    return sum(arr.shape[1] for arr in result.values()), 0


def _points_of(args, _result):
    return sum(len(points) for _, points in args[0]), 0


def _manifest_bytes(args, result):
    paths = [result.meta_path, result.battery_path, *result.sensor_paths.values()]
    return args[0].frame_count, sum(p.stat().st_size for p in paths)


# name -> (module, qualified attribute, work extractor or None for aggregates).
# A work extractor maps (args, result) to (work units, bytes).
TARGETS = {
    "simulate.synthesize_session": ("gripstream.simulate", "synthesize_session",
                                    lambda a, r: _frames_of(r)),
    "simulate.emit_frames": ("gripstream.simulate", "emit_frames", lambda a, r: (len(r), 0)),
    "simulate.encode_session": ("gripstream.simulate", "encode_session",
                                lambda a, r: (len(r) // 36, len(r))),
    "protocol.encode_frame": ("gripstream.protocol", "encode_frame", None),
    "protocol.scan_stream_offsets": ("gripstream.protocol", "scan_stream_offsets",
                                     lambda a, r: (len(r[0]), len(a[0]))),
    "ingest.SessionBuilder.feed": ("gripstream.ingest", "SessionBuilder.feed",
                                   lambda a, r: (r[0] // 12, len(a[1]))),
    "ingest.SessionBuilder.frame_samples": ("gripstream.ingest", "SessionBuilder.frame_samples",
                                            None),
    "ingest.SessionBuilder.session": ("gripstream.ingest", "SessionBuilder.session",
                                      lambda a, r: (r.frame_count, 0)),
    "ingest.record_session": ("gripstream.ingest", "record_session", _manifest_bytes),
    "ingest.load_sessions": ("gripstream.ingest", "load_sessions",
                             lambda a, r: (sum(s.frame_count for s in r), 0)),
    "ingest.session_summary": ("gripstream.ingest", "session_summary",
                               lambda a, r: (r.frames, 0)),
    "ingest.export_csv": ("gripstream.ingest", "export_csv", lambda a, r: (r, 0)),
    "core.force_from_voltage": ("gripstream.core", "force_from_voltage", None),
    "analytics.sensor_profile": ("gripstream.analytics", "sensor_profile",
                                 lambda a, r: (len(r), 0)),
    "analytics.contribution_shares": ("gripstream.analytics", "contribution_shares",
                                      lambda a, r: (1, 0)),
    "analytics.population_average": ("gripstream.analytics", "population_average",
                                     lambda a, r: (1, 0)),
    "analytics.anova_from_sessions": ("gripstream.analytics", "anova_from_sessions",
                                      lambda a, r: (1, 0)),
    "alerting.monitor_session": ("gripstream.alerting", "monitor_session",
                                 lambda a, r: (a[0].frame_count, 0)),
    "alerting.GripMonitor.step": ("gripstream.alerting", "GripMonitor.step", None),
    "svgplot.render_profile_svg": ("gripstream.svgplot", "render_profile_svg", _points_of),
}


class Tracer:
    """Collects spans and per-thread aggregates while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, child_s, work, bytes)
        self._aggs: dict[tuple[str, int], list] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, extract):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            frame = [next(self._ids), 0.0]  # id, time spent in traced children
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
            work, nbytes = extract(args, result)
            self.spans.append((frame[0], parent[0] if parent else -1, name,
                               start, end, frame[1], work, nbytes))
            return result

        return wrapper

    def _aggregate(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                # one entry per thread, so no update is lost between threads
                agg = self._aggs.get((name, threading.get_ident()))
                if agg is None:
                    agg = self._aggs.setdefault((name, threading.get_ident()), [0, 0.0])
                agg[0] += 1
                agg[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def install(self) -> None:
        import importlib

        import gripstream.cli  # noqa: F401  (imports every layer)

        modules = [m for name, m in list(sys.modules.items())
                   if name == "gripstream" or name.startswith("gripstream.")]
        for name, (module_name, attr, extract) in TARGETS.items():
            owner = importlib.import_module(module_name)
            cls_name, _, meth = attr.rpartition(".")
            original = getattr(owner, cls_name).__dict__[meth] if cls_name else getattr(owner, attr)
            wrapped = (self._aggregate(name, original) if extract is None
                       else self._span(name, original, extract))
            if cls_name:
                holders = [(getattr(owner, cls_name), meth)]
            else:
                holders = [(module, key) for module in modules
                           for key, value in vars(module).items() if value is original]
            for holder, key in holders:
                self._undo.append((holder, key, original))
                setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def aggregates(self) -> dict[str, list]:
        out: dict[str, list] = {}
        for (name, _), (calls, seconds) in list(self._aggs.items()):
            total = out.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += seconds
        return out

    def dump(self) -> dict:
        return {"spans": self.spans, "aggregates": self.aggregates()}


def totals(trace: dict) -> dict[str, dict[str, float]]:
    """Per traced name: calls, seconds, self seconds, work and bytes."""
    out: dict[str, dict[str, float]] = {}
    for _, _, name, start, end, child_s, work, nbytes in trace["spans"]:
        t = out.setdefault(name, dict(calls=0, seconds=0.0, self_s=0.0, work=0, bytes=0))
        t["calls"] += 1
        t["seconds"] += end - start
        t["self_s"] += end - start - child_s
        t["work"] += work
        t["bytes"] += nbytes
    for name, (calls, seconds) in trace["aggregates"].items():
        out[name] = dict(calls=calls, seconds=seconds, self_s=seconds, work=calls, bytes=0)
    return out


def layer_metrics(trace: dict, units: int) -> dict[str, float]:
    """Per-layer timings and counts; counts are per unit of work (iteration)."""
    tot = totals(trace)
    zero = dict(calls=0, seconds=0.0, self_s=0.0, work=0, bytes=0)

    def per(name: str, field: str, denom: str, scale: float) -> float:
        t = tot.get(name, zero)
        return t[field] / t[denom] * scale if t[denom] else 0.0

    us = 1e6
    return {
        "simulate.synthesize_session.us_per_frame":
            per("simulate.synthesize_session", "seconds", "work", us),
        "simulate.emit_frames.us_per_frame": per("simulate.emit_frames", "seconds", "work", us),
        "simulate.encode_session.self_us_per_frame":
            per("simulate.encode_session", "self_s", "work", us),
        "protocol.encode_frame.us_per_call": per("protocol.encode_frame", "seconds", "calls", us),
        "protocol.scan_stream_offsets.us_per_frame":
            per("protocol.scan_stream_offsets", "seconds", "work", us),
        "protocol.scan_stream_offsets.us_per_call":
            per("protocol.scan_stream_offsets", "seconds", "calls", us),
        "ingest.SessionBuilder.feed.self_us_per_frame":
            per("ingest.SessionBuilder.feed", "self_s", "work", us),
        "ingest.SessionBuilder.feed.calls":
            tot.get("ingest.SessionBuilder.feed", zero)["calls"] / units,
        "ingest.SessionBuilder.feed.bytes_per_call":
            per("ingest.SessionBuilder.feed", "bytes", "calls", 1.0),
        "ingest.SessionBuilder.frame_samples.us_per_call":
            per("ingest.SessionBuilder.frame_samples", "seconds", "calls", us),
        "ingest.SessionBuilder.session.us_per_frame":
            per("ingest.SessionBuilder.session", "seconds", "work", us),
        "ingest.record_session.us_per_frame": per("ingest.record_session", "seconds", "work", us),
        "ingest.record_session.bytes_written": per("ingest.record_session", "bytes", "calls", 1.0),
        "ingest.load_sessions.us_per_frame": per("ingest.load_sessions", "seconds", "work", us),
        "ingest.session_summary.us_per_frame":
            per("ingest.session_summary", "seconds", "work", us),
        "ingest.export_csv.us_per_row": per("ingest.export_csv", "seconds", "work", us),
        "core.force_from_voltage.calls":
            tot.get("core.force_from_voltage", zero)["calls"] / units,
        "core.force_from_voltage.us_per_call":
            per("core.force_from_voltage", "seconds", "calls", us),
        "analytics.sensor_profile.us_per_frame":
            per("analytics.sensor_profile", "seconds", "work", us),
        "analytics.contribution_shares.ms":
            per("analytics.contribution_shares", "seconds", "calls", 1e3),
        "analytics.population_average.ms":
            per("analytics.population_average", "seconds", "calls", 1e3),
        "analytics.anova_from_sessions.ms":
            per("analytics.anova_from_sessions", "seconds", "calls", 1e3),
        "alerting.monitor_session.self_us_per_frame":
            per("alerting.monitor_session", "self_s", "work", us),
        "alerting.GripMonitor.step.calls":
            tot.get("alerting.GripMonitor.step", zero)["calls"] / units,
        "alerting.GripMonitor.step.us_per_call":
            per("alerting.GripMonitor.step", "seconds", "calls", us),
        "svgplot.render_profile_svg.us_per_point":
            per("svgplot.render_profile_svg", "seconds", "work", us),
    }


def _launch(argv: list[str]) -> int:
    """Traced `gripstream` CLI: tracer.py TRACE.json <cli arguments>."""
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import gripstream.cli

    try:
        return gripstream.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    raise SystemExit(_launch(sys.argv[1:]))
