"""Shared fixtures-by-hand for the test suite."""

import csv
import random
import re
import struct
from binascii import crc_hqx
from pathlib import Path

import numpy as np

from gripstream.alerting import AlertEvent, AlertPolicy
from gripstream.core import Dominance, Hand, Side
from gripstream.ingest import CSV_HEADER, ParseError, Session, SessionBuilder
from gripstream.protocol import (
    BATTERY_LIMIT_MV,
    VOLTAGE_LIMIT_MV,
    EventKind,
    Frame,
    StreamEvent,
    encode_frame,
    encode_records,
)
from gripstream.svgplot import _MARGIN_L, _MARGIN_T, _PLOT_H, _PLOT_W


def _crc_table() -> tuple[int, ...]:
    # CRC-16/CCITT-FALSE: poly 0x1021, MSB first, init 0xFFFF, no final xor
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
        table.append(crc)
    return tuple(table)


_CRC_TABLE = _crc_table()


def reference_crc16(data) -> int:
    """Table-driven CRC-16/CCITT-FALSE (Sarwate, CACM 31(8), 1988), the oracle for crc_hqx."""
    crc = 0xFFFF
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC_TABLE[(crc >> 8) ^ byte]
    return crc


_GLOVES = {0x4C: Side.LEFT, 0x52: Side.RIGHT}


def reference_scan(buf: bytes) -> tuple[list[tuple[int, Frame]], list[StreamEvent], bytes]:
    """The Frame-building scanner, the oracle for scan_stream_offsets.

    Same walk as docs/protocol.md describes: garbage up to the next 0xA5 is
    one SYNC_LOSS, a failed CRC advances one byte, a checksum-valid frame
    with a field out of range is one FORMAT_ERROR consumed whole, and a
    trailing partial frame is the remainder.
    """
    frames, events = [], []
    i = 0
    while i < len(buf):
        if buf[i] != 0xA5:
            events.append(StreamEvent(EventKind.SYNC_LOSS, i))
            i = buf.find(0xA5, i)
            if i < 0:
                break
            continue
        if len(buf) - i < 36:
            return frames, events, buf[i:]
        if reference_crc16(buf[i + 1:i + 34]) != int.from_bytes(buf[i + 34:i + 36], "little"):
            events.append(StreamEvent(EventKind.CRC_MISMATCH, i))
            i += 1
            continue
        _, glove, seq, ts, battery, *volts, _ = struct.unpack_from("<BBHIH12HH", buf, i)
        if glove not in _GLOVES or battery > BATTERY_LIMIT_MV or max(volts) >= VOLTAGE_LIMIT_MV:
            events.append(StreamEvent(EventKind.FORMAT_ERROR, i))
        else:
            frames.append((i, Frame(_GLOVES[glove], seq, ts, battery, volts)))
        i += 36
    return frames, events, b""


def reference_tsv_text(timestamps, values) -> str:
    """One recorded column file's text, a line at a time, the oracle for record_session."""
    return "".join(f"{t}\t{v}\n" for t, v in zip(np.asarray(timestamps).tolist(),
                                                  np.asarray(values).tolist()))


_DIGITS = re.compile(rb"[0-9]+")


def reference_read_tsv(path) -> list[tuple[int, int]]:
    """The line-by-line reader of one recorded TSV file, the oracle for load_session.

    The same checks in the same order as the loop the bulk parse replaced,
    with each field pinned to ASCII digits and a LF required on every line:
    two TAB-separated fields, a timestamp within int64 and a value within
    uint16, timestamps strictly rising. ParseError names the first bad line.
    """
    *lines, tail = Path(path).read_bytes().split(b"\n")
    rows = []
    for line_no, line in enumerate(lines, start=1):
        parts = line.split(b"\t")
        if len(parts) != 2 or not all(map(_DIGITS.fullmatch, parts)):
            raise ParseError(path, line_no, f"bad line {line!r}")
        ts, value = int(parts[0]), int(parts[1])
        if ts > 2**63 - 1 or value > 0xFFFF:
            raise ParseError(path, line_no, f"value out of range in {line!r}")
        if rows and ts <= rows[-1][0]:
            raise ParseError(path, line_no, f"timestamp {ts} not after {rows[-1][0]}")
        rows.append((ts, value))
    if tail:
        raise ParseError(path, len(lines) + 1, f"no LF after the last line {tail!r}")
    return rows


def reference_alerts(timestamps, forces_by_sensor, policy: AlertPolicy,
                     glove: Side = Side.RIGHT) -> list[tuple[AlertEvent, float]]:
    """The per-sample alert state machine, the oracle for GripMonitor.

    Walks the samples one at a time, frame after frame and sensor after
    sensor in id order, skipping sensors outside the policy's scope: a run
    of `debounce` samples over the threshold opens an episode with the run's
    peak, the peak then follows the force, and a sample under the clear
    level closes it. Returns every episode in opening order, each with its
    peak at the moment it opened.
    """
    runs = {sid: (0, 0.0) for sid in forces_by_sensor}  # (run length, run peak)
    active: dict[int, AlertEvent] = {}
    alerts = []
    for k, ts in enumerate(timestamps):
        for sid in sorted(forces_by_sensor):
            if not policy.watches(sid):
                continue
            force = forces_by_sensor[sid][k]
            if sid in active:
                alert = active[sid]
                alert.peak_force_n = max(alert.peak_force_n, force)
                if force < policy.clear_level_n:
                    alert.cleared_timestamp_ms = ts
                    del active[sid]
            elif force > policy.threshold_n:
                count, peak = runs[sid][0] + 1, max(runs[sid][1], force)
                runs[sid] = (count, peak)
                if count >= policy.debounce:
                    active[sid] = AlertEvent(glove, sid, ts, peak)
                    alerts.append((active[sid], peak))
                    runs[sid] = (0, 0.0)
            else:
                runs[sid] = (0, 0.0)
    return alerts


def reference_export_csv(sessions, fh) -> int:
    """The row-by-row csv.writer export to an open file, the oracle for export_csv.

    Sorts the samples, not the frames, by (timestamp, glove, sensor) with
    a stable sort, so ties keep session order, and writes one row each.
    """
    width = 12
    ts = np.concatenate([np.empty(0, np.int64), *(s.timestamps_ms for s in sessions)]).repeat(width)
    glove = np.repeat([s.hand.side.value for s in sessions], [s.frame_count * width for s in sessions])
    mv = np.concatenate([np.empty((0, width), np.uint16), *(s.voltages_mv for s in sessions)]).ravel()
    sensor = np.tile(np.arange(width), len(ts) // width)
    order = np.lexsort((sensor, glove, ts))
    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER)
    writer.writerows(zip(ts[order].tolist(), glove[order].tolist(),
                         [f"S{k + 1}" for k in sensor[order].tolist()], mv[order].tolist()))
    return len(order)


def reference_polyline(points, series) -> str:
    """Polyline points a point at a time, the oracle for render_profile_svg.

    points are that series' (t_ms, value) pairs; series holds every (label,
    points) of the chart, whose extents set the axes as render_profile_svg
    sets them.
    """
    every = [(float(t), float(v)) for _, pts in series for t, v in pts]
    t_lo = min(t for t, _ in every) / 1000.0
    t_hi = max(t for t, _ in every) / 1000.0
    v_lo, v_hi = 0.0, max(v for _, v in every)
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0
    if v_hi <= v_lo:
        v_hi = 1.0
    v_hi *= 1.05

    def sx(t_s: float) -> float:
        return _MARGIN_L + (t_s - t_lo) / (t_hi - t_lo) * _PLOT_W

    def sy(v: float) -> float:
        return _MARGIN_T + _PLOT_H - (v - v_lo) / (v_hi - v_lo) * _PLOT_H

    return " ".join(f"{sx(float(t) / 1000.0):.2f},{sy(float(v)):.2f}" for t, v in points)


def random_frame(rng: random.Random, glove: Side | None = None, seq: int | None = None,
                 timestamp_ms: int | None = None) -> Frame:
    return Frame(
        glove=glove if glove is not None else rng.choice((Side.LEFT, Side.RIGHT)),
        seq=rng.randrange(0x10000) if seq is None else seq,
        timestamp_ms=rng.randrange(2**32) if timestamp_ms is None else timestamp_ms,
        battery_mv=rng.randrange(BATTERY_LIMIT_MV + 1),
        voltages_mv=tuple(rng.randrange(VOLTAGE_LIMIT_MV) for _ in range(12)),
    )


def raw_frame(glove_byte=0x52, seq=0, ts=0, battery=4200, voltages=(0,) * 12) -> bytes:
    """Hand-packed frame with a correct checksum but arbitrary field values."""
    body = struct.pack("<BBHIH12HH", 0xA5, glove_byte, seq, ts, battery, *voltages, 0)
    return body[:34] + crc_hqx(body[1:34], 0xFFFF).to_bytes(2, "little")


def frame_run(rng: random.Random, count: int, glove: Side = Side.RIGHT,
              start_seq: int = 0, period_ms: int = 20) -> list[Frame]:
    """`count` well-ordered frames: consecutive seq, strictly increasing time."""
    return [
        Frame(
            glove=glove,
            seq=(start_seq + k) & 0xFFFF,
            timestamp_ms=k * period_ms,
            battery_mv=4200 - k // 50,
            voltages_mv=tuple(rng.randrange(VOLTAGE_LIMIT_MV) for _ in range(12)),
        )
        for k in range(count)
    ]


def noisy_capture(seed: int, frames: int = 2400, intruders: bool = False) -> bytes:
    """One glove's capture, damaged as the benchmark damages it.

    One frame in 100 is never sent, an outage of 70,000 frames spans a
    sequence wrap, 3-40 garbage bytes follow every 8 frames, one byte in 400
    is flipped and a partial frame ends it. With intruders, another glove's
    frame, a replay and a frame with a stale timestamp sit between intact
    frames in mid-run.
    """
    rng = np.random.default_rng(seed)
    pos = np.arange(frames)
    pos[frames // 2:] += 70_000
    pos = np.delete(pos, rng.choice(frames, frames // 100, replace=False))
    volts = rng.integers(0, 3300, (len(pos), 12))
    records = [row.tobytes() for row in encode_records(
        Side.RIGHT, (0xFFFF - 300 + pos) & 0xFFFF, 20 * pos, np.full(len(pos), 4100), volts)]
    blob, starts = bytearray(), []
    for k, record in enumerate(records):
        starts.append(len(blob))
        blob += record
        if k % 8 == 7:
            blob += rng.bytes(int(rng.integers(3, 41)))
    for at in rng.choice(len(blob), len(blob) // 400, replace=False):
        blob[at] ^= 0xFF
    if intruders:
        other = encode_records(Side.LEFT, [7], [20 * pos[600] + 1], [4100], volts[:1]).tobytes()
        stale = encode_records(Side.RIGHT, [1234], [20 * pos[100] + 3], [4100], volts[:1]).tobytes()
        # replay a frame that arrived intact
        sent = next(k for k in range(800, 900) if blob[starts[k]:starts[k] + 36] == records[k])
        for k, record in sorted([(603, other), (901, records[sent]), (1302, stale)], reverse=True):
            blob[starts[k]:starts[k]] = record
    return bytes(blob) + records[0][:20]


def refused_suffix(events) -> str:
    """What record's summary and serve's session line append for the refused frames in events."""
    kinds = (EventKind.DUPLICATE_FRAME, EventKind.FORMAT_ERROR, EventKind.OUT_OF_ORDER)
    counts = [(kind.value, [ev.kind for ev in events].count(kind)) for kind in kinds]
    named = [f"{name} {n}" for name, n in counts if n]
    return f", {sum(n for _, n in counts)} refused ({', '.join(named)})" if named else ""


def wire(frames) -> bytes:
    return b"".join(encode_frame(f) for f in frames)


def build_session(frames, subject: str = "anon", condition: str = "quiet",
                  dominance: Dominance = Dominance.DOMINANT) -> Session:
    glove = frames[0].glove if frames else Side.RIGHT
    other = Side.LEFT if glove is Side.RIGHT else Side.RIGHT
    builder = SessionBuilder(
        subject=subject,
        condition=condition,
        dominant_side=glove if dominance is Dominance.DOMINANT else other,
        started_at="2026-01-05T09:00:00",
    )
    builder.feed(wire(frames))
    return builder.session()


def mv_session(series_by_sensor, condition: str = "quiet",
               dominance: Dominance = Dominance.DOMINANT, subject: str = "a",
               side: Side = Side.RIGHT) -> Session:
    """Session with the given per-sensor millivolt lists at 20 ms steps; the rest sit at 0."""
    length = max((len(v) for v in series_by_sensor.values()), default=0)
    volts = np.zeros((length, 12), dtype=np.uint16)
    for sid, mvs in series_by_sensor.items():
        volts[:, sid - 1] = mvs
    return Session(subject, Hand(side, dominance), condition, "",
                   timestamps_ms=20 * np.arange(length), voltages_mv=volts,
                   battery_mv=np.zeros(length))
