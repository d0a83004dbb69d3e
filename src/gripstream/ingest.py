"""Stream ingestion: frame ordering, session recording, and file round trips.

A SessionBuilder owns the decoder state for one glove connection. Bytes go
in (in arbitrary chunks), ordered per-sensor samples come out; anomalies
(CRC damage, sequence gaps, duplicates, stale timestamps) are surfaced as
events rather than exceptions so a live link never kills the recorder.

Completed sessions are plain value objects. They serialize to one TSV per
sensor plus a battery trace and a key-value metadata file, and load back
bit-exact.
"""

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

from gripstream.core import Dominance, Hand, Side, parse_kv_text
from gripstream.errors import GripstreamError
from gripstream.protocol import SYNC_BYTE, EventKind, StreamEvent, scan_stream_offsets

SENSOR_IDS = tuple(range(1, 13))

_SEQ_MOD = 0x10000


class IngestError(GripstreamError):
    pass


class ParseError(IngestError):
    """A recorded file has a bad line; carries file and 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = Path(path)
        self.line_no = line_no

class StructureError(IngestError):
    """A session directory is missing files or they disagree with each other."""


class RecordError(IngestError):
    """Recording failed partway; .completed lists files already written."""

    def __init__(self, message: str, completed: list[Path]):
        super().__init__(message)
        self.completed = list(completed)


@dataclass
class Session:
    """One glove's recording: metadata plus ordered per-sensor samples.

    samples maps sensor id 1..12 to (timestamp_ms, voltage_mv) pairs;
    battery_trace holds (timestamp_ms, battery_mv); gaps keeps the sequence
    gap events observed during ingestion.
    """

    subject: str
    hand: Hand
    condition: str
    started_at: str
    samples: dict[int, list[tuple[int, int]]]
    battery_trace: list[tuple[int, int]] = field(default_factory=list)
    gaps: list[StreamEvent] = field(default_factory=list)

    def __post_init__(self):
        missing = [sid for sid in SENSOR_IDS if sid not in self.samples]
        if missing or len(self.samples) != 12:
            raise IngestError(f"session must carry all 12 sensors, missing {missing}")
        for sid in SENSOR_IDS:
            series = self.samples[sid]
            for i in range(1, len(series)):
                if series[i][0] <= series[i - 1][0]:
                    raise IngestError(
                        f"sensor S{sid} timestamps not strictly increasing at index {i}"
                    )
        for ev in self.gaps:
            if ev.kind is not EventKind.SEQUENCE_GAP:
                raise IngestError(f"gaps may only hold sequence-gap events, got {ev.kind}")

    @property
    def frame_count(self) -> int:
        return len(self.samples[1])

    @property
    def stem(self) -> str:
        return f"{self.subject}_{self.hand.side.value}_{self.condition}"


class SessionBuilder:
    """Decoder state for one glove connection.

    Feed byte chunks as they arrive; chunk boundaries are immaterial. The
    builder locks onto the first glove id it sees (or the one given) and
    rejects frames from the other glove, duplicate (seq, timestamp) pairs,
    and frames whose timestamp does not advance, so the finished session
    always satisfies the per-sensor ordering invariant.
    """

    def __init__(
        self,
        subject: str = "anon",
        condition: str = "quiet",
        hand: Hand | None = None,
        dominant_side: Side = Side.RIGHT,
        started_at: str = "",
    ):
        self.subject = subject
        self.condition = condition
        self.hand = hand
        self.dominant_side = dominant_side
        self.started_at = started_at
        self.events: list[StreamEvent] = []
        self._samples: dict[int, list[tuple[int, int]]] = {sid: [] for sid in SENSOR_IDS}
        self._battery: list[tuple[int, int]] = []
        self._gaps: list[StreamEvent] = []
        self._tail = b""
        self._base = 0  # absolute stream offset of the carried tail's first byte
        self._in_garbage = False  # the last chunk ended inside a reported garbage run
        self._last_seq: int | None = None
        self._last_ts: int | None = None
        self._seen: set[tuple[int, int]] = set()

    @property
    def frames(self) -> int:
        return len(self._battery)

    @property
    def pending_bytes(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._tail)

    def frame_samples(self, index: int) -> tuple[int, tuple[int, ...]]:
        """Timestamp and the 12 voltages of decoded frame `index`.

        Lets a live consumer (e.g. an alert monitor) walk frames as they
        land without snapshotting the whole session after every feed.
        """
        ts = self._battery[index][0]
        return ts, tuple(self._samples[sid][index][1] for sid in SENSOR_IDS)

    def feed(self, data: bytes) -> tuple[int, list[StreamEvent]]:
        """Consume a chunk; returns (samples appended, events this chunk).

        Event byte offsets are absolute within the connection, not within
        the chunk, so logs stay meaningful across reads.
        """
        buf = self._tail + bytes(data)
        frames, scan_events, remainder = scan_stream_offsets(buf)
        if buf:
            last_frame = frames[-1][0] if frames else -1
            ends_in_garbage = (not remainder and bool(scan_events)
                               and scan_events[-1].kind is EventKind.SYNC_LOSS
                               and scan_events[-1].at_byte_offset > last_frame)
            if self._in_garbage and buf[0] != SYNC_BYTE:
                # a garbage run that began in an earlier chunk was reported there
                scan_events = scan_events[1:]
            self._in_garbage = ends_in_garbage
        events = [replace(ev, at_byte_offset=self._base + ev.at_byte_offset) for ev in scan_events]
        appended = 0
        for off, frame in frames:
            abs_off = self._base + off
            if self.hand is None:
                dom = Dominance.DOMINANT if frame.glove is self.dominant_side else Dominance.NON_DOMINANT
                self.hand = Hand(side=frame.glove, dominance=dom)
            elif frame.glove is not self.hand.side:
                events.append(StreamEvent(EventKind.FORMAT_ERROR, abs_off))
                continue
            key = (frame.seq, frame.timestamp_ms)
            if key in self._seen:
                events.append(StreamEvent(EventKind.DUPLICATE_FRAME, abs_off))
                continue
            if self._last_ts is not None and frame.timestamp_ms <= self._last_ts:
                events.append(StreamEvent(EventKind.OUT_OF_ORDER, abs_off))
                continue
            if self._last_seq is not None:
                missing = (frame.seq - (self._last_seq + 1)) % _SEQ_MOD
                if missing:
                    gap = StreamEvent(EventKind.SEQUENCE_GAP, abs_off, missing_count=missing)
                    events.append(gap)
                    self._gaps.append(gap)
            self._seen.add(key)
            self._last_seq = frame.seq
            self._last_ts = frame.timestamp_ms
            for sid in SENSOR_IDS:
                self._samples[sid].append((frame.timestamp_ms, frame.voltages_mv[sid - 1]))
            self._battery.append((frame.timestamp_ms, frame.battery_mv))
            appended += 12
        self._base += len(buf) - len(remainder)
        self._tail = remainder
        self.events.extend(events)
        return appended, events

    def session(self) -> Session:
        """Snapshot the accumulated samples as an immutable-by-convention value."""
        if self.hand is None:
            # nothing decoded yet; an empty session still needs a hand label
            dom = Dominance.DOMINANT
            self.hand = Hand(side=self.dominant_side, dominance=dom)
        return Session(
            subject=self.subject,
            hand=self.hand,
            condition=self.condition,
            started_at=self.started_at,
            samples={sid: list(series) for sid, series in self._samples.items()},
            battery_trace=list(self._battery),
            gaps=list(self._gaps),
        )


@dataclass(frozen=True)
class Manifest:
    """Paths written by record_session plus per-sensor line counts."""

    directory: Path
    meta_path: Path
    battery_path: Path
    sensor_paths: dict[int, Path]
    line_counts: dict[int, int]


def _write_pairs(path: Path, pairs) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for ts, value in pairs:
            fh.write(f"{ts}\t{value}\n")


def record_session(session: Session, directory) -> Manifest:
    """Write one TSV per sensor, a battery trace, and a metadata file.

    Files are named <subject>_<hand>_<condition>_S<k>.tsv with lines
    "timestamp_ms<TAB>voltage_mv". The metadata file goes last so its
    presence marks a complete recording.
    """
    directory = Path(directory)
    stem = session.stem
    completed: list[Path] = []
    sensor_paths = {}
    line_counts = {}
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for sid in SENSOR_IDS:
            path = directory / f"{stem}_S{sid}.tsv"
            _write_pairs(path, session.samples[sid])
            completed.append(path)
            sensor_paths[sid] = path
            line_counts[sid] = len(session.samples[sid])
        battery_path = directory / f"{stem}_battery.tsv"
        _write_pairs(battery_path, session.battery_trace)
        completed.append(battery_path)
        meta_path = directory / f"{stem}_meta.txt"
        lines = [
            f"subject = {session.subject}",
            f"hand = {session.hand.side.value}",
            f"dominance = {session.hand.dominance.value}",
            f"condition = {session.condition}",
            f"started_at = {session.started_at}",
            f"frames = {session.frame_count}",
        ]
        if session.gaps:
            gaps = ",".join(f"{ev.at_byte_offset}:{ev.missing_count}" for ev in session.gaps)
            lines.append(f"gaps = {gaps}")
        meta_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        completed.append(meta_path)
    except OSError as exc:
        raise RecordError(f"recording failed after {len(completed)} files: {exc}", completed)
    return Manifest(
        directory=directory,
        meta_path=meta_path,
        battery_path=battery_path,
        sensor_paths=sensor_paths,
        line_counts=line_counts,
    )


def _read_pairs(path: Path, what: str) -> list[tuple[int, int]]:
    pairs = []
    last_ts = None
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise StructureError(f"missing {what} file {path}")
    for line_no, line in enumerate(text.splitlines(), start=1):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(path, line_no, f"expected 2 tab-separated fields, got {len(parts)}")
        try:
            ts, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, line_no, f"non-integer field in {line!r}")
        if ts < 0 or value < 0:
            raise ParseError(path, line_no, "negative value")
        if last_ts is not None and ts <= last_ts:
            raise ParseError(path, line_no, f"timestamp {ts} not after {last_ts}")
        last_ts = ts
        pairs.append((ts, value))
    return pairs


def _meta_field(meta: dict, key: str, path: Path) -> str:
    try:
        return meta[key]
    except KeyError:
        raise StructureError(f"{path} lacks required key {key!r}")


def _load_from_meta(meta_path: Path) -> Session:
    meta_path = Path(meta_path)
    try:
        raw = meta_path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise StructureError(f"missing metadata file {meta_path}")
    meta = parse_kv_text(raw)
    subject = _meta_field(meta, "subject", meta_path)
    side_txt = _meta_field(meta, "hand", meta_path)
    dom_txt = _meta_field(meta, "dominance", meta_path)
    condition = _meta_field(meta, "condition", meta_path)
    try:
        hand = Hand(side=Side(side_txt), dominance=Dominance(dom_txt))
    except ValueError as exc:
        raise StructureError(f"{meta_path}: {exc}")
    try:
        frames = int(_meta_field(meta, "frames", meta_path))
    except ValueError:
        raise StructureError(f"{meta_path}: frames is not an integer")
    gaps = []
    if meta.get("gaps"):
        for item in meta["gaps"].split(","):
            try:
                off_txt, miss_txt = item.split(":")
                gaps.append(
                    StreamEvent(EventKind.SEQUENCE_GAP, int(off_txt), missing_count=int(miss_txt))
                )
            except ValueError:
                raise StructureError(f"{meta_path}: bad gap entry {item!r}")
    directory = meta_path.parent
    stem = f"{subject}_{side_txt}_{condition}"
    samples = {}
    for sid in SENSOR_IDS:
        pairs = _read_pairs(directory / f"{stem}_S{sid}.tsv", f"sensor S{sid}")
        if len(pairs) != frames:
            raise StructureError(
                f"{directory / f'{stem}_S{sid}.tsv'} has {len(pairs)} lines, metadata says {frames}"
            )
        samples[sid] = pairs
    battery = _read_pairs(directory / f"{stem}_battery.tsv", "battery")
    return Session(
        subject=subject,
        hand=hand,
        condition=condition,
        started_at=meta.get("started_at", ""),
        samples=samples,
        battery_trace=battery,
        gaps=gaps,
    )


def load_session(source) -> Session:
    """Load a recorded session from a Manifest, a metadata file, or a directory.

    A directory must hold exactly one session; use load_sessions for more.
    """
    if isinstance(source, Manifest):
        return _load_from_meta(source.meta_path)
    path = Path(source)
    if path.is_dir():
        metas = sorted(path.glob("*_meta.txt"))
        if not metas:
            raise StructureError(f"no session metadata in {path}")
        if len(metas) > 1:
            names = ", ".join(m.name for m in metas)
            raise StructureError(f"{path} holds {len(metas)} sessions ({names}); pick one")
        return _load_from_meta(metas[0])
    return _load_from_meta(path)


def load_sessions(directory) -> list[Session]:
    """All sessions recorded in a directory, ordered by file stem."""
    directory = Path(directory)
    metas = sorted(directory.glob("*_meta.txt"))
    if not metas:
        raise StructureError(f"no session metadata in {directory}")
    return [_load_from_meta(m) for m in metas]


@dataclass(frozen=True)
class SessionSummary:
    subject: str
    hand: Hand
    condition: str
    frames: int
    sample_counts: dict[int, int]
    duration_s: float
    gap_count: int
    missing_frames: int
    min_voltage_mv: int
    max_voltage_mv: int
    battery_final_mv: int


def session_summary(session: Session) -> SessionSummary:
    """Counts, duration, and extrema for a session; zeros when empty."""
    counts = {sid: len(session.samples[sid]) for sid in SENSOR_IDS}
    all_ts = [ts for series in session.samples.values() for ts, _ in series]
    all_mv = [mv for series in session.samples.values() for _, mv in series]
    duration_s = (max(all_ts) - min(all_ts)) / 1000.0 if all_ts else 0.0
    return SessionSummary(
        subject=session.subject,
        hand=session.hand,
        condition=session.condition,
        frames=session.frame_count,
        sample_counts=counts,
        duration_s=duration_s,
        gap_count=len(session.gaps),
        missing_frames=sum(ev.missing_count for ev in session.gaps),
        min_voltage_mv=min(all_mv) if all_mv else 0,
        max_voltage_mv=max(all_mv) if all_mv else 0,
        battery_final_mv=session.battery_trace[-1][1] if session.battery_trace else 0,
    )


CSV_HEADER = ("timestamp_ms", "glove", "sensor", "voltage_mv")


def export_csv(sessions, dest) -> int:
    """Write sessions as one flat CSV; returns the number of data rows.

    Rows are ordered by timestamp, then glove, then sensor, so exports are
    deterministic regardless of session order.
    """
    if isinstance(sessions, Session):
        sessions = [sessions]
    rows = []
    for session in sessions:
        glove = session.hand.side.value
        for sid in SENSOR_IDS:
            rows.extend((ts, glove, sid, mv) for ts, mv in session.samples[sid])
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    own = isinstance(dest, (str, Path))
    fh = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for ts, glove, sid, mv in rows:
            writer.writerow((ts, glove, f"S{sid}", mv))
    finally:
        if own:
            fh.close()
    return len(rows)
