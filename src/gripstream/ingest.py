"""Stream ingestion: frame ordering, session recording, and file round trips.

A SessionBuilder owns the decoder state for one glove connection. Bytes go
in (in arbitrary chunks), ordered frames come out; anomalies (CRC damage,
sequence gaps, duplicates, stale timestamps) are surfaced as events rather
than exceptions so a live link never kills the recorder.

A completed Session keeps one row per frame: timestamp, 12 sensor voltages
and battery. It serializes to one TSV per sensor plus a battery trace, all
sharing one timestamp column, and a key-value metadata file, and loads
back bit-exact.
"""

import operator
import os
import re
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gripstream.core import SENSOR_COUNT, Dominance, GloveConfig, Hand, Side, parse_kv_text
from gripstream.errors import GripstreamError, excerpt
from gripstream.protocol import (BLOCK_MIN_BYTES, BYTE_GLOVE, FRAME_DTYPE, FRAME_SIZE, FRAME_STRUCT,
                                 GLOVE_BYTE, SYNC_BYTE, EventKind, StreamEvent, scan_stream_offsets)

SENSOR_IDS = tuple(range(1, SENSOR_COUNT + 1))
_SENSOR_LABELS = tuple(f"S{sid}" for sid in SENSOR_IDS)
GROUP_KEYS = ("hand", "sensor", "condition")  # what analytics can group a study's sessions by

_SEQ_MOD = 0x10000
_AT_BYTE = operator.attrgetter("at_byte_offset")
_TS_MAX = np.iinfo(np.int64).max
_VALUE_MAX = np.iinfo(np.uint16).max
_TAB_LF = np.frombuffer(b"\t\n", "<u2")[0]  # a whole line's two separators read as one number
# subject and condition name the session's files, so they stay inside one file name
_LABEL = re.compile(r"\w[\w.-]*")
_NAME_MAX_BYTES = 255  # the longest file name ext4, XFS, btrfs and APFS take
_TEMP = ".tmp"  # a recording's files are written under their name plus this first
_DIGITS = re.compile(r"[0-9]+")  # str.isdigit and int() take other scripts' digits too


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


def label_problem(subject: str, condition: str) -> str | None:
    """Why subject or condition cannot name a session's files, or None if both can."""
    for what, label in (("subject", subject), ("condition", condition)):
        if not _LABEL.fullmatch(label):
            return (f"{what} {excerpt(label)} is not a label: a letter, digit or underscore, "
                    f"then letters, digits, underscores, dots or dashes")
    # L and R take one byte each; the metadata's name is shorter than the columns'
    size = max(len(path.name.encode()) + len(_TEMP)
               for path in _column_paths(Path(), f"{subject}_L_{condition}"))
    if size > _NAME_MAX_BYTES:
        return (f"subject {excerpt(subject)} and condition {excerpt(condition)} make a "
                f"{size}-byte file name; a file name takes at most {_NAME_MAX_BYTES} bytes")
    return None


def _exact(values, dtype) -> np.ndarray:
    """values as an array of dtype; IngestError if a value would wrap or round."""
    given = np.asarray(values)
    column = given.astype(dtype, copy=False)
    if not np.array_equal(column, given):
        raise IngestError(f"session column holds values outside {np.dtype(dtype).name}")
    return column


class _SensorPairs(Mapping):
    """Sensor id -> (timestamp_ms, voltage_mv) pairs, built on access."""

    def __init__(self, session: "Session"):
        self._session = session

    def __getitem__(self, sid: int) -> list[tuple[int, int]]:
        if sid not in SENSOR_IDS:
            raise KeyError(sid)
        return list(zip(self._session.timestamps_ms.tolist(),
                        self._session.voltages_mv[:, sid - 1].tolist()))

    def __iter__(self):
        return iter(SENSOR_IDS)

    def __len__(self) -> int:
        return len(SENSOR_IDS)


@dataclass(eq=False)
class Session:
    """One glove's recording: metadata plus one row per decoded frame.

    timestamps_ms (int64, (n,)) strictly increases; voltages_mv (uint16,
    (n, 12)) holds S1..S12 and battery_mv (uint16, (n,)) the battery at
    those times; gaps keeps the sequence gap events seen during ingestion.
    samples and battery_trace give the same data as (timestamp_ms, value) pairs;
    they remain only for the benchmark's reference (perfbench/reference.py).
    subject and condition name the recorded files, so label_problem must pass them.
    """

    subject: str
    hand: Hand
    condition: str
    started_at: str
    timestamps_ms: np.ndarray
    voltages_mv: np.ndarray
    battery_mv: np.ndarray
    gaps: list[StreamEvent] = field(default_factory=list)

    def __post_init__(self):
        problem = label_problem(self.subject, self.condition)
        if problem:
            raise IngestError(problem)
        self.timestamps_ms = _exact(self.timestamps_ms, np.int64)
        self.voltages_mv = _exact(self.voltages_mv, np.uint16)
        self.battery_mv = _exact(self.battery_mv, np.uint16)
        n = self.timestamps_ms.size
        shapes = (self.timestamps_ms.shape, self.voltages_mv.shape, self.battery_mv.shape)
        if shapes != ((n,), (n, len(SENSOR_IDS)), (n,)):
            raise IngestError(f"timestamp, voltage and battery columns disagree: shapes {shapes}")
        stalls = np.flatnonzero(np.diff(self.timestamps_ms) <= 0)
        if stalls.size:
            raise IngestError(f"timestamps not strictly increasing at index {stalls[0] + 1}")
        for ev in self.gaps:
            if ev.kind is not EventKind.SEQUENCE_GAP:
                raise IngestError(f"gaps may only hold sequence-gap events, got {ev.kind}")

    def __eq__(self, other):
        if not isinstance(other, Session):
            return NotImplemented
        return (
            (self.subject, self.hand, self.condition, self.started_at, self.gaps)
            == (other.subject, other.hand, other.condition, other.started_at, other.gaps)
            and np.array_equal(self.timestamps_ms, other.timestamps_ms)
            and np.array_equal(self.voltages_mv, other.voltages_mv)
            and np.array_equal(self.battery_mv, other.battery_mv)
        )

    @property
    def samples(self) -> Mapping[int, list[tuple[int, int]]]:
        return _SensorPairs(self)

    @property
    def battery_trace(self) -> list[tuple[int, int]]:
        return list(zip(self.timestamps_ms.tolist(), self.battery_mv.tolist()))

    @property
    def frame_count(self) -> int:
        return len(self.timestamps_ms)

    @property
    def stem(self) -> str:
        return f"{self.subject}_{self.hand.side.value}_{self.condition}"


class SessionBuilder:
    """Decoder state for one glove connection.

    Feed byte chunks as they arrive; chunk boundaries are immaterial: the
    session, the pending bytes and the events, which come in byte order,
    are the same however the stream is cut. The builder locks onto the
    first glove id it sees and rejects frames from the other glove,
    duplicate (seq, timestamp) pairs, and frames whose timestamp does not
    advance, so the finished session's timestamps strictly increase. A
    sequence gap counts the frames the 16-bit seq skipped, plus 65,536 for
    each whole wrap that the timestamp step, at sample_period_ms per frame,
    says went by unseen. It keeps each accepted frame only as its 36 wire
    bytes.

    A feed of at least BLOCK_MIN_BYTES (tail included) appends in one step
    the records those rules accept, found with their gaps over numpy
    columns; only the refused records then go frame by frame, for their
    events. A shorter feed goes frame by frame.
    """

    def __init__(
        self,
        subject: str = "anon",
        condition: str = "quiet",
        dominant_side: Side = Side.RIGHT,
        started_at: str = "",
        sample_period_ms: float = GloveConfig().sample_period_ms,
    ):
        self.subject = subject
        self.condition = condition
        self.hand: Hand | None = None
        self.dominant_side = dominant_side
        self.started_at = started_at
        self.sample_period_ms = sample_period_ms
        self.events: list[StreamEvent] = []
        self._records = bytearray()  # accepted frames back to back, FRAME_DTYPE rows
        self._last_ts = -1  # the last accepted frame's timestamp; -1 before the first
        self._last_seq = 0
        self._gaps: list[StreamEvent] = []
        self._tail = b""
        self._base = 0  # absolute stream offset of the carried tail's first byte
        self._in_garbage = False  # the last chunk ended inside a reported garbage run

    @property
    def frames(self) -> int:
        return len(self._records) // FRAME_SIZE

    @property
    def pending_bytes(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._tail)

    def frame_samples(self, index: int) -> tuple[int, tuple[int, ...]]:
        """Timestamp and the 12 voltages of accepted frame `index`.

        Lets a live consumer (e.g. an alert monitor) walk frames as they
        land without snapshotting the whole session after every feed.
        """
        fields = FRAME_STRUCT.unpack_from(self._records, FRAME_SIZE * range(self.frames)[index])
        return fields[3], fields[5:17]

    def feed(self, data: bytes) -> tuple[int, list[StreamEvent]]:
        """Consume a chunk; returns (samples appended, events this chunk).

        Events come in byte order, at offsets absolute within the connection,
        not within the chunk, so logs stay meaningful across reads.
        """
        buf = self._tail + bytes(data)
        offsets, records, events, remainder = scan_stream_offsets(buf, self._base)
        if buf:
            last_frame = offsets[-1] if offsets else -1
            ends_in_garbage = (not remainder and bool(events)
                               and events[-1].kind is EventKind.SYNC_LOSS
                               and events[-1].at_byte_offset > last_frame)
            if self._in_garbage and buf[0] != SYNC_BYTE:
                # a garbage run that began in an earlier chunk was reported there
                events = events[1:]
            self._in_garbage = ends_in_garbage
        before = len(self._records)
        if offsets:
            if self.hand is None:
                glove = BYTE_GLOVE[records[1]]
                dom = Dominance.DOMINANT if glove is self.dominant_side else Dominance.NON_DOMINANT
                self.hand = Hand(side=glove, dominance=dom)
            accept = self._accept_block if len(buf) >= BLOCK_MIN_BYTES else self._accept_each
            found = accept(offsets, records)
            if found:
                events = sorted(events + found, key=_AT_BYTE)  # sorted runs: a linear merge
        self._base += len(buf) - len(remainder)
        self._tail = remainder
        self.events.extend(events)
        return SENSOR_COUNT * (len(self._records) - before) // FRAME_SIZE, events

    def _accept_block(self, offsets: list[int], records: bytes) -> list[StreamEvent]:
        """Append at once the locked glove's records whose timestamps pass every earlier one.

        Returns their sequence gaps, then the refused records' events from _accept_each.
        """
        rows = np.frombuffer(records, FRAME_DTYPE)
        mine = rows["glove"] == GLOVE_BYTE[self.hand.side]
        stamps = np.where(mine, rows["timestamp_ms"], np.int64(-1))  # timestamps are u32
        keep = stamps > np.maximum.accumulate(np.concatenate(([self._last_ts], stamps[:-1])))
        ts = np.concatenate(([self._last_ts], stamps[keep]))
        seq = np.concatenate(([self._last_seq], rows["seq"][keep])).astype(np.int64)
        missing = (np.diff(seq) - 1) % _SEQ_MOD
        elapsed = np.rint(np.diff(ts) / self.sample_period_ms) - 1  # rint, like round, ties to even
        wraps = np.maximum(0, np.rint((elapsed - missing) / _SEQ_MOD)).astype(np.int64)
        missing += _SEQ_MOD * wraps
        if self._last_ts < 0:
            missing[0] = 0  # the first frame of a connection follows no gap
        at = np.flatnonzero(missing)
        gaps = [StreamEvent(EventKind.SEQUENCE_GAP, offsets[k], missing_count=count)
                for k, count in zip(np.flatnonzero(keep)[at].tolist(), missing[at].tolist())]
        self._gaps += gaps
        refused = np.flatnonzero(~keep).tolist()
        self._records += rows[keep].tobytes() if refused else records
        self._last_ts, self._last_seq = int(ts[-1]), int(seq[-1])
        return gaps + self._accept_each([offsets[k] for k in refused], rows[refused].tobytes())

    def _accept_each(self, offsets: list[int], records: bytes) -> list[StreamEvent]:
        """Append records one at a time, dropping the other glove's, replays and stale timestamps.

        Returns the events of the dropped records and the sequence gaps of the others.
        """
        events = []
        side = GLOVE_BYTE[self.hand.side]
        last_ts, last_seq = self._last_ts, self._last_seq
        for at, off in zip(range(0, len(records), FRAME_SIZE), offsets):
            glove, seq, ts = FRAME_STRUCT.unpack_from(records, at)[1:4]
            if glove != side:
                events.append(StreamEvent(EventKind.FORMAT_ERROR, off))
                continue
            if ts <= last_ts:
                replayed = self._replayed(seq, ts)
                events.append(StreamEvent(EventKind.DUPLICATE_FRAME if replayed
                                          else EventKind.OUT_OF_ORDER, off))
                continue
            if last_ts >= 0:
                missing = (seq - (last_seq + 1)) % _SEQ_MOD
                # add the whole wraps the clock says went by (RFC 3550 A.1)
                elapsed = round((ts - last_ts) / self.sample_period_ms) - 1
                missing += _SEQ_MOD * max(0, round((elapsed - missing) / _SEQ_MOD))
                if missing:
                    gap = StreamEvent(EventKind.SEQUENCE_GAP, off, missing_count=missing)
                    events.append(gap)
                    self._gaps.append(gap)
            last_ts, last_seq = ts, seq
            self._records += records[at:at + FRAME_SIZE]
        self._last_ts, self._last_seq = last_ts, last_seq
        return events

    def _replayed(self, seq: int, ts: int) -> bool:
        """Whether an accepted frame has seq and ts; a held view would stop the records growing."""
        rows = np.frombuffer(self._records, FRAME_DTYPE)
        i = int(np.searchsorted(rows["timestamp_ms"], ts))  # ts <= the last; they strictly rise
        return int(rows["timestamp_ms"][i]) == ts and int(rows["seq"][i]) == seq

    def session(self) -> Session:
        """Snapshot the accepted frames as columns of an immutable-by-convention Session."""
        # with nothing decoded yet, label the empty session without locking the glove
        hand = self.hand or Hand(side=self.dominant_side, dominance=Dominance.DOMINANT)
        # copies, so the bytearray is not left exported and later feeds can grow it
        rows = np.frombuffer(self._records, FRAME_DTYPE)
        return Session(
            subject=self.subject,
            hand=hand,
            condition=self.condition,
            started_at=self.started_at,
            timestamps_ms=rows["timestamp_ms"].astype(np.int64),
            voltages_mv=rows["voltages_mv"].copy(),
            battery_mv=rows["battery_mv"].copy(),
            gaps=list(self._gaps),
        )


@dataclass(frozen=True)
class Manifest:
    """Paths written by record_session."""

    directory: Path
    meta_path: Path
    battery_path: Path
    sensor_paths: dict[int, Path]


def _column_paths(directory: Path, stem: str) -> list[Path]:
    """The files of a session's 12 sensor columns and its battery column, in that order."""
    return [directory / f"{stem}_{suffix}.tsv" for suffix in [*_SENSOR_LABELS, "battery"]]


def _write_tsv(path: Path, stamps: list[str], values) -> None:
    """Write one line per stamp: the stamp's text, then its value's text."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(map(operator.add, stamps, values)))


def record_session(session: Session, directory) -> Manifest:
    """Write one TSV per sensor, a battery trace, and a metadata file.

    Files are named <subject>_<hand>_<condition>_S<k>.tsv with lines
    "timestamp_ms<TAB>voltage_mv". All 14 are written under temporary
    names first; then the old metadata is removed, the columns take their
    final names and the metadata comes last, so its presence marks a complete
    recording. A failure while writing leaves an earlier recording whole.
    """
    directory = Path(directory)
    meta_path = directory / f"{session.stem}_meta.txt"
    paths = [*_column_paths(directory, session.stem), meta_path]
    temps = [path.with_name(path.name + _TEMP) for path in paths]  # outside the *_meta.txt glob
    columns = np.column_stack([session.voltages_mv, session.battery_mv])
    # every line is its timestamp's text plus its value's: format each distinct text once
    stamps = [f"{ts}\t" for ts in session.timestamps_ms.tolist()]
    texts = [f"{value}\n" for value in range(int(columns.max(initial=0)) + 1)]
    completed: list[Path] = []
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for k, temp in enumerate(temps[:-1]):
            _write_tsv(temp, stamps, map(texts.__getitem__, columns[:, k].tolist()))
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
        temps[-1].write_text("\n".join(lines) + "\n", encoding="utf-8")
        meta_path.unlink(missing_ok=True)
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
            completed.append(path)
    except OSError as exc:
        for temp in temps:
            with suppress(OSError):
                temp.unlink(missing_ok=True)
        raise RecordError(f"recording failed after {len(completed)} files: {exc}", completed)
    return Manifest(
        directory=directory,
        meta_path=meta_path,
        battery_path=paths[-2],
        sensor_paths=dict(zip(SENSOR_IDS, paths)),
    )


def _field_values(data: bytes, digits: np.ndarray, ends: np.ndarray, widths: np.ndarray,
                  limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The digit fields that end just before `ends`, `widths` bytes each: uint64 values, bad mask.

    A field is bad when it is empty or its number is above limit. Horner's
    rule reads at most a field's last len(str(limit)) digits, which cannot
    overflow uint64; a wider field is within limit only if the digits
    before those are all zeros.
    """
    keep = len(str(limit))
    total = np.zeros(ends.size, np.uint64)
    for back in range(min(int(widths.max(initial=0)), keep), 0, -1):
        digit = digits[ends - back]  # an index below 0 wraps, but only where widths < back
        digit[widths < back] = 0
        total *= np.uint64(10)
        total += digit
    bad = (widths == 0) | (total > np.uint64(limit))
    for i in np.flatnonzero(widths > keep):
        bad[i] |= bool(data[ends[i] - widths[i]:ends[i] - keep].strip(b"0"))
    return total, bad


def _read_tsv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The timestamp (int64) and value (uint16) columns of one recorded file.

    Every line is ASCII digits, TAB, ASCII digits, LF; past leading zeros,
    timestamps fit int64 and rise strictly and values fit uint16. One numpy
    pass over the bytes reads the file: the bytes outside '0'..'9' separate
    fields, the lines before the first separator out of TAB/LF turn are
    whole, and _field_values converts and checks their fields. ParseError
    names the first line that breaks a rule.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise StructureError(f"missing file {path}")
    d = np.frombuffer(data, np.uint8)
    digits = d - np.uint8(ord("0"))  # bytes below '0' wrap, so every separator is above 9
    seps = np.flatnonzero(digits > 9)
    pairs = seps.size // 2
    broken = np.flatnonzero(d[seps[:2 * pairs]].view(_TAB_LF.dtype) != _TAB_LF)
    whole = int(broken[0]) if broken.size else pairs
    tabs, lfs = seps[0:2 * whole:2], seps[1:2 * whole:2]
    starts = np.concatenate([[0], lfs + 1])
    ts, bad = _field_values(data, digits, tabs, tabs - starts[:-1], _TS_MAX)
    values, bad_values = _field_values(data, digits, lfs, lfs - tabs - 1, _VALUE_MAX)
    bad |= bad_values
    bad[1:] |= ts[1:] <= ts[:-1]
    if bad.any() or starts[-1] < len(data):
        i = int(np.argmax(bad)) if bad.any() else whole
        text = data.split(b"\n", i + 1)[i].decode("utf-8", "backslashreplace")
        raise ParseError(path, i + 1, f"{excerpt(text)} is not <timestamp>TAB<value>LF with a "
                                      f"rising timestamp and a value up to {_VALUE_MAX}")
    return ts.astype(np.int64), values.astype(np.uint16)


def _ascii_int(text: str) -> int:
    """text as an int when it is ASCII digits alone; ValueError otherwise."""
    if not _DIGITS.fullmatch(text):
        raise ValueError(f"{text!r} is not ASCII digits")
    return int(text)


def _meta_field(meta: dict, key: str, path: Path) -> str:
    try:
        return meta[key]
    except KeyError:
        raise StructureError(f"{path} lacks required key {key!r}")


def _meta_enum(cls, text: str, path: Path):
    try:
        return cls(text)
    except ValueError:
        raise StructureError(f"{path}: {excerpt(text)} is not a valid {cls.__name__}") from None


def _load_from_meta(meta_path: Path) -> Session:
    meta_path = Path(meta_path)
    try:
        raw = meta_path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise StructureError(f"missing metadata file {meta_path}")
    except UnicodeDecodeError as exc:
        raise StructureError(f"{meta_path} is not UTF-8 text: "
                             f"byte {exc.start} is {exc.object[exc.start]:#04x}")
    meta = parse_kv_text(raw)
    subject = _meta_field(meta, "subject", meta_path)
    side_txt = _meta_field(meta, "hand", meta_path)
    dom_txt = _meta_field(meta, "dominance", meta_path)
    condition = _meta_field(meta, "condition", meta_path)
    problem = label_problem(subject, condition)
    if problem:
        raise StructureError(f"{meta_path}: {problem}")
    hand = Hand(side=_meta_enum(Side, side_txt, meta_path),
                dominance=_meta_enum(Dominance, dom_txt, meta_path))
    try:
        frames = _ascii_int(_meta_field(meta, "frames", meta_path))
    except ValueError:
        raise StructureError(f"{meta_path}: frames is not an integer")
    gaps = []
    if meta.get("gaps"):
        for item in meta["gaps"].split(","):
            try:
                off_txt, miss_txt = item.split(":")
                offset = _ascii_int(off_txt)
                if gaps and offset <= gaps[-1].at_byte_offset:
                    raise ValueError("gap offsets must rise strictly")
                gaps.append(StreamEvent(EventKind.SEQUENCE_GAP, offset,
                                        missing_count=_ascii_int(miss_txt)))
            except ValueError:
                raise StructureError(f"{meta_path}: bad gap entry {excerpt(item)}")
    timestamps, columns = None, []
    for path in _column_paths(meta_path.parent, f"{subject}_{side_txt}_{condition}"):
        ts, values = _read_tsv(path)
        if len(ts) != frames:
            raise StructureError(f"{path} has {len(ts)} lines, metadata says {frames}")
        timestamps = ts if timestamps is None else timestamps
        differ = np.flatnonzero(ts != timestamps)
        if differ.size:
            i = differ[0]
            raise ParseError(path, i + 1, f"timestamp {ts[i]} differs from S1's {timestamps[i]}")
        columns.append(values)
    return Session(
        subject=subject,
        hand=hand,
        condition=condition,
        started_at=meta.get("started_at", ""),
        timestamps_ms=timestamps,
        voltages_mv=np.column_stack(columns[:-1]),
        battery_mv=columns[-1],
        gaps=gaps,
    )


def _session_metas(directory: Path) -> list[Path]:
    """The metadata files in a directory, sorted; StructureError if there are none."""
    metas = sorted(directory.glob("*_meta.txt"))
    if not metas:
        raise StructureError(f"no session metadata in {directory}")
    return metas


def load_session(source) -> Session:
    """Load a recorded session from its metadata file or its directory.

    A directory must hold exactly one session; use load_sessions for more.
    """
    path = Path(source)
    if path.is_dir():
        metas = _session_metas(path)
        if len(metas) > 1:
            names = ", ".join(m.name for m in metas)
            raise StructureError(f"{path} holds {len(metas)} sessions ({names}); pick one")
        return _load_from_meta(metas[0])
    return _load_from_meta(path)


def load_sessions(directory) -> list[Session]:
    """All sessions recorded in a directory, ordered by file stem."""
    return [_load_from_meta(m) for m in _session_metas(Path(directory))]


@dataclass(frozen=True)
class SessionSummary:
    subject: str
    hand: Hand
    condition: str
    frames: int
    duration_s: float
    gap_count: int
    missing_frames: int
    min_voltage_mv: int
    max_voltage_mv: int
    battery_final_mv: int


def session_summary(session: Session) -> SessionSummary:
    """Counts, duration, and extrema for a session; zeros when empty."""
    n = session.frame_count
    ts, volts = session.timestamps_ms, session.voltages_mv
    return SessionSummary(
        subject=session.subject,
        hand=session.hand,
        condition=session.condition,
        frames=n,
        duration_s=int(ts[-1] - ts[0]) / 1000.0 if n else 0.0,
        gap_count=len(session.gaps),
        missing_frames=sum(ev.missing_count for ev in session.gaps),
        min_voltage_mv=int(volts.min()) if n else 0,
        max_voltage_mv=int(volts.max()) if n else 0,
        battery_final_mv=int(session.battery_mv[-1]) if n else 0,
    )


CSV_HEADER = ("timestamp_ms", "glove", "sensor", "voltage_mv")
_WRITE_PIECE = 1 << 16  # characters per write of an export


def _csv_group_template(size: int) -> str:
    """CSV lines of one (timestamp, glove) group of `size` frames, as a str.format template.

    Field 0 is the timestamp, 1 the glove, then the group's voltages frame
    by frame, as its rows of voltages_mv lie; lines go sensor by sensor,
    frame by frame within a sensor.
    """
    width = len(SENSOR_IDS)
    return "".join(f"{{0}},{{1}},{label},{{{2 + j * width + k}}}\r\n"
                   for k, label in enumerate(_SENSOR_LABELS) for j in range(size))


def export_csv(sessions, dest) -> int:
    """Write sessions as one flat CSV to a path or an open text file; returns the data rows.

    Rows are ordered by timestamp, then glove, then sensor; rows that tie
    on all three keep the order of `sessions`. The frames sharing a
    (timestamp, glove) form a group whose rows one template per group size
    formats in one call; the file is joined whole, then written in 64 KiB pieces.
    """
    sessions = list(sessions)
    width = len(SENSOR_IDS)
    ts = np.concatenate([np.empty(0, np.int64), *(s.timestamps_ms for s in sessions)])
    glove = np.repeat([s.hand.side.value for s in sessions], [s.frame_count for s in sessions])
    mv = np.concatenate([np.empty((0, width), np.uint16), *(s.voltages_mv for s in sessions)])
    order = np.lexsort((glove, ts))  # stable: ties keep session order
    ts, glove = ts[order], glove[order]
    first = np.ones(len(ts), bool)
    first[1:] = (ts[1:] != ts[:-1]) | (glove[1:] != glove[:-1])
    starts = np.flatnonzero(first)
    values = mv[order].ravel().tolist()
    templates: dict[int, str] = {}
    parts = [",".join(CSV_HEADER) + "\r\n"]
    for a, b, stamp, side in zip(starts.tolist(), [*starts[1:].tolist(), len(ts)],
                                 ts[starts].tolist(), glove[starts].tolist()):
        template = templates.get(b - a) or templates.setdefault(b - a, _csv_group_template(b - a))
        parts.append(template.format(stamp, side, *values[width * a:width * b]))
    text = "".join(parts)
    own = isinstance(dest, (str, Path))
    fh = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        # in pieces: a text stream drops the unwritten rest of a partial write to a pipe
        # whose reader left, without raising; the next piece raises BrokenPipeError
        for at in range(0, len(text), _WRITE_PIECE):
            fh.write(text[at:at + _WRITE_PIECE])
    finally:
        if own:
            fh.close()
    return len(values)
