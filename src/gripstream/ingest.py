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
from binascii import crc_hqx
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gripstream.core import (SENSOR_COUNT, Dominance, GloveConfig, Hand, Side, _ascii_int,
                             _utf8_text, parse_kv_text)
from gripstream.errors import GripstreamError, excerpt
from gripstream.protocol import (BYTE_GLOVE, FRAME_DTYPE, FRAME_SAMPLES, FRAME_SIZE, FRAME_STRUCT,
                                 SEQ_TS_STRUCT, SYNC_BYTE, EventKind, StreamEvent, _field_error,
                                 scan_stream_offsets)

SENSOR_IDS = tuple(range(1, SENSOR_COUNT + 1))
_SENSOR_LABELS = tuple(f"S{sid}" for sid in SENSOR_IDS)
GROUP_KEYS = ("hand", "sensor", "condition")  # what analytics can group a study's sessions by

BLOCK_MIN_BYTES = 64 * FRAME_SIZE  # where SessionBuilder.feed changes path; see its docstring
_SEQ_MOD = 0x10000
_AT_BYTE = operator.attrgetter("at_byte_offset")
_KIND = operator.attrgetter("kind")
_TS_MAX = np.iinfo(np.int64).max
_VALUE_MAX = np.iinfo(np.uint16).max
_TAB_LF = np.frombuffer(b"\t\n", "<u2")[0]  # a whole line's two separators read as one number
# subject and condition name the session's files, so they stay inside one file name
_LABEL = re.compile(r"\w[\w.-]*")
_NAME_MAX_BYTES = 255  # the longest file name ext4, XFS, btrfs and APFS take
_TEMP = ".tmp"  # a recording's files are written under their name plus this first


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

    timestamps_ms (int64, (n,)) strictly increases from 0 or more;
    voltages_mv (uint16, (n, 12)) holds S1..S12 and battery_mv (uint16,
    (n,)) the battery at those times; gaps keeps the sequence gap events
    seen during ingestion.
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
        if n and self.timestamps_ms[0] < 0:
            raise IngestError(f"timestamps start at {self.timestamps_ms[0]}, below 0")
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
    bytes, and counts holds how many events of each EventKind the feeds
    reported.

    A feed first skips the rest of a garbage run that the last one ended in
    and reported. Then a buffer shorter than BLOCK_MIN_BYTES (tail included)
    is scanned, checked and accepted in one walk without numpy, which
    unpacks each candidate frame once with FRAME_STRUCT and checks its
    checksum with binascii.crc_hqx. A longer one is scanned by
    scan_stream_offsets, whose checksums come from numpy columns, and
    appends in one step the records those rules accept, found with their
    gaps over numpy columns; only the refused records then go one at a
    time, for their events, through the rule the walk applies (_refused).
    docs/protocol.md gives the crossover that sets BLOCK_MIN_BYTES.
    last_accepted hands a live consumer such as serve the frames a feed
    accepted as (timestamp_ms, voltages_mv) pairs, picked by FRAME_SAMPLES:
    a short feed's from the tuples its walk unpacked, so nothing is unpacked
    again, a long feed's unpacked on the first call.
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
        self.counts: Counter[EventKind] = Counter()
        self._records = bytearray()  # accepted frames back to back, FRAME_DTYPE rows
        self._glove = -1  # the locked glove's id byte; -1 before the first frame
        self._last_ts = -1  # the last accepted frame's timestamp; -1 before the first
        self._last_seq = 0
        self._gaps: list[StreamEvent] = []
        self._tail = b""
        self._base = 0  # absolute stream offset of the carried tail's first byte
        self._in_garbage = False  # the last chunk ended inside a reported garbage run
        self._accepted: list[tuple] | None = []  # the last feed's accepted samples; None: unpack
        self._accepted_at = 0  # where the last feed's accepted records begin in _records

    @property
    def frames(self) -> int:
        return len(self._records) // FRAME_SIZE

    @property
    def pending_bytes(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._tail)

    def frame_samples(self, index: int) -> tuple[int, tuple[int, ...]]:
        """Timestamp and the 12 voltages of accepted frame `index`."""
        return FRAME_SAMPLES(FRAME_STRUCT.unpack_from(self._records,
                                                      FRAME_SIZE * range(self.frames)[index]))

    def last_accepted(self) -> list[tuple[int, tuple[int, ...]]]:
        """(timestamp_ms, voltages_mv) of each frame the last feed accepted, in byte order."""
        if self._accepted is None:
            self._accepted = list(map(FRAME_SAMPLES,
                                      FRAME_STRUCT.iter_unpack(self._records[self._accepted_at:])))
        return self._accepted

    def feed(self, data: bytes) -> tuple[int, list[StreamEvent]]:
        """Consume a chunk; returns (samples appended, events this chunk).

        Events come in byte order, at offsets absolute within the connection,
        not within the chunk, so logs stay meaningful across reads.
        """
        buf = self._tail + bytes(data)
        before = self._accepted_at = len(self._records)
        if self._in_garbage:  # the rest of a run an earlier feed reported
            skip = buf.find(SYNC_BYTE)
            skip = len(buf) if skip < 0 else skip
            self._base += skip
            buf = buf[skip:]
            self._in_garbage = not buf
        if len(buf) < BLOCK_MIN_BYTES:
            events, remainder, self._accepted = self._walk(buf)
        else:
            self._accepted = None
            offsets, records, events, remainder = scan_stream_offsets(buf, self._base)
            last_frame = offsets[-1] if offsets else -1
            self._in_garbage = (not remainder and bool(events)
                                and events[-1].kind is EventKind.SYNC_LOSS
                                and events[-1].at_byte_offset > last_frame)
            if offsets:
                if self._glove < 0:
                    self._lock(records[1])
                found = self._accept_block(offsets, records)
                if found:
                    events = sorted(events + found, key=_AT_BYTE)  # sorted runs: a linear merge
        self._base += len(buf) - len(remainder)
        self._tail = remainder
        if events:
            self.events.extend(events)
            self.counts.update(map(_KIND, events))
        return SENSOR_COUNT * (len(self._records) - before) // FRAME_SIZE, events

    def _lock(self, glove: int) -> None:
        """Lock the connection to the glove of id byte `glove`, the first frame's."""
        side = BYTE_GLOVE[glove]
        dom = Dominance.DOMINANT if side is self.dominant_side else Dominance.NON_DOMINANT
        self.hand = Hand(side=side, dominance=dom)
        self._glove = glove

    def _walk(self, buf: bytes) -> tuple[list[StreamEvent], bytes, list[tuple]]:
        """Scan, check and accept buf a position at a time, as the numpy path does over columns.

        Returns the events in byte order, the remainder, and the accepted
        frames' (timestamp_ms, voltages_mv). Each candidate frame is unpacked once.
        """
        events: list[StreamEvent] = []
        accepted: list[tuple] = []
        base, n, i = self._base, len(buf), 0
        while i < n:
            if buf[i] != SYNC_BYTE:
                events.append(StreamEvent(EventKind.SYNC_LOSS, base + i))
                i = buf.find(SYNC_BYTE, i)
                if i < 0:
                    self._in_garbage = True
                    break
                continue
            if n - i < FRAME_SIZE:
                return events, buf[i:], accepted
            fields = FRAME_STRUCT.unpack_from(buf, i)
            if crc_hqx(buf[i + 1:i + 34], 0xFFFF) != fields[-1]:
                events.append(StreamEvent(EventKind.CRC_MISMATCH, base + i))
                i += 1
                continue
            start, at = i, base + i
            i += FRAME_SIZE
            if _field_error(fields):
                events.append(StreamEvent(EventKind.FORMAT_ERROR, at))
                continue
            if self._glove < 0:
                self._lock(fields[1])
            _, glove, seq, ts = fields[:4]
            refused = self._refused(glove, seq, ts, at)
            if refused is not None:
                events.append(refused)
                continue
            if self._last_ts >= 0:
                missing = (seq - (self._last_seq + 1)) % _SEQ_MOD
                # add the whole wraps the clock says went by (RFC 3550 A.1)
                elapsed = round((ts - self._last_ts) / self.sample_period_ms) - 1
                missing += _SEQ_MOD * max(0, round((elapsed - missing) / _SEQ_MOD))
                if missing:
                    gap = StreamEvent(EventKind.SEQUENCE_GAP, at, missing_count=missing)
                    events.append(gap)
                    self._gaps.append(gap)
            self._last_ts, self._last_seq = ts, seq
            self._records += buf[start:i]
            accepted.append(FRAME_SAMPLES(fields))
        return events, b"", accepted

    def _refused(self, glove: int, seq: int, ts: int, at: int) -> StreamEvent | None:
        """The event refusing the checksum-valid frame at byte `at`, or None to accept it.

        Another glove's frame is a FORMAT_ERROR. A frame whose timestamp does
        not pass the last accepted one is a DUPLICATE_FRAME when an accepted
        frame has its seq and timestamp, else OUT_OF_ORDER, found by one
        binary search over the accepted timestamps, which strictly rise.
        """
        if glove != self._glove:
            return StreamEvent(EventKind.FORMAT_ERROR, at)
        if ts > self._last_ts:
            return None
        records = self._records
        i = bisect_left(range(self.frames), ts,
                        key=lambda k: SEQ_TS_STRUCT.unpack_from(records, FRAME_SIZE * k)[1])
        replayed = SEQ_TS_STRUCT.unpack_from(records, FRAME_SIZE * i) == (seq, ts)
        return StreamEvent(EventKind.DUPLICATE_FRAME if replayed else EventKind.OUT_OF_ORDER, at)

    def _accept_block(self, offsets: list[int], records: bytes) -> list[StreamEvent]:
        """Append at once the locked glove's records whose timestamps pass every earlier one.

        Returns their sequence gaps, then the refused records' events from _refused:
        each refused timestamp is at or below one appended before it, and every
        record appended after it is later, so those are the events of taking
        every record one at a time.
        """
        rows = np.frombuffer(records, FRAME_DTYPE)
        mine = rows["glove"] == self._glove
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
        refused = np.flatnonzero(~keep)
        self._records += rows[keep].tobytes() if refused.size else records
        self._last_ts, self._last_seq = int(ts[-1]), int(seq[-1])
        fields = rows[["glove", "seq", "timestamp_ms"]][refused].tolist()
        return gaps + [self._refused(*f, offsets[k]) for k, f in zip(refused.tolist(), fields)]

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


def _ascii_words(values, sep: bytes) -> np.ndarray:
    """Each non-negative integer's ASCII digits then sep, as a row of 8-byte words.

    Returns an (n, w) uint64 array, w the fewest words that hold the
    largest number's digits and sep. The text is right-aligned: the bytes
    before a number's first digit are 0, so a line's text is its row's
    bytes without the zeros. The words are only moved, never computed on,
    so byte order does not matter.
    """
    rest = np.asarray(values).astype(np.uint64)
    digits = len(str(int(rest.max(initial=0))))
    end = -(-(digits + len(sep)) // 8) * 8 - len(sep)  # the byte after the last digit
    text = np.zeros((rest.size, end + len(sep)), np.uint8)
    text[:, end:] = np.frombuffer(sep, np.uint8)
    text[:, end - 1] = rest % 10 + ord("0")  # 0 is the one number whose first digit is 0
    for at in range(end - 2, end - 1 - digits, -1):
        rest //= 10
        text[:, at] = np.where(rest, rest % 10 + ord("0"), 0)
    return text.view(np.uint64)


def _write_tsv(path: Path, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def record_session(session: Session, directory) -> Manifest:
    """Write one TSV per sensor, a battery trace, and a metadata file.

    Files are named <subject>_<hand>_<condition>_S<k>.tsv with lines
    "timestamp_ms<TAB>voltage_mv". A file's lines are the rows of one
    uint64 word matrix (_ascii_words): the session's timestamp words, shared
    by all 13 files, then the column's value words, gathered from a table
    of every value up to the largest. All 14 files are written under
    temporary names first; then the old metadata is removed, the columns
    take their final names and the metadata comes last, so its presence
    marks a complete recording. A failure while writing leaves an earlier
    recording whole.
    """
    directory = Path(directory)
    meta_path = directory / f"{session.stem}_meta.txt"
    paths = [*_column_paths(directory, session.stem), meta_path]
    temps = [path.with_name(path.name + _TEMP) for path in paths]  # outside the *_meta.txt glob
    columns = np.vstack([session.voltages_mv.T, session.battery_mv])
    stamps = _ascii_words(session.timestamps_ms, b"\t")
    table = _ascii_words(np.arange(int(columns.max(initial=0)) + 1), b"\n")
    rows = np.empty((session.frame_count, stamps.shape[1] + table.shape[1]), np.uint64)
    rows[:, :stamps.shape[1]] = stamps
    completed: list[Path] = []
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for column, temp in zip(columns, temps[:-1]):
            rows[:, stamps.shape[1]:] = table[column]
            _write_tsv(temp, rows.tobytes().translate(None, b"\0"))
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
        meta = parse_kv_text(_utf8_text(meta_path, StructureError))
    except FileNotFoundError:
        raise StructureError(f"missing metadata file {meta_path}")
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
_GLOVE_LETTERS = sorted(side.value for side in Side)  # glove codes sort as their letters do
# the "<glove>,S<k>," between an export line's timestamp and voltage, one 8-byte word each
_CSV_LABELS = np.frombuffer(b"".join(f"{glove},{label},".encode().rjust(8, b"\0")
                                     for glove in _GLOVE_LETTERS for label in _SENSOR_LABELS),
                            np.uint64).reshape(len(_GLOVE_LETTERS), SENSOR_COUNT)
_EXPORT_SLICE = 4096  # frames an export formats at a time, rounded up to a whole group
_WRITE_PIECE = 1 << 16  # characters per write of an export


def export_csv(sessions, dest) -> int:
    """Write sessions as one flat CSV to a path or an open text file; returns the data rows.

    Rows are ordered by timestamp, then glove, then sensor; rows that tie
    on all three keep the order of `sessions`. The frames sharing a
    (timestamp, glove) form a group: of a group of s frames starting at
    sorted frame a, frame i puts S(k+1) on line 12·a + k·s + (i − a).
    Each line is a row of uint64 words (_ascii_words): the timestamp, the
    glove and sensor from a table of 24, and the voltage from a table of
    every value up to the largest. The study is formatted in slices of
    whole groups of about _EXPORT_SLICE frames, so the word matrix stays
    small, and each slice is written in pieces of at most 64 KiB.
    """
    sessions = list(sessions)
    width = len(SENSOR_IDS)
    ts = np.concatenate([np.empty(0, np.int64), *(s.timestamps_ms for s in sessions)])
    glove = np.repeat([_GLOVE_LETTERS.index(s.hand.side.value) for s in sessions],
                      [s.frame_count for s in sessions])
    mv = np.concatenate([np.empty((0, width), np.uint16), *(s.voltages_mv for s in sessions)])
    order = np.lexsort((glove, ts))  # stable: ties keep session order
    ts, glove, mv = ts[order], glove[order], mv[order]
    first = np.ones(len(ts), bool)
    first[1:] = (ts[1:] != ts[:-1]) | (glove[1:] != glove[:-1])
    bounds = np.append(np.flatnonzero(first), len(ts))
    group = np.cumsum(first) - 1
    size = np.diff(bounds)[group]
    s1_line = (width - 1) * bounds[group] + np.arange(len(ts))  # 12·a + (i − a)
    # each slice ends at the first group to start at or after a multiple of _EXPORT_SLICE
    cuts = np.unique(np.append(
        bounds[np.searchsorted(bounds, np.arange(0, len(ts), _EXPORT_SLICE))], len(ts)))
    values = _ascii_words(np.arange(int(mv.max(initial=0)) + 1), b"\r\n")
    own = isinstance(dest, (str, Path))
    fh = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            stamps = _ascii_words(ts[lo:hi], b",")
            words = np.empty((hi - lo, width, stamps.shape[1] + 1 + values.shape[1]), np.uint64)
            words[:, :, :stamps.shape[1]] = stamps[:, None]
            words[:, :, stamps.shape[1]] = _CSV_LABELS[glove[lo:hi]]
            words[:, :, stamps.shape[1] + 1:] = values[mv[lo:hi]]
            line = s1_line[lo:hi, None] + np.arange(width) * size[lo:hi, None] - width * lo
            lines = np.empty_like(words).reshape(-1, words.shape[2])
            lines[line.ravel()] = words.reshape(-1, words.shape[2])
            text = lines.tobytes().translate(None, b"\0").decode("ascii")
            # in pieces: a text stream drops the unwritten rest of a partial write to a pipe
            # whose reader left, without raising; the next piece raises BrokenPipeError
            for at in range(0, len(text), _WRITE_PIECE):
                fh.write(text[at:at + _WRITE_PIECE])
    finally:
        if own:
            fh.close()
    return width * len(ts)
