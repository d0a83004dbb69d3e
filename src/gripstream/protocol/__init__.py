"""Wire format and codec for glove telemetry frames.

One frame carries all 12 sensor channels of one glove for one 20 ms
acquisition tick. Layout (36 bytes, little-endian):

    offset  size  field
    0       1     sync byte 0xA5
    1       1     glove id: 0x4C left, 0x52 right
    2       2     sequence counter, u16, wraps at 65536
    4       4     timestamp, milliseconds since session start, u32
    8       2     battery level, millivolts, u16 (<= 4300)
    10      24    12 x sensor voltage, millivolts, u16, channels S1..S12
                  (each < 3300, the supply rail)
    34      2     CRC-16/CCITT-FALSE over bytes 1..33

At 50 Hz one glove needs 36 * 8 * 50 = 14,400 bps, so a pair fits a
115,200 bps serial-class link with ample margin.

Decoding never trusts a damaged buffer: a frame is only accepted when sync
byte, checksum, and field ranges all validate, and scan_stream_offsets
resynchronizes on the next sync byte after any corruption, reporting what
it skipped as StreamEvents.

FRAME_DTYPE (numpy) and FRAME_STRUCT (struct) mirror the layout above; no
other module declares it. Bulk paths move whole records: encode_records
returns a FRAME_DTYPE array whose bytes are the capture, scan_stream_offsets
the intact frames' offsets and their records as one FRAME_DTYPE buffer, with
the events in byte order. A buffer of BLOCK_MIN_BYTES or more is scanned as
numpy columns, a shorter one a position at a time, which is cheaper per call
for the few frames a live read brings. Frame, encode_frame and decode_frame
are the single-frame API. The checksum is the standard library's
binascii.crc_hqx(data, 0xFFFF), CRC-16/CCITT-FALSE in C, one call per
candidate frame.
"""

import struct
from binascii import crc_hqx
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from gripstream.core import GloveConfig, Side
from gripstream.errors import DomainError, GripstreamError

SYNC_BYTE = 0xA5
FRAME_SIZE = 36
VOLTAGE_LIMIT_MV = 3300
BATTERY_LIMIT_MV = 4300
# A buffer this long or longer is scanned, and accepted by SessionBuilder.feed,
# as numpy columns; a shorter one a frame at a time, which costs less per call
# below the measured crossover (docs/protocol.md).
BLOCK_MIN_BYTES = 64 * FRAME_SIZE

GLOVE_BYTE = {Side.LEFT: 0x4C, Side.RIGHT: 0x52}
BYTE_GLOVE = {v: k for k, v in GLOVE_BYTE.items()}

FRAME_STRUCT = struct.Struct("<BBHIH12HH")
FRAME_DTYPE = np.dtype([("sync", "u1"), ("glove", "u1"), ("seq", "<u2"), ("timestamp_ms", "<u4"),
                        ("battery_mv", "<u2"), ("voltages_mv", "<u2", (12,)), ("crc", "<u2")])
assert FRAME_STRUCT.size == FRAME_DTYPE.itemsize == FRAME_SIZE


def kernel_backend() -> str:
    """Name of the codec kernel, recorded with benchmark runs."""
    return "pure-python"


class CodecError(GripstreamError):
    """Base class for frame encoding/decoding failures."""


class EncodeError(CodecError):
    pass


class DecodeError(CodecError):
    pass


class SyncLossError(DecodeError):
    pass


class CrcMismatchError(DecodeError):
    pass


class FrameFormatError(DecodeError):
    pass


class EventKind(Enum):
    CRC_MISMATCH = "crc_mismatch"
    SYNC_LOSS = "sync_loss"
    SEQUENCE_GAP = "sequence_gap"
    DUPLICATE_FRAME = "duplicate_frame"
    FORMAT_ERROR = "format_error"
    OUT_OF_ORDER = "out_of_order"


class StreamEvent(namedtuple("_StreamEvent", "kind at_byte_offset missing_count")):
    """Anomaly (or milestone) observed while consuming a byte stream.

    Fields kind, at_byte_offset and missing_count (default 0); immutable and
    compared by value. A named tuple, not a frozen dataclass: a block scan
    builds thousands, and a frozen dataclass takes about four times as long
    to construct, setting each field through object.__setattr__. __new__
    reads module names: looking an enum member up on its class costs as much
    as the rest of the construction.
    """

    __slots__ = ()

    def __new__(cls, kind: EventKind, at_byte_offset: int, missing_count: int = 0):
        if kind is _SEQUENCE_GAP and missing_count < 1:
            raise DomainError("sequence gap must report at least one missing frame")
        return _new_tuple(cls, (kind, at_byte_offset, missing_count))


_SEQUENCE_GAP = EventKind.SEQUENCE_GAP
_new_tuple = tuple.__new__


@dataclass(frozen=True)
class Frame:
    """One 50 Hz transmission unit for one glove."""

    glove: Side
    seq: int
    timestamp_ms: int
    battery_mv: int
    voltages_mv: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "voltages_mv", tuple(self.voltages_mv))


def encode_records(glove: Side, seq, timestamp_ms, battery_mv, voltages_mv) -> np.ndarray:
    """FRAME_DTYPE records of n frames from one glove, checksums filled in.

    Takes n values per field and n rows of S1..S12; each must be an integer
    in its field's range, or EncodeError names the field and the first bad value.
    """
    if not isinstance(glove, Side):
        raise EncodeError(f"glove must be a Side, got {glove!r}")
    records = np.zeros(len(seq), FRAME_DTYPE)
    for name, values, high in (("seq", seq, 0xFFFF), ("timestamp_ms", timestamp_ms, 0xFFFFFFFF),
                               ("battery_mv", battery_mv, BATTERY_LIMIT_MV),
                               ("voltages_mv", voltages_mv, VOLTAGE_LIMIT_MV - 1)):
        column = np.asarray(values, dtype=float)  # exact for every in-range value
        if column.shape != records[name].shape:
            raise EncodeError(f"{name} shaped {column.shape}, expected {records[name].shape}")
        bad = ~((column >= 0) & (column <= high) & (column == np.trunc(column)))
        if bad.any():
            raise EncodeError(f"{name} {column[bad][0].item()!r} is not an integer in [0, {high}]")
        records[name] = column
    records["sync"] = SYNC_BYTE
    records["glove"] = GLOVE_BYTE[glove]
    body = records.tobytes()
    records["crc"] = [crc_hqx(body[i:i + 33], 0xFFFF) for i in range(1, len(body), FRAME_SIZE)]
    return records


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame to its 36-byte wire form."""
    return encode_records(frame.glove, [frame.seq], [frame.timestamp_ms], [frame.battery_mv],
                          [frame.voltages_mv]).tobytes()


def _field_error(fields) -> str | None:
    """Why the unpacked fields of a checksum-valid frame are out of range, or None."""
    if fields[1] not in BYTE_GLOVE:
        return f"unknown glove id 0x{fields[1]:02X}"
    if fields[4] > BATTERY_LIMIT_MV:
        return f"battery {fields[4]} mV above {BATTERY_LIMIT_MV}"
    if max(fields[5:17]) >= VOLTAGE_LIMIT_MV:
        i, v = next((i, v) for i, v in enumerate(fields[5:17]) if v >= VOLTAGE_LIMIT_MV)
        return f"S{i + 1} voltage {v} mV not below {VOLTAGE_LIMIT_MV}"
    return None


def decode_frame(data: bytes) -> Frame:
    """Decode exactly one 36-byte frame; raise instead of guessing.

    SyncLossError for a bad sync byte, CrcMismatchError for a failed
    checksum, FrameFormatError for anything else (wrong length, unknown
    glove id, out-of-range fields).
    """
    buf = bytes(data)
    if len(buf) != FRAME_SIZE:
        raise FrameFormatError(f"frame must be {FRAME_SIZE} bytes, got {len(buf)}")
    if buf[0] != SYNC_BYTE:
        raise SyncLossError(f"expected sync byte 0x{SYNC_BYTE:02X}, got 0x{buf[0]:02X}")
    stored = buf[34] | (buf[35] << 8)
    computed = crc_hqx(buf[1:34], 0xFFFF)
    if stored != computed:
        raise CrcMismatchError(f"checksum 0x{stored:04X} != computed 0x{computed:04X}")
    fields = FRAME_STRUCT.unpack(buf)
    problem = _field_error(fields)
    if problem:
        raise FrameFormatError(problem)
    return Frame(BYTE_GLOVE[fields[1]], fields[2], fields[3], fields[4], fields[5:17])


def _walk(buf: bytes, base: int) -> tuple[list[int], bytes, list[StreamEvent], bytes]:
    """scan_stream_offsets of buf, one position at a time."""
    offsets: list[int] = []
    records = bytearray()
    events: list[StreamEvent] = []
    n = len(buf)
    i = 0
    while i < n:
        if buf[i] != SYNC_BYTE:
            events.append(StreamEvent(EventKind.SYNC_LOSS, base + i))
            i = buf.find(SYNC_BYTE, i)
            if i < 0:
                break
            continue
        if n - i < FRAME_SIZE:
            return offsets, bytes(records), events, buf[i:]
        stored = buf[i + 34] | (buf[i + 35] << 8)
        if crc_hqx(buf[i + 1:i + 34], 0xFFFF) != stored:
            events.append(StreamEvent(EventKind.CRC_MISMATCH, base + i))
            i += 1
            continue
        if _field_error(FRAME_STRUCT.unpack_from(buf, i)):
            events.append(StreamEvent(EventKind.FORMAT_ERROR, base + i))
        else:
            offsets.append(base + i)
            records += buf[i:i + FRAME_SIZE]
        i += FRAME_SIZE
    return offsets, bytes(records), events, b""


# event codes of the block scan, indexes into _KINDS; 0 is no event
_KINDS = (None, EventKind.SYNC_LOSS, EventKind.CRC_MISMATCH, EventKind.FORMAT_ERROR)


def _scan_block(buf: bytes, base: int) -> tuple[list[int], bytes, list[StreamEvent], bytes]:
    """_walk's scan as numpy columns over each sync byte with a whole frame after it.

    From a candidate the walk moves 36 bytes on when its checksum holds and
    one byte on when not, then resumes at the first sync byte from there,
    after a SYNC_LOSS if that is not where it moved to. Python loops only
    over the chain of candidates visited, plus one crc_hqx call per candidate.
    """
    n = len(buf)
    a = np.frombuffer(buf, np.uint8)
    syncs = np.flatnonzero(a == SYNC_BYTE)
    m = int(np.searchsorted(syncs, n - FRAME_SIZE, side="right"))
    cands = syncs[:m]
    mv = memoryview(buf)
    crcs = np.array([crc_hqx(mv[c + 1:c + 34], 0xFFFF) for c in cands.tolist()], np.uint16)
    recs = sliding_window_view(a, FRAME_SIZE)[cands].view(FRAME_DTYPE)[:, 0]
    crc_ok = recs["crc"] == crcs
    glove = recs["glove"]
    fields_ok = (((glove == GLOVE_BYTE[Side.LEFT]) | (glove == GLOVE_BYTE[Side.RIGHT]))
                 & (recs["battery_mv"] <= BATTERY_LIMIT_MV)
                 & (recs["voltages_mv"].max(axis=1, initial=0) < VOLTAGE_LIMIT_MV))
    resume = cands + np.where(crc_ok, FRAME_SIZE, 1)
    following = np.searchsorted(syncs, resume)
    lost = np.append(syncs, n)[following] != resume  # resume == n ends the buffer, no loss
    path: list[int] = []
    j, chain = 0, following.tolist()
    while j < m:
        path.append(j)
        j = chain[j]
    path = np.array(path, np.intp)
    accepted = path[crc_ok[path] & fields_ok[path]]
    at = np.column_stack([cands[path], resume[path]]).ravel()
    codes = np.column_stack([np.where(crc_ok[path], np.where(fields_ok[path], 0, 3), 2),
                             np.where(lost[path], 1, 0)]).ravel()
    events = [StreamEvent(EventKind.SYNC_LOSS, base)] if n and (not syncs.size or syncs[0]) else []
    events += [StreamEvent(_KINDS[code], base + off)
               for code, off in zip(codes[codes > 0].tolist(), at[codes > 0].tolist())]
    remainder = buf[syncs[j]:] if j < syncs.size else b""
    return (cands[accepted] + base).tolist(), recs[accepted].tobytes(), events, remainder


def scan_stream_offsets(
    buffer, base: int = 0,
) -> tuple[list[int], bytes, list[StreamEvent], bytes]:
    """Extract every intact frame from a buffer, resynchronizing past damage.

    Returns (offsets, records, events, remainder). offsets holds each
    intact frame's position in the buffer plus base; records holds the
    frames' 36 bytes back to back, which np.frombuffer(records, FRAME_DTYPE)
    reads as rows. Garbage runs surface as one SYNC_LOSS event each, failed
    checksums as CRC_MISMATCH (scan resumes one byte later), checksum-valid
    frames with out-of-range fields as FORMAT_ERROR (consumed whole); events
    come in byte order, each at its position plus base. The remainder is a
    trailing partial frame, to be fed back with the next chunk. A buffer of
    BLOCK_MIN_BYTES or more is scanned as numpy columns, a shorter one a
    position at a time without numpy; both give the same result.
    """
    buf = bytes(buffer)
    return (_scan_block if len(buf) >= BLOCK_MIN_BYTES else _walk)(buf, base)


def required_bandwidth(gloves: int, cfg: GloveConfig) -> float:
    """Link budget in bits per second for the given number of gloves."""
    if gloves < 1:
        raise DomainError(f"need at least one glove, got {gloves}")
    return gloves * FRAME_SIZE * 8 * (1000.0 / cfg.sample_period_ms)
