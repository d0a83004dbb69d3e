"""Wire format and codec for glove telemetry frames.

One frame carries all 12 sensor channels of one glove for one 20 ms
acquisition tick. Layout (36 bytes, little-endian):

    offset  size  field
    0       1     sync byte 0xA5
    1       1     glove id: 0x4C left, 0x52 right
    2       2     sequence counter, u16, wraps at 65536
    4       4     timestamp, sender clock, ms, u32
    8       2     battery level, millivolts, u16 (<= 4300)
    10      24    12 x sensor voltage, millivolts, u16, channels S1..S12
                  (each < 3300, the supply rail)
    34      2     CRC-16/CCITT-FALSE over bytes 1..33

At 50 Hz one glove needs 36 * 8 * 50 = 14,400 bps, so a pair fits a
115,200 bps serial-class link with ample margin.

The timestamp is the sender's own clock, which need not start at 0. The
ingester compares raw u32 stamps, so once a sender's clock passes 2**32 ms
(49.7 days) every later frame is refused as OUT_OF_ORDER.

Decoding never trusts a damaged buffer: a frame is only accepted when sync
byte, checksum, and field ranges all validate, and scan_stream_offsets
resynchronizes on the next sync byte after any corruption, reporting what
it skipped as StreamEvents.

FRAME_DTYPE (numpy) and FRAME_STRUCT (struct) mirror the layout above,
SEQ_TS_STRUCT reads a frame's seq and timestamp, and FRAME_SAMPLES picks a
FRAME_STRUCT tuple's (timestamp_ms, voltages_mv); no other module declares
the layout. Bulk paths move whole records: encode_records returns a FRAME_DTYPE
array whose bytes are the capture, scan_stream_offsets the intact frames'
offsets and their records as one FRAME_DTYPE buffer, with the events in
byte order, scanned as numpy columns. Frame, encode_frame and decode_frame
are the single-frame API. The checksum is CRC-16/CCITT-FALSE: decode_frame
calls the standard library's binascii.crc_hqx(data, 0xFFFF), and the bulk
paths (encode_records, which encode_frame calls, and scan_stream_offsets)
compute the same CRC over all rows at once from a position table derived
from crc_hqx. Which of these SessionBuilder.feed uses is said in its
docstring and in docs/protocol.md.
"""

import operator
import struct
from binascii import crc_hqx
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from gripstream.core import GloveConfig, Side
from gripstream.errors import DomainError, GripstreamError

SYNC_BYTE = 0xA5
FRAME_SIZE = 36
VOLTAGE_LIMIT_MV = 3300
BATTERY_LIMIT_MV = 4300

GLOVE_BYTE = {Side.LEFT: 0x4C, Side.RIGHT: 0x52}
BYTE_GLOVE = {v: k for k, v in GLOVE_BYTE.items()}

FRAME_STRUCT = struct.Struct("<BBHIH12HH")
SEQ_TS_STRUCT = struct.Struct("<2xHI")  # a frame's (seq, timestamp_ms)
FRAME_SAMPLES = operator.itemgetter(3, slice(5, 17))  # a FRAME_STRUCT tuple's (ts, S1..S12)
FRAME_DTYPE = np.dtype([("sync", "u1"), ("glove", "u1"), ("seq", "<u2"), ("timestamp_ms", "<u4"),
                        ("battery_mv", "<u2"), ("voltages_mv", "<u2", (12,)), ("crc", "<u2")])
assert FRAME_STRUCT.size == FRAME_DTYPE.itemsize == FRAME_SIZE


def _crc_position_table() -> np.ndarray:
    """The CRC of a 33-byte body is the XOR over positions p of entry [p, body[p]].

    crc_hqx is affine in its data (Sarwate, CACM 31(8), 1988), so entry [p, b]
    is the CRC of byte b followed by 32 - p zero bytes, from 0xFFFF for p == 0
    and from 0 after it. Flat, with entry [p, b] at 256 * p + b, so that one
    take gathers the entries of many rows.
    """
    heads = [bytes((b,)) + bytes(32) for b in range(256)]
    return np.array([crc_hqx(head[:33 - p], 0xFFFF if p == 0 else 0)
                     for p in range(33) for head in heads], np.uint16)


_CRC_TABLE = _crc_position_table()
_CRC_ROW_STARTS = np.arange(0, 33 * 256, 256)
_CRC_CHUNK = 1024  # rows per gather, whose index takes 264 bytes a row while it runs


def _crc_rows(body: np.ndarray) -> np.ndarray:
    """crc_hqx(row, 0xFFFF) of every row of an (n, 33) uint8 array, as n uint16."""
    if len(body) > _CRC_CHUNK:
        return np.concatenate([_crc_rows(body[i:i + _CRC_CHUNK])
                               for i in range(0, len(body), _CRC_CHUNK)])
    return np.bitwise_xor.reduce(_CRC_TABLE.take(body + _CRC_ROW_STARTS), axis=1)


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
    frames = np.zeros((len(seq), FRAME_SIZE), np.uint8)
    records = frames.view(FRAME_DTYPE)[:, 0]
    for name, values, high in (("seq", seq, 0xFFFF), ("timestamp_ms", timestamp_ms, 0xFFFFFFFF),
                               ("battery_mv", battery_mv, BATTERY_LIMIT_MV),
                               ("voltages_mv", voltages_mv, VOLTAGE_LIMIT_MV - 1)):
        column = np.asarray(values, dtype=float)  # exact for every in-range value
        field = records[name]
        if column.shape != field.shape:
            raise EncodeError(f"{name} shaped {column.shape}, expected {field.shape}")
        bad = (column != np.trunc(column)) | (column < 0) | (column > high)  # NaN != NaN
        if np.count_nonzero(bad):  # a third of bad.any()'s cost on encode_frame's one row
            raise EncodeError(f"{name} {column[bad][0].item()!r} is not an integer in [0, {high}]")
        field[...] = column
    records["sync"] = SYNC_BYTE
    records["glove"] = GLOVE_BYTE[glove]
    records["crc"] = _crc_rows(frames[:, 1:34])
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
    fields = FRAME_STRUCT.unpack(buf)
    computed = crc_hqx(buf[1:34], 0xFFFF)
    if fields[-1] != computed:
        raise CrcMismatchError(f"checksum 0x{fields[-1]:04X} != computed 0x{computed:04X}")
    problem = _field_error(fields)
    if problem:
        raise FrameFormatError(problem)
    return Frame(BYTE_GLOVE[fields[1]], fields[2], fields[3], fields[4], fields[5:17])


# event codes of the scan, indexes into _KINDS; 0 is no event
_KINDS = np.array([None, EventKind.SYNC_LOSS, EventKind.CRC_MISMATCH, EventKind.FORMAT_ERROR],
                  object)


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
    trailing partial frame, to be fed back with the next chunk.

    The walk runs as numpy columns over each sync byte with a whole frame
    after it: from a candidate it moves 36 bytes on when its checksum holds
    and one byte on when not, then resumes at the first sync byte from
    there, after a SYNC_LOSS if that is not where it moved to. The
    candidates' checksums come from _crc_rows; Python loops only over the
    chain of candidates visited.
    """
    buf = bytes(buffer)
    n = len(buf)
    a = np.frombuffer(buf, np.uint8)
    syncs = np.flatnonzero(a == SYNC_BYTE)
    m = int(np.searchsorted(syncs, n - FRAME_SIZE, side="right"))
    cands = syncs[:m]
    # no candidate in a buffer shorter than a frame, where sliding_window_view raises
    rows = sliding_window_view(a, FRAME_SIZE)[cands] if m else np.empty((0, FRAME_SIZE), np.uint8)
    recs = rows.view(FRAME_DTYPE)[:, 0]
    crc_ok = recs["crc"] == _crc_rows(rows[:, 1:34])
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
    hit = codes > 0
    events = [StreamEvent(EventKind.SYNC_LOSS, base)] if n and (not syncs.size or syncs[0]) else []
    # built as tuples, past StreamEvent.__new__: its one check is for SEQUENCE_GAP,
    # which a scan never reports
    events += map(_new_tuple, repeat(StreamEvent),
                  zip(_KINDS[codes[hit]].tolist(), (at[hit] + base).tolist(), repeat(0)))
    remainder = buf[syncs[j]:] if j < syncs.size else b""
    return (cands[accepted] + base).tolist(), recs[accepted].tobytes(), events, remainder


def required_bandwidth(gloves: int, cfg: GloveConfig) -> float:
    """Link budget in bits per second for the given number of gloves."""
    if gloves < 1:
        raise DomainError(f"need at least one glove, got {gloves}")
    return gloves * FRAME_SIZE * 8 * (1000.0 / cfg.sample_period_ms)
