import random
import struct
from binascii import crc_hqx

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripstream.core import GloveConfig, Side
from gripstream.protocol import (
    BATTERY_LIMIT_MV,
    BLOCK_MIN_BYTES,
    BYTE_GLOVE,
    FRAME_DTYPE,
    FRAME_SIZE,
    FRAME_STRUCT,
    GLOVE_BYTE,
    VOLTAGE_LIMIT_MV,
    CrcMismatchError,
    EncodeError,
    EventKind,
    Frame,
    FrameFormatError,
    StreamEvent,
    SyncLossError,
    decode_frame,
    encode_frame,
    encode_records,
    kernel_backend,
    required_bandwidth,
    scan_stream_offsets,
)
from gripstream.errors import DomainError
from gripstream.ingest import SessionBuilder

from helpers import frame_run, random_frame, reference_crc16, reference_scan, wire


def raw_frame(glove_byte=0x52, seq=0, ts=0, battery=4200, voltages=(0,) * 12) -> bytes:
    """Hand-packed frame with a correct checksum but arbitrary field values."""
    body = struct.pack("<BBHIH12HH", 0xA5, glove_byte, seq, ts, battery, *voltages, 0)
    return body[:34] + crc_hqx(body[1:34], 0xFFFF).to_bytes(2, "little")


def test_crc_check_value():
    # standard check input for CRC-16/CCITT-FALSE
    assert crc_hqx(b"123456789", 0xFFFF) == 0x29B1
    assert crc_hqx(b"", 0xFFFF) == 0xFFFF
    assert crc_hqx(bytearray(b"123456789"), 0xFFFF) == 0x29B1


@given(st.binary(max_size=80), st.sampled_from([bytes, bytearray, memoryview]))
def test_crc_equals_table_driven_reference(payload, kind):
    assert crc_hqx(kind(payload), 0xFFFF) == reference_crc16(payload)


def test_documented_example_frame_is_byte_exact():
    # the example in docs/protocol.md, CRC 0x2267 in its last two bytes
    frame = Frame(Side.RIGHT, 7, 140, 4187,
                  (1500, 1482, 1519, 1497, 1503, 1488, 760, 745, 770, 752, 381, 368))
    blob = bytes.fromhex(
        "a5 52 07 00 8c 00 00 00 5b 10 dc 05"
        "ca 05 ef 05 d9 05 df 05 d0 05 f8 02"
        "e9 02 02 03 f0 02 7d 01 70 01 67 22"
    )
    assert encode_frame(frame) == blob
    assert decode_frame(blob) == frame
    assert crc_hqx(blob[1:34], 0xFFFF) == reference_crc16(blob[1:34]) == 0x2267


def test_frame_wire_size_and_round_trip():
    rng = random.Random(21)
    for _ in range(500):
        frame = random_frame(rng)
        blob = encode_frame(frame)
        assert len(blob) == FRAME_SIZE == 36
        assert blob[0] == 0xA5
        assert decode_frame(blob) == frame


def test_decode_rejects_wrong_length():
    with pytest.raises(FrameFormatError):
        decode_frame(b"\xa5" * 35)
    with pytest.raises(FrameFormatError):
        decode_frame(b"\xa5" * 37)


def test_decode_rejects_bad_sync():
    blob = bytearray(encode_frame(random_frame(random.Random(22))))
    blob[0] = 0x00
    with pytest.raises(SyncLossError):
        decode_frame(bytes(blob))


def test_decode_rejects_bad_crc():
    blob = bytearray(encode_frame(random_frame(random.Random(23))))
    blob[10] ^= 0x01
    with pytest.raises(CrcMismatchError):
        decode_frame(bytes(blob))


def test_decode_rejects_bad_fields_behind_valid_crc():
    with pytest.raises(FrameFormatError):
        decode_frame(raw_frame(glove_byte=0x58))
    with pytest.raises(FrameFormatError):
        decode_frame(raw_frame(battery=BATTERY_LIMIT_MV + 1))
    with pytest.raises(FrameFormatError):
        decode_frame(raw_frame(voltages=(VOLTAGE_LIMIT_MV,) + (0,) * 11))


def test_encode_validates_fields():
    good = random_frame(random.Random(24))
    for bad in (
        Frame("R", 0, 0, 0, (0,) * 12),  # not a Side
        Frame(Side.LEFT, -1, 0, 0, (0,) * 12),
        Frame(Side.LEFT, 0x10000, 0, 0, (0,) * 12),
        Frame(Side.LEFT, 0, -5, 0, (0,) * 12),
        Frame(Side.LEFT, 0, 0, BATTERY_LIMIT_MV + 1, (0,) * 12),
        Frame(Side.LEFT, 0, 0, 0, (0,) * 11),
        Frame(Side.LEFT, 0, 0, 0, (VOLTAGE_LIMIT_MV,) + (0,) * 11),
        Frame(Side.LEFT, 1.5, 0, 0, (0,) * 12),
        Frame(Side.LEFT, 0, 0, 0, (1.7,) * 12),
        Frame(Side.LEFT, 0, 2**32, 0, (0,) * 12),
        Frame(Side.LEFT, 0, 0, 4000.5, (0,) * 12),
    ):
        with pytest.raises(EncodeError):
            encode_frame(bad)
    assert decode_frame(encode_frame(good)) == good


def test_encode_records_equals_encode_frame_row_by_row():
    frames = frame_run(random.Random(35), 20, glove=Side.LEFT)
    records = encode_records(Side.LEFT, [f.seq for f in frames], [f.timestamp_ms for f in frames],
                             [f.battery_mv for f in frames], [f.voltages_mv for f in frames])
    assert records.dtype == FRAME_DTYPE and FRAME_DTYPE.itemsize == FRAME_SIZE
    assert records.tobytes() == wire(frames)
    with pytest.raises(EncodeError, match="battery_mv"):
        encode_records(Side.LEFT, [0, 1], [0, 20], [4000, BATTERY_LIMIT_MV + 1], [(0,) * 12] * 2)


def at_offsets(frames, first: int = 0) -> list:
    """(offset, frame) pairs for frames laid back to back from `first`."""
    return [(first + FRAME_SIZE * k, f) for k, f in enumerate(frames)]


def scan(buf, base: int = 0) -> tuple:
    """scan_stream_offsets of buf as (offset, FRAME_STRUCT fields) pairs, events, remainder."""
    offsets, records, events, remainder = scan_stream_offsets(buf, base)
    assert len(np.frombuffer(records, FRAME_DTYPE)) == len(offsets)
    return list(zip(offsets, FRAME_STRUCT.iter_unpack(records))), events, remainder


def frames_of(pairs) -> list:
    """The scanner's (offset, fields) pairs as (offset, Frame) pairs."""
    return [(off, Frame(BYTE_GLOVE[f[1]], f[2], f[3], f[4], f[5:17])) for off, f in pairs]


def test_scan_clean_stream_has_no_events():
    frames = frame_run(random.Random(25), 3)
    pairs, events, remainder = scan(wire(frames))
    assert frames_of(pairs) == at_offsets(frames)
    assert events == []
    assert remainder == b""


def test_scan_skips_garbage_with_single_event():
    frames = frame_run(random.Random(26), 1)
    blob = b"\x01\x02\x03\x04\x05" + wire(frames)
    pairs, events, remainder = scan(blob)
    assert frames_of(pairs) == at_offsets(frames, 5)
    assert events == [StreamEvent(EventKind.SYNC_LOSS, 0)]
    assert remainder == b""


def test_scan_reports_trailing_garbage():
    frames = frame_run(random.Random(27), 1)
    pairs, events, remainder = scan(wire(frames) + b"zzz")
    assert frames_of(pairs) == at_offsets(frames)
    assert events == [StreamEvent(EventKind.SYNC_LOSS, 36)]
    assert remainder == b""


def test_scan_buffers_partial_frame():
    frames = frame_run(random.Random(28), 2)
    blob = wire(frames)
    pairs, events, remainder = scan(blob[:50])
    assert frames_of(pairs) == at_offsets(frames[:1])
    assert events == []
    assert remainder == blob[36:50]
    pairs2, events2, remainder2 = scan(remainder + blob[50:])
    assert frames_of(pairs2) == at_offsets(frames[1:])
    assert events2 == []
    assert remainder2 == b""


def test_scan_chunk_split_never_loses_frames():
    rng = random.Random(29)
    frames = frame_run(rng, 40)
    blob = wire(frames)
    for _ in range(50):
        cut = rng.randrange(len(blob) + 1)
        first, events1, rem = scan(blob[:cut])
        second, events2, rem2 = scan(rem + blob[cut:])
        assert [f for _, f in frames_of(first + second)] == frames
        assert events1 == events2 == []
        assert rem2 == b""


def test_scan_resyncs_after_crc_damage():
    frames = frame_run(random.Random(30), 3)
    blob = bytearray(wire(frames))
    blob[40] ^= 0xFF  # inside the second frame
    pairs, events, remainder = scan(bytes(blob))
    # first and third frames survive; the damaged one surfaces as events
    assert frames_of(pairs) == [(0, frames[0]), (72, frames[2])]
    assert any(e.kind is EventKind.CRC_MISMATCH for e in events)


def test_scan_consumes_field_invalid_frames_whole():
    frames = frame_run(random.Random(31), 1)
    bad = raw_frame(battery=BATTERY_LIMIT_MV + 100)
    pairs, events, remainder = scan(bad + wire(frames))
    assert frames_of(pairs) == at_offsets(frames, 36)
    assert events == [StreamEvent(EventKind.FORMAT_ERROR, 0)]
    assert remainder == b""


def test_scan_offsets_are_byte_positions():
    frames = frame_run(random.Random(32), 2)
    pairs, events, _ = scan(b"\x00" + wire(frames))
    assert [off for off, _ in pairs] == [1, 37]
    assert events == [StreamEvent(EventKind.SYNC_LOSS, 0)]
    pairs, events, _ = scan(b"\x00" + wire(frames), base=1000)
    assert [off for off, _ in pairs] == [1001, 1037]
    assert events == [StreamEvent(EventKind.SYNC_LOSS, 1000)]


def test_single_bit_flips_never_yield_a_different_frame():
    rng = random.Random(33)
    for _ in range(20):
        frame = random_frame(rng)
        blob = encode_frame(frame)
        for bit in range(FRAME_SIZE * 8):
            damaged = bytearray(blob)
            damaged[bit // 8] ^= 1 << (bit % 8)
            pairs, _, _ = scan(bytes(damaged))
            assert pairs == []  # either rejected or buffered, never misread


def test_sequence_gap_event_requires_missing_frames():
    with pytest.raises(DomainError):
        StreamEvent(EventKind.SEQUENCE_GAP, 0, missing_count=0)
    ev = StreamEvent(EventKind.SEQUENCE_GAP, 10, missing_count=3)
    assert ev.missing_count == 3


def test_stream_events_are_immutable_values():
    ev = StreamEvent(EventKind.CRC_MISMATCH, 7)
    assert (ev.kind, ev.at_byte_offset, ev.missing_count) == (EventKind.CRC_MISMATCH, 7, 0)
    assert ev == StreamEvent(EventKind.CRC_MISMATCH, 7, 0) != StreamEvent(EventKind.CRC_MISMATCH, 8)
    assert hash(ev) == hash(StreamEvent(EventKind.CRC_MISMATCH, 7))
    with pytest.raises(AttributeError):
        ev.at_byte_offset = 8


def test_required_bandwidth_budget():
    cfg = GloveConfig()
    assert required_bandwidth(1, cfg) == 14_400.0
    assert required_bandwidth(2, cfg) == 28_800.0
    assert required_bandwidth(2, cfg) <= 115_200.0
    assert required_bandwidth(1, GloveConfig(sample_period_ms=10.0)) == 28_800.0
    with pytest.raises(DomainError):
        required_bandwidth(0, cfg)


def test_kernel_backend_reports_selection():
    assert kernel_backend() == "pure-python"


def random_buffer(rng: random.Random) -> bytes:
    """Up to 250 bytes mixing valid frames, bit-rotted frames and garbage."""
    parts = []
    for _ in range(rng.randrange(6)):
        roll = rng.random()
        if roll < 0.5:
            parts.append(encode_frame(random_frame(rng)))
        elif roll < 0.8:
            blob = bytearray(encode_frame(random_frame(rng)))
            blob[rng.randrange(36)] ^= 1 << rng.randrange(8)
            parts.append(bytes(blob))
        else:
            parts.append(bytes(rng.randrange(256) for _ in range(rng.randrange(30))))
    return b"".join(parts)[: rng.randrange(250)]


def fed(chunks) -> tuple:
    """What a SessionBuilder makes of the chunks: session, pending bytes, events."""
    builder = SessionBuilder()
    for chunk in chunks:
        builder.feed(chunk)
    events = sorted(builder.events, key=lambda e: (e.at_byte_offset, e.kind.value))
    return builder.session(), builder.pending_bytes, events


def test_arbitrary_buffers_decode_exactly_and_split_anywhere():
    rng = random.Random(34)
    for _ in range(60):
        buf = random_buffer(rng)
        pairs, _, _ = scan(buf)
        for off, frame in frames_of(pairs):
            assert decode_frame(buf[off : off + FRAME_SIZE]) == frame
        whole = fed([buf])
        for cut in range(len(buf) + 1):
            assert fed([buf[:cut], buf[cut:]]) == whole, f"split at byte {cut}"


@st.composite
def damaged_buffers(draw) -> bytes:
    """random_buffer's mix, a clean run and checksum-valid frames at field limits,
    then spliced garbage, flipped bits and a cut end."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    buf = bytearray(random_buffer(rng) + wire(frame_run(rng, draw(st.integers(0, 4)))))
    for _ in range(draw(st.integers(0, 2))):  # checksum-valid, maybe with a field out of range
        fields = dict(glove_byte=draw(st.sampled_from([0x4C, 0x52, 0x58])),
                      battery=draw(st.sampled_from([4300, 4301])),
                      voltages=(draw(st.sampled_from([3299, 3300])),) * 12)
        at = FRAME_SIZE * draw(st.integers(0, len(buf) // FRAME_SIZE))
        buf[at:at] = raw_frame(**fields)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(buf)))
        buf[at:at] = draw(st.binary(max_size=40))
    for _ in range(draw(st.integers(0, 3)) if buf else 0):
        buf[draw(st.integers(0, len(buf) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(buf[: len(buf) - draw(st.integers(0, min(len(buf), 40)))])


def scanned_as_oracle(buf: bytes) -> tuple:
    """reference_scan of buf, each Frame written as the field tuple scan gives."""
    frames, events, remainder = reference_scan(buf)
    pairs = [(off, (0xA5, GLOVE_BYTE[f.glove], f.seq, f.timestamp_ms, f.battery_mv,
                    *f.voltages_mv, int.from_bytes(buf[off + 34:off + 36], "little")))
             for off, f in frames]
    return pairs, events, remainder


@settings(max_examples=100, deadline=None)
@given(damaged_buffers())
def test_scan_equals_reference_scan_on_damaged_buffers_split_anywhere(buf):
    assert scan(buf) == scanned_as_oracle(buf)
    for cut in range(len(buf) + 1):
        first = scan(buf[:cut])
        assert first == scanned_as_oracle(buf[:cut]), f"first part of split at byte {cut}"
        rest = first[2] + buf[cut:]
        assert scan(rest) == scanned_as_oracle(rest), f"split at byte {cut}"


_OUT_OF_RANGE = ({"glove_byte": 0x58}, {"battery": BATTERY_LIMIT_MV + 1},
                 {"voltages": (0,) * 5 + (VOLTAGE_LIMIT_MV,) + (0,) * 6})


@st.composite
def block_edge_buffers(draw) -> bytes:
    """Runs of intact frames, BLOCK_MIN_BYTES or more in all, damaged where a run meets
    its neighbours: a flipped first or last byte, garbage after the run with stray 0xA5
    bytes at the frame stride, a checksum-valid frame with a field out of range in
    mid-run, and a partial frame at the end."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    total = draw(st.integers(BLOCK_MIN_BYTES // FRAME_SIZE, BLOCK_MIN_BYTES // FRAME_SIZE + 6))
    ends = sorted(draw(st.sets(st.integers(1, total - 1), max_size=3)))
    buf = bytearray()
    for lo, hi in zip([0, *ends], [*ends, total]):
        run = bytearray(wire(frame_run(rng, hi - lo, start_seq=lo)))
        if draw(st.booleans()):
            at = FRAME_SIZE * draw(st.integers(1, hi - lo))
            run[at:at] = raw_frame(**draw(st.sampled_from(_OUT_OF_RANGE)))
        for edge in draw(st.sets(st.sampled_from([0, -1]))):
            run[edge] ^= 1 << draw(st.integers(0, 7))
        garbage = bytearray(draw(st.binary(max_size=3 * FRAME_SIZE)))
        for at in range(0, len(garbage), FRAME_SIZE):
            if draw(st.booleans()):
                garbage[at] = 0xA5
        buf += run + garbage
    return bytes(buf) + wire(frame_run(rng, 1))[:draw(st.integers(0, FRAME_SIZE - 1))]


@settings(max_examples=8, deadline=None)
@given(block_edge_buffers())
def test_block_scan_equals_reference_scan_at_run_edges_split_anywhere(buf):
    assert len(buf) >= BLOCK_MIN_BYTES
    assert scan(buf) == scanned_as_oracle(buf)
    for cut in range(len(buf) + 1):
        first = scan(buf[:cut])
        rest = first[2] + buf[cut:]
        # parts shorter than BLOCK_MIN_BYTES are walked, as in the test above
        if cut >= BLOCK_MIN_BYTES:
            assert first == scanned_as_oracle(buf[:cut]), f"first part of split at byte {cut}"
        if len(rest) >= BLOCK_MIN_BYTES:
            assert scan(rest) == scanned_as_oracle(rest), f"split at byte {cut}"
