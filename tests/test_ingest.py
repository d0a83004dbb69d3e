import csv
import io
import itertools
import os
import random
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gripstream.ingest
from gripstream.core import Dominance, GloveConfig, Hand, Side
from gripstream.ingest import (
    BLOCK_MIN_BYTES,
    IngestError,
    ParseError,
    RecordError,
    Session,
    SessionBuilder,
    StructureError,
    export_csv,
    load_session,
    load_sessions,
    record_session,
    session_summary,
)
from gripstream.pipeline import run_plan, session_from_capture
from gripstream.protocol import EventKind, Frame, StreamEvent, encode_frame, encode_records
from gripstream.simulate import SessionPlan, get_preset

from helpers import (
    build_session,
    frame_run,
    noisy_capture,
    random_frame,
    raw_frame,
    reference_export_csv,
    reference_read_tsv,
    reference_tsv_text,
    wire,
)


def test_feed_appends_twelve_samples_per_frame():
    frames = frame_run(random.Random(41), 500)
    builder = SessionBuilder()
    appended, events = builder.feed(wire(frames))
    assert appended == 6000
    assert events == []
    assert builder.frames == 500
    session = builder.session()
    assert session.frame_count == 500
    assert session.voltages_mv.shape == (500, 12)
    assert session.battery_mv.shape == (500,)
    assert session.timestamps_ms[:3].tolist() == [0, 20, 40]


def test_duplicate_frame_dropped_first_wins():
    frame = frame_run(random.Random(42), 1)[0]
    builder = SessionBuilder()
    blob = encode_frame(frame)
    appended1, events1 = builder.feed(blob)
    appended2, events2 = builder.feed(blob)
    assert (appended1, events1) == (12, [])
    assert appended2 == 0
    assert [e.kind for e in events2] == [EventKind.DUPLICATE_FRAME]
    assert builder.frames == 1


def test_sequence_gap_arithmetic():
    frames = frame_run(random.Random(43), 4, start_seq=1)
    del frames[2]  # drop seq 3 -> stream shows 1, 2, 4
    builder = SessionBuilder()
    _, events = builder.feed(wire(frames))
    gaps = [e for e in events if e.kind is EventKind.SEQUENCE_GAP]
    assert len(gaps) == 1
    assert gaps[0].missing_count == 1
    assert gaps[0].at_byte_offset == 72  # third frame on the wire
    assert builder.session().gaps == gaps


def test_sequence_wrap_is_not_a_gap():
    rng = random.Random(44)
    frames = [
        random_frame(rng, glove=Side.LEFT, seq=65535, timestamp_ms=100),
        random_frame(rng, glove=Side.LEFT, seq=0, timestamp_ms=120),
    ]
    builder = SessionBuilder()
    _, events = builder.feed(wire(frames))
    assert events == []
    assert builder.frames == 2


def test_sequence_gap_across_wrap_counts_missing():
    rng = random.Random(45)
    frames = [
        random_frame(rng, glove=Side.LEFT, seq=65534, timestamp_ms=100),
        random_frame(rng, glove=Side.LEFT, seq=1, timestamp_ms=120),
    ]
    builder = SessionBuilder()
    _, events = builder.feed(wire(frames))
    gaps = [e for e in events if e.kind is EventKind.SEQUENCE_GAP]
    assert len(gaps) == 1 and gaps[0].missing_count == 2  # 65535 and 0 never arrived


def outage(missing: int, period_ms: int = 20) -> bytes:
    """Two frames with `missing` frames between them, in seq and in time."""
    rng = random.Random(missing)
    return wire([
        random_frame(rng, glove=Side.LEFT, seq=5, timestamp_ms=100),
        random_frame(rng, glove=Side.LEFT, seq=(5 + missing + 1) & 0xFFFF,
                     timestamp_ms=100 + period_ms * (missing + 1)),
    ])


@pytest.mark.parametrize("missing", [1, 65535, 65536, 65537, 70000, 3 * 65536 + 5])
def test_long_outage_counts_every_missing_frame(missing):
    # the 16-bit seq alone reads 65,536 missing as none and 70,000 as 4,464
    builder = SessionBuilder()
    _, events = builder.feed(outage(missing))
    assert [(e.kind, e.missing_count) for e in events] == [(EventKind.SEQUENCE_GAP, missing)]


def test_outage_is_measured_in_the_configured_sample_period():
    blob = outage(65536, period_ms=10)
    # at the default 20 ms the same clock step spans half a wrap: no frame is missing
    assert session_from_capture(blob, Side.LEFT).gaps == []
    session = session_from_capture(blob, Side.LEFT,
                                   cfg=GloveConfig(sample_period_ms=10.0))
    assert [ev.missing_count for ev in session.gaps] == [65536]


def test_stale_timestamp_dropped():
    rng = random.Random(46)
    frames = [
        random_frame(rng, glove=Side.RIGHT, seq=0, timestamp_ms=500),
        random_frame(rng, glove=Side.RIGHT, seq=1, timestamp_ms=500),
    ]
    builder = SessionBuilder()
    _, events = builder.feed(wire(frames))
    assert [e.kind for e in events] == [EventKind.OUT_OF_ORDER]
    assert builder.frames == 1


def test_builder_locks_onto_first_glove():
    rng = random.Random(47)
    left = random_frame(rng, glove=Side.LEFT, seq=0, timestamp_ms=0)
    right = random_frame(rng, glove=Side.RIGHT, seq=1, timestamp_ms=20)
    builder = SessionBuilder(dominant_side=Side.RIGHT)
    _, events = builder.feed(wire([left, right]))
    assert builder.hand == Hand(Side.LEFT, Dominance.NON_DOMINANT)
    assert [e.kind for e in events] == [EventKind.FORMAT_ERROR]
    assert builder.frames == 1


def test_snapshot_before_the_first_frame_does_not_lock_the_glove():
    builder = SessionBuilder(dominant_side=Side.RIGHT)
    assert builder.session().hand == Hand(Side.RIGHT, Dominance.DOMINANT)
    _, events = builder.feed(wire(frame_run(random.Random(48), 3, glove=Side.LEFT)))
    assert events == [] and builder.frames == 3
    assert builder.session().hand == Hand(Side.LEFT, Dominance.NON_DOMINANT)


def test_chunking_never_changes_the_session():
    rng = random.Random(48)
    frames = frame_run(rng, 60)
    blob = bytearray(wire(frames))
    blob[500] ^= 0x40  # one damaged frame
    blob = b"\x07\x08" + bytes(blob) + b"\x09"
    reference = None
    for _ in range(25):
        builder = SessionBuilder()
        i = 0
        while i < len(blob):
            step = rng.randrange(1, 120)
            builder.feed(blob[i : i + step])
            i += step
        session = builder.session()
        if reference is None:
            reference = session
        else:
            assert session == reference
    assert reference.frame_count == 59


def cut_every(blob: bytes, step: int) -> list[int]:
    return list(range(step, len(blob), step))


def test_events_come_in_byte_order_however_the_stream_is_cut():
    for seed in range(3):
        blob = noisy_capture(seed, frames=300)
        whole = fed_in_pieces(blob, []).events
        offsets = [ev.at_byte_offset for ev in whole]
        assert offsets == sorted(set(offsets))
        assert {EventKind.SEQUENCE_GAP, EventKind.SYNC_LOSS} <= {ev.kind for ev in whole}
        for step in (1, 7, 36, 37, 72, 100):
            assert fed_in_pieces(blob, cut_every(blob, step)).events == whole, (seed, step)


@pytest.mark.parametrize("intruders", [False, True])
def test_block_and_frame_by_frame_feeds_agree(intruders, monkeypatch):
    blob = noisy_capture(61, intruders=intruders)
    blocks, handed = [], []
    accept_block, refuse = SessionBuilder._accept_block, SessionBuilder._refused

    def block_spy(self, offsets, records):
        blocks.append(len(offsets))
        return accept_block(self, offsets, records)

    def refused_spy(self, glove, seq, ts, at):
        handed.append(at)
        return refuse(self, glove, seq, ts, at)

    monkeypatch.setattr(SessionBuilder, "_accept_block", block_spy)
    monkeypatch.setattr(SessionBuilder, "_refused", refused_spy)
    whole = fed_in_pieces(blob, [])
    assert len(blocks) == 1
    # the block path hands on frame by frame only the records it refuses: the intruders
    intruded = {EventKind.FORMAT_ERROR, EventKind.DUPLICATE_FRAME, EventKind.OUT_OF_ORDER}
    refused = [ev for ev in whole.events if ev.kind in intruded]
    assert handed == [ev.at_byte_offset for ev in refused]
    assert [ev.kind for ev in refused] == ([EventKind.FORMAT_ERROR, EventKind.DUPLICATE_FRAME,
                                            EventKind.OUT_OF_ORDER] if intruders else [])
    session = whole.session()
    assert max(ev.missing_count for ev in session.gaps) > 0x10000
    assert whole.pending_bytes == 20
    rng = random.Random(62)
    for cuts in (cut_every(blob, 36), cut_every(blob, 72),
                 sorted(rng.sample(range(1, len(blob)), 30))):
        blocks.clear()
        builder = fed_in_pieces(blob, cuts)
        assert builder.events == whole.events
        assert builder.counts == Counter(ev.kind for ev in whole.events)
        assert builder.pending_bytes == whole.pending_bytes
        assert builder.session() == session
    assert blocks  # some random pieces reach BLOCK_MIN_BYTES


class NoNumpy:
    """Stands in for numpy in code that must not use it."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached")


def test_short_feeds_run_no_numpy(monkeypatch):
    rng = random.Random(66)
    frames = frame_run(rng, 3004)
    reference, patched = SessionBuilder(), SessionBuilder()
    blob = wire(frames[:3000])
    cuts = list(range(rng.randint(36, 72), len(blob), 54))
    for builder in (reference, patched):
        for lo, hi in zip([0] + cuts, cuts + [len(blob)]):
            builder.feed(blob[lo:hi])
    assert patched.frames == 3000
    later = [encode_frame(frame) for frame in frames[3000:]]
    damaged = bytearray(later[1])
    damaged[20] ^= 0x10
    volts = frames[0].voltages_mv
    garbage = bytes(rng.randrange(0xA5) for _ in range(120))
    pieces = [
        later[0],
        blob[36 * 1234:36 * 1235],  # a replay
        encode_frame(Frame(Side.RIGHT, 77, frames[2000].timestamp_ms + 3, 4100, volts)),  # stale
        encode_frame(Frame(Side.LEFT, 3001, frames[3003].timestamp_ms + 20, 4100, volts)),  # other
        bytes(damaged) + later[1],  # a CRC-damaged copy, then the frame
        raw_frame(seq=3002, ts=frames[3002].timestamp_ms, battery=4301, voltages=volts),  # range
        later[2] + garbage[:50],  # a garbage run across three feeds
        garbage[50:],
        garbage[:7] + later[3][:30],
        later[3][30:],
    ]
    assert max(map(len, pieces)) < BLOCK_MIN_BYTES
    want = [(reference.feed(piece), reference.last_accepted()) for piece in pieces]
    monkeypatch.setattr(gripstream.ingest, "np", NoNumpy())
    got = [(patched.feed(piece), patched.last_accepted()) for piece in pieces]
    monkeypatch.undo()
    assert got == want
    assert {ev.kind for (_, events), _ in got for ev in events} == set(EventKind) - {
        EventKind.SEQUENCE_GAP}
    assert patched.session() == reference.session()
    assert patched.frames == 3004


def test_a_carried_garbage_run_longer_than_a_block_is_skipped_once():
    rng = random.Random(67)
    frames = frame_run(rng, 128)
    garbage = bytes(rng.randrange(0xA5) for _ in range(6000))  # no sync byte
    blob = wire(frames[:64]) + garbage + wire(frames[64:])
    whole = fed_in_pieces(blob, [])
    assert whole.events == [StreamEvent(EventKind.SYNC_LOSS, 64 * 36)]
    assert whole.frames == 128
    # one feed of 4,000 garbage bytes when cut at 3,000 and 7,000
    cut_at = [1, 35, 2304, 2305, 3000, 7000]
    for count in range(1, len(cut_at) + 1):
        for cuts in itertools.combinations(cut_at, count):
            builder = fed_in_pieces(blob, list(cuts))
            assert builder.events == whole.events, cuts
            assert builder.pending_bytes == whole.pending_bytes == 0
            assert builder.session() == whole.session()


def test_a_block_fed_again_appends_nothing():
    blob = wire(frame_run(random.Random(63), 64))
    builder = SessionBuilder()
    builder.feed(blob)
    appended, events = builder.feed(blob)
    assert appended == 0 and builder.frames == 64
    assert events == [StreamEvent(EventKind.DUPLICATE_FRAME, len(blob) + 36 * k)
                      for k in range(64)]


def test_the_other_gloves_clock_does_not_hold_back_the_locked_glove():
    frames = frame_run(random.Random(64), 200)  # 20 ms apart: 0 .. 3,980 ms
    other = random_frame(random.Random(65), glove=Side.LEFT, seq=0, timestamp_ms=2000)
    builder = SessionBuilder()
    _, events = builder.feed(wire(frames[:50] + [other] + frames[50:]))
    assert builder.frames == 200
    assert events == [StreamEvent(EventKind.FORMAT_ERROR, 50 * 36)]


def test_frame_samples_accessor_tracks_feed():
    frames = frame_run(random.Random(49), 80)
    blob = wire(frames)
    builder = SessionBuilder()
    builder.feed(blob[:40])
    assert builder.frames == 1
    assert builder.pending_bytes == 4
    ts, volts = builder.frame_samples(0)
    assert ts == frames[0].timestamp_ms
    assert volts == frames[0].voltages_mv
    assert builder.last_accepted() == [builder.frame_samples(0)]  # from the walk
    builder.feed(blob[40:])
    assert len(blob) - 36 >= BLOCK_MIN_BYTES  # unpacked from the block's records
    assert builder.last_accepted() == [builder.frame_samples(k) for k in range(1, 80)]
    assert builder.last_accepted() == [(f.timestamp_ms, f.voltages_mv) for f in frames[1:]]


def test_hot_path_builds_no_frame(monkeypatch):
    plan = SessionPlan({Side.LEFT: get_preset("novice")}, duration_s=2.0, seed=6)
    planned = run_plan(plan, subject="p")[Side.LEFT]
    frames = frame_run(random.Random(53), 30)
    blob = wire(frames)

    def built(self):
        raise AssertionError("a Frame was built")

    monkeypatch.setattr(Frame, "__post_init__", built)
    assert run_plan(plan, subject="p")[Side.LEFT] == planned
    builder = SessionBuilder()
    snapshots = []
    for i in range(0, len(blob), 50):
        builder.feed(blob[i : i + 50])
        # snapshots held across later feeds must neither stop the builder growing nor change
        snapshots.append(builder.session())
    for snapshot in snapshots:
        n = snapshot.frame_count
        assert snapshot.timestamps_ms.tolist() == [f.timestamp_ms for f in frames[:n]]
    session = builder.session()
    assert session.timestamps_ms.tolist() == [f.timestamp_ms for f in frames]
    assert session.voltages_mv.tolist() == [list(f.voltages_mv) for f in frames]
    assert session.battery_mv.tolist() == [f.battery_mv for f in frames]
    assert builder.frame_samples(29) == (frames[29].timestamp_ms, frames[29].voltages_mv)


def test_session_invariants_enforced():
    good = build_session(frame_run(random.Random(50), 5))

    def columns(timestamps=good.timestamps_ms, voltages=good.voltages_mv,
                battery=good.battery_mv, gaps=()):
        return Session("s", good.hand, "c", "", timestamps, voltages, battery, gaps=list(gaps))

    assert columns().frame_count == 5
    with pytest.raises(IngestError):
        columns(voltages=good.voltages_mv[:, :11])  # wrong column count
    with pytest.raises(IngestError):
        columns(voltages=good.voltages_mv[:4])  # columns of unequal length
    with pytest.raises(IngestError):
        columns(battery=good.battery_mv[:4])
    with pytest.raises(IngestError):
        columns(battery=[-1] * 5)  # would wrap to 65535 as uint16
    with pytest.raises(IngestError):
        columns(timestamps=[0, 20, 40, 40, 60])  # not strictly increasing
    with pytest.raises(IngestError):
        columns(timestamps=[-20, 0, 20, 40, 60])  # would record a line load refuses
    with pytest.raises(IngestError):
        columns(gaps=[StreamEvent(EventKind.SYNC_LOSS, 0)])


def test_record_writes_per_sensor_files(tmp_path):
    session = build_session(frame_run(random.Random(51), 500), subject="s01",
                            condition="hardrock")
    manifest = record_session(session, tmp_path)
    sensor_files = sorted(tmp_path.glob("*_S*.tsv"))
    assert len(sensor_files) == 12
    for path in [*manifest.sensor_paths.values(), manifest.battery_path]:
        assert len(path.read_text().splitlines()) == session.frame_count == 500
    path = tmp_path / "s01_R_hardrock_S7.tsv"
    assert path in sensor_files
    lines = path.read_text().splitlines()
    assert len(lines) == 500
    ts, mv = lines[0].split("\t")
    assert (int(ts), int(mv)) == (session.timestamps_ms[0], session.voltages_mv[0, 6])
    assert manifest.meta_path.name == "s01_R_hardrock_meta.txt"


def test_record_load_round_trip_with_gaps(tmp_path):
    frames = frame_run(random.Random(52), 20, glove=Side.LEFT)
    del frames[5:8]
    session = build_session(frames, subject="p2", condition="soft",
                            dominance=Dominance.NON_DOMINANT)
    assert len(session.gaps) == 1 and session.gaps[0].missing_count == 3
    manifest = record_session(session, tmp_path)
    assert load_session(tmp_path) == session
    assert load_session(manifest.meta_path) == session


@pytest.mark.parametrize("line, problem", [
    ("frames = +50", "frames is not an integer"),
    ("frames = 5_0", "frames is not an integer"),
    ("frames = \u0665\u0660", "frames is not an integer"),  # Arabic-Indic 50
    ("gaps = -5:3", "bad gap entry '-5:3'"),
    ("gaps = 5:+3", "bad gap entry '5:+3'"),
    ("gaps = 10:3,5:3", "bad gap entry '5:3'"),
    ("gaps = 5:3,5:4", "bad gap entry '5:4'"),
])
def test_load_reads_metadata_integers_as_ascii_digits(tmp_path, line, problem):
    manifest = record_session(build_session(frame_run(random.Random(54), 50)), tmp_path)
    with open(manifest.meta_path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")  # a later key wins
    with pytest.raises(StructureError, match=re.escape(problem)):
        load_session(tmp_path)


def test_load_allows_leading_zeros_in_metadata_integers(tmp_path):
    manifest = record_session(build_session(frame_run(random.Random(55), 50)), tmp_path)
    with open(manifest.meta_path, "a", encoding="utf-8") as fh:
        fh.write("frames = 0050\ngaps = 5:3,0072:01\n")
    session = load_session(tmp_path)
    assert session.frame_count == 50
    assert [(ev.at_byte_offset, ev.missing_count) for ev in session.gaps] == [(5, 3), (72, 1)]


def test_empty_session_round_trips(tmp_path):
    builder = SessionBuilder(subject="e", condition="quiet")
    session = builder.session()
    record_session(session, tmp_path)
    assert load_session(tmp_path) == session
    summary = session_summary(session)
    assert summary.frames == 0
    assert summary.duration_s == 0.0
    assert summary.min_voltage_mv == summary.max_voltage_mv == 0
    assert summary.battery_final_mv == 0


def test_session_summary_values():
    frames = frame_run(random.Random(53), 500)
    del frames[100:103]
    session = build_session(frames)
    summary = session_summary(session)
    assert summary.frames == 497
    assert summary.duration_s == pytest.approx(9.98)
    assert summary.gap_count == 1
    assert summary.missing_frames == 3
    all_mv = session.voltages_mv.ravel().tolist()
    assert summary.min_voltage_mv == min(all_mv)
    assert summary.max_voltage_mv == max(all_mv)
    assert summary.battery_final_mv == session.battery_mv.tolist()[-1]


def test_load_rejects_shuffled_lines(tmp_path):
    session = build_session(frame_run(random.Random(54), 10), subject="m")
    record_session(session, tmp_path)
    path = tmp_path / "m_R_quiet_S2.tsv"
    lines = path.read_text().splitlines()
    lines[3], lines[4] = lines[4], lines[3]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_session(tmp_path)
    assert err.value.path == path
    assert err.value.line_no == 5


_ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@pytest.mark.parametrize("line_no, edit", [
    pytest.param(3, lambda ts, v: f"{ts}\tnotanumber\n", id="notanumber"),
    pytest.param(3, lambda ts, v: f"{ts}\t {v}\n", id="leading-space"),
    pytest.param(3, lambda ts, v: f"{ts}\t+{v}\n", id="leading-plus"),
    pytest.param(3, lambda ts, v: f"{ts}\t{v}_0\n", id="underscore"),
    pytest.param(3, lambda ts, v: f"{ts}\t{v.translate(_ARABIC_INDIC_DIGITS)}\n",
                 id="non-ascii-digits"),
    pytest.param(3, lambda ts, v: f"{ts}\t{v}\r\n", id="crlf"),
    pytest.param(5, lambda ts, v: f"{ts}\t{v}", id="no-final-newline"),
])
def test_load_rejects_bad_fields(tmp_path, line_no, edit):
    session = build_session(frame_run(random.Random(55), 5), subject="m")
    record_session(session, tmp_path)
    path = tmp_path / "m_R_quiet_S9.tsv"
    lines = path.read_text().splitlines(keepends=True)
    lines[line_no - 1] = edit(*lines[line_no - 1].rstrip("\n").split("\t"))
    path.write_bytes("".join(lines).encode())
    with pytest.raises(ParseError) as err:
        load_session(tmp_path)
    assert (err.value.path, err.value.line_no) == (path, line_no)
    assert repr(lines[line_no - 1].removesuffix("\n")) in str(err.value)


_LOAD_SESSION = build_session(frame_run(random.Random(65), 8), subject="m")
_EDIT_BYTES = st.sampled_from([b"\t", b"\n", b"0", b"7", b"99", b"9" * 19, b"1" * 20, b"\r", b" ",
                               b"+", b"-", b"_", "٣".encode(), b"\xff", b"x"])


def _mutate(draw, blob: bytes) -> bytes:
    """One byte edit, insertion, deletion, run of leading zeros, swap or copy of a line."""
    kind = draw(st.sampled_from(["edit", "insert", "delete", "zeros", "swap", "copy"]))
    # half the edits land next to a separator, where most malformed fields begin or end
    separators = [i for i, byte in enumerate(blob) if byte in b"\t\n"]
    starts = [0, *(i + 1 for i in separators)]
    at = draw(st.integers(0, len(blob)) | st.sampled_from([*starts, *separators]))
    if kind == "edit":
        return blob[:at] + draw(_EDIT_BYTES) + blob[at + 1:]
    if kind == "insert":
        return blob[:at] + draw(_EDIT_BYTES) + blob[at:]
    if kind == "delete":
        return blob[:at] + blob[at + draw(st.integers(1, 3)):]
    if kind == "zeros":
        at = draw(st.sampled_from(starts))
        return blob[:at] + b"0" * draw(st.integers(1, 25)) + blob[at:]
    lines = blob.split(b"\n")
    i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    lines[i], lines[j] = (lines[j], lines[i]) if kind == "swap" else (lines[j], lines[j])
    return b"\n".join(lines)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_load_accepts_exactly_what_the_line_reader_accepts(data):
    session = _LOAD_SESSION
    with tempfile.TemporaryDirectory() as tmp:
        manifest = record_session(session, tmp)
        paths = [*manifest.sensor_paths.values(), manifest.battery_path]
        k = data.draw(st.integers(0, len(paths) - 1), label="column")
        blob = paths[k].read_bytes()
        for _ in range(data.draw(st.integers(1, 4), label="mutations")):
            blob = _mutate(data.draw, blob)
        paths[k].write_bytes(blob)
        try:
            rows = reference_read_tsv(paths[k])
        except ParseError as want:
            with pytest.raises(ParseError) as err:
                load_session(manifest.meta_path)
            assert (err.value.path, err.value.line_no) == (want.path, want.line_no)
            return
        if len(rows) != session.frame_count:
            with pytest.raises(StructureError):
                load_session(manifest.meta_path)
            return
        differ = np.flatnonzero([ts for ts, _ in rows] != session.timestamps_ms)
        if differ.size:
            # a changed S1 is caught by S2, which no longer agrees with it
            with pytest.raises(ParseError) as err:
                load_session(manifest.meta_path)
            assert (err.value.path, err.value.line_no) == (paths[max(k, 1)], differ[0] + 1)
            return
        loaded = load_session(manifest.meta_path)
    columns = np.column_stack([session.voltages_mv, session.battery_mv]).astype(np.int64)
    columns[:, k] = [value for _, value in rows]
    assert np.array_equal(loaded.timestamps_ms, session.timestamps_ms)
    assert np.array_equal(np.column_stack([loaded.voltages_mv, loaded.battery_mv]), columns)


@pytest.mark.parametrize("suffix", ["S5", "battery"])
def test_load_rejects_disagreeing_timestamps(tmp_path, suffix):
    session = build_session(frame_run(random.Random(62), 5), subject="m")
    record_session(session, tmp_path)
    path = tmp_path / f"m_R_quiet_{suffix}.tsv"
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    path.write_text("".join(f"{int(ts) + 7}\t{value}\n" for ts, value in rows))
    with pytest.raises(ParseError) as err:
        load_session(tmp_path)
    assert err.value.path == path
    assert err.value.line_no == 1


_INT64_MAX = 2**63 - 1


@pytest.mark.parametrize("text, bad_line", [
    pytest.param(f"20\t1\n{_INT64_MAX}\t2\n", None, id="int64-max-last"),
    pytest.param(f"20\t1\n{_INT64_MAX + 1}\t2\n", 2, id="int64-max-plus-one"),
    pytest.param(f"20\t1\n{'9' * 19}\t2\n", 2, id="nineteen-nines"),
    pytest.param(f"{2**64 + 20}\t1\n", 1, id="twenty-digits-past-uint64"),
    pytest.param("20\t65535\n", None, id="value-max"),
    pytest.param("20\t1\n40\t65536\n", 2, id="value-max-plus-one"),
    pytest.param(f"{'0' * 17}20\t{'0' * 4}1\n", None, id="zero-padded-within-widths"),
    pytest.param(f"{'0' * 19}20\t1\n40\t{'0' * 5}65535\n", None, id="zero-padded-past-widths"),
    pytest.param(f"20\t{'0' * 5}1\n", None, id="value-zero-padded-past-width"),
    pytest.param(f"20\t1\n{'0' * 25}40\t00000000\n", None, id="zeros-only-past-widths"),
    pytest.param(f"20\t1\n{_INT64_MAX:025d}\t2\n", None, id="int64-max-padded-to-25"),
    pytest.param(f"{'0' * 6}20\t1\n40\t2\n{'0' * 30}60\t{'0' * 9}3\n80\t4\n", None,
                 id="padded-and-unpadded-lines"),
    pytest.param(f"20\t{'0' * 1000}\n", None, id="thousand-zeros"),
    pytest.param("20\t1\n40\t00000065536\n", 2, id="padded-value-max-plus-one"),
    pytest.param("20\t1\n40\t100001\n", 2, id="six-digit-value"),
    pytest.param("20\t1\n\t2\n", 2, id="empty-timestamp"),
    pytest.param("20\t1\n40\t2:\n", 2, id="byte-above-nine"),
    pytest.param("20\t1\n40\t2\n6\x000\t3\n", 3, id="nul-byte"),
    pytest.param("20\t7\n", None, id="one-line"),
    pytest.param("20\t7", 1, id="one-line-without-lf"),
    pytest.param("", None, id="empty"),
    pytest.param("20\t1\n20\t2\n", 2, id="repeated-timestamp"),
])
def test_read_tsv_agrees_with_the_line_reader(tmp_path, text, bad_line):
    path = tmp_path / "m_R_quiet_S3.tsv"
    path.write_bytes(text.encode())
    try:
        want = reference_read_tsv(path)
    except ParseError as err:
        assert err.line_no == bad_line
        with pytest.raises(ParseError) as got:
            gripstream.ingest._read_tsv(path)
        assert (got.value.path, got.value.line_no) == (path, bad_line)
        return
    assert bad_line is None
    ts, values = gripstream.ingest._read_tsv(path)
    assert ts.dtype == np.int64 and values.dtype == np.uint16
    assert ts.tolist() == [row[0] for row in want]
    assert values.tolist() == [row[1] for row in want]


@pytest.mark.parametrize("suffix, line_no, edit, message", [
    pytest.param("S7", 4, lambda ts, v: f"{ts}\t{v}?\n", "is not <timestamp>TAB<value>",
                 id="damaged-S7"),
    pytest.param("S12", 3, lambda ts, v: f"{int(ts) + 1}\t{v}\n", "differs from S1's",
                 id="S12-timestamp-differs"),
])
def test_load_names_the_line_a_column_breaks(tmp_path, suffix, line_no, edit, message):
    session = build_session(frame_run(random.Random(69), 6), subject="m")
    record_session(session, tmp_path)
    path = tmp_path / f"m_R_quiet_{suffix}.tsv"
    lines = path.read_text().splitlines(keepends=True)
    lines[line_no - 1] = edit(*lines[line_no - 1].rstrip("\n").split("\t"))
    path.write_text("".join(lines))
    try:
        rows = reference_read_tsv(path)
    except ParseError as err:
        assert err.line_no == line_no
    else:
        differ = np.flatnonzero([ts for ts, _ in rows] != session.timestamps_ms)
        assert differ.tolist() == [line_no - 1]
    with pytest.raises(ParseError, match=message) as err:
        load_session(tmp_path)
    assert (err.value.path, err.value.line_no) == (path, line_no)


@pytest.mark.parametrize("session", [
    pytest.param(build_session(frame_run(random.Random(70), 500), subject="m"), id="500-frames"),
    pytest.param(build_session(frame_run(random.Random(71), 1), subject="m"), id="one-frame"),
    pytest.param(Session(subject="m", hand=Hand(Side.LEFT, Dominance.NON_DOMINANT),
                         condition="quiet", started_at="", timestamps_ms=[0, 9, _INT64_MAX],
                         voltages_mv=[[0] * 12, [7] * 12, [0xFFFF] * 12],
                         battery_mv=[0xFFFF, 1, 0]), id="extremes"),
])
def test_loading_a_recording_takes_the_one_pass(tmp_path, session):
    record_session(session, tmp_path)
    assert load_session(tmp_path) == session


# 0, 9, 10, 99, 100, ... : both sides of every change of digit count
_TIMESTAMP_EDGES = sorted({0, _INT64_MAX, *(10**k + d for k in range(1, 19) for d in (-1, 0))})
_VALUE_EDGES = [0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 0xFFFF]


def _tsv_session(timestamps, rows) -> Session:
    """A session whose sensor and battery columns are the 13 columns of rows."""
    rows = np.asarray(rows, np.uint16).reshape(len(timestamps), 13)
    return Session("t", Hand(Side.RIGHT, Dominance.DOMINANT), "quiet", "", timestamps,
                   rows[:, :12], rows[:, 12])


@st.composite
def tsv_sessions(draw):
    """Sessions of 0-20 frames whose timestamps and values favour digit-count edges."""
    stamps = draw(st.sets(st.sampled_from(_TIMESTAMP_EDGES) | st.integers(0, _INT64_MAX),
                          max_size=20))
    rows = draw(st.lists(st.lists(st.sampled_from(_VALUE_EDGES) | st.integers(0, 0xFFFF),
                                  min_size=13, max_size=13),
                         min_size=len(stamps), max_size=len(stamps)))
    return _tsv_session(sorted(stamps), rows)


@settings(max_examples=200, deadline=None)
@given(tsv_sessions())
@example(_tsv_session([], []))
@example(_tsv_session([_INT64_MAX], [[0xFFFF] * 13]))
@example(_tsv_session([0], [[0] * 13]))
@example(_tsv_session(_TIMESTAMP_EDGES,
                      np.resize(_VALUE_EDGES, 13 * len(_TIMESTAMP_EDGES))))
def test_recorded_files_match_the_line_by_line_writer(session):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = record_session(session, tmp)
        paths = [*manifest.sensor_paths.values(), manifest.battery_path]
        for path, column in zip(paths, [*session.voltages_mv.T, session.battery_mv]):
            assert path.read_bytes() == reference_tsv_text(session.timestamps_ms, column).encode()


def test_load_rejects_missing_sensor_file(tmp_path):
    session = build_session(frame_run(random.Random(56), 5), subject="m")
    record_session(session, tmp_path)
    (tmp_path / "m_R_quiet_S11.tsv").unlink()
    with pytest.raises(StructureError):
        load_session(tmp_path)


def test_load_rejects_line_count_mismatch(tmp_path):
    session = build_session(frame_run(random.Random(57), 5), subject="m")
    record_session(session, tmp_path)
    path = tmp_path / "m_R_quiet_S1.tsv"
    path.write_text(path.read_text() + "99999\t100\n")
    with pytest.raises(StructureError):
        load_session(tmp_path)


def test_load_requires_exactly_one_session_for_a_directory(tmp_path):
    with pytest.raises(StructureError):
        load_session(tmp_path)
    record_session(build_session(frame_run(random.Random(58), 2), subject="a"), tmp_path)
    record_session(build_session(frame_run(random.Random(59), 2), subject="b"), tmp_path)
    with pytest.raises(StructureError):
        load_session(tmp_path)
    loaded = load_sessions(tmp_path)
    assert [s.subject for s in loaded] == ["a", "b"]


BAD_LABELS = ["s#1", " s01", "s\n01", "../esc", "a/b", "", ".hidden", "-x", "s 01"]


@pytest.mark.parametrize("label", BAD_LABELS)
def test_session_refuses_a_label_that_cannot_name_its_files(label):
    for subject, condition in ((label, "quiet"), ("s01", label)):
        with pytest.raises(IngestError, match="is not a label"):
            build_session(frame_run(random.Random(65), 2), subject=subject, condition=condition)


@pytest.mark.parametrize("label", ["anon", "s01", "hardrock", "p2", "S_1.b-2", "é"])
def test_session_accepts_word_labels(label):
    session = build_session(frame_run(random.Random(66), 2), subject=label, condition=label)
    assert session.stem == f"{label}_R_{label}"


def test_load_refuses_a_bad_label_before_opening_columns(tmp_path):
    record_session(build_session(frame_run(random.Random(67), 3), subject="s1"), tmp_path)
    meta = tmp_path / "s1_R_quiet_meta.txt"
    meta.write_text(meta.read_text().replace("subject = s1", "subject = ../s1"))
    for column in tmp_path.glob("*.tsv"):
        column.unlink()
    with pytest.raises(StructureError, match="subject '../s1' is not a label"):
        load_session(meta)


def test_record_error_names_completed_files(tmp_path):
    session = build_session(frame_run(random.Random(60), 3), subject="w")
    (tmp_path / "w_R_quiet_S5.tsv").mkdir(parents=True)
    with pytest.raises(RecordError) as err:
        record_session(session, tmp_path)
    assert [p.name for p in err.value.completed] == [
        f"w_R_quiet_S{k}.tsv" for k in range(1, 5)
    ]


def test_failed_rerecord_leaves_no_metadata_behind(tmp_path, monkeypatch):
    first = build_session(frame_run(random.Random(63), 10), subject="m")
    second = build_session(frame_run(random.Random(64), 10), subject="m")
    record_session(first, tmp_path)
    write = gripstream.ingest._write_tsv

    def failing_at_s7(path, *columns):
        if "_S7.tsv" in path.name:
            raise OSError("disk full")
        write(path, *columns)

    monkeypatch.setattr(gripstream.ingest, "_write_tsv", failing_at_s7)
    files = sorted(tmp_path.iterdir())
    with pytest.raises(RecordError) as err:
        record_session(second, tmp_path)
    assert err.value.completed == []
    # the second session's columns never took the final names: the first loads whole
    assert sorted(tmp_path.iterdir()) == files
    assert load_session(tmp_path) == first


# the steps of a re-record that can fail: 13 column files opened for writing, the metadata
# written, the old metadata removed, then 14 renames
_RERECORD_STEPS = 13 + 1 + 1 + 14


@pytest.mark.parametrize("step", range(_RERECORD_STEPS))
@settings(max_examples=12, deadline=None)
@given(frames=st.integers(1, 4), same_count=st.booleans(), seed=st.integers(0, 2**16))
def test_a_rerecord_is_all_or_nothing_at_every_failure_point(step, frames, same_count, seed):
    old = build_session(frame_run(random.Random(seed), frames), subject="m")
    # with as many frames, only the order of the metadata's steps keeps a mix from loading
    new = build_session(frame_run(random.Random(seed + 1), frames + (not same_count)), subject="m")
    calls, replaced = 0, []

    def faulty(real, done=None):
        def call(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == step + 1:
                raise OSError(f"injected fault at step {step}")
            result = real(*args, **kwargs)
            if done is not None:
                done.append(Path(args[1]))
            return result
        return call

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        record_session(old, directory)
        with pytest.MonkeyPatch.context() as mp, pytest.raises(RecordError) as err:
            mp.setattr(gripstream.ingest, "open", faulty(open), raising=False)
            mp.setattr(Path, "write_text", faulty(Path.write_text))
            mp.setattr(Path, "unlink", faulty(Path.unlink))
            mp.setattr(os, "replace", faulty(os.replace, replaced))
            record_session(new, directory)
        assert calls > step, "the fault never fired"
        assert err.value.completed == replaced
        assert not list(directory.glob("*.tmp"))
        try:
            loaded = load_session(directory / "m_R_quiet_meta.txt")
        except StructureError:
            return
        assert loaded == old or loaded == new


def test_export_csv_is_flat_and_ordered(tmp_path):
    rng = random.Random(61)
    right = build_session(frame_run(rng, 4, glove=Side.RIGHT), subject="x")
    left = build_session(frame_run(rng, 4, glove=Side.LEFT), subject="x")
    buf = io.StringIO()
    rows = export_csv([right, left], buf)
    assert rows == 2 * 4 * 12
    lines = buf.getvalue().splitlines()
    assert lines[0] == "timestamp_ms,glove,sensor,voltage_mv"
    parsed = list(csv.reader(lines[1:]))
    keys = [(int(r[0]), r[1], int(r[2].lstrip("S"))) for r in parsed]
    assert keys == sorted(keys)
    assert {r[1] for r in parsed} == {"L", "R"}
    # same content when writing to a path
    path = tmp_path / "flat.csv"
    export_csv([right, left], path)
    assert path.read_text().splitlines()[0] == lines[0]


@st.composite
def export_studies(draw):
    """Sessions of both gloves whose timestamps coincide, shift and partly overlap.

    Timestamps come from a small pool, so several sessions of one glove
    share a timestamp (groups of 1-6 frames), and a session may be empty or
    copy an earlier one's timestamps.
    """
    sessions = []
    for k in range(draw(st.integers(0, 6))):
        if sessions and draw(st.booleans()):
            ts = draw(st.sampled_from(sessions)).timestamps_ms
        else:
            ts = sorted(draw(st.sets(st.integers(0, 12), max_size=8)))
        ts = np.asarray(ts, np.int64) + draw(st.sampled_from([0, 0, 3, 2**40]))
        # distinct-looking voltages of 1-5 digits, so a row out of place shows
        volts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
            0, 65536, (len(ts), 12)) >> draw(st.integers(0, 15))
        side = draw(st.sampled_from([Side.LEFT, Side.RIGHT]))
        sessions.append(Session(f"p{k}", Hand(side, Dominance.DOMINANT), "quiet", "", ts,
                                volts, np.zeros(len(ts))))
    return sessions


@settings(max_examples=300, deadline=None)
@given(export_studies())
def test_export_csv_matches_the_row_by_row_writer(sessions):
    want = io.StringIO()
    rows = reference_export_csv(sessions, want)
    got = io.StringIO()
    assert export_csv(sessions, got) == rows
    assert got.getvalue() == want.getvalue()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/flat.csv"
        assert export_csv(iter(sessions), path) == rows
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == want.getvalue()


@pytest.mark.parametrize("frames", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(sessions=export_studies())
def test_export_slices_cut_only_between_groups(frames, sessions):
    want = io.StringIO()
    rows = reference_export_csv(sessions, want)
    got = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gripstream.ingest, "_EXPORT_SLICE", frames)
        assert export_csv(sessions, got) == rows
    assert got.getvalue() == want.getvalue()


def test_an_export_slice_takes_the_whole_group_it_reaches_into():
    # three sessions of one glove on one clock: groups of 3 frames, so the first slice
    # ends at frame 4,098, past its nominal size
    assert gripstream.ingest._EXPORT_SLICE % 3
    rng = np.random.default_rng(62)
    sessions = [Session(f"p{k}", Hand(Side.LEFT, Dominance.DOMINANT), "quiet", "",
                        20 * np.arange(5000), rng.integers(0, 3300, (5000, 12)), np.zeros(5000))
                for k in range(3)]
    want, got = io.StringIO(), io.StringIO()
    assert export_csv(sessions, got) == reference_export_csv(sessions, want) == 3 * 5000 * 12
    # the first differing line, not a diff of 180,000 lines, which takes pytest minutes
    differ = [(k, a, b) for k, (a, b) in enumerate(zip(got.getvalue().splitlines(),
                                                       want.getvalue().splitlines())) if a != b]
    assert differ[:1] == [] and len(got.getvalue()) == len(want.getvalue())


# ---------------------------------------------------------------------------
# the builder's ordering rules against a reference model

_LINK_OPS = ("next", "skip", "replay", "same_ts", "stale", "other_glove")


@st.composite
def flaky_links(draw):
    """Frames as a flaky link delivers them, and the byte positions to cut the wire at."""
    glove = draw(st.sampled_from([Side.LEFT, Side.RIGHT]))
    seq = draw(st.sampled_from([0, 0xFFFE]) | st.integers(0, 0xFFFF))
    ts = draw(st.integers(0, 1000))
    frames = []
    ops = draw(st.lists(st.sampled_from(_LINK_OPS), max_size=40))
    # a run of in-order frames, so that a feed can reach BLOCK_MIN_BYTES
    at = draw(st.integers(0, len(ops)))
    ops[at:at] = ["next"] * draw(st.integers(0, 80))
    for k, op in enumerate(ops):
        volts = tuple((131 * k + 17 * i) % 3300 for i in range(12))
        if op == "replay" and frames:
            frames.append(draw(st.sampled_from(frames)))
            continue
        if op == "same_ts" and frames:
            earlier = draw(st.sampled_from(frames))
            frame_seq = draw(st.sampled_from([earlier.seq, (earlier.seq + 1) & 0xFFFF]))
            frames.append(Frame(glove, frame_seq, earlier.timestamp_ms, 4000 - k, volts))
        elif op == "stale":
            frames.append(Frame(glove, draw(st.integers(0, 0xFFFF)), draw(st.integers(0, ts)),
                                4000 - k, volts))
        elif op == "other_glove":
            other = Side.RIGHT if glove is Side.LEFT else Side.LEFT
            ahead = ts + draw(st.integers(1, 2000))  # may pass the locked glove's next stamps
            frames.append(Frame(other, (seq + 1) & 0xFFFF, ahead, 4000 - k, volts))
        else:
            step = 1 if op != "skip" else draw(st.integers(2, 0x20000))  # may wrap, even to 0
            seq = (seq + step) & 0xFFFF
            ts += draw(st.integers(1, 40))
            frames.append(Frame(glove, seq, ts, 4000 - k, volts))
    blob = wire(frames)
    cuts = sorted(draw(st.lists(st.integers(0, len(blob)), max_size=6)))
    return frames, blob, cuts


def reference_ingest(frames):
    """(events, accepted frames) under the builder's rules, kept with a set of seen frames.

    The first frame fixes the glove; another glove's frame is a format
    error. A (seq, timestamp) pair already accepted is a duplicate, any
    other timestamp that does not advance is out of order, and a seq that
    skips ahead (mod 2**16) is a gap of the skipped count.
    """
    side, seen, last = None, set(), None
    events, accepted = [], []
    for k, frame in enumerate(frames):
        offset = 36 * k
        if side is None:
            side = frame.glove
        elif frame.glove is not side:
            events.append((EventKind.FORMAT_ERROR, offset, 0))
            continue
        if (frame.seq, frame.timestamp_ms) in seen:
            events.append((EventKind.DUPLICATE_FRAME, offset, 0))
            continue
        if last is not None and frame.timestamp_ms <= last.timestamp_ms:
            events.append((EventKind.OUT_OF_ORDER, offset, 0))
            continue
        missing = 0 if last is None else (frame.seq - last.seq - 1) % 0x10000
        if missing:
            events.append((EventKind.SEQUENCE_GAP, offset, missing))
        seen.add((frame.seq, frame.timestamp_ms))
        last = frame
        accepted.append(frame)
    return events, accepted


@settings(max_examples=300, deadline=None)
@given(flaky_links())
def test_builder_matches_reference_model_under_any_chunking(link):
    frames, blob, cuts = link
    want_events, accepted = reference_ingest(frames)
    # whole, too, so that every link of BLOCK_MIN_BYTES or more runs the block path
    for pieces in (cuts, []):
        builder = SessionBuilder()
        appended = 0
        for lo, hi in zip([0] + pieces, pieces + [len(blob)]):
            appended += builder.feed(blob[lo:hi])[0]
        got_events = [(ev.kind, ev.at_byte_offset, ev.missing_count) for ev in builder.events]
        assert got_events == want_events
        assert appended == 12 * len(accepted)
        session = builder.session()
        assert session.timestamps_ms.tolist() == [f.timestamp_ms for f in accepted]
        assert session.voltages_mv.tolist() == [list(f.voltages_mv) for f in accepted]
        assert session.battery_mv.tolist() == [f.battery_mv for f in accepted]
        assert [(ev.at_byte_offset, ev.missing_count) for ev in session.gaps] == [
            (offset, missing) for kind, offset, missing in want_events
            if kind is EventKind.SEQUENCE_GAP
        ]
        for i, frame in enumerate(accepted):
            assert builder.frame_samples(i) == (frame.timestamp_ms, frame.voltages_mv)


# ---------------------------------------------------------------------------
# damaged links: what arrives is what was sent, and every lost frame is counted

_DAMAGE_OPS = ("send", "drop", "duplicate", "flip", "garbage")


@st.composite
def damaged_links(draw, ops=_DAMAGE_OPS):
    """A glove's frames at 20 ms, damaged on the way, and where to cut the wire.

    Returns (sent, blob, cuts, delivered): sent maps each frame's position in
    the glove's unbroken run, which counts one outage of 65,536 frames or
    more when drawn, to its Frame; delivered lists the positions whose frame
    reached the wire intact at least once, in wire order.
    """
    seq0 = draw(st.integers(0, 0xFFFF))
    long_outage = draw(st.none() | st.integers(0x10000, 4 * 0x10000))
    plan = draw(st.lists(st.sampled_from(ops), min_size=1, max_size=30))
    at = draw(st.integers(0, len(plan)))
    # a run of frames sent whole, so that a feed can reach BLOCK_MIN_BYTES
    run_at = draw(st.integers(0, len(plan)))
    plan[run_at:run_at] = ["run"] * draw(st.integers(0, 80))
    sent, parts, delivered = {}, [], []
    pos = 0
    for k, op in enumerate(plan):
        if k == at and long_outage is not None:
            pos += long_outage
        if op == "run":
            volts = tuple((131 * k + 17 * i) % 3300 for i in range(12))
        else:
            volts = tuple(draw(st.lists(st.integers(0, 3299), min_size=12, max_size=12)))
        frame = Frame(Side.RIGHT, (seq0 + pos) & 0xFFFF, 20 * pos, 4000 - k, volts)
        sent[pos] = frame
        blob = encode_frame(frame)
        if op == "garbage":
            parts.append(draw(st.binary(min_size=1, max_size=50)))
        if op == "flip":
            damaged = bytearray(blob)
            # CRC-16/CCITT detects any 3 bit errors at this length
            for bit in draw(st.sets(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=3)):
                damaged[bit // 8] ^= 1 << (bit % 8)
            parts.append(bytes(damaged))
        elif op != "drop":
            parts.append(blob * (2 if op == "duplicate" else 1))
            delivered.append(pos)
        pos += 1
    blob = b"".join(parts)
    cuts = sorted(draw(st.lists(st.integers(0, len(blob)), max_size=6)))
    return sent, blob, cuts, delivered


def fed_in_pieces(blob, cuts) -> SessionBuilder:
    builder = SessionBuilder()
    for lo, hi in zip([0] + cuts, cuts + [len(blob)]):
        builder.feed(blob[lo:hi])
    return builder


@settings(max_examples=200, deadline=None)
@given(damaged_links())
def test_corruption_never_yields_a_frame_that_was_not_sent(link):
    sent, blob, cuts, _ = link
    builder = fed_in_pieces(blob, cuts)
    session = builder.session()
    by_time = {frame.timestamp_ms: frame for frame in sent.values()}
    for ts, volts, battery in zip(session.timestamps_ms.tolist(), session.voltages_mv.tolist(),
                                  session.battery_mv.tolist()):
        frame = by_time[ts]
        assert (volts, battery) == (list(frame.voltages_mv), frame.battery_mv)
    assert builder.frames == len(session.timestamps_ms)


@settings(max_examples=200, deadline=None)
@given(damaged_links(ops=("send", "drop", "duplicate")))
def test_gap_totals_equal_the_frames_dropped(link):
    sent, blob, cuts, delivered = link
    session = fed_in_pieces(blob, cuts).session()
    assert session.timestamps_ms.tolist() == [sent[pos].timestamp_ms for pos in delivered]
    dropped = delivered[-1] - delivered[0] + 1 - len(delivered) if delivered else 0
    assert sum(ev.missing_count for ev in session.gaps) == dropped


@st.composite
def damaged_flaky_links(draw) -> bytes:
    """flaky_links' frames (skips, replays, stale and other-glove frames) damaged on the
    wire: garbage runs holding stray sync bytes before a frame, 1-3 flipped bits in a
    frame, and a partial frame at the end."""
    frames, _, _ = draw(flaky_links())
    noise = st.lists(st.just(0xA5) | st.integers(0, 255), min_size=1, max_size=50).map(bytes)
    parts = []
    for frame in frames:
        blob = bytearray(encode_frame(frame))
        op = draw(st.sampled_from(("send", "send", "send", "garbage", "flip")))
        if op == "garbage":
            parts.append(draw(noise))
        elif op == "flip":
            for bit in draw(st.sets(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=3)):
                blob[bit // 8] ^= 1 << (bit % 8)
        parts.append(bytes(blob))
    blob = b"".join(parts)
    return blob[:len(blob) - draw(st.integers(0, 35))]


@settings(max_examples=200, deadline=None)
@given(damaged_flaky_links(), st.integers(0, 2**32 - 1))
def test_short_feeds_and_one_whole_feed_agree(blob, seed):
    # serve's reads: pieces of 1-200 bytes, each walked; the whole link in one feed,
    # which takes the numpy path once it reaches BLOCK_MIN_BYTES
    whole = fed_in_pieces(blob, [])
    rng = random.Random(seed)
    builder, handed = SessionBuilder(), []
    at = 0
    while at < len(blob):
        step = rng.randint(1, 200)
        builder.feed(blob[at:at + step])
        handed += builder.last_accepted()  # what serve steps its monitor over
        at += step
    assert builder.events == whole.events
    assert builder.counts == Counter(ev.kind for ev in whole.events)
    assert builder.pending_bytes == whole.pending_bytes
    session = builder.session()
    assert session == whole.session()  # columns, hand and gaps
    assert [ts for ts, _ in handed] == session.timestamps_ms.tolist()
    assert [list(volts) for _, volts in handed] == session.voltages_mv.tolist()
    assert whole.last_accepted() == handed
