#!/usr/bin/env python3
"""Microbenchmark of the codec kernel, one layer of the pipeline.

Seven workloads, each timed best of --repeats:

  encode        encode_records of the clean stream's fields, checksums
                included, in one call
  scan/clean    frame scanning over a well-formed stream, in one call
  scan/dirty    frame scanning over a stream salted with garbage and bit rot,
                in one call
  feed/chunked  SessionBuilder.feed of the salted stream in 36-byte chunks
  feed/whole    SessionBuilder.feed of the salted stream in one call, with
                another glove's frame, a replay and a stale frame spliced in,
                as `gripstream record` feeds a capture
  record        record_session of the clean stream's session into a fresh
                directory: 13 column files and the metadata written
  load          load_session of that recording: 13 column files read back

scan_stream_offsets works as numpy columns at any length. SessionBuilder.feed
accepts a whole stream as numpy columns and walks a 36-byte chunk a frame at a
time (ingest.BLOCK_MIN_BYTES), so the two feeds time both of its paths.
record formats its column files as numpy word matrices, and load reads them
back with the one-pass digit conversion.

Run after installing the package:  python3 benchmarks/bench_codec.py
End-to-end numbers come from perfbench/run.py.
"""

import argparse
import random
import tempfile
import time

import numpy as np

from gripstream.core import Side
from gripstream.ingest import SessionBuilder, load_session, record_session
from gripstream.protocol import (FRAME_DTYPE, FRAME_SIZE, EventKind, encode_records,
                                 scan_stream_offsets)


def random_fields(rng: random.Random, count: int) -> tuple:
    """encode_records' seq, timestamp, battery and voltage inputs for count frames."""
    volts = np.array([[rng.randrange(0, 3300) for _ in range(12)] for _ in range(count)])
    k = np.arange(count)
    return k & 0xFFFF, 20 * k, np.full(count, 4200), volts


def salt_stream(clean: bytes, rng: random.Random) -> bytes:
    """Interleave garbage runs and flip bytes so resync paths stay hot."""
    out = bytearray()
    for i in range(0, len(clean), FRAME_SIZE * 8):
        out += clean[i : i + FRAME_SIZE * 8]
        out += bytes(rng.randrange(0, 256) for _ in range(rng.randrange(3, 40)))
    for _ in range(len(out) // 400):
        out[rng.randrange(0, len(out))] ^= 0xFF
    return bytes(out)


def splice_intruders(stream: bytes) -> bytes:
    """stream with another glove's frame, a replay and a stale frame between intact frames.

    They go in before the intact frames a quarter, half and three quarters
    of the way through; the locked glove refuses all three.
    """
    offsets, records, _, _ = scan_stream_offsets(stream)
    n = len(offsets)
    early = np.frombuffer(records, FRAME_DTYPE)[n // 4]
    volts = early["voltages_mv"][None]
    ts = [int(early["timestamp_ms"]) + 1]
    other = encode_records(Side.LEFT, [0], ts, [4200], volts).tobytes()
    stale = encode_records(Side.RIGHT, [0], ts, [4200], volts).tobytes()
    out = bytearray(stream)
    for k, record in ((3 * n // 4, stale), (n // 2, early.tobytes()), (n // 4, other)):
        out[offsets[k]:offsets[k]] = record
    return bytes(out)


def best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def feed_chunked(data: bytes) -> int:
    """Frames a SessionBuilder accepts from data fed one frame's length at a time."""
    builder = SessionBuilder()
    for i in range(0, len(data), FRAME_SIZE):
        builder.feed(data[i : i + FRAME_SIZE])
    return builder.frames


def feed_whole(data: bytes) -> SessionBuilder:
    """A SessionBuilder fed data in one call."""
    builder = SessionBuilder()
    builder.feed(data)
    return builder


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=50_000,
                        help="frames per scanning workload (default 50000)")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    rng = random.Random(2024)
    fields = random_fields(rng, args.frames)
    clean = encode_records(Side.RIGHT, *fields).tobytes()
    dirty = salt_stream(clean, rng)
    spliced = splice_intruders(dirty)
    print(f"workloads: clean {len(clean) / 2**20:.2f} MiB ({args.frames} frames), "
          f"dirty {len(dirty) / 2**20:.2f} MiB")

    encode_s = best_time(lambda: encode_records(Side.RIGHT, *fields), args.repeats)
    clean_s = best_time(lambda: scan_stream_offsets(clean), args.repeats)
    dirty_s = best_time(lambda: scan_stream_offsets(dirty), args.repeats)
    chunked_s = best_time(lambda: feed_chunked(dirty), args.repeats)
    whole_s = best_time(lambda: feed_whole(spliced), args.repeats)
    session = feed_whole(clean).session()
    with tempfile.TemporaryDirectory() as study:
        record_s = best_time(lambda: record_session(session, tempfile.mkdtemp(dir=study)),
                             args.repeats)
        record_session(session, study)
        load_s = best_time(lambda: load_session(study), args.repeats)
        assert load_session(study) == session, "the recording did not load back"
    offsets, _, _, _ = scan_stream_offsets(clean)
    assert len(offsets) == args.frames, "scan disagrees with the workload"
    accepted = feed_chunked(dirty)
    whole = feed_whole(spliced)
    assert whole.frames == accepted, "the spliced frames changed what the builder accepts"
    refused = {EventKind.FORMAT_ERROR, EventKind.DUPLICATE_FRAME, EventKind.OUT_OF_ORDER}
    assert refused <= {ev.kind for ev in whole.events}, "a spliced frame was not refused"
    print(f"encode {args.frames / 1e3 / encode_s:.1f} kframes/s")
    print(f"clean {args.frames / 1e3 / clean_s:.1f} kframes/s, "
          f"dirty {len(dirty) / 2**20 / dirty_s:.2f} MB/s")
    print(f"feed/chunked {accepted / 1e3 / chunked_s:.1f} kframes/s "
          f"({len(dirty) / 2**20 / chunked_s:.2f} MB/s in {FRAME_SIZE}-byte chunks)")
    print(f"feed/whole {accepted / 1e3 / whole_s:.1f} kframes/s "
          f"({len(spliced) / 2**20 / whole_s:.2f} MB/s in one call)")
    print(f"record {record_s / args.frames * 1e6:.2f} us/frame "
          f"({args.frames / 1e3 / record_s:.1f} kframes/s to 13 column files)")
    print(f"load {load_s / args.frames * 1e6:.2f} us/frame "
          f"({args.frames / 1e3 / load_s:.1f} kframes/s from 13 column files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
