#!/usr/bin/env python3
"""Microbenchmark of the codec kernel, one layer of the pipeline.

Four workloads, each timed best of --repeats:

  crc           CRC-16 over one large contiguous buffer
  scan/clean    frame scanning over a well-formed stream, in one call
  scan/dirty    frame scanning over a stream salted with garbage and bit rot,
                in one call
  feed/chunked  SessionBuilder.feed of the salted stream in 36-byte chunks

A whole stream is scanned as numpy columns and a 36-byte chunk a frame at a
time (protocol.BLOCK_MIN_BYTES), so scan and feed/chunked time both paths.

Run after installing the package:  python3 benchmarks/bench_codec.py
End-to-end numbers come from perfbench/run.py.
"""

import argparse
import random
import time

import numpy as np

from gripstream.core import Side
from gripstream.ingest import SessionBuilder
from gripstream.protocol import FRAME_SIZE, crc16, encode_records, scan_stream_offsets


def random_frames(rng: random.Random, count: int) -> bytes:
    volts = [[rng.randrange(0, 3300) for _ in range(12)] for _ in range(count)]
    k = np.arange(count)
    return encode_records(Side.RIGHT, k & 0xFFFF, 20 * k, np.full(count, 4200), volts).tobytes()


def salt_stream(clean: bytes, rng: random.Random) -> bytes:
    """Interleave garbage runs and flip bytes so resync paths stay hot."""
    out = bytearray()
    for i in range(0, len(clean), FRAME_SIZE * 8):
        out += clean[i : i + FRAME_SIZE * 8]
        out += bytes(rng.randrange(0, 256) for _ in range(rng.randrange(3, 40)))
    for _ in range(len(out) // 400):
        out[rng.randrange(0, len(out))] ^= 0xFF
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=50_000,
                        help="frames per scanning workload (default 50000)")
    parser.add_argument("--crc-mib", type=float, default=8.0,
                        help="CRC buffer size in MiB (default 8)")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    rng = random.Random(2024)
    crc_buf = bytes(rng.randrange(0, 256) for _ in range(int(args.crc_mib * 2**20)))
    clean = random_frames(rng, args.frames)
    dirty = salt_stream(clean, rng)
    print(f"workloads: crc {len(crc_buf) / 2**20:.1f} MiB, "
          f"clean {len(clean) / 2**20:.2f} MiB ({args.frames} frames), "
          f"dirty {len(dirty) / 2**20:.2f} MiB")

    crc_s = best_time(lambda: crc16(crc_buf), args.repeats)
    clean_s = best_time(lambda: scan_stream_offsets(clean), args.repeats)
    dirty_s = best_time(lambda: scan_stream_offsets(dirty), args.repeats)
    chunked_s = best_time(lambda: feed_chunked(dirty), args.repeats)
    offsets, _, _, _ = scan_stream_offsets(clean)
    assert len(offsets) == args.frames, "scan disagrees with the workload"
    accepted = feed_chunked(dirty)
    print(f"crc {len(crc_buf) / 2**20 / crc_s:.2f} MB/s, "
          f"clean {args.frames / 1e3 / clean_s:.1f} kframes/s, "
          f"dirty {len(dirty) / 2**20 / dirty_s:.2f} MB/s")
    print(f"feed/chunked {accepted / 1e3 / chunked_s:.1f} kframes/s "
          f"({len(dirty) / 2**20 / chunked_s:.2f} MB/s in {FRAME_SIZE}-byte chunks)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
