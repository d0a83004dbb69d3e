"""Shared fixtures-by-hand for the test suite."""

import random

import numpy as np

from gripstream.core import Dominance, Hand, Side
from gripstream.ingest import Session, SessionBuilder
from gripstream.protocol import BATTERY_LIMIT_MV, VOLTAGE_LIMIT_MV, Frame, encode_frame


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


def reference_crc16(data, start: int = 0, length: int = -1) -> int:
    """Table-driven CRC-16/CCITT-FALSE (Sarwate, CACM 31(8), 1988), the oracle for crc16."""
    if length < 0:
        length = len(data) - start
    crc = 0xFFFF
    for i in range(start, start + length):
        crc = ((crc << 8) & 0xFFFF) ^ _CRC_TABLE[(crc >> 8) ^ data[i]]
    return crc


def random_frame(rng: random.Random, glove: Side | None = None, seq: int | None = None,
                 timestamp_ms: int | None = None) -> Frame:
    return Frame(
        glove=glove if glove is not None else rng.choice((Side.LEFT, Side.RIGHT)),
        seq=rng.randrange(0x10000) if seq is None else seq,
        timestamp_ms=rng.randrange(2**32) if timestamp_ms is None else timestamp_ms,
        battery_mv=rng.randrange(BATTERY_LIMIT_MV + 1),
        voltages_mv=tuple(rng.randrange(VOLTAGE_LIMIT_MV) for _ in range(12)),
    )


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


def wire(frames) -> bytes:
    return b"".join(encode_frame(f) for f in frames)


def build_session(frames, subject: str = "anon", condition: str = "quiet",
                  dominance: Dominance = Dominance.DOMINANT) -> Session:
    glove = frames[0].glove if frames else Side.RIGHT
    builder = SessionBuilder(
        subject=subject,
        condition=condition,
        hand=Hand(side=glove, dominance=dominance),
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
