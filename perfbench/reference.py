"""Oracles the benchmark checks gripstream's outputs against.

Everything here is computed by the benchmark itself, from the documented
models (the emulator's force model, the wire format in docs/protocol.md,
the alert policy) with numpy and scipy. Nothing here calls the gripstream
function whose output it checks; gripstream is imported only for its
plain data types (Side, presets, Calibration).
"""

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
from scipy import stats

from gripstream.core import Side

FRAME_SIZE = 36
SYNC = 0xA5
GLOVE_BYTE = {Side.LEFT: 0x4C, Side.RIGHT: 0x52}
BATTERY_LIMIT_MV = 4300
VOLTAGE_LIMIT_MV = 3300
FORCE_CEILING_N = 20.0

_WIRE = np.dtype([
    ("sync", "u1"), ("glove", "u1"), ("seq", "<u2"), ("ts", "<u4"),
    ("battery", "<u2"), ("mv", "<u2", (12,)), ("crc", "<u2"),
])
assert _WIRE.itemsize == FRAME_SIZE


def _crc_table() -> np.ndarray:
    # CRC-16/CCITT-FALSE, poly 0x1021, MSB first (Sarwate's table method)
    table = np.arange(256, dtype=np.uint32) << 8
    for _ in range(8):
        table = np.where(table & 0x8000, (table << 1) ^ 0x1021, table << 1) & 0xFFFF
    return table.astype(np.uint32)


_CRC_TABLE = _crc_table()


def crc16_rows(block: np.ndarray) -> np.ndarray:
    """CRC-16/CCITT-FALSE of every row of a (m, k) uint8 array."""
    crc = np.full(block.shape[0], 0xFFFF, dtype=np.uint32)
    for j in range(block.shape[1]):
        crc = ((crc << 8) & 0xFFFF) ^ _CRC_TABLE[(crc >> 8) ^ block[:, j]]
    return crc


@dataclass(frozen=True)
class FrameMatrix:
    """One glove's frames as columns: what a correct recording holds."""

    side: Side
    ts: np.ndarray  # int64[n], milliseconds
    seq: np.ndarray  # int64[n]
    battery: np.ndarray  # int64[n], millivolts
    mv: np.ndarray  # int64[n, 12], millivolts

    def __len__(self) -> int:
        return len(self.ts)

    def forces(self, cal) -> np.ndarray:
        """(n, 12) newtons under the LINEAR calibration."""
        return self.mv * cal.anchor_force_n / cal.anchor_voltage_mv


def reference_frames(plan, cal, cfg) -> dict[Side, FrameMatrix]:
    """The frames a plan must produce, from the emulator's documented model.

    Forces are base * condition_gain * hand_gain * raised-cosine envelope
    plus N(0, noise) drawn per sensor from SeedSequence([seed, glove]),
    clipped to 0..20 N, quantized to millivolts through the LINEAR anchor.
    """
    out = {}
    for glove_index, side in enumerate((Side.LEFT, Side.RIGHT)):
        profile = plan.profiles.get(side)
        if profile is None:
            continue
        n = round(plan.duration_s * profile.duration_scale * 1000.0 / cfg.sample_period_ms)
        t_s = np.arange(n) * (cfg.sample_period_ms / 1000.0)
        if plan.waveform == "lift":
            envelope = 0.5 * (1.0 - np.cos(2.0 * math.pi * t_s / plan.lift_period_s))
        else:
            envelope = np.ones_like(t_s)
        gain = profile.condition_gain * (profile.hand_gain if side is plan.dominant else 1.0)
        forces = np.asarray(profile.base_force_n)[:, None] * gain * envelope[None, :]
        if profile.noise_sd_mv > 0:
            sd_n = profile.noise_sd_mv * cal.anchor_force_n / cal.anchor_voltage_mv
            for s, child in enumerate(np.random.SeedSequence([plan.seed, glove_index]).spawn(12)):
                forces[s] += np.random.default_rng(child).normal(0.0, sd_n, n)
        np.clip(forces, 0.0, FORCE_CEILING_N, out=forces)
        mv = np.rint(forces.T * cal.anchor_voltage_mv / cal.anchor_force_n).astype(np.int64)
        ts = np.rint(np.arange(n) * cfg.sample_period_ms).astype(np.int64)
        battery = np.clip(np.rint(4200 - 1.0 * ts / 1000.0), 0, BATTERY_LIMIT_MV).astype(np.int64)
        out[side] = FrameMatrix(side, ts, np.arange(n, dtype=np.int64) & 0xFFFF, battery, mv)
    return out


def encode(matrix: FrameMatrix) -> bytes:
    """Wire bytes of every frame of a matrix, per docs/protocol.md."""
    rec = np.zeros(len(matrix), dtype=_WIRE)
    rec["sync"] = SYNC
    rec["glove"] = GLOVE_BYTE[matrix.side]
    rec["seq"] = matrix.seq
    rec["ts"] = matrix.ts
    rec["battery"] = matrix.battery
    rec["mv"] = matrix.mv
    raw = rec.view(np.uint8).reshape(len(matrix), FRAME_SIZE)
    rec["crc"] = crc16_rows(raw[:, 1:34])
    return rec.tobytes()


# ---------------------------------------------------------------------------
# damaged streams


@dataclass
class ScanLedger:
    """What a correct scan of a damaged buffer reports, and which frames survive."""

    frame_offsets: list[int]
    crc_mismatch: int
    sync_loss: int
    format_error: int
    garbage_bytes: int


def reference_scan(buf: bytes) -> ScanLedger:
    """Classify a buffer by the scanning rules of docs/protocol.md."""
    a = np.frombuffer(buf, dtype=np.uint8)
    n = len(a)
    cand = np.flatnonzero(a[: max(n - FRAME_SIZE + 1, 0)] == SYNC)
    windows = a[cand[:, None] + np.arange(FRAME_SIZE)]
    stored = windows[:, 34].astype(np.uint32) | (windows[:, 35].astype(np.uint32) << 8)
    crc_ok = crc16_rows(windows[:, 1:34]) == stored
    words = windows[:, 8:34].astype(np.uint32)
    words = words[:, 0::2] | (words[:, 1::2] << 8)  # battery, then 12 voltages
    fields_ok = (
        np.isin(windows[:, 1], list(GLOVE_BYTE.values()))
        & (words[:, 0] <= BATTERY_LIMIT_MV)
        & (words[:, 1:] < VOLTAGE_LIMIT_MV).all(axis=1)
    )
    good_crc = set(cand[crc_ok].tolist())
    good_fields = set(cand[crc_ok & fields_ok].tolist())
    ledger = ScanLedger([], 0, 0, 0, 0)
    i = 0
    while i < n:
        if buf[i] != SYNC:
            ledger.sync_loss += 1
            j = buf.find(b"\xa5", i)
            j = n if j < 0 else j
            ledger.garbage_bytes += j - i
            i = j
        elif n - i < FRAME_SIZE:
            break  # a partial frame waits for more bytes
        elif i not in good_crc:
            ledger.crc_mismatch += 1
            i += 1
        elif i not in good_fields:
            ledger.format_error += 1
            i += FRAME_SIZE
        else:
            ledger.frame_offsets.append(i)
            i += FRAME_SIZE
    return ledger


def surviving_frames(buf: bytes, ledger: ScanLedger) -> np.ndarray:
    """Timestamps of the frames an ingester keeps: strictly increasing ones."""
    kept, last = [], -1
    for off in ledger.frame_offsets:
        ts = int.from_bytes(buf[off + 4 : off + 8], "little")
        if ts > last:
            kept.append(ts)
            last = ts
    return np.asarray(kept, dtype=np.int64)


def gap_ledger(seq: np.ndarray) -> tuple[int, int]:
    """(gap events, missing frames) for an accepted sequence-number column."""
    missing = (np.diff(seq) - 1) % 0x10000
    return int(np.count_nonzero(missing)), int(missing.sum())


# ---------------------------------------------------------------------------
# recorded files


def _pairs_text(ts: np.ndarray, values: np.ndarray) -> str:
    return "".join([f"{t}\t{v}\n" for t, v in zip(ts.tolist(), values.tolist())])


def tsv_digests(matrix: FrameMatrix, rows: np.ndarray) -> dict[str, str]:
    """sha256 of each recorded TSV, keyed by file suffix (S1..S12, battery)."""
    ts = matrix.ts[rows]
    out = {
        f"S{s + 1}": hashlib.sha256(_pairs_text(ts, matrix.mv[rows, s]).encode()).hexdigest()
        for s in range(12)
    }
    out["battery"] = hashlib.sha256(_pairs_text(ts, matrix.battery[rows]).encode()).hexdigest()
    return out


def _failures(found: list[dict], matrix: FrameMatrix, rows: np.ndarray) -> int:
    """Frames missing or wrong in any column (battery, S1..S12), plus extra ones."""
    want = [matrix.battery] + [matrix.mv[:, s] for s in range(12)]
    expected = {int(matrix.ts[r]): int(r) for r in rows}
    bad = {t for got, column in zip(found, want)
           for t, r in expected.items() if got.get(t) != int(column[r])}
    return len(bad) + len(set().union(*found) - set(expected))


def frame_failures(directory, stem: str, matrix: FrameMatrix, rows: np.ndarray) -> int:
    """Frames missing from, wrong in, or extra in a recording.

    Slow path, used only when a digest disagrees, to count the damage.
    """
    found = []
    for suffix in ["battery"] + [f"S{s}" for s in range(1, 13)]:
        path = directory / f"{stem}_{suffix}.tsv"
        got = {}
        for line in (path.read_text(encoding="utf-8") if path.exists() else "").splitlines():
            parts = line.split("\t")
            try:
                got[int(parts[0])] = int(parts[1])
            except (ValueError, IndexError):
                continue
        found.append(got)
    return _failures(found, matrix, rows)


def file_digest(path) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def session_failures(session, matrix: FrameMatrix) -> int:
    """Frames of a loaded Session missing from, wrong in, or extra to the matrix."""
    columns = [session.battery_trace] + [session.samples[sid] for sid in range(1, 13)]
    if any(len(c) != len(matrix) for c in columns):
        return _failures([dict(c) for c in columns], matrix, np.arange(len(matrix)))
    bad = np.zeros(len(matrix), dtype=bool)
    want = [matrix.battery] + [matrix.mv[:, s] for s in range(12)]
    for got, values in zip(columns, want):
        pairs = np.asarray(got, dtype=np.int64).reshape(-1, 2)
        bad |= (pairs[:, 0] != matrix.ts) | (pairs[:, 1] != values)
    return int(bad.sum())


def csv_digest(matrices: list[tuple[str, FrameMatrix]]) -> tuple[str, int]:
    """sha256 and row count of export_csv's output for sessions in load order.

    Rows sort stably by (timestamp, glove, sensor), with csv's CRLF endings.
    """
    ts = np.concatenate([np.repeat(m.ts, 12) for _, m in matrices])
    glove = np.concatenate([np.full(len(m) * 12, g) for g, m in matrices])
    sensor = np.concatenate([np.tile(np.arange(1, 13), len(m)) for _, m in matrices])
    mv = np.concatenate([m.mv.ravel() for _, m in matrices])
    order = np.lexsort((sensor, glove, ts))
    digest = hashlib.sha256(b"timestamp_ms,glove,sensor,voltage_mv\r\n")
    for lo in range(0, len(order), 65536):
        part = order[lo : lo + 65536]
        digest.update("".join([
            f"{t},{g},S{s},{v}\r\n"
            for t, g, s, v in zip(ts[part].tolist(), glove[part].tolist(),
                                  sensor[part].tolist(), mv[part].tolist())
        ]).encode())
    return digest.hexdigest(), len(order)


def svg_ok(path, point_counts: list[int]) -> bool:
    """One polyline per series, each with its points, all inside the canvas."""
    root = ElementTree.parse(path).getroot()
    width, height = float(root.get("width")), float(root.get("height"))
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    if len(lines) != len(point_counts):
        return False
    for line, count in zip(lines, point_counts):
        xy = np.array([p.split(",") for p in line.get("points").split()], dtype=float)
        if len(xy) != count or not ((xy >= 0).all() and (xy[:, 0] <= width).all()
                                    and (xy[:, 1] <= height).all()):
            return False
    return True


# ---------------------------------------------------------------------------
# alerting


def reference_alerts(forces: np.ndarray, ts: np.ndarray, threshold: float,
                     hysteresis: float, debounce: int):
    """Alert episodes of the debounce/hysteresis policy, per sensor.

    Returns (onset_ts, sensor, onset_peak, final_peak, cleared_ts or None)
    tuples in onset order, sensor order breaking ties. An episode opens at
    the debounce-th consecutive sample above threshold and clears at the
    first later sample below threshold - hysteresis; the peak covers the
    opening run and every sample up to and including the clearing one.
    """
    n = len(ts)
    out = []
    clear = threshold - hysteresis
    for s in range(12):
        f = forces[:, s]
        above = f > threshold
        run = np.convolve(above.astype(np.int64), np.ones(debounce, dtype=np.int64))[:n]
        onsets = np.flatnonzero(run == debounce)  # window ending here is all above
        below = np.flatnonzero(f < clear)
        start = 0
        while True:
            k = np.searchsorted(onsets, start + debounce - 1)
            if k == len(onsets):
                break
            i = int(onsets[k])
            onset_peak = float(f[i - debounce + 1 : i + 1].max())
            c = np.searchsorted(below, i + 1)
            if c == len(below):
                out.append((int(ts[i]), s + 1, onset_peak,
                            max(onset_peak, float(f[i + 1 :].max(initial=0.0))), None))
                break
            j = int(below[c])
            out.append((int(ts[i]), s + 1, onset_peak,
                        max(onset_peak, float(f[i + 1 : j + 1].max())), int(ts[j])))
            start = j + 1
    out.sort(key=lambda a: (a[0], a[1]))
    return out


def onset_peaks(session, debounce: int, cal):
    """alert -> its peak when it opened: the top of its debounce run.

    A monitor hands an alert out when it opens and raises its peak in
    place afterwards, so a live log shows this value, not the final one.
    """
    cache = {}

    def peak(alert) -> float:
        if alert.sensor not in cache:
            pairs = np.asarray(session.samples[alert.sensor], dtype=np.int64).reshape(-1, 2)
            cache[alert.sensor] = (pairs[:, 0],
                                   pairs[:, 1] * cal.anchor_force_n / cal.anchor_voltage_mv)
        ts, forces = cache[alert.sensor]
        i = int(np.searchsorted(ts, alert.onset_timestamp_ms))
        return float(forces[i - debounce + 1 : i + 1].max())

    return peak


# ---------------------------------------------------------------------------
# study statistics


def session_means(matrix: FrameMatrix, cal) -> np.ndarray:
    """Mean force of each of the 12 sensors."""
    return matrix.forces(cal).mean(axis=0)


def shares(means: np.ndarray, subset) -> dict[int, float]:
    picked = {sid: float(means[sid - 1]) for sid in subset}
    total = math.fsum(picked.values())
    return {sid: 100.0 * m / total for sid, m in picked.items()}


def twoway_anova(cube: np.ndarray) -> dict[str, tuple[float, float]]:
    """(F, p) per effect of a balanced (a, b, replicates) table.

    Fits the cell-means model by least squares on dummy-coded factors,
    then tests each effect against the residual mean square.
    """
    na, nb, reps = cube.shape
    y = cube.reshape(-1)
    a = np.repeat(np.arange(na), nb * reps)
    b = np.tile(np.repeat(np.arange(nb), reps), na)

    def rss(columns) -> float:
        x = np.column_stack([np.ones_like(y)] + columns)
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
        return float(((y - x @ beta) ** 2).sum())

    da = [(a == i).astype(float) for i in range(1, na)]
    db = [(b == j).astype(float) for j in range(1, nb)]
    dab = [x * z for x in da for z in db]
    rss_full = rss(da + db + dab)
    df_err = na * nb * (reps - 1)
    ms_err = rss_full / df_err
    # balanced design: every term's sum of squares is its marginal increment
    ss = {
        "a": rss(db) - rss(da + db),
        "b": rss(da) - rss(da + db),
        "ab": rss(da + db) - rss_full,
    }
    dfs = {"a": na - 1, "b": nb - 1, "ab": (na - 1) * (nb - 1)}
    return {
        k: (ss[k] / dfs[k] / ms_err, float(stats.f.sf(ss[k] / dfs[k] / ms_err, dfs[k], df_err)))
        for k in ss
    }


def close(got: float, want: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol)
