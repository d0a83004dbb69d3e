"""Dependency-free SVG line charts for force/voltage profiles.

Output is a plain string, fully determined by the input, so charts can be
diffed and golden-tested byte for byte. Polyline coordinates are written by
the numpy digit writer of recorded columns (ingest._ascii_words), with bytes
equal to Python's "{:.2f}" of each coordinate.
"""

import math
from html import escape

import numpy as np

from gripstream.errors import GripstreamError
from gripstream.ingest import _ascii_words

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_WIDTH, _HEIGHT = 640, 360
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 58, 16, 30, 44
_PLOT_W = _WIDTH - _MARGIN_L - _MARGIN_R
_PLOT_H = _HEIGHT - _MARGIN_T - _MARGIN_B
_TARGET_TICKS = 5
# Below this, 100·x as a float64 is within half a unit of the exact 100·x, so
# its rint is "{:.2f}"'s rounding wherever 100·x is not near a .5 tie.
_CENTS_EXACT_BELOW = 2.0**53 / 100
# The two decimals then the separator, right-aligned in an 8-byte word (zeros
# first, as _ascii_words writes): 100 entries ending "," for x, then 100 ending " " for y.
_DECIMALS = np.frombuffer(
    b"".join(f"{d:02d}{sep}".encode().rjust(8, b"\0") for sep in ", " for d in range(100)),
    np.uint64,
)


class NoDataError(GripstreamError):
    pass


def _nice_step(span: float) -> float:
    raw = span / _TARGET_TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + step * 1e-9:
        out.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return out


def _polyline_points(xs: np.ndarray, ys: np.ndarray) -> str:
    """"x,y x,y ..." with each coordinate as "{:.2f}" writes it.

    xs and ys are >= 0. Each coordinate is written from its hundredths
    k = rint(100·x): the digits of k // 100 and ".", then a word of k's last
    two digits and the separator. "{:.2f}" rounds the exact binary value
    (half to even), which rint of the rounded product can miss only where
    100·x lies near a .5 tie, so those entries take k from format itself. A
    series with a coordinate past _CENTS_EXACT_BELOW, or not finite, keeps
    format.
    """
    coords = np.column_stack((xs, ys))
    if not coords.max() < _CENTS_EXACT_BELOW:
        return " ".join(map("{:.2f},{:.2f}".format, xs.tolist(), ys.tolist()))
    scaled = coords * 100.0
    cents = np.rint(scaled).astype(np.int64)
    for at in zip(*np.nonzero(np.abs(scaled - np.floor(scaled) - 0.5) <= 1e-6)):
        cents[at] = int(format(coords[at], ".2f").replace(".", ""))
    words = np.column_stack((_ascii_words((cents // 100).ravel(), b"."),
                             _DECIMALS[cents % 100 + (0, 100)].ravel()))
    return words.tobytes().translate(None, b"\0")[:-1].decode("ascii")


def render_profile_svg(series, y_label: str = "force (N)", title: str = "") -> str:
    """Render labeled (label, points) series as a 640x360 SVG chart.

    points holds (t_ms, value) rows: a sequence of pairs or an (n, 2) array.
    Empty series are skipped; if nothing remains there is nothing to plot
    and NoDataError is raised. The x axis is task time in seconds. Polyline
    points come from the numpy digit writer (_polyline_points), byte for
    byte what "{:.2f}" writes.
    """
    drawable = []
    for label, points in series:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if len(pts):
            drawable.append((str(label), pts))
    if not drawable:
        raise NoDataError("no non-empty series to plot")

    t_lo = min(float(pts[:, 0].min()) for _, pts in drawable) / 1000.0
    t_hi = max(float(pts[:, 0].max()) for _, pts in drawable) / 1000.0
    v_hi = max(float(pts[:, 1].max()) for _, pts in drawable)
    v_lo = 0.0
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0
    if v_hi <= v_lo:
        v_hi = 1.0
    v_hi *= 1.05

    def sx(t_s: float) -> float:
        return _MARGIN_L + (t_s - t_lo) / (t_hi - t_lo) * _PLOT_W

    def sy(v: float) -> float:
        return _MARGIN_T + _PLOT_H - (v - v_lo) / (v_hi - v_lo) * _PLOT_H

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="19" text-anchor="middle" font-size="13">'
            f"{escape(title, quote=False)}</text>"
        )

    # grid and tick labels
    for t in _ticks(t_lo, t_hi):
        x = sx(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + _PLOT_H}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + _PLOT_H + 16}" text-anchor="middle" '
            f'font-size="11">{t:g}</text>'
        )
    for v in _ticks(v_lo, v_hi):
        y = sy(v)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.2f}" x2="{_MARGIN_L + _PLOT_W}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="11">{v:g}</text>'
        )

    # axes
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + _PLOT_H}" x2="{_MARGIN_L + _PLOT_W}" '
        f'y2="{_MARGIN_T + _PLOT_H}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_MARGIN_T + _PLOT_H}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_L + _PLOT_W / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-size="12">task time (s)</text>'
    )
    parts.append(
        f'<text x="14" y="{_MARGIN_T + _PLOT_H / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {_MARGIN_T + _PLOT_H / 2:.1f})">'
        f"{escape(y_label, quote=False)}</text>"
    )

    # one polyline per series
    for i, (label, pts) in enumerate(drawable):
        color = PALETTE[i % len(PALETTE)]
        xs, ys = sx(pts[:, 0] / 1000.0), sy(pts[:, 1])
        parts.append(
            f'<polyline points="{_polyline_points(xs, ys)}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        if len(pts) == 1:
            parts.append(f'<circle cx="{xs[0]:.2f}" cy="{ys[0]:.2f}" r="2.5" fill="{color}"/>')

    # legend, top-right corner of the plot area
    for i, (label, _) in enumerate(drawable):
        color = PALETTE[i % len(PALETTE)]
        y = _MARGIN_T + 14 + i * 16
        x = _MARGIN_L + _PLOT_W - 130
        parts.append(
            f'<line x1="{x}" y1="{y - 4}" x2="{x + 18}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x + 24}" y="{y}" font-size="11">{escape(label, quote=False)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
