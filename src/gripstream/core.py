"""Electrical model of the sensor glove.

Each of the 12 force sensitive resistors (FSR) forms a voltage divider with
a fixed pull-down resistor:

    v_out = r_pd * v_supply / (r_pd + r_fsr)

The FSR resistance falls monotonically with applied force (about 10 Mohm
unloaded down to 250 ohm near 20 N), so v_out rises monotonically from a few
millivolts toward the supply rail as grip force increases.

Force calibration is anchored at a single point (default 1500 mV <-> 10 N,
the top of the working range) and offered in two modes:

* LINEAR   - force proportional to voltage through the anchor. The default;
             within the working range the device response is close to linear.
* RATIONAL - force = c * v / (v_supply - v), a saturating divider-form map
             with c fixed so the anchor point is exact. Kept as an alternate
             interpretation of the same calibration data.

Both modes agree exactly at 0 mV and at the anchor voltage. Calibration is
per glove, not per sensor: the sensors are matched closely enough that raw
millivolt channels are directly comparable.
"""

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from gripstream.errors import ConfigError, DomainError

SENSOR_COUNT = 12


def require_finite(config) -> None:
    """ConfigError for the first NaN or infinite float field; NaN passes every range check."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")


class SensorLocus(Enum):
    """Anatomical placement of one FSR on the inner hand surface."""

    FINGERTIP_THUMB = "fingertip_thumb"
    FINGERTIP_INDEX = "fingertip_index"
    FINGERTIP_MIDDLE = "fingertip_middle"
    FINGERTIP_RING = "fingertip_ring"
    FINGERTIP_LITTLE = "fingertip_little"
    PHALANX_INDEX = "phalanx_index"
    PHALANX_MIDDLE = "phalanx_middle"
    PHALANX_RING = "phalanx_ring"
    PHALANX_LITTLE = "phalanx_little"
    THENAR = "thenar"
    HYPOTHENAR = "hypothenar"
    MID_PALM = "mid_palm"


PHALANX_LOCI = frozenset(
    {
        SensorLocus.PHALANX_INDEX,
        SensorLocus.PHALANX_MIDDLE,
        SensorLocus.PHALANX_RING,
        SensorLocus.PHALANX_LITTLE,
    }
)


class ConversionMode(Enum):
    LINEAR = "linear"
    RATIONAL = "rational"


class Side(Enum):
    LEFT = "L"
    RIGHT = "R"


class Dominance(Enum):
    DOMINANT = "dominant"
    NON_DOMINANT = "nondominant"


@dataclass(frozen=True)
class Hand:
    side: Side
    dominance: Dominance


@dataclass(frozen=True)
class SensorSpec:
    """One sensor channel: id 1..12, placement, and active-area diameter."""

    sid: int
    locus: SensorLocus
    diameter_mm: int

    def __post_init__(self):
        if not 1 <= self.sid <= SENSOR_COUNT:
            raise ConfigError(f"sensor id must be 1..{SENSOR_COUNT}, got {self.sid}")
        if self.diameter_mm not in (5, 10):
            raise ConfigError(f"sensor diameter must be 5 or 10 mm, got {self.diameter_mm}")
        expected = 5 if self.locus in PHALANX_LOCI else 10
        if self.diameter_mm != expected:
            raise ConfigError(
                f"{self.locus.value} sensors are {expected} mm, got {self.diameter_mm}"
            )

    @property
    def label(self) -> str:
        return f"S{self.sid}"


def standard_layout() -> tuple[SensorSpec, ...]:
    """Default channel map: S1..S5 fingertips thumb through little (10 mm),
    S6..S9 middle phalanges index through little (5 mm), S10..S12 thenar,
    hypothenar and mid-palm (10 mm)."""
    loci = (
        SensorLocus.FINGERTIP_THUMB,
        SensorLocus.FINGERTIP_INDEX,
        SensorLocus.FINGERTIP_MIDDLE,
        SensorLocus.FINGERTIP_RING,
        SensorLocus.FINGERTIP_LITTLE,
        SensorLocus.PHALANX_INDEX,
        SensorLocus.PHALANX_MIDDLE,
        SensorLocus.PHALANX_RING,
        SensorLocus.PHALANX_LITTLE,
        SensorLocus.THENAR,
        SensorLocus.HYPOTHENAR,
        SensorLocus.MID_PALM,
    )
    return tuple(
        SensorSpec(i + 1, locus, 5 if locus in PHALANX_LOCI else 10)
        for i, locus in enumerate(loci)
    )


@dataclass(frozen=True)
class Calibration:
    """Single-point force calibration shared by all sensors of a glove."""

    anchor_voltage_mv: float = 1500.0
    anchor_force_n: float = 10.0

    def __post_init__(self):
        require_finite(self)
        if self.anchor_voltage_mv <= 0:
            raise ConfigError("anchor voltage must be positive")
        if self.anchor_force_n <= 0:
            raise ConfigError("anchor force must be positive")

    @property
    def max_force_n(self) -> float:
        """Top of the calibrated range; conversions reject forces above it."""
        return 2.0 * self.anchor_force_n


@dataclass(frozen=True)
class GloveConfig:
    """Electrical constants, channel layout, and acquisition cadence."""

    supply_voltage_v: float = 3.3
    pulldown_ohm: float = 10_000.0
    sample_period_ms: float = 20.0
    sensor_layout: tuple[SensorSpec, ...] = field(default_factory=standard_layout)
    battery_nominal_v: float = 4.2
    conversion_mode: ConversionMode = ConversionMode.LINEAR

    def __post_init__(self):
        require_finite(self)
        if self.supply_voltage_v <= 0:
            raise ConfigError("supply voltage must be positive")
        if self.pulldown_ohm <= 0:
            raise ConfigError("pull-down resistance must be positive")
        if self.sample_period_ms <= 0:
            raise ConfigError("sample period must be positive")
        layout = tuple(self.sensor_layout)
        object.__setattr__(self, "sensor_layout", layout)
        if len(layout) != SENSOR_COUNT:
            raise ConfigError(f"expected {SENSOR_COUNT} sensors, got {len(layout)}")
        ids = [s.sid for s in layout]
        if len(set(ids)) != SENSOR_COUNT:
            raise ConfigError("sensor ids must be unique")
        large = sum(1 for s in layout if s.diameter_mm == 10)
        small = sum(1 for s in layout if s.diameter_mm == 5)
        if (large, small) != (8, 4):
            raise ConfigError(f"layout needs 8x10mm + 4x5mm sensors, got {large}x10 + {small}x5")

    @property
    def supply_mv(self) -> float:
        return self.supply_voltage_v * 1000.0

    @property
    def sample_rate_hz(self) -> float:
        return 1000.0 / self.sample_period_ms

    def sensors_at(self, locus: SensorLocus) -> list[SensorSpec]:
        return [s for s in self.sensor_layout if s.locus == locus]


# --- divider physics ---------------------------------------------------------


def divider_voltage(rfsr_ohm: float, cfg: GloveConfig) -> float:
    """Divider output in volts for a given FSR resistance."""
    if rfsr_ohm <= 0:
        raise DomainError(f"FSR resistance must be positive, got {rfsr_ohm}")
    return cfg.pulldown_ohm * cfg.supply_voltage_v / (cfg.pulldown_ohm + rfsr_ohm)


def resistance_from_voltage(v: float, cfg: GloveConfig) -> float:
    """FSR resistance in ohms that produces divider output v (volts)."""
    if not 0.0 < v < cfg.supply_voltage_v:
        raise DomainError(f"divider voltage must be in (0, {cfg.supply_voltage_v}) V, got {v}")
    return cfg.pulldown_ohm * (cfg.supply_voltage_v - v) / v


# --- force calibration -------------------------------------------------------


def rational_gain(cal: Calibration, cfg: GloveConfig) -> float:
    """Constant c of the RATIONAL map f = c*v/(supply - v), anchor-exact."""
    supply = cfg.supply_mv
    if cal.anchor_voltage_mv >= supply:
        raise ConfigError("calibration anchor voltage must be below the supply rail")
    return cal.anchor_force_n * (supply - cal.anchor_voltage_mv) / cal.anchor_voltage_mv


def _in_domain(x, lo: float, hi: float, hi_closed: bool, what: str, unit: str):
    """x unchanged if it is a scalar in the domain, else a float array of it.

    The domain is [lo, hi) or, with hi_closed, [lo, hi]; NaN is outside it.
    """
    if isinstance(x, (int, float, np.number)):
        if lo <= x < hi or (hi_closed and x == hi):
            return x
        bad, where = x, ""
    else:
        a = np.asarray(x, dtype=float)
        ok = (a >= lo) & ((a <= hi) if hi_closed else (a < hi))
        if ok.all():
            return a
        pos = np.argwhere(~ok)[0]
        bad = f"{a[tuple(pos)]:g}"
        where = " at sample index " + ", ".join(str(int(p)) for p in pos)
    bounds = f"[{lo:g}, {hi:g}{']' if hi_closed else ')'}"
    raise DomainError(f"{what} {bad} {unit}{where} outside {bounds} {unit}")


def force_from_voltage(v_mv, cal: Calibration, cfg: GloveConfig):
    """Convert sensor voltage in millivolts to newtons.

    Takes a scalar (returns a float) or an array of any shape (returns a
    float array of that shape); every value must lie in [0, supply_mv).
    LINEAR scales through the anchor point (default 1 N per 150 mV);
    RATIONAL applies f = c*v/(supply_mv - v). Both map 0 to 0 N and the
    anchor voltage exactly to the anchor force.
    """
    supply = cfg.supply_mv
    v = _in_domain(v_mv, 0.0, supply, False, "voltage", "mV")
    if cfg.conversion_mode is ConversionMode.LINEAR:
        return v * cal.anchor_force_n / cal.anchor_voltage_mv
    return rational_gain(cal, cfg) * v / (supply - v)


def voltage_from_force(force_n, cal: Calibration, cfg: GloveConfig):
    """Inverse of force_from_voltage, in millivolts, for a scalar or an array.

    Valid for forces in [0, 2 * anchor_force]; the emulator clamps there too.
    """
    f = _in_domain(force_n, 0.0, cal.max_force_n, True, "force", "N")
    if cfg.conversion_mode is ConversionMode.LINEAR:
        return f * cal.anchor_voltage_mv / cal.anchor_force_n
    c = rational_gain(cal, cfg)
    return f * cfg.supply_mv / (c + f)


# --- config file I/O ---------------------------------------------------------

# Plain-text key-value format, one "key = value" per line, '#' comments.
# Keys (SI units in the names): each float field of GloveConfig and Calibration
# by its name, conversion_mode (linear|rational) and sensor_S<k> =
# <locus>:<diameter_mm>. Any other key is refused, so a misspelled setting
# cannot pass unread.
_GLOVE_KEYS = ("supply_voltage_v", "pulldown_ohm", "sample_period_ms", "battery_nominal_v")
_CALIBRATION_KEYS = ("anchor_voltage_mv", "anchor_force_n")
_CONFIG_KEYS = (*_GLOVE_KEYS, "conversion_mode", *_CALIBRATION_KEYS)


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse 'key = value' lines; later duplicate keys win."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def format_config(cfg: GloveConfig, cal: Calibration) -> str:
    lines = [
        "# gripstream glove configuration",
        f"supply_voltage_v = {cfg.supply_voltage_v!r}",
        f"pulldown_ohm = {cfg.pulldown_ohm!r}",
        f"sample_period_ms = {cfg.sample_period_ms!r}",
        f"battery_nominal_v = {cfg.battery_nominal_v!r}",
        f"conversion_mode = {cfg.conversion_mode.value}",
        f"anchor_voltage_mv = {cal.anchor_voltage_mv!r}",
        f"anchor_force_n = {cal.anchor_force_n!r}",
    ]
    for s in sorted(cfg.sensor_layout, key=lambda s: s.sid):
        lines.append(f"sensor_{s.label} = {s.locus.value}:{s.diameter_mm}")
    return "\n".join(lines) + "\n"


def _floats(kv: dict[str, str], keys: tuple[str, ...]) -> dict[str, float]:
    """The given keys that kv sets, as floats; unset keys keep the dataclass defaults."""
    out = {}
    for key in keys:
        if key in kv:
            try:
                out[key] = float(kv[key])
            except ValueError:
                raise ConfigError(f"{key}: not a number: {kv[key]!r}") from None
    return out


def config_from_mapping(kv: dict[str, str]) -> tuple[GloveConfig, Calibration]:
    unknown = next((k for k in kv if k not in _CONFIG_KEYS and not k.startswith("sensor_S")), None)
    if unknown is not None:
        raise ConfigError(f"unknown config key {unknown!r}; known: {', '.join(_CONFIG_KEYS)}, "
                          f"sensor_S<k>")
    mode_name = kv.get("conversion_mode", ConversionMode.LINEAR.value)
    try:
        mode = ConversionMode(mode_name)
    except ValueError:
        raise ConfigError(f"unknown conversion_mode {mode_name!r}") from None

    layout: list[SensorSpec] = []
    for key, value in kv.items():
        if not key.startswith("sensor_S"):
            continue
        try:
            sid = int(key[len("sensor_S"):])
        except ValueError:
            raise ConfigError(f"bad sensor key {key!r}") from None
        if ":" not in value:
            raise ConfigError(f"{key}: expected '<locus>:<diameter_mm>', got {value!r}")
        locus_name, diameter = value.split(":", 1)
        try:
            locus = SensorLocus(locus_name.strip())
        except ValueError:
            raise ConfigError(f"{key}: unknown locus {locus_name!r}") from None
        try:
            dia = int(diameter)
        except ValueError:
            raise ConfigError(f"{key}: bad diameter {diameter!r}") from None
        layout.append(SensorSpec(sid, locus, dia))

    cfg = GloveConfig(
        **_floats(kv, _GLOVE_KEYS),
        sensor_layout=tuple(sorted(layout, key=lambda s: s.sid)) or standard_layout(),
        conversion_mode=mode,
    )
    cal = Calibration(**_floats(kv, _CALIBRATION_KEYS))
    if cal.anchor_voltage_mv >= cfg.supply_mv:
        raise ConfigError("anchor_voltage_mv must be below the supply rail")
    return cfg, cal


def save_config(path: str | Path, cfg: GloveConfig, cal: Calibration) -> None:
    Path(path).write_text(format_config(cfg, cal), encoding="utf-8")


def load_config(path: str | Path) -> tuple[GloveConfig, Calibration]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: "
                          f"byte {exc.start} is {exc.object[exc.start]:#04x}")
    return config_from_mapping(parse_kv_text(text))
