"""Glove emulator: force trajectories and wire-record emission.

A SessionPlan describes one recording session for one or two gloves. Each
glove gets a ProfilePreset: 12 per-sensor base forces plus a gain knob for
the experimental condition (music); hand_gain is the constant
DOMINANT_HAND_GAIN on the dominant glove and 1 on the other. Trajectories
are base * condition_gain * hand_gain * waveform(t) plus seeded Gaussian
sensor noise, clamped to the 0..20 N range the sensors are characterized for.

Noise is specified in millivolts (it is sensor-front-end noise) and mapped
into force units through the calibration anchor slope. The PRNG is numpy
PCG64 seeded via SeedSequence([seed, glove_index]) and spawned once per
sensor, so trajectories are reproducible and independent per channel.
"""

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from gripstream.core import Calibration, GloveConfig, Side, require_finite, voltage_from_force
from gripstream.errors import ConfigError
from gripstream.protocol import BATTERY_LIMIT_MV, FRAME_DTYPE, encode_records

FORCE_CEILING_N = 20.0
_TIMESTAMP_MAX_MS = np.iinfo(FRAME_DTYPE["timestamp_ms"]).max

WAVEFORM_HOLD = "hold"
WAVEFORM_LIFT = "lift"
WAVEFORMS = (WAVEFORM_HOLD, WAVEFORM_LIFT)

# fingertip channel for each long finger in the standard layout
FINGERTIP_SENSOR = {"index": 2, "middle": 3, "ring": 4, "little": 5}
# a share-table preset's summed long-finger fingertip force, thumb force and every other sensor's
_FINGERTIP_TOTAL_N, _THUMB_FORCE_N, _SUPPORT_FORCE_N = 20.0, 3.0, 0.5

# condition label -> grip effort multiplier; aggressive music drives harder grips
CONDITION_GAINS = {"quiet": 1.0, "soft": 1.0, "hardrock": 1.3}

DOMINANT_HAND_GAIN = 1.15

# the emulated battery starts at GloveConfig.battery_nominal_v and drains linearly
BATTERY_DRAIN_MV_PER_S = 1.0


def condition_gain(label: str) -> float:
    return CONDITION_GAINS.get(label, 1.0)


@dataclass(frozen=True)
class ProfilePreset:
    """Per-sensor force shape for one glove."""

    name: str
    base_force_n: tuple[float, ...]
    condition_gain: float = 1.0
    noise_sd_mv: float = 5.0
    duration_scale: float = 1.0
    hand_gain: ClassVar[float] = DOMINANT_HAND_GAIN

    def __post_init__(self):
        object.__setattr__(self, "base_force_n", tuple(float(f) for f in self.base_force_n))
        if len(self.base_force_n) != 12:
            raise ConfigError(f"preset needs 12 base forces, got {len(self.base_force_n)}")
        require_finite(self)
        for f in self.base_force_n:
            if not 0.0 <= f <= FORCE_CEILING_N:
                raise ConfigError(f"base force {f} N outside [0, {FORCE_CEILING_N}]")
        if self.condition_gain < 0:
            raise ConfigError("gains must be non-negative")
        if self.noise_sd_mv < 0:
            raise ConfigError("noise sd must be non-negative")
        if self.duration_scale <= 0:
            raise ConfigError("duration scale must be positive")

    def scaled(self, factor: float) -> "ProfilePreset":
        """Same profile with base forces scaled (e.g. per-subject strength)."""
        if factor < 0:
            raise ConfigError("scale factor must be non-negative")
        scaled = tuple(min(f * factor, FORCE_CEILING_N) for f in self.base_force_n)
        return replace(self, base_force_n=scaled)

    def with_gains(self, condition: float | None = None,
                   noise_sd_mv: float | None = None) -> "ProfilePreset":
        kw = {}
        if condition is not None:
            kw["condition_gain"] = condition
        if noise_sd_mv is not None:
            kw["noise_sd_mv"] = noise_sd_mv
        return replace(self, **kw)


def _bases(per_sensor: dict[int, float], default: float) -> tuple[float, ...]:
    return tuple(per_sensor.get(sid, default) for sid in range(1, 13))


def contribution_preset(name: str, shares: dict[str, float]) -> ProfilePreset:
    """Preset whose long-finger fingertip forces follow a percentage table.

    shares maps finger name (index/middle/ring/little) to its percentage of
    the summed fingertip force. Base forces are proportional to the table,
    so a noise-free run recovers the (normalized) table as its shares.
    """
    unknown = set(shares) - set(FINGERTIP_SENSOR)
    if unknown:
        raise ConfigError(f"unknown fingers in share table: {sorted(unknown)}")
    total = sum(shares.values())
    # reference tables arrive rounded, so the sum can miss 100 slightly
    if not 98.0 <= total <= 102.0:
        raise ConfigError(f"contribution shares must sum to ~100, got {total}")
    per_sensor = {FINGERTIP_SENSOR[f]: _FINGERTIP_TOTAL_N * pct / 100.0
                  for f, pct in shares.items()}
    per_sensor[1] = _THUMB_FORCE_N
    return ProfilePreset(name=name, base_force_n=_bases(per_sensor, _SUPPORT_FORCE_N))


def _builtin_presets() -> dict[str, ProfilePreset]:
    presets = [
        # flat mid-range grip, handy for smoke tests
        ProfilePreset("steady", _bases({1: 3.0, 2: 2.0, 3: 2.0, 4: 2.0, 5: 2.0}, 1.0)),
        # five-finger precision lifting: index-dominated share table
        contribution_preset("precision_lift",
                            {"index": 42.0, "middle": 27.4, "ring": 17.6, "little": 12.9}),
        # power grip strength survey: middle/ring carry the load
        contribution_preset("power_grip",
                            {"index": 17.0, "middle": 22.0, "ring": 31.0, "little": 29.0}),
        # trained operator: subtle little-finger control, light gross force,
        # finishes the task faster
        ProfilePreset(
            "expert",
            _bases({1: 2.0, 2: 2.2, 3: 2.0, 4: 2.5, 5: 3.0, 10: 1.5, 11: 1.2}, 0.8),
            duration_scale=0.7,
        ),
        # first-time operator: gross middle-finger force, little finger idle
        ProfilePreset(
            "novice",
            _bases({1: 3.5, 2: 3.0, 3: 3.5, 4: 2.0, 5: 1.5, 10: 2.5, 11: 2.0}, 1.0),
        ),
    ]
    return {p.name: p for p in presets}


PRESETS = _builtin_presets()


def get_preset(name: str) -> ProfilePreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}") from None


@dataclass
class SessionPlan:
    """One or two gloves, a duration, a waveform, and a seed."""

    profiles: dict[Side, ProfilePreset]
    duration_s: float = 10.0
    seed: int = 0
    dominant: Side = Side.RIGHT
    waveform: str = WAVEFORM_HOLD
    lift_period_s: ClassVar[float] = 2.0

    def __post_init__(self):
        if not self.profiles or len(self.profiles) > 2:
            raise ConfigError("plan needs a profile for one or two gloves")
        require_finite(self)
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.duration_s <= 0:
            raise ConfigError("duration must be positive")
        if self.waveform not in WAVEFORMS:
            raise ConfigError(f"waveform must be one of {WAVEFORMS}, got {self.waveform!r}")


def waveform_envelope(kind: str, lift_period_s: float, t_s: np.ndarray) -> np.ndarray:
    """Unitless 0..1 force envelope over time."""
    if kind == WAVEFORM_HOLD:
        return np.ones_like(t_s)
    # raised cosine per lift: zero at cycle boundaries, peak mid-lift
    return 0.5 * (1.0 - np.cos(2.0 * math.pi * t_s / lift_period_s))


def synthesize_session(
    plan: SessionPlan,
    cal: Calibration | None = None,
    cfg: GloveConfig | None = None,
) -> dict[Side, np.ndarray]:
    """Per-glove (12, n) arrays of forces in newtons, one column per tick.

    Deterministic for a given plan and seed; noise-free when the profile's
    noise_sd_mv is zero.
    """
    cal = cal or Calibration()
    cfg = cfg or GloveConfig()
    # float frame counts, so an overflowing duration reads inf and fails the check below
    sizes = {side: np.rint(plan.duration_s * profile.duration_scale * 1000.0 / cfg.sample_period_ms)
             for side, profile in plan.profiles.items()}
    if min(sizes.values()) <= 0:
        raise ConfigError("plan produces no samples; increase duration")
    # emit_frames stamps frame k rint(k * sample_period_ms); refuse before allocating
    last_ms = np.rint((max(sizes.values()) - 1) * cfg.sample_period_ms)
    if last_ms > _TIMESTAMP_MAX_MS:
        raise ConfigError(f"plan's last timestamp {last_ms:.0f} ms does not fit the timestamp_ms "
                          f"field (at most {_TIMESTAMP_MAX_MS}); shorten the duration")
    out: dict[Side, np.ndarray] = {}
    for glove_index, side in enumerate((Side.LEFT, Side.RIGHT)):
        profile = plan.profiles.get(side)
        if profile is None:
            continue
        n = int(sizes[side])
        t_s = np.arange(n) * (cfg.sample_period_ms / 1000.0)
        envelope = waveform_envelope(plan.waveform, plan.lift_period_s, t_s)
        gain = profile.condition_gain * (profile.hand_gain if side is plan.dominant else 1.0)
        forces = np.asarray(profile.base_force_n)[:, None] * gain * envelope[None, :]
        if profile.noise_sd_mv > 0:
            sd_n = profile.noise_sd_mv * cal.anchor_force_n / cal.anchor_voltage_mv
            children = np.random.SeedSequence([plan.seed, glove_index]).spawn(12)
            for s in range(12):
                forces[s] += np.random.default_rng(children[s]).normal(0.0, sd_n, n)
        np.clip(forces, 0.0, FORCE_CEILING_N, out=forces)
        out[side] = forces
    return out


def emit_frames(
    trajectories: np.ndarray,
    cal: Calibration | None = None,
    cfg: GloveConfig | None = None,
    side: Side = Side.RIGHT,
) -> np.ndarray:
    """Quantize a (12, n) force trajectory into n wire records (FRAME_DTYPE).

    Frame k is stamped k * sample_period with sequence k mod 65536; the
    battery starts at battery_nominal_v and drains BATTERY_DRAIN_MV_PER_S.
    Forces outside the calibrated range raise before anything is emitted.
    """
    cal = cal or Calibration()
    cfg = cfg or GloveConfig()
    battery_start_mv = cfg.battery_nominal_v * 1000.0
    if not 0 < battery_start_mv <= BATTERY_LIMIT_MV:
        raise ConfigError(f"battery_nominal_v {cfg.battery_nominal_v:g} V is outside "
                          f"(0, {BATTERY_LIMIT_MV / 1000:g}] V, the battery field's range")
    traj = np.asarray(trajectories, dtype=float)
    if traj.ndim != 2 or traj.shape[0] != 12:
        raise ConfigError(f"trajectories must be shaped (12, n), got {traj.shape}")
    volts = np.rint(voltage_from_force(traj, cal, cfg)).T
    k = np.arange(len(volts))
    # np.rint rounds half to even, as round() does
    ts = np.rint(k * cfg.sample_period_ms)
    battery = np.maximum(np.rint(battery_start_mv - BATTERY_DRAIN_MV_PER_S * ts / 1000.0), 0)
    return encode_records(side, k & 0xFFFF, ts, battery, volts)


def encode_session(records: np.ndarray) -> bytes:
    """Concatenated wire bytes of emitted records (file capture form)."""
    return records.tobytes()
