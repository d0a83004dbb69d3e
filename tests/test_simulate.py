import math

import numpy as np
import pytest

from gripstream.core import Calibration, GloveConfig, Side
from gripstream.errors import ConfigError
from gripstream.protocol import GLOVE_BYTE
from gripstream.simulate import (
    DOMINANT_HAND_GAIN,
    FORCE_CEILING_N,
    PRESETS,
    ProfilePreset,
    SessionPlan,
    condition_gain,
    contribution_preset,
    emit_frames,
    encode_session,
    get_preset,
    synthesize_session,
    waveform_envelope,
)

CAL = Calibration()
CFG = GloveConfig()


def flat_preset(force: float = 10.0, noise: float = 0.0, **kw) -> ProfilePreset:
    return ProfilePreset("flat", (force,) * 12, noise_sd_mv=noise, **kw)


def test_builtin_presets_present():
    assert {"steady", "precision_lift", "power_grip", "expert", "novice"} <= set(PRESETS)
    with pytest.raises(ConfigError):
        get_preset("warp_drive")


def test_preset_validation():
    with pytest.raises(ConfigError):
        ProfilePreset("short", (1.0,) * 11)
    with pytest.raises(ConfigError, match="^gains must be non-negative$"):
        ProfilePreset("weak", (1.0,) * 12, condition_gain=-0.5)
    with pytest.raises(ConfigError, match="^scale factor must be non-negative$"):
        flat_preset().scaled(-1)
    with pytest.raises(ConfigError):
        ProfilePreset("hot", (25.0,) + (1.0,) * 11)
    with pytest.raises(ConfigError):
        ProfilePreset("noise", (1.0,) * 12, noise_sd_mv=-1.0)
    with pytest.raises(ConfigError):
        ProfilePreset("time", (1.0,) * 12, duration_scale=0.0)
    with pytest.raises(ConfigError):
        contribution_preset("odd", {"index": 50.0, "middle": 30.0})  # sums to 80
    with pytest.raises(ConfigError):
        contribution_preset("alien", {"thumb": 100.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["condition_gain", "noise_sd_mv", "duration_scale"])
def test_preset_rejects_non_finite_numbers(name, bad):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        ProfilePreset("odd", (1.0,) * 12, **{name: bad})


def test_preset_scaled_clamps_at_ceiling():
    preset = flat_preset(15.0).scaled(2.0)
    assert set(preset.base_force_n) == {FORCE_CEILING_N}
    assert flat_preset(4.0).scaled(0.5).base_force_n[0] == 2.0


def test_condition_gain_table():
    assert condition_gain("hardrock") == 1.3
    assert condition_gain("soft") == 1.0
    assert condition_gain("anything else") == 1.0


def test_plan_validation():
    profile = flat_preset()
    with pytest.raises(ConfigError):
        SessionPlan({})
    with pytest.raises(ConfigError):
        SessionPlan({Side.LEFT: profile}, duration_s=0)
    with pytest.raises(ConfigError):
        SessionPlan({Side.LEFT: profile}, waveform="sawtooth")
    for seed in (-1, 1.5, "1"):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            SessionPlan({Side.LEFT: profile}, seed=seed)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["duration_s"])
def test_plan_rejects_non_finite_numbers(name, bad):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        SessionPlan({Side.LEFT: flat_preset()}, **{name: bad})


def test_plan_past_the_timestamp_field_is_refused():
    cfg = GloveConfig(sample_period_ms=1e6)  # 1,000 s per frame keeps the arrays small
    fits = SessionPlan({Side.RIGHT: flat_preset()}, duration_s=4295 * 1000.0)
    records = emit_frames(synthesize_session(fits, CAL, cfg)[Side.RIGHT], CAL, cfg)
    assert records["timestamp_ms"][-1] == 4294 * 10**6  # the last that fits in 0xFFFFFFFF
    too_long = SessionPlan({Side.LEFT: flat_preset(), Side.RIGHT: flat_preset()},
                           duration_s=4296 * 1000.0)
    with pytest.raises(ConfigError, match="timestamp 4295000000 ms does not fit"):
        synthesize_session(too_long, CAL, cfg)


def test_synthesis_is_deterministic():
    plan = SessionPlan({Side.LEFT: get_preset("steady")}, duration_s=2.0, seed=99)
    a = synthesize_session(plan, CAL, CFG)[Side.LEFT]
    b = synthesize_session(plan, CAL, CFG)[Side.LEFT]
    assert np.array_equal(a, b)
    c = synthesize_session(
        SessionPlan({Side.LEFT: get_preset("steady")}, duration_s=2.0, seed=100), CAL, CFG
    )[Side.LEFT]
    assert not np.array_equal(a, c)


def test_noise_free_hold_is_exactly_the_base_forces():
    # the glove is not the dominant one, so DOMINANT_HAND_GAIN leaves it alone
    plan = SessionPlan({Side.RIGHT: flat_preset(10.0)}, duration_s=1.0, seed=0,
                       dominant=Side.LEFT)
    traj = synthesize_session(plan, CAL, CFG)[Side.RIGHT]
    assert traj.shape == (12, 50)
    assert np.all(traj == 10.0)


def test_hand_gain_applies_to_dominant_side_only():
    profile = ProfilePreset("g", (2.0,) * 12, noise_sd_mv=0.0)
    plan = SessionPlan(
        {Side.LEFT: profile, Side.RIGHT: profile}, duration_s=1.0, dominant=Side.RIGHT
    )
    out = synthesize_session(plan, CAL, CFG)
    assert np.all(out[Side.RIGHT] == 2.0 * DOMINANT_HAND_GAIN)
    assert np.all(out[Side.LEFT] == 2.0)


def test_lift_waveform_envelope():
    t = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    env = waveform_envelope("lift", 2.0, t)
    assert env == pytest.approx([0.0, 0.5, 1.0, 0.5, 0.0], abs=1e-12)
    assert np.all(waveform_envelope("hold", 2.0, t) == 1.0)


def test_hardrock_dominates_soft_samplewise():
    base = get_preset("precision_lift").with_gains(noise_sd_mv=0.0)
    soft = SessionPlan({Side.RIGHT: base.with_gains(condition=1.0)}, duration_s=3.0,
                       seed=5, waveform="lift")
    hard = SessionPlan({Side.RIGHT: base.with_gains(condition=1.3)}, duration_s=3.0,
                       seed=5, waveform="lift")
    s = synthesize_session(soft, CAL, CFG)[Side.RIGHT]
    h = synthesize_session(hard, CAL, CFG)[Side.RIGHT]
    assert np.all(h >= s)
    assert h.max() > s.max()


def test_expert_novice_preset_structure():
    expert = get_preset("expert").with_gains(noise_sd_mv=0.0)
    novice = get_preset("novice").with_gains(noise_sd_mv=0.0)
    # little finger (S5) vs middle finger (S3) fingertip balance
    assert expert.base_force_n[4] > expert.base_force_n[2]
    assert novice.base_force_n[4] < novice.base_force_n[2]
    plan_e = SessionPlan({Side.RIGHT: expert}, duration_s=10.0)
    plan_n = SessionPlan({Side.RIGHT: novice}, duration_s=10.0)
    n_expert = synthesize_session(plan_e, CAL, CFG)[Side.RIGHT].shape[1]
    n_novice = synthesize_session(plan_n, CAL, CFG)[Side.RIGHT].shape[1]
    assert n_expert == 350 < n_novice == 500


def test_noise_stays_clamped():
    plan = SessionPlan({Side.LEFT: flat_preset(19.5, noise=200.0)}, duration_s=4.0, seed=3)
    traj = synthesize_session(plan, CAL, CFG)[Side.LEFT]
    assert traj.max() <= FORCE_CEILING_N
    assert traj.min() >= 0.0
    assert traj.std() > 0.0


def test_emit_frames_quantization_and_cadence():
    plan = SessionPlan({Side.RIGHT: flat_preset(10.0)}, duration_s=10.0, dominant=Side.LEFT)
    traj = synthesize_session(plan, CAL, CFG)[Side.RIGHT]
    records = emit_frames(traj, CAL, CFG, side=Side.RIGHT)
    assert len(records) == 500
    assert records["seq"][:3].tolist() == [0, 1, 2]
    assert records["timestamp_ms"][-1] == 9980
    assert (records["glove"] == GLOVE_BYTE[Side.RIGHT]).all()
    # constant 10 N sits exactly on the calibration anchor
    assert (records["voltages_mv"] == 1500).all()
    assert records["battery_mv"][0] == 4200
    assert records["battery_mv"][-1] == 4190


@pytest.mark.parametrize("period_ms, battery_v", [
    (2.5, 4.2),  # .5 ties in both the timestamp and the battery
    (16.6667, 3.7),
    (20.0, 4.3),  # starts at the battery limit
    (7.5, 0.05),  # drains to zero
])
def test_emit_frames_columns_match_per_frame_rounding(period_ms, battery_v):
    cfg = GloveConfig(sample_period_ms=period_ms, battery_nominal_v=battery_v)
    records = emit_frames(np.zeros((12, 66_000)), CAL, cfg)
    want = []
    for k in range(66_000):
        ts = round(k * period_ms)
        battery = max(round(battery_v * 1000.0 - ts / 1000.0), 0)
        want.append((k % 65536, ts, battery))
    got = list(zip(records["seq"].tolist(), records["timestamp_ms"].tolist(),
                   records["battery_mv"].tolist()))
    assert got == want
    assert {type(v) for row in got for v in row} == {int}


def test_emit_frames_starts_the_battery_at_its_nominal_voltage():
    records = emit_frames(np.zeros((12, 3)), CAL, GloveConfig(battery_nominal_v=3.7))
    assert records["battery_mv"].tolist() == [3700, 3700, 3700]
    for volts in (0.0, -1.0, 4.31):
        with pytest.raises(ConfigError, match="battery_nominal_v"):
            emit_frames(np.zeros((12, 3)), CAL, GloveConfig(battery_nominal_v=volts))


def test_emit_frames_rejects_bad_shape():
    with pytest.raises(ConfigError):
        emit_frames(np.zeros((11, 4)), CAL, CFG)
