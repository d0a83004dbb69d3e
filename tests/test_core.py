import math
import random

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gripstream.core import (
    Calibration,
    ConversionMode,
    GloveConfig,
    SensorLocus,
    SensorSpec,
    config_from_mapping,
    divider_voltage,
    force_from_voltage,
    format_config,
    load_config,
    parse_kv_text,
    rational_gain,
    resistance_from_voltage,
    save_config,
    standard_layout,
    voltage_from_force,
)
from gripstream.errors import ConfigError, DomainError

CFG = GloveConfig()
CAL = Calibration()
RATIONAL_CFG = GloveConfig(conversion_mode=ConversionMode.RATIONAL)


def test_divider_endpoints():
    # 250 ohm (full 20 N load) sits just under the 3.3 V rail
    assert divider_voltage(250.0, CFG) == pytest.approx(3.2195121951219514, abs=1e-12)
    # 10 Mohm (unloaded) leaves only a few millivolts on the divider
    v_unloaded = divider_voltage(10_000_000.0, CFG)
    assert v_unloaded == pytest.approx(0.0032967032967032967, abs=1e-12)
    assert v_unloaded < 0.004


def test_divider_monotone_and_bounded():
    rng = random.Random(11)
    for _ in range(300):
        r1 = rng.uniform(1.0, 2e7)
        r2 = r1 * rng.uniform(1.01, 10.0)
        v1, v2 = divider_voltage(r1, CFG), divider_voltage(r2, CFG)
        assert 0.0 < v2 < v1 < CFG.supply_voltage_v


def test_divider_rejects_nonpositive_resistance():
    for bad in (0.0, -250.0):
        with pytest.raises(DomainError):
            divider_voltage(bad, CFG)


def test_resistance_from_voltage_anchor_value():
    # 1.5 V across the 10k pull-down leaves 1.8 V over the FSR -> 12 kohm
    assert resistance_from_voltage(1.5, CFG) == pytest.approx(12_000.0, rel=1e-12)


def test_resistance_voltage_inverses():
    rng = random.Random(12)
    for _ in range(500):
        r = 10 ** rng.uniform(1.0, 7.3)
        assert resistance_from_voltage(divider_voltage(r, CFG), CFG) == pytest.approx(r, rel=1e-9)
        v = rng.uniform(1e-3, 3.299)
        assert divider_voltage(resistance_from_voltage(v, CFG), CFG) == pytest.approx(v, rel=1e-9)


def test_resistance_rejects_rail_and_outside():
    for bad in (0.0, 3.3, -0.1, 5.0):
        with pytest.raises(DomainError):
            resistance_from_voltage(bad, CFG)


def test_linear_conversion_hits_anchor():
    assert force_from_voltage(1500.0, CAL, CFG) == pytest.approx(10.0, rel=1e-12)
    assert force_from_voltage(0.0, CAL, CFG) == 0.0
    for mv, expected in ((0.0, 0.0), (750.0, 5.0), (1500.0, 10.0)):
        assert force_from_voltage(mv, CAL, CFG) == pytest.approx(expected, rel=1e-12)
    assert voltage_from_force(10.0, CAL, CFG) == pytest.approx(1500.0, rel=1e-12)


def test_rational_conversion_values():
    assert rational_gain(CAL, RATIONAL_CFG) == pytest.approx(12.0, rel=1e-12)
    # anchor is exact in both modes
    assert force_from_voltage(1500.0, CAL, RATIONAL_CFG) == pytest.approx(10.0, rel=1e-12)
    assert force_from_voltage(750.0, CAL, RATIONAL_CFG) == pytest.approx(
        3.529411764705882, rel=1e-12
    )
    assert voltage_from_force(20.0, CAL, RATIONAL_CFG) == pytest.approx(2062.5, rel=1e-12)
    # rational map grows faster than linear above the anchor
    assert force_from_voltage(2000.0, CAL, RATIONAL_CFG) > force_from_voltage(2000.0, CAL, CFG)


@pytest.mark.parametrize("cfg", [CFG, RATIONAL_CFG], ids=["linear", "rational"])
def test_force_voltage_inverses(cfg):
    rng = random.Random(13)
    for _ in range(400):
        f = rng.uniform(0.0, CAL.max_force_n)
        assert force_from_voltage(voltage_from_force(f, CAL, cfg), CAL, cfg) == pytest.approx(
            f, rel=1e-9, abs=1e-12
        )
        v = rng.uniform(0.0, voltage_from_force(CAL.max_force_n, CAL, cfg))
        assert voltage_from_force(force_from_voltage(v, CAL, cfg), CAL, cfg) == pytest.approx(
            v, rel=1e-9, abs=1e-12
        )


def test_conversion_domain_errors():
    with pytest.raises(DomainError):
        force_from_voltage(-1.0, CAL, CFG)
    with pytest.raises(DomainError):
        force_from_voltage(3300.0, CAL, CFG)
    with pytest.raises(DomainError):
        voltage_from_force(-0.5, CAL, CFG)
    with pytest.raises(DomainError):
        voltage_from_force(20.0001, CAL, CFG)


@pytest.mark.parametrize("cfg", [CFG, RATIONAL_CFG], ids=["linear", "rational"])
def test_array_conversion_equals_elementwise(cfg):
    rng = random.Random(14)
    volts = [0.0, 1500.0] + [rng.uniform(0.0, 3299.9) for _ in range(98)]
    forces = force_from_voltage(volts, CAL, cfg)
    assert forces.tolist() == [force_from_voltage(v, CAL, cfg) for v in volts]
    grid = np.array([rng.uniform(0.0, CAL.max_force_n) for _ in range(36)]).reshape(12, 3)
    back = voltage_from_force(grid, CAL, cfg)
    assert back.shape == (12, 3)
    assert back.ravel().tolist() == [voltage_from_force(f, CAL, cfg) for f in grid.ravel()]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_conversion_rejects_non_finite(bad):
    for convert in (force_from_voltage, voltage_from_force):
        with pytest.raises(DomainError):
            convert(bad, CAL, CFG)
        with pytest.raises(DomainError, match="sample index 1"):
            convert([1.0, bad, 2.0], CAL, CFG)


def test_calibration_validation():
    with pytest.raises(ConfigError):
        Calibration(anchor_voltage_mv=0.0)
    with pytest.raises(ConfigError):
        Calibration(anchor_force_n=-1.0)
    assert Calibration().max_force_n == 20.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("cls, name", [
    (GloveConfig, "supply_voltage_v"),
    (GloveConfig, "pulldown_ohm"),
    (GloveConfig, "sample_period_ms"),
    (GloveConfig, "battery_nominal_v"),
    (Calibration, "anchor_voltage_mv"),
    (Calibration, "anchor_force_n"),
])
def test_config_rejects_non_finite_numbers(cls, name, bad):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        cls(**{name: bad})


def test_standard_layout_census():
    layout = standard_layout()
    assert [s.sid for s in layout] == list(range(1, 13))
    assert [(s.locus, s.diameter_mm) for s in layout] == [
        (SensorLocus.FINGERTIP_THUMB, 10),
        (SensorLocus.FINGERTIP_INDEX, 10),
        (SensorLocus.FINGERTIP_MIDDLE, 10),
        (SensorLocus.FINGERTIP_RING, 10),
        (SensorLocus.FINGERTIP_LITTLE, 10),
        (SensorLocus.PHALANX_INDEX, 5),
        (SensorLocus.PHALANX_MIDDLE, 5),
        (SensorLocus.PHALANX_RING, 5),
        (SensorLocus.PHALANX_LITTLE, 5),
        (SensorLocus.THENAR, 10),
        (SensorLocus.HYPOTHENAR, 10),
        (SensorLocus.MID_PALM, 10),
    ]
    assert layout[4].label == "S5"


def test_sensor_spec_diameter_must_match_locus():
    with pytest.raises(ConfigError):
        SensorSpec(2, SensorLocus.FINGERTIP_INDEX, 5)
    with pytest.raises(ConfigError):
        SensorSpec(6, SensorLocus.PHALANX_INDEX, 10)
    with pytest.raises(ConfigError):
        SensorSpec(13, SensorLocus.THENAR, 10)


def test_glove_config_checks_layout():
    layout = standard_layout()
    with pytest.raises(ConfigError):
        GloveConfig(sensor_layout=layout[:11])
    dup = layout[:11] + (SensorSpec(1, SensorLocus.MID_PALM, 10),)
    with pytest.raises(ConfigError):
        GloveConfig(sensor_layout=dup)
    with pytest.raises(ConfigError):
        GloveConfig(sample_period_ms=0.0)


def test_cadence_and_rails():
    assert CFG.sample_period_ms == 20.0
    assert CFG.supply_mv == pytest.approx(3300.0)
    assert CFG.sensor_layout[3].locus is SensorLocus.FINGERTIP_RING
    assert [s.sid for s in CFG.sensors_at(SensorLocus.THENAR)] == [10]


def test_config_file_round_trip(tmp_path):
    cfg = GloveConfig(
        supply_voltage_v=3.0,
        pulldown_ohm=8200.0,
        sample_period_ms=10.0,
        battery_nominal_v=3.7,
        conversion_mode=ConversionMode.RATIONAL,
    )
    cal = Calibration(anchor_voltage_mv=1400.0, anchor_force_n=9.0)
    path = tmp_path / "glove.cfg"
    save_config(path, cfg, cal)
    cfg2, cal2 = load_config(path)
    assert cfg2 == cfg
    assert cal2 == cal


_SETTINGS = st.floats(min_value=5e-324, allow_infinity=False) | st.integers(1, 2**53)


@given(st.tuples(*[_SETTINGS] * 6), st.sampled_from(ConversionMode))
def test_every_config_format_config_writes_loads_back(values, mode):
    supply, pulldown, period, battery, anchor_mv, anchor_n = values
    try:
        cfg = GloveConfig(supply_voltage_v=supply, pulldown_ohm=pulldown, sample_period_ms=period,
                          battery_nominal_v=battery, conversion_mode=mode)
        cal = Calibration(anchor_voltage_mv=anchor_mv, anchor_force_n=anchor_n)
    except ConfigError:
        assume(False)
    assume(cal.anchor_voltage_mv < cfg.supply_mv)
    assert config_from_mapping(parse_kv_text(format_config(cfg, cal))) == (cfg, cal)


_SENSOR_LINES = """\
sensor_S1 = fingertip_thumb:10
sensor_S2 = fingertip_index:10
sensor_S3 = fingertip_middle:10
sensor_S4 = fingertip_ring:10
sensor_S5 = fingertip_little:10
sensor_S6 = phalanx_index:5
sensor_S7 = phalanx_middle:5
sensor_S8 = phalanx_ring:5
sensor_S9 = phalanx_little:5
sensor_S10 = thenar:10
sensor_S11 = hypothenar:10
sensor_S12 = mid_palm:10
"""


@pytest.mark.parametrize("cfg, cal, head", [
    (GloveConfig(), Calibration(), """\
# gripstream glove configuration
supply_voltage_v = 3.3
pulldown_ohm = 10000.0
sample_period_ms = 20.0
battery_nominal_v = 4.2
conversion_mode = linear
anchor_voltage_mv = 1500.0
anchor_force_n = 10.0
"""),
    (GloveConfig(supply_voltage_v=3.0, pulldown_ohm=8200.0, sample_period_ms=10.0,
                 battery_nominal_v=3.7, conversion_mode=ConversionMode.RATIONAL),
     Calibration(anchor_voltage_mv=1400.0, anchor_force_n=9.0), """\
# gripstream glove configuration
supply_voltage_v = 3.0
pulldown_ohm = 8200.0
sample_period_ms = 10.0
battery_nominal_v = 3.7
conversion_mode = rational
anchor_voltage_mv = 1400.0
anchor_force_n = 9.0
"""),
], ids=["default", "non-default"])
def test_format_config_text(cfg, cal, head):
    assert format_config(cfg, cal) == head + _SENSOR_LINES


def test_parse_kv_text():
    kv = parse_kv_text("a = 1\n# comment\n\nb = two words  # trailing\n")
    assert kv == {"a": "1", "b": "two words"}
    with pytest.raises(ConfigError):
        parse_kv_text("not a pair\n")


@pytest.mark.parametrize("line", ["sample_perod_ms = 10", "battery_v = 3.7", "sensor = S1"])
def test_load_config_refuses_a_key_it_does_not_read(tmp_path, line):
    path = tmp_path / "glove.cfg"
    path.write_text(f"supply_voltage_v = 3.3\n{line}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"unknown config key '{line.split()[0]}'"):
        load_config(path)


@pytest.mark.parametrize("line, message", [
    ("x" * 100_000, "line 1: expected 'key = value', got 'xxx"),
    ("y" * 100_000 + " = 1", "unknown config key 'yyy"),
    ("supply_voltage_v = " + "9" * 99_999 + "z", "supply_voltage_v: not a number: '999"),
    ("conversion_mode = " + "x" * 100_000, "unknown conversion_mode 'xxx"),
    ("sensor_S1 = " + "x" * 100_000, "sensor_S1: expected '<locus>:<diameter_mm>', got 'xxx"),
    ("sensor_S1 = " + "x" * 100_000 + ":", "sensor_S1: unknown locus 'xxx"),
    ("sensor_S1 = fingertip_thumb:" + "x" * 100_000, "sensor_S1: bad diameter 'xxx"),
], ids=["line", "key", "number", "mode", "sensor", "locus", "diameter"])
def test_config_errors_quote_at_most_80_characters(tmp_path, line, message):
    path = tmp_path / "glove.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as caught:
        load_config(path)
    text = str(caught.value)
    assert text.startswith(message) and len(text) < 1024
    assert "…' (100000 characters)" in text


def test_load_config_rejects_unknown_mode(tmp_path):
    path = tmp_path / "glove.cfg"
    path.write_text("conversion_mode = parabolic\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)
