import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gripstream.alerting import (
    AlertEvent,
    AlertPolicy,
    GripMonitor,
    SequencingError,
    force_table,
    format_alert,
    monitor_session,
)
from gripstream.core import (
    Calibration,
    ConfigError,
    ConversionMode,
    DomainError,
    GloveConfig,
    Side,
    force_from_voltage,
)

from helpers import mv_session, reference_alerts


def test_policy_validation():
    policy = AlertPolicy()
    assert policy.threshold_n == 8.0
    assert policy.clear_level_n == 7.5
    assert policy.watches(1) and policy.watches(12)
    scoped = AlertPolicy(sensor_scope={3, 5})
    assert scoped.watches(5) and not scoped.watches(4)
    with pytest.raises(ConfigError):
        AlertPolicy(hysteresis_n=-0.1)
    with pytest.raises(ConfigError):
        AlertPolicy(threshold_n=0.5, hysteresis_n=0.5)
    with pytest.raises(ConfigError):
        AlertPolicy(debounce=0)
    with pytest.raises(ConfigError):
        AlertPolicy(sensor_scope={0, 3})
    with pytest.raises(ConfigError):
        AlertPolicy(sensor_scope=set())


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["threshold_n", "hysteresis_n"])
def test_policy_rejects_non_finite_numbers(name, bad):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        AlertPolicy(**{name: bad})


def _frame(readings: dict[int, int]) -> tuple[int, ...]:
    """A frame's twelve readings: readings[sid] mV at those sensors and 0 mV elsewhere.

    At the default calibration a reading of 150 * f mV is f N, bit for bit
    when 150 * f is whole.
    """
    return tuple(readings.get(sid, 0) for sid in range(1, 13))


def test_forces_at_or_below_threshold_never_alert():
    rng = random.Random(80)
    monitor = GripMonitor(AlertPolicy(threshold_n=8.0))
    assert (monitor.over_mv, monitor.clear_mv) == (1201, 1125)  # over 8 N, under 7.5 N
    for k in range(500):
        frame = tuple(1200 if k % 7 == 0 else rng.randint(0, 1200) for _ in range(12))
        assert monitor.step(20 * k, frame) == []
    assert monitor.alerts == []


def test_debounce_delays_onset_and_keeps_run_peak():
    monitor = GripMonitor(AlertPolicy(threshold_n=8.0, debounce=2, sensor_scope={3}))
    assert monitor.step(1000, _frame({3: 1275})) == []
    opened = monitor.step(1020, _frame({3: 1230, 4: 3000}))  # S4 is not watched
    assert len(opened) == 1
    event = opened[0]
    assert event.sensor == 3 and event.onset_timestamp_ms == 1020
    assert event.peak_force_n == 8.5  # the debounce run counts toward the peak
    assert event.open and monitor.alerts == [event]


def test_single_spikes_between_dips_never_open():
    monitor = GripMonitor(AlertPolicy(debounce=2, sensor_scope={4}))
    for k, mv in enumerate([1275, 300, 1485, 300, 1215, 300] * 5):
        assert monitor.step(20 * k, _frame({4: mv})) == []
    assert monitor.alerts == []


def test_debounce_of_one_fires_immediately():
    monitor = GripMonitor(AlertPolicy(debounce=1, sensor_scope={2}))
    opened = monitor.step(340, _frame({2: 1201}))
    assert len(opened) == 1
    assert opened[0].onset_timestamp_ms == 340


def test_hysteresis_band_cannot_flap():
    monitor = GripMonitor(AlertPolicy(threshold_n=8.0, hysteresis_n=0.5, debounce=1,
                                      sensor_scope={6}))
    (event,) = monitor.step(0, _frame({6: 1350}))
    # rattle inside the band, including exactly the clear level
    for k, mv in enumerate([1140, 1260, 1125, 1185, 1230], start=1):
        assert monitor.step(20 * k, _frame({6: mv})) == []
        assert event.open
    assert len(monitor.alerts) == 1
    monitor.step(200, _frame({6: 1124}))
    assert not event.open
    assert event.cleared_timestamp_ms == 200
    assert not any(alert.open for alert in monitor.alerts)


def test_peak_updates_in_place_while_open():
    monitor = GripMonitor(AlertPolicy(debounce=1, sensor_scope={1}))
    (event,) = monitor.step(0, _frame({1: 1275}))
    assert monitor.step(20, _frame({1: 1680})) == []
    assert event.peak_force_n == 11.2
    monitor.step(40, _frame({1: 1050}))  # clears
    monitor.step(60, _frame({1: 1080}))
    assert event.peak_force_n == 11.2  # frozen after the clear


def test_reopening_is_a_new_episode():
    monitor = GripMonitor(AlertPolicy(threshold_n=8.0, hysteresis_n=0.5, debounce=2,
                                      sensor_scope={9}))
    readings = [1275, 1275, 1350, 1050, 450, 1230, 1245]
    opened = []
    for k, mv in enumerate(readings):
        opened += monitor.step(20 * k, _frame({9: mv}))
    assert len(monitor.alerts) == 2
    first, second = monitor.alerts
    assert opened == monitor.alerts
    assert first.cleared_timestamp_ms == 60
    assert first.peak_force_n == 9.0
    assert second.onset_timestamp_ms == 120
    assert second.open


def test_frames_must_advance():
    monitor = GripMonitor(AlertPolicy(sensor_scope={3}))
    monitor.step(100, _frame({3: 150}))
    with pytest.raises(SequencingError):
        monitor.step(100, _frame({3: 150}))
    with pytest.raises(SequencingError):
        monitor.step(80, _frame({3: 150}))
    monitor.step(120, _frame({3: 150}))


def test_scope_limits_watching():
    monitor = GripMonitor(AlertPolicy(debounce=1, sensor_scope={5, 7}))
    assert monitor.watched == (5, 7)
    (event,) = monitor.step(0, _frame({5: 2850, 7: 150, 6: 3000}))
    assert event.sensor == 5
    # a frame's twelve readings: the two watched ones alone are refused, not taken as the frame
    with pytest.raises(ValueError):
        monitor.step(20, (2850, 150))
    assert GripMonitor().watched == tuple(range(1, 13))


@pytest.mark.parametrize("supply_v, mode", [(2.5, ConversionMode.LINEAR),
                                            (2.5005, ConversionMode.RATIONAL)])
def test_a_watched_reading_at_or_above_the_supply_is_refused(supply_v, mode):
    cfg = GloveConfig(supply_voltage_v=supply_v, conversion_mode=mode)
    top = math.ceil(cfg.supply_mv)  # the first whole millivolt at or above the supply
    monitor = GripMonitor(AlertPolicy(debounce=1, sensor_scope={2, 12}), cal=Calibration(),
                          cfg=cfg)
    monitor.step(0, _frame({2: 600, 1: top}))  # S1 is not watched
    with pytest.raises(DomainError, match=f"^voltage {top} mV outside "):
        monitor.step(20, _frame({2: 600, 12: top}))


def test_format_alert_line():
    event = AlertEvent(glove=Side.LEFT, sensor=3, onset_timestamp_ms=1020,
                       peak_force_n=9.1)
    assert format_alert(event) == "ALERT glove=L sensor=S3 onset=1020 peak=9.10"
    event = AlertEvent(glove=Side.RIGHT, sensor=12, onset_timestamp_ms=40,
                       peak_force_n=12.0)
    assert format_alert(event) == "ALERT glove=R sensor=S12 onset=40 peak=12.00"


def test_monitor_session_ramp_flags_within_two_samples():
    # force ramps as (t + 10) / 125 N, crossing 8 N just after t = 990 ms
    mvs = [int(1.2 * t + 12) for t in range(0, 2000, 20)]
    session = mv_session({7: mvs}, side=Side.LEFT)
    alerts = monitor_session(session, AlertPolicy(threshold_n=8.0, debounce=2))
    assert len(alerts) == 1
    event = alerts[0]
    assert event.glove is Side.LEFT and event.sensor == 7
    assert event.onset_timestamp_ms == 1020
    assert event.onset_timestamp_ms <= 1040  # within two sample periods of the cross
    assert event.open  # the ramp never comes back down
    assert event.peak_force_n == pytest.approx(mvs[-1] / 150)


@pytest.mark.parametrize("mode", list(ConversionMode))
@pytest.mark.parametrize("supply_v, length", [(3.3, 3300), (2.5, 2500), (2.5005, 2501),
                                              (5.0, 5000)])
def test_force_table_is_the_scalar_conversion_of_every_frame_voltage(mode, supply_v, length):
    cal, cfg = Calibration(), GloveConfig(supply_voltage_v=supply_v, conversion_mode=mode)
    table = force_table(cal, cfg)
    assert len(table) == length  # every whole mV below the supply
    scalar = [float(force_from_voltage(v, cal, cfg)) for v in range(length)]
    assert [force.hex() for force in table] == [force.hex() for force in scalar]  # bit-equal
    assert table == sorted(table)  # so two millivolt levels judge a reading against a policy
    with pytest.raises(DomainError):
        force_from_voltage(length, cal, cfg)


_CAL = Calibration()


@st.composite
def _policies(draw):
    """A glove config of either ConversionMode and a supply of 2.5-5 V, and an alert
    policy; returns them with the readings the config allows and the millivolts at
    the policy's two edges, one each side of over_mv and of clear_mv included."""
    cfg = GloveConfig(supply_voltage_v=draw(st.sampled_from([3.3, 2.5, 2.5005, 5.0])),
                      conversion_mode=draw(st.sampled_from(ConversionMode)))
    scope = draw(st.none() | st.frozensets(st.integers(1, 12), min_size=1))
    policy = AlertPolicy(threshold_n=draw(st.sampled_from([2.0, 8.0, 12.0])),
                         hysteresis_n=draw(st.sampled_from([0.0, 0.5, 1.0])),
                         debounce=draw(st.integers(1, 5)), sensor_scope=scope)
    monitor = GripMonitor(policy, cal=_CAL, cfg=cfg)
    top = math.ceil(cfg.supply_mv)  # readings are 0..top - 1
    edges = [mv for level in (monitor.over_mv, monitor.clear_mv)
             for mv in (level - 1, level, level + 1) if 0 <= mv < top]
    return cfg, policy, top, edges


@st.composite
def _alerting_cases(draw):
    cfg, policy, top, edges = draw(_policies())
    volts = draw(arrays(np.uint16, (draw(st.integers(0, 40)), 12),
                        elements=st.sampled_from(edges) | st.integers(0, top - 1)))
    return cfg, policy, volts


def _stepped(monitor: GripMonitor, timestamps, frames) -> list[float]:
    """Step monitor over the frames as serve does; returns each alert's peak when it opened."""
    onset_peaks = []
    for ts, frame in zip(timestamps, frames):
        onset_peaks += [alert.peak_force_n for alert in monitor.step(ts, tuple(frame))]
    return onset_peaks


@settings(max_examples=300, deadline=None)
@given(_alerting_cases())
def test_monitor_session_matches_manual_stepping(case):
    cfg, policy, volts = case
    session = mv_session({sid: volts[:, sid - 1] for sid in range(1, 13)})
    timestamps = session.timestamps_ms.tolist()
    manual = GripMonitor(policy, glove=Side.RIGHT, cal=_CAL, cfg=cfg)
    onset_peaks = _stepped(manual, timestamps, volts.tolist())
    # the reference converts every sample to force with the scalar call
    forces = {sid: [force_from_voltage(v, _CAL, cfg) for v in volts[:, sid - 1].tolist()]
              for sid in range(1, 13)}
    expected = reference_alerts(timestamps, forces, policy)
    assert manual.alerts == [alert for alert, _ in expected]
    assert onset_peaks == [peak for _, peak in expected]  # what serve prints
    assert monitor_session(session, policy, _CAL, cfg) == manual.alerts


@st.composite
def _hovering_readings(draw):
    """A config, a policy and frames whose readings hover at its millivolt edges, with
    runs of frames whose every watched reading is under over_mv between them."""
    cfg, policy, top, edges = draw(_policies())
    over_mv = GripMonitor(policy, cal=_CAL, cfg=cfg).over_mv
    busy = st.lists(st.sampled_from(edges + [0, top - 1]), min_size=12, max_size=12)
    quiet = st.lists(st.sampled_from([mv for mv in edges + [0] if mv < over_mv]),
                     min_size=12, max_size=12)
    return cfg, policy, draw(st.lists(busy | quiet, max_size=60))


@settings(max_examples=300, deadline=None)
@given(_hovering_readings())
def test_stepping_matches_the_reference_around_the_threshold(case):
    cfg, policy, frames = case
    timestamps = [20 * k for k in range(len(frames))]
    monitor = GripMonitor(policy, glove=Side.RIGHT, cal=_CAL, cfg=cfg)
    onset_peaks = _stepped(monitor, timestamps, frames)
    forces = {sid: [force_from_voltage(frame[sid - 1], _CAL, cfg) for frame in frames]
              for sid in range(1, 13)}
    expected = reference_alerts(timestamps, forces, policy)
    assert monitor.alerts == [alert for alert, _ in expected]
    assert onset_peaks == [peak for _, peak in expected]


def test_a_quiet_frame_still_checks_its_time_and_length():
    monitor = GripMonitor(AlertPolicy(threshold_n=8.0, debounce=1, sensor_scope={2, 3}))
    clock = iter(range(0, 10_000, 20))
    low = _frame({2: 150, 3: 150})
    for _ in range(2):  # before any alert, then after one has cleared
        t = next(clock)
        monitor.step(t, low)
        with pytest.raises(SequencingError):
            monitor.step(t, low)
        with pytest.raises(SequencingError):
            monitor.step(t - 1, low)
        for wrong in (low[:2], low[:11], low + (150,), ()):
            with pytest.raises(ValueError):
                monitor.step(next(clock), wrong)
        (alert,) = monitor.step(next(clock), _frame({2: 1350, 3: 150}))
        t = next(clock)
        monitor.step(t, low)
        assert alert.cleared_timestamp_ms == t
    assert len(monitor.alerts) == 2
