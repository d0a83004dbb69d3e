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


def test_forces_at_or_below_threshold_never_alert():
    rng = random.Random(80)
    monitor = GripMonitor(AlertPolicy(threshold_n=8.0))
    for k in range(500):
        forces = [8.0 if k % 7 == 0 else rng.uniform(0.0, 8.0) for _ in monitor.watched]
        assert monitor.step(20 * k, forces) == []
    assert monitor.alerts == []


def test_debounce_delays_onset_and_keeps_run_peak():
    monitor = GripMonitor(AlertPolicy(threshold_n=8.0, debounce=2, sensor_scope={3}))
    assert monitor.step(1000, [8.5]) == []
    opened = monitor.step(1020, [8.2])
    assert len(opened) == 1
    event = opened[0]
    assert event.sensor == 3 and event.onset_timestamp_ms == 1020
    assert event.peak_force_n == 8.5  # the debounce run counts toward the peak
    assert event.open and monitor.alerts == [event]


def test_single_spikes_between_dips_never_open():
    monitor = GripMonitor(AlertPolicy(debounce=2, sensor_scope={4}))
    for k, force in enumerate([8.5, 2.0, 9.9, 2.0, 8.1, 2.0] * 5):
        assert monitor.step(20 * k, [force]) == []
    assert monitor.alerts == []


def test_debounce_of_one_fires_immediately():
    monitor = GripMonitor(AlertPolicy(debounce=1, sensor_scope={2}))
    opened = monitor.step(340, [8.01])
    assert len(opened) == 1
    assert opened[0].onset_timestamp_ms == 340


def test_hysteresis_band_cannot_flap():
    monitor = GripMonitor(AlertPolicy(threshold_n=8.0, hysteresis_n=0.5, debounce=1,
                                      sensor_scope={6}))
    (event,) = monitor.step(0, [9.0])
    # rattle inside the band, including exactly the clear level
    for k, force in enumerate([7.6, 8.4, 7.5, 7.9, 8.2], start=1):
        assert monitor.step(20 * k, [force]) == []
        assert event.open
    assert len(monitor.alerts) == 1
    monitor.step(200, [7.49])
    assert not event.open
    assert event.cleared_timestamp_ms == 200
    assert not any(alert.open for alert in monitor.alerts)


def test_peak_updates_in_place_while_open():
    monitor = GripMonitor(AlertPolicy(debounce=1, sensor_scope={1}))
    (event,) = monitor.step(0, [8.5])
    assert monitor.step(20, [11.25]) == []
    assert event.peak_force_n == 11.25
    monitor.step(40, [7.0])  # clears
    monitor.step(60, [7.2])
    assert event.peak_force_n == 11.25  # frozen after the clear


def test_reopening_is_a_new_episode():
    monitor = GripMonitor(AlertPolicy(threshold_n=8.0, hysteresis_n=0.5, debounce=2,
                                      sensor_scope={9}))
    forces = [8.5, 8.5, 9.0, 7.0, 3.0, 8.2, 8.3]
    opened = []
    for k, force in enumerate(forces):
        opened += monitor.step(20 * k, [force])
    assert len(monitor.alerts) == 2
    first, second = monitor.alerts
    assert opened == monitor.alerts
    assert first.cleared_timestamp_ms == 60
    assert first.peak_force_n == 9.0
    assert second.onset_timestamp_ms == 120
    assert second.open


def test_frames_must_advance():
    monitor = GripMonitor(AlertPolicy(sensor_scope={3}))
    monitor.step(100, [1.0])
    with pytest.raises(SequencingError):
        monitor.step(100, [1.0])
    with pytest.raises(SequencingError):
        monitor.step(80, [1.0])
    monitor.step(120, [1.0])


def test_scope_limits_watching():
    monitor = GripMonitor(AlertPolicy(debounce=1, sensor_scope={5, 7}))
    assert monitor.watched == (5, 7)
    (event,) = monitor.step(0, [19.0, 1.0])
    assert event.sensor == 5
    # one force per watched sensor: a frame of all twelve is refused, not cut short
    with pytest.raises(ValueError):
        monitor.step(20, [19.0] * 12)
    assert GripMonitor().watched == tuple(range(1, 13))


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
                                              (5.0, 3300)])
def test_force_table_is_the_scalar_conversion_of_every_frame_voltage(mode, supply_v, length):
    cal, cfg = Calibration(), GloveConfig(supply_voltage_v=supply_v, conversion_mode=mode)
    table = force_table(cal, cfg)
    assert len(table) == length  # every whole mV below the supply, up to VOLTAGE_LIMIT_MV
    scalar = [float(force_from_voltage(v, cal, cfg)) for v in range(length)]
    assert [force.hex() for force in table] == [force.hex() for force in scalar]  # bit-equal
    if length < 3300:
        with pytest.raises(DomainError):
            force_from_voltage(length, cal, cfg)


_CAL, _CFG = Calibration(), GloveConfig()


@st.composite
def _alerting_cases(draw):
    # thresholds and clear levels whose newtons convert exactly from whole
    # millivolts (150 mV per N), so samples land exactly on both edges
    threshold = draw(st.sampled_from([2.0, 8.0, 12.0]))
    hysteresis = draw(st.sampled_from([0.0, 0.5, 1.0]))
    edges = [round(level * 150) + d for level in (threshold, threshold - hysteresis)
             for d in (-1, 0, 1)]
    volts = draw(arrays(np.uint16, (draw(st.integers(0, 40)), 12),
                        elements=st.sampled_from(edges) | st.integers(0, 3299)))
    scope = draw(st.none() | st.frozensets(st.integers(1, 12), min_size=1))
    policy = AlertPolicy(threshold_n=threshold, hysteresis_n=hysteresis,
                         debounce=draw(st.integers(1, 5)), sensor_scope=scope)
    return volts, policy


@settings(max_examples=300, deadline=None)
@given(_alerting_cases())
def test_monitor_session_matches_manual_stepping(case):
    volts, policy = case
    session = mv_session({sid: volts[:, sid - 1] for sid in range(1, 13)})
    timestamps = session.timestamps_ms.tolist()
    # serve's path: one scalar conversion per sample, one step per frame
    forces = {sid: [force_from_voltage(v, _CAL, _CFG) for v in volts[:, sid - 1].tolist()]
              for sid in range(1, 13)}
    manual = GripMonitor(policy, glove=Side.RIGHT)
    onset_peaks = []
    for k, ts in enumerate(timestamps):
        opened = manual.step(ts, [forces[sid][k] for sid in manual.watched])
        onset_peaks += [alert.peak_force_n for alert in opened]
    expected = reference_alerts(timestamps, forces, policy)
    assert manual.alerts == [alert for alert, _ in expected]
    assert onset_peaks == [peak for _, peak in expected]  # what serve prints
    assert monitor_session(session, policy) == manual.alerts


@st.composite
def _hovering_forces(draw):
    """A policy and forces that hover around its threshold and clear level, with runs of
    frames whose every force is at or below the threshold between them."""
    threshold = draw(st.sampled_from([2.0, 8.0, 12.0]))
    hysteresis = draw(st.sampled_from([0.0, 0.5, 1.0]))
    scope = draw(st.none() | st.frozensets(st.integers(1, 12), min_size=1))
    policy = AlertPolicy(threshold_n=threshold, hysteresis_n=hysteresis,
                         debounce=draw(st.integers(1, 4)), sensor_scope=scope)
    clear = policy.clear_level_n
    levels = [math.nextafter(level, toward) for level in (threshold, clear)
              for toward in (-math.inf, math.inf)] + [threshold, clear, 0.0, threshold + 5.0]
    busy = st.lists(st.sampled_from(levels), min_size=12, max_size=12)
    quiet = st.lists(st.sampled_from([level for level in levels if level <= threshold]),
                     min_size=12, max_size=12)
    frames = draw(st.lists(busy | quiet, max_size=60))
    return policy, {sid: [frame[sid - 1] for frame in frames] for sid in range(1, 13)}


@settings(max_examples=300, deadline=None)
@given(_hovering_forces())
def test_stepping_matches_the_reference_around_the_threshold(case):
    policy, forces = case
    timestamps = [20 * k for k in range(len(forces[1]))]
    monitor = GripMonitor(policy, glove=Side.RIGHT)
    onset_peaks = []
    for k, ts in enumerate(timestamps):
        opened = monitor.step(ts, [forces[sid][k] for sid in monitor.watched])
        onset_peaks += [alert.peak_force_n for alert in opened]
    expected = reference_alerts(timestamps, forces, policy)
    assert monitor.alerts == [alert for alert, _ in expected]
    assert onset_peaks == [peak for _, peak in expected]


def test_a_quiet_frame_still_checks_its_time_and_length():
    monitor = GripMonitor(AlertPolicy(threshold_n=8.0, debounce=1, sensor_scope={2, 3}))
    clock = iter(range(0, 10_000, 20))
    for _ in range(2):  # before any alert, then after one has cleared
        t = next(clock)
        monitor.step(t, [1.0, 1.0])
        with pytest.raises(SequencingError):
            monitor.step(t, [1.0, 1.0])
        with pytest.raises(SequencingError):
            monitor.step(t - 1, [1.0, 1.0])
        for wrong in ([1.0], [1.0, 1.0, 1.0], []):
            with pytest.raises(ValueError):
                monitor.step(next(clock), wrong)
        (alert,) = monitor.step(next(clock), [9.0, 1.0])
        t = next(clock)
        monitor.step(t, [1.0, 1.0])
        assert alert.cleared_timestamp_ms == t
    assert len(monitor.alerts) == 2
