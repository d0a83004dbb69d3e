"""Real-time over-force alerting with debounce and hysteresis.

A GripMonitor watches converted forces frame by frame: each step takes one
timestamp and the force at every watched sensor. An alert opens once
`debounce` consecutive samples of a sensor exceed the threshold (so a single
noisy spike stays quiet) and closes only when force drops below threshold
minus hysteresis (so values rattling around the threshold cannot flap). At
most one alert is open per sensor at a time.

AlertEvent objects are handed out the moment an alert opens and are updated
in place as the episode evolves: peak_force_n grows while the alert is open
and cleared_timestamp_ms is filled in on release. Holding the returned
event therefore always shows the current state of that episode.

monitor_session finds the same episodes in a recorded session by searching
each watched sensor's force column, without stepping a monitor.
"""

import math
from dataclasses import dataclass

import numpy as np

from gripstream.core import Calibration, GloveConfig, Side, force_from_voltage, require_finite
from gripstream.errors import ConfigError, GripstreamError
from gripstream.ingest import SENSOR_IDS, Session
from gripstream.protocol import VOLTAGE_LIMIT_MV


class SequencingError(GripstreamError):
    """A frame arrived out of time order."""


@dataclass(frozen=True)
class AlertPolicy:
    threshold_n: float = 8.0
    hysteresis_n: float = 0.5
    debounce: int = 2
    sensor_scope: frozenset[int] | None = None

    def __post_init__(self):
        require_finite(self)
        if self.hysteresis_n < 0:
            raise ConfigError("hysteresis must be >= 0")
        if self.threshold_n <= self.hysteresis_n:
            raise ConfigError(
                f"threshold ({self.threshold_n} N) must exceed hysteresis ({self.hysteresis_n} N)"
            )
        if self.debounce < 1:
            raise ConfigError("debounce must be >= 1")
        if self.sensor_scope is not None:
            scope = frozenset(int(s) for s in self.sensor_scope)
            bad = [s for s in scope if s not in SENSOR_IDS]
            if bad:
                raise ConfigError(f"sensor scope has unknown ids {sorted(bad)}")
            if not scope:
                raise ConfigError("sensor scope must be None or non-empty")
            object.__setattr__(self, "sensor_scope", scope)

    def watches(self, sensor: int) -> bool:
        return self.sensor_scope is None or sensor in self.sensor_scope

    @property
    def watched(self) -> tuple[int, ...]:
        """The sensors this policy watches, in SENSOR_IDS order."""
        return tuple(sid for sid in SENSOR_IDS if self.watches(sid))

    @property
    def clear_level_n(self) -> float:
        return self.threshold_n - self.hysteresis_n


@dataclass
class AlertEvent:
    glove: Side
    sensor: int
    onset_timestamp_ms: int
    peak_force_n: float
    cleared_timestamp_ms: int | None = None

    @property
    def open(self) -> bool:
        return self.cleared_timestamp_ms is None


def format_alert(event: AlertEvent) -> str:
    """The alert's log line, with its peak_force_n at the time of the call.

    serve formats an alert the moment it opens, so its peak is the top of
    the debounce window; monitor formats finished episodes, so its peak is
    the whole episode's.
    """
    return (
        f"ALERT glove={event.glove.value} sensor=S{event.sensor} "
        f"onset={event.onset_timestamp_ms} peak={event.peak_force_n:.2f}"
    )


@dataclass
class _SensorState:
    run_count: int = 0
    run_peak: float = 0.0
    active: AlertEvent | None = None


class GripMonitor:
    """Per-glove alert state machine; feed frames in time order."""

    def __init__(self, policy: AlertPolicy | None = None, glove: Side = Side.RIGHT):
        self.policy = policy or AlertPolicy()
        self.glove = glove
        self.alerts: list[AlertEvent] = []
        self.watched = self.policy.watched
        self._states = [_SensorState() for _ in self.watched]
        self._last_ts: int | None = None
        self._quiet = True  # no sensor has an open episode or a run over the threshold

    def step(self, timestamp_ms: int, forces) -> list[AlertEvent]:
        """Advance one frame; forces[i] is the force at sensor watched[i].

        Returns the alerts that opened at this frame. Peak updates and clears
        mutate previously returned events rather than producing new ones, so
        len(monitor.alerts) counts episodes. While every sensor is quiet, a
        frame with no force over the threshold costs one max().
        """
        if self._last_ts is not None and timestamp_ms <= self._last_ts:
            raise SequencingError(f"frame at {timestamp_ms} ms not after {self._last_ts} ms")
        self._last_ts = timestamp_ms
        pol = self.policy
        if self._quiet:
            if len(forces) != len(self._states):
                raise ValueError(f"{len(forces)} forces for {len(self._states)} watched sensors")
            if max(forces) <= pol.threshold_n:
                return []
        opened = []
        quiet = True
        for sensor, state, force_n in zip(self.watched, self._states, forces, strict=True):
            if state.active is not None:
                alert = state.active
                alert.peak_force_n = max(alert.peak_force_n, force_n)
                if force_n < pol.clear_level_n:
                    alert.cleared_timestamp_ms = timestamp_ms
                    state.active = None
                else:
                    quiet = False
            elif force_n > pol.threshold_n:
                quiet = False
                state.run_count += 1
                state.run_peak = max(state.run_peak, force_n)
                if state.run_count >= pol.debounce:
                    alert = AlertEvent(
                        glove=self.glove,
                        sensor=sensor,
                        onset_timestamp_ms=timestamp_ms,
                        peak_force_n=state.run_peak,
                    )
                    state.active = alert
                    state.run_count = 0
                    state.run_peak = 0.0
                    opened.append(alert)
                    self.alerts.append(alert)
            else:
                state.run_count = 0
                state.run_peak = 0.0
        self._quiet = quiet
        return opened


def force_table(cal: Calibration, cfg: GloveConfig) -> list[float]:
    """force_from_voltage of every whole millivolt a frame can carry below the supply.

    Entry v equals force_from_voltage(v, cal, cfg) bit for bit, so a live
    consumer indexes it per sample; a voltage past its end is one that the
    scalar call refuses, or one that no frame carries.
    """
    volts = np.arange(min(VOLTAGE_LIMIT_MV, math.ceil(cfg.supply_mv)))
    return force_from_voltage(volts, cal, cfg).tolist()


def monitor_session(
    session: Session,
    policy: AlertPolicy | None = None,
    cal: Calibration | None = None,
    cfg: GloveConfig | None = None,
) -> list[AlertEvent]:
    """Every episode GripMonitor would report over a recorded session, in its order.

    Searches each watched sensor's force column instead of stepping frames:
    an episode opens at the end of the first window of `debounce` samples
    over the threshold that starts after the previous episode cleared, with
    that window's peak, and clears at the first later sample under the
    clear level; its peak covers every sample up to and including that one.
    Events still open at the end of the session keep cleared=None.
    """
    policy = policy or AlertPolicy()
    watched = policy.watched
    ts = session.timestamps_ms.tolist()
    if not ts:
        return []
    forces = force_from_voltage(session.voltages_mv.T[[sid - 1 for sid in watched]],
                                cal or Calibration(), cfg or GloveConfig())
    d = policy.debounce
    found = []  # (onset index, sensor, event)
    for sensor, f in zip(watched, forces):
        over = (f > policy.threshold_n).astype(np.int64)
        ends = np.flatnonzero(np.convolve(over, np.ones(d, np.int64))[:len(f)] == d)
        below = np.flatnonzero(f < policy.clear_level_n)
        start = 0  # a sample under the clear level is under the threshold: no window spans it
        while (k := np.searchsorted(ends, start)) < len(ends):
            i = int(ends[k])
            c = np.searchsorted(below, i + 1)
            j = int(below[c]) if c < len(below) else len(f) - 1
            alert = AlertEvent(glove=session.hand.side, sensor=sensor, onset_timestamp_ms=ts[i],
                               peak_force_n=float(f[i - d + 1:j + 1].max()),
                               cleared_timestamp_ms=ts[j] if c < len(below) else None)
            found.append((i, sensor, alert))
            start = j + 1
    found.sort(key=lambda item: item[:2])
    return [alert for _, _, alert in found]
