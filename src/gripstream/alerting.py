"""Real-time over-force alerting with debounce and hysteresis.

A GripMonitor watches a glove frame by frame: each step takes one timestamp
and the frame's twelve readings in whole millivolts. An alert opens once
`debounce` consecutive samples of a sensor exceed the threshold (so a single
noisy spike stays quiet) and closes only when force drops below threshold
minus hysteresis (so values rattling around the threshold cannot flap). At
most one alert is open per sensor at a time.

force_from_voltage does not decrease over whole millivolts, so a reading is
over the threshold exactly when it is at least the monitor's over_mv and under
the clear level exactly when it is below its clear_mv; force is looked up
(force_table) only for peaks, and the alerts equal those of converted samples.

AlertEvent objects are handed out the moment an alert opens and are updated
in place as the episode evolves: peak_force_n grows while the alert is open
and cleared_timestamp_ms is filled in on release. Holding the returned
event therefore always shows the current state of that episode.

monitor_session finds the same episodes in a recorded session by searching
each watched sensor's millivolt column, without stepping a monitor.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from gripstream.core import Calibration, GloveConfig, Side, force_from_voltage, require_finite
from gripstream.errors import ConfigError, GripstreamError
from gripstream.ingest import SENSOR_IDS, Session


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


def force_table(cal: Calibration, cfg: GloveConfig) -> list[float]:
    """force_from_voltage, bit for bit, of every whole millivolt below the supply that a
    uint16 holds; a reading past the table's end is one that the conversion refuses."""
    return force_from_voltage(np.arange(min(1 << 16, math.ceil(cfg.supply_mv))), cal, cfg).tolist()


@dataclass
class _SensorState:
    run_count: int = 0
    run_peak: float = 0.0
    active: AlertEvent | None = None


class GripMonitor:
    """Per-glove alert state machine; feed frames in time order."""

    def __init__(self, policy: AlertPolicy | None = None, glove: Side = Side.RIGHT,
                 cal: Calibration | None = None, cfg: GloveConfig | None = None):
        self.policy = policy or AlertPolicy()
        self.glove = glove
        self._cal, self._cfg = cal or Calibration(), cfg or GloveConfig()
        self.table = force_table(self._cal, self._cfg)
        self.over_mv = bisect_right(self.table, self.policy.threshold_n)
        self.clear_mv = bisect_left(self.table, self.policy.clear_level_n)
        self.alerts: list[AlertEvent] = []
        self.watched = self.policy.watched
        columns = [sid - 1 for sid in self.watched]
        # one C call picks the watched readings; a lone sensor's as a slice, so still a tuple
        self._pick = (itemgetter(*columns) if len(columns) > 1
                      else itemgetter(slice(columns[0], columns[0] + 1)))
        self._states = [_SensorState() for _ in self.watched]
        self._last_ts: int | None = None
        self._quiet = True  # no sensor has an open episode or a run over the threshold

    def step(self, timestamp_ms: int, voltages_mv) -> list[AlertEvent]:
        """Advance one frame; voltages_mv holds its S1..S12 readings, whole millivolts >= 0.

        Returns the alerts that opened at this frame. Peak updates and clears
        mutate previously returned events rather than producing new ones, so
        len(monitor.alerts) counts episodes. While every sensor is quiet, a
        frame with no watched reading at or over over_mv costs one max().
        A watched reading at or above the supply raises force_from_voltage's
        DomainError.
        """
        if self._last_ts is not None and timestamp_ms <= self._last_ts:
            raise SequencingError(f"frame at {timestamp_ms} ms not after {self._last_ts} ms")
        self._last_ts = timestamp_ms
        if len(voltages_mv) != len(SENSOR_IDS):
            raise ValueError(f"{len(voltages_mv)} readings for {len(SENSOR_IDS)} sensors")
        readings = self._pick(voltages_mv)
        top = max(readings)
        if self._quiet and top < self.over_mv:
            return []
        table, over_mv, clear_mv = self.table, self.over_mv, self.clear_mv
        if top >= len(table):
            for mv in readings:
                force_from_voltage(mv, self._cal, self._cfg)  # raises at the first it refuses
        opened = []
        quiet = True
        for sensor, state, mv in zip(self.watched, self._states, readings):
            if state.active is not None:
                alert = state.active
                alert.peak_force_n = max(alert.peak_force_n, table[mv])
                if mv < clear_mv:
                    alert.cleared_timestamp_ms = timestamp_ms
                    state.active = None
                else:
                    quiet = False
            elif mv >= over_mv:
                quiet = False
                state.run_count += 1
                state.run_peak = max(state.run_peak, table[mv])
                if state.run_count >= self.policy.debounce:
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


def monitor_session(
    session: Session,
    policy: AlertPolicy | None = None,
    cal: Calibration | None = None,
    cfg: GloveConfig | None = None,
) -> list[AlertEvent]:
    """Every episode GripMonitor would report over a recorded session, in its order.

    Searches each watched sensor's millivolt column against GripMonitor's
    levels instead of stepping frames: an episode opens at the end of the
    first window of `debounce` samples over the threshold that starts after
    the previous episode cleared, with that window's peak, and clears at the
    first later sample under the clear level; its peak covers every sample
    up to and including that one. Events still open at the end of the
    session keep cleared=None. A reading at or above the supply raises
    force_from_voltage's DomainError at its (watched sensor, sample) index.
    """
    policy = policy or AlertPolicy()
    cal, cfg = cal or Calibration(), cfg or GloveConfig()
    watched = policy.watched
    ts = session.timestamps_ms.tolist()
    if not ts:
        return []
    levels = GripMonitor(policy, session.hand.side, cal, cfg)  # its table, over_mv and clear_mv
    volts = session.voltages_mv.T[[sid - 1 for sid in watched]]
    if volts.max() >= len(levels.table):
        force_from_voltage(volts, cal, cfg)  # raises, naming the first reading it refuses
    d = policy.debounce
    found = []  # (onset index, sensor, event)
    for sensor, v in zip(watched, volts):
        over = (v >= levels.over_mv).astype(np.int64)
        ends = np.flatnonzero(np.convolve(over, np.ones(d, np.int64))[:len(v)] == d)
        below = np.flatnonzero(v < levels.clear_mv)
        start = 0  # a sample under the clear level is under the threshold: no window spans it
        while (k := np.searchsorted(ends, start)) < len(ends):
            i = int(ends[k])
            c = np.searchsorted(below, i + 1)
            j = int(below[c]) if c < len(below) else len(v) - 1
            alert = AlertEvent(glove=session.hand.side, sensor=sensor, onset_timestamp_ms=ts[i],
                               peak_force_n=levels.table[v[i - d + 1:j + 1].max()],
                               cleared_timestamp_ms=ts[j] if c < len(below) else None)
            found.append((i, sensor, alert))
            start = j + 1
    found.sort(key=lambda item: item[:2])
    return [alert for _, _, alert in found]
