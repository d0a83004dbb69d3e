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
"""

from dataclasses import dataclass

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
        self.watched = tuple(sid for sid in SENSOR_IDS if self.policy.watches(sid))
        self._states = [_SensorState() for _ in self.watched]
        self._last_ts: int | None = None

    def step(self, timestamp_ms: int, forces) -> list[AlertEvent]:
        """Advance one frame; forces[i] is the force at sensor watched[i].

        Returns the alerts that opened at this frame. Peak updates and clears
        mutate previously returned events rather than producing new ones, so
        len(monitor.alerts) counts episodes.
        """
        if self._last_ts is not None and timestamp_ms <= self._last_ts:
            raise SequencingError(f"frame at {timestamp_ms} ms not after {self._last_ts} ms")
        self._last_ts = timestamp_ms
        pol = self.policy
        opened = []
        for sensor, state, force_n in zip(self.watched, self._states, forces, strict=True):
            if state.active is not None:
                alert = state.active
                alert.peak_force_n = max(alert.peak_force_n, force_n)
                if force_n < pol.clear_level_n:
                    alert.cleared_timestamp_ms = timestamp_ms
                    state.active = None
            elif force_n > pol.threshold_n:
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
        return opened


def monitor_session(
    session: Session,
    policy: AlertPolicy | None = None,
    cal: Calibration | None = None,
    cfg: GloveConfig | None = None,
) -> list[AlertEvent]:
    """Replay a recorded session through a monitor; returns all episodes.

    Events still open at the end of the session keep cleared=None.
    """
    monitor = GripMonitor(policy, glove=session.hand.side)
    forces = force_from_voltage(session.voltages_mv[:, [sid - 1 for sid in monitor.watched]],
                                cal or Calibration(), cfg or GloveConfig())
    for ts, row in zip(session.timestamps_ms.tolist(), forces.tolist()):
        monitor.step(ts, row)
    return monitor.alerts
