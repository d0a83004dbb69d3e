"""Grip-force statistics: profiles, contribution shares, ANOVA, expertise.

Everything here is pure over immutable sessions. Analyses run on forces in
newtons (voltages are converted once, up front), per-session means are the
observation unit for population statistics, and F-test p-values come from a
self-contained regularized incomplete beta implementation so results do not
depend on an external stats stack.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from gripstream.core import Calibration, GloveConfig, Hand, SensorLocus, force_from_voltage
from gripstream.errors import ConfigError, DomainError, GripstreamError
from gripstream.ingest import GROUP_KEYS, SENSOR_IDS, Session


class AnalyticsError(GripstreamError):
    pass


class InsufficientDataError(AnalyticsError):
    """Too few observations for the requested statistic."""


class DegenerateDataError(AnalyticsError):
    """The statistic is undefined on this data (all-zero, zero variance)."""


class UnbalancedDesignError(AnalyticsError):
    """Two-way ANOVA needs a complete table with equal cell sizes."""


@dataclass(frozen=True, eq=False)
class ForceSeries:
    """One sensor's force-over-time curve for one session, as two columns."""

    sensor: int
    hand: Hand
    condition: str
    timestamps_ms: np.ndarray
    forces_n: np.ndarray

    @property
    def points(self) -> np.ndarray:
        """(timestamp_ms, force_n) rows as an (n, 2) float64 array, the form
        render_profile_svg draws."""
        return np.column_stack((self.timestamps_ms, self.forces_n))

    def __len__(self) -> int:
        return len(self.timestamps_ms)


def _sensor_column(session: Session, sensor: int) -> np.ndarray:
    if sensor not in SENSOR_IDS:
        raise AnalyticsError(f"sensor S{sensor} not present in session")
    return session.voltages_mv[:, sensor - 1]


def sensor_profile(
    session: Session,
    sensor: int,
    cal: Calibration | None = None,
    cfg: GloveConfig | None = None,
) -> ForceSeries:
    """Force profile of one sensor; length and ordering preserved."""
    forces = force_from_voltage(_sensor_column(session, sensor), cal or Calibration(),
                                cfg or GloveConfig())
    return ForceSeries(
        sensor=sensor,
        hand=session.hand,
        condition=session.condition,
        timestamps_ms=session.timestamps_ms,
        forces_n=forces,
    )


# ---------------------------------------------------------------------------
# descriptive statistics

def session_mean_force(
    session: Session,
    sensor: int,
    cal: Calibration | None = None,
    cfg: GloveConfig | None = None,
) -> float:
    column = _sensor_column(session, sensor)
    if not len(column):
        raise InsufficientDataError(f"sensor S{sensor} has no samples")
    # the mean of the sensor's own 1-D column: a row-wise mean of the matrix
    # would sum in another order and change the last bits
    return float(force_from_voltage(column, cal or Calibration(), cfg or GloveConfig()).mean())


def contribution_shares(
    session: Session,
    sensor_subset,
    cal: Calibration | None = None,
    cfg: GloveConfig | None = None,
) -> dict[int, float]:
    """Each sensor's mean force as a percentage of the subset total.

    Shares sum to 100 by construction; all-zero means leave the shares
    undefined and raise.
    """
    subset = list(sensor_subset)
    if not subset:
        raise ConfigError("sensor subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise ConfigError("sensor subset has duplicates")
    means = {sid: session_mean_force(session, sid, cal, cfg) for sid in subset}
    total = math.fsum(means.values())
    if total == 0.0:
        raise DegenerateDataError("all mean forces are zero; shares undefined")
    return {sid: 100.0 * mean / total for sid, mean in means.items()}


def population_average(
    sessions,
    group_by,
    cal: Calibration | None = None,
    cfg: GloveConfig | None = None,
) -> dict[tuple[str, ...], float]:
    """Mean of per-session mean forces, grouped by hand/sensor/condition.

    Keys are tuples of group labels in canonical (hand, sensor, condition)
    order restricted to the requested keys; every session gets equal weight
    no matter how many samples it holds. Hand groups use dominance, which is
    what population comparisons care about.
    """
    keys = _checked_keys(group_by, "group keys")
    if not keys:
        return {}
    keys = [k for k in GROUP_KEYS if k in keys]
    groups = _observation_groups(sessions, SENSOR_IDS, keys, cal, cfg)
    return {key: math.fsum(vals) / len(vals) for key, vals in groups.items()}


def _checked_keys(keys, what: str) -> list[str]:
    """keys as a list; ConfigError names `what` when one is not in GROUP_KEYS or repeats."""
    keys = list(keys)
    unknown = [k for k in keys if k not in GROUP_KEYS]
    if unknown:
        raise ConfigError(f"unknown {what} {unknown}; valid: {GROUP_KEYS}")
    if len(set(keys)) != len(keys):
        raise ConfigError(f"duplicate {what}")
    return keys


def _observation_groups(sessions, sensors, keys, cal, cfg) -> dict[tuple[str, ...], list[float]]:
    """Per-(session, sensor) mean forces, the observation unit, grouped by `keys` in value order."""
    groups: dict[tuple, list[float]] = {}
    for s in sessions:
        values = {"hand": s.hand.dominance.value, "condition": s.condition}
        for sid in sensors:
            values["sensor"] = sid
            key = tuple(values[k] for k in keys)
            groups.setdefault(key, []).append(session_mean_force(s, sid, cal, cfg))
    # sorted while a sensor is still its int id, so S2 comes before S10; conditions sort as text
    return {tuple(f"S{v}" if k == "sensor" else v for k, v in zip(keys, key)): groups[key]
            for key in sorted(groups)}


# ---------------------------------------------------------------------------
# F distribution via the regularized incomplete beta function

_BETA_EPS = 3e-16
_BETA_TINY = 1e-300
_BETA_MAX_ITER = 300


def _lentz_floor(v: float) -> float:
    return _BETA_TINY if abs(v) < _BETA_TINY else v


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the standard continued fraction for I_x
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _lentz_floor(1.0 - qab * x / qap)
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # step m takes the even coefficient, then the odd one
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _lentz_floor(1.0 + aa * d)
            c = _lentz_floor(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), accurate to ~1e-10 absolute."""
    if a <= 0 or b <= 0:
        raise DomainError("beta parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x={x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # the continued fraction converges fast only on one side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def f_survival(f_stat: float, df1: int, df2: int) -> float:
    """P(F >= f_stat) for an F(df1, df2) distribution."""
    if df1 < 1 or df2 < 1:
        raise DomainError("degrees of freedom must be >= 1")
    if f_stat < 0:
        raise DomainError("F statistic must be non-negative")
    if math.isinf(f_stat):
        return 0.0
    x = df2 / (df2 + df1 * f_stat)
    return betainc_reg(df2 / 2.0, df1 / 2.0, x)


# ---------------------------------------------------------------------------
# ANOVA

@dataclass(frozen=True)
class AnovaResult:
    f_stat: float
    df_between: int
    df_within: int
    p_value: float
    ss_between: float
    ss_within: float
    ss_total: float

    def __post_init__(self):
        if self.df_between < 1 or self.df_within < 1:
            raise AnalyticsError("degrees of freedom must be >= 1")
        if self.f_stat < 0 or math.isnan(self.f_stat):
            raise AnalyticsError("F statistic must be non-negative")
        if not 0.0 <= self.p_value <= 1.0:
            raise AnalyticsError("p-value outside [0, 1]")
        if min(self.ss_between, self.ss_within, self.ss_total) < 0:
            raise AnalyticsError("sums of squares must be non-negative")
        gap = abs(self.ss_between + self.ss_within - self.ss_total)
        if gap > 1e-9 * max(self.ss_total, 1.0):
            raise AnalyticsError(
                f"sum-of-squares decomposition broken: {self.ss_between} + "
                f"{self.ss_within} != {self.ss_total}"
            )


def anova_oneway(groups) -> AnovaResult:
    """Fixed-effects one-way ANOVA over two or more groups of observations."""
    data = [[float(v) for v in g] for g in groups]
    if len(data) < 2:
        raise InsufficientDataError("one-way ANOVA needs at least 2 groups")
    for i, g in enumerate(data):
        if len(g) < 2:
            raise InsufficientDataError(f"group {i} has {len(g)} observation(s); need >= 2")
    n_total = sum(len(g) for g in data)
    grand = math.fsum(math.fsum(g) for g in data) / n_total
    means = [math.fsum(g) / len(g) for g in data]
    ss_between = math.fsum(len(g) * (m - grand) ** 2 for g, m in zip(data, means))
    ss_within = math.fsum(math.fsum((v - m) ** 2 for v in g) for g, m in zip(data, means))
    ss_total = math.fsum((v - grand) ** 2 for g in data for v in g)
    if ss_total == 0.0:
        raise DegenerateDataError("all observations identical; F undefined")
    return _effect_result(ss_between, len(data) - 1, ss_within, n_total - len(data), ss_total)


@dataclass(frozen=True)
class TwoWayAnova:
    """Balanced two-way fixed-effects decomposition with interaction.

    Each effect is reported as an AnovaResult tested against the shared
    error term; ss_total here is the full table SST and equals
    SSA + SSB + SSAB + SSE.
    """

    factor_a: str
    factor_b: str
    effect_a: AnovaResult
    effect_b: AnovaResult
    interaction: AnovaResult
    ss_error: float
    df_error: int
    ss_total: float

    def __post_init__(self):
        parts = (
            self.effect_a.ss_between
            + self.effect_b.ss_between
            + self.interaction.ss_between
            + self.ss_error
        )
        if abs(parts - self.ss_total) > 1e-9 * max(self.ss_total, 1.0):
            raise AnalyticsError(
                f"two-way decomposition broken: parts {parts} != total {self.ss_total}"
            )

    @property
    def effects(self) -> dict[str, AnovaResult]:
        return {
            self.factor_a: self.effect_a,
            self.factor_b: self.effect_b,
            f"{self.factor_a}*{self.factor_b}": self.interaction,
        }


def _effect_result(ss_eff: float, df_eff: int, ss_err: float, df_err: int,
                   ss_total: float) -> AnovaResult:
    """One effect tested against the error term, for one-way and two-way alike.

    With no error at all, F is inf unless the effect is at most 1e-12 of the
    table's total sum of squares, ss_total: rounding noise at any scale.
    """
    ms_err = ss_err / df_err
    if ms_err == 0.0:
        f_stat = 0.0 if ss_eff <= 1e-12 * ss_total else math.inf
    else:
        f_stat = (ss_eff / df_eff) / ms_err
    return AnovaResult(
        f_stat=f_stat,
        df_between=df_eff,
        df_within=df_err,
        p_value=f_survival(f_stat, df_eff, df_err),
        ss_between=ss_eff,
        ss_within=ss_err,
        ss_total=ss_eff + ss_err,
    )


def anova_twoway(table, factor_a: str = "A", factor_b: str = "B") -> TwoWayAnova:
    """Balanced two-way ANOVA with interaction.

    `table` is an array shaped (levels_a, levels_b, replicates): every cell
    holds the same number (>= 2) of observations.
    """
    y = np.asarray(table, dtype=float)
    if y.ndim != 3:
        raise UnbalancedDesignError(f"array table must be 3-d, got shape {y.shape}")
    n_a, n_b, reps = y.shape  # (I, J, K)
    if n_a < 2 or n_b < 2:
        raise InsufficientDataError("both factors need at least 2 levels")
    if reps < 2:
        raise InsufficientDataError("need at least 2 replicates per cell")

    grand = y.mean()
    mean_a = y.mean(axis=(1, 2))
    mean_b = y.mean(axis=(0, 2))
    mean_cell = y.mean(axis=2)
    ss_a = n_b * reps * float(((mean_a - grand) ** 2).sum())
    ss_b = n_a * reps * float(((mean_b - grand) ** 2).sum())
    ss_ab = reps * float(
        ((mean_cell - mean_a[:, None] - mean_b[None, :] + grand) ** 2).sum()
    )
    ss_err = float(((y - mean_cell[:, :, None]) ** 2).sum())
    ss_total = float(((y - grand) ** 2).sum())
    if ss_total == 0.0:
        raise DegenerateDataError("all observations identical; F undefined")
    df_a, df_b = n_a - 1, n_b - 1
    df_ab = df_a * df_b
    df_err = n_a * n_b * (reps - 1)
    return TwoWayAnova(
        factor_a=factor_a,
        factor_b=factor_b,
        effect_a=_effect_result(ss_a, df_a, ss_err, df_err, ss_total),
        effect_b=_effect_result(ss_b, df_b, ss_err, df_err, ss_total),
        interaction=_effect_result(ss_ab, df_ab, ss_err, df_err, ss_total),
        ss_error=ss_err,
        df_error=df_err,
        ss_total=ss_total,
    )


def anova_from_sessions(
    sessions,
    factors,
    cal: Calibration | None = None,
    cfg: GloveConfig | None = None,
    sensors=None,
):
    """ANOVA over per-session per-sensor mean forces, grouped by factors.

    One factor runs a one-way ANOVA over its levels; two factors run the
    balanced two-way analysis. The observation unit is one session's mean
    force at one sensor (restricted to `sensors` when given).
    """
    factors = _checked_keys(factors, "factors")
    if not 1 <= len(factors) <= 2:
        raise ConfigError("need one or two factors")
    sensors = SENSOR_IDS if sensors is None else list(sensors)
    groups = _observation_groups(sessions, sensors, factors, cal, cfg)
    if not groups:
        raise InsufficientDataError("no observations")
    if len(factors) == 1:
        return anova_oneway(groups.values())
    # the groups come sorted by (a, b): a complete table of equal cells is the cube in row order
    n_a, n_b = (len(set(levels)) for levels in zip(*groups))
    sizes = sorted({len(values) for values in groups.values()})
    if len(groups) != n_a * n_b or len(sizes) != 1:
        raise UnbalancedDesignError(
            f"{factors[0]} x {factors[1]} needs all {n_a * n_b} cells with one size; "
            f"got {len(groups)} cell(s) of size(s) {sizes}"
        )
    return anova_twoway(np.reshape(list(groups.values()), (n_a, n_b, sizes[0])), *factors)


# ---------------------------------------------------------------------------
# expertise benchmarking

class ExpertiseIndex(NamedTuple):
    ratio: float
    samples_in_task: int


def expertise_index(
    session: Session,
    cal: Calibration | None = None,
    cfg: GloveConfig | None = None,
) -> ExpertiseIndex:
    """Little-to-middle fingertip mean-force ratio plus task sample count.

    Trained operators lean on subtle little-finger control (ratio above 1)
    and finish in fewer samples; untrained ones muscle through with the
    middle finger (ratio below 1).
    """
    cfg = cfg or GloveConfig()
    little = cfg.sensors_at(SensorLocus.FINGERTIP_LITTLE)[0].sid
    middle = cfg.sensors_at(SensorLocus.FINGERTIP_MIDDLE)[0].sid
    middle_mean = session_mean_force(session, middle, cal, cfg)
    if middle_mean == 0.0:
        raise DegenerateDataError("middle-finger mean force is zero; ratio undefined")
    little_mean = session_mean_force(session, little, cal, cfg)
    return ExpertiseIndex(ratio=little_mean / middle_mean, samples_in_task=session.frame_count)
