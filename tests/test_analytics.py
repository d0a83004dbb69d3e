import math
import random

import numpy as np
import pytest
import scipy.special
import scipy.stats

from gripstream.analytics import (
    AnalyticsError,
    AnovaResult,
    DegenerateDataError,
    ExpertiseIndex,
    InsufficientDataError,
    UnbalancedDesignError,
    anova_from_sessions,
    anova_oneway,
    anova_twoway,
    betainc_reg,
    contribution_shares,
    expertise_index,
    f_survival,
    population_average,
    sensor_profile,
    session_mean_force,
)
from gripstream.core import (
    Calibration,
    ConfigError,
    ConversionMode,
    Dominance,
    DomainError,
    GloveConfig,
)

from helpers import mv_session

RATIONAL_CFG = GloveConfig(conversion_mode=ConversionMode.RATIONAL)


# ---------------------------------------------------------------------------
# profiles and descriptive statistics

def test_profile_linear_hits_anchor_points():
    session = mv_session({4: [0, 750, 1500]})
    series = sensor_profile(session, 4)
    assert series.timestamps_ms.tolist() == [0, 20, 40]
    assert series.forces_n.tolist() == [0.0, 5.0, 10.0]
    assert series.sensor == 4 and series.condition == "quiet"


def test_profile_rational_mode():
    session = mv_session({4: [750, 1500]})
    series = sensor_profile(session, 4, cfg=RATIONAL_CFG)
    forces = series.forces_n.tolist()
    assert forces[0] == pytest.approx(3.529411764705882, rel=1e-12)
    assert forces[1] == pytest.approx(10.0, rel=1e-12)


def test_profile_preserves_length_and_is_monotone():
    rng = random.Random(70)
    mvs = sorted(rng.sample(range(0, 3300), 200))
    for cfg in (GloveConfig(), RATIONAL_CFG):
        series = sensor_profile(mv_session({7: mvs}), 7, cfg=cfg)
        assert len(series) == 200
        forces = series.forces_n
        assert np.all(np.diff(forces) > 0)


def test_profile_unknown_sensor_and_empty_series():
    session = mv_session({})
    with pytest.raises(AnalyticsError):
        sensor_profile(session, 13)
    empty = sensor_profile(session, 1)
    assert len(empty) == 0
    with pytest.raises(InsufficientDataError):
        session_mean_force(session, 1)


def test_conversion_error_reports_sample_index():
    session = mv_session({2: [100, 200, 3300, 400]})
    with pytest.raises(DomainError, match="sample index 2"):
        sensor_profile(session, 2)


# ---------------------------------------------------------------------------
# contribution shares

def test_shares_normalize_reference_table():
    table = {2: 42.0, 3: 27.4, 4: 17.6, 5: 12.9}  # sums to 99.9
    session = mv_session({sid: [round(10 * t)] * 5 for sid, t in table.items()})
    shares = contribution_shares(session, [2, 3, 4, 5])
    assert math.fsum(shares.values()) == pytest.approx(100.0, abs=1e-9)
    for sid, t in table.items():
        assert shares[sid] == pytest.approx(100.0 * t / 99.9, rel=1e-12)
        assert abs(shares[sid] - t) < 0.1


def test_shares_equal_forces_split_evenly():
    session = mv_session({sid: [640, 660] for sid in (1, 2, 3, 4)})
    shares = contribution_shares(session, [1, 2, 3, 4])
    assert all(s == pytest.approx(25.0) for s in shares.values())


def test_shares_reject_bad_subsets_and_silence():
    session = mv_session({2: [100, 100]})
    with pytest.raises(ConfigError):
        contribution_shares(session, [])
    with pytest.raises(ConfigError):
        contribution_shares(session, [2, 2])
    with pytest.raises(DegenerateDataError):
        contribution_shares(session, [7, 8])  # both silent


# ---------------------------------------------------------------------------
# population averages

def test_population_average_identity_and_pooling():
    a = mv_session({2: [300, 300]}, condition="soft")
    b = mv_session({2: [600, 600]}, condition="soft")
    # a alone: S2 mean force 2 N
    solo = population_average([a], ["sensor", "condition"])
    assert solo[("S2", "soft")] == pytest.approx(2.0)
    # duplicating a session cannot move the mean
    assert population_average([a, a], ["sensor", "condition"]) == pytest.approx(solo)
    # equal-weight pooling of 2 N and 4 N sessions
    pooled = population_average([a, b], ["sensor", "condition"])
    assert pooled[("S2", "soft")] == pytest.approx(3.0)
    # order of the input sessions is irrelevant
    assert population_average([b, a], ["sensor", "condition"]) == pytest.approx(pooled)


def test_population_average_key_order_and_hand_labels():
    dom = mv_session({1: [150]}, dominance=Dominance.DOMINANT)
    non = mv_session({1: [450]}, dominance=Dominance.NON_DOMINANT)
    table = population_average([dom, non], ["hand"])
    assert table == {("dominant",): pytest.approx(1.0 / 12),
                     ("nondominant",): pytest.approx(3.0 / 12)}
    # requested key order never matters; canonical order is (hand, sensor, condition)
    t1 = population_average([dom], ["condition", "hand"])
    assert list(t1) == [("dominant", "quiet")]
    keys = list(population_average([dom], ["sensor"]))
    assert keys == [(f"S{k}",) for k in range(1, 13)]  # S2 before S10
    assert population_average([dom], []) == {}
    with pytest.raises(ConfigError, match=r"unknown group keys \['subject'\]"):
        population_average([dom], ["subject"])
    with pytest.raises(ConfigError, match="duplicate group keys"):
        population_average([dom], ["hand", "hand"])


def test_population_groups_come_in_value_order():
    # conditions sort as text even when shaped like a sensor label; sensors sort by id
    sessions = [mv_session({2: [150], 10: [300]}, condition=c) for c in ("quiet", "S9", "S10")]
    assert list(population_average(sessions, ["condition"])) == [("S10",), ("S9",), ("quiet",)]
    assert list(population_average(sessions, ["sensor"])) == [(f"S{k}",) for k in range(1, 13)]
    both = list(population_average(sessions, ["sensor", "condition"]))
    assert both == [(f"S{k}", c) for k in range(1, 13) for c in ("S10", "S9", "quiet")]


# ---------------------------------------------------------------------------
# regularized incomplete beta and the F tail

def test_betainc_matches_closed_form():
    # I_x(1/2, 2) = sqrt(x) * (3 - x) / 2
    for x in [1e-9, 1e-4, 0.1, 0.25, 0.5, 0.8, 0.99, 1.0 - 1e-12]:
        want = math.sqrt(x) * (3.0 - x) / 2.0
        assert betainc_reg(0.5, 2.0, x) == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_betainc_matches_scipy_grid():
    params = [0.5, 1.0, 2.5, 7.0, 40.5, 200.0]
    xs = [1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-6]
    for a in params:
        for b in params:
            for x in xs:
                want = float(scipy.special.betainc(a, b, x))
                assert betainc_reg(a, b, x) == pytest.approx(want, rel=1e-10, abs=1e-13)


def test_betainc_edges_and_domain():
    assert betainc_reg(3.0, 4.0, 0.0) == 0.0
    assert betainc_reg(3.0, 4.0, 1.0) == 1.0
    with pytest.raises(DomainError):
        betainc_reg(0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        betainc_reg(1.0, 1.0, 1.5)


def test_f_survival_matches_scipy():
    rng = random.Random(71)
    for _ in range(200):
        d1 = rng.randrange(1, 30)
        d2 = rng.randrange(1, 60)
        f = rng.uniform(0.0, 12.0)
        want = float(scipy.stats.f.sf(f, d1, d2))
        assert f_survival(f, d1, d2) == pytest.approx(want, rel=1e-9, abs=1e-13)
    assert f_survival(0.0, 3, 10) == 1.0
    assert f_survival(math.inf, 3, 10) == 0.0
    with pytest.raises(DomainError):
        f_survival(-1.0, 3, 10)
    with pytest.raises(DomainError):
        f_survival(1.0, 0, 10)


# ---------------------------------------------------------------------------
# one-way ANOVA

def test_oneway_frozen_small_example():
    result = anova_oneway([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
    assert result.f_stat == pytest.approx(1.5, rel=1e-12)
    assert (result.df_between, result.df_within) == (1, 4)
    assert result.ss_between == pytest.approx(1.5, rel=1e-12)
    assert result.ss_within == pytest.approx(4.0, rel=1e-12)
    assert result.ss_total == pytest.approx(5.5, rel=1e-12)
    assert result.p_value == pytest.approx(0.2878641347266906, rel=1e-10)


def test_oneway_matches_scipy_on_random_groups():
    rng = random.Random(72)
    for _ in range(50):
        groups = [
            [rng.uniform(-5, 5) for _ in range(rng.randrange(2, 9))]
            for _ in range(rng.randrange(2, 6))
        ]
        result = anova_oneway(groups)
        f_ref, p_ref = scipy.stats.f_oneway(*map(np.array, groups))
        assert result.f_stat == pytest.approx(float(f_ref), rel=1e-9)
        assert result.p_value == pytest.approx(float(p_ref), rel=1e-8, abs=1e-12)


def test_oneway_translation_and_scale_invariance():
    rng = random.Random(73)
    groups = [[rng.gauss(0, 1) for _ in range(6)] for _ in range(3)]
    base = anova_oneway(groups)
    for shift, scale in [(10.0, 1.0), (-3.5, 1.0), (0.0, 7.25), (100.0, 0.125)]:
        moved = [[scale * v + shift for v in g] for g in groups]
        result = anova_oneway(moved)
        assert result.f_stat == pytest.approx(base.f_stat, rel=1e-9)
        assert result.p_value == pytest.approx(base.p_value, rel=1e-9)


def test_oneway_equal_means_gives_zero_f():
    result = anova_oneway([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    assert result.f_stat == 0.0
    assert result.p_value == 1.0


def test_oneway_zero_within_variance_is_infinite_f():
    result = anova_oneway([[1.0, 1.0], [2.0, 2.0]])
    assert math.isinf(result.f_stat)
    assert result.p_value == 0.0


def test_oneway_rejects_degenerate_and_tiny_inputs():
    with pytest.raises(DegenerateDataError):
        anova_oneway([[2.0, 2.0], [2.0, 2.0]])
    with pytest.raises(InsufficientDataError):
        anova_oneway([[1.0, 2.0]])
    with pytest.raises(InsufficientDataError):
        anova_oneway([[1.0, 2.0], [3.0]])


def test_anova_result_guards_its_decomposition():
    with pytest.raises(AnalyticsError):
        AnovaResult(f_stat=1.0, df_between=1, df_within=4, p_value=0.5,
                    ss_between=1.0, ss_within=1.0, ss_total=5.0)
    with pytest.raises(AnalyticsError):
        AnovaResult(f_stat=-1.0, df_between=1, df_within=4, p_value=0.5,
                    ss_between=1.0, ss_within=4.0, ss_total=5.0)


# ---------------------------------------------------------------------------
# two-way ANOVA

def brute_force_twoway(cube):
    """Direct-summation reference: cube is [I][J][K] floats."""
    n_a, n_b, reps = len(cube), len(cube[0]), len(cube[0][0])
    flat = [v for plane in cube for cell in plane for v in cell]
    n = len(flat)
    grand = math.fsum(flat) / n
    mean_a = [math.fsum(v for cell in cube[i] for v in cell) / (n_b * reps)
              for i in range(n_a)]
    mean_b = [math.fsum(cube[i][j][k] for i in range(n_a) for k in range(reps))
              / (n_a * reps) for j in range(n_b)]
    mean_cell = [[math.fsum(cube[i][j]) / reps for j in range(n_b)] for i in range(n_a)]
    ss_a = n_b * reps * math.fsum((m - grand) ** 2 for m in mean_a)
    ss_b = n_a * reps * math.fsum((m - grand) ** 2 for m in mean_b)
    ss_ab = reps * math.fsum(
        (mean_cell[i][j] - mean_a[i] - mean_b[j] + grand) ** 2
        for i in range(n_a) for j in range(n_b)
    )
    ss_err = math.fsum(
        (cube[i][j][k] - mean_cell[i][j]) ** 2
        for i in range(n_a) for j in range(n_b) for k in range(reps)
    )
    df = (n_a - 1, n_b - 1, (n_a - 1) * (n_b - 1), n_a * n_b * (reps - 1))
    ms_err = ss_err / df[3]
    fs = [(ss / d) / ms_err for ss, d in zip((ss_a, ss_b, ss_ab), df[:3])]
    ps = [float(scipy.stats.f.sf(f, d, df[3])) for f, d in zip(fs, df[:3])]
    return (ss_a, ss_b, ss_ab, ss_err), df, fs, ps


def test_twoway_matches_brute_force_reference():
    rng = random.Random(74)
    for _ in range(30):
        n_a, n_b = rng.randrange(2, 5), rng.randrange(2, 5)
        reps = rng.randrange(2, 6)
        cube = [[[rng.uniform(-10, 10) for _ in range(reps)] for _ in range(n_b)]
                for _ in range(n_a)]
        got = anova_twoway(np.array(cube))
        (ss_a, ss_b, ss_ab, ss_err), df, fs, ps = brute_force_twoway(cube)
        for effect, ss, d, f, p in zip(
            (got.effect_a, got.effect_b, got.interaction),
            (ss_a, ss_b, ss_ab), df[:3], fs, ps,
        ):
            assert effect.ss_between == pytest.approx(ss, rel=1e-9, abs=1e-12)
            assert effect.f_stat == pytest.approx(f, rel=1e-9)
            assert effect.p_value == pytest.approx(p, rel=1e-8, abs=1e-12)
            assert (effect.df_between, effect.df_within) == (d, df[3])
        assert got.ss_error == pytest.approx(ss_err, rel=1e-9, abs=1e-12)
        assert got.df_error == df[3]


def test_twoway_null_factor_has_zero_f():
    # observations depend on A only, so B and the interaction carry nothing
    cube = [[[a - 1.0, a + 1.0] for _ in range(3)] for a in (2.0, 5.0, 11.0)]
    got = anova_twoway(np.array(cube))
    assert got.effect_b.f_stat == 0.0 and got.effect_b.p_value == 1.0
    assert got.interaction.f_stat == 0.0
    assert got.effect_a.f_stat > 1.0


def test_twoway_additive_table_has_zero_interaction():
    a_levels, b_levels = (0.0, 6.0), (1.0, 3.0, 8.0)
    cube = [[[a + b - 1.0, a + b + 1.0] for b in b_levels] for a in a_levels]
    got = anova_twoway(np.array(cube))
    assert got.interaction.ss_between == pytest.approx(0.0, abs=1e-12)
    assert got.interaction.f_stat == 0.0
    assert got.effect_a.f_stat > 0 and got.effect_b.f_stat > 0


def test_twoway_constant_cells_of_an_additive_table():
    # no spread inside any cell: both main effects are certain, the interaction is empty
    a_levels, b_levels = (0.0, 6.0), (1.0, 3.0, 8.0)
    cube = [[[a + b, a + b] for b in b_levels] for a in a_levels]
    got = anova_twoway(np.array(cube))
    assert got.ss_error == 0.0
    for effect in (got.effect_a, got.effect_b):
        assert math.isinf(effect.f_stat) and effect.p_value == 0.0
    assert got.interaction.f_stat == 0.0 and got.interaction.p_value == 1.0


def test_a_gap_far_below_one_is_judged_as_one_way_judges_it():
    # constant cells 1e-7 apart: the whole table's spread is that gap, so it is an effect,
    # not rounding noise, in one-way and two-way alike
    low, high = 1.0, 1.0 + 1e-7
    assert math.isinf(anova_oneway([[low, low], [high, high]]).f_stat)
    got = anova_twoway(np.array([[[low, low], [low, low]], [[high, high], [high, high]]]))
    assert got.ss_error == 0.0
    assert math.isinf(got.effect_a.f_stat) and got.effect_a.p_value == 0.0
    for effect in (got.effect_b, got.interaction):
        assert effect.f_stat == 0.0 and effect.p_value == 1.0


def test_twoway_rejects_bad_designs():
    with pytest.raises(UnbalancedDesignError):
        anova_twoway(np.zeros((2, 2)))
    with pytest.raises(InsufficientDataError):
        anova_twoway(np.zeros((1, 2, 3)))
    with pytest.raises(InsufficientDataError):
        anova_twoway(np.zeros((2, 2, 1)))
    with pytest.raises(DegenerateDataError):
        anova_twoway(np.full((2, 2, 2), 4.5))


# ---------------------------------------------------------------------------
# session-level ANOVA plumbing

def test_anova_from_sessions_single_factor():
    sessions = [
        mv_session({2: [900, 900]}, condition="soft"),
        mv_session({2: [930, 930]}, condition="soft"),
        mv_session({2: [1200, 1200]}, condition="hardrock"),
        mv_session({2: [1230, 1230]}, condition="hardrock"),
    ]
    got = anova_from_sessions(sessions, ["condition"], sensors=[2])
    want = anova_oneway([[8.0, 8.2], [6.0, 6.2]])  # hardrock sorts first
    assert got.f_stat == pytest.approx(want.f_stat, rel=1e-9)
    assert got.p_value == pytest.approx(want.p_value, rel=1e-9)


def test_anova_from_sessions_two_factors():
    sessions = []
    for cond, base in (("quiet", 300), ("hardrock", 600)):
        for bump in (0, 30):
            sessions.append(mv_session({2: [base + bump], 3: [2 * base + bump]},
                                       condition=cond))
    got = anova_from_sessions(sessions, ["sensor", "condition"], sensors=[2, 3])
    # (sensor S2, S3) x (condition hardrock, quiet) x replicates
    cube = [[[4.0, 4.2], [2.0, 2.2]], [[8.0, 8.2], [4.0, 4.2]]]
    want = anova_twoway(np.array(cube), factor_a="sensor", factor_b="condition")
    assert got.factor_a == "sensor" and got.factor_b == "condition"
    for name in ("sensor", "condition", "sensor*condition"):
        assert got.effects[name].f_stat == pytest.approx(
            want.effects[name].f_stat, rel=1e-9)


def test_anova_from_sessions_validates_factors():
    session = mv_session({1: [100, 200]})
    with pytest.raises(ConfigError):
        anova_from_sessions([session], ["subject"])
    with pytest.raises(ConfigError):
        anova_from_sessions([session], [])
    with pytest.raises(ConfigError):
        anova_from_sessions([session], ["hand", "sensor", "condition"])
    with pytest.raises(ConfigError, match="duplicate factors"):  # before the count
        anova_from_sessions([session], ["hand", "hand", "sensor"])
    with pytest.raises(ConfigError, match=r"unknown factors \['subject'\]"):
        anova_from_sessions([session], ["hand", "subject"])
    with pytest.raises(InsufficientDataError):
        anova_from_sessions([], ["condition"])


def hand_condition_sessions(cells):
    """One session per (dominance, condition) entry, S2 at a force that varies per session."""
    return [mv_session({2: [300 + 30 * k]}, condition=cond, dominance=dom)
            for k, (dom, cond) in enumerate(cells)]


def test_anova_from_sessions_refuses_a_missing_cell():
    cells = [(Dominance.DOMINANT, "quiet"), (Dominance.DOMINANT, "soft"),
             (Dominance.NON_DOMINANT, "quiet")] * 2
    with pytest.raises(UnbalancedDesignError, match=r"hand x condition needs all 4 cells "
                                                    r"with one size; got 3 cell\(s\)"):
        anova_from_sessions(hand_condition_sessions(cells), ["hand", "condition"], sensors=[2])


def test_anova_from_sessions_refuses_unequal_cells():
    cells = [(dom, cond) for dom in Dominance for cond in ("quiet", "soft")] * 2
    cells.append((Dominance.NON_DOMINANT, "soft"))
    with pytest.raises(UnbalancedDesignError, match=r"got 4 cell\(s\) of size\(s\) \[2, 3\]"):
        anova_from_sessions(hand_condition_sessions(cells), ["hand", "condition"], sensors=[2])
    # the complete table of the same sessions is balanced and runs
    got = anova_from_sessions(hand_condition_sessions(cells[:-1]), ["hand", "condition"],
                              sensors=[2])
    assert set(got.effects) == {"hand", "condition", "hand*condition"}


# ---------------------------------------------------------------------------
# expertise benchmarking

def test_expertise_index_ratio_and_count():
    skilled = mv_session({3: [300] * 4, 5: [450] * 4})
    got = expertise_index(skilled)
    assert got == ExpertiseIndex(ratio=pytest.approx(1.5), samples_in_task=4)
    clumsy = mv_session({3: [600] * 9, 5: [150] * 9})
    assert expertise_index(clumsy).ratio == pytest.approx(0.25)
    assert expertise_index(clumsy).samples_in_task == 9


def test_expertise_index_needs_middle_force():
    silent = mv_session({5: [450, 450]})
    with pytest.raises(DegenerateDataError):
        expertise_index(silent)
