"""End-to-end acceptance gate.

Each test checks one shipping criterion and prints a single PASS/FAIL line
(bypassing capture, so the verdicts show up in plain pytest output).
"""

import math
import random
import time

import numpy as np
import pytest

from gripstream.alerting import AlertPolicy, monitor_session
from gripstream.analytics import (
    anova_from_sessions,
    anova_oneway,
    anova_twoway,
    contribution_shares,
    expertise_index,
    session_mean_force,
)
from gripstream.core import (
    Calibration,
    ConversionMode,
    Dominance,
    GloveConfig,
    Side,
    divider_voltage,
    force_from_voltage,
    resistance_from_voltage,
    voltage_from_force,
)
from gripstream.ingest import (
    SessionBuilder,
    load_session,
    record_session,
    session_summary,
)
from gripstream.pipeline import run_plan
from gripstream.protocol import DecodeError, decode_frame, encode_frame, required_bandwidth
from gripstream.simulate import (
    SessionPlan,
    condition_gain,
    emit_frames,
    encode_session,
    get_preset,
    synthesize_session,
)

from helpers import frame_run, mv_session, random_frame


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, text: str) -> None:
        with capsys.disabled():
            print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {text}", flush=True)
        assert ok, f"criterion {num}: {text}"

    return _report


def test_01_divider_output_spans_reference_endpoints(report):
    t0 = time.perf_counter()
    cfg = GloveConfig()
    v_gripped = divider_voltage(250.0, cfg)
    v_idle = divider_voltage(10e6, cfg)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(v_gripped - 3.2195) <= 1e-3
        and v_idle < 0.004
        and elapsed < 1.0
    )
    report(1, ok, f"divider 250 ohm -> {v_gripped:.4f} V, "
                  f"10 Mohm -> {1000 * v_idle:.2f} mV, {elapsed * 1e3:.1f} ms")


def test_02_two_glove_bandwidth_fits_the_link(report):
    need = required_bandwidth(2, GloveConfig())
    ok = need == 28800 and need <= 115200
    report(2, ok, f"2 gloves at 50 Hz need {need:.0f} bps of 115200 bps")


def test_03_ten_second_session_conserves_every_sample(report):
    cal, cfg = Calibration(), GloveConfig()
    plan = SessionPlan(profiles={Side.RIGHT: get_preset("steady")},
                      duration_s=10.0, seed=1, dominant=Side.RIGHT)
    frames = emit_frames(synthesize_session(plan, cal, cfg)[Side.RIGHT], cal, cfg,
                         side=Side.RIGHT)
    blob = encode_session(frames)
    builder = SessionBuilder(subject="acc", condition="quiet")
    rng = random.Random(7)
    appended, events = 0, []
    i = 0
    while i < len(blob):
        step = rng.randrange(1, 1000)
        got, evs = builder.feed(blob[i : i + step])
        appended += got
        events += evs
        i += step
    session = builder.session()
    summary = session_summary(session)
    ok = (
        builder.frames == 500
        and appended == 6000
        and events == []
        and session.gaps == []
        and summary.duration_s == pytest.approx(9.98)
    )
    report(3, ok, f"{builder.frames} frames, {appended} samples, "
                  f"{len(events)} transport events, {summary.duration_s:.2f} s span")


def test_04_codec_round_trips_and_rejects_every_bit_flip(report):
    t0 = time.perf_counter()
    rng = random.Random(1234)
    trips = 10_000
    for _ in range(trips):
        frame = random_frame(rng)
        if decode_frame(encode_frame(frame)) != frame:
            report(4, False, "a frame changed across encode/decode")
    silent = 0
    flips = 0
    for _ in range(1000):
        data = encode_frame(random_frame(rng))
        for bit in range(288):
            hurt = bytearray(data)
            hurt[bit // 8] ^= 1 << (bit % 8)
            flips += 1
            try:
                if decode_frame(bytes(hurt)) is not None:
                    silent += 1
            except DecodeError:
                pass
    elapsed = time.perf_counter() - t0
    ok = silent == 0 and elapsed < 60.0
    report(4, ok, f"{trips} round trips exact, {silent}/{flips} bit flips "
                  f"slipped through, {elapsed:.1f} s")


def test_05_pipeline_recovers_fingertip_share_table(report):
    reference = {2: 42.0, 3: 27.4, 4: 17.6, 5: 12.9}
    worst = {}
    for label, noise in (("noisy", None), ("noise-free", 0.0)):
        preset = get_preset("precision_lift")
        if noise is not None:
            preset = preset.with_gains(noise_sd_mv=noise)
        plan = SessionPlan(profiles={Side.RIGHT: preset}, duration_s=10.0,
                          seed=42, dominant=Side.RIGHT)
        session = run_plan(plan, subject="acc", condition="quiet")[Side.RIGHT]
        shares = contribution_shares(session, list(reference))
        worst[label] = max(abs(shares[sid] - reference[sid]) for sid in reference)
    ok = worst["noisy"] <= 2.0 and worst["noise-free"] <= 0.1
    report(5, ok, f"share error vs reference table: noisy {worst['noisy']:.3f} "
                  f"(limit 2.0), noise-free {worst['noise-free']:.3f} (limit 0.1)")


def brute_force_twoway_ss(cube):
    """Definitional sums of squares, plain loops only."""
    n_a, n_b, reps = len(cube), len(cube[0]), len(cube[0][0])
    flat = [v for plane in cube for cell in plane for v in cell]
    grand = math.fsum(flat) / len(flat)
    mean_a = [math.fsum(v for cell in plane for v in cell) / (n_b * reps)
              for plane in cube]
    mean_b = [math.fsum(cube[i][j][k] for i in range(n_a) for k in range(reps))
              / (n_a * reps) for j in range(n_b)]
    mean_c = [[math.fsum(cell) / reps for cell in plane] for plane in cube]
    ss_a = n_b * reps * math.fsum((m - grand) ** 2 for m in mean_a)
    ss_b = n_a * reps * math.fsum((m - grand) ** 2 for m in mean_b)
    ss_ab = reps * math.fsum(
        (mean_c[i][j] - mean_a[i] - mean_b[j] + grand) ** 2
        for i in range(n_a) for j in range(n_b)
    )
    ss_err = math.fsum(
        (v - mean_c[i][j]) ** 2
        for i in range(n_a) for j in range(n_b) for v in cube[i][j]
    )
    return ss_a, ss_b, ss_ab, ss_err


def test_06_anova_agrees_with_definitional_oracles(report):
    small = anova_oneway([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
    ok = small.f_stat == 1.5 and abs(small.p_value - 0.2879) <= 1e-3
    rng = random.Random(4321)
    worst = 0.0
    for _ in range(100):
        n_a, n_b = rng.randrange(2, 5), rng.randrange(2, 5)
        reps = rng.randrange(2, 6)
        cube = [[[rng.uniform(-10, 10) for _ in range(reps)] for _ in range(n_b)]
                for _ in range(n_a)]
        got = anova_twoway(np.array(cube))
        for have, want in zip(
            (got.effect_a.ss_between, got.effect_b.ss_between,
             got.interaction.ss_between, got.ss_error),
            brute_force_twoway_ss(cube),
        ):
            worst = max(worst, abs(have - want) / max(abs(want), 1e-30))
    ok = ok and worst <= 1e-9
    report(6, ok, f"one-way F={small.f_stat} p={small.p_value:.4f}; two-way max "
                  f"relative SS error {worst:.2e} over 100 random tables")


def acceptance_cohort():
    sessions = []
    for subj in range(20):
        strength = 1.0 + float(np.random.default_rng([77, subj]).uniform(-0.12, 0.12))
        for cond in ("soft", "hardrock"):
            preset = get_preset("precision_lift").scaled(strength).with_gains(
                condition=condition_gain(cond))
            plan = SessionPlan(
                profiles={Side.LEFT: preset, Side.RIGHT: preset},
                duration_s=10.0,
                seed=subj * 10 + (1 if cond == "hardrock" else 0),
                dominant=Side.RIGHT,
            )
            sessions.extend(run_plan(plan, subject=f"s{subj:02d}", condition=cond).values())
    return sessions


def test_07_condition_and_handedness_effects_replicate(report):
    sessions = acceptance_cohort()
    details = []
    ok = True
    for sid in (2, 4):
        result = anova_from_sessions(sessions, ["condition"], sensors=[sid])
        hard = [session_mean_force(s, sid) for s in sessions if s.condition == "hardrock"]
        soft = [session_mean_force(s, sid) for s in sessions if s.condition == "soft"]
        dom = [session_mean_force(s, sid) for s in sessions
               if s.hand.dominance is Dominance.DOMINANT]
        non = [session_mean_force(s, sid) for s in sessions
               if s.hand.dominance is Dominance.NON_DOMINANT]
        ok = ok and result.p_value < 0.01
        ok = ok and np.mean(hard) > np.mean(soft)
        ok = ok and np.mean(dom) > np.mean(non)
        details.append(f"S{sid} p={result.p_value:.2e} "
                       f"hard {np.mean(hard):.2f}>{np.mean(soft):.2f} soft, "
                       f"dom {np.mean(dom):.2f}>{np.mean(non):.2f} non")
    report(7, ok, "; ".join(details))


def test_08_expert_and_novice_populations_separate(report):
    indices = {}
    for name, seed0 in (("expert", 1000), ("novice", 5000)):
        rows = []
        for k in range(100):
            plan = SessionPlan(profiles={Side.RIGHT: get_preset(name)},
                              duration_s=10.0, seed=seed0 + k, dominant=Side.RIGHT)
            session = run_plan(plan, subject=f"{name}{k:03d}", condition="quiet")[Side.RIGHT]
            rows.append(expertise_index(session))
        indices[name] = rows
    experts, novices = indices["expert"], indices["novice"]
    ok = (
        all(e.ratio > 1.0 for e in experts)
        and all(n.ratio < 1.0 for n in novices)
        and max(e.samples_in_task for e in experts)
        < min(n.samples_in_task for n in novices)
    )
    report(8, ok, f"expert ratio min {min(e.ratio for e in experts):.2f} at "
                  f"{experts[0].samples_in_task} samples; novice ratio max "
                  f"{max(n.ratio for n in novices):.2f} at {novices[0].samples_in_task}")


def test_09_overforce_alert_latency_and_stability(report):
    # ramp: force = (t + 10) / 125 N sampled at 50 Hz, crossing 8 N after 990 ms
    ramp = {7: [int(1.2 * t + 12) for t in range(0, 2000, 20)]}
    session_ramp = mv_session(ramp, subject="acc")
    alerts = monitor_session(session_ramp, AlertPolicy(threshold_n=8.0, debounce=2))
    onset_ok = len(alerts) == 1 and alerts[0].onset_timestamp_ms <= 1040

    # oscillation: one crossing, then values rattling inside the release band
    wobble = [1275, 1275] + [1140 if k % 2 else 1260 for k in range(30)]
    session_wobble = mv_session({3: wobble}, subject="acc")
    wobble_alerts = monitor_session(session_wobble,
                                    AlertPolicy(threshold_n=8.0, hysteresis_n=0.5,
                                                debounce=2))
    ok = onset_ok and len(wobble_alerts) == 1
    report(9, ok, f"ramp onset {alerts[0].onset_timestamp_ms} ms (limit 1040); "
                  f"oscillation raised {len(wobble_alerts)} alert(s)")


def test_10_storage_and_conversions_round_trip(report, tmp_path):
    # lossless session storage, including a sequence gap
    frames = frame_run(random.Random(99), 300, glove=Side.LEFT)
    del frames[40:43]
    builder = SessionBuilder(subject="rt", condition="soft", dominant_side=Side.RIGHT)
    builder.feed(b"".join(encode_frame(f) for f in frames))
    session = builder.session()
    record_session(session, tmp_path)
    lossless = load_session(tmp_path) == session

    rng = random.Random(100)
    cal = Calibration()
    worst = 0.0
    for mode in (ConversionMode.LINEAR, ConversionMode.RATIONAL):
        cfg = GloveConfig(conversion_mode=mode)
        v_top = voltage_from_force(cal.max_force_n, cal, cfg)
        for _ in range(2000):
            f = rng.uniform(0.0, cal.max_force_n)
            back = force_from_voltage(voltage_from_force(f, cal, cfg), cal, cfg)
            worst = max(worst, abs(back - f) / max(f, 1e-30))
            v = rng.uniform(0.0, v_top)
            back_v = voltage_from_force(force_from_voltage(v, cal, cfg), cal, cfg)
            worst = max(worst, abs(back_v - v) / max(v, 1e-30))
    cfg = GloveConfig()
    for _ in range(2000):
        r = 10 ** rng.uniform(math.log10(250.0), 7.0)
        back_r = resistance_from_voltage(divider_voltage(r, cfg), cfg)
        worst = max(worst, abs(back_r - r) / r)
    ok = lossless and worst <= 1e-9
    report(10, ok, f"record/load lossless: {lossless}; worst inverse "
                   f"round-trip error {worst:.2e} (limit 1e-9)")
