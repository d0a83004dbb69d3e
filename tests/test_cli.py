import hashlib
import io
import random
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripstream.alerting import AlertPolicy, format_alert, monitor_session
from gripstream.analytics import anova_from_sessions
from gripstream.cli import build_parser, main
from gripstream.core import (Calibration, Dominance, GloveConfig, Side, force_from_voltage,
                             save_config)
from gripstream.ingest import SessionBuilder, load_sessions, record_session, session_summary
from gripstream.pipeline import session_from_capture
from gripstream.protocol import (FRAME_SIZE, SYNC_BYTE, EventKind, Frame, encode_frame,
                                 encode_records)
from gripstream.simulate import (
    SessionPlan,
    emit_frames,
    encode_session,
    get_preset,
    synthesize_session,
)


def high_force_blob(duration_s=1.0, seed=5, side=Side.RIGHT):
    """Wire bytes for one strong-grip session (S4 holds around 7 N)."""
    cal, cfg = Calibration(), GloveConfig()
    plan = SessionPlan(profiles={side: get_preset("power_grip")},
                      duration_s=duration_s, seed=seed, dominant=Side.RIGHT)
    frames = emit_frames(synthesize_session(plan, cal, cfg)[side], cal, cfg, side=side)
    return encode_session(frames)


def simulate_dir(tmp_path, name="rec", **overrides):
    out = tmp_path / name
    argv = ["simulate", "--preset", "power_grip", "--duration", "1", "--seed", "5",
            "--out", str(out)]
    for flag, value in overrides.items():
        argv += [f"--{flag}", str(value)]
    assert main(argv) == 0
    return out


def test_importing_the_cli_loads_no_network_modules():
    # every command pays for what the CLI imports; the SVG escape used to pull these in,
    # and only analyze and plot analyse or draw
    code = "import sys, gripstream.cli; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True).stdout.split()
    assert not {"xml.sax", "urllib.request", "ssl", "gripstream.analytics",
                "gripstream.svgplot"} & set(loaded)


# ---------------------------------------------------------------------------
# usage errors exit 1 before any data is touched

def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["simulate", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "error" in err and "usage" in err.lower()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "COMMAND" in capsys.readouterr().out


def test_simulate_needs_a_destination(tmp_path, capsys):
    assert main(["simulate", "--preset", "steady"]) == 1
    assert "--out" in capsys.readouterr().err
    assert main(["simulate", "--preset", "nosuch", "--out", str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x").exists()  # nothing written on usage errors


def test_flag_validation_precedes_data_access(tmp_path, capsys):
    missing = str(tmp_path / "absent")
    assert main(["analyze", "--in", missing, "--anova", "hand,sensor,condition"]) == 1
    assert main(["analyze", "--in", missing, "--anova", "hand", "--shares", "S2"]) == 1
    assert main(["monitor", "--in", missing, "--sensors", "S13"]) == 1
    assert main(["monitor", "--in", missing, "--sensors", "S2,2"]) == 1
    assert main(["plot", "--in", missing, "--units", "lbs"]) == 1
    assert main(["simulate", "--hand", "Q", "--out", missing]) == 1
    assert main(["serve", "--sessions", "3"]) == 1
    assert main(["serve", "--port", "65536"]) == 1
    assert main(["serve", "--port", "-1"]) == 1
    capsys.readouterr()
    # each of these used to read --in (and --config) first and exit 2, or run on with a flag
    # dropped; the first word of each message names the flag at fault
    absent_config = str(tmp_path / "absent.cfg")
    for flags in ["--anova subject", "--anova hand,hand", "--population hand,conditon",
                  "--population hand,hand", "--population hand,sensor,condition,hand",
                  "--shares S2,S3 --sensors S1", "--population hand --sensors S1"]:
        argv = ["analyze", "--in", missing, "--config", absent_config, *flags.split()]
        assert main(argv) == 1, flags
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flags.split()[-2]} "), (flags, err)


def test_missing_inputs_are_data_errors(tmp_path, capsys):
    assert main(["analyze", "--in", str(tmp_path)]) == 2
    assert main(["record", "--in", str(tmp_path / "nope.bin"),
                 "--out", str(tmp_path / "d")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, code", [
    ("simulate --duration nan", "", 2),
    ("simulate --duration inf", "", 2),
    ("simulate --noise-sd nan", "", 2),
    ("simulate", "sample_period_ms = nan", 2),
    ("monitor --threshold nan", "", 1),
    ("monitor --threshold inf", "", 1),
    ("analyze --shares S2,S3", "anchor_force_n = inf", 2),
])
def test_non_finite_numbers_exit_like_their_range_check(tmp_path, capsys, command, config, code):
    argv = command.split()
    new = tmp_path / "new"
    argv += ["--out", str(new)] if argv[0] == "simulate" else ["--in", str(simulate_dir(tmp_path))]
    if config:
        (tmp_path / "glove.cfg").write_text(config + "\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "glove.cfg")]
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert captured.out == "" and not new.exists()


@pytest.mark.parametrize("flags, message", [
    ("--seed -1", "seed must be a non-negative integer"),
    ("--duration 1e9", "does not fit the timestamp_ms field"),
    ("--duration 1e308", "timestamp inf ms does not fit"),
])
def test_simulate_refuses_a_plan_it_cannot_run(tmp_path, capsys, flags, message):
    raw = tmp_path / "x.bin"
    assert main(["simulate", *flags.split(), "--raw", str(raw)]) == 2
    assert message in capsys.readouterr().err
    assert not raw.exists()


@pytest.mark.parametrize("command", ["simulate --raw x.bin", "record --in x.bin", "serve"])
@pytest.mark.parametrize("flag, label", [("--subject", "s#1"), ("--subject", "../esc"),
                                         ("--subject", " s01"), ("--condition", "a\nb")])
def test_labels_that_cannot_name_files_are_usage_errors(tmp_path, capsys, monkeypatch,
                                                        command, flag, label):
    def no_bind(*args, **kwargs):
        raise AssertionError("serve bound a port before checking its labels")

    monkeypatch.setattr(socket, "create_server", no_bind)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.bin").write_bytes(high_force_blob(duration_s=0.1))
    argv = [*command.split(), flag, label, "--out", "rec/"]
    assert main(argv) == 1
    assert "is not a label" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.bin"]


# the longest name a recording writes: <subject>_<L|R>_<condition>_battery.tsv.tmp
LONGEST_SUFFIX_BYTES = len("_R_quiet_battery.tsv.tmp")
# with condition quiet, the longest name is exactly 255 bytes; each é takes two of them
SUBJECT_AT_LIMIT = "é" * 100 + "a" * (255 - LONGEST_SUFFIX_BYTES - 200)


def test_a_label_pair_that_names_255_bytes_records_and_loads(tmp_path, capsys):
    out = simulate_dir(tmp_path, subject=SUBJECT_AT_LIMIT)
    (session,) = load_sessions(out)
    assert session.subject == SUBJECT_AT_LIMIT
    assert max(len(p.name.encode()) for p in out.iterdir()) == 255 - len(".tmp")


@pytest.mark.parametrize("command", ["simulate --raw x.bin", "record --in x.bin", "serve"])
def test_a_label_pair_one_byte_too_long_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                         command):
    def no_bind(*args, **kwargs):
        raise AssertionError("serve bound a port before checking its labels")

    monkeypatch.setattr(socket, "create_server", no_bind)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.bin").write_bytes(high_force_blob(duration_s=0.1))
    argv = [*command.split(), "--subject", SUBJECT_AT_LIMIT + "a", "--out", "rec/"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "make a 256-byte file name; a file name takes at most 255 bytes" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.bin"]


def test_unknown_config_key_is_a_data_error(tmp_path, capsys):
    config = tmp_path / "glove.cfg"
    config.write_text("sample_perod_ms = 10\n", encoding="utf-8")
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "rec"),
            "--raw", str(tmp_path / "x.bin")]
    assert main(argv) == 2
    assert "unknown config key 'sample_perod_ms'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["glove.cfg"]


@pytest.mark.parametrize("token", ["S1_2", "SS4", "S+2", "S\u0662", "-3", "S", ""])
def test_a_sensor_id_is_one_optional_s_then_ascii_digits(tmp_path, capsys, token):
    # int() alone read S1_2 as 12, SS4 as 4, S+2 and an Arabic-Indic two as 2
    argv = ["monitor", "--in", str(tmp_path / "absent"), "--sensors", f"S1,{token}"]
    assert main(argv) == 1
    assert f"error: bad sensor id {token!r}; use forms like S2 or 2" in capsys.readouterr().err


def test_a_sensor_id_may_be_lowercase_spaced_or_zero_padded():
    args = build_parser().parse_args(["analyze", "--in", "rec", "--shares", " S2, s3,012,7"])
    assert args.shares == [2, 3, 12, 7]


@pytest.mark.parametrize("key, meant", [("sensor_S1_0", "sensor_S10"),
                                        ("sensor_S\u0661", "sensor_S1")])
def test_a_config_sensor_key_is_ascii_digits(tmp_path, capsys, key, meant):
    config = tmp_path / "glove.cfg"
    save_config(config, GloveConfig(), Calibration())
    text = config.read_text(encoding="utf-8")
    assert f"\n{meant} = " in text
    config.write_text(text.replace(f"\n{meant} = ", f"\n{key} = "), encoding="utf-8")
    argv = ["simulate", "--config", str(config), "--raw", str(tmp_path / "x.bin")]
    assert main(argv) == 2
    assert f"error: bad sensor key {key!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["glove.cfg"]


@pytest.mark.parametrize("written, edited, message", [
    ("fingertip_thumb:10", "fingertip_thumb:1_0", "sensor_S1: bad diameter '1_0'"),
    ("fingertip_thumb:10", "fingertip_thumb:\u0661\u0660", "sensor_S1: bad diameter '\u0661\u0660'"),
    ("pulldown_ohm = 10000.0", "pulldown_ohm = 1_0000", "pulldown_ohm: not a number: '1_0000'"),
    ("supply_voltage_v = 3.3", "supply_voltage_v = \u0663.\u0663",
     "supply_voltage_v: not a number: '\u0663.\u0663'"),
], ids=["diameter-underscore", "diameter-arabic-indic", "float-underscore", "float-arabic-indic"])
def test_config_numbers_are_ascii(tmp_path, capsys, written, edited, message):
    config = tmp_path / "glove.cfg"
    save_config(config, GloveConfig(), Calibration())
    text = config.read_text(encoding="utf-8")
    assert written in text
    config.write_text(text.replace(written, edited), encoding="utf-8")
    argv = ["simulate", "--config", str(config), "--raw", str(tmp_path / "x.bin")]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["glove.cfg"]


@pytest.mark.parametrize("command, name", [("simulate", "glove.cfg"),
                                           ("analyze", "anon_R_quiet_meta.txt")])
def test_a_file_that_is_not_utf8_is_a_data_error(tmp_path, capsys, command, name):
    out = simulate_dir(tmp_path)
    path = out / name
    path.write_bytes(b"subject = caf\xe9\n")
    argv = ([command, "--config", str(path), "--raw", str(tmp_path / "x.bin")]
            if command == "simulate" else [command, "--in", str(out)])
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path} is not UTF-8 text: byte 13 is 0xe9\n"
    assert not (tmp_path / "x.bin").exists()


@pytest.mark.parametrize("name, old, new, message", [
    ("anon_R_quiet_S3.tsv", None, "20\t" + "1" * 1_000_000,
     ":1: '20\\t" + "1" * 77 + "…' (1000003 characters) is not <timestamp>TAB<value>LF"),
    ("anon_R_quiet_meta.txt", "frames = 50\n", "frames = 50\ngaps = " + "x" * 100_000 + "\n",
     ": bad gap entry '" + "x" * 80 + "…' (100000 characters)\n"),
    ("anon_R_quiet_meta.txt", "hand = R\n", "hand = " + "R" * 100_000 + "\n",
     ": '" + "R" * 80 + "…' (100000 characters) is not a valid Side\n"),
    ("anon_R_quiet_meta.txt", "subject = anon\n", "subject = " + "!" * 100_000 + "\n",
     ": subject '" + "!" * 80 + "…' (100000 characters) is not a label"),
    ("anon_R_quiet_meta.txt", "subject = anon\n", "subject = " + "a" * 100_000 + "\n",
     ": subject '" + "a" * 80 + "…' (100000 characters) and condition 'quiet' make a "
     "100024-byte file name"),
], ids=["column-line", "gap-entry", "hand", "subject", "subject-length"])
def test_a_load_error_quotes_at_most_80_characters(tmp_path, capsys, name, old, new, message):
    out = simulate_dir(tmp_path)
    path = out / name
    text = path.read_text(encoding="utf-8")
    path.write_text(new if old is None else text.replace(old, new), encoding="utf-8")
    capsys.readouterr()
    assert main(["analyze", "--in", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}{message}")
    assert err.count("\n") == 1 and len(err.encode()) < 1024


def test_simulate_starts_the_battery_at_the_configured_voltage(tmp_path, capsys):
    config = tmp_path / "glove.cfg"
    save_config(config, GloveConfig(battery_nominal_v=3.7), Calibration())
    out = simulate_dir(tmp_path, config=config)
    (session,) = load_sessions(out)
    assert session.battery_mv[[0, -1]].tolist() == [3700, 3699]
    save_config(config, GloveConfig(battery_nominal_v=4.5), Calibration())
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "hot")]) == 2
    assert "battery_nominal_v 4.5 V" in capsys.readouterr().err
    assert not (tmp_path / "hot").exists()


def test_out_of_memory_is_a_data_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 19.2 GiB")

    monkeypatch.setattr("gripstream.cli.capture_plan", exhausted)
    assert main(["simulate", "--raw", str(tmp_path / "x.bin")]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 19.2 GiB\n"


# ---------------------------------------------------------------------------
# simulate / record round trips

def test_simulate_writes_loadable_sessions(tmp_path, capsys):
    out = simulate_dir(tmp_path, subject="s01", condition="hardrock")
    assert "recorded" in capsys.readouterr().err
    (session,) = load_sessions(out)
    assert session.subject == "s01"
    assert session.condition == "hardrock"
    assert session.frame_count == 50
    assert session.hand.dominance is Dominance.DOMINANT


def test_simulate_both_hands_writes_two_sessions(tmp_path, capsys):
    # each session's hand is read off its capture's glove byte
    for dominant, dominance in (("L", [Dominance.DOMINANT, Dominance.NON_DOMINANT]),
                                ("R", [Dominance.NON_DOMINANT, Dominance.DOMINANT])):
        out = tmp_path / f"pair_{dominant}"
        raw = tmp_path / f"cap{dominant}.bin"
        assert main(["simulate", "--hand", "both", "--dominant", dominant, "--duration", "0.5",
                     "--out", str(out), "--raw", str(raw)]) == 0
        capsys.readouterr()
        sessions = load_sessions(out)
        assert [s.hand.side for s in sessions] == [Side.LEFT, Side.RIGHT]
        assert [s.hand.dominance for s in sessions] == dominance
        assert (tmp_path / f"cap{dominant}_L.bin").stat().st_size == 25 * 36
        assert (tmp_path / f"cap{dominant}_R.bin").stat().st_size == 25 * 36


def test_record_matches_simulate_for_the_same_stream(tmp_path, capsys):
    sim_out = simulate_dir(tmp_path, name="direct")
    raw = tmp_path / "cap.bin"
    raw.write_bytes(high_force_blob())
    rec_out = tmp_path / "replayed"
    assert main(["record", "--in", str(raw), "--out", str(rec_out)]) == 0
    err = capsys.readouterr().err
    assert "50 frames, 600 samples" in err
    (direct,) = load_sessions(sim_out)
    (replayed,) = load_sessions(rec_out)
    for column in ("timestamps_ms", "voltages_mv", "battery_mv"):
        assert np.array_equal(getattr(replayed, column), getattr(direct, column))
    assert replayed.hand == direct.hand


def test_record_reads_stdin_and_reports_partial_tail(tmp_path, capsys, monkeypatch):
    blob = high_force_blob(duration_s=0.5)
    monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(blob + blob[:20])})())
    out = tmp_path / "fromstdin"
    assert main(["record", "--in", "-", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "25 frames" in err and "20 byte(s) of trailing partial frame" in err
    (session,) = load_sessions(out)
    assert session.frame_count == 25


def salted_capture() -> bytes:
    """About 200 KiB of one glove's frames, damaged, with two 64 KiB window edges placed.

    One frame in 100 is never sent, one byte in 400 is flipped and a partial
    frame ends it. A 1,000-byte garbage run with false sync bytes spans
    offset 65,536, and offset 131,072 falls 4 bytes into a frame.
    """
    rng = np.random.default_rng(26)
    pos = np.delete(np.arange(5600), rng.choice(5600, 56, replace=False))
    records = encode_records(Side.RIGHT, pos & 0xFFFF, 20 * pos, np.full(len(pos), 4100),
                             rng.integers(0, 3300, (len(pos), 12))).tobytes()
    garbage = bytearray(rng.bytes(1000))
    garbage[::50] = b"\xa5" * 20
    cut = 1800 * FRAME_SIZE
    assert cut < 1 << 16 < cut + len(garbage)
    assert ((2 << 16) - len(garbage)) % FRAME_SIZE == 4
    blob = bytearray(records[:cut] + garbage + records[cut:])
    for at in rng.choice(len(blob), len(blob) // 400, replace=False):
        blob[at] ^= 0xFF
    return bytes(blob) + records[:20]


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_record_feeds_a_capture_in_64_kib_windows(tmp_path, capsys, monkeypatch, source):
    blob = salted_capture()
    started = "2026-01-02T03:04:05"
    builder = SessionBuilder(started_at=started)  # the whole capture in one feed
    appended, events = builder.feed(blob)
    assert {EventKind.SYNC_LOSS, EventKind.SEQUENCE_GAP} <= {ev.kind for ev in events}
    want = tmp_path / "want"
    record_session(builder.session(), want)

    sizes = []
    feed = SessionBuilder.feed

    def windowed_feed(self, data):
        sizes.append(len(data))
        return feed(self, data)

    monkeypatch.setattr(SessionBuilder, "feed", windowed_feed)
    monkeypatch.setattr("gripstream.cli._now", lambda: started)
    raw = tmp_path / "cap.bin"
    raw.write_bytes(blob)
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(blob)})())
    got = tmp_path / "got"
    capsys.readouterr()
    assert main(["record", "--in", "-" if source == "stdin" else str(raw), "--out", str(got)]) == 0
    assert sum(sizes) == len(blob) and len(sizes) == 4 and max(sizes) == 1 << 16
    assert capsys.readouterr().err == (
        f"recorded {got / 'anon_R_quiet_meta.txt'}\n"
        f"{builder.frames} frames, {appended} samples, {len(events)} event(s), "
        f"{builder.pending_bytes} byte(s) of trailing partial frame\n"
    )
    assert sorted(p.name for p in got.iterdir()) == sorted(p.name for p in want.iterdir())
    for path in want.iterdir():
        assert (got / path.name).read_bytes() == path.read_bytes(), path.name


def test_record_counts_an_outage_in_the_configured_sample_period(tmp_path, capsys):
    # 65,536 frames missing at 10 ms: the seq steps by one, the clock by 655,370 ms
    before = Frame(Side.RIGHT, 9, 0, 4000, (0,) * 12)
    after = Frame(Side.RIGHT, 10, 10 * 65537, 4000, (0,) * 12)
    raw = tmp_path / "cap.bin"
    raw.write_bytes(encode_frame(before) + encode_frame(after))
    config = tmp_path / "glove.cfg"
    save_config(config, GloveConfig(sample_period_ms=10.0), Calibration())
    out = tmp_path / "rec"
    assert main(["record", "--in", str(raw), "--out", str(out), "--config", str(config)]) == 0
    (session,) = load_sessions(out)
    assert [ev.missing_count for ev in session.gaps] == [65536]


# ---------------------------------------------------------------------------
# analyze / export / plot / monitor over recorded sessions

def build_cohort(tmp_path):
    out = tmp_path / "cohort"
    seed = 0
    for subject in ("pa", "pb"):
        for condition in ("quiet", "hardrock"):
            seed += 1
            argv = ["simulate", "--preset", "precision_lift", "--subject", subject,
                    "--condition", condition, "--seed", str(seed), "--duration", "0.5",
                    "--out", str(out)]
            assert main(argv) == 0
    return out


def test_analyze_summary_lists_each_session(tmp_path, capsys):
    out = build_cohort(tmp_path)
    capsys.readouterr()
    assert main(["analyze", "--in", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("subject,hand,condition,frames,duration_s")
    assert len(lines) == 5
    assert all(",25,0.480," in line for line in lines[1:])


def test_analyze_anova_matches_library_results(tmp_path, capsys):
    out = build_cohort(tmp_path)
    capsys.readouterr()
    assert main(["analyze", "--in", str(out), "--anova", "condition",
                 "--sensors", "S2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "effect,f_stat,df_between,df_within,p_value"
    effect, f_str, dfb, dfw, p_str = lines[1].split(",")
    want = anova_from_sessions(load_sessions(out), ["condition"], sensors=[2])
    assert effect == "group"
    assert f_str == f"{want.f_stat:.6g}"
    assert (int(dfb), int(dfw)) == (want.df_between, want.df_within)
    assert p_str == f"{want.p_value:.6g}"


def test_analyze_two_factor_anova_rows(tmp_path, capsys):
    out = build_cohort(tmp_path)
    capsys.readouterr()
    assert main(["analyze", "--in", str(out), "--anova", "condition,sensor",
                 "--sensors", "S2,S3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    effects = [line.split(",")[0] for line in lines[1:]]
    assert effects == ["condition", "sensor", "condition*sensor"]


def test_analyze_shares_sum_to_100_per_session(tmp_path, capsys):
    out = build_cohort(tmp_path)
    capsys.readouterr()
    assert main(["analyze", "--in", str(out), "--shares", "S2,S3,S4,S5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "subject,hand,condition,sensor,share_pct"
    assert len(lines) == 1 + 4 * 4
    totals = {}
    for line in lines[1:]:
        subject, _, condition, _, share = line.split(",")
        key = (subject, condition)
        totals[key] = totals.get(key, 0.0) + float(share)
    assert all(total == pytest.approx(100.0, abs=1e-3) for total in totals.values())


def test_analyze_population_table(tmp_path, capsys):
    out = build_cohort(tmp_path)
    capsys.readouterr()
    assert main(["analyze", "--in", str(out), "--population", "condition"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "condition,mean_force_n"
    assert sorted(line.split(",")[0] for line in lines[1:]) == ["hardrock", "quiet"]
    # all three keys, given in any order, group in hand, sensor, condition order
    assert main(["analyze", "--in", str(out), "--population", "condition,sensor,hand"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "hand,sensor,condition,mean_force_n"
    assert len(lines) == 1 + 12 * 2  # one dominant hand, 12 sensors, two conditions


def test_export_writes_flat_csv(tmp_path, capsys):
    out = simulate_dir(tmp_path)
    dest = tmp_path / "flat.csv"
    assert main(["export", "--in", str(out), "--out", str(dest)]) == 0
    assert "exported 600 row(s) from 1 session(s)" in capsys.readouterr().err
    lines = dest.read_text().splitlines()
    assert lines[0] == "timestamp_ms,glove,sensor,voltage_mv"
    assert len(lines) == 601


def test_plot_renders_svg_per_sensor(tmp_path, capsys):
    out = simulate_dir(tmp_path)
    dest = tmp_path / "chart.svg"
    assert main(["plot", "--in", str(out), "--sensor", "S2,S4,S7",
                 "--out", str(dest)]) == 0
    capsys.readouterr()
    svg = dest.read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert svg.count("<polyline") == 3
    assert "anon quiet R S4" in svg


def test_plot_missing_sensor_file_is_data_error(tmp_path, capsys):
    out = simulate_dir(tmp_path)
    (out / "anon_R_quiet_S2.tsv").unlink()
    assert main(["plot", "--in", str(out), "--out", str(tmp_path / "x.svg")]) == 2
    assert "error" in capsys.readouterr().err


def test_monitor_prints_alert_lines(tmp_path, capsys):
    out = simulate_dir(tmp_path)
    assert main(["monitor", "--in", str(out), "--threshold", "3",
                 "--sensors", "S4"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("ALERT glove=R sensor=S4 onset=20 peak=")
    assert "1 alert(s) across 1 session(s)" in captured.err


def test_monitor_stays_quiet_below_threshold(tmp_path, capsys):
    out = simulate_dir(tmp_path)
    assert main(["monitor", "--in", str(out), "--threshold", "19.5"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0 alert(s)" in captured.err


def test_monitor_refuses_a_recorded_voltage_at_or_above_the_supply(tmp_path, capsys):
    out = simulate_dir(tmp_path)  # S4 reads 1065 mV at its first sample
    config = tmp_path / "low.cfg"
    save_config(config, GloveConfig(supply_voltage_v=1.05), Calibration(anchor_voltage_mv=500))
    capsys.readouterr()
    assert main(["monitor", "--in", str(out), "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the index is (watched sensor, sample): S4 is the fourth sensor watched
    assert captured.err == "error: voltage 1065 mV at sample index 3, 0 outside [0, 1050) mV\n"


# ---------------------------------------------------------------------------
# live ingestion over a socket

SERVE_WATCHDOG_S = 60  # far past any serve test's run; a serve this old is killed


@contextmanager
def start_serve(*flags):
    """`serve` on an ephemeral port, read up to its listening line; yields it and the port.

    A watchdog kills a serve still running after SERVE_WATCHDOG_S, so a test
    that waits for a line serve never prints reads the end of its stderr and
    fails instead of hanging. A serve still running when the block ends is killed.
    """
    with subprocess.Popen(
        [sys.executable, "-m", "gripstream", "serve", "--port", "0", *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        watchdog = threading.Timer(SERVE_WATCHDOG_S, proc.kill)
        watchdog.start()
        try:
            banner = proc.stderr.readline()
            assert banner.startswith("listening on 127.0.0.1:")
            yield proc, int(banner.rsplit(":", 1)[1])
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()


@st.composite
def damaged_gloves(draw):
    """One glove's power_grip lift capture or both, damaged, and how to cut the wire.

    The damage is that of test_ingest.damaged_links: dropped frames, garbage
    runs (holding false sync bytes) before a frame, and 1-3 flipped bits in a
    frame. Returns (blobs by side, seed of the 1-200-byte pieces, debounce).
    """
    sides = draw(st.sampled_from([(Side.RIGHT,), (Side.LEFT,), tuple(Side)]))
    plan = SessionPlan(profiles={side: get_preset("power_grip") for side in sides},
                       duration_s=3.0, seed=draw(st.integers(0, 1000)), dominant=Side.RIGHT,
                       waveform="lift")
    blobs = {}
    for side, matrix in synthesize_session(plan).items():
        blob = encode_session(emit_frames(matrix, side=side))
        frames = [blob[at:at + FRAME_SIZE] for at in range(0, len(blob), FRAME_SIZE)]
        damage = draw(st.dictionaries(st.integers(0, len(frames) - 1),
                                      st.sampled_from(("drop", "flip", "garbage")), max_size=20))
        for k, op in damage.items():
            if op == "drop":
                frames[k] = b""
            elif op == "garbage":
                noise = st.just(SYNC_BYTE) | st.integers(0, 255)
                frames[k] = bytes(draw(st.lists(noise, min_size=1, max_size=50))) + frames[k]
            else:
                flipped = bytearray(frames[k])
                for bit in draw(st.sets(st.integers(0, 8 * FRAME_SIZE - 1), min_size=1,
                                        max_size=3)):
                    flipped[bit // 8] ^= 1 << (bit % 8)
                frames[k] = bytes(flipped)
        blobs[side] = b"".join(frames)
    return blobs, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 3))


@settings(max_examples=10, deadline=None)
@given(damaged_gloves())
def test_serve_records_and_alerts_as_record_and_monitor_do(case):
    blobs, seed, debounce = case
    rng = random.Random(seed)
    policy = AlertPolicy(threshold_n=5.0, debounce=debounce)
    cal, cfg = Calibration(), GloveConfig()
    with tempfile.TemporaryDirectory() as tmp:
        live, offline = Path(tmp, "live"), Path(tmp, "offline")
        with start_serve("--sessions", str(len(blobs)), "--threshold", "5",
                         "--debounce", str(debounce), "--out", str(live)) as (proc, port):
            socks = {side: socket.create_connection(("127.0.0.1", port), timeout=10)
                     for side in blobs}
            sent = dict.fromkeys(blobs, 0)
            while unsent := [side for side in blobs if sent[side] < len(blobs[side])]:
                side = rng.choice(unsent)  # the gloves' pieces interleave
                step = rng.randint(1, 200)
                socks[side].sendall(blobs[side][sent[side]:sent[side] + step])
                sent[side] += step
            for sock in socks.values():
                sock.close()
            _, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 0, stderr
        for side, blob in blobs.items():
            capture = Path(tmp, f"{side.value}.bin")
            capture.write_bytes(blob)
            assert main(["record", "--in", str(capture), "--out", str(offline)]) == 0
        # (a) the files record writes from the same bytes, apart from the start time
        assert sorted(p.name for p in live.iterdir()) == sorted(p.name for p in offline.iterdir())
        for path in offline.iterdir():
            got, want = (live / path.name).read_bytes(), path.read_bytes()
            if path.name.endswith("_meta.txt"):
                got, want = ([line for line in text.splitlines()
                              if not line.startswith(b"started_at = ")] for text in (got, want))
            assert got == want, path.name
        lines = stderr.splitlines()
        for session in load_sessions(live):
            # (b) monitor's episodes, each with its peak when it opened: the debounce window's
            forces = force_from_voltage(session.voltages_mv.T, cal, cfg)
            want = []
            for alert in monitor_session(session, policy, cal, cfg):
                onset = int(np.searchsorted(session.timestamps_ms, alert.onset_timestamp_ms))
                peak = float(forces[alert.sensor - 1, onset - debounce + 1:onset + 1].max())
                want.append("\a" + format_alert(replace(alert, peak_force_n=peak)))
            glove = f"\aALERT glove={session.hand.side.value} "
            assert [line for line in lines if line.startswith(glove)] == want
            # (c) the summary line
            summary = session_summary(session)
            assert (f"session {session.stem}: {summary.frames} frames, {summary.gap_count} gap(s), "
                    f"battery {summary.battery_final_mv} mV") in lines


def test_serve_ingests_alerts_and_records(tmp_path):
    out = tmp_path / "live"
    with start_serve("--sessions", "1", "--subject", "live", "--threshold", "3",
                     "--sensors", "S4", "--out", str(out)) as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(high_force_blob(duration_s=1.0, seed=9))
        stdout, stderr = proc.communicate(timeout=30)
    assert proc.returncode == 0, stderr
    assert "ALERT glove=R sensor=S4" in stderr
    assert "recorded" in stderr
    assert "session live_R_quiet: 50 frames, 0 gap(s)" in stderr
    (session,) = load_sessions(out)
    assert session.subject == "live" and session.frame_count == 50


def test_serve_records_what_arrived_before_a_reset(tmp_path):
    out = tmp_path / "live"
    with start_serve("--sessions", "1", "--subject", "cut", "--threshold", "3",
                     "--sensors", "S4", "--out", str(out)) as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(high_force_blob(duration_s=1.0, seed=9))
            line = proc.stderr.readline()
            while line and "ALERT" not in line:
                line = proc.stderr.readline()
            assert "ALERT" in line
            # linger 0: close sends a reset instead of a clean end of stream
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        _, stderr = proc.communicate(timeout=30)
    assert proc.returncode == 2, stderr
    assert "error:" in stderr
    (session,) = load_sessions(out)
    assert session.subject == "cut" and session.frame_count > 0


def test_serve_records_what_arrived_before_a_stall(tmp_path):
    config = tmp_path / "glove.cfg"
    cfg = GloveConfig(sample_period_ms=2.0)  # 1,000 periods: no byte for 2 s is a stall
    save_config(config, cfg, Calibration())
    plan = SessionPlan(profiles={Side.RIGHT: get_preset("steady")}, duration_s=0.1)
    blob = encode_session(emit_frames(synthesize_session(plan, cfg=cfg)[Side.RIGHT], cfg=cfg))
    out = tmp_path / "live"
    with start_serve("--sessions", "1", "--config", str(config),
                     "--out", str(out)) as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(blob)  # 50 frames, then silence with the socket held open
            _, stderr = proc.communicate(timeout=10)
    assert proc.returncode == 2, stderr
    assert "error: no byte came for 2 s" in stderr
    (session,) = load_sessions(out)
    assert session.frame_count == 50


def test_serve_records_what_arrived_before_a_sample_it_cannot_convert(tmp_path):
    config = tmp_path / "glove.cfg"
    save_config(config, GloveConfig(supply_voltage_v=2.5), Calibration())
    frames = [Frame(Side.RIGHT, k, 20 * k, 4000, (600,) * 12) for k in range(50)]
    frames[-1] = Frame(Side.RIGHT, 49, 980, 4000, (600,) * 11 + (2600,))  # over the supply
    out = tmp_path / "live"
    with start_serve("--sessions", "1", "--config", str(config),
                     "--out", str(out)) as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(b"".join(encode_frame(f) for f in frames))
        _, stderr = proc.communicate(timeout=30)
    assert proc.returncode == 2, stderr
    assert "session anon_R_quiet: 50 frames, 0 gap(s)" in stderr
    assert "error: voltage 2600 mV outside [0, 2500) mV" in stderr
    (session,) = load_sessions(out)
    assert session.frame_count == 50


def test_serve_refuses_to_overwrite_a_session_of_the_same_glove(tmp_path):
    out = tmp_path / "live"
    with start_serve("--sessions", "2", "--threshold", "19.9",
                     "--out", str(out)) as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(high_force_blob(duration_s=2.0, seed=9))  # 100 frames
        line = proc.stderr.readline()
        while line and "recorded" not in line:
            line = proc.stderr.readline()
        assert "anon_R_quiet_meta.txt" in line
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(high_force_blob(duration_s=3.0, seed=10))  # 150 frames
        _, stderr = proc.communicate(timeout=30)
    assert proc.returncode == 2, stderr
    assert not [line for line in stderr.splitlines() if line.startswith("recorded")]
    assert "session anon_R_quiet: 150 frames" in stderr
    assert "error: session anon_R_quiet already came from another connection" in stderr
    (session,) = load_sessions(out)
    assert session.frame_count == 100


def test_serve_refuses_a_connection_past_its_sessions(tmp_path):
    out = tmp_path / "live"
    with start_serve("--sessions", "1", "--threshold", "3", "--sensors", "S4",
                     "--out", str(out)) as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(high_force_blob(duration_s=1.0, seed=9))
            # an alert comes from a read after the accept, so the accept is complete
            line = proc.stderr.readline()
            while line and "ALERT" not in line:
                line = proc.stderr.readline()
            assert "ALERT" in line
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", port), timeout=10).close()
        _, stderr = proc.communicate(timeout=30)
    assert proc.returncode == 0, stderr
    (session,) = load_sessions(out)
    assert session.frame_count == 50


def test_serve_takes_two_gloves_at_once(tmp_path):
    blobs = {side: high_force_blob(duration_s=2.0, seed=9, side=side) for side in Side}
    out = tmp_path / "live"
    with start_serve("--sessions", "2", "--threshold", "3", "--out", str(out)) as (proc, port):
        socks = {side: socket.create_connection(("127.0.0.1", port), timeout=10) for side in blobs}
        rng = random.Random(15)
        sent = dict.fromkeys(blobs, 0)
        while any(sent[side] < len(blob) for side, blob in blobs.items()):
            for side, sock in socks.items():  # 36-72 bytes from each glove in turn
                step = rng.randint(36, 72)
                sock.sendall(blobs[side][sent[side]:sent[side] + step])
                sent[side] += step
        # both gloves alert while both connections are open; start_serve's watchdog
        # ends a serve that waits for one connection to end before it reads the other
        seen = [proc.stderr.readline()]
        while seen[-1] and not ("ALERT glove=L " in "".join(seen)
                                and "ALERT glove=R " in "".join(seen)):
            seen.append(proc.stderr.readline())
        assert seen[-1], "".join(seen)
        for sock in socks.values():
            sock.close()
        _, rest = proc.communicate(timeout=30)
    stderr = "".join(seen) + rest
    assert proc.returncode == 0, stderr
    recorded = {session.hand.side: session for session in load_sessions(out)}
    for side, blob in blobs.items():
        want, got = session_from_capture(blob, Side.RIGHT), recorded[side]
        assert got.frame_count == want.frame_count == 100
        assert got.hand == want.hand and got.stem == want.stem
        for column in ("timestamps_ms", "voltages_mv", "battery_mv"):
            assert np.array_equal(getattr(got, column), getattr(want, column))
        assert got.gaps == want.gaps


def test_serve_records_a_stalled_glove_at_its_own_deadline(tmp_path):
    config = tmp_path / "glove.cfg"
    cfg = GloveConfig(sample_period_ms=2.0)  # 1,000 periods: no byte for 2 s is a stall
    save_config(config, cfg, Calibration())
    plan = SessionPlan(profiles={side: get_preset("steady") for side in Side}, duration_s=0.4)
    blobs = {side: encode_session(emit_frames(matrix, cfg=cfg, side=side))
             for side, matrix in synthesize_session(plan, cfg=cfg).items()}
    out = tmp_path / "live"
    with start_serve("--sessions", "2", "--config", str(config),
                     "--out", str(out)) as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as stalled, \
                socket.create_connection(("127.0.0.1", port), timeout=10) as streaming:
            stalled.sendall(blobs[Side.LEFT][:50 * 36])  # then silence with the socket held open
            blob = blobs[Side.RIGHT]
            for at in range(0, len(blob), 4 * 36):  # 200 frames over 3.5 s, a read every 70 ms
                streaming.sendall(blob[at:at + 4 * 36])
                time.sleep(0.07)
            streaming.close()
            _, stderr = proc.communicate(timeout=30)
    assert proc.returncode == 2, stderr
    assert "error: no byte came for 2 s" in stderr
    # the stalled glove was recorded while the other one still streamed
    assert (stderr.index("session anon_L_quiet: 50 frames")
            < stderr.index("session anon_R_quiet: 200 frames"))
    recorded = {session.hand.side: session.frame_count for session in load_sessions(out)}
    assert recorded == {Side.LEFT: 50, Side.RIGHT: 200}


def ctrl_c_serve(tmp_path, sessions):
    """One glove's 50 frames into `serve --sessions N`, then SIGINT; returns serve's stderr."""
    frames = [Frame(Side.RIGHT, k, 20 * k, 4000, (300,) * 12) for k in range(49)]
    frames.append(Frame(Side.RIGHT, 49, 980, 4000, (1500,) * 12))  # 10 N: the last frame alerts
    with start_serve("--sessions", str(sessions), "--threshold", "6", "--debounce", "1",
                     "--sensors", "S4", "--out", str(tmp_path / "live")) as (proc, port):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(b"".join(encode_frame(f) for f in frames))
            seen = [proc.stderr.readline()]
            while seen[-1] and "ALERT" not in seen[-1]:
                seen.append(proc.stderr.readline())
            assert "ALERT" in seen[-1]  # every frame has been taken in
            proc.send_signal(signal.SIGINT)
            # the peer stays open until serve's traceback is out
            while seen[-1] and seen[-1] != "KeyboardInterrupt\n":
                seen.append(proc.stderr.readline())
        _, rest = proc.communicate(timeout=30)
    stderr = "".join(seen) + rest
    assert proc.returncode == -signal.SIGINT, stderr
    return stderr


def test_serve_records_what_arrived_before_ctrl_c(tmp_path):
    # Ctrl-C while serve still waits for the second glove
    stderr = ctrl_c_serve(tmp_path, sessions=2)
    assert "session anon_R_quiet: 50 frames, 0 gap(s)" in stderr
    (session,) = load_sessions(tmp_path / "live")
    assert session.frame_count == 50


def test_serve_records_every_open_connection_on_ctrl_c(tmp_path):
    # Ctrl-C with every connection open: serve records them before it stops,
    # so the peer's close cannot be what records
    stderr = ctrl_c_serve(tmp_path, sessions=1)
    assert (stderr.index("session anon_R_quiet: 50 frames, 0 gap(s)")
            < stderr.index("KeyboardInterrupt\n"))
    (session,) = load_sessions(tmp_path / "live")
    assert session.frame_count == 50


# ---------------------------------------------------------------------------
# a reader that stops early

@pytest.mark.parametrize("command", ["export", "monitor --threshold 3", "analyze"])
def test_a_closed_stdout_ends_the_command_quietly(tmp_path, command):
    out = simulate_dir(tmp_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "gripstream", *command.split(), "--in", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # as `| head -1` does once it has its line, but before any write
    try:
        _, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert (proc.returncode, stderr) == (0, b"")


def test_a_reader_that_leaves_mid_export_ends_it_quietly(tmp_path):
    out = simulate_dir(tmp_path, duration=30)  # about 270 kB of CSV, past a pipe's buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "gripstream", "export", "--in", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"timestamp_ms,glove,sensor,voltage_mv\r\n"
    proc.stdout.close()  # as `| head -1` does, with most of the CSV still to come
    try:
        _, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert (proc.returncode, stderr) == (0, b"")


def test_an_out_file_that_cannot_be_written_is_a_data_error(tmp_path, capsys):
    out = simulate_dir(tmp_path)
    assert main(["export", "--in", str(out), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# golden run: every output byte of a fixed-seed session pinned by digest

def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digest(directory) -> str:
    """One digest over every file's name and contents, in name order."""
    return _digest("".join(f"{p.name}\t{_digest(p.read_bytes())}\n"
                           for p in sorted(directory.iterdir())).encode())


GOLDEN = {
    "analyze anova stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "analyze anova stdout": "d4b8594beb10fe1a8c0fb6819a232e11d4dfef82464dbabf41d7777d94bed9d8",
    "analyze damaged stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "analyze damaged stdout": "db266b013d34bddc983c2f4462505e8198c992b7eaeaccc0899adccef9677330",
    "analyze population stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "analyze population stdout": "aaff94ab4d6b7d2d0e37222a9fd5dc5cca8f2d5acf01cdaf481a6de5f40d52c6",
    "analyze shares stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "analyze shares stdout": "4bac033edfeee17b873cfe8136631cc9bb55fbf8cce784a8796aae8f87b711f1",
    "analyze summary stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "analyze summary stdout": "f25adc2cc914e9498cf710490282bb4d001782d46ab67149ce394f7a09ce5e30",
    "damaged/": "ab764c19996abf3728ad2b21d33d610a6491f3b10f415ea78d4983cb687aa119",
    "export stderr": "77cf356ef5c017160ebe2092309563176ce188c0753a7967abd04d58e69c22ba",
    "export stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "flat.csv": "3d96bbc62435806ab8223b95caf80bfc0578608ff66f5af26780a422f5366e6a",
    "monitor stderr": "a976b98755c3a53535a2dfe2d6a1b94a8ca5053bbd993d6f0a26382f6ae18d80",
    "monitor stdout": "eb08d681d4f65802ee3f4330f5862e536c045cbb7c701ea42fe37f46fb2e45ae",
    "mv.svg": "e0747d9c594d4c005b014717d919e7842cebea2e0baef57b7d1d292a39405fa7",
    "n.svg": "478d84a1217f4a1a9f6ac90eaa804bceaf22acdc2c27b1e2859b8be7511224c5",
    "plot mv stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "plot mv stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "plot n stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "plot n stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "rec/": "6c417cedd9d5975b88354247ff78dea478bab8ce18b4475f1ccd05ac551b8e5e",
    "record stderr": "a60bc15871f4d73c4f1ec2a60f5d5822f938113cb11d20b1f82df89787756936",
    "record stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "s01_hardrock_L.bin": "59e564da4b15ff60b9ca84441dd9f9c7b037894bbd352b252e9787e49b660890",
    "s01_hardrock_R.bin": "2672064f7b558e9085cfbc78c9b6ebbe496151a9ce6508328e053ae96ecdb085",
    "s01_quiet_L.bin": "de6a5d5c832100c718382023cf197b96ad91a78e9b1ee29663dba02ee23c4463",
    "s01_quiet_R.bin": "975cfe0d6c3d517f3487458d61371b0ad067a82d815e1c2a05eae675539e1aaf",
    "s02_hardrock_L.bin": "ef53655105a22374e0a3096798f84f63a95cea38be4eb20ab2bc61d75cf99a4b",
    "s02_hardrock_R.bin": "db98dae378d16d5d952df322c974f9b8b2220aacee6dd49089dd458844a7955d",
    "s02_quiet_L.bin": "975448223855b7467f926ac13619baf12d02c797b4354d5c9cdfd5d116f0ee52",
    "s02_quiet_R.bin": "fd7146d0572d511d333f9862641792d720ae9ae18942f0aa535929aca049a88f",
    "simulate s01 hardrock stderr": "29653418af21ffd3342252c8d9477590890fa5999e38c604668c2de6ded560f2",
    "simulate s01 hardrock stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "simulate s01 quiet stderr": "b6fc8beef8b66ff456c92dcf132b4ac8fc199af83485631f203a11d1bfd553bc",
    "simulate s01 quiet stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "simulate s02 hardrock stderr": "483039d1bfc7846544cf189a907528c6947a38b9bd06412edcfcaee8432c16e5",
    "simulate s02 hardrock stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "simulate s02 quiet stderr": "0477bc7f20d9058c3d7d9550f67b97ca114d23baf2a540214256a384dd5ab9e8",
    "simulate s02 quiet stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def test_golden_cli_run_is_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("gripstream.cli._now", lambda: "2020-11-11T09:00:00")
    got = {}

    def run(name, *argv):
        assert main(list(argv)) == 0, name
        captured = capsys.readouterr()
        got[f"{name} stdout"] = _digest(captured.out.encode())
        got[f"{name} stderr"] = _digest(captured.err.encode())

    seed = 0
    for subject in ("s01", "s02"):
        for condition in ("quiet", "hardrock"):
            seed += 1
            run(f"simulate {subject} {condition}", "simulate", "--preset", "precision_lift",
                "--hand", "both", "--subject", subject, "--condition", condition,
                "--seed", str(seed), "--duration", "3", "--waveform", "lift",
                "--raw", f"{subject}_{condition}.bin", "--out", "rec")
    damaged = bytearray((tmp_path / "s01_quiet_R.bin").read_bytes())
    for at in range(100, len(damaged), 997):
        damaged[at] ^= 0x5A
    del damaged[2000:2000 + 36 * 3]  # three frames lost
    (tmp_path / "damaged.bin").write_bytes(bytes(damaged[:-7]))  # and a partial tail
    run("record", "record", "--in", "damaged.bin", "--out", "damaged", "--subject", "s03")
    run("analyze summary", "analyze", "--in", "rec")
    run("analyze damaged", "analyze", "--in", "damaged")
    run("analyze shares", "analyze", "--in", "rec", "--shares", "S2,S3,S4,S5")
    run("analyze anova", "analyze", "--in", "rec", "--anova", "hand,condition")
    run("analyze population", "analyze", "--in", "rec", "--population", "hand")
    run("monitor", "monitor", "--in", "rec")
    run("export", "export", "--in", "rec", "--out", "flat.csv")
    run("plot n", "plot", "--in", "rec", "--units", "n", "--out", "n.svg")
    run("plot mv", "plot", "--in", "rec", "--units", "mv", "--out", "mv.svg")
    for path in tmp_path.iterdir():
        if path.is_dir():
            got[f"{path.name}/"] = _tree_digest(path)
        elif path.name != "damaged.bin":
            got[path.name] = _digest(path.read_bytes())
    assert got == GOLDEN
