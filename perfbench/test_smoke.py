"""Harness smoke test: tiny inputs, two seeds, and two planted faults.

Checks that every workload runs and checks its outputs, not how fast
anything is. Run with:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_package()

import tracer  # noqa: E402

TINY = run.Sizes(record_s=4.0, drop_every=50, subjects=2, study_s=4.0, rate_hz=500.0,
                 setups=1, min_iterations=1)


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_runs_clean(name, seed, tmp_path):
    tally, e2e, layers = run.run_workload(name, seed, 0.4, False, TINY, tmp_path)
    assert tally.failed == 0, tally.problems
    assert tally.attempted > 0
    assert set(e2e) == {m["name"] for m in _spec()["end_to_end"]}
    assert all(value > 0 for value, _ in e2e.values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_layers(name, tmp_path):
    tally, _, layers = run.run_workload(name, 5, 0.4, True, TINY, tmp_path / "work")
    assert tally.failed == 0, tally.problems
    assert "bench.tracing_overhead_pct" in layers
    busy = {
        "simulate_record": "protocol.scan_stream_offsets.us_per_frame",
        "study_analyze": "ingest.load_sessions.us_per_frame",
        "live_serve": "alerting.GripMonitor.step.us_per_call",
    }[name]
    assert layers[busy] > 0


def test_spec_names_every_reported_layer_figure():
    produced = set(tracer.layer_metrics({"spans": [], "aggregates": {}}, 1))
    produced |= set(run.CHECK_FIGURES) | {"bench.tracing_overhead_pct"}
    assert {m["name"] for m in _spec()["per_layer"]} == produced


def test_flipped_recorded_sample_is_caught(tmp_path, monkeypatch):
    import gripstream.ingest

    record = gripstream.ingest.record_session

    def faulty(session, directory):
        manifest = record(session, directory)
        path = manifest.sensor_paths[3]
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        ts, mv = lines[5].split("\t")
        lines[5] = f"{ts}\t{int(mv) ^ 1}\n"
        path.write_text("".join(lines), encoding="utf-8")
        return manifest

    monkeypatch.setattr(gripstream.ingest, "record_session", faulty)
    workload = run.SimulateRecord(3, TINY, tmp_path)
    workload.setup()
    tally = run.Tally()
    workload.iterate(tally)
    assert tally.failed == 2  # one frame per glove
    assert all("recording" in p for p in tally.problems)


def test_dropped_alert_line_is_caught(tmp_path, monkeypatch):
    def lossy(proc, lines):
        dropped = False
        for raw in proc.stderr:
            text = raw.decode().rstrip("\n")
            if not dropped and "ALERT" in text:
                dropped = True
                continue
            lines.append((0.0, text))

    monkeypatch.setattr(run.LiveServe, "_read", staticmethod(lossy))
    live = run.LiveServe(3, TINY, tmp_path, 0.4)
    try:
        live.setup()
        tally = run.Tally()
        live.iterate(tally)
    finally:
        live.stop()
    assert tally.failed == 1
    assert tally.problems == ["serve ALERT lines: 1 missing, 0 unexpected"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate_record", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _spec() -> dict:
    return json.loads(Path(run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
