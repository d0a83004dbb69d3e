import os
import signal
import subprocess
import sys
from contextlib import suppress
from pathlib import Path

QUICKSTART = Path(__file__).with_name("quickstart.sh")
SRC = Path(__file__).resolve().parents[1] / "src"
TIMEOUT_S = 180  # the script takes a few seconds; one still running then has hung


def test_the_readme_quick_start_runs(tmp_path):
    # CI runs the same script against the installed console script; here shims run this
    # checkout's src/ with the interpreter running the tests
    shims = tmp_path / "bin"
    shims.mkdir()
    for name, module in (("gripstream", "-m gripstream "), ("python3", "")):
        shim = shims / name
        shim.write_text(f'#!/bin/sh\nPYTHONPATH="{SRC}" exec "{sys.executable}" {module}"$@"\n',
                        encoding="utf-8")
        shim.chmod(0o755)
    work = tmp_path / "work"
    work.mkdir()
    env = {**os.environ, "PATH": f"{shims}{os.pathsep}{os.environ['PATH']}"}
    # its own session, so that killing the group also ends a serve the script left running
    with subprocess.Popen(["bash", str(QUICKSTART)], cwd=work, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          start_new_session=True) as proc:
        try:
            output, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            output = f"still running after {TIMEOUT_S} s"
        finally:
            with suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
    assert proc.returncode == 0, output
    # the three live runs each reached serve's session line
    assert output.count("session anon_R_quiet: 500 frames, 0 gap(s), battery 4190 mV\n") == 3
