#!/usr/bin/env bash
# The README's quick start, end to end, through the `gripstream` and `python3` on PATH.
# Run it in an empty directory, where it leaves its files: bash tests/quickstart.sh
# CI runs it against the installed console script; tests/test_quickstart.py runs it
# against the checkout's src/.
set -e
gripstream simulate --preset precision_lift --hand both --subject s01 --out rec/
gripstream analyze --in rec/
gripstream analyze --in rec/ --shares S2,S3,S4,S5
gripstream plot --in rec/ --sensor S2,S4 --out chart.svg
gripstream plot --in rec/ --units mv --out mv.svg
# one polyline per plotted series, every point on the canvas
python3 - <<'EOF'
import xml.etree.ElementTree as ET
svg = "{http://www.w3.org/2000/svg}"
series = 4  # two sessions (--hand both) times the default sensors S2,S4
for name in ("chart.svg", "mv.svg"):
    root = ET.parse(name).getroot()
    width, height = float(root.get("width")), float(root.get("height"))
    lines = root.findall(svg + "polyline")
    assert len(lines) == series, (name, len(lines))
    for line in lines:
        for point in line.get("points").split():
            x, y = map(float, point.split(","))
            assert 0 <= x <= width and 0 <= y <= height, (name, point)
EOF
gripstream monitor --in rec/ --threshold 8
gripstream export --in rec/ --out flat.csv
set -o pipefail
gripstream export --in rec/ 2> export.err | head -1
test ! -s export.err
gripstream simulate --preset power_grip --raw cap.bin
gripstream record --in cap.bin --out rec/
gripstream analyze --in rec/ | grep -c '^anon,R,quiet,500,'
# a misspelt group key is a usage error: exit 1, nothing on stdout
code=0; gripstream analyze --in rec/ --population hand,conditon > usage.out || code=$?
test "$code" -eq 1
test ! -s usage.out
# the README's live operation: serve in the background, a capture played into it.
# live_run OUT CAPTURE WRITES [FLAGS]: serve, on the port its listening line names,
# records into OUT/ and logs to OUT.err while CAPTURE is sent whole or in 36-72-byte
# writes; FLAGS go to serve and monitor. serve's alerts agree with monitor on the
# recording; serve's peak= is the onset's
live_run() {
  out=$1 capture=$2 writes=$3; shift 3
  gripstream serve --port 0 --sessions 1 --threshold 6 --out "$out/" "$@" 2> "$out.err" &
  port=
  for _ in $(seq 100); do
    port=$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$out.err")
    test -n "$port" && break
    sleep 0.1
  done
  python3 - "$port" "$capture" "$writes" <<'EOF'
import random, socket, sys, time
port, blob, writes = int(sys.argv[1]), open(sys.argv[2], "rb").read(), sys.argv[3]
rng, at = random.Random(36), 0
with socket.create_connection(("127.0.0.1", port)) as sock:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    while at < len(blob):
        step = len(blob) if writes == "whole" else rng.randint(36, 72)  # short reads
        sock.sendall(blob[at:at + step])
        at += step
        time.sleep(0.001)
EOF
  wait $! || { cat "$out.err"; exit 1; }
  cat "$out.err"
  test -s "$out/anon_R_quiet_meta.txt"
  sed -n 's/^\x07\(ALERT .*\) peak=.*/\1/p' "$out.err" > "$out.alerts"
  gripstream monitor --in "$out/" --threshold 6 "$@" | sed 's/ peak=.*//' | diff "$out.alerts" -
}
gripstream simulate --preset power_grip --raw cap.bin
live_run live cap.bin whole
grep -qx 'session anon_R_quiet: 500 frames, 0 gap(s), battery 4190 mV' live.err
live_run live36 cap.bin 36-72
grep -qx 'session anon_R_quiet: 500 frames, 0 gap(s), battery 4190 mV' live36.err
diff <(grep ALERT live.err) <(grep ALERT live36.err)
# the live run again under the rational conversion: one --config for all three commands
printf 'conversion_mode = rational\n' > rational.cfg
gripstream simulate --preset power_grip --config rational.cfg --raw rcap.bin
live_run live_r rcap.bin whole --config rational.cfg
test -s live_r.alerts  # at least one ALERT line
