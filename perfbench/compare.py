#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files run.py writes under
.perfbench/results/ (one JSON file per run). Prints, per workload and
metric, each side's median and quartile spread and the change of the
median. Refuses to compare runs made with different codec backends, or
different Python or numpy versions, since those move every number.
"""

import json
import statistics
import sys
from pathlib import Path

SAME = ("backend", "python", "numpy")


def load(directory: Path) -> dict[str, dict[str, list[float]]]:
    runs: dict[str, dict[str, list[float]]] = {}
    meta_seen = set()
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        workload = path.name.split("-seed")[0]
        meta_seen.add(tuple(result["meta"][k] for k in SAME))
        for name, m in result["metrics"].items():
            runs.setdefault(workload, {}).setdefault(name, []).append(m["value"])
    if len(meta_seen) != 1:
        raise SystemExit(f"error: {directory} mixes runs made with {sorted(meta_seen)}")
    runs["_meta"] = dict(zip(SAME, meta_seen.pop()))
    return runs


def _summary(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return f"{med:12.6g}"
    q = statistics.quantiles(values, n=4)
    return f"{med:12.6g} ±{(q[2] - q[0]) / med:6.1%}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    if base["_meta"] != new["_meta"]:
        print(f"error: refusing to compare {base['_meta']} with {new['_meta']}", file=sys.stderr)
        return 2
    for workload in sorted(set(base) & set(new) - {"_meta"}):
        print(f"== {workload}")
        for name in base[workload]:
            if name not in new[workload]:
                continue
            b, n = base[workload][name], new[workload][name]
            mb, mn = statistics.median(b), statistics.median(n)
            change = f"{mn / mb - 1:+7.1%}" if mb else "   n/a"
            print(f"  {name:48s} {_summary(b)}  ->  {_summary(n)}  {change}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
