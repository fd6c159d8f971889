"""Compare two sets of run records, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records ``run.py`` writes (``--out``, default
``.perfbench_out/records``).  For every workload and every end-to-end
metric of BENCHMARK.json this prints each side's median and quartiles over
its untraced runs, the change of the median as a share of the base median
(positive = worse), and a verdict: ``worse`` beyond the metric's bound,
``unresolved`` when the base's own quartile spread exceeds the bound,
otherwise ``ok``.  Per-layer medians of traced runs are printed alongside.

Runs taken on different kernel backends are not comparable: the tool
refuses them (exit 2).  Exit 1 when some metric is worse than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(records, workload, trace, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]]


def compare(base, new, spec, out=sys.stdout) -> int:
    backends = {r["env"]["backend"] for r in base + new}
    if len(backends) > 1:
        print(f"refusing to compare runs on different kernel backends: {sorted(backends)}", file=out)
        return 2
    for key in ("python", "nproc"):
        seen = {str(r["env"][key]) for r in base + new}
        if len(seen) > 1:
            print(f"note: runs differ in {key}: {sorted(seen)}", file=out)
    worse = False
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for w in workloads:
        for m in spec["end_to_end"]:
            b, n = values(base, w, 0, m["name"]), values(new, w, 0, m["name"])
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (nq[1] - bq[1]) / bq[1]
            spread = (bq[2] - bq[0]) / bq[1]
            if change > m["bound"]:
                verdict, worse = "worse", True
            elif spread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{w:8s} {m['name']:14s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] n={len(b)}  "
                  f"new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] n={len(n)}  "
                  f"change {change:+.1%} bound {m['bound']:.0%}  {verdict}", file=out)
        for m in spec["per_layer"]:
            b, n = values(base, w, 1, m["name"]), values(new, w, 1, m["name"])
            if b and n:
                print(f"{w:8s} {m['name']:40s} base {statistics.median(b):.6g}  "
                      f"new {statistics.median(n):.6g} {m['unit']}", file=out)
    return 1 if worse else 0


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(load(argv[0]), load(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
