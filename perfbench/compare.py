"""Compare two sets of benchmark results metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files (or directories of files) holding the standard output
of ``run.py`` runs; the record line each run prints before its result line
is what is read.  For every workload and metric the script prints both
medians and quartiles, the ratio NEW/BASE and a verdict:

* ``better`` / ``worse``: the medians differ by more than the metric's
  bound, and either every NEW run beats (or loses to) every BASE run or the
  runs spread less than the bound;
* ``within bound``: the change is no larger than the bound, and the spread
  is not either;
* ``unresolved``: the runs spread wider than the bound, so no verdict holds.

The two directions are judged alike, so drift inside the bound never reads
as a gain.  End-to-end metrics use the bounds in BENCHMARK.json.  Per-layer
metrics have no bound; their own spread stands in for it.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(path: Path) -> list[dict]:
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    out = []
    for f in files:
        for line in f.read_text(errors="replace").splitlines():
            if line.startswith('{"record": "perfbench"'):
                out.append(json.loads(line))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound):
    """One of better / worse / within bound / unresolved (see module doc)."""
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    if bm == 0:
        return "within bound" if nm == 0 else "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (nm - bm) / abs(bm)          # > 0 means worse
    spread = max(b3 - b1, n3 - n1) / abs(bm)
    floor = bound or 0.0
    if all(sign * (x - y) < 0 for x in new for y in base) and -change > floor:
        return "better"
    if all(sign * (x - y) > 0 for x in new for y in base) and change > floor:
        return "worse"
    limit = bound if bound is not None else spread
    if spread > limit:
        return "unresolved"
    if change > limit:
        return "worse"
    if -change > limit:
        return "better"
    return "within bound"


def compare(base: list[dict], new: list[dict], bench: dict) -> list[tuple]:
    """Rows (workload, trace, metric, base stats, new stats, ratio, verdict)."""
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    rows = []

    def group(records):
        out = {}
        for r in records:
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"], r["trace"], name), []).append(m["value"])
            out.setdefault((r["workload"], r["trace"], "failed_frac"), []).append(r["failed_frac"])
        return out

    gb, gn = group(base), group(new)
    for key in sorted(gb.keys() & gn.keys()):
        workload, trace, name = key
        info = meta.get(name, {"better": "lower"})
        b, n = gb[key], gn[key]
        bm, nm = statistics.median(b), statistics.median(n)
        ratio = nm / bm if bm else float("nan")
        rows.append((workload, trace, name, quartiles(b), quartiles(n), len(b), len(n),
                     ratio, verdict(b, n, info["better"], info.get("bound"))))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load_records(Path(a)) for a in argv)
    if not base or not new:
        print("compare: no benchmark records found", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{'workload':<14} {'metric':<44} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32} {'n':>5} {'ratio':>7}  verdict")
    for workload, trace, name, bq, nq, nb, nn, ratio, v in compare(base, new, bench):
        label = name if not trace else f"{name} [traced]"
        print(f"{workload:<14} {label:<44} "
              f"{bq[0]:>10.4g} {bq[1]:>10.4g} {bq[2]:>10.4g} "
              f"{nq[0]:>10.4g} {nq[1]:>10.4g} {nq[2]:>10.4g} "
              f"{nb:>2}/{nn:<2} {ratio:>7.3f}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
