#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 loopbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by `run.py --save-dir`
(`<workload>-seed<seed>-trace0.json`). For every workload present in
both sets and every end-to-end metric of BENCHMARK.json, prints each
side's median and quartiles, the spread (quartile distance over the
median) and a verdict:

- improved: the new side wins at least 9 in 10 of the pairs (runs
  paired by seed; ties count for neither), and the medians differ by
  more than the base side's own quartile distance;
- regressed: the new median is worse than the base median by more than
  the metric's bound, and the spread of either side is within the
  bound (or every new run is worse than every base run);
- unresolved: a spread is wider than the bound and neither of the
  above holds clearly;
- unchanged: otherwise.

It also compares `failed_frac` (failed / attempted per run): any rise
of its median is a regression. Exits 1 when any verdict is
`regressed`, else 0.
"""

import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^(?P<workload>[A-Za-z0-9_]+)-seed(?P<seed>-?\d+)-trace0\.json$")


def load_runs(d):
    """{workload: {seed: result}} from one directory."""
    out = {}
    for f in sorted(os.listdir(d)):
        m = NAME.match(f)
        if not m:
            continue
        with open(os.path.join(d, f)) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        out.setdefault(m["workload"], {})[int(m["seed"])] = json.loads(lines[-1])
    return out


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound, pairs):
    """The verdict for one metric (see the module docs)."""
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (nm - bm) / bm if bm else 0.0
    spread = max((b3 - b1) / bm if bm else 0.0, (n3 - n1) / nm if nm else 0.0)
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    all_worse = min(new) > max(base) if better == "lower" else max(new) < min(base)
    if pairs and wins >= 0.9 * len(pairs) and abs(nm - bm) > (b3 - b1) and worse < 0:
        return "improved"
    if worse > bound and (spread <= bound or all_worse):
        return "regressed"
    if spread > bound:
        return "unresolved"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base, new = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    regressed = False
    header = f"{'workload':<12} {'metric':<14} {'base q1/med/q3':>32} {'new q1/med/q3':>32} {'spread':>13} {'verdict':>10}"
    print(header)
    for workload in sorted(set(base) & set(new)):
        bw, nw = base[workload], new[workload]
        seeds = sorted(set(bw) & set(nw))
        rows = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
        rows.append(("failed_frac", "lower", 0.0))
        for name, better, bound in rows:
            def value(r):
                if name == "failed_frac":
                    return r["failed"] / max(r["attempted"], 1)
                return r["metrics"][name]["value"]
            bv = [value(r) for r in bw.values()]
            nv = [value(r) for r in nw.values()]
            pairs = [(value(bw[s]), value(nw[s])) for s in seeds]
            if name == "failed_frac":
                v = "regressed" if statistics.median(nv) > statistics.median(bv) else "unchanged"
            else:
                v = verdict(bv, nv, better, bound, pairs)
            regressed |= v == "regressed"
            bq, nq = quartiles(bv), quartiles(nv)
            spread = [(q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (bq, nq)]
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:<12} {name:<14} {fmt(bq):>32} {fmt(nq):>32} "
                  f"{spread[0]:>6.3f}/{spread[1]:<6.3f} {v:>10}")
        print(f"{'':<12} ({len(bw)} base runs, {len(nw)} new runs, {len(seeds)} paired by seed)")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
