"""Steadiness self-check: two sets of untraced runs, spread and drift per metric.

    python3 perfbench/steady.py

Each of the two sets runs every workload once per seed for ten seeds (set
k uses seeds 1000k+1 ...), each run in its own process through ``run.py``
with BENCHMARK.json's ``run_seconds``.  Per set, metric and workload it
reports the spread, (Q3 - Q1) / median over the set's runs with
``statistics.quantiles(n=4)``, against the metric's bound from
BENCHMARK.json, and how far the second set's median moved from the first
set's in the worse direction.  Every spread and every drift must stay under
the bound; a spread under a third of the bound is the target.  Writes
``_work/steady.json``; exits 1 if a check fails.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import run

SETS = 2
RUNS = 10


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    values = {(s, w): {} for s in range(SETS) for w in names}
    failures = 0
    for s in range(SETS):
        for i in range(RUNS):
            seed = 1000 * s + i + 1
            for w in names:
                t0 = time.perf_counter()
                result = run.run_child(w, seed, seconds, 0)
                if result is None or not result["correct"]:
                    failures += 1
                    print(f"set {s} seed {seed} {w}: FAILED {result}")
                    continue
                for m, v in result["metrics"].items():
                    values[(s, w)].setdefault(m, []).append(v["value"])
                print(f"set {s} seed {seed} {w}: {time.perf_counter() - t0:.1f} s wall, "
                      + ", ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()),
                      flush=True)

    report, ok = [], failures == 0
    for w in names:
        for m in spec["end_to_end"]:
            sets = [values[(s, w)].get(m["name"], []) for s in range(SETS)]
            if any(len(v) < 2 for v in sets):
                ok = False
                continue
            spreads = [spread(v) for v in sets]
            medians = [statistics.median(v) for v in sets]
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = sign * (medians[1] - medians[0]) / medians[0]
            within = drift <= m["bound"] and max(spreads) <= m["bound"]
            ok &= within
            row = {"workload": w, "metric": m["name"], "bound": m["bound"],
                   "medians": medians, "spreads": spreads, "worse_drift": drift,
                   "ok": within, "under_third": max(spreads) < m["bound"] / 3}
            report.append(row)
            print(f"{w:20s} {m['name']:17s} median {medians[0]:.5g} -> {medians[1]:.5g}  "
                  f"spread {' / '.join(f'{x:.3f}' for x in spreads)}  drift {drift:+.3f}  "
                  f"bound {m['bound']}  {'ok' if within else 'OVER'}"
                  f"{'' if row['under_third'] else ' (spread above bound/3)'}")
    run.WORK_DIR.mkdir(exist_ok=True)
    (run.WORK_DIR / "steady.json").write_text(json.dumps(
        {"runs": RUNS, "sets": SETS, "seconds": seconds, "failures": failures,
         "rows": report, "values": {f"{s}/{w}": v for (s, w), v in values.items()}},
        indent=1) + "\n")
    print("steady: " + ("ok" if ok else "NOT steady"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
