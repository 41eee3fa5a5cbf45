"""Compare two result sets written by suite.py.

    python3 perfbench/compare.py BASE.json NEW.json

Both sets must have run the same --seconds, so that every run did the same
work.

For each workload and end-to-end metric it prints the median and quartiles
of each side, the pair wins of NEW over BASE (runs paired by seed, ties
counting for neither side) and a verdict:

- improved: NEW wins at least nine tenths of the pairs and the medians
  differ by more than BASE's own quartile spread, or every NEW run reads
  better than every BASE run;
- no worse: NEW's median is within the metric's bound of BASE's;
- unresolved: BASE's quartile spread is wider than the bound;
- regressed: NEW's median is worse than BASE's by more than the bound.

Metrics without a bound in BENCHMARK.json read "same" or "changed".
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import E2E_UNITS, WORKLOADS, benchmark_spec, quartiles  # noqa: E402


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float | None) -> tuple[str, int]:
    """(verdict, pair wins of new) for one metric of one workload."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - n) > 0 for b, n in pairs)
    b_q1, b_med, b_q3 = quartiles(base)
    n_med = quartiles(new)[1]
    gain = sign * (b_med - n_med)
    if (pairs and wins >= 0.9 * len(pairs) and gain > b_q3 - b_q1) or \
            min(sign * (b - n) for b in base for n in new) > 0:
        return "improved", wins
    if bound is None:
        return ("same" if n_med == b_med else "changed"), wins
    scale = abs(b_med) if b_med else 1.0
    if (b_q3 - b_q1) / scale > bound:
        return "unresolved", wins
    if -gain <= bound * scale:
        return "no worse", wins
    return "regressed", wins


def by_workload(doc: dict) -> dict[str, dict[int, dict]]:
    out: dict[str, dict[int, dict]] = {}
    for r in doc["runs"]:
        if not r["trace"] and "metrics" in r:
            out.setdefault(r["workload"], {})[r["seed"]] = r["metrics"]
    return out


def compare(base_doc: dict, new_doc: dict, bounds: dict[str, float]) -> list[dict]:
    rows = []
    base, new = by_workload(base_doc), by_workload(new_doc)
    for workload in WORKLOADS:
        if workload not in base or workload not in new:
            continue
        seeds = sorted(set(base[workload]) & set(new[workload]))
        for name, (unit, better) in E2E_UNITS.items():
            b = [m[name] for m in base[workload].values()]
            n = [m[name] for m in new[workload].values()]
            pairs = [(base[workload][s][name], new[workload][s][name]) for s in seeds]
            v, wins = verdict(b, n, pairs, better, bounds.get(name))
            rows.append({"workload": workload, "metric": name, "unit": unit,
                         "base": quartiles(b), "new": quartiles(n), "wins": wins,
                         "pairs": len(pairs), "verdict": v})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_doc, new_doc = (json.loads(Path(p).read_text()) for p in argv)
    if base_doc["seconds"] != new_doc["seconds"]:
        print(f"the result sets measured different work per run: --seconds "
              f"{base_doc['seconds']} and {new_doc['seconds']}", file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    rows = compare(base_doc, new_doc, bounds)
    print(f"base {base_doc['commit'][:12]}  new {new_doc['commit'][:12]}")
    for r in rows:
        (bq1, bm, bq3), (nq1, nm, nq3) = r["base"], r["new"]
        print(f"{r['workload']:17s} {r['metric']:15s} {r['unit']:5s} "
              f"base {bm:.6g} [{bq1:.6g}, {bq3:.6g}]  new {nm:.6g} [{nq1:.6g}, {nq3:.6g}]  "
              f"wins {r['wins']}/{r['pairs']}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
