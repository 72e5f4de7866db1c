"""Compare two result files of the suite: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians, the ratio B/A (A is
the base), how much worse B is in the metric's own direction, the bound the
benchmark fixed, and a verdict:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — the run-to-run spread of either side (distance between the
  quartiles over the median; max-min over the median below four samples) is
  wider than the bound, so the files cannot show either.

``failed_share`` has a bound of 0 absolute: any rise is a regression.
Exit status: 0 all ok, 1 something regressed, 2 nothing regressed but
something is unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def spread(values: list[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) >= 4:
        low, _, high = statistics.quantiles(values, n=4)
    else:
        low, high = min(values), max(values)
    return (high - low) / abs(median)


def compare(base: dict, other: dict) -> list[dict]:
    rows = []
    for name, base_entry in base["workloads"].items():
        other_entry = other["workloads"].get(name)
        if other_entry is None:
            continue
        for metric in base["metrics"]:
            a = base_entry["end_to_end"][metric["name"]]
            b = other_entry["end_to_end"][metric["name"]]
            worse = (b["median"] - a["median"]) / a["median"]
            if metric["better"] == "higher":
                worse = -worse
            widest = max(spread(a["values"]), spread(b["values"]))
            if widest > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append({
                "workload": name, "metric": metric["name"], "unit": metric["unit"],
                "a": a["median"], "b": b["median"], "ratio": b["median"] / a["median"],
                "worse_by": worse, "spread": widest, "bound": metric["bound"],
                "verdict": verdict,
            })
        a, b = base_entry["failed_share"]["median"], other_entry["failed_share"]["median"]
        rows.append({
            "workload": name, "metric": "failed_share", "unit": "ratio", "a": a, "b": b,
            "ratio": b / a if a else float(b > 0), "worse_by": b - a, "spread": 0.0,
            "bound": 0.0, "verdict": "regressed" if b > a else "ok",
        })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 64
    base, other = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(base, other)
    print(f"A = {argv[0]} ({base['host']['git_commit'][:10]})   "
          f"B = {argv[1]} ({other['host']['git_commit'][:10]})   ratio = B/A, base A")
    print(f"{'workload':<24}{'metric':<24}{'A':>13}{'B':>13} {'unit':<9}{'B/A':>7}"
          f"{'worse by':>10}{'spread':>8}{'bound':>7}  verdict")
    for row in rows:
        print(f"{row['workload']:<24}{row['metric']:<24}{row['a']:>13.4f}{row['b']:>13.4f} "
              f"{row['unit']:<9}{row['ratio']:>7.3f}{row['worse_by']:>+10.1%}"
              f"{row['spread']:>8.1%}{row['bound']:>7.0%}  {row['verdict']}")
    verdicts = {row["verdict"] for row in rows}
    return 1 if "regressed" in verdicts else 2 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
