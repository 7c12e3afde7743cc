"""Median and quartiles over runs, from the benchmark's results files.

    python3 perfbench/summarize.py [results-dir]

Reads every ``<workload>-seed<n>-trace0.json`` that ``run.py`` wrote (by
default to ``.perfbench/results``) and prints, per workload and metric, the
median, the quartiles as ``statistics.quantiles(values, n=4)`` gives them, and
their distance as a share of the median.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(results_dir: Path) -> dict[str, dict[str, tuple]]:
    """workload -> metric -> (runs, median, q1, q3, unit), untraced runs only."""
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    units: dict[str, str] = {}
    for path in sorted(results_dir.glob("*-trace0.json")):
        data = json.loads(path.read_text())
        for name, metric in data["report"].items():
            values[data["workload"]][name].append(metric["value"])
            units[name] = metric["unit"]
    out: dict[str, dict[str, tuple]] = {}
    for workload, metrics in sorted(values.items()):
        out[workload] = {}
        for name, vals in metrics.items():
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            out[workload][name] = (len(vals), statistics.median(vals), q1, q3,
                                   units[name])
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(__file__).resolve().parent.parent
    results_dir = Path(argv[0]) if argv else root / ".perfbench" / "results"
    for workload, metrics in summarize(results_dir).items():
        for name, (runs, median, q1, q3, unit) in metrics.items():
            spread = (q3 - q1) / median if median else float("nan")
            print(f"{workload} {name} median {median:.6g} {unit} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f} runs {runs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
