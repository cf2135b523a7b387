#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A_dir [B_dir]

Each directory holds result files written by ``bench.py --out DIR``.  For
every (workload, metric) the report prints each side's median and
quartiles, the spread (quartile distance over median), the share of runs
in which B beats A (paired by seed where both sides ran it, otherwise
against A's median), and a verdict under the bounds in ``BENCHMARK.json``:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B wins at least 9 in 10 runs and its median is better by
                 more than A's own spread;
* ``unresolved`` a side's spread exceeds the bound (unless every B run
                 beats every A run);
* ``unchanged``  otherwise.

Per-layer metrics have no bound and get no verdict.  Output digests must
agree across every run of one seed (export pcap prefixes, sampled
response bodies).  With one directory, only the spreads are printed,
flagged when wider than a third of the bound.  The exit status is 1 when
a metric is worse or digests disagree.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load_runs(directory: Path) -> dict:
    """(workload, trace) -> list of result documents."""
    runs = defaultdict(list)
    # <workload>.s<seed>[.trace].json; Chrome traces may share the directory.
    for path in sorted(directory.glob("*.s[0-9]*.json")):
        doc = json.loads(path.read_text())
        runs[(doc["workload"], doc["trace"])].append(doc)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def _beats(b: float, a: float, better: str) -> bool:
    return b > a if better == "higher" else b < a


def verdict(a_runs: list[tuple[int, float]], b_runs: list[tuple[int, float]],
            better: str, bound: float | None) -> tuple[str, float]:
    """(verdict, share of B runs beating A) for one metric."""
    a = [v for _, v in a_runs]
    b = [v for _, v in b_runs]
    a_med, b_med = statistics.median(a), statistics.median(b)
    a_by_seed = dict(a_runs)
    paired = [(a_by_seed[s], v) for s, v in b_runs if s in a_by_seed]
    if not paired:
        paired = [(a_med, v) for v in b]
    wins = sum(_beats(v, u, better) for u, v in paired) / len(paired)
    if bound is None:
        return "-", wins
    gain = (b_med - a_med) / abs(a_med) if a_med else 0.0
    if better == "lower":
        gain = -gain
    if gain < -bound:
        return "worse", wins
    if max(spread(a), spread(b)) > bound:
        if all(_beats(v, u, better) for v in b for u in a):
            return "better", wins
        return "unresolved", wins
    if wins >= 0.9 and gain > spread(a):
        return "better", wins
    return "unchanged", wins


def digest_mismatches(docs) -> list[str]:
    """Digests that differ between runs of one (workload, seed)."""
    seen: dict[tuple, str] = {}
    bad = []
    for doc in docs:
        digests = doc.get("digests", {})
        items = {}
        if "export_sha256" in digests:
            items[("export", digests["export_sha256_flows"])] = \
                digests["export_sha256"]
        for rid, sha in digests.get("response_sha256", {}).items():
            items[("response", rid)] = sha
        for key, sha in items.items():
            full = (doc["workload"], doc["seed"], *key)
            if seen.setdefault(full, sha) != sha:
                bad.append(" ".join(map(str, full)))
    return bad


def _declared() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["better"], m["bound"])
                for m in bench["end_to_end"]}
    declared.update({m["name"]: (m["better"], None)
                     for m in bench["per_layer"]})
    return declared


def _values(docs, metric) -> list[tuple[int, float]]:
    return [(d["seed"], d["metrics"][metric]["value"]) for d in docs
            if metric in d["metrics"]]


def report_spreads(runs: dict, declared: dict) -> None:
    print(f"{'workload':16s} {'metric':44s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for (workload, trace), docs in sorted(runs.items()):
        for metric in docs[0]["metrics"]:
            values = [v for _, v in _values(docs, metric)]
            q1, q2, q3 = quartiles(values)
            bound = declared.get(metric, (None, None))[1]
            flag = ""
            if bound is not None and spread(values) > bound / 3:
                flag = "  wide" if metric != "setup_s" else ""
            print(f"{workload:16s} {metric:44s} {len(values):3d} "
                  f"{q2:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread(values):7.3f} "
                  f"{'' if bound is None else f'{bound:6.3f}'}{flag}")


def report_comparison(a_runs: dict, b_runs: dict, declared: dict) -> int:
    worse = 0
    print(f"{'workload':16s} {'metric':44s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B wins':>6s}  verdict")
    for key in sorted(a_runs.keys() & b_runs.keys()):
        workload, _ = key
        for metric in a_runs[key][0]["metrics"]:
            a, b = _values(a_runs[key], metric), _values(b_runs[key], metric)
            if not a or not b:
                continue
            better, bound = declared.get(metric, ("lower", None))
            result, wins = verdict(a, b, better, bound)
            worse += result == "worse"
            cells = []
            for side in (a, b):
                q1, q2, q3 = quartiles([v for _, v in side])
                cells.append(f"{q2:12.4f} [{q1:.4g}, {q3:.4g}]")
            print(f"{workload:16s} {metric:44s} {cells[0]:>34s} "
                  f"{cells[1]:>34s} {wins:6.2f}  {result}")
    return worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    declared = _declared()
    sides = [load_runs(Path(d)) for d in argv]
    all_docs = [doc for side in sides for docs in side.values()
                for doc in docs]
    mismatches = digest_mismatches(all_docs)
    if len(sides) == 1:
        report_spreads(sides[0], declared)
        worse = 0
    else:
        worse = report_comparison(sides[0], sides[1], declared)
    for line in mismatches:
        print(f"digest mismatch: {line}")
    print(f"# {worse} worse, {len(mismatches)} digest mismatches")
    return 1 if worse or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
