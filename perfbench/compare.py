"""Compare two ``run.py --json`` results: what got better or worse.

    python perfbench/compare.py BASE.json NEW.json

For each workload and end-to-end metric of BENCHMARK.json it prints both
sides' medians and quartiles and a verdict against the metric's bound:

- ``worse`` / ``better``: the median moved by more than the bound;
- ``unchanged``: it moved by less;
- ``unresolved``: either side's quartile spread, as a share of its
  median, is wider than the bound, so the runs cannot tell -- unless
  every repetition of NEW reads better than every one of BASE.

``fail_frac`` is worse on any increase. Exact counts (``sim.*``,
``ghost.*`` and the other model statistics) that differ are listed. For
traced results it names the layers whose share of self time, or whose
call count, moved most. Exit status 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOP_LAYERS = 5


def spread(summary: dict) -> float:
    return (summary["q3"] - summary["q1"]) / summary["median"] \
        if summary["median"] else 0.0


def verdict(base: dict, new: dict, bound: float,
            better: str) -> Tuple[str, float]:
    """(verdict, relative change of the median, positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    if base["median"]:
        change = sign * (new["median"] - base["median"]) / base["median"]
    else:
        change = 0.0 if new["median"] == base["median"] else float("inf")
    if max(spread(base), spread(new)) > bound:
        all_better = all(sign * (n - b) < 0 for n in new["values"]
                         for b in base["values"])
        return ("better" if all_better else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "unchanged", change


def layer_shifts(base: dict, new: dict) -> List[str]:
    """Layers whose self-time share or call count moved most."""
    def shares(trace):
        total = sum(v["self_s"] for v in trace["layers"].values()) or 1.0
        return {k: v["self_s"] / total for k, v in trace["layers"].items()}

    old_share, new_share = shares(base), shares(new)
    by_share = sorted(old_share, key=lambda k: -abs(new_share[k]
                                                    - old_share[k]))
    lines = [f"  self-time share  {k}: {100 * old_share[k]:.1f}% -> "
             f"{100 * new_share[k]:.1f}%" for k in by_share[:TOP_LAYERS]]

    def calls_change(layer):
        old = base["layers"][layer]["calls"]
        return abs(new["layers"][layer]["calls"] - old) / max(old, 1)

    for k in sorted(base["layers"], key=calls_change,
                    reverse=True)[:TOP_LAYERS]:
        if calls_change(k):
            lines.append(f"  calls  {k}: {base['layers'][k]['calls']} -> "
                         f"{new['layers'][k]['calls']}")
    return lines


def compare(base: dict, new: dict, bench: dict) -> Tuple[List[str], bool]:
    lines = [f"{'workload':<9} {'metric':<12} {'base median [q1, q3]':<30} "
             f"{'new median [q1, q3]':<30} {'change':>8}  verdict"]
    worse = False
    for name, old_res in base["workloads"].items():
        new_res = new["workloads"].get(name)
        if new_res is None:
            lines.append(f"{name:<9} missing from the new result")
            continue
        old_m, new_m = old_res["metrics"], new_res["metrics"]
        for metric in bench["end_to_end"]:
            key = metric["name"]
            if key not in old_m or key not in new_m:
                lines.append(f"{name:<9} {key:<12} not measured on both "
                             f"sides")
                continue
            word, change = verdict(old_m[key], new_m[key], metric["bound"],
                                   metric["better"])
            worse |= word == "worse"
            lines.append(
                f"{name:<9} {key:<12} "
                f"{_fmt(old_m[key]):<30} {_fmt(new_m[key]):<30} "
                f"{100 * change:>+7.1f}%  {word} (bound "
                f"{100 * metric['bound']:.0f}%)")
        old_fail = old_m["fail_frac"]["median"]
        new_fail = new_m["fail_frac"]["median"]
        word = ("worse" if new_fail > old_fail else
                "better" if new_fail < old_fail else "unchanged")
        worse |= word == "worse"
        lines.append(f"{name:<9} {'fail_frac':<12} {old_fail:<30.3g} "
                     f"{new_fail:<30.3g} {'':>8}  {word}")
        old_counts, new_counts = old_res["counts"] or {}, \
            new_res["counts"] or {}
        for k in sorted(old_counts):
            if k in new_counts and old_counts[k] != new_counts[k]:
                lines.append(f"  count  {k}: {old_counts[k]} -> "
                             f"{new_counts[k]}")
        if old_res.get("trace") and new_res.get("trace"):
            lines.extend(layer_shifts(old_res["trace"], new_res["trace"]))
    return lines, worse


def _fmt(summary: dict) -> str:
    return (f"{summary['median']:.4g} [{summary['q1']:.4g}, "
            f"{summary['q3']:.4g}]")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    results = []
    for path in argv:
        with open(path) as fh:
            results.append(json.load(fh))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    lines, worse = compare(results[0], results[1], bench)
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
