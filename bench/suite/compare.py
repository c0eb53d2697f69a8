#!/usr/bin/env python3
"""Compares two syncts_bench result sets, end-to-end metric by metric.

    python3 bench/suite/compare.py BASE.json NEW.json

Each file is what run.sh prints: a JSON array of the benchmark's detail
objects. Only the timed passes are compared. The bounds and directions
come from BENCHMARK.json at the root of the checkout. Each (workload,
metric) is labelled:

  unresolved  the middle halves of the two medians' sampling
              distributions overlap by more than the bound, and no side
              beats every round of the other;
  worse       otherwise, NEW's median is worse than BASE's by more than
              the bound;
  better      otherwise, NEW's median is better by more than the bound;
  unchanged   otherwise.

Exits 1 when any pair is worse, 2 on unreadable input, 0 otherwise.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")

# Below this many rounds a side cannot "beat every round" of the other.
MIN_ROUNDS_FOR_DOMINANCE = 5


def load(path):
    with open(path) as f:
        entries = json.load(f)
    timed = {}
    for entry in entries:
        if entry.get("pass") == "timed":
            timed[entry["workload"]] = entry["detail"]
    return timed


def label(base, new, bound, higher_is_better):
    sign = -1.0 if higher_is_better else 1.0
    change = sign * (new["median"] - base["median"]) / base["median"]
    overlap = (min(base["median_hi"], new["median_hi"]) -
               max(base["median_lo"], new["median_lo"]))
    overlap = max(0.0, overlap) / base["median"]
    enough = min(base["n"], new["n"]) >= MIN_ROUNDS_FOR_DOMINANCE
    if higher_is_better:
        new_dominates = enough and new["min"] > base["max"]
        base_dominates = enough and base["min"] > new["max"]
    else:
        new_dominates = enough and new["max"] < base["min"]
        base_dominates = enough and base["max"] < new["min"]
    if overlap > bound and not (new_dominates or base_dominates):
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "unchanged", change


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(BENCHMARK) as f:
            metrics = json.load(f)["end_to_end"]
        base, new = load(argv[1]), load(argv[2])
    except (OSError, ValueError, KeyError) as error:
        print("compare.py: %s" % error, file=sys.stderr)
        return 2
    worse = False
    print("%-22s %-12s %14s %14s %9s  %s" %
          ("workload", "metric", "base", "new", "change", "label"))
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            print("%-22s missing from one side" % workload)
            continue
        for metric in metrics:
            name = metric["name"]
            b, n = base[workload].get(name), new[workload].get(name)
            if b is None or n is None or b["median"] == 0:
                print("%-22s %-12s missing" % (workload, name))
                continue
            verdict, change = label(b, n, metric["bound"], metric["better"] == "higher")
            worse = worse or verdict == "worse"
            print("%-22s %-12s %14.6g %14.6g %+8.2f%%  %s (bound %g%%)" %
                  (workload, name, b["median"], n["median"], 100 * change, verdict,
                   100 * metric["bound"]))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
