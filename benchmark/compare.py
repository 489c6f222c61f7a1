#!/usr/bin/env python3
"""Compares two sets of vdebench results by the rules of a gain claim.

    python3 benchmark/compare.py BASE_DIR NEW_DIR

Each directory holds one vdebench --out JSON file per run; sorted by name,
the i-th files of the two directories form pair i. Make the pairs
alternate which side runs first (see README.md). With fewer than 10 pairs
the comparison is refused.

For every (workload, end_to_end metric of BENCHMARK.json) it prints one row:
each side's median and quartiles, how many pairs the new side won, and a
verdict. A pair whose values differ by less than a tenth of the metric's
bound is a tie, and ties count for neither side. Verdicts:
  improved    the new side won at least 9/10 of the pairs and the medians
              differ by more than the base's quartile spread;
  regressed   the new median is worse than the base median by more than
              the metric's bound;
  unresolved  the base's quartile spread is wider than the bound, and not
              every new run is better than every base run;
  unchanged   otherwise.
Exits 1 when any row regressed.
"""
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
TIE_SHARE = 0.1


def load(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                runs.append(json.load(f)["workloads"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, new, lower_is_better, bound):
    def better(a, b):
        return a < b if lower_is_better else a > b

    def wins_pair(n, b):
        return better(n, b) and abs(n - b) >= TIE_SHARE * bound * abs(b)

    med_b, med_n = statistics.median(base), statistics.median(new)
    q1, q3 = quartiles(base)
    spread = q3 - q1
    wins = sum(wins_pair(n, b) for b, n in zip(base, new))
    worse_by = (med_n - med_b) if lower_is_better else (med_b - med_n)
    worse_share = worse_by / abs(med_b) if med_b else 0.0
    all_better = all(better(n, b) for n in new for b in base)
    if med_b and spread / abs(med_b) > bound and not all_better:
        kind = "unresolved"
    elif worse_share > bound:
        kind = "regressed"
    elif (wins >= WIN_SHARE * len(base) and better(med_n, med_b)
          and abs(med_n - med_b) > spread):
        kind = "improved"
    else:
        kind = "unchanged"
    return kind, wins, worse_share


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    pairs = min(len(base), len(new))
    if pairs < MIN_PAIRS or len(base) != len(new):
        sys.exit(f"need {MIN_PAIRS}+ pairs of runs, got {len(base)} base and "
                 f"{len(new)} new")

    workloads = sorted(set(base[0]) & set(new[0]))
    print(f"{'workload':26} {'metric':20} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'worse':>8} {'bound':>6} "
          f"{'wins':>6}  verdict")
    regressed = False
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r[w]["e2e"][name]["value"] for r in base]
            n = [r[w]["e2e"][name]["value"] for r in new]
            kind, wins, worse = verdict(b, n, m["better"] == "lower",
                                        m["bound"])
            regressed |= kind == "regressed"
            fmt = lambda v: "{:.6g} [{:.6g}, {:.6g}]".format(
                statistics.median(v), *quartiles(v))
            print(f"{w:26} {name:20} {fmt(b):>32} {fmt(n):>32} "
                  f"{worse * 100:7.2f}% {m['bound'] * 100:5.1f}% "
                  f"{wins:>3}/{pairs:<2}  {kind}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
