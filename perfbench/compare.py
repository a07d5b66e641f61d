"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file is a ``.perfbench_out/results.jsonl`` written by ``run.py``
(one line per run) on the parent and on the change, with the same
benchmark code and ``--seconds``.  For every workload it prints each
end-to-end metric's median and quartiles on both sides, the pairs the
change won (runs paired by seed, else by order; ties count for neither)
and a verdict:

* ``improved`` — the change won at least 90% of the pairs and the
  medians differ, in its favour, by more than the parent's quartile
  spread;
* ``worse`` — the change's median is worse than the parent's by more
  than the metric's bound from ``BENCHMARK.json``;
* ``unresolved`` — the parent's own spread is wider than the bound, and
  not every change run beats every parent run;
* ``no worse`` — otherwise.

The row verdict is the worst of the metric verdicts, except that it is
``incorrect`` when the change broke the simulated outputs: a run of
either side failed its correctness check, the change failed a larger
share of its attempted operations than the parent, or on a seed both
sides ran the output digest or a simulated fidelity metric
(``FIDELITY``, recorded in each run's ``extras``) differs.  A speed-up
that changes the simulated protocol therefore never reads as
``improved``.

It also prints the fidelity metrics' medians on both sides and the
per-layer self-time deltas of the traced runs, so a claimed saving can
be located.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WIN_SHARE = 0.9
#: the simulated outputs run.py records in ``extras``: deterministic per
#: seed, so any difference on a shared seed means the protocol changed.
FIDELITY = ("attach_fail_ratio", "sim_attach_ms_p50", "sim_attach_ms_tail",
            "goodput_mbps")
RANK = ("improved", "no worse", "unresolved", "worse", "incorrect")


def load(path: str) -> list:
    with open(path) as source:
        return [json.loads(line) for line in source if line.strip()]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pairs(parent: list, change: list, name: str) -> list:
    """``(parent value, change value)`` pairs, by seed where both sides
    ran it, otherwise in run order."""
    by_seed = {run["seed"]: run for run in parent}
    matched = [(by_seed[run["seed"]], run) for run in change
               if run["seed"] in by_seed]
    if not matched:
        matched = list(zip(parent, change))
    return [(a["metrics"][name]["value"], b["metrics"][name]["value"])
            for a, b in matched]


def verdict(parent: list, change: list, pairs_: list, better: str,
            bound: float) -> tuple:
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    wins = sum(1 for a, b in pairs_ if sign * (b - a) > 0)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    gain = sign * (c_med - p_med)
    if pairs_ and wins >= WIN_SHARE * len(pairs_) and gain > p_q3 - p_q1 \
            and (spread <= bound or all_better):
        return wins, "improved"
    if spread > bound and not all_better:
        return wins, "unresolved"
    if -gain > bound * abs(p_med):
        return wins, "worse"
    return wins, "no worse"


def compare(parent_runs: list, change_runs: list, bench: dict) -> None:
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        parent = [r for r in parent_runs
                  if r["workload"] == workload and not r["trace"]]
        change = [r for r in change_runs
                  if r["workload"] == workload and not r["trace"]]
        print(f"== {workload}: parent {len(parent)} runs, "
              f"change {len(change)} runs")
        if parent and change:
            _e2e_rows(parent, change, bench)
        _layer_rows(
            [r for r in parent_runs if r["workload"] == workload
             and r["trace"]],
            [r for r in change_runs if r["workload"] == workload
             and r["trace"]])


def correctness(parent: list, change: list) -> list:
    """Reasons the change's simulated outputs are not the parent's."""
    reasons = []
    by_seed = {r["seed"]: r for r in parent}
    shared = [(by_seed[r["seed"]], r) for r in change if r["seed"] in by_seed]
    differ = sorted(b["seed"] for a, b in shared if a["digest"] != b["digest"])
    if differ:
        reasons.append(f"output digests differ on seeds {differ}")
    for name in FIDELITY:
        moved = sorted(b["seed"] for a, b in shared
                       if a["extras"].get(name) != b["extras"].get(name))
        if moved:
            reasons.append(f"{name} differs on seeds {moved}")
    for side, runs in (("parent", parent), ("change", change)):
        bad = sum(1 for r in runs if not r["correct"])
        if bad:
            reasons.append(f"{bad} {side} runs failed their correctness "
                           "check")
    # Runs measure as many rounds as fit their time, so compare shares.
    p_failed, c_failed = (sum(r["failed"] for r in runs)
                          / sum(r["attempted"] for r in runs)
                          for runs in (parent, change))
    if c_failed > p_failed:
        reasons.append(f"failed share of attempted ops {p_failed:.3g} -> "
                       f"{c_failed:.3g}")
    return reasons


def _e2e_rows(parent: list, change: list, bench: dict) -> None:
    reasons = correctness(parent, change)
    shared = len({r["seed"] for r in parent} & {r["seed"] for r in change})
    for reason in reasons:
        print(f"   INCORRECT: {reason}")
    if not reasons:
        print(f"   simulated outputs identical on {shared} shared seeds")
    for name in FIDELITY:
        p = [r["extras"][name] for r in parent if name in r["extras"]]
        c = [r["extras"][name] for r in change if name in r["extras"]]
        if p and c:
            print(f"   {name:18s} (simulated) median "
                  f"{statistics.median(p):.6g} -> {statistics.median(c):.6g}")
    print(f"   {'metric':16s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'delta':>8s} "
          f"{'won':>6s}  verdict")
    worst = "incorrect" if reasons else "improved"
    for metric in bench["end_to_end"]:
        name = metric["name"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pairs_ = pairs(parent, change, name)
        wins, result = verdict(p, c, pairs_, metric["better"],
                               metric["bound"])
        if RANK.index(result) > RANK.index(worst):
            worst = result
        p_q1, p_med, p_q3 = quartiles(p)
        c_q1, c_med, c_q3 = quartiles(c)
        delta = (c_med - p_med) / p_med if p_med else 0.0
        print(f"   {name:16s} {p_med:12.5g} [{p_q1:.5g}, {p_q3:.5g}] "
              f"{c_med:12.5g} [{c_q1:.5g}, {c_q3:.5g}] {delta:+8.2%} "
              f"{wins:3d}/{len(pairs_):<2d}  {result} "
              f"(bound {metric['bound']:.0%})")
    print(f"   row verdict: {worst}")


def _layer_rows(parent: list, change: list) -> None:
    if not parent or not change:
        return
    print("   per-layer self time (traced runs, medians per round):")
    names = [name for name in parent[0]["metrics"]
             if name.endswith("busy_s") or name == "unattributed_s"]
    for name in names:
        p = statistics.median(r["metrics"][name]["value"] for r in parent)
        c = statistics.median(r["metrics"][name]["value"] for r in change
                              if name in r["metrics"])
        if p or c:
            print(f"     {name:36s} {p:10.4f} s -> {c:10.4f} s "
                  f"({c - p:+.4f} s)")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Compare parent and change benchmark results.")
    parser.add_argument("parent", help="parent results.jsonl")
    parser.add_argument("change", help="change results.jsonl")
    parser.add_argument("--bench", default=os.path.join(
        os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench) as source:
        bench = json.load(source)
    compare(load(args.parent), load(args.change), bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
