"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload attach_lte --seed 1 --seconds 10 \\
        --trace 0

``--workload all`` runs the four workloads in turn, each with its table
and result line.

Run from the repository root (or any checkout of it).  Each sample is a
fresh interpreter started by this script (``child.py``), so set-up time
includes imports and key generation and peak RSS belongs to one run.

``--trace 0`` measures the end-to-end metrics: one measured process runs
rounds of the workload for ``--seconds`` wall seconds, and two more
processes each time the set-up alone (``setup_s`` is the median of the
three); one of them also runs the canary round whose output digest must
equal the one recorded in ``golden.json``.

``--trace 1`` measures the per-layer metrics: an untraced and a traced
process run the same rounds; their output digests must agree (the
wrappers are passive) and the traced one folds its spans into the
per-layer table.  ``trace.overhead_ratio`` compares the two.

The metric names, units and order come from ``BENCHMARK.json``.  A
human-readable table goes to standard output first; the last line is
the JSON result.  Every run is also appended to
``.perfbench_out/results.jsonl`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: a run must end well inside three minutes.
RUN_DEADLINE_S = 170.0
#: set-up samples per end-to-end run (one measured, the rest set-up only).
SETUP_SAMPLES = 3

sys.path.insert(0, HERE)

import workloads  # noqa: E402  (path set up above)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, role: str, *, deadline: float,
          budget: float = 0.0, trace: int = 0, canary: bool = False,
          spans: str = "") -> dict:
    """Run one ``child.py`` sample to completion; its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("out of time before the next sample")
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed), "--role", role,
               "--budget", repr(budget), "--trace", str(trace),
               "--spawned-at", repr(started)]
    if canary:
        command.append("--canary")
    if spans:
        command += ["--spans", spans]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} sample timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{role} sample failed (exit {proc.returncode}):\n"
                         + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sum(rounds: list, key: str) -> float:
    return sum(result[key] for result in rounds)


def _problems(samples: list) -> list:
    """Failed output checks, and digests that differ between rounds of
    the same seed (measured and traced samples alike)."""
    problems = []
    digests = set()
    for sample in samples:
        for result in sample.get("rounds", []):
            problems.extend(result["checks"])
            digests.add(result["digest"])
    if len(digests) > 1:
        problems.append(f"rounds of one seed gave {len(digests)} different "
                        "output digests")
    return problems


def wall_per_sim_s(rounds: list) -> float:
    return statistics.median(r["wall_s"] / r["sim_s"] for r in rounds)


def end_to_end(workload: str, measure: dict, setups: list) -> tuple:
    """``(metrics, extras)``: the BENCHMARK.json end-to-end values, and
    the workload-specific names with their notes."""
    rounds = measure["rounds"]
    # Medians over rounds: a round that a busy host slowed moves them less
    # than it moves a total.
    ops_per_s = statistics.median(r["ops"] / r["wall_s"] for r in rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s,
        "wall_per_sim_s": wall_per_sim_s(rounds),
        "peak_rss_mb": measure["peak_rss_mb"],
    }
    op_name = workloads.WORKLOADS[workload][1]
    fidelity = rounds[0]["fidelity"]
    extras = [(f"{op_name}_per_s", ops_per_s, "1/s",
               f"median of {len(rounds)} rounds of {rounds[0]['ops']}, "
               f"{_sum(rounds, 'wall_s'):.3f} s measured")]
    if "latency" in fidelity:
        attempts = fidelity["attach_attempts"]
        failed = fidelity["attach_failed"]
        latency = fidelity["latency"]
        extras += [
            ("attach_fail_ratio", failed / attempts, "ratio",
             f"{failed} of {attempts} attaches per round"),
            ("sim_attach_ms_p50", latency["p50_ms"], "ms",
             f"simulated, n={latency['n']}"),
            ("sim_attach_ms_tail", latency["tail_ms"], "ms",
             f"simulated p{latency['tail_pct']:g}, "
             f"{latency['tail_beyond']} samples beyond"),
        ]
    if "goodput_mbps" in fidelity:
        extras.append(("goodput_mbps", fidelity["goodput_mbps"], "Mbit/s",
                       "simulated, application bytes on both paths"))
    return metrics, extras


def run(args, bench: dict) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        plain = spawn(args.workload, args.seed, "measure", deadline=deadline,
                      budget=args.seconds)
        os.makedirs(OUT_DIR, exist_ok=True)
        traced = spawn(args.workload, args.seed, "measure", deadline=deadline,
                       budget=args.seconds, trace=1,
                       spans=os.path.join(OUT_DIR, f"spans-{args.workload}"))
        samples = [plain, traced]
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = (
            wall_per_sim_s(traced["rounds"]) / wall_per_sim_s(plain["rounds"])
            - 1.0)
        declared, extras = bench["per_layer"], []
        notes = [f"missing boundary (not traced): {name}"
                 for name in traced["missing"]]
        measure = plain
    else:
        measure = spawn(args.workload, args.seed, "measure",
                        deadline=deadline, budget=args.seconds)
        setups = [measure["setup_s"]]
        canary = None
        for index in range(SETUP_SAMPLES - 1):
            sample = spawn(args.workload, args.seed, "setup",
                           deadline=deadline, canary=index == 0)
            setups.append(sample["setup_s"])
            canary = canary or sample.get("canary")
        samples = [measure]
        values, extras = end_to_end(args.workload, measure, setups)
        declared, notes = bench["end_to_end"], []
    problems = _problems(samples)
    if not args.trace:
        golden = _golden().get(args.workload)
        problems.extend(canary["checks"])
        if canary["digest"] != golden:
            problems.append(f"canary digest {canary['digest'][:16]} != "
                            f"golden {str(golden)[:16]}")
    rounds = measure["rounds"]
    metrics = {}
    for metric in declared:
        if metric["name"] not in values:
            raise BenchError(f"no value for metric {metric['name']}")
        metrics[metric["name"]] = {"value": values[metric["name"]],
                                   "unit": metric["unit"]}
    result = {
        "correct": not problems,
        "attempted": int(_sum(rounds, "attempted")),
        "failed": int(_sum(rounds, "failed")),
        "metrics": metrics,
    }
    _print_table(args, rounds, metrics, extras,
                 notes + [f"INCORRECT: {problem}" for problem in problems])
    _record(args, result, extras, rounds[0]["digest"])
    return result


def _golden() -> dict:
    with open(os.path.join(HERE, "golden.json")) as source:
        return json.load(source)["digests"]


def _print_table(args, rounds, metrics, extras, notes) -> None:
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"{args.workload}  seed {args.seed}  {kind}  "
          f"{len(rounds)} measured rounds  digest {rounds[0]['digest'][:16]}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value, unit, note in extras:
        print(f"  {name:40s} {value:>16.6g} {unit:8s} {note}")
    for note in notes:
        print(f"  {note}")


def _record(args, result, extras, digest) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    record = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, digest=digest, at=time.time(),
                  extras={name: value for name, value, _, _ in extras},
                  **result)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as out:
        out.write(json.dumps(record) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        bench = json.load(source)
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    for name in names:
        try:
            result = run(argparse.Namespace(**dict(vars(args),
                                                   workload=name)), bench)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
