"""One benchmark process: a workload in a fresh interpreter.

``run.py`` starts this script once per sample, so every sample pays the
imports, key generation and scenario build a user's run pays.

* ``--role setup`` stops at the start of the first measured region and
  reports the set-up time; with ``--canary`` it then runs the canary
  round (fixed seed, small size) whose digest ``run.py`` checks against
  ``golden.json``.
* ``--role measure`` runs rounds of the workload until ``--budget`` wall
  seconds have been measured.  With ``--trace 1`` the tracing wrappers
  are installed before the first scenario is built, the spans are
  written to ``--spans`` and the per-layer table is folded from them.

Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (path set up above)

#: packet-path layers summed into ``net.us_per_packet``.
PACKET_PATH = ("net.link", "net.node", "net.packet", "net.tcp", "net.mptcp")


class _SetupDone(Exception):
    """Raised from ``clock.start()`` to stop a set-up sample."""


class _Clock:
    """Times one round's measured region, ``start()`` to ``stop()``.
    ``on_start`` runs as set-up ends, ``on_stop`` once the clock stopped."""

    def __init__(self, on_start=lambda: None, on_stop=lambda: None):
        self.on_start = on_start
        self.on_stop = on_stop
        self.started = self.stopped = 0.0

    def start(self) -> None:
        self.on_start()
        self.started = time.perf_counter()

    def stop(self) -> None:
        self.stopped = time.perf_counter()
        self.on_stop()


def _peak_rss_mb() -> float:
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS, KiB elsewhere.
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024.0


def _registry_counters(registry: dict) -> dict:
    """Counters the program keeps on the objects a round created."""
    sims = registry.get("Simulator", [])
    halves = registry.get("SimplexLink", [])
    out = {
        "events_processed": registry["events_processed"],
        "events_scheduled": sum(sim.events_scheduled for sim in sims),
        "peak_queue": max((sim.peak_queue for sim in sims), default=0),
        "compactions": sum(sim.compactions for sim in sims),
        "tcp_retransmits": sum(conn.stats.retransmissions
                               for conn in registry.get("TcpConnection", [])),
        "signaling_requests": sum(node.requests_sent for node in
                                  registry.get("SignalingNode", [])),
        "signaling_retransmits": sum(node.retransmissions for node in
                                     registry.get("SignalingNode", [])),
    }
    out.update(workloads.link_totals(halves))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rounds: list, setup_fold: dict, recorder) -> dict:
    """The per-layer table, averaged per round (key generation and the
    megaload build happen once, in set-up, and are reported whole)."""
    import tracing

    n = len(rounds)
    spans: dict = {}
    totals: dict = {}     # the workload's own counters
    registry: dict = {}   # counters read off the objects a round created
    window_s = covered_s = 0.0
    for result in rounds:
        trace = result["trace"]
        window_s += result["wall_s"]
        covered_s += trace["covered_s"]
        for name, (count, busy) in trace["spans"].items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += count
            entry[1] += busy
        for source, sums in ((result["counters"], totals),
                             (trace["registry"], registry)):
            for key, value in source.items():
                sums[key] = sums.get(key, 0) + value
    layer_of_name = dict(zip(recorder.names, recorder.layers))
    busy_by_layer = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, (_, busy) in spans.items():
        busy_by_layer[layer_of_name[name]] += busy / n

    def count(name):
        return spans.get(name, (0, 0.0))[0] / n

    def busy(name):
        return spans.get(name, (0, 0.0))[1] / n

    def per_round(key, sums=totals):
        return sums.get(key, 0) / n

    keygen = setup_fold["spans"].get("crypto.keygen", [0, 0.0])
    keygen_count = keygen[0] + spans.get("crypto.keygen", (0, 0.0))[0]
    keygen_busy = keygen[1] + spans.get("crypto.keygen", (0, 0.0))[1]
    attaches = per_round("attaches")
    delivered = per_round("delivered_packets", registry)
    processed = per_round("events_processed", registry)
    actions = per_round("actions")
    approved = per_round("requests_approved")
    requests = approved + per_round("requests_denied")
    megaload = "actions" in rounds[0]["counters"]
    out = {
        "crypto.keygen.count": keygen_count,
        "crypto.keygen.busy_s": keygen_busy,
        "crypto.verify.cache_hit_ratio": _ratio(
            totals.get("verify_cache_hits", 0),
            totals.get("verify_cache_hits", 0)
            + totals.get("verify_cache_misses", 0)),
        "crypto.private_ops_per_attach": _ratio(
            count("crypto.sign") + count("crypto.decrypt"), attaches),
        "net.sim.events_scheduled": per_round("events_scheduled", registry),
        "net.sim.events_processed": processed,
        "net.sim.peak_queue": max(r["trace"]["registry"]["peak_queue"]
                                  for r in rounds),
        "net.sim.compactions": per_round("compactions", registry),
        "net.sim.events_per_packet": _ratio(processed, delivered),
        "net.sim.events_per_attach": _ratio(processed, attaches),
        "net.sim.tick_wakes": count("net.sim.wake"),
        "net.sim.tick_wakes_per_action": _ratio(count("net.sim.wake"),
                                                actions),
        "net.link.delivered_packets": delivered,
        "net.packet.copies_per_delivered": _ratio(count("net.packet.copy"),
                                                  delivered),
        "net.tcp.retransmits": per_round("tcp_retransmits", registry),
        "net.us_per_packet": _ratio(
            sum(busy_by_layer[layer] for layer in PACKET_PATH),
            delivered) * 1e6,
        "lte.signaling.requests": per_round("signaling_requests", registry),
        "lte.signaling.retransmits": per_round("signaling_retransmits",
                                               registry),
        "core.sap.requests": requests,
        "core.sap.ok_ratio": _ratio(approved, requests),
        "core.broker.batches": per_round("pipeline_batches"),
        "core.broker.batch_size_mean": _ratio(
            per_round("pipeline_requests"), per_round("pipeline_batches")),
        "core.broker.cert_cache_hit_ratio": _ratio(
            per_round("cert_cache_hits"), per_round("pipeline_requests")),
        "core.shardhost.repl_ops": per_round("repl_ops"),
        "core.shardhost.failovers": per_round("failovers"),
        "core.shardhost.resyncs": per_round("resyncs"),
        "testbed.megaload.build_s": rounds[0]["build_s"] if megaload else 0.0,
        "testbed.megaload.broker_batches": per_round("broker_batches"),
        "testbed.megaload.rss_per_ue_bytes":
            rounds[0]["counters"].get("rss_per_ue_bytes", 0.0),
        "obs.spans": per_round("obs_spans"),
        "obs.kpi.samples": per_round("kpi_samples"),
        # Measured wall outside Simulator.run and the other root spans.
        "unattributed_s": (window_s - covered_s) / n,
        "trace.spans": len(recorder.span_name) / n,
        "trace.missing_boundaries": len(recorder.missing),
    }
    for key in ("dropped_loss", "dropped_queue", "dropped_police",
                "dropped_down"):
        out[f"net.link.{key}"] = per_round(key, registry)
    for name in ("crypto.sign", "crypto.decrypt", "crypto.verify",
                 "net.link.send", "net.node.receive",
                 "net.tcp.handle_packet", "core.shardhost.auth"):
        out[f"{name}.count"] = count(name)
        out[f"{name}.busy_s"] = busy(name)
    for name in ("crypto.seal", "core.sap.prevalidate", "core.sap.finish"):
        out[f"{name}.busy_s"] = busy(name)
    for layer, value in busy_by_layer.items():
        out[f"{layer}.busy_s"] = value
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--canary", action="store_true")
    parser.add_argument("--spans", help="span file prefix (traced runs)")
    args = parser.parse_args()

    round_fn, _, canary_size = workloads.WORKLOADS[args.workload]
    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.SpanRecorder()
        recorder.install()

    out: dict = {"role": args.role, "trace": args.trace}
    rounds: list = []
    windows: list = []
    measured = 0.0
    setup_fold = None
    while True:
        state: dict = {}

        def end_setup(state=state):
            if "setup_s" not in out:
                out["setup_s"] = time.monotonic() - args.spawned_at
            if args.role == "setup":
                raise _SetupDone
            if recorder is not None:
                state["lo"] = len(recorder.span_name)

        def end_measure(state=state):
            if recorder is not None:
                state["hi"] = len(recorder.span_name)

        clock = _Clock(end_setup, end_measure)
        started = time.perf_counter()
        try:
            result = round_fn(args.seed, clock)
        except _SetupDone:
            break
        wall = clock.stopped - clock.started
        result["wall_s"] = wall
        result["build_s"] = clock.started - started
        if recorder is not None:
            lo, hi = state["lo"], state["hi"]
            if setup_fold is None:
                setup_fold = recorder.fold(0, lo)
            windows.append([lo, hi])
            result["trace"] = recorder.fold(lo, hi)
            result["trace"]["registry"] = _registry_counters(
                recorder.take_registry())
        rounds.append(result)
        measured += wall
        if measured >= args.budget:
            break
        del result
        gc.collect()

    if args.role == "setup" and args.canary:
        canary = round_fn(workloads.CANARY_SEED, _Clock(), **canary_size)
        out["canary"] = {"digest": canary["digest"],
                         "checks": canary["checks"]}
    if rounds:
        out["peak_rss_mb"] = _peak_rss_mb()
        if recorder is not None:
            out["layers"] = layer_metrics(rounds, setup_fold, recorder)
            out["missing"] = recorder.missing
            if args.spans:
                recorder.write(args.spans, f"{args.workload}-{args.seed}-"
                               f"{os.getpid()}-{time.time():.0f}", windows)
            for result in rounds:
                del result["trace"]
        out["rounds"] = rounds
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
