"""The benchmark's four workloads, each one fixed-size round.

A round builds its scenario from the seed, calls ``clock.start()`` right
before the simulator starts (everything earlier is set-up) and
``clock.stop()`` as soon as it stops (the digest and checks come after
the measured region), checks the simulated outputs and returns a plain
dict:

* ``sim_s`` — simulated seconds covered;
* ``ops`` — units of work done (what ``ops_per_s`` counts);
* ``attempted`` / ``failed`` — operations tried and failed;
* ``digest`` — sha256 over the simulated outputs;
* ``checks`` — descriptions of every output check that failed;
* ``fidelity`` — simulated results users read (latencies, goodput);
* ``counters`` — work counters the program already keeps.

Only public names of ``repro`` are used, so the same rounds run with and
without the tracing wrappers.  Nothing here reads the wall clock: the
caller times the region between ``clock.start()`` and ``clock.stop()``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

#: keypool slots for the attach_lte scenario (clear of the slots taken
#: elsewhere: the network build functions use seed*100.., broker-scale
#: 9300.., the megaload cohort 9650..).
ATTACH_SLOT_BASE = 9900
BROKER_ADDRESS = "52.20.0.1"
#: network seed of the failover drill (broker-HA's): it picks only key
#: material, so fixing it keeps set-up time independent of the seed.
FAILOVER_NETWORK_SEED = 11
#: the recorded drive the datapath replays (radio capacity and handover
#: schedule); the benchmark seed varies the application start times.
#: Drive 5 is the one among 1-20 whose single handover (at 18.3 s) falls
#: inside the 24 s window; its mean capacity, 17.6 Mbit/s, is the route's.
DATAPATH_DRIVE_SEED = 5

#: attach_lte's deployment: the 16 bTelco sites and a 4-shard pipeline,
#: as in the 16-site cells of ``repro.testbed.broker_scale``.
ATTACH_SITES = 16
ATTACH_SHARDS = 4
#: attach_lte's UEs arrive in bursts of 16 at one instant, the shape of
#: broker_scale's concurrency-16 cells, so each burst reaches the broker
#: as a group and fills pipeline batches (about 3.5 requests a batch).
ATTACH_BURST = 16
#: Offered load, UEs per simulated second: half of the 816 attaches/s
#: that broker_scale's 64-UE, 4-shard LTE pipeline cell completes
#: (``run_cell(64, 4, rat="lte")``, simulated time), so bursts queue and
#: batch in the pipeline without saturating it.
ATTACH_RATE_PER_S = 408.0
#: failover_5g's churn, scaled up from the broker-HA drill's default of
#: 150 attaches; the drill's topology and pacing are kept.
FAILOVER_ATTACHES = 200
FAILOVER_SHARDS = 2
FAILOVER_SPARES = 1
#: broker-HA's replay probe time: both failovers have settled and the
#: replayed request is still inside the replay window.
FAILOVER_PROBE_AT = 5.5
MEGALOAD_SITES = 256
MEGALOAD_DURATION = 60.0

#: tail percentiles tried, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def digest_of(outputs) -> str:
    return hashlib.sha256(json.dumps(
        outputs, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def latency_summary(values_ms: list) -> dict:
    """Median and the highest percentile with at least ten samples above
    it (nearest rank), with the sample count."""
    values = sorted(values_ms)
    n = len(values)
    if n == 0:
        return {"n": 0, "p50_ms": 0.0, "tail_pct": 0.0, "tail_ms": 0.0,
                "tail_beyond": 0}

    def rank(pct: float) -> float:
        return values[max(0, math.ceil(pct / 100.0 * n) - 1)]

    tail = next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0),
                50.0)
    return {"n": n, "p50_ms": rank(50.0), "tail_pct": tail,
            "tail_ms": rank(tail),
            "tail_beyond": n - math.ceil(tail / 100.0 * n)}


def link_totals(simplex_links) -> dict:
    totals = dict.fromkeys(("sent_packets", "delivered_packets",
                            "delivered_bytes", "dropped_loss",
                            "dropped_queue", "dropped_police",
                            "dropped_down"), 0)
    for half in simplex_links:
        for key in totals:
            totals[key] += getattr(half.stats, key)
    return totals


def _verify_counters() -> dict:
    from repro.crypto import verify_cache_stats

    stats = verify_cache_stats()
    return {"verify_cache_hits": stats["hits"],
            "verify_cache_misses": stats["misses"]}


def _broker_counters(stats: dict) -> dict:
    return {key: stats.get(key, 0) for key in (
        "requests_approved", "requests_denied", "pipeline_batches",
        "pipeline_requests", "cert_cache_hits")}


# -- attach_lte ---------------------------------------------------------------

def attach_lte(seed: int, clock, *, ues: int = 128) -> dict:
    """Fresh LTE SAP attaches in open-loop Poisson bursts, one pipelined
    sharded broker behind ``ATTACH_SITES`` bTelco sites."""
    from repro.core import (Brokerd, CellBricksAgw, CellBricksUe,
                            UeSapCredentials)
    from repro.core.qos import QosCapabilities
    from repro.crypto import CertificateAuthority, clear_verify_cache, keypool
    from repro.lte import ENodeB
    from repro.net import Host, Link, Simulator

    sites = ATTACH_SITES
    rng = random.Random(seed)
    keypool.warm(range(ATTACH_SLOT_BASE, ATTACH_SLOT_BASE + 3 + sites))
    sim = Simulator()

    def connect(name, a, b, delay_s):
        link = Link(sim, name, a, b, bandwidth_bps=1e9, delay_s=delay_s)
        a.add_route(b.address.rsplit(".", 1)[0], link)
        b.add_route(a.address.rsplit(".", 1)[0], link)

    ca = CertificateAuthority(key=keypool.pooled_keypair(ATTACH_SLOT_BASE))
    broker_host = Host(sim, "broker-host", address=BROKER_ADDRESS)
    brokerd = Brokerd(broker_host, id_b="b.bench", ca_public_key=ca.public_key,
                      key=keypool.pooled_keypair(ATTACH_SLOT_BASE + 1))
    brokerd.configure_pipeline(enabled=True, batch_window=0.002,
                               verify_workers=4, shards=ATTACH_SHARDS)
    ue_key = keypool.pooled_keypair(ATTACH_SLOT_BASE + 2)
    qos = QosCapabilities(supported_qcis=(1, 8, 9))
    ran_hosts = []
    for index in range(sites):
        ran = Host(sim, f"site{index}-ran", address=f"10.{30 + index}.0.1")
        core = Host(sim, f"site{index}-core", address=f"10.{60 + index}.0.1")
        key = keypool.pooled_keypair(ATTACH_SLOT_BASE + 3 + index)
        id_t = f"t.bench-{index}"
        agw = CellBricksAgw(
            core, broker_ip=BROKER_ADDRESS, id_t=id_t, key=key,
            certificate=ca.issue(id_t, "btelco", key.public_key),
            ca_public_key=ca.public_key, qos_capabilities=qos,
            name=f"site{index}-agw", ue_pool_prefix=f"10.{128 + index}.0")
        agw.trust_broker("b.bench", brokerd.public_key)
        ENodeB(ran, agw_ip=core.address, name=f"site{index}-enb")
        connect(f"site{index}-backhaul", ran, core, 0.00015)
        connect(f"site{index}-broker", core, broker_host, 0.0025)
        ran_hosts.append(ran)

    # Open-loop Poisson bursts at ``ATTACH_RATE_PER_S`` UEs a second,
    # conditioned on all of them landing in the window (sorted uniform
    # burst times), so the simulated span is the same for every seed.
    window = ues / ATTACH_RATE_PER_S
    bursts = sorted(rng.uniform(0.0, window)
                    for _ in range(-(-ues // ATTACH_BURST)))
    results: dict = {}
    for index in range(ues):
        arrival = bursts[index // ATTACH_BURST]
        site = rng.randrange(sites)
        ue_host = Host(sim, f"ue{index}",
                       address=f"10.{140 + index // 200}.{index % 200}.2")
        connect(f"radio{index}", ue_host, ran_hosts[site], 0.0001)
        subscriber = f"sub-{index:05d}"
        brokerd.enroll_subscriber(subscriber, ue_key.public_key)
        creds = UeSapCredentials(id_u=subscriber, id_b="b.bench",
                                 ue_key=ue_key,
                                 broker_public_key=brokerd.public_key)
        ue = CellBricksUe(ue_host, ran_hosts[site].address, creds,
                          target_id_t=f"t.bench-{site}", name=f"cb-ue{index}")
        ue.on_attach_done = (lambda result, index=index:
                             results.setdefault(index, []).append(result))
        sim.schedule(arrival, ue.attach)

    clear_verify_cache()
    clock.start()
    # Stop once the storm has drained: later events are session-expiry
    # housekeeping an hour of simulated time away.
    sim.run(until=window + 5.0)
    clock.stop()

    outcomes = []
    latencies = []
    checks = []
    for index in range(ues):
        done = results.get(index, [])
        if len(done) != 1:
            checks.append(f"ue{index} finished {len(done)} attaches")
            continue
        result = done[0]
        outcomes.append([index, bool(result.success),
                         round(result.latency * 1000.0, 9)])
        if result.success:
            latencies.append(result.latency * 1000.0)
    failed = ues - len(latencies)
    if failed:
        checks.append(f"{failed} of {ues} attaches failed")
    # Every attach crosses radio, backhaul and broker links both ways.
    floor_ms = 2 * (0.1 + 0.15 + 2.5)
    if latencies and min(latencies) < floor_ms:
        checks.append(f"attach faster than the {floor_ms} ms link floor")
    stats = brokerd.stats()
    if stats["attach_ok"] != len(latencies):
        checks.append(f"broker approved {stats['attach_ok']} attaches, "
                      f"UEs saw {len(latencies)}")
    counters = {"attaches": len(latencies)}
    counters.update(_broker_counters(stats))
    counters.update(_verify_counters())
    return {
        "sim_s": sim.now, "ops": len(latencies), "attempted": ues,
        "failed": failed, "checks": checks,
        "digest": digest_of({"outcomes": outcomes,
                             "attach_ok": stats["attach_ok"]}),
        "fidelity": {"attach_attempts": ues, "attach_failed": failed,
                     "latency": latency_summary(latencies)},
        "counters": counters,
    }


# -- failover_5g --------------------------------------------------------------

def _replay_probe(network, frontend, victim: int, crash_at: float,
                  outcome: dict) -> None:
    """The broker-HA drill's replay probe: re-sign an ``authReqU`` the
    victim shard approved before it crashed (same nonce, another
    envelope) and send it to the broker; the promoted replica must deny
    it.  Writes the answer into ``outcome``."""
    from repro.core import BrokerAuthRequest, BrokerAuthResponse
    from repro.lte import SignalingNode
    from repro.net import Host, Link

    # Only auths old enough to have been replicated before the crash
    # tell anything about the replica's replay window.
    candidates = [entry for entry in frontend.recent_auths
                  if entry["at"] < crash_at - 0.15
                  and entry["shard_id"] == victim]
    if not candidates:
        outcome["cause"] = "no pre-crash auth captured"
        return
    entry = candidates[-1]
    auth_req_t = network.sites[entry["id_t"]].agw.sap.augment_request(
        entry["auth_req_u"], lawful_intercept=True)
    sim = network.sim
    probe_host = Host(sim, "replay-probe", address="52.23.0.2")
    probe = SignalingNode(probe_host, name="replay-probe")
    link = Link(sim, "probe-broker", probe_host, network.broker_host,
                bandwidth_bps=1e9, delay_s=0.001)
    probe_host.add_route(network.broker_host.address.rsplit(".", 1)[0],
                         link)
    network.broker_host.add_route(probe_host.address.rsplit(".", 1)[0],
                                  link)
    outcome["cause"] = "no response"

    def on_response(src_ip, response):
        outcome["denied"] = not response.approved
        outcome["cause"] = response.cause or "approved"

    probe.on(BrokerAuthResponse, on_response)
    probe.send_request(network.broker_host.address,
                       BrokerAuthRequest(auth_req_t=auth_req_t,
                                         reply_token=0),
                       size=auth_req_t.wire_size, timeout=0.5,
                       max_attempts=5)


def failover_5g(seed: int, clock) -> dict:
    """5G attach/revoke churn from one closed-loop UE against the
    distributed broker, through the broker-HA drill's two shard crashes,
    resync, live rebalance and replay probe, with sim-clock tracing and
    a KPI collector installed.  The seed sets the background subscriber
    population the live rebalance re-shards (how many, and which ring
    positions).

    The drill's timeline is rebuilt here rather than run through
    ``repro.testbed.broker_ha.run_cell``: that function builds its
    network and starts the simulator in one call, which leaves no point
    to end set-up, and it fixes the background population."""
    from repro.core.shardhost import deploy_shard_hosts
    from repro.crypto import clear_verify_cache
    from repro.emulation import ChaosSchedule, run_chaos
    from repro.emulation.chaos import node_crash
    from repro.obs import FleetKpiStore, KpiCollector, Obs
    from repro.testbed.broker_ha import (DETECTION_TIMEOUT,
                                         GATE_SUCCESS_RATE,
                                         HEARTBEAT_INTERVAL)

    rng = random.Random(seed)
    fillers = [f"ha-filler-{rng.getrandbits(32):08x}"
               for _ in range(rng.randint(8, 16))]
    # The broker-HA drill's timeline: the victim's primary crashes and
    # restarts empty (resync), a spare shard is added (live rebalance)
    # and the promoted replica crashes right after the rebalance begins.
    crash_1, restart_after, rebalance_at, crash_2 = 0.8, 1.5, 3.0, 3.1
    obs = Obs(trace_capacity=1 << 22)
    store = FleetKpiStore()
    schedule = ChaosSchedule()
    captured: dict = {}
    replay: dict = {"denied": False, "cause": "probe never fired"}

    def on_network_built(network):
        frontend = deploy_shard_hosts(
            network, num_shards=FAILOVER_SHARDS, spares=FAILOVER_SPARES,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            detection_timeout=DETECTION_TIMEOUT)
        victim = frontend.ring.shard_for(network.credentials.id_u)
        for subscriber in fillers:
            network.brokerd.enroll_subscriber(
                subscriber, network.credentials.ue_key.public_key)
        schedule.add(node_crash(crash_1, f"shard{victim}",
                                duration=restart_after))
        schedule.add(node_crash(crash_2, f"shard{victim}r"))
        network.sim.schedule(rebalance_at, frontend.add_shard)
        network.sim.schedule(FAILOVER_PROBE_AT, _replay_probe, network,
                             frontend, victim, crash_1, replay)
        collector = KpiCollector(network.sim, store, interval=0.5,
                                 horizon=FAILOVER_PROBE_AT + 2.0)
        collector.add_counter_probe("frontend", lambda: {
            "failovers": frontend.failovers_total.value,
            "resyncs": frontend.resyncs_total.value,
            "rebalances": frontend.rebalances_total.value,
            "degraded_denials": frontend.degraded_denials.value,
        })
        collector.add_counter_probe("brokerd", lambda: {
            "approved": network.brokerd.requests_approved,
            "denied": network.brokerd.requests_denied,
        })
        collector.start()
        captured["collector"] = collector
        clear_verify_cache()
        clock.start()

    attaches = FAILOVER_ATTACHES
    report = run_chaos(attaches=attaches, schedule=schedule, revoke_every=25,
                       seed=FAILOVER_NETWORK_SEED, think_time=0.02,
                       on_network_built=on_network_built, obs=obs, rat="5g")
    clock.stop()
    collector = captured["collector"]
    collector.stop()
    distributed = report.broker_stats["distributed"]

    attach_spans = sorted(
        (span for span in obs.tracer.spans()
         if span.name == "attach" and span.parent_id == 0
         and span.end is not None),
        key=lambda span: (span.start, span.span_id))
    outcomes = [[round(span.start, 9), round(span.end - span.start, 12),
                 span.status] for span in attach_spans]
    latencies = [(span.end - span.start) * 1000.0 for span in attach_spans
                 if span.status == "ok"]
    checks = []
    # The drill's own gate: a terminal denial may end an attach now and
    # then (it counts in ``failed``), but at most one in a hundred.
    if report.successes < GATE_SUCCESS_RATE * attaches:
        checks.append(f"{report.successes} of {attaches} attaches succeeded, "
                      f"gate {GATE_SUCCESS_RATE:.0%}")
    if len(latencies) != report.successes:
        checks.append(f"{len(latencies)} ok attach spans for "
                      f"{report.successes} successes")
    if report.unauthorized_session_seconds:
        checks.append("unauthorized session seconds "
                      f"{report.unauthorized_session_seconds}")
    if distributed["failovers_total"] < 2:
        checks.append(f"{distributed['failovers_total']} failovers, want 2")
    if distributed["resyncs_total"] < 1 or distributed["rebalances_total"] < 1:
        checks.append("drill ran without a resync or a rebalance")
    if not replay["denied"]:
        checks.append("replayed authReqU not denied across failover: "
                      + replay["cause"])
    if obs.tracer.spans_dropped:
        checks.append(f"{obs.tracer.spans_dropped} obs spans dropped")
    stats = report.broker_stats
    counters = {"attaches": report.successes,
                "obs_spans": obs.tracer.spans_recorded,
                "kpi_samples": collector.samples,
                "repl_ops": sum(host["repl_ops_applied"]
                                for host in distributed["hosts"].values()),
                "failovers": distributed["failovers_total"],
                "resyncs": distributed["resyncs_total"]}
    counters.update(_broker_counters(stats))
    counters.update(_verify_counters())
    # The churn ends at the last attach; the simulator then drains
    # session-expiry housekeeping up to an hour of simulated time later.
    churn_s = max((span.end for span in attach_spans), default=0.0)
    return {
        "sim_s": churn_s, "ops": report.successes,
        "attempted": report.attempts, "failed": report.failures,
        "checks": checks,
        "digest": digest_of({
            "attaches": outcomes, "failover_log": distributed["failover_log"],
            "rebalance_log": distributed["rebalance_log"],
            "revocations": report.revocations,
            "failure_causes": report.failure_causes, "replay": replay}),
        "fidelity": {"attach_attempts": report.attempts,
                     "attach_failed": report.failures,
                     "latency": latency_summary(latencies)},
        "counters": counters,
    }


# -- datapath -----------------------------------------------------------------

def datapath(seed: int, clock, *, duration: float = 24.0) -> dict:
    """The paired MNO-vs-CellBricks emulation on the highway at night: a
    bulk TCP (MNO) or MPTCP (CellBricks) iperf flow beside a VoIP call on
    each path; the CellBricks path changes address at every handover."""
    from repro.apps import (KIND_MPTCP, KIND_TCP, IperfClient, IperfServer,
                            make_call)
    from repro.apps.voip import RTP_PAYLOAD
    from repro.emulation import EmulationConfig, PairedEmulation
    from repro.net import Simulator

    rng = random.Random(seed)
    sim = Simulator()
    emulation = PairedEmulation(sim, EmulationConfig(
        route="highway", time_of_day="night", duration=duration,
        seed=DATAPATH_DRIVE_SEED))
    paths = {"mno": emulation.mno, "cellbricks": emulation.cb}
    IperfServer(KIND_TCP, emulation.mno.server)
    IperfServer(KIND_MPTCP, emulation.cb.server)
    iperf = {
        "mno": IperfClient(KIND_TCP, emulation.mno.ue,
                           emulation.mno.server.address),
        "cellbricks": IperfClient(
            KIND_MPTCP, emulation.cb.ue, emulation.cb.server.address,
            address_wait=emulation.config.address_wait_s),
    }
    calls: dict = {}
    emulation.start()
    for arch, path in paths.items():
        sim.schedule(rng.uniform(0.0, 1.0), iperf[arch].start)
        sim.schedule(rng.uniform(0.0, 1.0),
                     lambda arch=arch, path=path: calls.__setitem__(
                         arch, make_call(path.ue, path.server,
                                         duration - 2.0)))
    clock.start()
    sim.run(until=duration)
    clock.stop()

    halves = [half for path in paths.values()
              for link in (path.radio_link, path.wan_link)
              for half in (link.a_to_b, link.b_to_a)]
    links = link_totals(halves)
    outputs = {"handovers": emulation.handovers_applied, "links": links}
    app_bytes = 0
    checks = []
    for arch in paths:
        stats = iperf[arch].stats
        caller, callee = calls[arch]
        outputs[arch] = {
            "iperf_bytes": stats.total_bytes,
            "iperf_deliveries": len(stats.deliveries),
            "voip_down": [caller.stats.received,
                          round(sum(caller.stats.delays), 9)],
            "voip_up": [callee.stats.received,
                        round(sum(callee.stats.delays), 9)],
        }
        app_bytes += stats.total_bytes + RTP_PAYLOAD * (
            caller.stats.received + callee.stats.received)
        if stats.total_bytes <= 0 or not caller.stats.received \
                or not callee.stats.received:
            checks.append(f"{arch}: a flow delivered nothing")
        if stats.total_bytes != sum(n for _, n in stats.deliveries):
            checks.append(f"{arch}: iperf byte count disagrees with its log")
    handovers = [event.at for event in emulation.handover_events]
    if emulation.handovers_applied != len(handovers):
        checks.append(f"{emulation.handovers_applied} handovers applied, "
                      f"{len(handovers)} scheduled")
    if handovers:
        resumed = [t for t, _ in iperf["cellbricks"].stats.deliveries
                   if t > handovers[-1]]
        if not resumed:
            checks.append("cellbricks flow never resumed after handover")
    counters = _verify_counters()
    return {
        "sim_s": sim.now, "ops": links["delivered_packets"],
        "attempted": links["delivered_packets"], "failed": 0,
        "checks": checks, "digest": digest_of(outputs),
        "fidelity": {"goodput_mbps": app_bytes * 8.0 / duration / 1e6},
        "counters": counters,
    }


# -- megaload -----------------------------------------------------------------

def megaload(seed: int, clock, *, ues: int = 200_000) -> dict:
    """The scripted struct-of-arrays population on the optimized engine,
    with no full-fidelity cohort (its crypto is charged at measured wall
    cost, which would make the outputs machine-dependent)."""
    from repro.testbed.megaload import MegaloadWorkload

    workload = MegaloadWorkload(
        ues=ues, sites=MEGALOAD_SITES, duration=MEGALOAD_DURATION,
        tick=0.05, seed=seed,
        engine="optimized", adaptive=True, compaction=True,
        real_fraction=0.0)
    clock.start()
    report = workload.run()
    clock.stop()

    cell = report["workload"]
    checks = []
    if cell["actions"] <= 0 or cell["attach_ok"] <= 0:
        checks.append("population did nothing")
    if cell["attach_ok"] + cell["gave_up"] > cell["arrived"] + cell["moves"]:
        checks.append("more attach outcomes than attach starts")
    if cell["gave_up"] > cell["attach_failures"]:
        checks.append("gave-up count exceeds attach failures")
    attach_attempts = cell["attach_ok"] + cell["attach_failures"]
    counters = {"actions": cell["actions"], "attaches": cell["attach_ok"],
                "broker_batches": cell["broker_batches"],
                "rss_per_ue_bytes": report["perf"]["rss_per_ue_bytes"]}
    counters.update(_verify_counters())
    return {
        "sim_s": workload.sim.now, "ops": cell["actions"],
        "attempted": cell["actions"], "failed": 0, "checks": checks,
        "digest": report["digest"],
        "fidelity": {"attach_attempts": attach_attempts,
                     "attach_failed": cell["attach_failures"],
                     "latency": latency_summary(
                         workload.attach_latencies_ms)},
        "counters": counters,
    }


#: name -> (round function, what one op is, canary size overrides).
WORKLOADS = {
    "attach_lte": (attach_lte, "attaches", {"ues": 48}),
    "failover_5g": (failover_5g, "attaches", {}),
    "datapath": (datapath, "packets", {"duration": 6.0}),
    "megaload": (megaload, "ue_actions", {"ues": 20_000}),
}
#: the fixed seed of the canary round checked against golden.json.
CANARY_SEED = 1
