"""Deterministic work counters on the packet data path and in key set-up.

Wall-clock speed depends on the machine; the work done per simulated
packet does not.  These gates pin it on a short seeded drive, so a change
that brings back per-ACK heap churn (for instance a retransmission timer
that cancels and pushes a fresh heap entry on every ACK) fails here on any
machine.  Likewise the number of RSA prime searches a control-plane
set-up runs: its pool keys come from the committed fixture, and the
number of RSA private operations an attach costs: SAP's floor on every
broker path.
"""

import pytest

from repro.apps import KIND_MPTCP, KIND_TCP, IperfClient, IperfServer
from repro.core.shardhost import deploy_shard_hosts
from repro.crypto import keypool, rsa
from repro.emulation import EmulationConfig, HandoverEvent, PairedEmulation
from repro.emulation.chaos import run_chaos
from repro.net import Simulator

DRIVE_SEED = 7
DURATION_S = 6.0
HANDOVER_AT_S = 3.0
HANDOVER_GAP_S = 0.5

#: link-delivered packets on this drive (all four links, both directions).
DELIVERED_PACKETS = 30346
#: heap pushes per delivered packet: 1.536 measured with the lazy timer
#: re-arm; cancel-and-push on every TCP ACK gave 1.725.
MAX_EVENTS_PER_PACKET = 1.54


def _drive():
    """A bulk TCP flow (MNO path) beside a bulk MPTCP flow (CellBricks
    path) on the night highway, with one handover mid-drive."""
    sim = Simulator()
    emulation = PairedEmulation(sim, EmulationConfig(
        route="highway", time_of_day="night", duration=DURATION_S,
        seed=DRIVE_SEED))
    emulation.handover_events = [HandoverEvent(at=HANDOVER_AT_S,
                                               gap_s=HANDOVER_GAP_S)]
    IperfServer(KIND_TCP, emulation.mno.server)
    IperfServer(KIND_MPTCP, emulation.cb.server)
    tcp = IperfClient(KIND_TCP, emulation.mno.ue,
                      emulation.mno.server.address)
    mptcp = IperfClient(KIND_MPTCP, emulation.cb.ue,
                        emulation.cb.server.address,
                        address_wait=emulation.config.address_wait_s)
    emulation.start()
    sim.schedule(0.1, tcp.start)
    sim.schedule(0.2, mptcp.start)
    sim.run(until=DURATION_S)
    halves = [half for path in (emulation.mno, emulation.cb)
              for link in (path.radio_link, path.wan_link)
              for half in (link.a_to_b, link.b_to_a)]
    delivered = sum(half.stats.delivered_packets for half in halves)
    return sim, emulation, tcp, mptcp, delivered


def test_events_scheduled_per_delivered_packet():
    sim, emulation, tcp, mptcp, delivered = _drive()
    assert emulation.handovers_applied == 1
    assert tcp.stats.total_bytes > 0
    # The MPTCP flow came back on the new address after the handover.
    assert any(t > HANDOVER_AT_S + HANDOVER_GAP_S
               for t, _ in mptcp.stats.deliveries)
    assert delivered == DELIVERED_PACKETS
    assert sim.events_scheduled / delivered <= MAX_EVENTS_PER_PACKET


#: keypool slots of the perfbench ``attach_lte`` scenario (CA, broker,
#: UE, 16 sites) and of ``repro.testbed.broker_scale`` (the same shape).
ATTACH_LTE_SLOTS = range(9900, 9919)
BROKER_SCALE_SLOTS = range(9300, 9319)


def test_warming_control_plane_slots_generates_no_keys(monkeypatch):
    calls = []
    real = rsa.generate_keypair

    def counting(*args, **kwargs):
        calls.append(kwargs.get("rng"))
        return real(*args, **kwargs)

    monkeypatch.setattr(rsa, "generate_keypair", counting)
    monkeypatch.setattr(keypool, "generate_keypair", counting)
    monkeypatch.setattr(keypool, "_POOL", {})
    keys = keypool.warm([*ATTACH_LTE_SLOTS, *BROKER_SCALE_SLOTS])
    assert len({key.n for key in keys}) == 38
    assert calls == []


#: RSA private ops per fresh SAP attach: the UE, the bTelco and the
#: broker's two seal-and-signs sign; the broker unwraps the authVec once,
#: and the bTelco and the UE each open their sealed response.
SIGNS_PER_ATTACH = 4
DECRYPTS_PER_ATTACH = 3
CHURN_ATTACHES = 12


@pytest.mark.parametrize("rat,tier", [("lte", "shard_hosts"),
                                      ("5g", "shard_hosts"),
                                      ("lte", "pipeline")])
def test_private_ops_per_fresh_attach_at_protocol_floor(monkeypatch, rat,
                                                        tier):
    """A fault-free attach churn, counted from the end of set-up (the CA
    signs certificates while the network is built)."""
    calls = {"sign": 0, "decrypt": 0}
    real_sign = rsa.PrivateKey.sign
    real_decrypt = rsa.PrivateKey.decrypt

    def counting_sign(self, *args, **kwargs):
        calls["sign"] += 1
        return real_sign(self, *args, **kwargs)

    def counting_decrypt(self, *args, **kwargs):
        calls["decrypt"] += 1
        return real_decrypt(self, *args, **kwargs)

    monkeypatch.setattr(rsa.PrivateKey, "sign", counting_sign)
    monkeypatch.setattr(rsa.PrivateKey, "decrypt", counting_decrypt)
    built = {}

    def on_network_built(network):
        if tier == "shard_hosts":
            deploy_shard_hosts(network, num_shards=2)
        else:
            network.brokerd.configure_pipeline(enabled=True, shards=4)
        built["network"] = network
        calls.update(sign=0, decrypt=0)

    report = run_chaos(attaches=CHURN_ATTACHES, seed=3, rat=rat,
                       on_network_built=on_network_built)
    network = built["network"]
    if tier == "shard_hosts":
        fresh = sum(host.auths_served
                    for host in network.shard_hosts.values())
    else:
        fresh = network.brokerd.sap.attach_ok
    assert report.successes == fresh == CHURN_ATTACHES
    assert calls == {"sign": SIGNS_PER_ATTACH * fresh,
                     "decrypt": DECRYPTS_PER_ATTACH * fresh}
