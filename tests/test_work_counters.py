"""Deterministic work counters on the packet data path and in key set-up.

Wall-clock speed depends on the machine; the work done per simulated
packet does not.  These gates pin it on a short seeded drive, so a change
that brings back per-ACK heap churn (for instance a retransmission timer
that cancels and pushes a fresh heap entry on every ACK) fails here on any
machine.  Likewise the number of RSA prime searches a control-plane
set-up runs: its pool keys come from the committed fixture.
"""

from repro.apps import KIND_MPTCP, KIND_TCP, IperfClient, IperfServer
from repro.crypto import keypool, rsa
from repro.emulation import EmulationConfig, HandoverEvent, PairedEmulation
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
