"""Integration tests for the TCP implementation over simulated links."""

import random

import pytest

from repro.net import (
    Host,
    Link,
    Packet,
    Simulator,
    TcpConnection,
    TcpListener,
)


def make_pair(sim, bandwidth=10e6, delay=0.01, loss=0.0, seed=1,
              queue_limit=256 * 1024):
    """Two directly-linked hosts."""
    a = Host(sim, "a", address="10.0.0.1")
    b = Host(sim, "b", address="10.0.0.2")
    Link(sim, "ab", a, b, bandwidth_bps=bandwidth, delay_s=delay,
         loss_rate=loss, queue_limit_bytes=queue_limit,
         rng=random.Random(seed))
    return a, b


class ServerSink:
    """Accepts one connection and counts delivered bytes."""

    def __init__(self, host, port=80):
        self.received = 0
        self.closed = False
        self.conn = None
        self.listener = TcpListener(host, port, self._accept)

    def _accept(self, conn):
        self.conn = conn
        conn.on_data = self._on_data
        conn.on_close = self._on_close

    def _on_data(self, nbytes, meta):
        self.received += nbytes

    def _on_close(self):
        self.closed = True


class TestHandshake:
    def test_three_way_handshake(self):
        sim = Simulator()
        a, b = make_pair(sim, delay=0.05)
        sink = ServerSink(b)
        client = TcpConnection(a, "10.0.0.2", 80)
        established = []
        client.on_established = lambda: established.append(sim.now)
        client.connect()
        sim.run(until=1.0)
        assert established and established[0] == pytest.approx(0.1, rel=0.2)
        assert client.state == "ESTABLISHED"
        assert sink.conn.state == "ESTABLISHED"

    def test_syn_retransmission_on_loss(self):
        sim = Simulator()
        a, b = make_pair(sim)
        sink = ServerSink(b)
        client = TcpConnection(a, "10.0.0.2", 80)
        established = []
        client.on_established = lambda: established.append(sim.now)
        # Take the link down so the first SYN dies, then bring it back.
        a.links[0].set_up(False)
        client.connect()
        sim.schedule(0.5, a.links[0].set_up, True)
        sim.run(until=5.0)
        # First SYN at t=0 lost; retry after INITIAL_RTO=1 s succeeds.
        assert established and established[0] == pytest.approx(1.02, rel=0.1)

    def test_connect_gives_up_after_max_retries(self):
        sim = Simulator()
        a, b = make_pair(sim)
        a.links[0].set_up(False)
        client = TcpConnection(a, "10.0.0.2", 80)
        failures = []
        client.on_fail = failures.append
        client.connect()
        sim.run(until=300.0)
        assert failures == ["connect timed out"]
        assert client.state == "DONE"

    def test_connect_twice_raises(self):
        sim = Simulator()
        a, b = make_pair(sim)
        ServerSink(b)
        client = TcpConnection(a, "10.0.0.2", 80)
        client.connect()
        with pytest.raises(RuntimeError):
            client.connect()


class TestDataTransfer:
    def test_small_transfer_delivers_exactly(self):
        sim = Simulator()
        a, b = make_pair(sim)
        sink = ServerSink(b)
        client = TcpConnection(a, "10.0.0.2", 80)
        client.on_established = lambda: client.send(5000)
        client.connect()
        sim.run(until=2.0)
        assert sink.received == 5000

    def test_large_transfer_delivers_exactly(self):
        sim = Simulator()
        a, b = make_pair(sim)
        sink = ServerSink(b)
        client = TcpConnection(a, "10.0.0.2", 80)
        client.on_established = lambda: client.send(2_000_000)
        client.connect()
        sim.run(until=10.0)
        assert sink.received == 2_000_000
        assert client.stats.bytes_acked == 2_000_000

    def test_transfer_with_loss_still_delivers_exactly(self):
        sim = Simulator()
        a, b = make_pair(sim, loss=0.02, seed=3)
        sink = ServerSink(b)
        client = TcpConnection(a, "10.0.0.2", 80)
        client.on_established = lambda: client.send(500_000)
        client.connect()
        sim.run(until=60.0)
        assert sink.received == 500_000
        assert client.stats.retransmissions > 0

    def test_bidirectional_transfer(self):
        sim = Simulator()
        a, b = make_pair(sim)
        server_received = [0]
        client_received = [0]

        def accept(conn):
            conn.on_data = lambda n, m: server_received.__setitem__(
                0, server_received[0] + n)
            conn.send(70_000)

        TcpListener(b, 80, accept)
        client = TcpConnection(a, "10.0.0.2", 80)
        client.on_data = lambda n, m: client_received.__setitem__(
            0, client_received[0] + n)
        client.on_established = lambda: client.send(30_000)
        client.connect()
        sim.run(until=10.0)
        assert server_received[0] == 30_000
        assert client_received[0] == 70_000

    def test_throughput_approaches_bottleneck(self):
        sim = Simulator()
        a, b = make_pair(sim, bandwidth=5e6, delay=0.02)
        sink = ServerSink(b)
        client = TcpConnection(a, "10.0.0.2", 80)
        client.on_established = lambda: client.send(20_000_000)
        client.connect()
        sim.run(until=10.0)
        achieved = sink.received * 8 / 10.0
        assert achieved > 0.7 * 5e6

    def test_send_invalid_size(self):
        sim = Simulator()
        a, b = make_pair(sim)
        client = TcpConnection(a, "10.0.0.2", 80)
        with pytest.raises(ValueError):
            client.send(0)

    def test_meta_passes_through(self):
        sim = Simulator()
        a, b = make_pair(sim)
        metas = []

        def accept(conn):
            conn.on_data = lambda n, m: metas.append((n, m))

        TcpListener(b, 80, accept)
        client = TcpConnection(a, "10.0.0.2", 80)
        client.on_established = lambda: client.send(100, meta="request-1")
        client.connect()
        sim.run(until=1.0)
        assert metas == [(100, "request-1")]


class TestCongestionControl:
    def test_slow_start_doubles_cwnd(self):
        sim = Simulator()
        a, b = make_pair(sim, bandwidth=100e6, delay=0.05)
        ServerSink(b)
        client = TcpConnection(a, "10.0.0.2", 80)
        client.on_established = lambda: client.send(10_000_000)
        client.connect()
        initial = client.cwnd
        sim.run(until=0.5)  # a few RTTs of slow start, no loss yet
        assert client.cwnd > 2 * initial

    def test_loss_reduces_cwnd(self):
        sim = Simulator()
        a, b = make_pair(sim, bandwidth=2e6, delay=0.02,
                         queue_limit=30_000, seed=5)
        ServerSink(b)
        client = TcpConnection(a, "10.0.0.2", 80)
        client.on_established = lambda: client.send(10_000_000)
        client.connect()
        sim.run(until=10.0)
        assert client.stats.fast_retransmits > 0
        # cwnd should have been cut well below the receive window.
        assert client.cwnd < client.receive_window

    def test_rto_after_blackout_and_recovery(self):
        sim = Simulator()
        a, b = make_pair(sim, bandwidth=5e6)
        sink = ServerSink(b)
        client = TcpConnection(a, "10.0.0.2", 80)
        client.on_established = lambda: client.send(3_000_000)
        client.connect()
        sim.schedule(1.0, a.links[0].interrupt, 1.5)
        sim.run(until=30.0)
        assert client.stats.timeouts >= 1
        assert sink.received == 3_000_000

    def test_rtt_estimation(self):
        sim = Simulator()
        a, b = make_pair(sim, delay=0.05)
        ServerSink(b)
        client = TcpConnection(a, "10.0.0.2", 80)
        client.on_established = lambda: client.send(100_000)
        client.connect()
        sim.run(until=5.0)
        assert client.srtt == pytest.approx(0.1, rel=0.5)


class TestLossRecoveryBookkeeping:
    """SACK recovery and RTOs on a lossy path, with the sender's pipe and
    lost-chunk bookkeeping checked after every ACK and transmit pass."""

    @staticmethod
    def _stranded(conn, budget):
        """A lost, not-yet-retransmitted chunk that the retransmission walk
        of ``_try_transmit`` would have sent with ``budget`` bytes."""
        for chunk in conn._sent_chunks:
            if budget < chunk.length:
                return None
            if chunk.lost and not chunk.retransmitted:
                return chunk
        return None

    def test_lossy_transfer_through_fast_recovery_and_rto(self):
        sim = Simulator()
        a, b = make_pair(sim, bandwidth=5e6, delay=0.02, loss=0.03)
        sink = ServerSink(b)
        client = TcpConnection(a, "10.0.0.2", 80)
        client.on_established = lambda: client.send(2_000_000)
        acks = []
        process_ack = client._process_ack
        try_transmit = client._try_transmit

        def checked_process_ack(segment):
            process_ack(segment)
            pipe = client.bytes_in_flight
            assert pipe == client._recompute_pipe()
            acks.append(sim.now)

        def checked_try_transmit():
            sent_before = client.snd_nxt
            try_transmit()
            if client.state != "ESTABLISHED":
                return
            # The room the retransmission walk had left once it finished:
            # the window minus the pipe, plus the new data sent after it.
            room = (min(client.cwnd, client.peer_window)
                    - client.bytes_in_flight + client.snd_nxt - sent_before)
            assert self._stranded(client, room) is None

        client._process_ack = checked_process_ack
        client._try_transmit = checked_try_transmit
        client.connect()
        sim.schedule(1.5, a.links[0].interrupt, 1.0)
        sim.run(until=30.0)
        assert len(acks) > 1000
        assert sink.received == 2_000_000
        # Recorded before the lost-chunk flag replaced the per-ACK scan.
        assert client.stats.retransmissions == 49
        assert client.stats.timeouts == 4
        assert client.stats.fast_retransmits == 36


class TestClose:
    def test_graceful_close_after_transfer(self):
        sim = Simulator()
        a, b = make_pair(sim)
        sink = ServerSink(b)
        closed = []
        client = TcpConnection(a, "10.0.0.2", 80)
        client.on_close = lambda: closed.append(sim.now)
        client.on_established = lambda: (client.send(10_000), client.close())
        client.connect()
        sim.run(until=5.0)
        assert sink.received == 10_000
        assert sink.closed
        assert closed
        assert client.state == "DONE"

    def test_send_after_close_raises(self):
        sim = Simulator()
        a, b = make_pair(sim)
        ServerSink(b)
        client = TcpConnection(a, "10.0.0.2", 80)
        client.connect()
        client.close()
        with pytest.raises(RuntimeError):
            client.send(100)

    def test_abort_fires_on_fail(self):
        sim = Simulator()
        a, b = make_pair(sim)
        ServerSink(b)
        client = TcpConnection(a, "10.0.0.2", 80)
        reasons = []
        client.on_fail = reasons.append
        client.connect()
        sim.run(until=1.0)
        client.abort("test teardown")
        assert reasons == ["test teardown"]

    def test_stale_address_packets_ignored(self):
        """Packets addressed to an invalidated address are dropped."""
        sim = Simulator()
        a, b = make_pair(sim)
        sink = ServerSink(b)
        client = TcpConnection(a, "10.0.0.2", 80)
        client.on_established = lambda: client.send(3_000_000)
        client.connect()
        sim.run(until=1.0)
        before = sink.received
        a.set_address("10.0.0.99")  # the server still sends ACKs to .1
        sim.run(until=3.0)
        # Transfer stalls: the client never sees ACKs for new data.
        assert sink.received - before < 2_000_000


class TestFairness:
    def test_two_flows_share_bottleneck(self):
        """Two competing Reno flows through one bottleneck converge to a
        roughly fair share (Jain's index > 0.9)."""
        sim = Simulator()
        a, b = make_pair(sim, bandwidth=10e6, delay=0.02,
                         queue_limit=128 * 1024, seed=9)
        received = {1: 0, 2: 0}

        def accept(conn):
            port = conn.local_port

            def on_data(n, m, p=port):
                received[p - 8000] += n

            conn.on_data = on_data

        TcpListener(b, 8001, accept)
        TcpListener(b, 8002, accept)
        for port in (8001, 8002):
            client = TcpConnection(a, "10.0.0.2", port)
            client.on_established = (
                lambda c=client: c.send(100_000_000))
            client.connect()
        sim.run(until=30.0)
        x, y = received[1], received[2]
        fairness = (x + y) ** 2 / (2 * (x ** 2 + y ** 2))
        assert fairness > 0.9
        # And together they saturate the link.
        assert (x + y) * 8 / 30 > 0.75 * 10e6

    def test_late_flow_gets_room(self):
        """A second flow starting against an established one still ramps
        up to a meaningful share."""
        sim = Simulator()
        a, b = make_pair(sim, bandwidth=10e6, delay=0.02,
                         queue_limit=128 * 1024, seed=11)
        received = {1: 0, 2: 0}

        def accept(conn):
            port = conn.local_port

            def on_data(n, m, p=port):
                received[p - 8000] += n

            conn.on_data = on_data

        TcpListener(b, 8001, accept)
        TcpListener(b, 8002, accept)
        first = TcpConnection(a, "10.0.0.2", 8001)
        first.on_established = lambda: first.send(100_000_000)
        first.connect()

        def start_second():
            second = TcpConnection(a, "10.0.0.2", 8002)
            second.on_established = lambda: second.send(100_000_000)
            second.connect()

        sim.schedule(10.0, start_second)
        sim.run(until=40.0)
        # Over the contended window the late flow got a real share.
        late_share = received[2] / (received[1] + received[2])
        assert late_share > 0.2
