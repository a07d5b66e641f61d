"""Adversarial tests: the attack discussion of the technical report.

Each test plays one attacker against the deployed protocol machinery and
asserts the defense holds: IMSI catching, request relaying, authorization
theft, report forgery/replay, and key revocation.
"""

import pytest

from repro.core.billing import (
    REPORTER_BTELCO,
    REPORTER_UE,
    TrafficReport,
    TrafficReportUpload,
    make_upload,
)
from repro.core.mobility import MobilityManager, build_cellbricks_network
from repro.core.qos import QosCapabilities
from repro.core.sap import (
    BrokerSap,
    BrokerSubscriber,
    BtelcoSap,
    BtelcoSapConfig,
    SapError,
    UeSap,
    UeSapCredentials,
)
from repro.crypto import CertificateAuthority, CryptoError
from repro.crypto.keypool import pooled_keypair
from repro.lte.security import SecurityContext, SecurityError
from repro.net import Simulator


@pytest.fixture(scope="module")
def world():
    ca = CertificateAuthority(key=pooled_keypair(700))
    broker_key = pooled_keypair(701)
    telco_key = pooled_keypair(702)
    ue_key = pooled_keypair(703)
    cert = ca.issue("t1", "btelco", telco_key.public_key)
    broker = BrokerSap(id_b="b", key=broker_key, ca_public_key=ca.public_key)
    broker.enroll(BrokerSubscriber(id_u="alice",
                                   public_key=ue_key.public_key))
    telco = BtelcoSap(BtelcoSapConfig(
        id_t="t1", key=telco_key, certificate=cert,
        qos_capabilities=QosCapabilities(), ca_public_key=ca.public_key))
    creds = UeSapCredentials(id_u="alice", id_b="b", ue_key=ue_key,
                             broker_public_key=broker_key.public_key)
    return dict(ca=ca, broker=broker, telco=telco, creds=creds,
                broker_key=broker_key, telco_key=telco_key, ue_key=ue_key)


class TestImsiCatching:
    def test_btelco_cannot_decrypt_subscriber_identity(self, world):
        """§4.1: 'Because T never observes a cleartext identifier for U,
        it cannot act as an IMSI catcher'."""
        req_u = UeSap(world["creds"]).craft_request("t1")
        with pytest.raises(CryptoError):
            world["telco_key"].decrypt(req_u.auth_vec_encrypted)

    def test_requests_unlinkable_without_broker_key(self, world):
        """Two attaches by the same UE produce unrelated ciphertexts."""
        ue = UeSap(world["creds"])
        a = ue.craft_request("t1").auth_vec_encrypted
        b = ue.craft_request("t1").auth_vec_encrypted
        assert a != b
        # No common plaintext-revealing prefix (hybrid enc randomizes).
        assert a[:32] != b[:32]


class TestAuthorizationTheft:
    def test_stolen_auth_resp_t_useless_without_matching_ue(self, world):
        """A bTelco that replays an old authorization towards a *different*
        UE cannot complete attachment: the ss in authRespT matches only
        the UE from the original SAP run, so SMC fails."""
        # Legitimate run for alice.
        ue = UeSap(world["creds"])
        req_t = world["telco"].augment_request(ue.craft_request("t1"))
        sealed_t, sealed_u, grant = world["broker"].process_request(
            req_t, now=1.0)
        session = world["telco"].process_authorization(
            sealed_t, world["broker_key"].public_key, None, now=1.0)

        # The bTelco tries to serve mallory with alice's authorization.
        mallory_ss = b"m" * 32  # whatever mallory derives, it isn't ss
        telco_ctx = SecurityContext(kasme=session.ss)
        mallory_ctx = SecurityContext(kasme=mallory_ss)
        protected = telco_ctx.protect_downlink(b"security mode command")
        with pytest.raises(SecurityError):
            mallory_ctx.unprotect_downlink(protected)

    def test_authorization_not_transferable_between_btelcos(self, world):
        # keypool slots 9518-9521 are reserved for this module.
        key2 = pooled_keypair(9518)
        cert2 = world["ca"].issue("t2", "btelco", key2.public_key)
        telco2 = BtelcoSap(BtelcoSapConfig(
            id_t="t2", key=key2, certificate=cert2,
            ca_public_key=world["ca"].public_key))
        ue = UeSap(world["creds"])
        req_t = world["telco"].augment_request(ue.craft_request("t1"))
        sealed_t, _, _ = world["broker"].process_request(req_t, now=1.0)
        with pytest.raises(SapError):
            telco2.process_authorization(
                sealed_t, world["broker_key"].public_key, None, now=1.0)


class TestRogueBtelco:
    def test_self_signed_btelco_rejected(self, world):
        """A bTelco without a CA-signed certificate cannot get service
        authorized — the zero-pre-agreement model still needs the PKI."""
        rogue_key = pooled_keypair(9519)
        rogue_ca = CertificateAuthority(key=pooled_keypair(9520))
        rogue_cert = rogue_ca.issue("evil", "btelco", rogue_key.public_key)
        rogue = BtelcoSap(BtelcoSapConfig(
            id_t="evil", key=rogue_key, certificate=rogue_cert,
            ca_public_key=world["ca"].public_key))
        req_u = UeSap(world["creds"]).craft_request("evil")
        req_t = rogue.augment_request(req_u)
        with pytest.raises(SapError, match="certificate"):
            world["broker"].process_request(req_t, now=1.0)

    def test_btelco_with_broker_role_cert_rejected(self, world):
        """Role confusion: a *broker* certificate cannot authorize
        bTelco service."""
        key = pooled_keypair(9521)
        cert = world["ca"].issue("not-a-telco", "broker", key.public_key)
        confused = BtelcoSap(BtelcoSapConfig(
            id_t="not-a-telco", key=key, certificate=cert,
            ca_public_key=world["ca"].public_key))
        req_u = UeSap(world["creds"]).craft_request("not-a-telco")
        req_t = confused.augment_request(req_u)
        with pytest.raises(SapError):
            world["broker"].process_request(req_t, now=1.0)


class TestBillingAttacks:
    def _verifier(self, world):
        from repro.core.billing import BillingVerifier
        from repro.core.qos import QosInfo
        from repro.core.sap import SapGrant
        verifier = BillingVerifier(broker_key=world["broker_key"])
        grant = SapGrant(id_u="alice", id_u_opaque="anon", id_t="t1",
                         session_id="s", ss=b"s" * 32, qos_info=QosInfo(),
                         granted_at=0.0, expires_at=1e9)
        verifier.open_session(grant,
                              ue_public_key=world["ue_key"].public_key,
                              btelco_public_key=world["telco_key"].public_key)
        return verifier

    def _report(self, seq=0, dl=1_000_000):
        return TrafficReport(session_id="s", seq=seq, interval_start=0.0,
                             interval_end=30.0, ul_bytes=0, dl_bytes=dl)

    def test_btelco_cannot_forge_ue_reports(self, world):
        """The bTelco would love to submit 'UE' reports matching its own
        inflated numbers — but it lacks the UE's signing key."""
        verifier = self._verifier(world)
        forged = make_upload(self._report(dl=9_999_999), REPORTER_UE,
                             world["telco_key"],  # wrong key!
                             world["broker_key"].public_key)
        assert not verifier.ingest(forged, now=30.0)

    def test_replayed_upload_does_not_double_bill(self, world):
        verifier = self._verifier(world)
        ue_up = make_upload(self._report(), REPORTER_UE, world["ue_key"],
                            world["broker_key"].public_key)
        t_up = make_upload(self._report(), REPORTER_BTELCO,
                           world["telco_key"],
                           world["broker_key"].public_key)
        verifier.ingest(ue_up, now=30.0)
        verifier.ingest(t_up, now=30.0)
        first = verifier.sessions["s"].billable_dl_bytes
        # Replay both uploads (e.g. a bTelco hoping to double its revenue).
        verifier.ingest(ue_up, now=31.0)
        verifier.ingest(t_up, now=31.0)
        assert verifier.sessions["s"].billable_dl_bytes == first
        assert verifier.sessions["s"].checked_pairs == 1

    def test_report_cross_session_replay_rejected(self, world):
        """A signed report from one session cannot bill another."""
        verifier = self._verifier(world)
        other = TrafficReport(session_id="other", seq=0, interval_start=0.0,
                              interval_end=30.0, ul_bytes=0,
                              dl_bytes=5_000_000)
        upload = make_upload(other, REPORTER_UE, world["ue_key"],
                             world["broker_key"].public_key)
        # Claim it belongs to session "s" on the wire.
        spoofed = TrafficReportUpload(
            session_id="s", seq=0, reporter=REPORTER_UE,
            blob=upload.blob, signature=upload.signature)
        assert not verifier.ingest(spoofed, now=30.0)


class TestRevocation:
    def test_revoked_ue_cannot_attach_anywhere(self):
        """§4.1: 'B can revoke U's public key by simply invalidating the
        key in its database' — end-to-end over the full network."""
        sim = Simulator()
        net = build_cellbricks_network(sim)
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        assert manager.ue.state == "ATTACHED"

        net.brokerd.revoke_subscriber("alice")
        results = []
        manager.ue.on_attach_done = results.append
        manager.switch_to("btelco-b")
        sim.run(until=2.0)
        assert results and not results[-1].success
        assert "suspended" in results[-1].cause

    def test_revocation_cascades_to_active_session(self):
        """Revocation is not just 'no new attaches': the broker pushes a
        SessionRevocation to the serving bTelco, which detaches the UE and
        refuses the withdrawn grant forever after."""
        sim = Simulator()
        net = build_cellbricks_network(sim)
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        assert manager.ue.state == "ATTACHED"
        agw = net.sites["btelco-a"].agw
        (session_id,) = agw.sessions
        sealed_authorization = agw.sessions[session_id].authorization

        detached = []
        manager.ue.on_detached = lambda: detached.append(sim.now)
        revoked = net.brokerd.revoke_subscriber("alice")
        assert [g.session_id for g in revoked] == [session_id]
        sim.run(until=2.0)

        # The cascade reached the serving bTelco and tore the session down.
        assert agw.revoked_sessions == 1
        assert detached and detached[0] == pytest.approx(1.0, abs=0.5)
        assert manager.ue.state == "DEREGISTERED"
        assert session_id not in agw.sessions
        assert agw.spgw.active_count == 0
        # The withdrawn authorization can never be re-validated there.
        with pytest.raises(SapError, match="session revoked"):
            agw.sap.process_authorization(
                sealed_authorization, net.brokerd.public_key, None,
                now=sim.now)
        # Broker-side bookkeeping agrees.
        stats = net.brokerd.stats()
        assert stats["grants_revoked"] == 1
        assert stats["grants_active"] == 0
        assert stats["revocations_sent"] == 1
        # The fan-out completed the ack handshake: nothing outstanding.
        assert stats["revocation_batches_acked"] == 1
        assert stats["revocation_batches_outstanding"] == 0

    def test_duplicate_revocation_notice_reacked_not_reapplied(self):
        """A retransmitted (or maliciously replayed) batch for an
        already-revoked session is re-acked but applies nothing: no
        double detach, no counter drift."""
        from repro.core.messages import (
            SessionRevocation,
            SessionRevocationBatch,
        )

        sim = Simulator()
        net = build_cellbricks_network(sim)
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        agw = net.sites["btelco-a"].agw
        (session_id,) = agw.sessions
        net.brokerd.revoke_subscriber("alice")
        sim.run(until=2.0)
        assert agw.revoked_sessions == 1

        acks_before = agw.revocation_acks_sent
        duplicate = SessionRevocationBatch(
            batch_id=999, id_b=net.brokerd.id_b,
            revocations=(SessionRevocation(session_id=session_id),))
        agw._handle_revocation_batch(net.broker_host.address, duplicate)
        sim.run(until=3.0)
        assert agw.revocation_dups == 1
        assert agw.revoked_sessions == 1          # not applied twice
        assert agw.revocation_acks_sent == acks_before + 1

    def test_lost_revocation_retransmitted_until_acked(self):
        """The broker link is dark when the revocation is pushed: the
        batch must ride retransmission until the signed ack lands —
        a lost notice must never leave the session running."""
        sim = Simulator()
        net = build_cellbricks_network(sim)
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        agw = net.sites["btelco-a"].agw
        (session_id,) = agw.sessions

        net.links["btelco-a-broker"].interrupt(1.5)
        revoked_at = sim.now
        net.brokerd.revoke_subscriber("alice")
        sim.run(until=revoked_at + 0.5)
        # Still dark: the session survives, the batch is outstanding.
        assert session_id in agw.sessions
        assert net.brokerd.stats()["revocation_batches_outstanding"] == 1
        sim.run(until=revoked_at + 10.0)
        stats = net.brokerd.stats()
        assert session_id not in agw.sessions
        assert stats["revocation_batches_retried"] >= 1
        assert stats["revocation_batches_acked"] == 1
        assert stats["revocation_batches_outstanding"] == 0

    def test_forged_revocation_ack_rejected(self):
        """An on-path attacker must not be able to silence the fan-out
        with an unsigned/forged ack and keep a revoked session alive."""
        from repro.core.messages import RevocationAck

        sim = Simulator()
        net = build_cellbricks_network(sim)
        manager = MobilityManager(net)
        manager.start("btelco-a")
        sim.run(until=1.0)
        agw = net.sites["btelco-a"].agw
        (session_id,) = agw.sessions

        net.links["btelco-a-broker"].interrupt(1.5)
        net.brokerd.revoke_subscriber("alice")
        (batch_id,) = net.brokerd._outstanding_batches
        forged = RevocationAck(batch_id=batch_id, id_t="btelco-a",
                               session_ids=(session_id,),
                               signature=b"\x00" * 64)
        net.brokerd._handle_revocation_ack(
            net.sites["btelco-a"].agw_host.address, forged)
        assert net.brokerd.revocation_acks_bad == 1
        assert net.brokerd.stats()["revocation_batches_outstanding"] == 1
        # The genuine handshake still completes once the link heals.
        sim.run(until=10.0)
        assert session_id not in agw.sessions
        assert net.brokerd.stats()["revocation_batches_acked"] == 1
