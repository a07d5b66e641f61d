"""The RAT-generic SAP control plane, shared by LTE and 5G.

CellBricks replaces EPS-AKA + S6a in the EPC and 5G-AKA + AUSF/UDM in
the 5GC the same way (§4.1), so the SAP logic lives here once:

* :class:`SapSite` — the bTelco side, mixed into the LTE AGW
  (:class:`repro.core.btelco.CellBricksAgw`) and the 5G AMF
  (:class:`repro.core.btelco5g.CellBricksAmf`): the reliable broker leg,
  retransmission dedup, scope-local (§4.2) attach validation and the
  asynchronous scope notice, grant expiry, the revocation cascade, and
  the counters;
* :class:`SapUe` — the UE side, mixed into the LTE and 5G UEs: scoped
  versus full initial requests, fallback on a scoped reject, and the
  broker's challenge.

Each RAT keeps a thin adapter: NAS types, cost table, the context's
start-time field, the states that count as attached, how to reject, the
SMC send (``send_smc``), and how to tear a session down.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.crypto import Certificate, PrivateKey, PublicKey
from repro.lte.security import SecurityContext
from repro.lte.signaling import CounterAttr

from .messages import (
    BrokerAuthRequest,
    BrokerAuthResponse,
    DenialCause,
    RevocationAck,
    ScopeAttachAck,
    ScopeAttachNotice,
    SessionRevocation,
    SessionRevocationBatch,
    scope_attach_mac,
)
from .qos import QosCapabilities
from .sap import (
    AuthorizedSession,
    BtelcoSap,
    BtelcoSapConfig,
    MobilityGrant,
    SapError,
    UeSap,
    UeSapCredentials,
)


class SapSite:
    """The SAP half of a bTelco site (mixed in ahead of the RAT's
    AGW/AMF class).

    Contexts (LTE ``UeContext`` / 5G ``UeContext5G``) carry the same SAP
    fields on both RATs: ``sap_request_key``, ``sap_challenge``,
    ``sap_session``, ``broker_id``, ``broker_token``, ``broker_corr_id``.
    """

    # Same metric names on both RATs so fleet-wide registry merges
    # aggregate per-protocol counters across generations.
    expired_sessions = CounterAttr("btelco.expired_sessions")
    revoked_sessions = CounterAttr("btelco.revoked_sessions")
    revocation_dups = CounterAttr("btelco.revocation_dups")
    revocation_acks_sent = CounterAttr("btelco.revocation_acks_sent")
    dup_attach_requests = CounterAttr("btelco.dup_attach_requests")
    broker_timeouts = CounterAttr("btelco.broker_timeouts")
    scoped_attaches = CounterAttr("btelco.scoped_attaches")
    scoped_rejects = CounterAttr("btelco.scoped_rejects")
    scope_replays_denied = CounterAttr("btelco.scope_replays_denied")
    scope_notices_sent = CounterAttr("btelco.scope_notices_sent")
    scope_notice_nacks = CounterAttr("btelco.scope_notice_nacks")

    #: retryable-nack re-notify schedule (broker shard failing over).
    scope_notice_backoff = 0.5
    scope_notice_max_attempts = 6

    # -- RAT adapter --
    sap_request_type: type
    scoped_request_type: type
    challenge_type: type
    #: context states in which the UE holds service (torn down on
    #: expiry / revocation; anything earlier just drops bookkeeping).
    attached_states: tuple
    #: the context field stamped when an attempt starts.
    started_field: str

    def _init_site(self, broker_ip: str, id_t: str, key: PrivateKey,
                   certificate: Certificate, ca_public_key: PublicKey,
                   qos_capabilities: Optional[QosCapabilities]) -> None:
        self.broker_ip = broker_ip
        #: multi-tenancy: requests route to the broker the UE names in
        #: authReqU.idB ("a single bTelco cell site can support multiple
        #: brokers", §3.1).  ``broker_ip`` is the single-broker fallback.
        self.broker_endpoints: dict[str, str] = {}
        self.id_t = id_t
        self.key = key
        self.sap = BtelcoSap(BtelcoSapConfig(
            id_t=id_t, key=key, certificate=certificate,
            qos_capabilities=qos_capabilities or QosCapabilities(),
            ca_public_key=ca_public_key))
        self.broker_public_keys: dict[str, PublicKey] = {}
        self.sessions: dict[str, AuthorizedSession] = {}
        self.session_brokers: dict[str, str] = {}   # session -> id_b
        self._pending: dict[int, object] = {}   # reply_token -> context
        self._tokens = itertools.count(1)
        self.expired_sessions = 0
        self.revoked_sessions = 0
        self.revocation_dups = 0
        self.revocation_acks_sent = 0
        self.dup_attach_requests = 0
        self.broker_timeouts = 0
        self.scoped_attaches = 0
        self.scoped_rejects = 0
        self.scope_replays_denied = 0
        self.scope_notices_sent = 0
        self.scope_notice_nacks = 0
        #: seconds of service rendered by scoped sessions the broker
        #: later vetoed (fleet-drive gate: must stay 0.0).
        self.scope_unauthorized_session_s = 0.0
        #: per-grant highest attach counter seen at *this* site — the
        #: local replay floor for mobility-scoped re-attaches (the broker
        #: holds the authoritative cross-site floor).
        self._scope_counters: dict[str, int] = {}
        #: session_id -> (token, counter, attempt) notices still awaiting
        #: a broker verdict (retryable nacks re-notify with backoff).
        self._scope_notice_pending: dict[str, tuple] = {}
        self.on(BrokerAuthResponse, self._handle_broker_response)
        self.on(ScopeAttachAck, self._handle_scope_ack)
        self.on(SessionRevocationBatch, self._handle_revocation_batch)

    # -- observability ----------------------------------------------------------
    def nas_span_name(self, nas) -> str:
        if isinstance(nas, self.sap_request_type):
            return "sap.btelco_sign"
        if isinstance(nas, self.scoped_request_type):
            return "sap.btelco_scope_validate"
        return super().nas_span_name(nas)

    def span_name(self, message: object) -> str:
        if isinstance(message, BrokerAuthResponse):
            return "sap.btelco_verify"
        if isinstance(message, SessionRevocationBatch):
            return "revocation.btelco_batch"
        return super().span_name(message)

    # -- broker trust bootstrap ---------------------------------------------------
    def trust_broker(self, id_b: str, public_key: PublicKey,
                     endpoint_ip: Optional[str] = None) -> None:
        """Record a broker's public key (normally learned from its
        CA-signed certificate on first contact) and, optionally, the
        address its brokerd answers on."""
        self.broker_public_keys[id_b] = public_key
        if endpoint_ip is not None:
            self.broker_endpoints[id_b] = endpoint_ip

    def broker_endpoint(self, id_b: str) -> str:
        """Where to send SAP requests for broker ``id_b``."""
        return self.broker_endpoints.get(id_b, self.broker_ip)

    # -- RAT adapter hooks ----------------------------------------------------------
    def sap_reject(self, context, cause: str, retryable: bool = False) -> None:
        """Reject the attempt on ``context`` toward the UE."""
        raise NotImplementedError

    def bind_session(self, context, session: AuthorizedSession) -> None:
        """Copy the RAT-specific parts of an authorized session (opaque
        subscriber id, QoS) onto the context."""

    def watch_attempt(self, context) -> None:
        """An attempt was admitted (broker leg sent, or scoped token
        validated)."""

    def _teardown_session(self, context) -> None:
        """Network-initiated detach/deregistration of an attached UE
        (its session is released through :meth:`context_released`)."""
        raise NotImplementedError

    # -- full SAP attach: the broker leg -------------------------------------------
    def _on_sap_request(self, context, request) -> None:
        key = request.auth_req_u.auth_vec_encrypted
        if context.sap_request_key == key:
            # A retransmission of the attempt we are already serving: the
            # RAN's UE id is stable per UE, so the context tells us
            # exactly which leg to replay (idempotent — nothing
            # re-executes).
            self.dup_attach_requests += 1
            if context.state == "WAIT_BROKER":
                return  # broker leg in flight and retransmitting itself
            if context.state == "WAIT_SMC_COMPLETE" \
                    and context.sap_challenge is not None:
                # The challenge and/or SMC downlink was lost: replay both.
                self.downlink(context, context.sap_challenge)
                self.send_smc(context)
            return
        # Fresh attempt (new nonce): drop any stale broker leg first.
        self._drop_broker_leg(context)
        context.sap_request_key = key
        context.sap_challenge = None
        context.sap_session = None
        context.state = "WAIT_BROKER"
        setattr(context, self.started_field, self.sim.now)
        context.broker_id = request.auth_req_u.id_b
        self.watch_attempt(context)
        auth_req_t = self.sap.augment_request(request.auth_req_u)
        token = next(self._tokens)
        self._pending[token] = context
        context.broker_token = token
        wire = BrokerAuthRequest(auth_req_t=auth_req_t, reply_token=token)
        # Reliable leg: the broker round-trip crosses the backhaul/cloud
        # path, so it is retransmitted with backoff; if the broker stays
        # unreachable past the budget the UE gets a clean reject and the
        # pending entry is reclaimed (no WAIT_BROKER wedge).
        context.broker_corr_id = self.send_request(
            self.broker_endpoint(context.broker_id), wire,
            size=auth_req_t.wire_size + 32,
            on_give_up=lambda _msg, t=token: self._broker_gave_up(t))

    def _drop_broker_leg(self, context) -> None:
        if context.broker_token is not None:
            self._pending.pop(context.broker_token, None)
            self.cancel_request(context.broker_corr_id)
            context.broker_token = None

    def _broker_gave_up(self, token: int) -> None:
        context = self._pending.pop(token, None)
        if context is None or context.state != "WAIT_BROKER":
            return
        self.broker_timeouts += 1
        context.broker_token = None
        self.sap_reject(context, "broker unreachable")

    def _handle_broker_response(self, src_ip: str,
                                response: BrokerAuthResponse) -> None:
        context = self._pending.pop(response.reply_token, None)
        if context is None or context.state != "WAIT_BROKER":
            return
        context.broker_token = None
        if not response.approved:
            self.sap_reject(context, response.cause,
                            retryable=getattr(response, "retryable", False))
            return
        broker_key = self.broker_public_keys.get(context.broker_id)
        if broker_key is None:
            self.sap_reject(context, "unknown broker")
            return
        try:
            session = self.sap.process_authorization(
                response.auth_resp_t, broker_key, None, now=self.sim.now)
        except SapError as exc:
            self.sap_reject(context, str(exc))
            return
        # The broker-issued ss becomes the NAS root key; SMC proceeds as
        # today.
        self._admit_session(context, session)
        # Step 4: forward authRespU, then activate security.  The
        # challenge is cached on the context so a retransmitted request
        # can replay this leg without consulting the broker.
        challenge = self.challenge_type(auth_resp_u=response.auth_resp_u)
        context.sap_challenge = challenge
        self.downlink(context, challenge)
        context.state = "WAIT_SMC_COMPLETE"
        self.send_smc(context)

    def _admit_session(self, context, session: AuthorizedSession) -> None:
        self.bind_session(context, session)
        context.security = SecurityContext(kasme=session.ss)
        context.sap_session = session
        self.sessions[session.session_id] = session
        self.session_brokers[session.session_id] = context.broker_id

    # -- mobility-scoped re-attach (§4.2) ----------------------------------------------
    def _on_scoped_request(self, context, request) -> None:
        """Scope-local re-attach: validate the broker-signed token right
        here — signature, scope membership, expiry, possession MAC and
        the monotonic attach counter — with **no** broker round-trip.
        The broker is told asynchronously (:meth:`_notify_scope_attach`)
        so revocation routing, billing and the authoritative cross-site
        replay floor stay correct."""
        token = request.token
        key = ("scope", token.sig, request.counter)
        if context.sap_request_key == key:
            # Retransmission of the attempt we already served: replay the
            # SMC leg (there is no challenge downlink on the scoped path).
            self.dup_attach_requests += 1
            if context.state == "WAIT_SMC_COMPLETE":
                self.send_smc(context)
            return
        # Fresh attempt: drop any stale broker leg from a prior full
        # attach on this context.
        self._drop_broker_leg(context)
        context.sap_request_key = key
        context.sap_challenge = None
        setattr(context, self.started_field, self.sim.now)
        context.broker_id = token.id_b
        try:
            session = self._validate_scoped(token, request.counter,
                                            request.mac)
        except SapError as exc:
            self.scoped_rejects += 1
            if exc.cause == DenialCause.REPLAY:
                self.scope_replays_denied += 1
            self.sap_reject(context, str(exc))
            return
        # Commit the local replay floor only after full validation so
        # probes cannot burn counters.
        self._scope_counters[token.session_id] = request.counter
        self.scoped_attaches += 1
        self.watch_attempt(context)
        self._admit_session(context, session)
        # Both sides already hold ss: skip the challenge downlink and go
        # straight to SMC.
        context.state = "WAIT_SMC_COMPLETE"
        self.send_smc(context)
        self._notify_scope_attach(token, request.counter)

    def _validate_scoped(self, token, counter: int,
                         mac: bytes) -> AuthorizedSession:
        return self.sap.validate_scoped_attach(
            token, counter, mac, self.broker_public_keys, self.sim.now,
            self._scope_counters.get(token.session_id, 0))

    def validate_scope_probe(self, token, counter: int,
                             mac: bytes) -> Optional[str]:
        """Dry-run a scoped attach against this site's local state and
        return the denial cause (``None`` if it would be accepted).
        Read-only — no counter is committed, no session created.  Used
        by harnesses to assert that replayed / out-of-scope / expired
        grants are denied without perturbing live state."""
        try:
            self._validate_scoped(token, counter, mac)
        except SapError as exc:
            cause = exc.cause
            return cause.value if cause is not None else str(exc)
        return None

    def _notify_scope_attach(self, token, counter: int,
                             attempt: int = 0) -> None:
        """Asynchronously tell the issuing broker about the scope-local
        attach (reliable leg, off the attach critical path): it advances
        the authoritative replay floor, re-points revocation routing at
        this site, and keeps billing session continuity."""
        unsigned = ScopeAttachNotice(session_id=token.session_id,
                                     counter=counter, id_t=self.id_t)
        notice = ScopeAttachNotice(
            session_id=token.session_id, counter=counter, id_t=self.id_t,
            certificate=self.sap.config.certificate,
            signature=self.key.sign(unsigned.signed_bytes()))
        self.scope_notices_sent += 1
        self._scope_notice_pending[token.session_id] = \
            (token, counter, attempt)
        self.send_request(self.broker_endpoint(token.id_b), notice,
                          size=notice.wire_size)

    def _handle_scope_ack(self, src_ip: str, ack: ScopeAttachAck) -> None:
        pending = self._scope_notice_pending.get(ack.session_id)
        if ack.accepted:
            self._scope_notice_pending.pop(ack.session_id, None)
            return
        if ack.retryable:
            # A broker shard is failing over: the nack completed our
            # reliable request, so *we* own the retry.  Re-notify with
            # backoff while the session is still live — the counter
            # floor must eventually reach the broker.
            if pending is not None and pending[1] == ack.counter:
                token, counter, attempt = pending
                if attempt + 1 < self.scope_notice_max_attempts \
                        and ack.session_id in self.sessions:
                    self.sim.schedule(
                        self.scope_notice_backoff * (attempt + 1),
                        self._notify_scope_attach, token, counter,
                        attempt + 1)
                else:
                    self._scope_notice_pending.pop(ack.session_id, None)
            return
        self._scope_notice_pending.pop(ack.session_id, None)
        # Terminal nack: the broker says this scoped attach must not
        # stand (revoked, expired, or a cross-site replay our local
        # floor could not see).  Withdraw the session now.
        self.scope_notice_nacks += 1
        self._withdraw(ack.session_id, vetoed=True)

    # -- grant lifecycle ------------------------------------------------------------
    def _arm_expiry(self, context, ue_id: int) -> None:
        """The broker's authorization has a lifetime; serving past it
        would be unauthorized service.  Schedule enforcement."""
        session = context.sap_session
        if session is not None:
            delay = max(0.0, session.expires_at - self.sim.now)
            self.sim.schedule(delay, self._expire_session,
                              session.session_id, ue_id)

    def _expire_session(self, session_id: str, ue_id: int) -> None:
        """Authorization lifetime reached: network-initiated teardown."""
        context = self.contexts.get(ue_id)
        session = self.sessions.get(session_id)
        if context is None or session is None:
            return
        if getattr(context.sap_session, "session_id", None) != session_id:
            return  # the UE re-attached under a newer authorization
        if context.state not in self.attached_states:
            return
        self.expired_sessions += 1
        self._teardown_session(context)

    def _revoked_in_flight(self, context) -> bool:
        """On attach completion: tear the session down if its grant was
        revoked while the attach was in flight."""
        session = context.sap_session
        if session is not None \
                and context.state == self.attached_states[0] \
                and not self.sap.session_authorized(session.session_id):
            self.revoked_sessions += 1
            self._teardown_session(context)
            return True
        return False

    # -- revocation cascade ----------------------------------------------------------
    def _handle_revocation_batch(self, src_ip: str,
                                 batch: SessionRevocationBatch) -> None:
        """Apply every revocation in the batch and return a signed ack.

        Idempotent per notice: a batch retransmitted past the transport's
        dedup window re-acks without double-detaching anything, so the
        broker's retry loop always converges.
        """
        session_ids = []
        for notice in batch.revocations:
            self._apply_revocation(notice)
            session_ids.append(notice.session_id)
        ack_ids = tuple(sorted(session_ids))
        unsigned = RevocationAck(batch_id=batch.batch_id, id_t=self.id_t,
                                 session_ids=ack_ids)
        ack = RevocationAck(batch_id=batch.batch_id, id_t=self.id_t,
                            session_ids=ack_ids,
                            signature=self.key.sign(unsigned.signed_bytes()))
        self.revocation_acks_sent += 1
        self.send(src_ip, ack, size=96 + 16 * len(ack_ids))

    def _apply_revocation(self, notice: SessionRevocation) -> None:
        """Broker withdrew an authorization we hold: serving this session
        any further would be unauthorized service, so detach it now and
        refuse the grant if it is ever presented again."""
        if not self.sap.session_authorized(notice.session_id):
            # Already applied (duplicate notice): nothing to tear down.
            self.revocation_dups += 1
            return
        self._withdraw(notice.session_id)

    def _withdraw(self, session_id: str, vetoed: bool = False) -> None:
        """Revoke a grant locally and end its session.  ``vetoed``: the
        broker refused a scoped attach we already served, so the service
        rendered since the attempt started was unauthorized."""
        self.sap.revoke_session(session_id)
        if session_id not in self.sessions:
            return
        self.revoked_sessions += 1
        context = next(
            (c for c in self.contexts.values()
             if getattr(c.sap_session, "session_id", None) == session_id),
            None)
        if vetoed and context is not None:
            # Account the unauthorized service (the fleet-drive gate
            # requires this stays 0).
            started = getattr(context, self.started_field, None)
            if started is not None:
                self.scope_unauthorized_session_s += \
                    max(0.0, self.sim.now - started)
        if context is not None and context.state in self.attached_states:
            self._teardown_session(context)
        else:
            # Mid-attach or already torn down: just drop the bookkeeping;
            # attach completion refuses revoked sessions.
            self._forget_session(session_id)

    # -- terminal cleanup --------------------------------------------------------------
    def _forget_session(self, session_id: str) -> None:
        self.sessions.pop(session_id, None)
        self.session_brokers.pop(session_id, None)

    def context_released(self, context) -> None:
        """Any terminal transition (reject, abandon, detach, teardown,
        deadline GC) reclaims the broker leg and the session
        bookkeeping, so ``_pending``/``sessions`` cannot leak."""
        self._drop_broker_leg(context)
        session = context.sap_session
        if session is not None:
            self._forget_session(session.session_id)
            context.sap_session = None
        super().context_released(context)

    # -- introspection -----------------------------------------------------------------
    def stats(self) -> dict:
        """Counter snapshot: attach/session lifecycle + reliability."""
        stats = super().stats()
        stats.update({
            "sessions_active": len(self.sessions),
            "pending_sap": len(self._pending),
            "expired_sessions": self.expired_sessions,
            "revoked_sessions": self.revoked_sessions,
            "revocation_dups": self.revocation_dups,
            "revocation_acks_sent": self.revocation_acks_sent,
            "dup_attach_requests": self.dup_attach_requests,
            "broker_timeouts": self.broker_timeouts,
            "scoped_attaches": self.scoped_attaches,
            "scoped_rejects": self.scoped_rejects,
            "scope_replays_denied": self.scope_replays_denied,
            "scope_notices_sent": self.scope_notices_sent,
            "scope_notice_nacks": self.scope_notice_nacks,
            "scope_unauthorized_session_s":
                round(self.scope_unauthorized_session_s, 9),
        })
        stats.update(self.reliable_stats())
        return stats


class SapUe:
    """The SAP half of a UE (mixed in ahead of the RAT's UE class, which
    brings the attach supervisor)."""

    craft_span_name = "sap.ue_craft"

    # -- RAT adapter --
    sap_request_type: type
    scoped_request_type: type
    challenge_type: type
    #: crafting costs: "craft_sap_request" (hybrid encrypt + sign) and
    #: "craft_scoped_request" (one MAC, no public-key crypto).
    sap_craft_costs: dict

    def _init_sap_ue(self, credentials: UeSapCredentials,
                     target_id_t: str) -> None:
        self.credentials = credentials
        self.sap = UeSap(credentials)
        self.target_id_t = target_id_t
        self.session_id: Optional[str] = None
        #: optional scope request dict ({"telcos": [...], "ttl": s}) sent
        #: inside the encrypted authVec on the next full attach.
        self.scope_request: Optional[dict] = None
        #: broker-issued mobility grant — survives detach_and_forget so
        #: the next attach to an in-scope bTelco skips the broker.
        self.mobility_grant: Optional[MobilityGrant] = None
        self._scoped_attempt = False
        self.scoped_attaches = 0
        self.scoped_fallbacks = 0
        self.on(self.challenge_type, self._on_sap_challenge)

    def span_name(self, message: object) -> str:
        if isinstance(message, self.challenge_type):
            return "sap.ue_verify"
        return super().span_name(message)

    def _grant_covers_target(self) -> bool:
        grant = self.mobility_grant
        return (grant is not None
                and grant.covers(self.target_id_t, self.sim.now))

    def craft_cost(self) -> float:
        if self._grant_covers_target():
            return self.sap_craft_costs["craft_scoped_request"]
        return self.sap_craft_costs["craft_sap_request"]

    def _reset_attempt(self) -> None:
        # A fresh attempt must not inherit the previous session's id.
        super()._reset_attempt()
        self.session_id = None

    def initial_request(self):
        # Called once per attach attempt (the supervisor resends the
        # cached request): a nonce / attach counter is minted here and
        # must stay stable across retransmissions of the attempt.
        if self._grant_covers_target():
            grant = self.mobility_grant
            counter = grant.next_counter
            grant.next_counter += 1
            self._scoped_attempt = True
            self.scoped_attaches += 1
            # The grant restores what attach() just cleared: ss seeds the
            # security context the bTelco's SMC is validated against, and
            # the session id keeps billing continuity across bTelcos.
            self.session_id = grant.session_id
            self.security = SecurityContext(kasme=grant.ss)
            mac = scope_attach_mac(grant.ss, grant.session_id, counter,
                                   self.target_id_t)
            return self.scoped_request_type(token=grant.token,
                                            counter=counter, mac=mac)
        self._scoped_attempt = False
        auth_req_u = self.sap.craft_request(self.target_id_t,
                                            scope=self.scope_request)
        return self.sap_request_type(auth_req_u=auth_req_u)

    def _on_reject(self, src_ip: str, reject) -> None:
        if (self.state == self.attaching_state and self._scoped_attempt
                and not getattr(reject, "retryable", False)):
            # The scope-local fast path failed terminally (expired,
            # revoked, counter burned...).  Drop the grant and fall back
            # to a full SAP attach within the same attempt — the latency
            # clock keeps running, so the fallback cost is visible.
            self.mobility_grant = None
            self._scoped_attempt = False
            self.scoped_fallbacks += 1
            self.session_id = None
            self.security = None
            self._stop_supervision()
            self.sim.schedule(0.0, self._retry_after_reject)
            return
        super()._on_reject(src_ip, reject)

    def _on_give_up(self) -> None:
        super()._on_give_up()
        # Abandon the outstanding SAP nonce: a late response must not
        # validate, and the next attach crafts a fresh request.
        self.sap.abandon()
        self.session_id = None

    def retarget(self, ran_ip: str, id_t: str) -> None:
        """Point the UE at a different bTelco (host-driven mobility)."""
        super().retarget(ran_ip, id_t)
        self.target_id_t = id_t

    def _on_sap_challenge(self, src_ip: str, challenge) -> None:
        if self.state != self.attaching_state:
            return  # stale challenge from an abandoned attempt
        if self.security is not None:
            # Duplicate challenge (the bTelco replayed the leg because
            # our SMC complete was lost): the single-use nonce is already
            # consumed, so just ignore it — the SMC retransmission path
            # carries the attach forward.
            return
        try:
            response = self.sap.process_response(challenge.auth_resp_u)
        except SapError as exc:
            self._fail(str(exc))
            return
        self.session_id = response.session_id
        if getattr(response, "scope", None) is not None:
            # Broker granted a mobility scope: keep it past detach so
            # the next in-scope attach needs no broker round-trip.
            self.mobility_grant = MobilityGrant(
                token=response.scope, session_id=response.session_id,
                ss=response.ss, next_counter=1)
        # ss becomes the NAS root key (§4.1); the inherited SMC handler
        # validates the bTelco's Security Mode Command against it.
        self.security = SecurityContext(kasme=response.ss)
