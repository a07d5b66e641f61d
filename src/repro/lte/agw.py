"""Access Gateway: Magma-style integrated MME + SGW/PGW.

This is the component the paper modifies ("we extend AGW to support our
secure attachment protocol... 2,493 LoC in the AGW").  The class here is
the *unmodified baseline*: the standard EPS attach with EPS-AKA against
the SubscriberDB over S6a (two round-trips: AIR, then ULR).  The
CellBricks extension lives in :class:`repro.core.btelco.CellBricksAgw`,
which subclasses this and replaces the authentication phase with SAP —
mirroring how the real prototype layers its changes onto Magma.

Per-handler processing costs are explicit and calibrated to reproduce the
module breakdown of Fig 7 (the "AGW + Brokerd Proc." bars).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.crypto import hmac_sha256
from repro.net import Host

from . import s6a
from .bearer import EpsBearer, SgwPgw
from .enodeb import S1DownlinkNas, S1UeContextRelease, S1UplinkNas
from .identifiers import Guti, Plmn, TEST_PLMN
from .nas import (
    AttachAccept,
    AttachComplete,
    AttachReject,
    AttachRequest,
    AuthenticationReject,
    AuthenticationRequest,
    AuthenticationResponse,
    DetachAccept,
    DetachRequest,
    NasMessage,
    SecurityModeCommand,
    SecurityModeComplete,
    message_size,
)
from .nas_transport import ProtectedNas
from .nas_transport import protect as protect_nas
from .nas_transport import unprotect as unprotect_nas
from .security import NAS_MAC_SIZE, SecurityContext, SecurityError
from .signaling import CounterAttr, SignalingNode

# Handler processing costs (seconds) — see DESIGN.md §6 for the
# calibration that reproduces Fig 7's module breakdown.
BASELINE_COSTS = {
    "attach_request": 0.0033,
    "auth_info_answer": 0.0031,
    "auth_response": 0.0036,
    "smc_complete": 0.0026,
    "update_location_answer": 0.0031,
    "attach_complete": 0.0015,
}


def smc_mac(k_nas_int: bytes, enc_alg: int, int_alg: int) -> bytes:
    """Integrity tag for the Security Mode Command/Complete exchange."""
    return hmac_sha256(k_nas_int, bytes([enc_alg, int_alg]))[:NAS_MAC_SIZE]


@dataclass
class UeContext:
    """Per-UE MME state."""

    enb_ue_id: int
    enb_ip: str
    state: str = "INITIAL"
    imsi: Optional[str] = None
    subscriber_id: Optional[str] = None  # opaque id in CellBricks
    auth_vector: object = None
    security: Optional[SecurityContext] = None
    guti: Optional[Guti] = None
    bearer: Optional[EpsBearer] = None
    subscription: Optional[s6a.SubscriptionData] = None
    attach_started_at: float = 0.0
    sap_session: object = None  # CellBricks: the broker-authorized session
    broker_id: str = ""         # CellBricks: which broker authorized us
    # -- retransmission bookkeeping --
    sap_request_key: Optional[bytes] = None  # dedup key for SAP attaches
    sap_challenge: object = None      # cached challenge for leg replay
    broker_token: Optional[int] = None     # outstanding broker reply token
    broker_corr_id: int = 0                # reliable-request correlation id
    accept_retx: int = 0                   # AttachAccept retransmissions


class Agw(SignalingNode):
    """Baseline access gateway (MME + SPGW), one per bTelco site."""

    # AttachAccept retransmission supervision: the accept is the one
    # downlink whose loss the UE cannot detect by itself mid-attach (it
    # has already stopped resending SMC complete once the accept leaves).
    accept_retx_timeout = 0.4
    accept_retx_backoff = 2.0
    accept_max_retx = 3
    obs_category = "agw"
    _NAS_SPAN_NAMES = {
        AttachRequest: "nas.agw_attach_req",
        AuthenticationResponse: "nas.agw_auth_resp",
        SecurityModeComplete: "nas.agw_smc_complete",
        AttachComplete: "nas.agw_attach_complete",
        ProtectedNas: "nas.agw_protected",
    }
    attaches_completed = CounterAttr("agw.attaches_completed")
    attaches_rejected = CounterAttr("agw.attaches_rejected")
    accept_retransmissions = CounterAttr("agw.accept_retransmissions")
    accept_give_ups = CounterAttr("agw.accept_give_ups")

    def span_name(self, message: object) -> str:
        if isinstance(message, S1UplinkNas):
            name = self._NAS_SPAN_NAMES.get(type(message.nas))
            return name if name is not None else \
                self.nas_span_name(message.nas)
        if isinstance(message, s6a.AuthenticationInformationAnswer):
            return "s6a.agw_aia"
        if isinstance(message, s6a.UpdateLocationAnswer):
            return "s6a.agw_ula"
        return super().span_name(message)

    def nas_span_name(self, nas: NasMessage) -> str:
        """Span-name hook for NAS types added by subclasses."""
        return f"nas.agw_{type(nas).__name__}"

    def __init__(self, host: Host, subscriber_db_ip: str,
                 name: str = "agw", plmn: Plmn = TEST_PLMN,
                 ue_pool_prefix: str = "10.128.0"):
        super().__init__(host, name)
        self.subscriber_db_ip = subscriber_db_ip
        self.plmn = plmn
        self.spgw = SgwPgw(pool_prefix=ue_pool_prefix)
        self.contexts: dict[int, UeContext] = {}   # enb_ue_id -> context
        self._by_imsi: dict[str, int] = {}
        self._tmsi_counter = itertools.count(0x1000)
        self.attaches_completed = 0
        self.attaches_rejected = 0
        self.accept_retransmissions = 0
        self.accept_give_ups = 0
        #: fired as (context) when an attach completes — the harness uses
        #: it to install the UE's new address on the data plane.
        self.on_attached: Optional[Callable[[UeContext], None]] = None
        self.costs = dict(BASELINE_COSTS)

        self.on(S1UplinkNas, self._handle_uplink)
        self.on(s6a.AuthenticationInformationAnswer, self._handle_aia)
        self.on(s6a.UpdateLocationAnswer, self._handle_ula)

    # Cost model: S1 messages are charged per inner NAS type.
    def processing_cost(self, message: object) -> float:
        if isinstance(message, S1UplinkNas):
            nas = message.nas
            if isinstance(nas, AttachRequest):
                return self.costs["attach_request"]
            if isinstance(nas, AuthenticationResponse):
                return self.costs["auth_response"]
            if isinstance(nas, SecurityModeComplete):
                return self.costs["smc_complete"]
            if isinstance(nas, AttachComplete):
                return self.costs["attach_complete"]
            if isinstance(nas, ProtectedNas):
                # Post-SMC envelopes (complete/detach); charged like the
                # completion handler plus the deciphering it implies.
                return self.costs["attach_complete"]
            return self.nas_processing_cost(nas)
        if isinstance(message, s6a.AuthenticationInformationAnswer):
            return self.costs["auth_info_answer"]
        if isinstance(message, s6a.UpdateLocationAnswer):
            return self.costs["update_location_answer"]
        return self.default_processing_cost

    def nas_processing_cost(self, nas: NasMessage) -> float:
        """Cost hook for NAS types added by subclasses."""
        return self.default_processing_cost

    # -- S1 uplink dispatch ---------------------------------------------------
    def _handle_uplink(self, enb_ip: str, wrapped: S1UplinkNas) -> None:
        nas = wrapped.nas
        context = self.contexts.get(wrapped.enb_ue_id)
        if context is None:
            context = UeContext(enb_ue_id=wrapped.enb_ue_id, enb_ip=enb_ip,
                                attach_started_at=self.sim.now)
            self.contexts[wrapped.enb_ue_id] = context
        if isinstance(nas, ProtectedNas):
            if context.security is None:
                return  # protected NAS before key agreement: drop
            try:
                nas = unprotect_nas(context.security, nas, downlink=False)
            except SecurityError:
                return  # tampered/replayed: drop silently
        if isinstance(nas, AttachRequest):
            self._on_attach_request(context, nas)
        elif isinstance(nas, AuthenticationResponse):
            self._on_auth_response(context, nas)
        elif isinstance(nas, SecurityModeComplete):
            self._on_smc_complete(context, nas)
        elif isinstance(nas, AttachComplete):
            self._on_attach_complete(context)
        elif isinstance(nas, DetachRequest):
            self._on_detach(context, nas)
        else:
            self.handle_extension_nas(context, nas)

    def handle_extension_nas(self, context: UeContext, nas: NasMessage) -> None:
        """Hook for NAS messages added by subclasses (SAP)."""

    def downlink(self, context: UeContext, nas: NasMessage) -> None:
        self.send(context.enb_ip,
                  S1DownlinkNas(enb_ue_id=context.enb_ue_id, nas=nas),
                  size=message_size(nas) + 24)

    def downlink_protected(self, context: UeContext,
                           nas: NasMessage) -> None:
        """Cipher + integrity-protect a post-SMC downlink NAS message."""
        if context.security is not None:
            nas = protect_nas(context.security, nas, downlink=True)
        self.downlink(context, nas)

    def reject(self, context: UeContext, cause: str) -> None:
        self.attaches_rejected += 1
        context.state = "REJECTED"
        self.downlink(context, AttachReject(cause=cause))

    # -- baseline attach state machine ----------------------------------------
    def _on_attach_request(self, context: UeContext,
                           request: AttachRequest) -> None:
        context.imsi = request.imsi
        context.subscriber_id = request.imsi
        context.state = "WAIT_AUTH_INFO"
        context.attach_started_at = self.sim.now
        self._by_imsi[request.imsi] = context.enb_ue_id
        air = s6a.AuthenticationInformationRequest(
            imsi=request.imsi, visited_plmn=str(self.plmn))
        self.send(self.subscriber_db_ip, air, size=s6a.message_size(air))

    def _handle_aia(self, src_ip: str,
                    answer: s6a.AuthenticationInformationAnswer) -> None:
        ue_id = self._by_imsi.get(answer.imsi)
        context = self.contexts.get(ue_id) if ue_id is not None else None
        if context is None or context.state != "WAIT_AUTH_INFO":
            return
        if answer.result != "SUCCESS" or not answer.vectors:
            self.reject(context, f"S6a AIR failed: {answer.result}")
            return
        context.auth_vector = answer.vectors[0]
        context.state = "WAIT_AUTH_RESPONSE"
        self.downlink(context, AuthenticationRequest(
            rand=context.auth_vector.rand, autn=context.auth_vector.autn))

    def _on_auth_response(self, context: UeContext,
                          response: AuthenticationResponse) -> None:
        if context.state == "WAIT_SMC_COMPLETE" \
                and context.auth_vector is not None \
                and response.res == context.auth_vector.xres:
            # Duplicate response: our SMC was likely lost — replay it.
            self.send_smc(context)
            return
        if context.state != "WAIT_AUTH_RESPONSE":
            return
        if context.auth_vector is None \
                or response.res != context.auth_vector.xres:
            self.attaches_rejected += 1
            context.state = "REJECTED"
            self.downlink(context, AuthenticationReject())
            return
        context.security = SecurityContext(kasme=context.auth_vector.kasme)
        context.state = "WAIT_SMC_COMPLETE"
        self.send_smc(context)

    def send_smc(self, context: UeContext) -> None:
        security = context.security
        mac = smc_mac(security.k_nas_int, security.enc_alg, security.int_alg)
        self.downlink(context, SecurityModeCommand(
            enc_alg=security.enc_alg, int_alg=security.int_alg, mac=mac))

    def _on_smc_complete(self, context: UeContext,
                         complete: SecurityModeComplete) -> None:
        if context.state == "WAIT_ATTACH_COMPLETE" \
                and context.security is not None:
            # Duplicate SMC complete: the UE never saw our AttachAccept —
            # re-send it (freshly protected) after re-verifying the MAC.
            expected = smc_mac(context.security.k_nas_int, 0xFF, 0xFF)
            if complete.mac == expected:
                self._send_attach_accept(context)
            return
        if context.state != "WAIT_SMC_COMPLETE":
            return
        expected = smc_mac(context.security.k_nas_int, 0xFF, 0xFF)
        if complete.mac != expected:
            self.reject(context, "SMC integrity failure")
            return
        self.after_security_established(context)

    def after_security_established(self, context: UeContext) -> None:
        """Baseline: second S6a round-trip (ULR) before admitting the UE.

        CellBricks overrides this to go straight to session setup — the
        bTelco "does not send the second (ULR) request" (§6.1).
        """
        context.state = "WAIT_LOCATION_UPDATE"
        ulr = s6a.UpdateLocationRequest(
            imsi=context.imsi, mme_identity=self.name,
            visited_plmn=str(self.plmn))
        self.send(self.subscriber_db_ip, ulr, size=s6a.message_size(ulr))

    def _handle_ula(self, src_ip: str,
                    answer: s6a.UpdateLocationAnswer) -> None:
        ue_id = self._by_imsi.get(answer.imsi)
        context = self.contexts.get(ue_id) if ue_id is not None else None
        if context is None or context.state != "WAIT_LOCATION_UPDATE":
            return
        if answer.result != "SUCCESS":
            self.reject(context, f"S6a ULR failed: {answer.result}")
            return
        context.subscription = answer.subscription
        self.establish_session(context)

    def establish_session(self, context: UeContext) -> None:
        """Create the default bearer and send Attach Accept."""
        subscription = context.subscription or s6a.SubscriptionData()
        context.bearer = self.spgw.create_default_bearer(
            subscriber_id=context.subscriber_id,
            qci=subscription.qci,
            ambr_dl_bps=subscription.ambr_dl_bps,
            ambr_ul_bps=subscription.ambr_ul_bps,
            apn=subscription.apn)
        context.guti = Guti(self.plmn, mme_group=1, mme_code=1,
                            m_tmsi=next(self._tmsi_counter))
        context.state = "WAIT_ATTACH_COMPLETE"
        context.accept_retx = 0
        self._send_attach_accept(context)
        self.sim.schedule(self.accept_retx_timeout,
                          self._check_attach_accept, context,
                          self.accept_retx_timeout)

    def _send_attach_accept(self, context: UeContext) -> None:
        self.downlink_protected(context, AttachAccept(
            guti=context.guti, ue_ip=context.bearer.ue_ip,
            bearer_id=context.bearer.ebi, qci=context.bearer.qci,
            ambr_dl_bps=context.bearer.ambr_dl_bps,
            ambr_ul_bps=context.bearer.ambr_ul_bps,
            apn=context.bearer.apn))

    def _check_attach_accept(self, context: UeContext,
                             timeout: float) -> None:
        """AttachAccept supervision: resend until AttachComplete arrives,
        then give up and release everything the half-open attach holds."""
        if self.contexts.get(context.enb_ue_id) is not context \
                or context.state != "WAIT_ATTACH_COMPLETE":
            return  # completed, torn down, or superseded — nothing to do
        if context.accept_retx >= self.accept_max_retx:
            self.accept_give_ups += 1
            self._abandon_attach(context)
            return
        context.accept_retx += 1
        self.accept_retransmissions += 1
        self._send_attach_accept(context)
        next_timeout = timeout * self.accept_retx_backoff
        self.sim.schedule(next_timeout, self._check_attach_accept, context,
                          next_timeout)

    def _abandon_attach(self, context: UeContext) -> None:
        """Release a half-open attach whose UE went silent so nothing
        leaks."""
        context.state = "ABANDONED"
        self._release_ue(context)

    def _release_ue(self, context: UeContext) -> None:
        """Terminal cleanup shared by abandon/detach/teardown: the
        bearer, the context, and the S1 association all go."""
        if context.bearer is not None and context.bearer.active:
            self.spgw.delete_bearer(context.bearer.ebi)
        self.send(context.enb_ip,
                  S1UeContextRelease(enb_ue_id=context.enb_ue_id), size=32)
        self.contexts.pop(context.enb_ue_id, None)
        if context.imsi:
            self._by_imsi.pop(context.imsi, None)
        self.context_released(context)

    def context_released(self, context: UeContext) -> None:
        """Hook: a context left ``self.contexts`` (subclasses drop their
        per-session state here)."""

    def _on_attach_complete(self, context: UeContext) -> None:
        if context.state != "WAIT_ATTACH_COMPLETE":
            return
        context.state = "ATTACHED"
        self.attaches_completed += 1
        if self.on_attached is not None:
            self.on_attached(context)

    # -- detach -----------------------------------------------------------------
    def _on_detach(self, context: UeContext,
                   request: Optional[DetachRequest] = None) -> None:
        context.state = "DETACHED"
        if request is None or not request.switch_off:
            # Switch-off detaches expect no acknowledgement (TS 24.301).
            self.downlink_protected(context, DetachAccept())
        self._release_ue(context)

    # -- introspection -----------------------------------------------------------
    def stats(self) -> dict:
        return {
            "attaches_completed": self.attaches_completed,
            "attaches_rejected": self.attaches_rejected,
            "contexts_active": len(self.contexts),
            "accept_retransmissions": self.accept_retransmissions,
            "accept_give_ups": self.accept_give_ups,
        }

    def context_for_imsi(self, imsi: str) -> Optional[UeContext]:
        ue_id = self._by_imsi.get(imsi)
        return self.contexts.get(ue_id) if ue_id is not None else None
