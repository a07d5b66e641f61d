"""The bTelco: a CellBricks-enabled access gateway.

:class:`CellBricksAgw` subclasses the baseline :class:`repro.lte.Agw`
exactly the way the prototype extends Magma's AGW (§5): new NAS messages
and handlers for SAP, while the SMC / session-establishment machinery is
inherited unmodified.  Key behavioural differences:

* authentication goes UE -> bTelco -> broker -> bTelco -> UE in **one**
  round-trip to the cloud (the baseline pays two: AIR + ULR);
* there is **no** subscriber database lookup — the bTelco serves users it
  has never seen, holding only the broker-signed authorization;
* the UE is identified by an opaque per-session pseudonym, never an IMSI;
* QoS parameters arrive from the broker (qosInfo) instead of a local
  subscription profile.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto import Certificate, PrivateKey, PublicKey
from repro.lte import s6a
from repro.lte.agw import Agw, UeContext
from repro.lte.enodeb import S1UplinkNas
from repro.lte.nas import (
    AttachComplete,
    DetachRequest,
    NasMessage,
    SapAttachChallenge,
    SapAttachReject,
    SapAttachRequest,
    SapScopedAttachRequest,
    SecurityModeComplete,
)
from repro.lte.signaling import CounterAttr
from repro.net import Host

from .billing import Meter, REPORTER_BTELCO
from .intercept import LawfulInterceptFunction
from .messages import BrokerAuthResponse, ReportAck
from .qos import QosCapabilities
from .sap import AuthorizedSession
from .sap_control import SapSite

# CellBricks AGW processing costs (seconds).  The deltas vs the baseline
# table come from SAP's crypto (sign authReqT; verify + decrypt authRespT)
# replacing vector handling + the ULR leg; the sums reproduce Fig 7's
# "AGW + Brokerd" bars.
CELLBRICKS_COSTS = {
    "sap_attach_request": 0.0053,
    "broker_auth_response": 0.0055,
    "smc_complete": 0.0046,     # includes immediate session establishment
    "attach_complete": 0.0015,
    # Scoped re-attach (§4.2): verify the broker signature on the token,
    # decrypt our ess entry, check one MAC — no authReqT signing and no
    # broker round-trip on the critical path.
    "scoped_attach_request": 0.0018,
}


class CellBricksAgw(SapSite, Agw):
    """A bTelco site: AGW with SAP in place of EPS-AKA + S6a.

    The SAP logic is :class:`~repro.core.sap_control.SapSite`; this class
    is its LTE adapter plus billing (§4.3) and lawful intercept.
    """

    reports_retried = CounterAttr("btelco.reports_retried")
    reports_lost = CounterAttr("btelco.reports_lost")
    reports_acked = CounterAttr("btelco.reports_acked")
    sap_request_type = SapAttachRequest
    scoped_request_type = SapScopedAttachRequest
    challenge_type = SapAttachChallenge
    attached_states = ("ATTACHED",)
    started_field = "attach_started_at"

    def span_name(self, message: object) -> str:
        if isinstance(message, ReportAck):
            return "billing.report_ack"
        return super().span_name(message)

    def __init__(self, host: Host, broker_ip: str, id_t: str,
                 key: PrivateKey, certificate: Certificate,
                 ca_public_key: PublicKey,
                 qos_capabilities: Optional[QosCapabilities] = None,
                 name: str = "btelco-agw",
                 ue_pool_prefix: str = "10.128.0"):
        # No SubscriberDB: the broker replaces it (hence the empty ip).
        super().__init__(host, subscriber_db_ip="0.0.0.0", name=name,
                         ue_pool_prefix=ue_pool_prefix)
        self._init_site(broker_ip, id_t, key, certificate, ca_public_key,
                        qos_capabilities)
        self.meters: dict[str, Meter] = {}
        self.li = LawfulInterceptFunction(operator=id_t)
        self.reports_retried = 0
        self.reports_lost = 0
        self.reports_acked = 0
        self.sap_costs = dict(CELLBRICKS_COSTS)
        self.on(ReportAck, self._handle_report_ack)

    # -- cost model overrides -------------------------------------------------
    def nas_processing_cost(self, nas: NasMessage) -> float:
        if isinstance(nas, SapAttachRequest):
            return self.sap_costs["sap_attach_request"]
        if isinstance(nas, SapScopedAttachRequest):
            return self.sap_costs["scoped_attach_request"]
        return super().nas_processing_cost(nas)

    def processing_cost(self, message: object) -> float:
        if isinstance(message, BrokerAuthResponse):
            return self.sap_costs["broker_auth_response"]
        if isinstance(message, S1UplinkNas):
            if isinstance(message.nas, SecurityModeComplete):
                return self.sap_costs["smc_complete"]
            if isinstance(message.nas, AttachComplete):
                return self.sap_costs["attach_complete"]
        return super().processing_cost(message)

    # -- SAP adapter -------------------------------------------------------------------
    def handle_extension_nas(self, context: UeContext,
                             nas: NasMessage) -> None:
        if isinstance(nas, SapAttachRequest):
            self._on_sap_request(context, nas)
        elif isinstance(nas, SapScopedAttachRequest):
            self._on_scoped_request(context, nas)

    def sap_reject(self, context: UeContext, cause: str,
                   retryable: bool = False) -> None:
        self.attaches_rejected += 1
        context.state = "REJECTED"
        self.downlink(context, SapAttachReject(cause=cause,
                                               retryable=retryable))
        self._release_ue(context)

    def bind_session(self, context: UeContext,
                     session: AuthorizedSession) -> None:
        # The UE is known only by its opaque per-session pseudonym; QoS
        # arrives from the broker instead of a subscription profile.
        context.subscriber_id = session.id_u_opaque
        context.subscription = s6a.SubscriptionData(
            qci=session.qos_info.qci,
            ambr_dl_bps=session.qos_info.ambr_dl_bps,
            ambr_ul_bps=session.qos_info.ambr_ul_bps)

    def after_security_established(self, context: UeContext) -> None:
        """No ULR: straight to session establishment (the Fig 7 win)."""
        self.establish_session(context)
        self._arm_expiry(context, context.enb_ue_id)

    def _teardown_session(self, context: UeContext) -> None:
        """Network-initiated detach: release the session's every resource."""
        self.downlink_protected(context, DetachRequest())
        context.state = "DETACHED"
        self._release_ue(context)

    def _forget_session(self, session_id: str) -> None:
        self.meters.pop(session_id, None)
        super()._forget_session(session_id)

    def context_released(self, context: UeContext) -> None:
        if context.sap_session is not None:
            self.li.deactivate(context.sap_session.session_id, self.sim.now)
        super().context_released(context)

    def _on_attach_complete(self, context: UeContext) -> None:
        super()._on_attach_complete(context)
        if self._revoked_in_flight(context):
            return
        session = context.sap_session
        if context.state == "ATTACHED" and session is not None:
            broker_key = self.broker_public_keys.get(context.broker_id)
            if broker_key is not None:
                self.meters[session.session_id] = Meter(
                    session_id=session.session_id,
                    reporter=REPORTER_BTELCO, key=self.key,
                    broker_public_key=broker_key,
                    session_started_at=self.sim.now)
            if session.lawful_intercept:
                # The broker mandated interception for this session; we
                # advertised the capability, so activate it now.
                self.li.activate(session.session_id, self.sim.now,
                                 session.id_u_opaque)

    # -- billing ------------------------------------------------------------------------
    def upload_reports(self) -> int:
        """Emit one traffic report per active session to the broker.

        Uploads ride the reliable-request facility: a lost report would
        leave its (session, seq) pair unmatched at the broker and skew
        the §4.3 discrepancy check toward false accusations, so they are
        retransmitted until the broker's :class:`ReportAck` arrives.
        """
        sent = 0
        for session_id, meter in self.meters.items():
            bearer = self.spgw.bearer_for(
                self.sessions[session_id].id_u_opaque)
            if bearer is not None:
                # Sync the meter with the PGW usage counters.
                meter.dl_bytes = bearer.usage.dl_bytes
                meter.ul_bytes = bearer.usage.ul_bytes
                bearer.usage.dl_bytes = 0
                bearer.usage.ul_bytes = 0
            self.li.record_usage(session_id, self.sim.now,
                                 meter.dl_bytes, meter.ul_bytes)
            upload = meter.emit(self.sim.now)
            destination = self.broker_endpoint(
                self.session_brokers.get(session_id, ""))
            # Per-report retry tally: if the report is eventually lost,
            # its retries are rolled back from ``reports_retried`` so the
            # counter means "retries that preceded a delivery" and never
            # drifts when a retried report fails anyway.
            tally = [0]
            self.send_request(
                destination, upload, size=upload.wire_size,
                on_give_up=lambda _msg, t=tally: self._report_gave_up(t),
                on_retransmit=lambda _msg, _n, t=tally:
                    self._note_report_retry(t))
            sent += 1
        return sent

    def _note_report_retry(self, tally: list) -> None:
        tally[0] += 1
        self.reports_retried += 1

    def _report_gave_up(self, tally: list) -> None:
        self.reports_retried -= tally[0]
        self.reports_lost += 1

    def _handle_report_ack(self, src_ip: str, ack: ReportAck) -> None:
        self.reports_acked += 1

    # -- introspection ------------------------------------------------------------------
    def stats(self) -> dict:
        stats = super().stats()
        stats.update({
            "meters_active": len(self.meters),
            "reports_retried": self.reports_retried,
            "reports_lost": self.reports_lost,
            "reports_acked": self.reports_acked,
        })
        return stats
