"""CellBricks over 5G: SAP replacing 5G-AKA in the AMF and UE.

The paper's architecture is generation-agnostic ("the cellular core —
called EPC in LTE, or 5GC in 5G"); this module applies the identical SAP
refactoring to the 5G control plane.  The baseline 5G registration pays
*two* visited↔home round trips (AUSF/UDM authenticate + the RES*
confirmation); SAP replaces both with one broker round trip, so the
Fig 7-style win grows under 5G — quantified in the XTRA-5G benchmark.

The SAP logic itself — broker leg, scoped registration, expiry,
revocation cascade — is the RAT-generic
:mod:`repro.core.sap_control`, shared with the LTE bTelco; this module
holds only the 5G adapters.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto import Certificate, PrivateKey, PublicKey
from repro.fivegc import nas5g
from repro.fivegc.nf import Amf, UeContext5G
from repro.fivegc.ue5g import Ue5G
from repro.lte.nas import NasMessage
from repro.net import Host

from .messages import BrokerAuthResponse
from .qos import QosCapabilities
from .sap import AuthorizedSession, UeSapCredentials
from .sap_control import SapSite, SapUe

CB_AMF_COSTS = {
    "sap_registration": 0.0055,
    "broker_auth_response": 0.0057,
    # Scoped re-registration (§4.2): local token validation only.
    "scoped_registration": 0.0019,
}

# CellBricks 5G UE costs (seconds): authReqU crafting (hybrid encrypt +
# sign), a scoped re-registration's single MAC, the response check.
CB_UE5G_COSTS = {
    "craft_sap_request": 0.0016,
    "craft_scoped_request": 0.0003,
    nas5g.SapRegistrationChallenge: 0.0006,
}


class CellBricksAmf(SapSite, Amf):
    """A 5G bTelco site: AMF with SAP, no AUSF/UDM dependency.

    The SAP logic is :class:`~repro.core.sap_control.SapSite`; this class
    is its 5G adapter.
    """

    sap_request_type = nas5g.SapRegistrationRequest
    scoped_request_type = nas5g.SapScopedRegistrationRequest
    challenge_type = nas5g.SapRegistrationChallenge
    attached_states = ("REGISTERED", "WAIT_SMF")
    started_field = "registration_started_at"
    send_smc = Amf.send_smc5g

    def __init__(self, host: Host, broker_ip: str, smf_ip: str, id_t: str,
                 key: PrivateKey, certificate: Certificate,
                 ca_public_key: PublicKey,
                 qos_capabilities: Optional[QosCapabilities] = None,
                 name: str = "cb-amf"):
        super().__init__(host, ausf_ip="0.0.0.0", smf_ip=smf_ip, name=name)
        self._init_site(broker_ip, id_t, key, certificate, ca_public_key,
                        qos_capabilities)
        self.sap_costs = dict(CB_AMF_COSTS)

    # -- cost model -------------------------------------------------------------
    def nas_processing_cost(self, nas: NasMessage) -> float:
        if isinstance(nas, nas5g.SapRegistrationRequest):
            return self.sap_costs["sap_registration"]
        if isinstance(nas, nas5g.SapScopedRegistrationRequest):
            return self.sap_costs["scoped_registration"]
        return super().nas_processing_cost(nas)

    def processing_cost(self, message: object) -> float:
        if isinstance(message, BrokerAuthResponse):
            return self.sap_costs["broker_auth_response"]
        return super().processing_cost(message)

    # -- SAP adapter -------------------------------------------------------------------
    def nas_initiates(self, nas: NasMessage) -> bool:
        return super().nas_initiates(nas) \
            or isinstance(nas, (nas5g.SapRegistrationRequest,
                                nas5g.SapScopedRegistrationRequest))

    def handle_extension_nas(self, context: UeContext5G,
                             nas: NasMessage) -> None:
        if isinstance(nas, nas5g.SapRegistrationRequest):
            self._on_sap_request(context, nas)
        elif isinstance(nas, nas5g.SapScopedRegistrationRequest):
            self._on_scoped_request(context, nas)

    def sap_reject(self, context: UeContext5G, cause: str,
                   retryable: bool = False) -> None:
        self.reject(context, cause, retryable=retryable)

    def bind_session(self, context: UeContext5G,
                     session: AuthorizedSession) -> None:
        context.supi = session.id_u_opaque   # pseudonym, never the SUPI

    def watch_attempt(self, context: UeContext5G) -> None:
        self._watch_registration(context)

    def after_security_established(self, context: UeContext5G) -> None:
        super().after_security_established(context)
        self._arm_expiry(context, context.ran_ue_id)

    def _teardown_session(self, context: UeContext5G) -> None:
        """Network-initiated deregistration: drop every resource the
        session holds (the downlink precedes the RAN release so it still
        routes through the gNB's ue-id mapping)."""
        self.downlink(context, nas5g.DeregistrationRequest5G())
        context.state = "DEREGISTERED"
        self._release_ue(context)

    def _on_registration_complete(self, context: UeContext5G) -> None:
        super()._on_registration_complete(context)
        self._revoked_in_flight(context)


class CellBricksUe5G(SapUe, Ue5G):
    """5G UE running SAP instead of 5G-AKA (the SAP logic is
    :class:`~repro.core.sap_control.SapUe`)."""

    sap_request_type = nas5g.SapRegistrationRequest
    scoped_request_type = nas5g.SapScopedRegistrationRequest
    challenge_type = nas5g.SapRegistrationChallenge
    sap_craft_costs = CB_UE5G_COSTS
    processing_costs = dict(Ue5G.processing_costs)
    processing_costs[nas5g.SapRegistrationChallenge] = \
        CB_UE5G_COSTS[nas5g.SapRegistrationChallenge]

    def __init__(self, host: Host, gnb_ip: str,
                 credentials: UeSapCredentials, target_id_t: str,
                 name: str = "cb-ue5g"):
        super().__init__(host, gnb_ip, supi=None, usim=None,
                         home_network_key=None,
                         serving_network=target_id_t, name=name)
        self._init_sap_ue(credentials, target_id_t)
