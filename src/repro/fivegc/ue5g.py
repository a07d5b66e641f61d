"""The 5G UE: registration + PDU session, baseline (5G-AKA) flavor.

The CellBricks 5G UE subclasses this in :mod:`repro.core.btelco5g`,
replacing 5G-AKA with SAP exactly as the 4G UE does — the layering that
lets the same SIM-resident credentials serve both generations.

Registration legs are supervised by the same code as the LTE UE's attach
legs (:class:`repro.lte.ue.AttachSupervisor`); this module supplies only
the 5G adapter: NAS types, 5G-AKA, the result type, and the PDU-session
and deregistration procedures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.crypto import PublicKey
from repro.lte.aka import AkaError, UsimState
from repro.lte.security import SecurityContext
from repro.lte.ue import AttachSupervisor
from repro.net import Host

from . import nas5g
from .aka5g import derive_kamf, derive_kseaf, usim_authenticate_5g
from .identifiers5g import Supi, conceal

UE5G_COSTS = {
    "craft_registration": 0.0012,     # SUCI concealment (hybrid encrypt)
    nas5g.AuthenticationRequest5G: 0.0012,
    nas5g.SecurityModeCommand5G: 0.00075,
    nas5g.RegistrationAccept: 0.00075,
    nas5g.PduSessionEstablishmentAccept: 0.0006,
}


@dataclass
class RegistrationResult:
    success: bool
    latency: float
    cause: Optional[str] = None


@dataclass
class SessionResult:
    success: bool
    ue_ip: Optional[str]
    latency: float
    cause: Optional[str] = None


class Ue5G(AttachSupervisor):
    """Baseline 5G UE with supervised registration legs."""

    processing_costs = {
        nas5g.AuthenticationRequest5G:
            UE5G_COSTS[nas5g.AuthenticationRequest5G],
        nas5g.SecurityModeCommand5G:
            UE5G_COSTS[nas5g.SecurityModeCommand5G],
        nas5g.RegistrationAccept: UE5G_COSTS[nas5g.RegistrationAccept],
        nas5g.PduSessionEstablishmentAccept:
            UE5G_COSTS[nas5g.PduSessionEstablishmentAccept],
    }
    _SPAN_NAMES = {
        nas5g.AuthenticationRequest5G: "nas.ue_auth",
        nas5g.SecurityModeCommand5G: "nas.ue_smc",
        nas5g.RegistrationAccept: "nas.ue_reg_accept",
        nas5g.PduSessionEstablishmentAccept: "nas.ue_pdu_accept",
    }
    attaching_state = "REGISTERING"
    attached_state = "REGISTERED"
    procedure = "registration"
    smc_complete_type = nas5g.SecurityModeComplete5G

    def __init__(self, host: Host, gnb_ip: str, supi: Supi,
                 usim: Optional[UsimState],
                 home_network_key: Optional[PublicKey],
                 serving_network: str, name: str = "ue5g"):
        super().__init__(host, name)
        self.gnb_ip = gnb_ip
        self.supi = supi
        self.usim = usim
        self.home_network_key = home_network_key
        self.serving_network = serving_network
        self.kausf: Optional[bytes] = None
        self._session_started: Optional[float] = None
        self.on_registration_done: Optional[Callable] = None
        self.on_session_done: Optional[Callable] = None
        self.on_deregistered: Optional[Callable] = None

        self.on(nas5g.AuthenticationRequest5G, self._on_auth_request)
        self.on(nas5g.SecurityModeCommand5G, self._on_smc)
        self.on(nas5g.RegistrationAccept, self._on_accept)
        self.on(nas5g.RegistrationReject, self._on_reject)
        self.on(nas5g.DeregistrationRequest5G,
                self._on_network_deregistration)
        self.on(nas5g.PduSessionEstablishmentAccept, self._on_pdu_accept)
        self.on(nas5g.PduSessionEstablishmentReject, self._on_pdu_reject)

    @property
    def ran_ip(self) -> str:
        return self.gnb_ip

    # -- registration ------------------------------------------------------------
    def register(self) -> None:
        """Start a registration (``attach()`` is the RAT-generic name)."""
        self.attach()

    def _reset_attempt(self) -> None:
        super()._reset_attempt()
        self.kausf = None

    def craft_cost(self) -> float:
        return UE5G_COSTS["craft_registration"]

    def initial_request(self):
        suci = conceal(self.supi, self.home_network_key)
        return nas5g.RegistrationRequest(suci=suci)

    def _on_give_up(self) -> None:
        super()._on_give_up()
        self.kausf = None

    def authenticate(self, request: nas5g.AuthenticationRequest5G):
        try:
            res_star, kausf = usim_authenticate_5g(
                self.usim, request.rand, request.autn, self.serving_network)
        except AkaError as exc:
            self._fail(str(exc))
            return None
        self.kausf = kausf
        kseaf = derive_kseaf(kausf, self.serving_network)
        kamf = derive_kamf(kseaf, str(self.supi))
        self.security = SecurityContext(kasme=kamf)
        return nas5g.AuthenticationResponse5G(res_star=res_star)

    def send_attach_complete(self) -> None:
        self.uplink(nas5g.RegistrationComplete())

    def _deliver(self, success: bool, latency: float,
                 cause: Optional[str] = None) -> None:
        result = RegistrationResult(success=success, latency=latency,
                                    cause=cause)
        if self.on_registration_done is not None:
            self.on_registration_done(result)
        if self.on_attach_done is not None:
            self.on_attach_done(result)

    # -- deregistration -----------------------------------------------------------
    def deregister_and_forget(self) -> None:
        """Switch-off style deregistration (TS 24.501): tell the network
        we are leaving and drop local state without waiting for an accept
        — what a CellBricks UE does the instant it decides to move."""
        if self.state == "REGISTERED":
            self.uplink(nas5g.DeregistrationRequest5G(switch_off=True))
        self.state = "DEREGISTERED"
        self.ue_ip = None
        self.security = None

    def detach_and_forget(self) -> None:
        """LTE-named alias so RAT-generic harnesses drive both UEs."""
        self.deregister_and_forget()

    def _on_network_deregistration(
            self, src_ip: str,
            request: nas5g.DeregistrationRequest5G) -> None:
        """Network-initiated deregistration (grant expiry / revocation)."""
        if self.state != "REGISTERED" or src_ip != self.gnb_ip:
            return  # not registered, or a stale network we already left
        self.uplink(nas5g.DeregistrationAccept5G())
        self.state = "DEREGISTERED"
        self.ue_ip = None
        self.security = None
        if self.on_deregistered is not None:
            self.on_deregistered()

    def retarget(self, gnb_ip: str, serving_network: str) -> None:
        """Point the UE at a different gNB (host-driven mobility)."""
        self.gnb_ip = gnb_ip
        self.serving_network = serving_network

    # -- PDU session --------------------------------------------------------------
    def establish_session(self, dnn: str = "internet") -> None:
        if self.state != "REGISTERED":
            raise RuntimeError("establish_session() before registration")
        self._session_started = self.sim.now
        self.uplink(nas5g.PduSessionEstablishmentRequest(dnn=dnn))

    def _on_pdu_accept(self, src_ip: str,
                       accept: nas5g.PduSessionEstablishmentAccept) -> None:
        self.ue_ip = accept.ue_ip
        if self.on_session_done is not None:
            self.on_session_done(SessionResult(
                success=True, ue_ip=accept.ue_ip,
                latency=self.sim.now - self._session_started))

    def _on_pdu_reject(self, src_ip: str, reject) -> None:
        if self.on_session_done is not None:
            self.on_session_done(SessionResult(
                success=False, ue_ip=None,
                latency=self.sim.now - (self._session_started or self.sim.now),
                cause=reject.cause))
