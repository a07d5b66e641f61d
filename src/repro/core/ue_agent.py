"""The CellBricks UE: SAP instead of EPS-AKA (the srsUE extension).

:class:`CellBricksUe` subclasses the baseline NAS stack; its initial
message is a :class:`SapAttachRequest` carrying ``authReqU``, and the
broker's ``authRespU`` (relayed by the bTelco) yields the shared secret
that seeds the standard security context.  From the SMC onward the
inherited baseline code runs unchanged — exactly the reuse story of §4.1.
"""

from __future__ import annotations

from typing import Optional

from repro.lte.nas import (
    SapAttachChallenge,
    SapAttachReject,
    SapAttachRequest,
    SapScopedAttachRequest,
)
from repro.lte.ue import UeNas
from repro.net import Host

from .billing import Meter, REPORTER_UE
from .sap import UeSapCredentials
from .sap_control import SapUe

# CellBricks UE processing costs (seconds): crafting authReqU costs more
# than a plain AttachRequest (hybrid encrypt + sign); the response check
# is a verify + decrypt.  Sum ≈ 3.5 ms (Fig 7 "UE Proc." CB bars).
# A scoped re-attach only computes one MAC — no hybrid encrypt, no sign.
CB_UE_COSTS = {
    "craft_sap_request": 0.0015,
    "craft_scoped_request": 0.0003,
    SapAttachChallenge: 0.0005,
}


class CellBricksUe(SapUe, UeNas):
    """UE attaching on-demand to untrusted bTelcos via its broker (the
    SAP logic is :class:`~repro.core.sap_control.SapUe`)."""

    sap_request_type = SapAttachRequest
    scoped_request_type = SapScopedAttachRequest
    challenge_type = SapAttachChallenge
    sap_craft_costs = CB_UE_COSTS
    processing_costs = dict(UeNas.processing_costs)
    processing_costs[SapAttachChallenge] = CB_UE_COSTS[SapAttachChallenge]

    def __init__(self, host: Host, enb_ip: str,
                 credentials: UeSapCredentials, target_id_t: str,
                 name: str = "cb-ue"):
        super().__init__(host, enb_ip, imsi=credentials.id_u,
                         usim=None, serving_network=target_id_t, name=name)
        self._init_sap_ue(credentials, target_id_t)
        self.meter: Optional[Meter] = None
        self.on(SapAttachReject, self._on_reject)

    def _on_accept(self, src_ip: str, accept) -> None:
        was_attached = self.state == "ATTACHED"
        super()._on_accept(src_ip, accept)
        if was_attached:
            return  # duplicate accept: keep the existing meter
        if self.state == "ATTACHED" and self.session_id is not None:
            # Baseband-embedded meter for verifiable billing (§4.3).
            self.meter = Meter(
                session_id=self.session_id, reporter=REPORTER_UE,
                key=self.credentials.ue_key,
                broker_public_key=self.credentials.broker_public_key,
                session_started_at=self.sim.now)
