"""UE NAS stack: the baseline (srsUE-like) attach procedure.

The CellBricks UE extension (running SAP instead of EPS-AKA) subclasses
this in :class:`repro.core.ue_agent.CellBricksUe`, mirroring how the
prototype "adds 940 LoC to the srsUE".  The attach supervision
(:class:`AttachSupervisor`) is RAT-generic: the 5G UE shares it.

Attach latency is measured exactly as in §6.1: from when the UE issues the
attachment request to when attachment completes, with RRC/lower-layer time
excluded (the radio link here carries signaling with negligible delay; all
measured time is NAS processing + backhaul/cloud transport).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.net import Host

from .aka import AkaError, UsimState, usim_authenticate
from .agw import smc_mac
from .identifiers import Imsi
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
    SecurityModeCommand,
    SecurityModeComplete,
    message_size,
)
from .nas_transport import ProtectedNas
from .nas_transport import protect as protect_nas
from .nas_transport import unprotect as unprotect_nas
from .security import SecurityContext, SecurityError
from .signaling import CounterAttr, SignalingNode

# UE-side processing costs (seconds); sum ≈ 3.0 ms per baseline attach.
UE_COSTS = {
    "craft_attach_request": 0.0005,
    AuthenticationRequest: 0.0010,
    SecurityModeCommand: 0.00075,
    AttachAccept: 0.00075,
}


@dataclass
class AttachResult:
    """Outcome of one attach attempt."""

    success: bool
    ue_ip: Optional[str]
    latency: float
    cause: Optional[str] = None


class AttachSupervisor(SignalingNode):
    """RAT-generic UE attach supervision, shared by the LTE
    :class:`UeNas` and the 5G :class:`repro.fivegc.ue5g.Ue5G`.

    Attach legs are supervised by a retransmission timer: the last uplink
    NAS message of an in-progress attach is re-sent on timeout with
    capped exponential backoff (seeded jitter), and the attempt is
    abandoned cleanly — state reset, ``attach_timeouts`` bumped, the
    failure delivered to the caller — once the per-leg budget is spent.
    A loss-free attach completes well inside the first timeout, so the
    supervision never fires on the clean path.  A retryable reject (a
    degraded broker shard) backs off and re-attaches with a fresh
    request instead of failing.

    A RAT adapter supplies the state names, the SMC-complete type, the
    RAN address (:attr:`ran_ip`), :meth:`initial_request`,
    :meth:`authenticate`, :meth:`send_attach_complete` and
    :meth:`_deliver`.
    """

    obs_category = "ue"
    #: span name for the initial-request crafting work ("sap.ue_craft"
    #: on the CellBricks UEs).
    craft_span_name = "nas.ue_craft"
    _SPAN_NAMES: dict = {}
    # Same metric names on both RATs so fleet-wide registry merges
    # aggregate across generations.
    nas_retransmissions = CounterAttr("ue.nas_retransmissions")
    attach_timeouts = CounterAttr("ue.attach_timeouts")
    retryable_rejects = CounterAttr("ue.retryable_rejects")
    # -- attach retransmission knobs --
    attach_retx_timeout = 0.4
    attach_retx_backoff = 2.0
    attach_retx_max_timeout = 3.0
    attach_retx_jitter = 0.1
    attach_max_attempts = 5
    # -- retryable-reject backoff knobs (degraded broker shard) --
    reject_backoff = 0.15
    reject_backoff_factor = 2.0
    reject_max_retries = 4
    # -- RAT adapter --
    attaching_state = "ATTACHING"
    attached_state = "ATTACHED"
    #: names the procedure in the timeout cause.
    procedure = "attach"
    smc_complete_type: type = SecurityModeComplete

    def __init__(self, host: Host, name: str):
        super().__init__(host, name)
        self.state = "DEREGISTERED"
        self.security: Optional[SecurityContext] = None
        self.ue_ip: Optional[str] = None
        self.attach_started_at: Optional[float] = None
        self.on_attach_done: Optional[Callable] = None
        # -- attach supervision state --
        self._resend: Optional[Callable[[], None]] = None
        self._timer_event = None
        self._attempts = 0
        self._timeout_cur = 0.0
        self._initial_request_cache = None
        self._last_auth_rand: Optional[bytes] = None
        self._auth_response = None
        self._attach_span = None
        self._reject_retries = 0
        self.nas_retransmissions = 0
        self.attach_timeouts = 0
        self.retryable_rejects = 0

    @property
    def ran_ip(self) -> str:
        """Address of the serving eNodeB / gNB."""
        raise NotImplementedError

    def uplink(self, nas) -> None:
        self.send(self.ran_ip, nas, size=message_size(nas))

    # -- observability --------------------------------------------------------
    def span_name(self, message: object) -> str:
        name = self._SPAN_NAMES.get(type(message))
        return name if name is not None else super().span_name(message)

    def _obs_begin_attach(self, craft: float) -> None:
        """Open the root ``attach`` span plus its crafting child; every
        send in this procedure then carries the root trace context.  The
        root span is named ``attach`` on both RATs so the Fig 7
        leg-breakdown exporter works on 5G traces unchanged."""
        obs = self.obs()
        if obs is None or not obs.tracing:
            return
        tracer = obs.tracer
        # Inside a mobility switch the manager sets ``_obs_parent_ctx``
        # so the re-auth nests under the migration root (parent_id != 0
        # keeps these out of the Fig 7 attach breakdowns).
        root = tracer.start_trace("attach", self.name, self.obs_category,
                                  start=self.sim.now,
                                  ctx=getattr(self, "_obs_parent_ctx", None))
        self._attach_span = root
        self._obs_ctx = root.context
        tracer.begin(self.craft_span_name, self.name, self.obs_category,
                     start=self.sim.now, end=self.sim.now + craft,
                     trace_id=root.trace_id, parent_id=root.span_id)

    def _obs_end_attach(self, status: str, latency: float) -> None:
        """Close the root span and record the outcome in the registry."""
        span = self._attach_span
        if span is not None:
            self._attach_span = None
            obs = self.obs()
            if obs is not None and obs.tracing:
                obs.tracer.finish(span, self.sim.now, status=status)
        if status == "ok":
            self.metrics.histogram("attach.latency_ms").observe(
                latency * 1000.0)
        else:
            self.metrics.counter("attach.failures").inc()

    def _obs_degraded_retry(self, reject, delay: float) -> None:
        """Annotate the open attach span when a retryable (degraded
        shard) denial forces a backoff — the trace then shows *why*
        this attach was slow, not just that it was."""
        span = self._attach_span
        if span is None:
            return
        obs = self.obs()
        if obs is not None and obs.tracing:
            obs.tracer.instant(
                "attach.degraded_retry", self.name, self.sim.now,
                trace_id=span.trace_id, parent_id=span.span_id,
                category=self.obs_category,
                data={"retry": self._reject_retries,
                      "backoff_ms": round(delay * 1000.0, 3),
                      "cause": getattr(reject, "cause", "") or "degraded"})

    # -- attach ---------------------------------------------------------------
    def attach(self) -> None:
        """Start the attach procedure (the §6.1 latency clock starts now)."""
        if self.state not in ("DEREGISTERED", "REJECTED"):
            raise RuntimeError(f"attach() in state {self.state}")
        self.state = self.attaching_state
        self.attach_started_at = self.sim.now
        self._reset_attempt()
        self._reject_retries = 0
        craft = self.craft_cost()
        self.charge(craft)
        self._obs_begin_attach(craft)
        self.sim.schedule(craft, self._send_initial_request)

    def _reset_attempt(self) -> None:
        """A fresh attempt starts from clean EMM/MM state: stale keys
        from an earlier attach must never validate this one's SMC."""
        self.security = None
        self._last_auth_rand = None
        self._auth_response = None

    def craft_cost(self) -> float:
        """Cost of crafting the initial request."""
        raise NotImplementedError

    def initial_request(self):
        """The first NAS message of an attempt."""
        raise NotImplementedError

    def _send_initial_request(self) -> None:
        # The request is crafted ONCE per attach attempt and the same
        # bytes are retransmitted: for the CellBricks UE this keeps the
        # SAP nonce stable so the broker's idempotency cache (not its
        # replay window) catches the duplicate.
        request = self.initial_request()
        self._initial_request_cache = request
        self.uplink(request)
        self._supervise(self._resend_initial_request)

    def _resend_initial_request(self) -> None:
        request = self._initial_request_cache
        if request is not None:
            self.uplink(request)

    # -- attach retransmission supervision -------------------------------------
    def _supervise(self, resend: Callable[[], None]) -> None:
        """(Re)arm the retransmission timer around the given attach leg.

        Each leg (initial request, auth response, SMC complete) gets a
        fresh attempt budget: any downlink progress proves the path was
        recently alive.
        """
        self._resend = resend
        self._attempts = 1
        self._timeout_cur = self.attach_retx_timeout
        self._arm_timer()

    def _arm_timer(self) -> None:
        self._cancel_timer()
        jitter = 1.0 + self.attach_retx_jitter \
            * (2.0 * self._retx_rng.random() - 1.0)
        self._timer_event = self.sim.schedule(
            self._timeout_cur * jitter, self._timer_fired)

    def _cancel_timer(self) -> None:
        if self._timer_event is not None:
            self._timer_event.cancel()
            self._timer_event = None

    def _stop_supervision(self) -> None:
        self._cancel_timer()
        self._resend = None

    def _timer_fired(self) -> None:
        self._timer_event = None
        if self.state != self.attaching_state or self._resend is None:
            return
        if self._attempts >= self.attach_max_attempts:
            self.attach_timeouts += 1
            self._resend = None
            self._on_give_up()
            self._fail(f"{self.procedure} timed out after "
                       f"{self.attach_max_attempts} attempts")
            return
        self._attempts += 1
        self._timeout_cur = min(
            self._timeout_cur * self.attach_retx_backoff,
            self.attach_retx_max_timeout)
        self.nas_retransmissions += 1
        obs = self.obs()
        if obs is not None and obs.tracing and self._attach_span is not None:
            obs.tracer.instant(
                "nas.retransmit", self.name, self.sim.now,
                trace_id=self._attach_span.trace_id,
                parent_id=self._attach_span.span_id,
                category=self.obs_category,
                data={"attempt": self._attempts})
        self._resend()
        self._arm_timer()

    def _on_give_up(self) -> None:
        """Hook: reset state when an attach attempt is abandoned."""
        self.security = None
        self.ue_ip = None

    # -- AKA ----------------------------------------------------------------------
    def _on_auth_request(self, src_ip: str, request) -> None:
        if self.state != self.attaching_state:
            return  # stale challenge from an abandoned attempt
        if request.rand == self._last_auth_rand \
                and self._auth_response is not None:
            # Duplicate challenge (our response was lost): replaying the
            # stored response avoids re-running AKA, whose SQN check
            # would reject the repeated vector.
            self._resend_auth_response()
            return
        response = self.authenticate(request)
        if response is None:
            return
        self._last_auth_rand = request.rand
        self._auth_response = response
        self._resend_auth_response()
        self._supervise(self._resend_auth_response)

    def authenticate(self, request):
        """Run the RAT's AKA on a challenge: set ``security`` and return
        the response message, or call :meth:`_fail` and return None."""
        raise NotImplementedError

    def _resend_auth_response(self) -> None:
        response = self._auth_response
        if response is not None:
            self.uplink(response)

    # -- SMC (shared by baseline and CellBricks) -----------------------------------
    def _on_smc(self, src_ip: str, command) -> None:
        if self.state != self.attaching_state:
            return  # stale command from an abandoned attempt
        if self.security is None:
            # The key-agreement downlink (AKA challenge / SAP response)
            # was lost and the SMC overtook its retransmission: drop it.
            # Our own resend of the previous uplink makes the network
            # replay both legs, so the attach still converges.
            return
        expected = smc_mac(self.security.k_nas_int,
                           command.enc_alg, command.int_alg)
        if command.mac != expected:
            self._fail("SMC MAC verification failed")
            return
        self._send_smc_complete()
        self._supervise(self._send_smc_complete)

    def _send_smc_complete(self) -> None:
        if self.security is None:
            return
        self.uplink(self.smc_complete_type(
            mac=smc_mac(self.security.k_nas_int, 0xFF, 0xFF)))

    # -- completion -------------------------------------------------------------------
    def _on_accept(self, src_ip: str, accept) -> None:
        if self.state == self.attached_state:
            # Duplicate accept: our completion was lost — re-send it
            # without re-firing the completion hook.
            self.send_attach_complete()
            return
        if self.state != self.attaching_state:
            return  # stale accept from an abandoned attempt
        self._stop_supervision()
        self._accepted(accept)
        self.state = self.attached_state
        self.send_attach_complete()
        latency = self.sim.now - self.attach_started_at
        self._obs_end_attach("ok", latency)
        self._deliver(True, latency)

    def _accepted(self, accept) -> None:
        """Hook: absorb what the accept carries."""

    def send_attach_complete(self) -> None:
        raise NotImplementedError

    def _deliver(self, success: bool, latency: float,
                 cause: Optional[str] = None) -> None:
        """Hand the attempt's outcome to the caller's callbacks."""
        raise NotImplementedError

    def _on_reject(self, src_ip: str, reject) -> None:
        if self.state != self.attaching_state:
            return  # stale reject (e.g. we already timed out and moved on)
        if getattr(reject, "retryable", False) \
                and self._reject_retries < self.reject_max_retries:
            # Transient broker-side denial (degraded shard mid-failover):
            # back off and re-attach with a fresh nonce instead of
            # treating it as a terminal reject.
            self._reject_retries += 1
            self.retryable_rejects += 1
            self._stop_supervision()
            self._on_give_up()
            delay = self.reject_backoff * (
                self.reject_backoff_factor ** (self._reject_retries - 1))
            delay *= 1.0 + self.attach_retx_jitter \
                * (2.0 * self._retx_rng.random() - 1.0)
            self._obs_degraded_retry(reject, delay)
            self.sim.schedule(delay, self._retry_after_reject)
            return
        self._fail(getattr(reject, "cause", "rejected"))

    def _retry_after_reject(self) -> None:
        if self.state != self.attaching_state:
            return  # detached or abandoned while backing off
        self._send_initial_request()

    def _fail(self, cause: str) -> None:
        self._stop_supervision()
        self.state = "REJECTED"
        latency = (self.sim.now - self.attach_started_at
                   if self.attach_started_at is not None else 0.0)
        self._obs_end_attach("error", latency)
        self._deliver(False, latency, cause)


class UeNas(AttachSupervisor):
    """Baseline UE: EPS-AKA + SMC + attach, via the eNodeB."""

    processing_costs = {
        AuthenticationRequest: UE_COSTS[AuthenticationRequest],
        SecurityModeCommand: UE_COSTS[SecurityModeCommand],
        AttachAccept: UE_COSTS[AttachAccept],
        # Protected envelopes post-SMC carry the accept/detach messages;
        # charged like an accept (deciphering included).
        ProtectedNas: UE_COSTS[AttachAccept],
    }
    _SPAN_NAMES = {
        AuthenticationRequest: "nas.ue_auth",
        SecurityModeCommand: "nas.ue_smc",
        AttachAccept: "nas.ue_attach_accept",
        ProtectedNas: "nas.ue_protected",
    }

    def __init__(self, host: Host, enb_ip: str, imsi: Imsi | str,
                 usim: UsimState, serving_network: str,
                 name: str = "ue-nas"):
        super().__init__(host, name)
        self.enb_ip = enb_ip
        self.imsi = str(imsi)
        self.usim = usim
        self.serving_network = serving_network
        self.on_detached: Optional[Callable[[], None]] = None

        self.on(AuthenticationRequest, self._on_auth_request)
        self.on(SecurityModeCommand, self._on_smc)
        self.on(AttachAccept, self._on_accept)
        self.on(AttachReject, self._on_reject)
        self.on(AuthenticationReject, self._on_reject)
        self.on(DetachAccept, self._on_detach_accept)
        self.on(DetachRequest, self._on_network_detach)
        self.on(ProtectedNas, self._on_protected)

    @property
    def ran_ip(self) -> str:
        return self.enb_ip

    def retarget(self, enb_ip: str, serving_network: str) -> None:
        """Point the UE at a different eNodeB (host-driven mobility)."""
        self.enb_ip = enb_ip
        self.serving_network = serving_network

    def craft_cost(self) -> float:
        return UE_COSTS["craft_attach_request"]

    def initial_request(self):
        return AttachRequest(imsi=self.imsi)

    def authenticate(self, request: AuthenticationRequest):
        try:
            res, kasme = usim_authenticate(
                self.usim, request.rand, request.autn, self.serving_network)
        except AkaError as exc:
            self._fail(f"network authentication failed: {exc}")
            return None
        self.security = SecurityContext(kasme=kasme)
        return AuthenticationResponse(res=res)

    def _accepted(self, accept: AttachAccept) -> None:
        self.ue_ip = accept.ue_ip

    def send_attach_complete(self) -> None:
        # Freshly protected on every (re)send.
        self.send_protected(AttachComplete())

    def _deliver(self, success: bool, latency: float,
                 cause: Optional[str] = None) -> None:
        if self.on_attach_done is not None:
            self.on_attach_done(AttachResult(
                success=success, ue_ip=self.ue_ip if success else None,
                latency=latency, cause=cause))

    # -- protected transport ---------------------------------------------------------
    def _on_protected(self, src_ip: str, envelope: ProtectedNas) -> None:
        """Open a post-SMC envelope and dispatch the inner message."""
        if self.security is None:
            return
        try:
            inner = unprotect_nas(self.security, envelope, downlink=True)
        except SecurityError:
            return  # tampered/replayed: drop silently
        handler = self._handlers.get(type(inner))
        if handler is not None:
            handler(src_ip, inner)

    def send_protected(self, nas) -> None:
        """Send an uplink NAS message, protected when keys exist."""
        if self.security is not None:
            nas = protect_nas(self.security, nas, downlink=False)
        self.uplink(nas)

    # -- detach ------------------------------------------------------------------------
    def detach(self) -> None:
        if self.state != "ATTACHED":
            raise RuntimeError(f"detach() in state {self.state}")
        self.state = "DETACHING"
        self.send_protected(DetachRequest())

    def detach_and_forget(self) -> None:
        """Switch-off style detach (TS 24.301): tell the network we are
        leaving and deregister locally without waiting for an accept —
        what a CellBricks UE does the instant it decides to move."""
        if self.state == "ATTACHED":
            self.send_protected(DetachRequest(switch_off=True))
        self.state = "DEREGISTERED"
        self.ue_ip = None
        self.security = None

    def _on_detach_accept(self, src_ip: str, accept: DetachAccept) -> None:
        if self.state != "DETACHING":
            return
        self.state = "DEREGISTERED"
        self.ue_ip = None
        self.security = None
        if self.on_detached is not None:
            self.on_detached()

    def _on_network_detach(self, src_ip: str,
                           request: DetachRequest) -> None:
        """Network-initiated detach (e.g. the SAP authorization expired)."""
        if self.state != "ATTACHED" or src_ip != self.enb_ip:
            return  # not attached, or a stale network we already left
        self.send_protected(DetachAccept())
        self.state = "DEREGISTERED"
        self.ue_ip = None
        self.security = None
        if self.on_detached is not None:
            self.on_detached()
