"""Outside-in span tracing for the traced benchmark run.

Nothing under ``src/`` knows about this module.
:meth:`SpanRecorder.install` wraps public boundary callables of the
simulator at class level (and every
by-name reference to a wrapped module function), so each call records a
span: name, wall-clock start and end, and the parent span taken from a
span stack.  Spans live in flat ``array`` columns (21 bytes each) and are
written out when the run ends.

Four hooks carry the attribution below the named boundaries, each keyed
by the module that defines the callback:

* ``Simulator.schedule_at`` hands the queue a trampoline, so every event
  callback runs inside a ``<layer>.event`` span;
* ``Timer(sim, callback)`` wraps its callback as ``<layer>.timer``;
* ``TickCalendar(sim, tick, dispatch)`` wraps dispatch as
  ``<layer>.tick_action``;
* ``SignalingNode.on(type, handler)`` wraps the handler as
  ``<layer>.handler``.

A layer's self time is the sum over its spans of duration minus the part
covered by child spans.  Measured wall time that no root span covers is
reported as ``unattributed_s``: the measured region's work outside
``Simulator.run`` (the scenario driver's code before and after the run).
It is not a coverage check: inside ``Simulator.run`` every callback is
credited to the module that defines it, so work in an unwrapped function
lands in some layer's self time and wrapper cost in its caller's.

A boundary that no longer exists (renamed or removed by a refactor) is
listed as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

#: module prefix -> layer, most specific first.
LAYER_OF_MODULE = (
    ("repro.crypto", "crypto"),
    ("repro.net.sim", "net.sim"),
    ("repro.net.link", "net.link"),
    ("repro.net.node", "net.node"),
    ("repro.net.packet", "net.packet"),
    ("repro.net.tcp", "net.tcp"),
    ("repro.net.mptcp", "net.mptcp"),
    ("repro.net", "net.other"),
    ("repro.apps", "apps"),
    ("repro.lte.agw", "lte.agw"),
    ("repro.lte.ue", "lte.ue"),
    ("repro.lte.signaling", "lte.signaling"),
    ("repro.lte", "lte.other"),
    ("repro.fivegc.nf", "fivegc.amf"),
    ("repro.fivegc.ue5g", "fivegc.ue"),
    ("repro.fivegc", "fivegc.other"),
    ("repro.core.sap", "core.sap"),
    ("repro.core.broker", "core.broker"),
    ("repro.core.btelco", "core.btelco"),
    ("repro.core.btelco5g", "core.btelco"),
    ("repro.core.shardhost", "core.shardhost"),
    ("repro.core", "core.other"),
    ("repro.testbed.megaload", "testbed.megaload"),
    ("repro.testbed", "testbed.other"),
    ("repro.obs", "obs"),
    ("repro.emulation", "emulation"),
)

#: every layer, in report order.
LAYERS = tuple(dict.fromkeys(
    [layer for _, layer in LAYER_OF_MODULE] + ["other"]))

#: (span name, module, attribute) — plain boundaries, timed as called.
BOUNDARIES = (
    ("crypto.keygen", "repro.crypto.rsa", "generate_keypair"),
    ("crypto.sign", "repro.crypto.rsa", "PrivateKey.sign"),
    ("crypto.decrypt", "repro.crypto.rsa", "PrivateKey.decrypt"),
    ("crypto.verify", "repro.crypto.rsa", "PublicKey.verify"),
    ("crypto.encrypt", "repro.crypto.rsa", "PublicKey.encrypt"),
    ("crypto.seal", "repro.crypto.cipher", "seal"),
    ("crypto.open_sealed", "repro.crypto.cipher", "open_sealed"),
    ("net.sim.wake", "repro.net.sim", "TickCalendar.wake"),
    ("net.link.send", "repro.net.link", "SimplexLink.send"),
    ("net.node.receive", "repro.net.node", "Node.receive"),
    ("net.node.receive", "repro.net.node", "Host.receive"),
    ("net.node.receive", "repro.net.node", "Router.receive"),
    ("net.node.send_packet", "repro.net.node", "Host.send_packet"),
    ("net.node.send_packet", "repro.net.node", "Router.send_packet"),
    ("net.node.udp_send", "repro.net.node", "UdpSocket.send_to"),
    ("net.packet.copy", "repro.net.packet", "Packet.copy_for_forwarding"),
    ("net.tcp.handle_packet", "repro.net.tcp",
     "TcpConnection.handle_packet"),
    ("net.tcp.handle_packet", "repro.net.tcp", "TcpListener.handle_packet"),
    ("net.tcp.send", "repro.net.tcp", "TcpConnection.send"),
    ("net.mptcp.send", "repro.net.mptcp", "MptcpEndpoint.send"),
    ("net.mptcp.send", "repro.net.mptcp", "MptcpServerConnection.send"),
    ("net.mptcp.attach_subflow", "repro.net.mptcp",
     "MptcpServerConnection.attach_subflow"),
    ("apps.stream.send", "repro.apps.transport", "StreamPeer.send"),
    ("apps.stream.send", "repro.apps.transport", "StreamClient.send"),
    ("lte.signaling.send", "repro.lte.signaling", "SignalingNode.send"),
    ("lte.signaling.send_request", "repro.lte.signaling",
     "SignalingNode.send_request"),
    ("lte.agw.handle_extension_nas", "repro.lte.agw",
     "Agw.handle_extension_nas"),
    ("fivegc.amf.handle_extension_nas", "repro.fivegc.nf",
     "Amf.handle_extension_nas"),
    ("core.btelco.handle_extension_nas", "repro.core.btelco",
     "CellBricksAgw.handle_extension_nas"),
    ("core.btelco.handle_extension_nas", "repro.core.btelco5g",
     "CellBricksAmf.handle_extension_nas"),
    ("core.sap.prevalidate", "repro.core.sap", "BrokerSap.prevalidate"),
    ("core.sap.finish", "repro.core.sap", "BrokerSap.finish_request"),
    ("core.shardhost.auth", "repro.core.shardhost",
     "ShardFrontend.handle_auth"),
    ("obs.tracer.start_trace", "repro.obs.trace", "Tracer.start_trace"),
    ("obs.tracer.begin", "repro.obs.trace", "Tracer.begin"),
    ("obs.tracer.finish", "repro.obs.trace", "Tracer.finish"),
    ("obs.tracer.instant", "repro.obs.trace", "Tracer.instant"),
)

#: (hook, module, attribute) — boundaries with a custom wrapper below.
HOOKS = (
    ("run", "repro.net.sim", "Simulator.run"),
    ("schedule_at", "repro.net.sim", "Simulator.schedule_at"),
    ("timer", "repro.net.sim", "Timer.__init__"),
    ("calendar", "repro.net.sim", "TickCalendar.__init__"),
    ("handler", "repro.lte.signaling", "SignalingNode.on"),
    ("register", "repro.net.sim", "Simulator.__init__"),
    ("register", "repro.net.link", "SimplexLink.__init__"),
    ("register", "repro.net.tcp", "TcpConnection.__init__"),
    ("register", "repro.lte.signaling", "SignalingNode.__init__"),
)


def layer_of(module: str) -> str:
    """The layer a module belongs to (``other`` outside the map)."""
    for prefix, layer in LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _callback_module(callback) -> str:
    module = getattr(callback, "__module__", None)
    if module is None:  # functools.partial and similar
        module = getattr(getattr(callback, "func", None), "__module__", None)
    return module or ""


class SpanRecorder:
    """Flat span columns plus the wrappers that fill them."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        #: instances created since the last :meth:`take_registry`.
        self.registry: dict[str, list] = {}
        #: sum of ``Simulator.run`` return values since the last take.
        self.events_processed = 0
        self.missing: list[str] = []
        self._cb_ids: dict[tuple, int] = {}

    # -- ids ---------------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def callback_id(self, callback, kind: str) -> int:
        module = _callback_module(callback)
        key = (module, kind)
        nid = self._cb_ids.get(key)
        if nid is None:
            layer = layer_of(module)
            nid = self._cb_ids[key] = self.name_id(f"{layer}.{kind}", layer)
        return nid

    # -- wrappers ----------------------------------------------------------
    def wrap(self, fn, nid: int):
        """``fn`` timed as span ``nid`` on every call."""
        span_name, start, end, parent = (self.span_name, self.start,
                                         self.end, self.parent)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__module__ = _callback_module(fn)
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def wrap_callback(self, callback, kind: str):
        return self.wrap(callback, self.callback_id(callback, kind))

    def take_registry(self) -> dict:
        registry, self.registry = self.registry, {}
        processed, self.events_processed = self.events_processed, 0
        registry["events_processed"] = processed
        return registry

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary and hook that still exists."""
        for name, module, attr in BOUNDARIES:
            target = _resolve(module, attr)
            if target is None:
                self.missing.append(f"{module}:{attr}")
                continue
            owner, key, fn = target
            wrapped = self.wrap(fn, self.name_id(name, layer_of(module)))
            _replace(owner, key, fn, wrapped)
        for hook, module, attr in HOOKS:
            target = _resolve(module, attr)
            if target is None:
                self.missing.append(f"{module}:{attr}")
                continue
            owner, key, fn = target
            setattr(owner, key, getattr(self, f"_hook_{hook}")(fn, owner))

    def _hook_run(self, fn, owner):
        traced = self.wrap(fn, self.name_id("net.sim.run", "net.sim"))

        def run(sim, *args, **kwargs):
            processed = traced(sim, *args, **kwargs)
            self.events_processed += processed
            return processed
        return run

    def _hook_schedule_at(self, fn, owner):
        traced = self.wrap(fn, self.name_id("net.sim.schedule", "net.sim"))
        wrap_callback = self.wrap_callback

        def schedule_at(sim, when, callback, *args):
            return traced(sim, when, wrap_callback(callback, "event"), *args)
        return schedule_at

    def _hook_timer(self, fn, owner):
        wrap_callback = self.wrap_callback

        def __init__(timer, sim, callback, *args, **kwargs):
            fn(timer, sim, wrap_callback(callback, "timer"), *args, **kwargs)
        return __init__

    def _hook_calendar(self, fn, owner):
        wrap_callback = self.wrap_callback

        def __init__(calendar, sim, tick, dispatch, *args, **kwargs):
            fn(calendar, sim, tick, wrap_callback(dispatch, "tick_action"),
               *args, **kwargs)
        return __init__

    def _hook_handler(self, fn, owner):
        wrap_callback = self.wrap_callback

        def on(node, message_type, handler, *args, **kwargs):
            return fn(node, message_type, wrap_callback(handler, "handler"),
                      *args, **kwargs)
        return on

    def _hook_register(self, fn, owner):
        kind = owner.__name__

        def __init__(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            self.registry.setdefault(kind, []).append(obj)
        return __init__

    # -- folding -------------------------------------------------------------
    def fold(self, lo: int, hi: int) -> dict:
        """Per-span-name ``[count, self seconds]`` over spans ``[lo, hi)``
        plus ``covered_s``, the wall time under root spans."""
        start, end, parent, span_name = (self.start, self.end, self.parent,
                                         self.span_name)
        child = [0.0] * (hi - lo)
        covered = 0.0
        for i in range(lo, hi):
            duration = end[i] - start[i]
            p = parent[i]
            if p >= lo:
                child[p - lo] += duration
            else:
                covered += duration
        per_name: dict[str, list] = {}
        names = self.names
        for i in range(lo, hi):
            entry = per_name.get(names[span_name[i]])
            if entry is None:
                entry = per_name[names[span_name[i]]] = [0, 0.0]
            entry[0] += 1
            entry[1] += end[i] - start[i] - child[i - lo]
        return {"spans": per_name, "covered_s": covered}

    def write(self, path_prefix: str, run_id: str, windows: list) -> None:
        """Write the span columns (``.bin``) and their index (``.json``)."""
        with open(path_prefix + ".bin", "wb") as out:
            for column in (self.span_name, self.parent, self.start,
                           self.end):
                column.tofile(out)
        index = {"run_id": run_id, "spans": len(self.span_name),
                 "columns": [["span_name", "H"], ["parent", "i"],
                             ["start", "d"], ["end", "d"]],
                 "byteorder": sys.byteorder, "names": self.names,
                 "layers": self.layers, "windows": windows,
                 "missing": self.missing}
        with open(path_prefix + ".json", "w") as out:
            json.dump(index, out)


def _resolve(module: str, attr: str):
    """``(owner, key, function)`` for ``module:attr``, or None when the
    module, class or attribute is gone.  Methods are taken from the class
    that defines them, never inherited."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    if "." not in attr:
        fn = getattr(mod, attr, None)
        return (mod, attr, fn) if callable(fn) else None
    cls_name, key = attr.split(".", 1)
    cls = getattr(mod, cls_name, None)
    fn = vars(cls).get(key) if isinstance(cls, type) else None
    return (cls, key, fn) if callable(fn) else None


def _replace(owner, key, fn, wrapped) -> None:
    """Install ``wrapped``; a module function is also swapped in every
    loaded ``repro`` module that imported it by name."""
    setattr(owner, key, wrapped)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapped)
