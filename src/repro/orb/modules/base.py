"""QoS module base class and the module wire envelope.

A module participates in two planes:

- **control plane**: a *static* interface (exposed locally as a pseudo
  object — loading, introspection, statistics) and a *dynamic*
  interface (module-specific operations driven through the DII by
  tagged commands, Figure 3).
- **data plane**: service requests assigned to the module pass through
  :meth:`QoSModule.send_request`; modules that transform the byte
  stream (compression, encryption) override :meth:`wrap` /
  :meth:`unwrap` and their peer module on the receiving ORB undoes the
  transformation.

Transformed messages travel inside an **envelope**::

    b"MQOS" | string module-name | any params | octets payload

so the receiving ORB knows which module must unwrap before GIOP
decoding — the on-the-wire realisation of the paper's module hierarchy.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.orb import giop
from repro.orb.cdr import CDRDecoder, CDREncoder
from repro.orb.dii import PseudoObject
from repro.orb.exceptions import BAD_OPERATION, MARSHAL
from repro.orb.ior import IOR
from repro.orb.request import Request
from repro.perf.counters import COUNTERS

ENVELOPE_MAGIC = b"MQOS"


def encode_envelope(module_name: str, params: Dict[str, Any], payload: bytes) -> bytes:
    """Wrap a transformed message body for the wire."""
    encoder = CDREncoder()
    encoder.write_raw(ENVELOPE_MAGIC)
    encoder.write_string(module_name)
    encoder.write_any(params)
    encoder.write_octets(payload)
    return encoder.getvalue()


def decode_envelope(data: bytes) -> Tuple[str, Dict[str, Any], bytes]:
    """Split an envelope into (module name, params, payload)."""
    decoder = CDRDecoder(data)
    magic = decoder.read_raw(4)
    if magic != ENVELOPE_MAGIC:
        raise MARSHAL(f"not a module envelope: {magic!r}")
    module_name = decoder.read_string()
    params = decoder.read_any()
    if not isinstance(params, dict):
        raise MARSHAL("envelope params must decode to a map")
    payload = decoder.read_octets()
    return module_name, params, payload


def envelope_str(params: Dict[str, Any], name: str, default: str) -> str:
    """The string envelope param ``name``; ``MARSHAL`` if the peer sent another type."""
    value = params.get(name, default)
    if type(value) is not str:
        raise MARSHAL(
            f"envelope param {name!r} must be a string, not {type(value).__name__}"
        )
    return value


def is_envelope(data: bytes) -> bool:
    """Does this wire message carry a module envelope?"""
    return data[:4] == ENVELOPE_MAGIC


def binding_key(ior: IOR) -> str:
    """Canonical key naming one client/server relationship."""
    return ior.binding_key()


class QoSModule:
    """Base class of all QoS transport modules."""

    #: Registry name; subclasses must override.
    name = ""
    #: Human description shown by the static interface.
    description = ""
    #: Whether the data path uses the wire envelope (byte transforms).
    uses_envelope = False

    #: Names of operations reachable through the dynamic interface
    #: (module commands).  Each must be a public method on the module.
    dynamic_ops: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.transport: Optional[Any] = None
        self.requests_sent = 0
        self.requests_served = 0
        self.commands_handled = 0
        #: Per-binding configuration set through the dynamic interface.
        self._binding_config: Dict[str, Dict[str, Any]] = {}

    # -- lifecycle (the common static interface) -------------------------

    def on_load(self, transport: Any) -> None:
        """Called by the QoS transport when the module is loaded."""
        self.transport = transport

    def on_unload(self) -> None:
        """Called before the module is discarded."""
        self.transport = None

    @property
    def orb(self) -> Any:
        if self.transport is None:
            raise RuntimeError(f"module {self.name!r} is not loaded")
        return self.transport.orb

    def pseudo_object(self) -> PseudoObject:
        """The static interface, locally accessible like any object."""
        return PseudoObject(
            f"QoSModule:{self.name}",
            {
                "name": lambda: self.name,
                "description": lambda: self.description,
                "dynamic_ops": lambda: sorted(self.dynamic_ops),
                "statistics": self.statistics,
            },
        )

    def statistics(self) -> Dict[str, int]:
        return {
            "requests_sent": self.requests_sent,
            "requests_served": self.requests_served,
            "commands_handled": self.commands_handled,
        }

    # -- binding configuration -------------------------------------------

    def configure_binding(self, binding: str, **settings: Any) -> Dict[str, Any]:
        """Merge settings for one client/server relationship."""
        config = self._binding_config.setdefault(binding, {})
        config.update(settings)
        return dict(config)

    def binding_config(self, binding: str) -> Dict[str, Any]:
        return dict(self._binding_config.get(binding, {}))

    # -- control plane ------------------------------------------------------

    def handle_command(self, request: Request) -> Any:
        """Dispatch a module command to its dynamic interface."""
        if request.operation not in self.dynamic_ops:
            raise BAD_OPERATION(
                f"module {self.name!r} has no dynamic operation "
                f"{request.operation!r}; offers {sorted(self.dynamic_ops)}"
            )
        method = getattr(self, request.operation)
        self.commands_handled += 1
        return method(*request.args)

    # -- data plane -----------------------------------------------------------

    @property
    def supports_pipelining(self) -> bool:
        """Can the AMI pipeline carry this module's requests?

        True for every module riding the default point-to-point
        :meth:`send_request`; modules that replace it wholesale (group
        delivery) own their clock arithmetic, so deferred invocations
        through them fall back to the synchronous path.
        """
        return type(self).send_request is QoSModule.send_request

    def context_for(self, request: Request) -> Dict[str, Any]:
        """Transform parameters for this request's binding."""
        return self.binding_config(binding_key(request.target))

    def reservations_for(self, request: Request) -> Optional[Dict[int, float]]:
        """Per-link reserved rates for this request (None = best effort)."""
        return None

    def wrap(
        self, body: bytes, context: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], bytes, float]:
        """Transform an outgoing message body.

        Returns ``(params, payload, cpu_seconds)``.  ``params`` travel
        in the envelope so the peer can invert the transform.  The
        default routes through the burst primitives so subclasses only
        implement :meth:`_burst_prolog` / :meth:`_wrap_one` and get the
        single-message path for free — byte-identical either way.
        """
        return self._wrap_one(body, context, self._burst_prolog(context))

    def unwrap(self, params: Dict[str, Any], payload: bytes) -> Tuple[bytes, float]:
        """Invert :meth:`wrap`.  Returns ``(body, cpu_seconds)``."""
        return self._unwrap_one(params, payload, self._unwrap_prolog(params))

    # -- burst primitives -------------------------------------------------
    #
    # A burst amortises the per-message transform *setup* (codec/cipher
    # table lookups, session-key resolution) across a batch from the
    # same binding.  Only Python-level work is amortised: the simulated
    # CPU cost of a transform is linear in the bytes processed, so the
    # time model and the produced bytes are identical to N single
    # wrap()/unwrap() calls — tests assert this.

    def _burst_prolog(self, context: Dict[str, Any]) -> Any:
        """Resolve per-burst outgoing transform state once."""
        return None

    def _wrap_one(
        self, body: bytes, context: Dict[str, Any], state: Any
    ) -> Tuple[Dict[str, Any], bytes, float]:
        """Transform one body using prepared ``state``."""
        return {}, body, 0.0

    def wrap_burst(
        self, bodies: Sequence[bytes], context: Dict[str, Any]
    ) -> List[Tuple[Dict[str, Any], bytes, float]]:
        """Wrap a batch of bodies with one prolog; byte-identical."""
        state = self._burst_prolog(context)
        out = [self._wrap_one(body, context, state) for body in bodies]
        COUNTERS.module_bursts += 1
        COUNTERS.module_burst_messages += len(out)
        return out

    def _unwrap_prolog(self, params: Dict[str, Any]) -> Any:
        """Prepare shared inbound transform state (e.g. a memo cache)."""
        return None

    def _unwrap_one(
        self, params: Dict[str, Any], payload: bytes, state: Any
    ) -> Tuple[bytes, float]:
        """Invert one transform using prepared ``state``."""
        return payload, 0.0

    def unwrap_burst(
        self, items: Sequence[Tuple[Dict[str, Any], bytes]]
    ) -> List[Tuple[bytes, float]]:
        """Unwrap a batch of ``(params, payload)`` pairs with one prolog.

        The prolog state is seeded from the first item's params; items
        whose params differ (e.g. an incompressible message marked
        ``identity``) are still handled correctly because per-item
        resolution falls back through the shared memo state.
        """
        if not items:
            return []
        state = self._unwrap_prolog(items[0][0])
        out = [
            self._unwrap_one(params, payload, state) for params, payload in items
        ]
        COUNTERS.module_bursts += 1
        COUNTERS.module_burst_messages += len(out)
        return out

    def send_request(self, orb: Any, request: Request) -> giop.Reply:
        """Client-side data path: encode, transform, transmit, decode.

        The default implementation covers every point-to-point module;
        group modules (multicast) override it wholesale.  Oneway
        requests (``response_expected`` false) are fire-and-forget:
        the caller resumes once the message has left, the server
        processes it in its own (future) time, and no reply travels.
        """
        clock = orb.time_source
        depart = clock.now()
        wire = giop.encode_request(request, pools=getattr(orb, "pools", None))
        depart += orb.marshal_cost(len(wire))
        if self.uses_envelope:
            params, payload, cpu = self.wrap(wire, self.context_for(request))
            depart += cpu
            wire = encode_envelope(self.name, params, payload)
        if not request.response_expected:
            orb.one_way(request.target.profile.host, wire, depart)
            clock.wait_until(depart)
            self.requests_sent += 1
            return giop.Reply(request.request_id, {}, None, None)
        reply_wire, finish = orb.round_trip(
            request.target.profile.host,
            wire,
            depart,
            self.reservations_for(request),
        )
        if is_envelope(reply_wire):
            envelope_name, params, payload = decode_envelope(reply_wire)
            if envelope_name != self.name:
                raise MARSHAL(
                    f"reply wrapped by {envelope_name!r}, expected {self.name!r}"
                )
            reply_wire, cpu = self.unwrap(params, payload)
            finish += cpu
        finish += orb.marshal_cost(len(reply_wire))
        clock.wait_until(finish)
        self.requests_sent += 1
        return giop.decode_reply(reply_wire)

    def send_pipeline(self, orb: Any, requests: Sequence[Request]) -> List[giop.Reply]:
        """Client-side burst: issue several requests over one binding.

        Semantically identical to calling :meth:`send_request` once per
        request — same bytes on the wire, same simulated timing (tests
        assert both) — only the Python-level module prolog work
        (codec/cipher/key resolution) is shared across the batch.  All
        requests must ride the same binding; mixed/oneway batches fall
        back to the per-request path.
        """
        requests = list(requests)
        if not requests:
            return []
        if not self.uses_envelope or not all(
            r.response_expected for r in requests
        ):
            return [self.send_request(orb, request) for request in requests]
        clock = orb.time_source
        pools = getattr(orb, "pools", None)
        bodies = [giop.encode_request(r, pools=pools) for r in requests]
        wrapped = self.wrap_burst(bodies, self.context_for(requests[0]))
        reply_state: Any = None
        replies: List[giop.Reply] = []
        for request, body, (params, payload, cpu) in zip(requests, bodies, wrapped):
            depart = clock.now() + orb.marshal_cost(len(body)) + cpu
            wire = encode_envelope(self.name, params, payload)
            reply_wire, finish = orb.round_trip(
                request.target.profile.host,
                wire,
                depart,
                self.reservations_for(request),
            )
            if is_envelope(reply_wire):
                envelope_name, rparams, rpayload = decode_envelope(reply_wire)
                if envelope_name != self.name:
                    raise MARSHAL(
                        f"reply wrapped by {envelope_name!r}, "
                        f"expected {self.name!r}"
                    )
                if reply_state is None:
                    reply_state = self._unwrap_prolog(rparams)
                reply_wire, rcpu = self._unwrap_one(rparams, rpayload, reply_state)
                finish += rcpu
            finish += orb.marshal_cost(len(reply_wire))
            clock.wait_until(finish)
            self.requests_sent += 1
            replies.append(giop.decode_reply(reply_wire))
        return replies

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QoSModule {self.name!r}>"
