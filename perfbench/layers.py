"""The layers of the Figure 3 invocation path and their per-layer metrics.

:func:`install` wraps each layer's public entry point with a
:class:`~perfbench.tracing.Tracer` span; :class:`Probes` collects what the
wrappers observe (bytes, simulated delays, scheduler grants).  After a
traced phase, :func:`per_layer_metrics` turns spans, probes and the
program's own counters into the ``per_layer`` metrics of
``BENCHMARK.json``.

Metric conventions:

- ``<layer>.self_us``: the layer's self time per benchmark call (per
  simulated request on ``overload-open``).  These, plus the benchmark
  call's own unattributed time, add up to the traced call time.
- ``<entry point>_us``: self time per invocation of that entry point
  (per message, per admit, per flowlet, ...).
- counts are per round: one pass over the workload's input sequence.
- layers a workload does not exercise report 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List

from perfbench.inputs import percentile
from perfbench.tracing import Tracer

#: Per-layer metrics, in output order: name -> unit.
PER_LAYER: Dict[str, str] = {
    "stub.self_us": "us",
    "mediator.self_us": "us",
    "reliability.self_us": "us",
    "reliability.retries_per_call": "count",
    "orb.invoke_self_us": "us",
    "transport.self_us": "us",
    "codecs.compress_us": "us",
    "codecs.decompress_us": "us",
    "codecs.bytes_ratio": "ratio",
    "ciphers.us_per_kib": "us",
    "module.wrap_us": "us",
    "module.unwrap_us": "us",
    "module.envelope_us": "us",
    "module.envelope_bytes": "bytes",
    "giop.encode_request_us": "us",
    "giop.decode_request_us": "us",
    "giop.encode_reply_us": "us",
    "giop.decode_reply_us": "us",
    "giop.bytes_per_msg": "bytes",
    "giop.span_hit_ratio": "ratio",
    "giop.ctx_hit_ratio": "ratio",
    "network.send_us": "us",
    "network.wire_sim_us": "us",
    "network.legs_failed": "count",
    "orb.handle_incoming_self_us": "us",
    "poa.dispatch_self_us": "us",
    "servant.self_us": "us",
    "skeleton.self_us": "us",
    "skeleton.prolog_us": "us",
    "skeleton.epilog_us": "us",
    "sched.admit_us": "us",
    "sched.wait_sim_ms_p50": "ms",
    "sched.wait_sim_ms_p99": "ms",
    "sched.service_sim_ms": "ms",
    "sched.shed_ratio": "ratio",
    "sched.depth_peak": "count",
    "kernel.events_fired": "count",
    "kernel.pending_peak": "count",
    "kernel.us_per_event": "us",
    "fluid.us_per_flowlet": "us",
    "scenario.self_us": "us",
    "scenario.build_s": "s",
    "flowexport.add_us": "us",
    "rt.client_self_us": "us",
    "rt.client_encode_us": "us",
    "rt.client_decode_us": "us",
    "rt.socket_wait_us": "us",
    "rt.server_handle_us": "us",
    "trace.unattributed_us": "us",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Root span name of one benchmark call.
CALL = "call"


class Probes:
    """What the wrappers observe at the layer boundaries."""

    def __init__(self) -> None:
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.peaks: Dict[str, int] = defaultdict(int)

    def add(self, name: str, value: float) -> None:
        self.values[name].append(value)

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value

    # -- observers (args, result, failed) -----------------------------

    def wire_bytes(self, name: str):
        def observe(args: tuple, result: Any, failed: bool) -> None:
            if not failed:
                self.add(name, len(result))

        return observe

    def send(self, args: tuple, result: Any, failed: bool) -> None:
        if not failed:
            self.add("network.delay", result)

    def admit(self, args: tuple, result: Any, failed: bool) -> None:
        scheduler, _request, now = args[0], args[1], args[2]
        self.peak("sched.depth", scheduler.depth_peak)
        if not failed:
            self.add("sched.wait", result.start - now)
            self.add("sched.service", result.completion - result.start)

    def run_until(self, args: tuple, result: Any, failed: bool) -> None:
        kernel = args[0]
        self.peak("kernel.live", kernel.live_peak)
        if not failed:
            self.add("kernel.fired", result)

    def codec(self, name: str):
        def observe(args: tuple, result: Any, failed: bool) -> None:
            if not failed:
                self.add(name + ".in", len(args[0]))
                self.add(name + ".out", len(result))

        return observe

    def cipher(self, args: tuple, result: Any, failed: bool) -> None:
        if not failed:
            self.add("ciphers.bytes", len(args[1]))


def install(tracer: Tracer, probes: Probes) -> None:
    """Wrap every layer entry point of the Figure 3 path."""
    from repro import ciphers, codecs
    from repro.core import mediator, qos_skeleton
    from repro.netsim import kernel, network
    from repro.netsim.fluid import tier
    from repro.orb import giop, orb, poa, servant, skeleton, stub
    from repro.orb.modules import base
    from repro.qos.compression import payload
    from repro.reliability import mediator as reliability
    from repro.rt import client, transport
    from repro.scenario import flowexport, runner
    from repro.sched import scheduler

    patch = tracer.patch
    patch(stub.Stub, "_call", "stub")
    patch(stub.Stub, "_invoke", "stub")
    patch(mediator.Mediator, "invoke", "mediator")
    patch(mediator.MediatorChain, "invoke", "mediator")
    patch(reliability.ReliabilityMediator, "invoke", "reliability")
    patch(orb.ORB, "invoke", "orb.invoke")
    patch(base.QoSModule, "send_request", "transport")
    patch(base.QoSModule, "wrap", "module.wrap")
    patch(base.QoSModule, "unwrap", "module.unwrap")
    # The envelope helpers are imported by name into the ORB and the rt
    # client as well; each binding is a separate entry point.
    envelope_bytes = probes.wire_bytes("module.envelope_bytes")
    for owner in (base, orb, client):
        patch(owner, "encode_envelope", "module.envelope", envelope_bytes)
        patch(owner, "decode_envelope", "module.envelope")
    message_bytes = probes.wire_bytes("giop.bytes")
    patch(giop, "encode_request", "giop.encode_request", message_bytes)
    patch(giop, "decode_request", "giop.decode_request")
    patch(giop, "encode_reply", "giop.encode_reply", message_bytes)
    patch(giop, "decode_reply", "giop.decode_reply")
    patch(transport.NetsimTransport, "round_trip", "transport")
    patch(network.Network, "send", "network.send", probes.send)
    patch(orb.ORB, "handle_incoming", "orb.handle_incoming")
    patch(poa.POA, "dispatch", "poa.dispatch")
    patch(scheduler.RequestScheduler, "admit", "sched.admit", probes.admit)
    patch(qos_skeleton.QoSServerMixin, "_dispatch", "skeleton")
    for owner in (qos_skeleton.QoSImplementation, payload.CompressionImpl):
        patch(owner, "prolog", "skeleton.prolog")
        patch(owner, "epilog", "skeleton.epilog")
    patch(servant.Servant, "_dispatch", "servant")
    patch(skeleton.TypedSkeleton, "_dispatch", "servant")
    patch(kernel.EventKernel, "run_until", "kernel.run_until", probes.run_until)
    patch(tier.FluidFlowExecutor, "start", "fluid.start")
    patch(flowexport.FlowExporter, "add", "flowexport.add")
    patch(runner, "build_deployment", "scenario.build")
    patch(runner, "run_scenario", "scenario")
    patch(client.RtClient, "invoke", "rt.client")
    patch(client.RtClient, "invoke_window", "rt.client_window")
    patch(transport.RtConnection, "round_trip", "rt.socket")
    patch(transport.RtConnection, "round_trip_many", "rt.socket_window")
    # Codecs and ciphers are looked up by name in registries at call time.
    for name, (compress, decompress) in list(codecs.CODECS.items()):
        tracer.patch_item(
            codecs.CODECS,
            name,
            (
                tracer.wrap("codecs.compress", compress, probes.codec("codecs.compress")),
                tracer.wrap("codecs.decompress", decompress),
            ),
        )
    for name, (encrypt, decrypt) in list(ciphers.CIPHERS.items()):
        tracer.patch_item(
            ciphers.CIPHERS,
            name,
            (
                tracer.wrap("ciphers", encrypt, probes.cipher),
                tracer.wrap("ciphers", decrypt, probes.cipher),
            ),
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    totals: Dict[str, Dict[str, int]],
    probes: Probes,
    counters: Dict[str, float],
    calls: int,
    rounds: int,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except the run-level ones.

    ``totals`` are the :func:`~perfbench.tracing.layer_totals` of the
    traced rounds' spans, ``counters`` the program's own counters summed
    over those rounds, and ``calls`` the benchmark calls (simulated
    requests on the open loop) they made.
    """

    def self_ns(name: str) -> int:
        return totals.get(name, {}).get("self_ns", 0)

    def count(name: str) -> int:
        return totals.get(name, {}).get("count", 0)

    def per_call(name: str) -> float:
        return _ratio(self_ns(name) / 1e3, calls)

    def per_span(name: str) -> float:
        return _ratio(self_ns(name) / 1e3, count(name))

    values = probes.values
    metrics: Dict[str, float] = {
        "stub.self_us": per_call("stub"),
        "mediator.self_us": per_call("mediator"),
        "reliability.self_us": per_call("reliability"),
        "reliability.retries_per_call": _ratio(counters.get("rel_retries", 0), calls),
        "orb.invoke_self_us": per_call("orb.invoke"),
        "transport.self_us": per_call("transport"),
        "codecs.compress_us": per_span("codecs.compress"),
        "codecs.decompress_us": per_span("codecs.decompress"),
        "codecs.bytes_ratio": _ratio(
            sum(values["codecs.compress.out"]), sum(values["codecs.compress.in"])
        ),
        "ciphers.us_per_kib": _ratio(
            self_ns("ciphers") / 1e3, sum(values["ciphers.bytes"]) / 1024
        ),
        "module.wrap_us": per_span("module.wrap"),
        "module.unwrap_us": per_span("module.unwrap"),
        "module.envelope_us": per_span("module.envelope"),
        "module.envelope_bytes": _mean(values["module.envelope_bytes"]),
        "giop.encode_request_us": per_span("giop.encode_request"),
        "giop.decode_request_us": per_span("giop.decode_request"),
        "giop.encode_reply_us": per_span("giop.encode_reply"),
        "giop.decode_reply_us": per_span("giop.decode_reply"),
        "giop.bytes_per_msg": _mean(values["giop.bytes"]),
        "giop.span_hit_ratio": _ratio(
            counters.get("any_span_hits", 0),
            counters.get("any_span_hits", 0) + counters.get("any_span_misses", 0),
        ),
        "giop.ctx_hit_ratio": _ratio(
            counters.get("ctx_cache_hits", 0),
            counters.get("ctx_cache_hits", 0) + counters.get("ctx_cache_misses", 0),
        ),
        "network.send_us": per_span("network.send"),
        "network.wire_sim_us": _mean(values["network.delay"]) * 1e6,
        "network.legs_failed": _ratio(
            totals.get("network.send", {}).get("failed", 0), rounds
        ),
        "orb.handle_incoming_self_us": per_call("orb.handle_incoming"),
        "poa.dispatch_self_us": per_call("poa.dispatch"),
        "servant.self_us": per_call("servant"),
        "skeleton.self_us": per_call("skeleton"),
        "skeleton.prolog_us": per_span("skeleton.prolog"),
        "skeleton.epilog_us": per_span("skeleton.epilog"),
        "sched.admit_us": per_span("sched.admit"),
        "sched.wait_sim_ms_p50": _pct(values["sched.wait"], 50) * 1e3,
        "sched.wait_sim_ms_p99": _pct(values["sched.wait"], 99) * 1e3,
        "sched.service_sim_ms": _mean(values["sched.service"]) * 1e3,
        "sched.shed_ratio": _ratio(
            totals.get("sched.admit", {}).get("failed", 0), count("sched.admit")
        ),
        "sched.depth_peak": float(probes.peaks.get("sched.depth", 0)),
        "kernel.events_fired": _ratio(sum(values["kernel.fired"]), rounds),
        "kernel.pending_peak": float(probes.peaks.get("kernel.live", 0)),
        "kernel.us_per_event": _ratio(
            totals.get("kernel.run_until", {}).get("total_ns", 0) / 1e3,
            sum(values["kernel.fired"]),
        ),
        "fluid.us_per_flowlet": per_span("fluid.start"),
        "scenario.self_us": per_call("scenario"),
        "scenario.build_s": _ratio(
            totals.get("scenario.build", {}).get("total_ns", 0) / 1e9,
            count("scenario.build"),
        ),
        "flowexport.add_us": per_span("flowexport.add"),
        "rt.client_self_us": per_call("rt.client"),
        "rt.client_encode_us": 0.0,
        "rt.client_decode_us": 0.0,
        "rt.socket_wait_us": per_span("rt.socket"),
    }
    if count("rt.client"):
        metrics["rt.client_encode_us"] = metrics["giop.encode_request_us"]
        metrics["rt.client_decode_us"] = metrics["giop.decode_reply_us"]
    root_total = totals.get(CALL, {}).get("total_ns", 0)
    root_self = self_ns(CALL)
    attributed = sum(
        entry["self_ns"] for name, entry in totals.items() if name != CALL
    )
    metrics["trace.unattributed_us"] = _ratio(root_self / 1e3, calls)
    metrics["trace.coverage"] = _ratio(attributed, root_total)
    return metrics


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _pct(values: List[float], q: float) -> float:
    return percentile(sorted(values), q) if values else 0.0
