"""The four benchmark workloads.

Each workload generates its inputs from the seed when constructed, then
runs in *rounds*: :meth:`setup` stands up a fresh deployment (timed by
the caller as ``setup_s``), :meth:`run_round` pushes the whole input
sequence through it once and checks every output, :meth:`teardown`
releases it.  Because every round starts from the same state and input,
the counts a round produces are deterministic; the caller checks that
they repeat exactly.

- ``echo-zipf``: closed loop, one synchronous client, plain stub over a
  2-host netsim LAN to an echo servant; Zipf-popular varied payloads.
- ``qos-stack``: closed loop through the composed MAQS path: mediator
  chain (reliability + compression), crypto module (arc4 after a DH
  exchange), WFQ scheduler, QoS skeleton prolog/epilog; 1% link loss.
- ``overload-open``: open loop in simulated time; ``run_scenario`` on a
  seeded flash crowd over a 3-replica WFQ group with a fluid background
  cohort and a crash wave.
- ``rt-loopback``: ``RtClient`` against an echo server in a separate
  process over loopback TCP; a synchronous phase, then pipelined windows.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional

from perfbench import inputs
from perfbench.servants import ECHO_KEY, ECHO_REPO_ID, EchoServant, EchoStub

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Round:
    """One pass over a workload's inputs."""

    #: Calls attempted (simulated requests offered on the open loop).
    calls: int = 0
    #: Calls that raised or returned a wrong value.
    failed: int = 0
    #: Per-call wall latencies (closed loops).
    latencies_ns: List[int] = field(default_factory=list)
    #: Workload-specific figures, by name (value, unit, sample count).
    figures: Dict[str, tuple] = field(default_factory=dict)
    #: Counts that must repeat exactly in every round.
    signature: Dict[str, Any] = field(default_factory=dict)
    #: The program's own counters read after the round.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Correctness problems found in this round.
    errors: List[str] = field(default_factory=list)
    #: Simulated outcome of an open-loop round (gold latencies, counts).
    outcome: Dict[str, Any] = field(default_factory=dict)


Caller = Callable[..., Any]


def _direct(fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


def _fresh_process_state() -> None:
    """Reset the process-global wire state a new process would start with."""
    from repro.orb import giop
    from repro.orb.request import reset_request_ids
    from repro.perf import COUNTERS

    giop.clear_caches()
    reset_request_ids()
    COUNTERS.reset()


def _counters() -> Dict[str, float]:
    from repro.perf import COUNTERS

    return {
        key: value
        for key, value in COUNTERS.snapshot().items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


class Workload:
    name = ""
    #: Whether the round outcome is deterministic (netsim workloads).
    deterministic = True
    #: Set-ups timed per round (the last one is used); ``setup_s`` is
    #: their median over the run.
    setups_per_round = 3
    #: Rounds a run measures at least, however long they take.
    min_rounds = 3

    def describe_inputs(self) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self, traced: bool) -> Any:
        raise NotImplementedError

    def run_round(self, deployment: Any, call: Optional[Caller]) -> Round:
        """One pass; ``call(fn, *args)`` marks a benchmark call when traced."""
        raise NotImplementedError

    def teardown(self, deployment: Any) -> None:
        pass

    def warmup(self) -> None:
        """One unreported round: imports, lazy tables, CPU caches."""
        deployment = self.setup(False)
        try:
            self.run_round(deployment, None)
        finally:
            self.teardown(deployment)


# -- echo-zipf -------------------------------------------------------------


class EchoZipf(Workload):
    name = "echo-zipf"
    round_calls = 3000
    setups_per_round = 20

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.corpus = inputs.zipf_corpus(seed, max(8, int(self.round_calls * scale)))
        self.values = self.corpus.calls()

    def describe_inputs(self) -> Dict[str, Any]:
        return self.corpus.describe()

    def setup(self, traced: bool) -> Any:
        from repro.orb import World

        world = World()
        world.lan(["client", "server"], latency=0.0005)
        ior = world.orb("server").poa.activate_object(EchoServant())
        return EchoStub(world.orb("client"), ior)

    def run_round(self, stub: Any, call: Optional[Caller]) -> Round:
        _fresh_process_state()
        values = self.values
        echo = stub.echo
        invoke = call or _direct
        clock = perf_counter_ns
        latencies: List[int] = []
        replies: List[Any] = []
        failed = 0
        start = clock()
        for value in values:
            began = clock()
            try:
                reply = invoke(echo, value)
            except Exception as error:  # counted, reported below
                reply = error
                failed += 1
            latencies.append(clock() - began)
            replies.append(reply)
        wall = clock() - start
        result = Round(calls=len(values), failed=failed)
        result.latencies_ns = latencies
        result.figures["calls_per_s"] = (len(values) / (wall / 1e9), "1/s", len(values))
        mismatched = sum(
            1 for value, reply in zip(values, replies) if not inputs.same(value, reply)
        )
        if mismatched:
            result.errors.append(f"{mismatched} echo replies differ from requests")
        result.counters = _counters()
        result.signature = _cache_signature(result.counters, failed)
        return result


def _cache_signature(counters: Dict[str, float], failed: int) -> Dict[str, Any]:
    return {
        "failed": failed,
        "any_span_hits": counters["any_span_hits"],
        "any_span_misses": counters["any_span_misses"],
        "ctx_cache_hits": counters["ctx_cache_hits"],
        "ctx_cache_misses": counters["ctx_cache_misses"],
    }


# -- qos-stack -------------------------------------------------------------

STORE_QIDL = """
interface Store provides Compression {
    idempotent void put(in string key, in string doc);
    idempotent string get(in string key);
};
"""

#: Seeded loss on the client-server link, applied once set-up is done.
QOS_LOSS_RATE = 0.01
#: Seed of the link's loss process and of the choice of keys to get.
#: It is the same for every workload seed: which calls are retried
#: decides the latency tail, and document sizes follow the call index,
#: so a fixed loss pattern keeps call_p99_us comparable across seeds
#: while the seed still changes every document.
QOS_PATTERN_SEED = 1
#: Simulated server work per Store call, so WFQ commits real service.
STORE_SERVICE_TIME = 0.0002


@dataclass
class QoSDeployment:
    world: Any
    stub: Any
    server_orb: Any
    client_module: Any
    link: Any


class QoSStack(Workload):
    name = "qos-stack"
    round_calls = 1200

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.stream = inputs.document_stream(seed, max(6, int(self.round_calls * scale)))

    def describe_inputs(self) -> Dict[str, Any]:
        return self.stream.describe()

    def setup(self, traced: bool) -> QoSDeployment:
        import repro.qos as qos
        from repro.ciphers.keyex import KeyExchange
        from repro.core.binding import QoSProvider, establish_qos
        from repro.core.mediator import MediatorChain
        from repro.core.negotiation import Range
        from repro.orb import World
        from repro.orb.modules.base import binding_key
        from repro.orb.request import command
        from repro.qos.compression.payload import CompressionImpl, CompressionMediator
        from repro.reliability import ReliabilityMediator, ReliabilityPolicy

        generated = qos.weave(STORE_QIDL)

        class StoreImpl(generated.StoreServerBase):
            _default_service_time = STORE_SERVICE_TIME

            def __init__(self) -> None:
                super().__init__()
                self.docs: Dict[str, str] = {}

            def put(self, key: str, doc: str) -> None:
                self.docs[key] = doc

            def get(self, key: str) -> str:
                return self.docs[key]

        world = World()
        world.add_host("client")
        world.add_host("server")
        link = world.connect(
            "client", "server", latency=0.0005, bandwidth_bps=100e6,
            seed=QOS_PATTERN_SEED,
        )
        server = world.orb("server")
        server.install_scheduler("wfq", max_depth=4)
        provider = QoSProvider(world, "server", StoreImpl())
        provider.support(
            "Compression", CompressionImpl(), capabilities={"threshold": Range(64, 4096)}
        )
        ior = provider.activate("store")
        client = world.orb("client")
        stub = generated.StoreStub(client, ior)
        compression = CompressionMediator()
        establish_qos(stub, "Compression", {"threshold": Range(256, 256)}, mediator=compression)
        reliability = ReliabilityMediator(
            ReliabilityPolicy(max_retries=4, seed=QOS_PATTERN_SEED)
        )
        MediatorChain(reliability, compression).install(stub)
        endpoint = KeyExchange(seed=self.seed)
        client.qos_transport.assign(ior, "crypto")
        peer_public = client.invoke(
            command(ior, "crypto", "dh_exchange", "bench-key", endpoint.public_value)
        )
        module = client.qos_transport.module("crypto")
        module.install_key("bench-key", endpoint.shared_key(peer_public))
        module.set_cipher(binding_key(ior), "arc4", "bench-key")
        world.faults.set_loss(link, QOS_LOSS_RATE)
        return QoSDeployment(world, stub, server, module, link)

    def run_round(self, dep: QoSDeployment, call: Optional[Caller]) -> Round:
        import random

        _fresh_process_state()
        stream = self.stream
        stub = dep.stub
        put, get = stub.put, stub.get
        invoke = call or _direct
        rng = random.Random(f"perfbench:gets:{QOS_PATTERN_SEED}")
        clock = perf_counter_ns
        stored: List[int] = []
        latencies: List[int] = []
        checks: List[tuple] = []
        failed = 0
        next_doc = 0
        start = clock()
        for kind in stream.pattern:
            if kind == "put" or not stored:
                index = next_doc
                next_doc += 1
                key = f"k{index}"
                began = clock()
                try:
                    reply = invoke(put, key, stream.docs[index])
                except Exception as error:
                    reply = error
                latencies.append(clock() - began)
                if reply is None:
                    stored.append(index)
                else:
                    failed += 1
                    checks.append(("put", index, reply))
            else:
                index = stored[rng.randrange(max(0, len(stored) - 64), len(stored))]
                began = clock()
                try:
                    reply = invoke(get, f"k{index}")
                except Exception as error:
                    reply = error
                    failed += 1
                latencies.append(clock() - began)
                checks.append(("get", index, reply))
        wall = clock() - start
        result = Round(calls=len(latencies), failed=failed)
        result.latencies_ns = latencies
        result.figures["calls_per_s"] = (
            len(latencies) / (wall / 1e9), "1/s", len(latencies)
        )
        wrong = sum(
            1
            for kind, index, reply in checks
            if kind == "get"
            and not isinstance(reply, Exception)
            and not inputs.same(reply, stream.docs[index])
        )
        if wrong:
            result.errors.append(f"{wrong} gets differ from the document stored")
        counters = _counters()
        counters.update(
            {f"module_{k}": v for k, v in dep.client_module.statistics().items()}
        )
        counters.update({f"net_{k}": v for k, v in dep.world.network.stats().items()})
        sched = dep.server_orb.scheduler.stats_snapshot()
        counters["sched_depth_peak"] = sched["depth_peak"]
        result.counters = counters
        result.signature = _cache_signature(counters, failed)
        result.signature.update(
            rel_retries=counters["rel_retries"],
            messages_lost=dep.link.messages_lost,
            net_bytes_sent=counters["net_bytes_sent"],
            sim_clock=repr(dep.world.clock.now),
        )
        return result


# -- overload-open ---------------------------------------------------------


class OverloadOpen(Workload):
    """Rounds cycle through :data:`inputs.PARTS` seeded scenarios."""

    name = "overload-open"
    min_rounds = inputs.PARTS

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        duration = inputs.DURATION * scale
        self.specs = [
            inputs.overload_spec(seed, part, duration) for part in range(inputs.PARTS)
        ]
        self._next_part = 0

    def describe_inputs(self) -> Dict[str, Any]:
        return inputs.describe_spec(self.specs)

    def warmup(self) -> None:
        from repro.scenario import runner
        from repro.scenario.spec import load_spec

        runner.run_scenario(load_spec(self.specs[0]))

    def setup(self, traced: bool) -> Any:
        from repro.scenario.configurator import build_deployment
        from repro.scenario.spec import load_spec

        part = self._next_part
        spec = load_spec(self.specs[part])
        build_deployment(spec)
        return part, spec

    def run_round(self, deployment: Any, call: Optional[Caller]) -> Round:
        from repro.scenario import runner

        part, spec = deployment
        self._next_part = (part + 1) % len(self.specs)
        _fresh_process_state()
        invoke = call or _direct
        start = perf_counter_ns()
        outcome = invoke(runner.run_scenario, spec)
        wall = perf_counter_ns() - start
        result = Round(calls=outcome.offered)
        gold = sorted(outcome.latencies.get("gold", []))
        flows = Counter((record.klass, record.status) for record in outcome.exporter.records)
        per_class = {}
        for klass in sorted(spec.traffic.classes):
            served, failed = flows[(klass, "ok")], flows[(klass, "failed")]
            per_class[klass] = (served + failed, served, failed)
            if served != len(outcome.latencies.get(klass, [])):
                result.errors.append(f"class {klass}: served flows != latencies")
        if outcome.offered != outcome.served + outcome.failures:
            result.errors.append("offered != served + failed")
        if sum(entry[0] for entry in per_class.values()) != outcome.offered:
            result.errors.append("per-class offered does not sum to the total")
        if not gold:
            result.errors.append("no gold request was served")
        good = outcome.goodput(inputs.GOLD_CONTRACT_S) * outcome.offered
        result.figures = {
            "calls_per_s": (outcome.offered / (wall / 1e9), "1/s", outcome.offered),
        }
        result.outcome = {
            "gold_latencies": gold,
            "good": round(good),
            "failures": outcome.failures,
        }
        result.counters = _counters()
        result.signature = {
            "part": part,
            "per_class": per_class,
            "gold_latencies": inputs.digest(gold),
            "flows": outcome.exporter.digest(),
            "campaign": outcome.campaign_digest,
        }
        return result


# -- rt-loopback -----------------------------------------------------------

#: Pipelined window size of the second rt phase.
RT_WINDOW = 64
#: Seconds to wait for the server child to report readiness.
RT_READY_TIMEOUT = 30.0


@dataclass
class RtDeployment:
    process: subprocess.Popen
    client: Any


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn_server(factory: str) -> tuple:
    """Start an rt echo server child; returns ``(process, (host, port))``."""
    from repro.rt.harness import READY_PREFIX

    process = subprocess.Popen(
        [sys.executable, "-m", "repro.rt.harness", "serve",
         f"perfbench.servants:{factory}", "127.0.0.1", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        cwd=ROOT,
        env=_child_env(),
    )
    with selectors.DefaultSelector() as selector:
        selector.register(process.stdout, selectors.EVENT_READ)
        ready = selector.select(RT_READY_TIMEOUT)
    line = process.stdout.readline() if ready else ""
    if not line.startswith(READY_PREFIX):
        stop_server(process)
        raise RuntimeError(f"rt server never became ready (got {line!r})")
    _, host, port = line.split()
    return process, (host, int(port))


def _echo_ior() -> Any:
    """The reference the rt echo server's POA mints for its servant."""
    from repro.orb.ior import IIOPProfile, IOR

    return IOR(ECHO_REPO_ID, IIOPProfile("server", 683, ECHO_KEY), [])


def stop_server(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(10.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(10.0)
    if process.stdout is not None:
        process.stdout.close()


class RtLoopback(Workload):
    name = "rt-loopback"
    deterministic = False
    setups_per_round = 1
    sync_calls = 1000
    pipelined_windows = 16

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.corpus = inputs.zipf_corpus(seed, max(8, int(self.sync_calls * scale)))
        self.values = self.corpus.calls()
        windows = max(1, int(self.pipelined_windows * scale))
        pipelined = inputs.zipf_corpus(seed + 1, windows * RT_WINDOW).calls()
        self.windows = [
            pipelined[i : i + RT_WINDOW] for i in range(0, len(pipelined), RT_WINDOW)
        ]

    def describe_inputs(self) -> Dict[str, Any]:
        described = self.corpus.describe()
        described["pipelined_calls"] = sum(len(w) for w in self.windows)
        described["window"] = RT_WINDOW
        return described

    def setup(self, traced: bool) -> RtDeployment:
        from repro.rt.client import RtClient

        process, address = spawn_server("echo_server_timed" if traced else "echo_server")
        try:
            client = RtClient({"server": address})
            client.connection("server")
        except BaseException:
            stop_server(process)
            raise
        return RtDeployment(process, client)

    def teardown(self, dep: RtDeployment) -> None:
        try:
            dep.client.close()
        finally:
            stop_server(dep.process)

    def run_round(self, dep: RtDeployment, call: Optional[Caller]) -> Round:
        from repro.orb.request import Request

        _fresh_process_state()
        client = dep.client
        ior = _echo_ior()
        invoke = call or _direct
        clock = perf_counter_ns

        def echo(value: Any) -> Any:
            return client.invoke(Request(ior, "echo", (value,)))

        def window(values: List[Any]) -> List[Any]:
            return client.invoke_window([Request(ior, "echo", (v,)) for v in values])

        latencies: List[int] = []
        replies: List[Any] = []
        failed = 0
        start = clock()
        for value in self.values:
            began = clock()
            try:
                reply = invoke(echo, value)
            except Exception as error:
                reply = error
                failed += 1
            latencies.append(clock() - began)
            replies.append(reply)
        wall = clock() - start
        window_replies: List[Any] = []
        pipelined_start = clock()
        for values in self.windows:
            try:
                window_replies.extend(r.value() for r in invoke(window, values))
            except Exception as error:
                window_replies.extend(error for _ in values)
                failed += len(values)
        pipelined_wall = clock() - pipelined_start
        pipelined_calls = sum(len(values) for values in self.windows)
        result = Round(calls=len(self.values) + pipelined_calls, failed=failed)
        result.latencies_ns = latencies
        sent = list(self.values) + [v for values in self.windows for v in values]
        mismatched = sum(
            1 for value, reply in zip(sent, replies + window_replies)
            if not inputs.same(value, reply)
        )
        if mismatched:
            result.errors.append(f"{mismatched} rt echo replies differ from requests")
        result.figures = {
            "calls_per_s": (len(self.values) / (wall / 1e9), "1/s", len(self.values)),
            "pipelined_calls_per_s": (
                pipelined_calls / (pipelined_wall / 1e9), "1/s", pipelined_calls
            ),
        }
        result.counters = _counters()
        return result

    def server_stats(self, dep: RtDeployment) -> Dict[str, Any]:
        """Server-side handle times (traced servers only)."""
        from repro.orb.request import Request

        return dep.client.invoke(Request(_echo_ior(), "server_stats", ()))


WORKLOADS = {
    cls.name: cls for cls in (EchoZipf, QoSStack, OverloadOpen, RtLoopback)
}
