"""Servants and server factories the benchmark deploys.

The rt server factories are resolved by ``python -m repro.rt.harness
serve perfbench.servants:<factory>`` in the server child process.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Dict, List

from repro.orb.servant import Servant
from repro.orb.stub import Stub

ECHO_REPO_ID = "IDL:perfbench/Echo:1.0"
ECHO_KEY = "echo"


class EchoServant(Servant):
    """Returns its argument unchanged."""

    _repo_id = ECHO_REPO_ID

    def echo(self, value: Any) -> Any:
        return value


class EchoStub(Stub):
    def echo(self, value: Any) -> Any:
        return self._call("echo", value)


class _TimedEchoServant(EchoServant):
    """Echo plus ``server_stats``: server-side handle times so far."""

    def __init__(self, samples: List[int]) -> None:
        self._samples = samples

    def server_stats(self) -> Dict[str, Any]:
        samples = sorted(self._samples)
        return {
            "count": len(samples),
            "total_ns": sum(samples),
            "p50_ns": samples[len(samples) // 2] if samples else 0,
        }


def echo_server():
    """Harness factory: an RtServer hosting the echo servant."""
    from repro.rt.server import RtServer, make_rt_orb

    orb = make_rt_orb("server")
    orb.poa.activate_object(EchoServant(), object_key=ECHO_KEY)
    return RtServer(orb)


def echo_server_timed():
    """Harness factory: the echo server, timing every ``handle_incoming``.

    The timing wrapper sits on this ORB instance only, so the server
    code itself is unmodified; ``server_stats`` reports the samples.
    """
    from repro.rt.server import RtServer, make_rt_orb

    orb = make_rt_orb("server")
    samples: List[int] = []
    orb.poa.activate_object(_TimedEchoServant(samples), object_key=ECHO_KEY)
    handle = orb.handle_incoming

    def timed_handle(wire: bytes, at_time: float):
        start = perf_counter_ns()
        try:
            return handle(wire, at_time)
        finally:
            samples.append(perf_counter_ns() - start)

    orb.handle_incoming = timed_handle
    return RtServer(orb)
