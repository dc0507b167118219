"""Shared fixtures: a small world with echo servers."""

import pytest

from repro.orb import QOS_TAG, TaggedComponent, World
from repro.orb.cdr import use_fast_path
from repro.orb.ior import GROUP_TAG, IOR
from repro.orb.servant import Servant
from repro.orb.stub import Stub


class EchoServant(Servant):
    """A deterministic test servant."""

    _repo_id = "IDL:test/Echo:1.0"
    _default_service_time = 0.001

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.calls = 0

    def echo(self, text):
        self.calls += 1
        return text.upper()

    def whoami(self):
        self.calls += 1
        return self.label

    def fail(self, message):
        self.calls += 1
        raise ValueError(message)

    def add(self, a, b):
        self.calls += 1
        return a + b


class EchoStub(Stub):
    def echo(self, text):
        return self._call("echo", text)

    def whoami(self):
        return self._call("whoami")

    def fail(self, message):
        return self._call("fail", message)

    def add(self, a, b):
        return self._call("add", a, b)


@pytest.fixture(params=[True, False], ids=["flat", "class"])
def codec_path(request):
    """Run the test on the flat codec and on the class-based one."""
    previous = use_fast_path(request.param)
    yield request.param
    use_fast_path(previous)


@pytest.fixture
def world():
    w = World()
    w.lan(["client", "server", "s1", "s2", "s3"], latency=0.005, bandwidth_bps=10e6)
    return w


@pytest.fixture
def client_orb(world):
    return world.orb("client")


@pytest.fixture
def echo_servant():
    return EchoServant("server")


@pytest.fixture
def echo_ior(world, echo_servant):
    return world.orb("server").poa.activate_object(echo_servant)


@pytest.fixture
def echo_stub(client_orb, echo_ior):
    return EchoStub(client_orb, echo_ior)


@pytest.fixture
def qos_echo_ior(world):
    """An echo object advertising QoS awareness."""
    component = TaggedComponent(QOS_TAG, {"characteristics": ["compression"]})
    return world.orb("server").poa.activate_object(
        EchoServant("qos-server"), components=[component]
    )


@pytest.fixture
def group_ior(world):
    """A three-member replica group reference."""
    members = []
    for name in ("s1", "s2", "s3"):
        ior = world.orb(name).poa.activate_object(
            EchoServant(name), object_key=f"rep-{name}"
        )
        members.append(ior)
    return IOR(
        "IDL:test/Echo:1.0",
        members[0].profile,
        [
            TaggedComponent(QOS_TAG, {"characteristics": ["fault_tolerance"]}),
            TaggedComponent(
                GROUP_TAG,
                {"group": "echo-group", "members": [m.to_string() for m in members]},
            ),
        ],
    )
