"""Data-plane tests for the compression, crypto and bandwidth modules."""

import pytest

from repro.ciphers.keyex import KeyExchange
from repro.orb.dii import ModuleHandle
from repro.orb.exceptions import BAD_PARAM, NO_PERMISSION, NO_RESOURCES
from repro.orb.modules.base import binding_key
from tests.orb.conftest import EchoStub


COMPRESSIBLE = "abcabcabc" * 500


@pytest.fixture
def compressed_stub(world, client_orb, qos_echo_ior):
    client_orb.qos_transport.assign(qos_echo_ior, "compression")
    return EchoStub(client_orb, qos_echo_ior)


class TestCompressionModule:
    def test_result_is_correct(self, compressed_stub):
        assert compressed_stub.echo("hello") == "HELLO"

    def test_fewer_bytes_cross_the_network(self, world, client_orb, qos_echo_ior):
        plain_stub = EchoStub(client_orb, qos_echo_ior)
        before = world.network.bytes_sent
        plain_stub.echo(COMPRESSIBLE)
        plain_bytes = world.network.bytes_sent - before

        client_orb.qos_transport.assign(qos_echo_ior, "compression")
        before = world.network.bytes_sent
        plain_stub.echo(COMPRESSIBLE)
        compressed_bytes = world.network.bytes_sent - before
        assert compressed_bytes < plain_bytes / 2

    def test_compression_is_faster_on_slow_link(self, world, qos_echo_ior):
        # Make the client->server path slow.
        link = world.network.link_between("client", "server")
        link.set_capacity(64e3)
        stub = EchoStub(world.orb("client"), qos_echo_ior)
        start = world.clock.now
        stub.echo(COMPRESSIBLE)
        plain_time = world.clock.now - start

        world.orb("client").qos_transport.assign(qos_echo_ior, "compression")
        start = world.clock.now
        stub.echo(COMPRESSIBLE)
        compressed_time = world.clock.now - start
        assert compressed_time < plain_time

    def test_codec_selectable_per_binding(self, world, client_orb, qos_echo_ior):
        client_orb.qos_transport.assign(qos_echo_ior, "compression")
        handle = ModuleHandle(client_orb, qos_echo_ior, "compression")
        binding = binding_key(qos_echo_ior)
        # configure the *client* module locally (it wraps outgoing data)
        client_orb.qos_transport.module("compression").set_codec(binding, "rle")
        assert (
            client_orb.qos_transport.module("compression").get_codec(binding) == "rle"
        )
        stub = EchoStub(client_orb, qos_echo_ior)
        assert stub.echo("aaaaaaaaaaa" * 100) == "AAAAAAAAAAA" * 100

    def test_unknown_codec_rejected(self, client_orb):
        module = client_orb.qos_transport.load_module("compression")
        with pytest.raises(BAD_PARAM):
            module.set_codec("b", "middle-out")

    def test_incompressible_payload_passes_through(self, world, client_orb, qos_echo_ior):
        import random

        rng = random.Random(1)
        noise = "".join(chr(rng.randrange(0x20, 0x2500)) for _ in range(500))
        client_orb.qos_transport.assign(qos_echo_ior, "compression")
        stub = EchoStub(client_orb, qos_echo_ior)
        assert stub.echo(noise) == noise.upper()


@pytest.fixture
def crypto_binding(world, client_orb, qos_echo_ior):
    """Set up an encrypted binding with a completed key exchange."""
    client_orb.qos_transport.assign(qos_echo_ior, "crypto")
    local = client_orb.qos_transport.module("crypto")
    endpoint = KeyExchange(seed=11)
    remote = ModuleHandle(client_orb, qos_echo_ior, "crypto")
    server_public = remote.call("dh_exchange", "session-1", endpoint.public_value)
    local.install_key("session-1", endpoint.shared_key(server_public))
    binding = binding_key(qos_echo_ior)
    local.set_cipher(binding, "xtea-ctr", "session-1")
    return EchoStub(client_orb, qos_echo_ior)


class TestCryptoModule:
    def test_encrypted_call_works(self, crypto_binding):
        assert crypto_binding.echo("secret") == "SECRET"

    def test_key_agreement_matches(self, world, client_orb, qos_echo_ior):
        endpoint = KeyExchange(seed=3)
        remote = ModuleHandle(client_orb, qos_echo_ior, "crypto")
        server_public = remote.call("dh_exchange", "k9", endpoint.public_value)
        client_key = endpoint.shared_key(server_public)
        server_module = world.orb("server").qos_transport.module("crypto")
        assert server_module._keys["k9"] == client_key

    def test_plaintext_never_crosses_the_wire(
        self, world, client_orb, qos_echo_ior, crypto_binding, monkeypatch
    ):
        captured = []
        network = world.network
        original_send = network.send

        def spying_send(src, dst, nbytes, reservations=None, _orig=original_send):
            return _orig(src, dst, nbytes, reservations)

        # Capture at the ORB level where the actual bytes are visible.
        server = world.orb("server")
        original = server.handle_incoming

        def spy(wire, at_time):
            captured.append(bytes(wire))
            return original(wire, at_time)

        monkeypatch.setattr(server, "handle_incoming", spy)
        crypto_binding.echo("topsecretpayload")
        assert captured
        assert all(b"topsecretpayload" not in wire for wire in captured)

    def test_missing_key_raises_no_permission(self, client_orb, qos_echo_ior):
        client_orb.qos_transport.assign(qos_echo_ior, "crypto")
        module = client_orb.qos_transport.module("crypto")
        module.set_cipher(binding_key(qos_echo_ior), "arc4", "ghost-key")
        stub = EchoStub(client_orb, qos_echo_ior)
        with pytest.raises(NO_PERMISSION):
            stub.echo("x")

    def test_server_missing_key_reported(self, world, client_orb, qos_echo_ior):
        client_orb.qos_transport.assign(qos_echo_ior, "crypto")
        local = client_orb.qos_transport.module("crypto")
        local.install_key("one-sided", b"0123456789abcdef")
        local.set_cipher(binding_key(qos_echo_ior), "xtea-ctr", "one-sided")
        stub = EchoStub(client_orb, qos_echo_ior)
        with pytest.raises(NO_PERMISSION):
            stub.echo("x")

    def test_key_rotation_on_the_fly(self, world, client_orb, qos_echo_ior, crypto_binding):
        # "on the fly change of encryption keys" (Section 3.2)
        assert crypto_binding.echo("one") == "ONE"
        local = client_orb.qos_transport.module("crypto")
        endpoint = KeyExchange(seed=21)
        remote = ModuleHandle(client_orb, qos_echo_ior, "crypto")
        server_public = remote.call("dh_exchange", "session-2", endpoint.public_value)
        local.install_key("session-2", endpoint.shared_key(server_public))
        local.set_cipher(binding_key(qos_echo_ior), "xtea-ctr", "session-2")
        assert crypto_binding.echo("two") == "TWO"

    def test_drop_key(self, client_orb):
        module = client_orb.qos_transport.load_module("crypto")
        module.install_key("k", b"0123456789abcdef")
        assert module.drop_key("k")
        assert not module.drop_key("k")
        assert "k" not in module.active_keys()

    def test_dropped_or_replaced_key_leaves_no_keystream(self, client_orb):
        from repro.ciphers import keystream

        def memoised(key):
            return [slot for slot in keystream._MEMO if slot[1] == key]

        module = client_orb.qos_transport.load_module("crypto")
        first, second = b"dropped-key-0001", b"replaced-key-002"
        for key_id, key in (("k", first), ("r", second)):
            module.install_key(key_id, key)
            for cipher in ("arc4", "xtea-ctr"):
                params, payload, _ = module.wrap(
                    b"body", {"cipher": cipher, "key_id": key_id}
                )
                assert module.unwrap(params, payload)[0] == b"body"
            assert len(memoised(key)) == 2
        assert module.drop_key("k")
        assert memoised(first) == []
        module.install_key("r", b"a-brand-new-key!")
        assert memoised(second) == []


class TestBandwidthModule:
    def test_reservation_isolates_from_cross_traffic(
        self, world, client_orb, qos_echo_ior
    ):
        link = world.network.link_between("client", "server")
        link.set_capacity(1e6)
        link.background_flows = 9  # heavy best-effort contention
        stub = EchoStub(client_orb, qos_echo_ior)
        payload = "y" * 20000

        start = world.clock.now
        stub.echo(payload)
        best_effort = world.clock.now - start

        client_orb.qos_transport.assign(qos_echo_ior, "bandwidth")
        module = client_orb.qos_transport.module("bandwidth")
        module.reserve("server", 0.5e6)
        start = world.clock.now
        stub.echo(payload)
        reserved = world.clock.now - start
        assert reserved < best_effort / 2

    def test_admission_rejection_is_no_resources(self, world, client_orb, qos_echo_ior):
        client_orb.qos_transport.assign(qos_echo_ior, "bandwidth")
        module = client_orb.qos_transport.module("bandwidth")
        with pytest.raises(NO_RESOURCES):
            module.reserve("server", 1e12)

    def test_release_returns_flag(self, client_orb, qos_echo_ior):
        client_orb.qos_transport.assign(qos_echo_ior, "bandwidth")
        module = client_orb.qos_transport.module("bandwidth")
        module.reserve("server", 1e5)
        assert module.release("server")
        assert not module.release("server")

    def test_re_reserve_replaces(self, world, client_orb):
        module = client_orb.qos_transport.load_module("bandwidth")
        module.reserve("server", 1e5)
        module.reserve("server", 2e5)
        assert module.reserved_rate("server") == 2e5
        link = world.network.link_between("client", "server")
        assert link.reserved_bps == pytest.approx(2e5)

    def test_unload_releases_reservations(self, world, client_orb):
        module = client_orb.qos_transport.load_module("bandwidth")
        module.reserve("server", 1e5)
        client_orb.qos_transport.unload_module("bandwidth")
        link = world.network.link_between("client", "server")
        assert link.reserved_bps == 0.0

    def test_dynamic_interface_over_wire(self, world, client_orb, echo_ior):
        handle = ModuleHandle(client_orb, echo_ior, "bandwidth")
        # This reserves *from the server's host* toward the named
        # destination — the command runs on the server's ORB.
        granted = handle.call("reserve", "client", 1e5)
        assert granted == 1e5
        assert handle.call("reservations") == ["client"]
        assert handle.call("release", "client")
