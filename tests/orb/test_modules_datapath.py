"""Data-plane tests for the compression, crypto and bandwidth modules."""

import pytest

from repro.ciphers.keyex import KeyExchange
from repro.orb import giop
from repro.orb.dii import ModuleHandle
from repro.orb.exceptions import BAD_PARAM, MARSHAL, NO_PERMISSION, NO_RESOURCES
from repro.orb.modules.base import binding_key, encode_envelope, is_envelope
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

    @pytest.mark.parametrize(
        "params, body",
        [
            ({"codec": "lz", "requested": "lz"}, b"\x01\x00\x05\x00"),
            ({"codec": "lz", "requested": "lz"}, b"\x00a\x00"),
            ({"codec": "rle", "requested": "rle"}, b"\x85"),
            ({"codec": "middle-out", "requested": "lz"}, b"\x00a"),
        ],
    )
    def test_corrupt_request_body_answered_with_marshal(self, world, params, body):
        # A body the server cannot decompress gets an unwrapped MARSHAL
        # reply, as a body it cannot decrypt gets NO_PERMISSION.
        server = world.orb("server")
        wire = encode_envelope("compression", params, body)
        reply, _ = server.handle_incoming(wire, world.clock.now)
        assert not is_envelope(reply)
        with pytest.raises(MARSHAL, match="cannot decompress"):
            giop.decode_reply(reply).value()

    def test_corrupt_reply_body_raises_marshal(
        self, world, compressed_stub, monkeypatch
    ):
        assert compressed_stub.echo("before") == "BEFORE"
        server_module = world.orb("server").qos_transport.module("compression")
        monkeypatch.setattr(
            server_module,
            "_wrap_one",
            lambda body, context, state: ({"codec": "lz"}, b"\x01\x00\x05\x00", 0.0),
        )
        with pytest.raises(MARSHAL, match="bad match offset 5"):
            compressed_stub.echo("after")

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"codec": ["x"]}, "'codec' must be a string, not list"),
            ({"codec": 5, "requested": "lz"}, "'codec' must be a string, not int"),
            ({"codec": "identity", "requested": ["x"]}, "'requested' must be a string"),
            ({"codec": "identity", "requested": "middle-out"}, "unknown codec"),
        ],
    )
    def test_malformed_request_params_answered_with_marshal(
        self, world, params, match
    ):
        server = world.orb("server")
        wire = encode_envelope("compression", params, b"")
        reply, _ = server.handle_incoming(wire, world.clock.now)
        assert not is_envelope(reply)
        with pytest.raises(MARSHAL, match=match):
            giop.decode_reply(reply).value()

    def test_malformed_reply_params_raise_marshal(
        self, world, compressed_stub, monkeypatch
    ):
        assert compressed_stub.echo("before") == "BEFORE"
        server_module = world.orb("server").qos_transport.module("compression")
        monkeypatch.setattr(
            server_module,
            "_wrap_one",
            lambda body, context, state: ({"codec": ["lz"]}, body, 0.0),
        )
        with pytest.raises(MARSHAL, match="'codec' must be a string"):
            compressed_stub.echo("after")


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


    @pytest.mark.parametrize(
        "params, match",
        [
            ({"cipher": ["x"], "key_id": "k"}, "'cipher' must be a string, not list"),
            ({"cipher": "arc4", "key_id": ["k"]}, "'key_id' must be a string, not list"),
            ({"cipher": "arc4", "key_id": b"k"}, "'key_id' must be a string, not bytes"),
            ({"cipher": "rot13", "key_id": "k"}, "unknown cipher 'rot13'"),
        ],
    )
    def test_malformed_request_params_answered_with_marshal(
        self, world, params, match
    ):
        server = world.orb("server")
        server.qos_transport.load_module("crypto").install_key("k", b"0123456789abcdef")
        wire = encode_envelope("crypto", params, b"body")
        reply, _ = server.handle_incoming(wire, world.clock.now)
        assert not is_envelope(reply)
        with pytest.raises(MARSHAL, match=match):
            giop.decode_reply(reply).value()

    def test_malformed_reply_params_raise_marshal(
        self, world, crypto_binding, monkeypatch
    ):
        server_module = world.orb("server").qos_transport.module("crypto")
        monkeypatch.setattr(
            server_module,
            "_wrap_one",
            lambda body, context, state: ({"key_id": ["k"]}, body, 0.0),
        )
        with pytest.raises(MARSHAL, match="'key_id' must be a string"):
            crypto_binding.echo("after")

    @pytest.mark.parametrize("peer_public", ["x", 3.0, True, 1, -5, None])
    def test_bad_peer_value_rejected_with_bad_param(
        self, world, client_orb, qos_echo_ior, peer_public
    ):
        remote = ModuleHandle(client_orb, qos_echo_ior, "crypto")
        with pytest.raises(BAD_PARAM, match="bad peer public value"):
            remote.call("dh_exchange", "bad", peer_public)
        server_module = world.orb("server").qos_transport.module("crypto")
        assert "bad" not in server_module.active_keys()


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
