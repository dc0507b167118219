"""Tests for the payload characteristics: Compression, Encryption, Actuality."""

import pytest

from repro.core.binding import establish_qos
from repro.core.mediator import CHARACTERISTIC_CONTEXT
from repro.core.negotiation import Range
from repro.codecs import lz
from repro.orb.exceptions import BAD_PARAM, MARSHAL, NO_PERMISSION
from repro.qos.actuality.freshness import ActualityImpl, ActualityMediator
from repro.qos.compression.payload import (
    CompressionImpl,
    CompressionMediator,
    compress_value,
    decompress_value,
    is_compressed,
)
from repro.qos.encryption.privacy import (
    EncryptionImpl,
    EncryptionMediator,
    decrypt_value,
    encrypt_value,
    is_encrypted,
)


LARGE_TEXT = "the quick brown fox " * 200


class TestCompressionHelpers:
    def test_large_text_compressed(self):
        packed = compress_value(LARGE_TEXT, "lz", 64)
        assert is_compressed(packed)
        assert decompress_value(packed) == LARGE_TEXT

    def test_bytes_roundtrip(self):
        payload = b"\x00\x01" * 500
        packed = compress_value(payload, "rle", 64)
        assert decompress_value(packed) == payload

    def test_small_value_passes_through(self):
        assert compress_value("tiny", "lz", 64) == "tiny"

    def test_non_payload_passes_through(self):
        assert compress_value(42, "lz", 0) == 42

    def test_incompressible_passes_through(self):
        no_runs = bytes(range(256)) * 2  # RLE finds nothing to collapse
        assert compress_value(no_runs, "rle", 64) == no_runs

    @pytest.mark.parametrize(
        "marker",
        [
            {"__maqs_c__": "lz", "text": False, "data": b"\x01\x00\x05\x00"},
            {"__maqs_c__": "rle", "text": False, "data": b"\x05ab"},
            {"__maqs_c__": "middle-out", "text": False, "data": b""},
            {"__maqs_c__": "lz", "text": True, "data": lz.compress(b"\xff\xfe")},
        ],
    )
    def test_unrestorable_marker_raises_marshal(self, marker):
        with pytest.raises(MARSHAL, match="cannot restore"):
            decompress_value(marker)

    @pytest.mark.parametrize(
        "marker",
        [
            {"__maqs_c__": "lz", "text": False},
            {"__maqs_c__": "lz", "text": False, "data": "not bytes"},
            {"__maqs_c__": "lz", "text": False, "data": None},
            {"__maqs_c__": ["lz"], "text": False, "data": b""},
            {"__maqs_c__": 7, "text": False, "data": b""},
        ],
    )
    def test_malformed_marker_raises_marshal(self, marker):
        with pytest.raises(MARSHAL, match="malformed compressed value"):
            decompress_value(marker)


class TestCompressionBinding:
    def test_wire_bytes_shrink(self, world, archive_deployment):
        _, _, _, stub = archive_deployment
        before = world.network.bytes_sent
        stub.store("plain", LARGE_TEXT)
        plain_bytes = world.network.bytes_sent - before

        binding = establish_qos(
            stub,
            "Compression",
            {"threshold": Range(64, 64)},
            mediator=CompressionMediator(),
        )
        before = world.network.bytes_sent
        stub.store("packed", LARGE_TEXT)
        packed_bytes = world.network.bytes_sent - before
        assert packed_bytes < plain_bytes / 3
        binding.release()

    def test_server_sees_plaintext(self, world, archive_deployment):
        servant, _, _, stub = archive_deployment
        establish_qos(
            stub,
            "Compression",
            {"threshold": Range(64, 64)},
            mediator=CompressionMediator(),
        )
        stub.store("doc", LARGE_TEXT)
        assert servant.files["doc"] == LARGE_TEXT

    def test_results_compressed_and_restored(self, world, archive_deployment):
        servant, _, _, stub = archive_deployment
        servant.files["doc"] = LARGE_TEXT
        establish_qos(
            stub,
            "Compression",
            {"threshold": Range(64, 64)},
            mediator=CompressionMediator(),
        )
        assert stub.fetch("doc") == LARGE_TEXT

    def test_observed_ratio(self, world, archive_deployment):
        _, _, _, stub = archive_deployment
        binding = establish_qos(
            stub,
            "Compression",
            {"threshold": Range(64, 64)},
            mediator=CompressionMediator(),
        )
        stub.store("doc", LARGE_TEXT)
        assert binding.mediator.observed_ratio() < 0.5

    def test_corrupt_compressed_result_raises_marshal(self, world, archive_deployment):
        _, _, _, stub = archive_deployment
        mediator = CompressionMediator(threshold=64)
        corrupt = {"__maqs_c__": "lz", "text": True, "data": b"\x00a\x01\x00"}
        with pytest.raises(MARSHAL, match="truncated match token"):
            mediator.after_reply(stub, "fetch", corrupt)

    @pytest.mark.parametrize(
        "malformed",
        [
            {"__maqs_c__": "lz", "text": True},
            {"__maqs_c__": "lz", "text": True, "data": "abc"},
            {"__maqs_c__": ["lz"], "text": True, "data": b"\x00a"},
        ],
    )
    def test_malformed_compressed_result_raises_marshal(
        self, world, archive_deployment, malformed
    ):
        _, _, _, stub = archive_deployment
        mediator = CompressionMediator(threshold=64)
        before = world.clock.now
        with pytest.raises(MARSHAL, match="malformed compressed value"):
            mediator.after_reply(stub, "fetch", malformed)
        assert world.clock.now == before

    def test_cpu_cost_advances_clock(self, world, archive_deployment):
        _, _, _, stub = archive_deployment
        mediator = CompressionMediator(threshold=64)
        before = world.clock.now
        mediator.before_request(stub, "store", ("k", LARGE_TEXT))
        assert world.clock.now > before

    def test_impl_parameter_validation(self):
        impl = CompressionImpl()
        with pytest.raises(BAD_PARAM):
            impl.set_codec("middle-out")
        with pytest.raises(BAD_PARAM):
            impl.set_threshold(-1)


class TestEncryptionBinding:
    def _bind(self, stub):
        mediator = EncryptionMediator()
        binding = establish_qos(stub, "Encryption", mediator=mediator)
        mediator.establish_key(stub)
        return binding, mediator

    def test_roundtrip(self, world, archive_deployment):
        _, _, _, stub = archive_deployment
        self._bind(stub)
        stub.store("secret", "classified")
        assert stub.fetch("secret") == "classified"

    def test_server_sees_plaintext_app_data(self, world, archive_deployment):
        servant, _, _, stub = archive_deployment
        self._bind(stub)
        stub.store("secret", "classified")
        assert servant.files["secret"] == "classified"

    def test_key_never_crosses_wire(self, world, archive_deployment):
        servant, provider, _, stub = archive_deployment
        binding, mediator = self._bind(stub)
        impl = servant.qos_impl("Encryption")
        key_id = mediator.key_id
        assert impl._keys[key_id] == mediator._keys[key_id]

    def test_call_without_key_rejected(self, world, archive_deployment):
        _, _, _, stub = archive_deployment
        establish_qos(stub, "Encryption", mediator=EncryptionMediator())
        with pytest.raises(NO_PERMISSION):
            stub.store("k", "v")

    def test_key_rotation_on_the_fly(self, world, archive_deployment):
        _, _, _, stub = archive_deployment
        _, mediator = self._bind(stub)
        first = mediator.key_id
        stub.store("a", "1")
        mediator.establish_key(stub)  # rotate
        assert mediator.key_id != first
        stub.store("b", "2")
        assert stub.fetch("b") == "2"
        assert mediator.handshakes == 2

    def test_dropped_server_key_rejected(self, world, archive_deployment):
        servant, _, _, stub = archive_deployment
        _, mediator = self._bind(stub)
        servant.qos_impl("Encryption").drop_key(mediator.key_id)
        with pytest.raises(NO_PERMISSION):
            stub.store("k", "v")

    def test_helpers_roundtrip(self):
        key = b"0123456789abcdef"
        sealed = encrypt_value("secret", "xtea-ctr", "k1", key)
        assert is_encrypted(sealed)
        assert sealed["data"] != b"secret"
        assert decrypt_value(sealed, {"k1": key}) == "secret"

    def test_helpers_missing_key(self):
        key = b"0123456789abcdef"
        sealed = encrypt_value("secret", "arc4", "k1", key)
        with pytest.raises(NO_PERMISSION):
            decrypt_value(sealed, {})

    @pytest.mark.parametrize("peer_public", ["x", 3.0, True, 1, None])
    def test_bad_peer_value_rejected_with_bad_param(
        self, world, archive_deployment, peer_public
    ):
        # The server half of the agreement, reached as a peer operation.
        _, _, _, stub = archive_deployment
        establish_qos(stub, "Encryption", mediator=EncryptionMediator())
        with pytest.raises(BAD_PARAM, match="bad peer public value"):
            stub._invoke(
                "exchange_key",
                ("bad-key", peer_public),
                extra_contexts={CHARACTERISTIC_CONTEXT: "Encryption"},
            )

    def test_impl_cipher_validation(self):
        impl = EncryptionImpl()
        with pytest.raises(BAD_PARAM):
            impl.set_cipher("rot13")


class TestActualityBinding:
    def _bind(self, stub, max_age=5.0):
        mediator = ActualityMediator(cacheable={"fetch", "size"}, max_age=max_age)
        binding = establish_qos(
            stub, "Actuality", {"max_age": Range(0.1, max_age)}, mediator=mediator
        )
        return binding, mediator

    def test_cache_hits_save_round_trips(self, world, archive_deployment):
        _, _, _, stub = archive_deployment
        _, mediator = self._bind(stub)
        invoked_before = world.orb("client").requests_invoked
        stub.fetch("doc")
        stub.fetch("doc")
        stub.fetch("doc")
        assert mediator.hits == 2
        assert world.orb("client").requests_invoked == invoked_before + 1

    def test_staleness_bounded_by_max_age(self, world, archive_deployment):
        servant, _, _, stub = archive_deployment
        _, mediator = self._bind(stub, max_age=1.0)
        servant.files["doc"] = "v1"
        assert stub.fetch("doc") == "v1"
        servant.files["doc"] = "v2"
        assert stub.fetch("doc") == "v1"  # cached, inside max_age
        world.clock.advance(2.0)
        assert stub.fetch("doc") == "v2"  # expired: re-fetched

    def test_uncacheable_ops_always_issue(self, world, archive_deployment):
        _, _, _, stub = archive_deployment
        _, mediator = self._bind(stub)
        stub.store("a", "1")
        stub.store("a", "2")
        assert mediator.hits == 0

    def test_invalidate_operation(self, world, archive_deployment):
        servant, _, _, stub = archive_deployment
        _, mediator = self._bind(stub)
        servant.files["doc"] = "v1"
        stub.fetch("doc")
        servant.files["doc"] = "v2"
        mediator.invalidate("fetch")
        assert stub.fetch("doc") == "v2"

    def test_invalidate_all(self, world, archive_deployment):
        _, _, _, stub = archive_deployment
        _, mediator = self._bind(stub)
        stub.fetch("a")
        stub.size()
        assert mediator.invalidate() == 2

    def test_renegotiated_max_age_applies(self, world, archive_deployment):
        _, _, _, stub = archive_deployment
        binding, mediator = self._bind(stub, max_age=5.0)
        binding.renegotiate({"max_age": Range(0.1, 0.5)})
        assert mediator.max_age == 0.5

    def test_impl_stamps_writes(self, world, archive_deployment):
        servant, _, _, stub = archive_deployment
        self._bind(stub)
        impl = servant.qos_impl("Actuality")
        stub.store("k", "v")  # epilog sees operation 'store'... not set_*
        impl.touch()
        assert impl.last_modified() == world.clock.now

    def test_impl_max_age_validation(self):
        with pytest.raises(BAD_PARAM):
            ActualityImpl().set_max_age(-1.0)
