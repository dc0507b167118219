"""Tests for the cipher primitives and key exchange."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ciphers
from repro.ciphers import arc4, xtea
from repro.ciphers.keyex import KeyExchange, derive_pair

KEY16 = b"0123456789abcdef"


class TestXTEA:
    def test_roundtrip(self):
        sealed = xtea.encrypt(KEY16, b"attack at dawn")
        assert xtea.decrypt(KEY16, sealed) == b"attack at dawn"

    def test_ciphertext_differs_from_plaintext(self):
        assert xtea.encrypt(KEY16, b"attack at dawn") != b"attack at dawn"

    def test_different_keys_give_different_ciphertext(self):
        other = b"fedcba9876543210"
        assert xtea.encrypt(KEY16, b"payload") != xtea.encrypt(other, b"payload")

    def test_different_nonces_give_different_ciphertext(self):
        assert xtea.encrypt(KEY16, b"payload", nonce=1) != xtea.encrypt(
            KEY16, b"payload", nonce=2
        )

    def test_wrong_key_size_rejected(self):
        with pytest.raises(ValueError):
            xtea.encrypt(b"short", b"x")

    def test_empty_payload(self):
        assert xtea.decrypt(KEY16, xtea.encrypt(KEY16, b"")) == b""

    def test_non_block_sized_payload(self):
        payload = b"123456789"  # 9 bytes, not a multiple of 8
        assert xtea.decrypt(KEY16, xtea.encrypt(KEY16, payload)) == payload


class TestARC4:
    def test_roundtrip(self):
        sealed = arc4.encrypt(b"key", b"stream cipher")
        assert arc4.decrypt(b"key", sealed) == b"stream cipher"

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            arc4.encrypt(b"", b"x")

    def test_known_vector(self):
        # Classic RC4 test vector: key "Key", plaintext "Plaintext".
        sealed = arc4.encrypt(b"Key", b"Plaintext")
        assert sealed.hex() == "bbf316e8d940af0ad3"

    @pytest.mark.parametrize(
        "key, plaintext, expected",
        [
            (b"Wiki", b"pedia", "1021bf0420"),
            (b"Secret", b"Attack at dawn", "45a01f645fc35b383552544b9bf5"),
        ],
    )
    def test_classic_vectors(self, key, plaintext, expected):
        assert arc4.encrypt(key, plaintext).hex() == expected


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(ciphers.CIPHERS))
    def test_registered_roundtrip(self, name):
        encrypt, decrypt = ciphers.get_cipher(name)
        assert decrypt(KEY16, encrypt(KEY16, b"hello")) == b"hello"

    def test_unknown_cipher_rejected(self):
        with pytest.raises(ValueError):
            ciphers.get_cipher("rot13")

    def test_cpu_cost_ordering(self):
        # Block cipher costs more than stream cipher costs more than null.
        assert (
            ciphers.cpu_cost("xtea-ctr", 1000)
            > ciphers.cpu_cost("arc4", 1000)
            > ciphers.cpu_cost("null", 1000)
        )


class TestKeyExchange:
    def test_agreement_matches(self):
        key_a, key_b = derive_pair(1, 2)
        assert key_a == key_b
        assert len(key_a) == 16

    def test_different_sessions_differ(self):
        first, _ = derive_pair(1, 2)
        second, _ = derive_pair(3, 4)
        assert first != second

    def test_out_of_range_public_rejected(self):
        endpoint = KeyExchange(seed=1)
        with pytest.raises(ValueError):
            endpoint.shared_key(1)

    @pytest.mark.parametrize("peer_public", ["x", 3.0, True, None, b"\x05"])
    def test_non_int_public_rejected_before_arithmetic(self, peer_public):
        endpoint = KeyExchange(seed=1)
        with pytest.raises(TypeError, match="must be an int"):
            endpoint.shared_key(peer_public)

    def test_key_length_capped(self):
        endpoint = KeyExchange(seed=1)
        peer = KeyExchange(seed=2)
        with pytest.raises(ValueError):
            endpoint.shared_key(peer.public_value, length=100)

    def test_deterministic_for_seed(self):
        assert derive_pair(9, 10) == derive_pair(9, 10)


@given(st.binary(max_size=2048), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40)
def test_property_xtea_roundtrip(payload, nonce):
    assert xtea.decrypt(KEY16, xtea.encrypt(KEY16, payload, nonce), nonce) == payload


@given(st.binary(min_size=1, max_size=64), st.binary(max_size=2048))
@settings(max_examples=40)
def test_property_arc4_roundtrip(key, payload):
    assert arc4.decrypt(key, arc4.encrypt(key, payload)) == payload
