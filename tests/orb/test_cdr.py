"""Tests for CDR marshalling."""

import pytest

import repro.orb.cdr as cdr
from repro.orb.cdr import (
    CDRDecoder,
    CDREncoder,
    decode_values,
    encode_values,
)
from repro.orb.exceptions import MARSHAL


class TestPrimitives:
    @pytest.mark.parametrize(
        "writer,reader,value",
        [
            ("write_octet", "read_octet", 255),
            ("write_boolean", "read_boolean", True),
            ("write_boolean", "read_boolean", False),
            ("write_short", "read_short", -12345),
            ("write_ushort", "read_ushort", 54321),
            ("write_long", "read_long", -(2**31)),
            ("write_ulong", "read_ulong", 2**32 - 1),
            ("write_longlong", "read_longlong", -(2**63)),
            ("write_double", "read_double", 3.14159),
            ("write_string", "read_string", "hello κόσμος"),
            ("write_octets", "read_octets", b"\x00\x01\xff"),
        ],
    )
    def test_roundtrip(self, writer, reader, value):
        encoder = CDREncoder()
        getattr(encoder, writer)(value)
        decoder = CDRDecoder(encoder.getvalue())
        assert getattr(decoder, reader)() == value

    def test_float_roundtrip_approximate(self):
        encoder = CDREncoder()
        encoder.write_float(1.5)
        assert CDRDecoder(encoder.getvalue()).read_float() == 1.5

    def test_out_of_range_raises_marshal(self):
        encoder = CDREncoder()
        with pytest.raises(MARSHAL):
            encoder.write_octet(256)

    def test_wrong_type_raises_marshal(self):
        encoder = CDREncoder()
        with pytest.raises(MARSHAL):
            encoder.write_string(42)


class TestAlignment:
    def test_long_after_octet_is_aligned(self):
        encoder = CDREncoder()
        encoder.write_octet(1)
        encoder.write_long(7)
        data = encoder.getvalue()
        # 1 octet + 3 padding + 4 long
        assert len(data) == 8
        decoder = CDRDecoder(data)
        assert decoder.read_octet() == 1
        assert decoder.read_long() == 7

    def test_double_alignment(self):
        encoder = CDREncoder()
        encoder.write_octet(1)
        encoder.write_double(2.0)
        assert len(encoder.getvalue()) == 16

    def test_mixed_sequence_roundtrip(self):
        encoder = CDREncoder()
        encoder.write_octet(9)
        encoder.write_string("pad")
        encoder.write_short(-3)
        encoder.write_double(1.25)
        encoder.write_octets(b"xyz")
        decoder = CDRDecoder(encoder.getvalue())
        assert decoder.read_octet() == 9
        assert decoder.read_string() == "pad"
        assert decoder.read_short() == -3
        assert decoder.read_double() == 1.25
        assert decoder.read_octets() == b"xyz"
        assert decoder.at_end()


class TestAny:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**62,
            2**100,          # bignum path
            -(2**100),
            1.75,
            "text",
            b"bytes",
            [1, "two", 3.0],
            {"a": 1, "b": [True, None]},
            [],
            {},
        ],
    )
    def test_any_roundtrip(self, value):
        encoder = CDREncoder()
        encoder.write_any(value)
        assert CDRDecoder(encoder.getvalue()).read_any() == value

    def test_bool_is_not_confused_with_int(self):
        encoder = CDREncoder()
        encoder.write_any(True)
        result = CDRDecoder(encoder.getvalue()).read_any()
        assert result is True

    def test_nested_structures(self):
        value = {"rows": [{"id": 1, "blob": b"\x00"}, {"id": 2, "blob": b"\x01"}]}
        encoder = CDREncoder()
        encoder.write_any(value)
        assert CDRDecoder(encoder.getvalue()).read_any() == value

    def test_unmarshalable_value_raises(self):
        encoder = CDREncoder()
        with pytest.raises(MARSHAL):
            encoder.write_any(object())

    def test_non_string_map_key_raises(self):
        encoder = CDREncoder()
        with pytest.raises(MARSHAL):
            encoder.write_any({1: "x"})


class TestErrors:
    def test_underrun_raises_marshal(self):
        with pytest.raises(MARSHAL):
            CDRDecoder(b"\x00").read_long()

    def test_truncated_string_raises_marshal(self):
        encoder = CDREncoder()
        encoder.write_string("hello")
        data = encoder.getvalue()[:-2]
        with pytest.raises(MARSHAL):
            CDRDecoder(data).read_string()

    def test_unknown_any_tag_raises(self):
        with pytest.raises(MARSHAL):
            CDRDecoder(b"\xfe").read_any()


class TestValueHelpers:
    def test_encode_decode_values(self):
        values = ("a", 1, [2.5], {"k": b"v"})
        assert decode_values(encode_values(*values)) == values

    def test_empty_values(self):
        assert decode_values(encode_values()) == ()


class TestStringDecoding:
    """Malformed UTF-8 on the wire must surface as MARSHAL, not a bare
    UnicodeDecodeError leaking out of the decoder."""

    @staticmethod
    def _string_wire(raw: bytes) -> bytes:
        encoder = CDREncoder()
        encoder.write_ulong(len(raw))
        encoder.write_raw(raw)
        return encoder.getvalue()

    def test_truncated_multibyte_sequence_raises_marshal(self):
        # First two bytes of the three-byte encoding of the euro sign.
        wire = self._string_wire(b"\xe2\x82")
        with pytest.raises(MARSHAL, match="UTF-8"):
            CDRDecoder(wire).read_string()

    def test_invalid_byte_raises_marshal(self):
        wire = self._string_wire(b"ab\xff")
        with pytest.raises(MARSHAL, match="UTF-8"):
            CDRDecoder(wire).read_string()

    def test_lone_continuation_byte_raises_marshal(self):
        wire = self._string_wire(b"\x80")
        with pytest.raises(MARSHAL, match="UTF-8"):
            CDRDecoder(wire).read_string()

    def test_valid_multibyte_still_decodes(self):
        encoder = CDREncoder()
        encoder.write_string("€λ")
        assert CDRDecoder(encoder.getvalue()).read_string() == "€λ"


class TestTagCoverage:
    """Every `any` tag decodes; encoder-producible ones round-trip."""

    @pytest.mark.parametrize(
        "value,expected_tag",
        [
            (None, cdr.TAG_NULL),
            (True, cdr.TAG_BOOLEAN),
            (False, cdr.TAG_BOOLEAN),
            (7, cdr.TAG_LONGLONG),
            (-(2**63), cdr.TAG_LONGLONG),
            (2**63 - 1, cdr.TAG_LONGLONG),
            (2**63, cdr.TAG_BIGNUM),
            (-(2**63) - 1, cdr.TAG_BIGNUM),
            (2.5, cdr.TAG_DOUBLE),
            ("hi", cdr.TAG_STRING),
            (b"\x00\x01", cdr.TAG_OCTETS),
            ([1, "two"], cdr.TAG_SEQUENCE),
            ({"k": 1}, cdr.TAG_MAP),
        ],
    )
    def test_encoded_tag_and_roundtrip(self, value, expected_tag):
        encoder = CDREncoder()
        encoder.write_any(value)
        wire = encoder.getvalue()
        assert wire[0] == expected_tag
        assert CDRDecoder(wire).read_any() == value

    def test_bytearray_encodes_as_octets(self):
        encoder = CDREncoder()
        encoder.write_any(bytearray(b"xy"))
        wire = encoder.getvalue()
        assert wire[0] == cdr.TAG_OCTETS
        assert CDRDecoder(wire).read_any() == b"xy"

    def test_tuple_decodes_as_list(self):
        encoder = CDREncoder()
        encoder.write_any((1, 2))
        assert CDRDecoder(encoder.getvalue()).read_any() == [1, 2]

    @pytest.mark.parametrize("value", [2**80, -(2**80), 2**200, -(2**200)])
    def test_bignum_sign_roundtrip(self, value):
        encoder = CDREncoder()
        encoder.write_any(value)
        wire = encoder.getvalue()
        assert wire[0] == cdr.TAG_BIGNUM
        decoded = CDRDecoder(wire).read_any()
        assert decoded == value
        assert (decoded < 0) == (value < 0)

    @pytest.mark.parametrize(
        "tag,writer,value",
        [
            (cdr.TAG_OCTET, "write_octet", 200),
            (cdr.TAG_SHORT, "write_short", -1234),
            (cdr.TAG_USHORT, "write_ushort", 65535),
            (cdr.TAG_LONG, "write_long", -(2**31)),
            (cdr.TAG_ULONG, "write_ulong", 2**32 - 1),
            (cdr.TAG_FLOAT, "write_float", 1.5),
        ],
    )
    def test_decode_only_tags(self, tag, writer, value):
        # The encoder never emits these tags for `any`, but a peer may;
        # hand-build the tagged buffer and decode it.
        encoder = CDREncoder()
        encoder.write_octet(tag)
        getattr(encoder, writer)(value)
        assert CDRDecoder(encoder.getvalue()).read_any() == value


def _encoded(value):
    encoder = CDREncoder()
    encoder.write_any(value)
    return encoder.getvalue()


class _Key(str):
    """A str subclass, as callers' enum-like key types often are."""


class _CaseFoldedKey(str):
    """A str subclass equal to any key with the same case-folded text."""

    def __eq__(self, other):
        return isinstance(other, str) and self.lower() == other.lower()

    def __hash__(self):
        return hash(self.lower())


class TestMapKeys:
    """Map keys travel as ulong length + UTF-8 of their own text."""

    @pytest.mark.parametrize("key", [1, b"k", None, ("a", "b")],
                             ids=["int", "bytes", "None", "tuple"])
    def test_non_str_key_raises_marshal(self, codec_path, key):
        # Also after a str key was written in the same map.
        for value in ({key: "x"}, {"warm": 1, key: "x"}):
            with pytest.raises(MARSHAL, match="map keys must be str"):
                _encoded(value)

    @pytest.mark.parametrize("kind", [_Key, _CaseFoldedKey])
    def test_str_subclass_key_encodes_its_own_text(self, codec_path, kind):
        # Encoding the lower-case keys first must not change how a key
        # that compares equal to them is written.
        _encoded({"symbol": 1, "naïve": [2.5]})
        subclassed = {kind("Symbol"): 1, kind("Naïve"): [2.5]}
        assert _encoded(subclassed) == _encoded({"Symbol": 1, "Naïve": [2.5]})
        decoded = CDRDecoder(_encoded(subclassed)).read_any()
        assert [(type(key), key) for key in decoded] == [
            (str, "Symbol"), (str, "Naïve")
        ]


class TestDecoderInput:
    @pytest.mark.parametrize("wrap", [bytearray, memoryview, bytes])
    def test_buffer_types_decode_alike(self, codec_path, wrap):
        value = {"s": "€λ", "b": b"\x00\x01", "n": [1, 2, 3, 4], "k": {"x": None}}
        decoded = CDRDecoder(wrap(_encoded(value))).read_any()
        assert decoded == value
        assert type(decoded["b"]) is bytes

    def test_decoder_does_not_see_later_buffer_changes(self, codec_path):
        # The decoder copies a mutable input once, so the caller may
        # reuse its receive buffer as soon as the decoder exists.
        buffer = bytearray(_encoded(["first", b"payload"]))
        decoder = CDRDecoder(buffer)
        del buffer[:]
        buffer += _encoded(["other", b"bytes!!"])
        assert decoder.read_any() == ["first", b"payload"]
