"""Tests for the GIOP message protocol."""

import pytest

from repro.orb import giop
from repro.orb.exceptions import (
    BAD_QOS,
    COMM_FAILURE,
    MARSHAL,
    SystemException,
    UserException,
    register_user_exception,
)
from repro.orb.ior import IOR, IIOPProfile
from repro.orb.request import COMMAND, Request


@pytest.fixture
def target():
    return IOR("IDL:demo/Echo:1.0", IIOPProfile("server", 683, "obj-1"))


class TestRequestMessages:
    def test_request_roundtrip(self, target):
        request = Request(target, "echo", ("hello", 42), service_contexts={"qos": "c1"})
        decoded = giop.decode_request(giop.encode_request(request))
        assert decoded.operation == "echo"
        assert decoded.args == ("hello", 42)
        assert decoded.service_contexts == {"qos": "c1"}
        assert decoded.kind == "request"
        assert decoded.command_target is None
        assert decoded.request_id == request.request_id
        assert decoded.target == target

    def test_command_roundtrip(self, target):
        request = Request(
            target, "set_codec", ("b", "rle"), kind=COMMAND, command_target="compression"
        )
        decoded = giop.decode_request(giop.encode_request(request))
        assert decoded.is_command
        assert decoded.command_target == "compression"

    def test_no_args_roundtrip(self, target):
        request = Request(target, "ping")
        decoded = giop.decode_request(giop.encode_request(request))
        assert decoded.args == ()

    def test_bad_magic_rejected(self, target):
        wire = bytearray(giop.encode_request(Request(target, "x")))
        wire[0] = ord("X")
        with pytest.raises(MARSHAL):
            giop.decode_request(bytes(wire))

    def test_reply_is_not_a_request(self, target):
        wire = giop.encode_reply(1, "ok")
        with pytest.raises(MARSHAL):
            giop.decode_request(wire)


class TestReplyMessages:
    def test_result_roundtrip(self):
        reply = giop.decode_reply(giop.encode_reply(7, {"value": [1, 2]}))
        assert reply.request_id == 7
        assert reply.value() == {"value": [1, 2]}

    def test_none_result(self):
        reply = giop.decode_reply(giop.encode_reply(1, None))
        assert reply.value() is None

    def test_system_exception_rethrown(self):
        wire = giop.encode_reply(3, exception=COMM_FAILURE("link down", minor=2))
        reply = giop.decode_reply(wire)
        with pytest.raises(COMM_FAILURE) as excinfo:
            reply.value()
        assert "link down" in str(excinfo.value)
        assert excinfo.value.minor == 2

    def test_bad_qos_crosses_wire(self):
        wire = giop.encode_reply(3, exception=BAD_QOS("not negotiated"))
        with pytest.raises(BAD_QOS):
            giop.decode_reply(wire).value()

    def test_user_exception_roundtrip(self):
        @register_user_exception
        class Overdrawn(UserException):
            repo_id = "IDL:test/Overdrawn:1.0"

        wire = giop.encode_reply(4, exception=Overdrawn("no funds", balance=-5))
        reply = giop.decode_reply(wire)
        with pytest.raises(Overdrawn) as excinfo:
            reply.value()
        assert excinfo.value.balance == -5

    def test_unregistered_user_exception_becomes_generic(self):
        class Unknown(UserException):
            repo_id = "IDL:test/Unknown:1.0"

        wire = giop.encode_reply(5, exception=Unknown("mystery", code=9))
        reply = giop.decode_reply(wire)
        with pytest.raises(UserException) as excinfo:
            reply.value()
        assert excinfo.value.code == 9
        assert excinfo.value.repo_id == "IDL:test/Unknown:1.0"

    def test_non_corba_exception_becomes_system_exception(self):
        wire = giop.encode_reply(6, exception=ValueError("oops"))
        reply = giop.decode_reply(wire)
        with pytest.raises(SystemException) as excinfo:
            reply.value()
        assert "ValueError" in str(excinfo.value)

    def test_service_contexts_roundtrip(self):
        wire = giop.encode_reply(8, "r", service_contexts={"measured": 1.5})
        assert giop.decode_reply(wire).service_contexts == {"measured": 1.5}


class TestAnySpanCaches:
    """The args/result span replay caches must be invisible: identical
    bytes on the wire, fresh mutable values on every decode."""

    def setup_method(self):
        giop.clear_caches()

    def _target(self):
        return IOR("IDL:demo/Echo:1.0", IIOPProfile("server", 683, "obj-1"))

    def test_encode_replay_is_byte_identical(self):
        payload = {"s": "x", "n": [1.5, -0.0], "m": {"deep": True}}
        request = Request(self._target(), "echo", (payload,))
        first = giop.encode_request(request)
        # Same id, same args: the second encode replays the cached span.
        second = giop.encode_request(
            Request(self._target(), "echo", (payload,),
                    request_id=request.request_id)
        )
        assert first == second

    def test_float_bit_patterns_do_not_collide(self):
        target = self._target()
        wire_pos = giop.encode_request(Request(target, "op", (0.0,)))
        wire_neg = giop.encode_request(Request(target, "op", (-0.0,)))
        # 0.0 == -0.0 in Python, but their encodings differ; the cache
        # keys by bit pattern so each decodes back to its own sign.
        assert wire_pos[:-8] != wire_neg[:-8] or wire_pos != wire_neg
        import math

        assert math.copysign(1.0, giop.decode_request(wire_neg).args[0]) < 0

    def test_decoded_args_are_mutation_isolated(self):
        payload = {"counts": [1, 2], "meta": {"tag": "a"}}
        request = Request(self._target(), "echo", (payload,))
        wire = giop.encode_request(request)
        # Decode twice (second run hits the preamble + span caches) and
        # mutate the first result in place.
        giop.decode_request(wire)  # populate
        first = giop.decode_request(wire)
        first.args[0]["counts"].append(99)
        first.args[0]["meta"]["tag"] = "mutated"
        second = giop.decode_request(wire)
        assert second.args[0] == payload

    def test_decoded_result_is_mutation_isolated(self):
        wire = giop.encode_reply(7, result={"values": [1, 2, 3]})
        giop.decode_reply(wire)  # populate
        first = giop.decode_reply(wire)
        first.result["values"].append(4)
        assert giop.decode_reply(wire).result == {"values": [1, 2, 3]}

    def test_none_result_hits_span_cache(self):
        from repro.perf import COUNTERS

        wire = giop.encode_reply(9, result=None)
        giop.decode_reply(wire)
        before = COUNTERS.any_span_hits
        assert giop.decode_reply(wire).result is None
        assert COUNTERS.any_span_hits == before + 1

    def test_unfreezable_args_bypass_the_cache(self):
        payload = bytearray(b"mutable")  # _freeze rejects bytearray
        request = Request(self._target(), "echo", (payload,))
        wire = giop.encode_request(request)
        assert giop.decode_request(wire).args == (b"mutable",)


class TestEncodeIsStateless:
    """Encoding keeps no value-keyed state: an argument or result
    mutated in place between two calls is encoded as it is now."""

    def test_request_reflects_in_place_mutation(self, target, codec_path):
        import copy

        giop.clear_caches()
        payload = {"prices": [1.5, 2.5], "meta": {"tag": "a"}, "n": 1}
        first = giop.encode_request(Request(target, "echo", (payload,), request_id=5))
        payload["prices"].append(-0.0)
        payload["meta"]["tag"] = "b"
        payload["n"] = 1.0  # equal to 1, encoded differently
        second = giop.encode_request(Request(target, "echo", (payload,), request_id=5))
        fresh = giop.encode_request(
            Request(target, "echo", (copy.deepcopy(payload),), request_id=5)
        )
        assert second != first
        assert second == fresh
        decoded = giop.decode_request(second).args[0]
        assert decoded == payload and type(decoded["n"]) is float

    def test_reply_reflects_in_place_mutation(self, codec_path):
        import copy

        giop.clear_caches()
        result = {"rows": [{"id": 1}], "ok": True}
        first = giop.encode_reply(3, result=result)
        result["rows"][0]["id"] = 2
        result["ok"] = 1
        second = giop.encode_reply(3, result=result)
        assert second != first
        assert second == giop.encode_reply(3, result=copy.deepcopy(result))
        decoded = giop.decode_reply(second).result
        assert decoded == result and type(decoded["ok"]) is int


class TestLargeTailDecode:
    """Tails above the span limit are neither stored nor probed, but
    still count as span misses."""

    def test_large_request_tail_skips_the_cache(self, target):
        from repro.perf import COUNTERS

        giop.clear_caches()
        blob = bytes(range(256)) * 20  # 5 KiB, above _SPAN_LIMIT
        wire = giop.encode_request(Request(target, "echo", (blob,)))
        giop.decode_request(wire)  # learns the preamble
        probes = giop._args_decode_cache.misses
        misses = COUNTERS.any_span_misses
        for _ in range(2):
            assert giop.decode_request(wire).args == (blob,)
        assert COUNTERS.any_span_misses == misses + 2
        assert giop._args_decode_cache.misses == probes
        assert len(giop._args_decode_cache) == 0

    def test_large_reply_tail_skips_the_cache(self):
        from repro.perf import COUNTERS

        giop.clear_caches()
        blob = bytes(range(256)) * 20
        wire = giop.encode_reply(4, result=blob)
        misses = COUNTERS.any_span_misses
        for _ in range(2):
            assert giop.decode_reply(wire).result == blob
        assert COUNTERS.any_span_misses == misses + 2
        assert giop._result_decode_cache.misses == 0
        assert len(giop._result_decode_cache) == 0
