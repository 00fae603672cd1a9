"""The shard wire protocol: framing, CRC, codecs, leak registry."""

from __future__ import annotations

import socket
import struct
from array import array

import pytest

from repro.shard import transport
from repro.shard.transport import (
    Channel,
    TransportError,
    active_channel_count,
    pack_columns,
    pack_result,
    transport_counters,
    unpack_columns,
    unpack_result,
)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    left, right = Channel(a, name="left"), Channel(b, name="right")
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_roundtrip(self, pair):
        left, right = pair
        left.send_obj(transport.PING, {"hello": 1})
        ftype, body = right.recv_obj(timeout=5)
        assert ftype == transport.PING
        assert body == {"hello": 1}

    def test_empty_payload(self, pair):
        left, right = pair
        left.send(transport.SHUTDOWN, b"")
        ftype, flags, payload = right.recv(timeout=5)
        assert (ftype, payload) == (transport.SHUTDOWN, b"")

    def test_eof_raises_kind_eof(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(TransportError) as info:
            right.recv(timeout=5)
        assert info.value.kind == "eof"

    def test_timeout_raises_kind_timeout(self, pair):
        _left, right = pair
        with pytest.raises(TransportError) as info:
            right.recv(timeout=0.05)
        assert info.value.kind == "timeout"

    def test_bad_magic_raises_protocol(self):
        a, b = socket.socketpair()
        try:
            with Channel(b, name="victim") as channel:
                a.sendall(b"XXXX" + bytes(transport._HEADER.size - 4))
                with pytest.raises(TransportError) as info:
                    channel.recv(timeout=5)
                assert info.value.kind == "protocol"
        finally:
            a.close()

    def test_crc_mismatch_detected_and_counted(self):
        a, b = socket.socketpair()
        before = transport_counters()["crc_failures"]
        try:
            with Channel(b, name="victim") as channel:
                payload = b"corrupted"
                header = transport._HEADER.pack(
                    transport.MAGIC, transport.OK, 0, 0, len(payload), 0xDEADBEEF
                )
                a.sendall(header + payload)
                with pytest.raises(TransportError) as info:
                    channel.recv(timeout=5)
                assert info.value.kind == "crc"
        finally:
            a.close()
        assert transport_counters()["crc_failures"] == before + 1

    def test_oversized_length_rejected_before_allocation(self):
        a, b = socket.socketpair()
        try:
            with Channel(b, name="victim") as channel:
                header = transport._HEADER.pack(
                    transport.MAGIC, transport.OK, 0, 0,
                    transport.MAX_PAYLOAD_BYTES + 1, 0,
                )
                a.sendall(header)
                with pytest.raises(TransportError) as info:
                    channel.recv(timeout=5)
                assert info.value.kind == "protocol"
        finally:
            a.close()

    def test_counters_track_traffic(self, pair):
        left, right = pair
        before = transport_counters()
        left.send_obj(transport.PING, {"n": 1})
        right.recv(timeout=5)
        after = transport_counters()
        assert after["frames_sent"] == before["frames_sent"] + 1
        assert after["frames_received"] == before["frames_received"] + 1
        assert after["bytes_sent"] > before["bytes_sent"]


class TestPickleFallback:
    def test_json_unfriendly_payload_rides_pickle_rung(self, pair):
        left, right = pair
        before = transport_counters()["pickle_fallbacks"]
        left.send_obj(transport.CHAOS, {"bytes": b"\x00\x01"})
        ftype, body = right.recv_obj(timeout=5)
        assert body == {"bytes": b"\x00\x01"}
        assert transport_counters()["pickle_fallbacks"] == before + 1


class TestColumnCodec:
    COLUMNS = (
        [("a", 1), ("b", 2)],
        [(10,), (20,)],
        [100, 200],
        [150, 250],
    )

    @staticmethod
    def _as_lists(columns):
        """Endpoint columns come back packed; compare every column by value."""
        return tuple(list(column) for column in columns)

    def test_roundtrip(self):
        spans, blob = pack_columns(self.COLUMNS)
        assert [s["column"] for s in spans] == ["keys", "payloads", "starts", "ends"]
        assert self._as_lists(unpack_columns(spans, blob)) == self.COLUMNS

    def test_endpoints_unpack_packed_and_repack_to_the_same_bytes(self):
        """``array('q')`` (stdlib, so no numpy needed): 8 bytes a value where
        a list holds a boxed int; negative and 63-bit values survive, and
        what was unpacked packs again to the bytes it came from."""
        columns = ([("k",)] * 3, [()] * 3, [-5, 0, 2**62], [-1, 7, 2**63 - 1])
        spans, blob = pack_columns(columns)
        got = unpack_columns(spans, blob)
        assert [type(column) for column in got[2:]] == [array, array]
        assert [column.typecode for column in got[2:]] == ["q", "q"]
        assert self._as_lists(got) == columns
        assert pack_columns(got) == (spans, blob)

    def test_result_keys_shared_by_the_sender_are_shared_after_unpack(self):
        """Pickle memoises by identity: a key column built from rows that
        share one key tuple costs one tuple on the wire and one in the
        receiver, and the frame is smaller than with a private tuple a row."""
        shared_key = ("k7", 7)
        n = 200
        rest = ([(number,) for number in range(n)], list(range(n)), list(range(n)))
        shared = pack_result({"rank": 0}, ([shared_key] * n, *rest))
        private = pack_result({"rank": 0}, ([tuple(["k7", 7]) for _ in range(n)], *rest))
        keys = unpack_result(shared)[1][0]
        assert keys == [shared_key] * n
        assert all(key is keys[0] for key in keys)
        assert len(shared) < len(private)

    def test_endpoints_pack_as_i64(self):
        spans, blob = pack_columns(self.COLUMNS)
        starts = next(s for s in spans if s["column"] == "starts")
        assert starts["codec"] == "i64"
        raw = blob[starts["offset"] : starts["offset"] + starts["length"]]
        assert struct.unpack("!2q", raw) == (100, 200)

    def test_values_come_back_as_the_type_they_were_sent(self):
        """What a JSON span turned into a list (a tuple-valued attribute) or
        refused (bytes, a set) round-trips exactly, and counts as no fallback."""
        columns = (
            [((1, 2), "a"), ((3, 4), "b")],
            [(b"raw", None), (frozenset({3}), 2.5)],
            [0, 5],
            [1, 9],
        )
        before = transport_counters()["pickle_fallbacks"]
        got = self._as_lists(unpack_result(pack_result({"rank": 0}, columns))[1])
        assert got == columns
        assert [[type(v) for row in column for v in row] for column in got[:2]] == [
            [type(v) for row in column for v in row] for column in columns[:2]
        ]
        assert transport_counters()["pickle_fallbacks"] == before

    def test_result_roundtrip_with_and_without_columns(self):
        meta = {"rank": 3, "cost": 1.5}
        payload = pack_result(meta, self.COLUMNS)
        got_meta, got_columns = unpack_result(payload)
        assert got_meta == meta
        assert self._as_lists(got_columns) == self.COLUMNS
        got_meta, got_columns = unpack_result(pack_result(meta, None))
        assert (got_meta, got_columns) == (meta, None)

    def test_truncated_result_rejected(self):
        with pytest.raises(TransportError):
            unpack_result(b"\x00\x00")
        whole = pack_result({"rank": 0}, self.COLUMNS)
        with pytest.raises(TransportError):
            unpack_result(whole[:12])


class TestLeakRegistry:
    def test_close_deregisters_and_is_idempotent(self):
        baseline = active_channel_count()
        a, b = socket.socketpair()
        left, right = Channel(a), Channel(b)
        assert active_channel_count() == baseline + 2
        left.close()
        left.close()
        right.close()
        assert active_channel_count() == baseline

    def test_send_after_close_raises_eof(self):
        a, b = socket.socketpair()
        left, right = Channel(a), Channel(b)
        left.close()
        right.close()
        with pytest.raises(TransportError) as info:
            left.send(transport.PING, b"")
        assert info.value.kind == "eof"
