import random
import struct
import threading
import zlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parterm.transport import (
    ChannelClosedError,
    MasterEndpoint,
    Message,
    MessageKind,
    SlaveEndpoint,
    TransportStats,
    WireError,
    deserialize_terms,
    serialize_terms,
)

from parterm.engine import RunConfig, WorkerError, run_program
from parterm.parser import parse_program
from parterm.terms import EXP_MASK

from oracles import hand_crc32, hand_wire_bytes, pack, pack_terms, random_terms

NSYM = 4


# -- wire format -------------------------------------------------------------

def _int(v):
    """``v`` as marshal version 2 writes an int that fits an i32."""
    return b"i" + struct.pack("<i", v)


def _header(count):
    return b"(" + struct.pack("<I", count)


def _sealed(body):
    """``body`` and its CRC-32, computed by hand."""
    return body + struct.pack("<I", hand_crc32(body))


def test_golden_minus_one_unit_term():
    data = serialize_terms((-1, 0), NSYM)
    assert data == _sealed(
        b"(\x02\x00\x00\x00"  # a tuple of 2 elements
        b"i\xff\xff\xff\xff"  # the coefficient -1
        b"i\x00\x00\x00\x00"  # the unit monomial 0
    )
    assert deserialize_terms(data, NSYM) == (-1, 0)


def test_golden_empty_sequence_is_header_only():
    # no elements: the tuple header, then its CRC
    assert serialize_terms((), NSYM) == _sealed(b"(\x00\x00\x00\x00")
    assert deserialize_terms(_sealed(b"(\x00\x00\x00\x00"), NSYM) == ()


def test_golden_zero_coefficient():
    # x2 of 3 symbols: exponent 1 in the lowest field, so the int 1.
    z = pack(((2, 1),), 3)
    data = serialize_terms((0, z), 3)
    assert data == _sealed(_header(2) + _int(0) + _int(1))
    assert deserialize_terms(data, 3) == (0, z)


def test_golden_monomial_past_an_i32_is_its_15_bit_digits():
    # x0^2 * x3 of 4 symbols: x3's exponent is bit 0 and x0's field starts
    # at bit 99, so 2 sets bit 100.  2**100 + 1 has 101 bits, 7 digits: the
    # lowest is 1, the top one 2**(100 - 90) = 0x400, and 5 zeros between.
    data = serialize_terms((1, pack(((0, 2), (3, 1)), NSYM)), NSYM)
    assert data[10:-4] == (b"l\x07\x00\x00\x00" b"\x01\x00" + b"\x00\x00" * 5
                           + b"\x00\x04")


st_terms = st.lists(
    st.tuples(
        st.integers(-(10**30), 10**30),
        st.lists(st.integers(0, 6), min_size=0, max_size=4).map(
            lambda exps: tuple((sid, e) for sid, e in enumerate(exps) if e))),
    max_size=8)


@given(st_terms)
@settings(max_examples=200)
def test_round_trip_identity(ts):
    packed = pack_terms(ts, NSYM)
    assert deserialize_terms(serialize_terms(packed, NSYM), NSYM) == packed


@given(st_terms)
@settings(max_examples=100)
def test_serialization_matches_hand_encoder(ts):
    packed = pack_terms(ts, NSYM)
    data = serialize_terms(packed, NSYM)
    assert data == hand_wire_bytes(ts, NSYM)


@pytest.mark.parametrize("nsymbols", [1, 2, 3, 5, 8])
@given(data=st.data())
@settings(max_examples=50)
def test_every_width_matches_the_hand_encoder_and_round_trips(nsymbols, data):
    # Monomials of up to 33, 66, 99, 165 and 264 bits: up to 3, 5, 7, 11
    # and 18 digits, or one i32 when below 2**31.
    exps = st.lists(st.integers(0, EXP_MASK), min_size=nsymbols, max_size=nsymbols)
    ts = data.draw(st.lists(st.tuples(
        st.integers(-(10**20), 10**20),
        exps.map(lambda es: tuple((sid, e) for sid, e in enumerate(es) if e))), max_size=6))
    wire = serialize_terms(pack_terms(ts, nsymbols), nsymbols)
    assert wire == hand_wire_bytes(ts, nsymbols)
    assert deserialize_terms(wire, nsymbols) == pack_terms(ts, nsymbols)


def test_i32_edges_of_coefficients_and_monomials_match_the_hand_encoder():
    # -2**31 and 2**31 - 1 are the last ints marshal writes as "i"; one
    # further out takes 3 digits.  x0's exponent 2**31 - 1 in 1 symbol is
    # the int 2**31 - 1, and 2**31 is the first monomial over an i32.
    for coeff in (-(1 << 31) - 1, -(1 << 31), (1 << 31) - 1, 1 << 31):
        for e in ((1 << 31) - 1, 1 << 31):
            ts = ((coeff, ((0, e),)),)
            wire = serialize_terms(pack_terms(ts, 1), 1)
            assert wire == hand_wire_bytes(ts, 1)
            assert deserialize_terms(wire, 1) == pack_terms(ts, 1)
    assert hand_wire_bytes(((-(1 << 31), ()),), 1)[5:10] == b"i\x00\x00\x00\x80"
    assert hand_wire_bytes((((1 << 31), ()),), 1)[5:10] == b"l\x03\x00\x00\x00"


# 2**40 in 4 symbols is x2^128: "l", 3 digits, the top one 2**10.
_L40 = b"l\x03\x00\x00\x00" b"\x00\x00" b"\x00\x00" b"\x00\x04"
# (1, 0): a valid 15-byte body; with its CRC, 19 bytes.
_ONE_TERM = _header(2) + _int(1) + _int(0)

MALFORMED = [  # (id, bytes, message fragment, offset): one row per rejected class
    # one bit of the last body byte flipped: the CRC at 15 no longer matches
    ("checksum", _sealed(_ONE_TERM)[:14] + b"\x01" + _sealed(_ONE_TERM)[15:],
     "checksum mismatch", 15),
    ("no-room-for-header-and-checksum", b"(\x00\x00", "truncated", 3),
    # the second element announces 3 digits and brings 1
    ("truncated", _sealed(_header(2) + _int(1) + b"l\x03\x00\x00\x00\x01\x00"),
     "truncated", 17),
    ("not-a-tuple", _sealed(b"[\x02\x00\x00\x00" + _int(1) + _int(0)), "not a tuple", 0),
    ("odd-count", _sealed(_header(1) + _int(1)), "odd element count 1", 1),
    # 2**20 elements: a 15-byte body holds at most (15 - 5) // 5 = 2
    ("count-over-the-bytes", _sealed(_header(1 << 20) + _int(1) + _int(0)),
     "element count 1048576 is more than", 1),
    ("bool", _sealed(_header(2) + _L40 + b"T"), "element is a bool", 16),
    ("float", _sealed(_header(2) + _int(1) + b"g" + struct.pack("<d", 1.0)),
     "element is a float", 10),
    ("nested-tuple", _sealed(_header(2) + _int(1) + _header(1) + _int(0)),
     "element is a tuple", 10),
    ("unknown-type-code", _sealed(_header(2) + _int(1) + b"?" + b"\x00" * 4),
     "unknown type code", 10),
    # 2**32, x3's guard bit: 3 digits, the top one 2**2
    ("guard-bit", _sealed(_header(2) + _int(1) + b"l\x03\x00\x00\x00\x00\x00\x00\x00\x04\x00"),
     "guard bit", 10),
    # 2**132, the first bit above x0's field: 9 digits, the top one 2**12
    ("beyond-the-fields",
     _sealed(_header(2) + _int(1) + b"l\x09\x00\x00\x00" + b"\x00\x00" * 8 + b"\x00\x10"),
     "beyond the fields of nsymbols 4", 10),
    # 5 as one digit: marshal reads it, and writes "i" back at 10
    ("long-for-a-small-int", _sealed(_header(2) + _int(1) + b"l\x01\x00\x00\x00\x05\x00"),
     "non-canonical", 10),
    # the same 5 before a bool: the first defect in byte order is named
    ("non-canonical-before-a-bool",
     _sealed(_header(4) + b"l\x01\x00\x00\x00\x05\x00" + b"T" + _L40 + _int(0)),
     "non-canonical", 5),
    ("trailing-bytes", _sealed(_ONE_TERM + b"\x00"), "trailing bytes", 15),
]


@pytest.mark.parametrize("data,fragment,offset", [row[1:] for row in MALFORMED],
                         ids=[row[0] for row in MALFORMED])
def test_malformed_wire_bytes_name_the_offset(data, fragment, offset):
    with pytest.raises(WireError) as err:
        deserialize_terms(data, NSYM)
    assert fragment in str(err.value)
    assert err.value.offset == offset
    assert f"offset {offset}" in str(err.value)


def test_malformed_rows_are_the_bytes_they_claim():
    assert deserialize_terms(_sealed(_ONE_TERM), NSYM) == (1, 0)
    assert hand_wire_bytes([(1 << 40, ())], NSYM)[5:16] == _L40
    assert serialize_terms((1, 1 << 40), NSYM) == _sealed(_header(2) + _int(1) + _L40)
    # every row after the short one carries the CRC of its own body
    for _, data, _, _ in MALFORMED[2:]:
        assert data[-4:] == struct.pack("<I", zlib.crc32(data[:-4]))


def test_every_bit_flip_and_truncation_is_rejected():
    ts = pack_terms(((3, ((0, 2), (1, 1))), (7, ((1, 3), (2, 1))), (-1, ((3, 5),))), NSYM)
    data = serialize_terms(ts, NSYM)
    assert 55 <= len(data) <= 70 and deserialize_terms(data, NSYM) == ts
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(WireError):
            deserialize_terms(bytes(flipped), NSYM)
    for n in range(len(data)):
        with pytest.raises(WireError):
            deserialize_terms(data[:n], NSYM)


def _hand_int(v):
    """A nonnegative ``v`` as marshal version 2 writes it, from the hand encoder."""
    return hand_wire_bytes([(v, ())], 1)[5:-4]


@pytest.mark.parametrize("nsymbols", [1, 4, 8])
def test_every_guard_and_padding_bit_is_rejected_both_ways(nsymbols):
    # Padding bits are the 40 bits above the last field.  Each bad monomial
    # is that of (1, 1 << bit): after the 5-byte header and the
    # coefficient's 5 bytes, at offset 10.
    invalid = [b for b in range(33 * nsymbols + 40) if b % 33 == 32 or b >= 33 * nsymbols]
    assert len(invalid) == nsymbols + 40
    for bit in invalid:
        with pytest.raises(WireError) as err:
            deserialize_terms(_sealed(_header(2) + _int(1) + _hand_int(1 << bit)), nsymbols)
        assert err.value.offset == 10, bit
        with pytest.raises(WireError) as err:
            serialize_terms((1, 1 << bit), nsymbols)
        assert err.value.offset == 10, bit


def test_serialize_rejects_oversized_fields_at_the_monomial_offset():
    # 2**32 in a field sets its guard bit: not a valid monomial, not a u32
    for sid in range(NSYM):
        over = pack(((sid, EXP_MASK),), NSYM) + pack(((sid, 1),), NSYM)
        with pytest.raises(WireError, match="u32") as err:
            serialize_terms((1, over), NSYM)
        assert err.value.offset == 10
    # the second term's monomial: after the header, the first term's 5 + 5
    # bytes and -300's 5
    with pytest.raises(WireError, match="nsymbols 4") as err:
        serialize_terms((1, 0, -300, 1 << (33 * NSYM)), NSYM)
    assert err.value.offset == 5 + 10 + 5
    with pytest.raises(WireError, match="nsymbols 4"):
        serialize_terms((1, -1), NSYM)


def test_largest_exponent_round_trips_in_every_field():
    for sid in range(NSYM):
        other = (sid + 1) % NSYM
        ts = ((1, ((sid, EXP_MASK),)), (-2, tuple(sorted([(sid, EXP_MASK), (other, 7)]))))
        data = serialize_terms(pack_terms(ts, NSYM), NSYM)
        assert data == hand_wire_bytes(ts, NSYM)
        assert deserialize_terms(data, NSYM) == pack_terms(ts, NSYM)


def test_decode_rejects_bytes_encoded_for_more_symbols():
    # Rejected once they use a field the reader lacks: x0 of 2 symbols is
    # 2**33, past the one field of 1 symbol, and is named at its offset.
    # The bytes carry values, not widths, so y^2 of 2 symbols, the int 2,
    # reads as x0^2 of 1.
    assert deserialize_terms(hand_wire_bytes([(1, ((1, 2),))], 2), 1) == (1, 2)
    data = hand_wire_bytes([(1, ((1, 2),)), (1, ((0, 1),))], 2)
    assert deserialize_terms(data, 2) == pack_terms([(1, ((1, 2),)), (1, ((0, 1),))], 2)
    with pytest.raises(WireError, match="nsymbols 1") as err:
        deserialize_terms(data, 1)
    assert err.value.offset == 20


# -- backends ----------------------------------------------------------------

@pytest.mark.parametrize("backend", ["mp", "sm"])
def test_loopback_fidelity(backend):
    master = MasterEndpoint(backend, nslaves=2, nsymbols=NSYM)
    slave = master.slave(1)
    payload = pack_terms(((1, ((0, 1),)), (1, ((1, 1),))), NSYM)
    sent = Message(MessageKind.CHUNK_ASSIGNMENT, payload=payload, expr=1)
    master.send(1, sent)
    got = slave.recv()
    assert got == sent
    slave.reply(slave.encode(Message(MessageKind.RUN_RETURN, payload=payload)))
    frm, echoed = master.recv_any()
    assert frm == 1
    assert echoed.payload == payload


@pytest.mark.parametrize("backend", ["mp", "sm"])
def test_failed_detail_travels_beside_the_payload(backend):
    master = MasterEndpoint(backend, nslaves=2, nsymbols=NSYM)
    failed = Message(MessageKind.FAILED, detail="Traceback ...\nRuntimeError: x")
    record = object()  # opaque to the transport, like the engine's WorkerMetrics
    last_run = Message(MessageKind.RUN_RETURN, payload=(3, 0), metrics=record)
    slave = master.slave(1)
    slave.reply(slave.encode(failed))
    assert master.recv_any() == (1, failed)
    # the detail is not part of the wire payload: an empty run's 9 bytes,
    # "(", a zero u32 count and the CRC
    assert master.stats().serialized_bytes == (9 if backend == "mp" else 0)
    slave.reply(slave.encode(last_run))
    frm, got = master.recv_any()
    assert frm == 1 and got == last_run and got.metrics is record
    # nor are the metrics: only the one-term run's bytes come on top
    run_bytes = len(hand_wire_bytes([(3, ())], NSYM))
    assert master.stats().serialized_bytes == (9 + run_bytes if backend == "mp" else 0)


def test_mp_copies_but_sm_transfers_ownership():
    payload = pack_terms(((5, ((0, 2),)), (7, ((3, 5),))), NSYM)
    mp = MasterEndpoint("mp", 1, NSYM)
    mp.send(0, Message(MessageKind.CHUNK_ASSIGNMENT, payload))
    got = mp.slave(0).recv()
    assert got.payload == payload and got.payload is not payload
    # A fresh flat tuple, and monomials rebuilt from their bytes: x0^2 is a
    # 101-bit int, so an equal one is a new object.
    assert type(got.payload) is tuple and len(got.payload) == 4
    assert got.payload[1] == payload[1] and got.payload[1] is not payload[1]

    sm = MasterEndpoint("sm", 1, NSYM)
    sm.send(0, Message(MessageKind.CHUNK_ASSIGNMENT, payload))
    assert sm.slave(0).recv().payload is payload


def test_mp_accounting_is_exact_per_message():
    master = MasterEndpoint("mp", 1, NSYM)
    # One term: the 5-byte header, 5 as "i" and an i32, x0^2 (2**100, 101
    # bits) as "l", a u32 and 7 two-byte digits, then the 4-byte CRC:
    # 5 + 5 + 19 + 4 = 33 bytes.
    factors = ((5, ((0, 2),)),)
    payload = pack_terms(factors, NSYM)
    master.send(0, Message(MessageKind.CHUNK_ASSIGNMENT, payload))
    stats = master.stats()
    assert stats.serialized_bytes == len(hand_wire_bytes(factors, NSYM)) == 33
    assert stats.messages_master_to_slave == 1
    assert stats.handle_transfers == 0


def test_sm_accounting_counts_handles_not_bytes():
    master = MasterEndpoint("sm", 1, NSYM)
    payload = pack_terms(((5, ((0, 2),)),), NSYM)
    master.send(0, Message(MessageKind.CHUNK_ASSIGNMENT, payload))
    stats = master.stats()
    assert stats.serialized_bytes == 0
    assert stats.handle_transfers == 1
    assert stats.messages_master_to_slave == 1


@pytest.mark.parametrize("backend", ["mp", "sm"])
def test_reply_counts_once_the_master_takes_it(backend):
    master = MasterEndpoint(backend, 2, NSYM)
    factors = ((5, ((0, 2),)),)  # one term: 33 bytes on the wire
    slave = master.slave(1)
    slave.reply(slave.encode(Message(MessageKind.RUN_RETURN, payload=pack_terms(factors, NSYM))))
    assert master.stats() == TransportStats()  # the slave counts nothing
    master.recv_any()
    assert master.stats() == (TransportStats(0, 1, 33, 0) if backend == "mp"
                              else TransportStats(0, 1, 0, 1))


def test_accounting_sums_both_directions():
    rng = random.Random(83)
    master = MasterEndpoint("mp", 2, NSYM)
    slaves = [master.slave(i) for i in range(2)]
    expected = 0
    for i in range(6):
        payload = tuple(random_terms(rng, NSYM, rng.randint(1, 5)))
        expected += len(hand_wire_bytes(payload, NSYM))
        master.send(i % 2, Message(MessageKind.CHUNK_ASSIGNMENT, pack_terms(payload, NSYM)))
        slave = slaves[i % 2]
        got = slave.recv()
        reply = tuple(random_terms(rng, NSYM, rng.randint(0, 4)))
        expected += len(hand_wire_bytes(reply, NSYM))
        slave.reply(slave.encode(Message(MessageKind.RUN_RETURN, payload=pack_terms(reply, NSYM))))
        master.recv_any()
    assert master.stats().serialized_bytes == expected
    assert master.stats().messages == 12


def test_chunk_assignment_validation():
    master = MasterEndpoint("sm", 1, NSYM)
    with pytest.raises(ValueError, match="nonempty"):
        master.send(0, Message(MessageKind.CHUNK_ASSIGNMENT, ()))


@pytest.mark.parametrize("backend", ["mp", "sm"])
def test_channel_closed_after_shutdown(backend):
    master = MasterEndpoint(backend, 1, NSYM)
    slave = master.slave(0)
    master.send(0, Message(MessageKind.SHUTDOWN))
    with pytest.raises(ChannelClosedError):
        master.send(0, Message(MessageKind.SORT))
    assert slave.recv().kind is MessageKind.SHUTDOWN
    with pytest.raises(ChannelClosedError):
        slave.recv()
    with pytest.raises(ChannelClosedError):
        slave.reply(slave.encode(Message(MessageKind.RUN_RETURN)))


def test_star_topology_has_no_slave_to_slave_api():
    master = MasterEndpoint("sm", 2, NSYM)
    slave = master.slave(0)
    # The only transmit primitive a slave has is reply-to-master: it takes no
    # destination, and no send() exists on the slave side.
    assert not hasattr(slave, "send")
    assert not hasattr(slave, "recv_any")
    import inspect
    params = list(inspect.signature(slave.reply).parameters)
    assert params == ["record"]
    # The master addresses slaves by id only; -1 (the computing master's
    # metrics key) and nslaves are no slave, not the last or the first one.
    for bad in (-1, 2):
        with pytest.raises(ValueError, match=f"no slave {bad}"):
            master.send(bad, Message(MessageKind.SORT))
    assert master.stats().messages == 0


def _count_unread(monkeypatch, fail_worker=None):
    """Count each channel's unread messages: one up as the master sends, one
    down once the slave's recv returns, so the count is never below what
    the channel holds.  Returns the counts and a one-element list holding
    the peak.  Slave ``fail_worker`` raises in its recv before reading."""
    lock = threading.Lock()
    unread = Counter()
    peak = [0]
    real_send, real_recv = MasterEndpoint.send, SlaveEndpoint.recv

    def send(self, worker, msg):
        with lock:
            unread[worker] += 1
            peak[0] = max(peak[0], unread[worker])
        real_send(self, worker, msg)

    def recv(self):
        if self.worker == fail_worker:
            raise RuntimeError("injected fault")
        msg = real_recv(self)
        with lock:
            unread[self.worker] -= 1
        return msg

    monkeypatch.setattr(MasterEndpoint, "send", send)
    monkeypatch.setattr(SlaveEndpoint, "recv", recv)
    return unread, peak


_TWO_MODULES = parse_program("symbols x,y; local F = (x+y)^6; local G = x-y; "
                             "multiply x+y; .sort id x = y+1; .sort .end")
_UNREAD_GRID = [RunConfig(nslaves=n, chunk_size=c, backend=b, master_computes=mc)
                for n in (1, 2, 4) for c in (1, 7, 1000) for b in ("mp", "sm")
                for mc in (False, True)]


def test_channels_hold_at_most_one_unread_message(monkeypatch):
    # The channels are unbounded because the protocol bounds them: a chunk,
    # a Sort or a Shutdown goes to a slave only after it answered the last.
    unread, peak = _count_unread(monkeypatch)
    for cfg in _UNREAD_GRID:
        unread.clear()
        peak[0] = 0
        run_program(_TWO_MODULES, cfg)
        assert peak[0] == 1, cfg
        assert not any(unread.values()), cfg  # every slave read its Shutdown


def test_a_failure_leaves_at_most_two_unread_messages(monkeypatch):
    # Slave 0 fails before reading its first chunk, so the Shutdown that
    # follows is its channel's second unread message.
    unread, peak = _count_unread(monkeypatch, fail_worker=0)
    for cfg in _UNREAD_GRID:
        unread.clear()
        peak[0] = 0
        with pytest.raises(WorkerError, match="worker 0 failed: RuntimeError: injected fault"):
            run_program(_TWO_MODULES, cfg)
        assert peak[0] == 2 and unread[0] == 2, cfg


@pytest.mark.parametrize("backend", ["mp", "sm"])
def test_zero_slave_endpoint_starts_and_closes_nothing(backend, monkeypatch):
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    master = MasterEndpoint(backend, 0, NSYM)
    master.start(lambda endpoint: None)
    master.close()
    assert started == []
    assert master.recv_any(block=False) is None
    assert master.stats() == TransportStats()
    with pytest.raises(ValueError, match="no slave 0"):
        master.send(0, Message(MessageKind.SORT))


def test_start_runs_the_loop_per_slave_and_close_joins_it():
    seen = {}

    def loop(endpoint, tag):
        msg = endpoint.recv()
        seen[endpoint.worker] = (threading.current_thread().name, tag, msg.kind)

    master = MasterEndpoint("sm", 3, NSYM)
    master.start(loop, "t")
    master.close()
    assert seen == {i: (f"parterm-worker-{i}", "t", MessageKind.SHUTDOWN) for i in range(3)}
    assert master.stats().messages_master_to_slave == 3


def test_recv_any_nonblocking():
    master = MasterEndpoint("sm", 1, NSYM)
    assert master.recv_any(block=False) is None
    slave = master.slave(0)
    slave.reply(slave.encode(Message(MessageKind.RUN_RETURN)))
    assert master.recv_any(block=False) == (0, Message(MessageKind.RUN_RETURN))


def test_master_endpoint_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        MasterEndpoint("tcp", 1, NSYM)

