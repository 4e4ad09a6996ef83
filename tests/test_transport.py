import itertools
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parterm.transport import (
    MAILBOX_BOUND,
    ChannelClosedError,
    MasterEndpoint,
    Message,
    MessageKind,
    TransportStats,
    WireError,
    deserialize_terms,
    serialize_terms,
)

from parterm.terms import EXP_MASK

from oracles import hand_wire_bytes, pack, pack_terms, random_terms

NSYM = 4


# -- wire format -------------------------------------------------------------

# Monomial widths: 33 bits a symbol, rounded up to bytes.
W4 = 17  # 4 symbols: 132 bits, 4 padding bits on top
W3 = 13  # 3 symbols: 99 bits


def test_golden_minus_one_unit_term():
    data = serialize_terms([(-1, 0)], NSYM)
    assert data == (
        b"\x01\x00\x00\x00"  # term count 1
        b"\x01"              # sign: minus
        b"\x01\x00\x00\x00"  # magnitude length 1
        b"\x01"              # magnitude 1
        + b"\x00" * W4       # the unit monomial
    )
    assert deserialize_terms(data, NSYM) == ((-1, 0),)


def test_golden_empty_sequence_is_header_only():
    assert serialize_terms([], NSYM) == b"\x00\x00\x00\x00"
    assert deserialize_terms(b"\x00\x00\x00\x00", NSYM) == ()


def test_golden_zero_coefficient():
    # x2 of 3 symbols: exponent 1 in the lowest field, so only bit 0 is set.
    z = pack(((2, 1),), 3)
    data = serialize_terms([(0, z)], 3)
    assert data == b"\x01\x00\x00\x00" b"\x00" b"\x00\x00\x00\x00" \
                   + b"\x00" * (W3 - 1) + b"\x01"
    assert deserialize_terms(data, 3) == ((0, z),)


def test_golden_monomial_bytes_are_the_fields_big_endian():
    # x0^2 * x3 of 4 symbols: x3's exponent is bit 0 and x0's field starts
    # at bit 99, so 2 sets bit 100: bit 4 of the byte 100 // 8 = 12 from the
    # end, that is, of byte 4 of 17.
    data = serialize_terms([(1, pack(((0, 2), (3, 1)), NSYM))], NSYM)
    assert data[10:] == b"\x00" * 4 + b"\x10" + b"\x00" * 11 + b"\x01"


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
    # Widths 5, 9, 13, 21 and 33 bytes: 7, 6, 5, 3 and 0 padding bits.
    exps = st.lists(st.integers(0, EXP_MASK), min_size=nsymbols, max_size=nsymbols)
    ts = data.draw(st.lists(st.tuples(
        st.integers(-(10**20), 10**20),
        exps.map(lambda es: tuple((sid, e) for sid, e in enumerate(es) if e))), max_size=6))
    wire = serialize_terms(pack_terms(ts, nsymbols), nsymbols)
    assert wire == hand_wire_bytes(ts, nsymbols)
    assert deserialize_terms(wire, nsymbols) == pack_terms(ts, nsymbols)


st_monomial = st.lists(st.integers(0, EXP_MASK), min_size=NSYM, max_size=NSYM).map(
    lambda exps: pack(tuple((sid, e) for sid, e in enumerate(exps) if e), NSYM))


@given(st.lists(st_monomial, min_size=2, max_size=12))
@settings(max_examples=200)
def test_monomial_blocks_compare_as_bytes_in_int_order(monos):
    data = serialize_terms([(0, m) for m in monos], NSYM)
    # Each zero-coefficient term is 5 header bytes, then its W4 monomial bytes.
    blocks = [data[4 + 5 + i * (5 + W4):4 + (i + 1) * (5 + W4)] for i in range(len(monos))]
    assert all(len(b) == W4 for b in blocks)
    assert sorted(range(len(monos)), key=blocks.__getitem__) \
        == sorted(range(len(monos)), key=monos.__getitem__)
    for (a, ba), (b, bb) in itertools.combinations(zip(monos, blocks), 2):
        assert (a < b) == (ba < bb) and (a == b) == (ba == bb)


# One term of coefficient 1 (header b"\x00\x01\x00\x00\x00\x01" at offsets 4-9),
# then a 4-symbol monomial from offset 10.
_ONE_TERM = b"\x01\x00\x00\x00" b"\x00" b"\x01\x00\x00\x00" b"\x01"


def _with_bit(bit):
    """The 17 monomial bytes with only ``bit`` set (bit 0 is the last byte's lowest)."""
    return (1 << bit).to_bytes(W4, "big")


MALFORMED = [
    (b"\x01\x00", "truncated", 0),
    # two terms: a zero-coefficient unit term fills offsets 4-25, the
    # second's 5-byte header is cut at 26
    (b"\x02\x00\x00\x00" + b"\x00" * (5 + W4) + b"\x00\x00", "truncated", 26),
    # the monomial starts at 10 and has 16 of its 17 bytes
    (_ONE_TERM + b"\x00" * (W4 - 1), "truncated", 10),
    (b"\x01\x00\x00\x00" b"\x00" b"\xff\xff\xff\x0f" b"\x01", "truncated", 9),
    (b"\x00\x00\x00\x00" b"\xaa", "overlong", 4),
    (_ONE_TERM + b"\x00" * W4 + b"\x00", "overlong", 10 + W4),
    (b"\x01\x00\x00\x00" b"\x02" b"\x00\x00\x00\x00" + b"\x00" * W4, "invalid sign", 4),
    (b"\x01\x00\x00\x00" b"\x00" b"\x02\x00\x00\x00" b"\x01\x00" + b"\x00" * W4,
     "non-minimal", 9),
    (b"\x01\x00\x00\x00" b"\x01" b"\x00\x00\x00\x00" + b"\x00" * W4, "negative zero", 9),
    # x3's guard bit, bit 32: byte 12 of the monomial is 0x01
    (_ONE_TERM + _with_bit(32), "guard bit", 10),
    # x0's guard bit, bit 3 * 33 + 32 = 131: the first byte is 0x08
    (_ONE_TERM + _with_bit(131), "guard bit", 10),
    # bit 132, the lowest padding bit above x0's field: the first byte is 0x10
    (_ONE_TERM + _with_bit(132), "beyond the fields of nsymbols 4", 10),
]


@pytest.mark.parametrize("data,fragment,offset", MALFORMED)
def test_malformed_wire_bytes_name_the_offset(data, fragment, offset):
    with pytest.raises(WireError) as err:
        deserialize_terms(data, NSYM)
    assert fragment in str(err.value)
    assert err.value.offset == offset
    assert f"offset {offset}" in str(err.value)


def test_malformed_rows_are_the_bytes_they_claim():
    assert _with_bit(32)[12] == 0x01 and _with_bit(131)[0] == 0x08
    assert _with_bit(132)[0] == 0x10
    good = _ONE_TERM + b"\x00" * W4
    assert deserialize_terms(good, NSYM) == ((1, 0),)


@pytest.mark.parametrize("nsymbols", [1, 4, 8])
def test_every_guard_and_padding_bit_is_rejected_both_ways(nsymbols):
    width = (33 * nsymbols + 7) // 8
    invalid = [b for b in range(8 * width) if b % 33 == 32 or b >= 33 * nsymbols]
    assert len(invalid) == nsymbols + 8 * width - 33 * nsymbols
    for bit in invalid:
        with pytest.raises(WireError) as err:
            deserialize_terms(_ONE_TERM + (1 << bit).to_bytes(width, "big"), nsymbols)
        assert err.value.offset == 10, bit
        with pytest.raises(WireError) as err:
            serialize_terms([(1, 1 << bit)], nsymbols)
        assert err.value.offset == 10, bit
    # the first bit past the last byte exists only on the encoding side
    with pytest.raises(WireError):
        serialize_terms([(1, 1 << (8 * width))], nsymbols)


def test_serialize_rejects_oversized_fields_at_the_monomial_offset():
    # 2**32 in a field sets its guard bit: not a valid monomial, not a u32
    for sid in range(NSYM):
        over = pack(((sid, EXP_MASK),), NSYM) + pack(((sid, 1),), NSYM)
        with pytest.raises(WireError, match="u32") as err:
            serialize_terms([(1, over)], NSYM)
        assert err.value.offset == 10
    # the second term's monomial: after 4 + (6 + W4) bytes and its own 5 + 2
    with pytest.raises(WireError, match="nsymbols 4") as err:
        serialize_terms([(1, 0), (-300, 1 << (33 * NSYM))], NSYM)
    assert err.value.offset == 4 + (6 + W4) + 7
    with pytest.raises(WireError, match="nsymbols 4"):
        serialize_terms([(1, -1)], NSYM)


def test_largest_exponent_round_trips_in_every_field():
    for sid in range(NSYM):
        other = (sid + 1) % NSYM
        ts = ((1, ((sid, EXP_MASK),)), (-2, tuple(sorted([(sid, EXP_MASK), (other, 7)]))))
        data = serialize_terms(pack_terms(ts, NSYM), NSYM)
        assert data == hand_wire_bytes(ts, NSYM)
        assert deserialize_terms(data, NSYM) == pack_terms(ts, NSYM)


def test_decode_rejects_bytes_encoded_for_more_symbols():
    # Encoded for 2 symbols a monomial is 9 bytes; read for 1 it is 5.
    data = hand_wire_bytes([(1, ((1, 2),))], 2)
    assert deserialize_terms(data, 2) == ((1, pack(((1, 2),), 2)),)
    with pytest.raises(WireError, match="overlong") as err:
        deserialize_terms(data, 1)
    assert err.value.offset == 15  # 4 + 6 header bytes, then 5 monomial bytes
    # x0^(2**31) sets bit 64 of 72, which read as 1 symbol's 40 bits is bit
    # 32: that symbol's guard bit
    data = hand_wire_bytes([(1, ((0, 1 << 31),))], 2)
    with pytest.raises(WireError, match="guard bit") as err:
        deserialize_terms(data, 1)
    assert err.value.offset == 10


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
    slave.reply(Message(MessageKind.RUN_RETURN, payload=payload))
    frm, echoed = master.recv_any()
    assert frm == 1
    assert echoed.payload == payload


@pytest.mark.parametrize("backend", ["mp", "sm"])
def test_failed_detail_travels_beside_the_payload(backend):
    master = MasterEndpoint(backend, nslaves=2, nsymbols=NSYM)
    failed = Message(MessageKind.FAILED, detail="Traceback ...\nRuntimeError: x")
    record = object()  # opaque to the transport, like the engine's WorkerMetrics
    last_run = Message(MessageKind.RUN_RETURN, payload=((3, 0),), metrics=record)
    slave = master.slave(1)
    slave.reply(failed)
    assert master.recv_any() == (1, failed)
    # the detail is not part of the wire payload: an empty run's 4 bytes
    assert master.stats().serialized_bytes == (4 if backend == "mp" else 0)
    slave.reply(last_run)
    frm, got = master.recv_any()
    assert frm == 1 and got == last_run and got.metrics is record
    # nor are the metrics: only the one-term run's bytes come on top
    run_bytes = len(hand_wire_bytes([(3, ())], NSYM))
    assert master.stats().serialized_bytes == (4 + run_bytes if backend == "mp" else 0)


def test_mp_copies_but_sm_transfers_ownership():
    payload = pack_terms(((5, ((0, 2),)), (7, ((3, 5),))), NSYM)
    mp = MasterEndpoint("mp", 1, NSYM)
    mp.send(0, Message(MessageKind.CHUNK_ASSIGNMENT, payload))
    got = mp.slave(0).recv()
    assert got.payload == payload and got.payload is not payload
    # Fresh term tuples, and monomials rebuilt from their bytes: x0^2 is a
    # 101-bit int, so an equal one is a new object.
    assert all(g is not p for g, p in zip(got.payload, payload))
    assert got.payload[0][1] == payload[0][1] and got.payload[0][1] is not payload[0][1]

    sm = MasterEndpoint("sm", 1, NSYM)
    sm.send(0, Message(MessageKind.CHUNK_ASSIGNMENT, payload))
    assert sm.slave(0).recv().payload is payload


def test_mp_accounting_is_exact_per_message():
    master = MasterEndpoint("mp", 1, NSYM)
    factors = ((5, ((0, 2),)),)  # one term: 4 + (1+4) + 1 + W4 = 27 bytes
    payload = pack_terms(factors, NSYM)
    master.send(0, Message(MessageKind.CHUNK_ASSIGNMENT, payload))
    stats = master.stats()
    assert stats.serialized_bytes == len(hand_wire_bytes(factors, NSYM)) == 27
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
    factors = ((5, ((0, 2),)),)  # one term: 27 bytes on the wire
    master.slave(1).reply(
        Message(MessageKind.RUN_RETURN, payload=pack_terms(factors, NSYM)))
    assert master.stats() == TransportStats()  # the slave counts nothing
    master.recv_any()
    assert master.stats() == (TransportStats(0, 1, 27, 0) if backend == "mp"
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
        got = slaves[i % 2].recv()
        reply = tuple(random_terms(rng, NSYM, rng.randint(0, 4)))
        expected += len(hand_wire_bytes(reply, NSYM))
        slaves[i % 2].reply(Message(MessageKind.RUN_RETURN, payload=pack_terms(reply, NSYM)))
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
        slave.reply(Message(MessageKind.RUN_RETURN))


def test_star_topology_has_no_slave_to_slave_api():
    master = MasterEndpoint("sm", 2, NSYM)
    slave = master.slave(0)
    # The only transmit primitive a slave has is reply-to-master: it takes no
    # destination, and no send() exists on the slave side.
    assert not hasattr(slave, "send")
    assert not hasattr(slave, "recv_any")
    import inspect
    params = list(inspect.signature(slave.reply).parameters)
    assert params == ["msg"]
    # The master addresses slaves by id only; -1 (the computing master's
    # metrics key) and nslaves are no slave, not the last or the first one.
    for bad in (-1, 2):
        with pytest.raises(ValueError, match=f"no slave {bad}"):
            master.send(bad, Message(MessageKind.SORT))
    assert master.stats().messages == 0


def test_bounded_mailbox_blocks_sender():
    master = MasterEndpoint("sm", 1, NSYM)
    done = threading.Event()

    def sender():
        for i in range(MAILBOX_BOUND + 1):
            master.send(0, Message(MessageKind.CHUNK_ASSIGNMENT, ((1, 0),), expr=i))
        done.set()

    th = threading.Thread(target=sender, daemon=True)
    th.start()
    time.sleep(0.2)
    assert not done.is_set()  # the last send is blocked on the full mailbox
    assert master.stats().messages_master_to_slave == MAILBOX_BOUND
    slave = master.slave(0)
    assert slave.recv().expr == 0
    th.join(timeout=2.0)
    assert done.is_set()
    assert [slave.recv().expr for _ in range(MAILBOX_BOUND)] == list(range(1, MAILBOX_BOUND + 1))


def test_recv_any_nonblocking():
    master = MasterEndpoint("sm", 1, NSYM)
    assert master.recv_any(block=False) is None
    master.slave(0).reply(Message(MessageKind.RUN_RETURN))
    assert master.recv_any(block=False) == (0, Message(MessageKind.RUN_RETURN))


def test_master_endpoint_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        MasterEndpoint("tcp", 1, NSYM)

