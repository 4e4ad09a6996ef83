import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parterm.transport import (
    MAILBOX_BOUND,
    ChannelClosedError,
    Message,
    MessageKind,
    TransportStats,
    WireError,
    deserialize_terms,
    make_transport,
    serialize_terms,
)

from parterm.terms import EXP_MASK

from oracles import hand_wire_bytes, pack, pack_terms, random_terms

NSYM = 4


# -- wire format -------------------------------------------------------------

def test_golden_minus_one_unit_term():
    data = serialize_terms([(-1, 0)], NSYM)
    assert data == (
        b"\x01\x00\x00\x00"  # term count 1
        b"\x01"              # sign: minus
        b"\x01\x00\x00\x00"  # magnitude length 1
        b"\x01"              # magnitude 1
        b"\x00\x00"          # factor count 0
    )
    assert deserialize_terms(data, NSYM) == ((-1, 0),)


def test_golden_empty_sequence_is_header_only():
    assert serialize_terms([], NSYM) == b"\x00\x00\x00\x00"
    assert deserialize_terms(b"\x00\x00\x00\x00", NSYM) == ()


def test_golden_zero_coefficient():
    z = pack(((2, 1),), 3)
    data = serialize_terms([(0, z)], 3)
    assert data == b"\x01\x00\x00\x00" b"\x00" b"\x00\x00\x00\x00" b"\x01\x00" \
                   b"\x02\x00\x00\x00" b"\x01\x00\x00\x00"
    assert deserialize_terms(data, 3) == ((0, z),)


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
    assert data == hand_wire_bytes(ts)


@pytest.mark.parametrize("data,fragment,offset", [
    (b"\x01\x00", "truncated", 0),
    (b"\x02\x00\x00\x00" b"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00",
     "truncated", 11),
    (b"\x01\x00\x00\x00" b"\x00" b"\xff\xff\xff\x0f" b"\x01", "truncated", 9),
    (b"\x00\x00\x00\x00" b"\xaa", "overlong", 4),
    (b"\x01\x00\x00\x00" b"\x02" b"\x00\x00\x00\x00" b"\x00\x00", "invalid sign", 4),
    (b"\x01\x00\x00\x00" b"\x00" b"\x02\x00\x00\x00" b"\x01\x00" b"\x00\x00",
     "non-minimal", 9),
    (b"\x01\x00\x00\x00" b"\x01" b"\x00\x00\x00\x00" b"\x00\x00", "negative zero", 9),
    (b"\x01\x00\x00\x00" b"\x00" b"\x00\x00\x00\x00" b"\x01\x00"
     b"\x03\x00\x00\x00" b"\x00\x00\x00\x00", "zero exponent", 11),
    (b"\x01\x00\x00\x00" b"\x00" b"\x00\x00\x00\x00" b"\x02\x00"
     b"\x03\x00\x00\x00" b"\x01\x00\x00\x00" b"\x02\x00\x00\x00" b"\x01\x00\x00\x00",
     "strictly increasing", 19),
])
def test_malformed_wire_bytes_name_the_offset(data, fragment, offset):
    with pytest.raises(WireError) as err:
        deserialize_terms(data, NSYM)
    assert fragment in str(err.value)
    assert err.value.offset == offset
    assert f"offset {offset}" in str(err.value)


def test_serialize_rejects_oversized_fields():
    # 2**32 in a field sets its guard bit: not a valid monomial, not a u32
    for sid in range(NSYM):
        with pytest.raises(WireError, match="u32"):
            serialize_terms([(1, pack(((sid, EXP_MASK),), NSYM) + pack(((sid, 1),), NSYM))],
                            NSYM)
    with pytest.raises(WireError, match="nsymbols"):
        serialize_terms([(1, 1 << (33 * NSYM))], NSYM)
    many = 70000  # exponent 1 for every symbol: more factors than a u16 counts
    ones = int(("0" * 32 + "1") * many, 2)
    with pytest.raises(WireError, match="u16"):
        serialize_terms([(1, ones)], many)


def test_largest_exponent_round_trips_in_every_field():
    for sid in range(NSYM):
        other = (sid + 1) % NSYM
        ts = ((1, ((sid, EXP_MASK),)), (-2, tuple(sorted([(sid, EXP_MASK), (other, 7)]))))
        data = serialize_terms(pack_terms(ts, NSYM), NSYM)
        assert data == hand_wire_bytes(ts)
        assert deserialize_terms(data, NSYM) == pack_terms(ts, NSYM)


def test_decode_rejects_symbol_ids_beyond_the_program():
    data = hand_wire_bytes([(1, ((1, 2),))])
    assert deserialize_terms(data, 2) == ((1, pack(((1, 2),), 2)),)
    with pytest.raises(WireError, match="symbol id 1 >= nsymbols 1") as err:
        deserialize_terms(data, 1)
    assert err.value.offset == 12


# -- backends ----------------------------------------------------------------

@pytest.mark.parametrize("backend", ["mp", "sm"])
def test_loopback_fidelity(backend):
    transport = make_transport(backend, nslaves=2, nsymbols=NSYM)
    master = transport.master_endpoint()
    slave = transport.slave_endpoint(1)
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
    transport = make_transport(backend, nslaves=2, nsymbols=NSYM)
    failed = Message(MessageKind.FAILED, detail="Traceback ...\nRuntimeError: x")
    record = object()  # opaque to the transport, like the engine's WorkerMetrics
    last_run = Message(MessageKind.RUN_RETURN, payload=((3, 0),), metrics=record)
    slave = transport.slave_endpoint(1)
    master = transport.master_endpoint()
    slave.reply(failed)
    assert master.recv_any() == (1, failed)
    # the detail is not part of the wire payload: an empty run's 4 bytes
    assert transport.stats().serialized_bytes == (4 if backend == "mp" else 0)
    slave.reply(last_run)
    frm, got = master.recv_any()
    assert frm == 1 and got == last_run and got.metrics is record
    # nor are the metrics: only the one-term run's bytes come on top
    run_bytes = len(hand_wire_bytes([(3, ())]))
    assert transport.stats().serialized_bytes == (4 + run_bytes if backend == "mp" else 0)


def test_mp_copies_but_sm_transfers_ownership():
    payload = pack_terms(((5, ((0, 2),)),), NSYM)
    mp = make_transport("mp", 1, NSYM)
    mp.master_endpoint().send(0, Message(MessageKind.CHUNK_ASSIGNMENT, payload))
    got = mp.slave_endpoint(0).recv()
    assert got.payload == payload and got.payload is not payload

    sm = make_transport("sm", 1, NSYM)
    sm.master_endpoint().send(0, Message(MessageKind.CHUNK_ASSIGNMENT, payload))
    assert sm.slave_endpoint(0).recv().payload is payload


def test_mp_accounting_is_exact_per_message():
    transport = make_transport("mp", 1, NSYM)
    master = transport.master_endpoint()
    factors = ((5, ((0, 2),)),)  # one term: 4 + (1+4+1+2+8) = 20 bytes
    payload = pack_terms(factors, NSYM)
    master.send(0, Message(MessageKind.CHUNK_ASSIGNMENT, payload))
    stats = transport.stats()
    assert stats.serialized_bytes == len(hand_wire_bytes(factors)) == 20
    assert stats.messages_master_to_slave == 1
    assert stats.handle_transfers == 0


def test_sm_accounting_counts_handles_not_bytes():
    transport = make_transport("sm", 1, NSYM)
    master = transport.master_endpoint()
    payload = pack_terms(((5, ((0, 2),)),), NSYM)
    master.send(0, Message(MessageKind.CHUNK_ASSIGNMENT, payload))
    stats = transport.stats()
    assert stats.serialized_bytes == 0
    assert stats.handle_transfers == 1
    assert stats.messages_master_to_slave == 1


@pytest.mark.parametrize("backend", ["mp", "sm"])
def test_reply_counts_once_the_master_takes_it(backend):
    transport = make_transport(backend, 2, NSYM)
    factors = ((5, ((0, 2),)),)  # one term: 20 bytes on the wire
    transport.slave_endpoint(1).reply(
        Message(MessageKind.RUN_RETURN, payload=pack_terms(factors, NSYM)))
    assert transport.stats() == TransportStats()  # the slave counts nothing
    transport.master_endpoint().recv_any()
    assert transport.stats() == (TransportStats(0, 1, 20, 0) if backend == "mp"
                                 else TransportStats(0, 1, 0, 1))


def test_accounting_sums_both_directions():
    rng = random.Random(83)
    transport = make_transport("mp", 2, NSYM)
    master = transport.master_endpoint()
    slaves = [transport.slave_endpoint(i) for i in range(2)]
    expected = 0
    for i in range(6):
        payload = tuple(random_terms(rng, NSYM, rng.randint(1, 5)))
        expected += len(hand_wire_bytes(payload))
        master.send(i % 2, Message(MessageKind.CHUNK_ASSIGNMENT, pack_terms(payload, NSYM)))
        got = slaves[i % 2].recv()
        reply = tuple(random_terms(rng, NSYM, rng.randint(0, 4)))
        expected += len(hand_wire_bytes(reply))
        slaves[i % 2].reply(Message(MessageKind.RUN_RETURN, payload=pack_terms(reply, NSYM)))
        master.recv_any()
    assert transport.stats().serialized_bytes == expected
    assert transport.stats().messages == 12


def test_chunk_assignment_validation():
    transport = make_transport("sm", 1, NSYM)
    master = transport.master_endpoint()
    with pytest.raises(ValueError, match="nonempty"):
        master.send(0, Message(MessageKind.CHUNK_ASSIGNMENT, ()))


@pytest.mark.parametrize("backend", ["mp", "sm"])
def test_channel_closed_after_shutdown(backend):
    transport = make_transport(backend, 1, NSYM)
    master = transport.master_endpoint()
    slave = transport.slave_endpoint(0)
    master.send(0, Message(MessageKind.SHUTDOWN))
    with pytest.raises(ChannelClosedError):
        master.send(0, Message(MessageKind.SORT))
    assert slave.recv().kind is MessageKind.SHUTDOWN
    with pytest.raises(ChannelClosedError):
        slave.recv()
    with pytest.raises(ChannelClosedError):
        slave.reply(Message(MessageKind.RUN_RETURN))


def test_star_topology_has_no_slave_to_slave_api():
    transport = make_transport("sm", 2, NSYM)
    slave = transport.slave_endpoint(0)
    # The only transmit primitive a slave has is reply-to-master: it takes no
    # destination, and no send() exists on the slave side.
    assert not hasattr(slave, "send")
    assert not hasattr(slave, "recv_any")
    import inspect
    params = list(inspect.signature(slave.reply).parameters)
    assert params == ["msg"]
    # The master addresses slaves by id only; -1 (the computing master's
    # metrics key) and nslaves are no slave, not the last or the first one.
    master = transport.master_endpoint()
    for bad in (-1, 2):
        with pytest.raises(ValueError, match=f"no slave {bad}"):
            master.send(bad, Message(MessageKind.SORT))
    assert transport.stats().messages == 0


def test_bounded_mailbox_blocks_sender():
    transport = make_transport("sm", 1, NSYM)
    master = transport.master_endpoint()
    done = threading.Event()

    def sender():
        for i in range(MAILBOX_BOUND + 1):
            master.send(0, Message(MessageKind.CHUNK_ASSIGNMENT, ((1, 0),), expr=i))
        done.set()

    th = threading.Thread(target=sender, daemon=True)
    th.start()
    time.sleep(0.2)
    assert not done.is_set()  # the last send is blocked on the full mailbox
    assert transport.stats().messages_master_to_slave == MAILBOX_BOUND
    slave = transport.slave_endpoint(0)
    assert slave.recv().expr == 0
    th.join(timeout=2.0)
    assert done.is_set()
    assert [slave.recv().expr for _ in range(MAILBOX_BOUND)] == list(range(1, MAILBOX_BOUND + 1))


def test_recv_any_nonblocking():
    transport = make_transport("sm", 1, NSYM)
    master = transport.master_endpoint()
    assert master.recv_any(block=False) is None
    transport.slave_endpoint(0).reply(Message(MessageKind.RUN_RETURN))
    assert master.recv_any(block=False) == (0, Message(MessageKind.RUN_RETURN))


def test_make_transport_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        make_transport("tcp", 1, NSYM)

