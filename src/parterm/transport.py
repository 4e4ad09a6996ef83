"""Master<->slave mailboxes with two swappable backends.

Both backends live in one process and expose the same star topology: every
slave holds exactly one channel, to the master, and no slave-to-slave channel
can be constructed.  They differ only in how a message's term payload moves:

* ``MessagePassingTransport`` marshals the payload through the binary wire
  format below, ships the bytes, and rebuilds fresh terms on receipt: the
  full serialize/copy/deserialize cost of a message-passing library, with
  every payload byte accounted.
* ``SharedBufferTransport`` hands the payload tuple over by reference, a
  zero-copy ownership transfer; it accounts handle transfers instead of
  bytes.  After sending, the sending side must not touch the payload again.

Messages (the session protocol that orders them is in :mod:`parterm.engine`):

* ``CHUNK_ASSIGNMENT``, master to slave: a nonempty chunk of one local
  expression, tagged with its expression index;
* ``RUN_RETURN``, slave to master: an empty acknowledgement of a chunk or,
  after a ``SORT``, the sorted run of one expression, tagged with its index;
  the module's last run also carries the slave's record for the module as
  its ``metrics``;
* ``FAILED``, slave to master: the slave's last message, carrying the
  traceback of the exception that stopped it as its detail;
* ``SORT``, master to slave: the module's sort boundary;
* ``SHUTDOWN``, master to slave: the last message on a channel, once per run.

The master addresses a slave by its id, ``0 <= id < nslaves``.  Only the term
payload goes through the wire format; kind, expression index, detail and
metrics travel beside it, and the transport never looks inside ``metrics``.

Every message starts or ends at the master, so only the master counts: a
send is counted when the master sends it, a reply when the master takes it
from its inbox.

Wire format (little-endian): ``u32 term_count``, then per term ``u8 sign``
(0 plus, 1 minus), ``u32 magnitude_byte_len``, the magnitude bytes
(little-endian, minimal length), ``u16 factor_count``, then per factor
``u32 symbol_id`` and ``u32 exponent``, by strictly increasing symbol id and
with every exponent >= 1.

The wire format is the external contract and does not know about packed
monomials.  Encoding unpacks each monomial's nonzero fields into factors;
decoding packs the factors back, so both need the program's ``nsymbols``, and
decoding rejects a symbol id ``>= nsymbols``.  A field's 32 value bits hold
exactly a u32 exponent, so every valid monomial encodes and every decoded
exponent fits.

Per-slave mailboxes hold at most ``MAILBOX_BOUND`` messages; a send to a full
mailbox blocks until the slave drains it.
"""

from __future__ import annotations

import enum
import functools
import queue
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

from .terms import EXP_MASK, FIELD_BITS, Term, field_shift, guard_mask

MAILBOX_BOUND = 16

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")
_TERM_HDR = struct.Struct("<BI")
_U32_MAX = 0xFFFFFFFF
_U16_MAX = 0xFFFF


class WireError(ValueError):
    """Malformed bytes on the message-passing wire."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ChannelClosedError(RuntimeError):
    """Use of a channel after its Shutdown message."""


class MessageKind(enum.Enum):
    CHUNK_ASSIGNMENT = "chunk"
    RUN_RETURN = "run"
    FAILED = "failed"
    SORT = "sort"
    SHUTDOWN = "shutdown"


@dataclass(frozen=True)
class Message:
    """One message; ``expr`` is the index of the local expression a chunk or
    a run belongs to, ``detail`` the traceback a ``FAILED`` carries, and
    ``metrics`` the per-module record a module's last ``RUN_RETURN`` carries."""

    kind: MessageKind
    payload: tuple[Term, ...] = ()
    expr: int = 0
    detail: str = ""
    metrics: object = None


@dataclass(frozen=True)
class TransportStats:
    messages_master_to_slave: int = 0
    messages_slave_to_master: int = 0
    serialized_bytes: int = 0
    handle_transfers: int = 0

    def __sub__(self, other: "TransportStats") -> "TransportStats":
        return TransportStats(
            self.messages_master_to_slave - other.messages_master_to_slave,
            self.messages_slave_to_master - other.messages_slave_to_master,
            self.serialized_bytes - other.serialized_bytes,
            self.handle_transfers - other.handle_transfers,
        )

    @property
    def messages(self) -> int:
        return self.messages_master_to_slave + self.messages_slave_to_master


def _shifts(nsymbols: int) -> list[int]:
    return [field_shift(sid, nsymbols) for sid in range(nsymbols)]


@functools.lru_cache(maxsize=256)
def _factor_block(count: int) -> struct.Struct:
    """``u16 factor_count`` then ``count`` (symbol id, exponent) u32 pairs."""
    return struct.Struct(f"<H{2 * count}I")


def serialize_terms(ts: Sequence[Term], nsymbols: int) -> bytes:
    if len(ts) > _U32_MAX:
        raise WireError(f"term count {len(ts)} exceeds u32", 0)
    if nsymbols > _U16_MAX:  # a term could carry more factors than a u16 counts
        raise WireError(f"{nsymbols} symbols exceed the u16 factor count", 0)
    shifts = _shifts(nsymbols)
    guard = guard_mask(nsymbols)
    limit = 1 << (FIELD_BITS * nsymbols)
    parts = [_U32.pack(len(ts))]
    append = parts.append
    for coeff, mono in ts:
        if coeff < 0:
            sign, mag = 1, -coeff
        else:
            sign, mag = 0, coeff
        mag_bytes = mag.to_bytes((mag.bit_length() + 7) // 8, "little")
        if len(mag_bytes) > _U32_MAX:
            raise WireError("coefficient magnitude exceeds u32 byte length", 0)
        if mono & guard or mono >= limit:
            raise WireError(f"monomial {mono:#x} has an exponent over u32 or a "
                            f"symbol id >= nsymbols {nsymbols}", 0)
        flat = []
        for sid, shift in enumerate(shifts):
            exp = (mono >> shift) & EXP_MASK
            if exp:
                flat += (sid, exp)
        append(_TERM_HDR.pack(sign, len(mag_bytes)))
        append(mag_bytes)
        append(_factor_block(len(flat) >> 1).pack(len(flat) >> 1, *flat))
    return b"".join(parts)


def deserialize_terms(data: bytes, nsymbols: int) -> tuple[Term, ...]:
    n = len(data)
    shifts = _shifts(nsymbols)

    def need(offset: int, count: int) -> None:
        if offset + count > n:
            raise WireError("truncated input", offset)

    need(0, 4)
    (term_count,) = _U32.unpack_from(data, 0)
    offset = 4
    out: list[Term] = []
    for _ in range(term_count):
        need(offset, 5)
        sign, mag_len = _TERM_HDR.unpack_from(data, offset)
        if sign not in (0, 1):
            raise WireError(f"invalid sign byte {sign}", offset)
        offset += 5
        need(offset, mag_len)
        mag_bytes = data[offset:offset + mag_len]
        if mag_len and mag_bytes[-1] == 0:
            raise WireError("non-minimal coefficient magnitude", offset)
        mag = int.from_bytes(mag_bytes, "little")
        if sign and mag == 0:
            raise WireError("negative zero coefficient", offset)
        offset += mag_len
        need(offset, 2)
        (factor_count,) = _U16.unpack_from(data, offset)
        if offset + 2 + 8 * factor_count > n:  # name the first incomplete factor
            need(offset + 2 + 8 * ((n - offset - 2) // 8), 8)
        flat = _factor_block(factor_count).unpack_from(data, offset)
        offset += 2
        mono = 0
        prev_sid = -1
        for i in range(1, 2 * factor_count, 2):
            sid = flat[i]
            exp = flat[i + 1]
            if sid <= prev_sid or sid >= nsymbols or not exp:
                _reject_factor(sid, exp, prev_sid, nsymbols, offset)
            prev_sid = sid
            mono += exp << shifts[sid]
            offset += 8
        out.append((-mag if sign else mag, mono))
    if offset != n:
        raise WireError("overlong input (trailing bytes)", offset)
    return tuple(out)


def _reject_factor(sid: int, exp: int, prev_sid: int, nsymbols: int, offset: int) -> None:
    if sid <= prev_sid:
        raise WireError(f"symbol ids not strictly increasing ({sid})", offset)
    if sid >= nsymbols:
        raise WireError(f"symbol id {sid} >= nsymbols {nsymbols}", offset)
    raise WireError("zero exponent", offset)


class _TransportBase:
    """Queue plumbing and accounting shared by both backends; only the
    master's endpoint counts, so the counters need no lock."""

    def __init__(self, nslaves: int, nsymbols: int):
        if nslaves < 1:
            raise ValueError("transport needs at least one slave")
        self.nslaves = nslaves
        self.nsymbols = nsymbols
        self._outboxes = [queue.Queue(maxsize=MAILBOX_BOUND) for _ in range(nslaves)]
        self._inbox: queue.Queue = queue.Queue()
        self._m2s = 0
        self._s2m = 0
        self._bytes = 0
        self._handles = 0
        self._closed = [False] * nslaves

    # Backends override: turn a Message into a queue record and back,
    # returning the accounting delta for that transfer.
    def _pack(self, msg: Message):
        raise NotImplementedError

    def _unpack(self, record) -> Message:
        raise NotImplementedError

    def _account(self, to_slave: bool, byte_delta: int, handle_delta: int) -> None:
        if to_slave:
            self._m2s += 1
        else:
            self._s2m += 1
        self._bytes += byte_delta
        self._handles += handle_delta

    def master_endpoint(self) -> "MasterEndpoint":
        return MasterEndpoint(self)

    def slave_endpoint(self, worker: int) -> "SlaveEndpoint":
        return SlaveEndpoint(self, worker)

    def stats(self) -> TransportStats:
        return TransportStats(self._m2s, self._s2m, self._bytes, self._handles)


class MasterEndpoint:
    def __init__(self, transport: _TransportBase):
        self._t = transport

    def send(self, worker: int, msg: Message) -> None:
        t = self._t
        if not 0 <= worker < t.nslaves:
            raise ValueError(f"no slave {worker}; slave ids are 0..{t.nslaves - 1}")
        if t._closed[worker]:
            raise ChannelClosedError(f"channel to slave {worker} is shut down")
        if msg.kind is MessageKind.CHUNK_ASSIGNMENT and not msg.payload:
            raise ValueError("ChunkAssignment payload must be nonempty")
        record, byte_delta, handle_delta = t._pack(msg)
        t._outboxes[worker].put(record)
        t._account(True, byte_delta, handle_delta)
        if msg.kind is MessageKind.SHUTDOWN:
            t._closed[worker] = True

    def recv_any(self, block: bool = True) -> Optional[tuple[int, Message]]:
        """The next ``(slave id, message)``, or None if ``block`` is false and
        nothing is waiting; the message counts once it is taken."""
        try:
            worker, record, byte_delta, handle_delta = self._t._inbox.get(block=block)
        except queue.Empty:
            return None
        self._t._account(False, byte_delta, handle_delta)
        return worker, self._t._unpack(record)


class SlaveEndpoint:
    """A slave's single channel, to the master; no slave-addressing API exists."""

    def __init__(self, transport: _TransportBase, worker: int):
        self._t = transport
        self.worker = worker
        self._closed = False

    def recv(self) -> Message:
        if self._closed:
            raise ChannelClosedError(f"slave {self.worker} channel is shut down")
        msg = self._t._unpack(self._t._outboxes[self.worker].get())
        if msg.kind is MessageKind.SHUTDOWN:
            self._closed = True
        return msg

    def reply(self, msg: Message) -> None:
        if self._closed:
            raise ChannelClosedError(f"slave {self.worker} channel is shut down")
        record, byte_delta, handle_delta = self._t._pack(msg)
        self._t._inbox.put((self.worker, record, byte_delta, handle_delta))


class MessagePassingTransport(_TransportBase):
    """Marshals every payload through the wire format (copying backend)."""

    def _pack(self, msg: Message):
        wire = serialize_terms(msg.payload, self.nsymbols)
        return (msg.kind, msg.expr, msg.detail, msg.metrics, wire), len(wire), 0

    def _unpack(self, record) -> Message:
        kind, expr, detail, metrics, wire = record
        return Message(kind, deserialize_terms(wire, self.nsymbols), expr, detail, metrics)


class SharedBufferTransport(_TransportBase):
    """Transfers payload ownership by reference (zero-copy backend)."""

    def _pack(self, msg: Message):
        return msg, 0, 1

    def _unpack(self, record) -> Message:
        return record


BACKENDS = {
    "mp": MessagePassingTransport,
    "sm": SharedBufferTransport,
}


def make_transport(backend: str, nslaves: int, nsymbols: int) -> _TransportBase:
    try:
        cls = BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown backend {backend!r}; expected one of {sorted(BACKENDS)}")
    return cls(nslaves, nsymbols)
