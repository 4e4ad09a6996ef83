"""Master<->slave mailboxes with two swappable backends.

Both backends live in one process and expose the same star topology: every
slave holds exactly one channel, to the master, and no slave-to-slave channel
can be constructed.  :class:`MasterEndpoint` owns every channel and hands
each slave its :class:`SlaveEndpoint`.  The backend chooses only the codec,
that is, how a message's term payload moves:

* ``mp`` marshals the payload through the binary wire format below, ships
  the bytes, and rebuilds fresh term tuples on receipt: the
  serialize/copy/deserialize cost of a message-passing library, with every
  payload byte accounted.
* ``sm`` hands the message over by reference, a zero-copy ownership
  transfer; it accounts one handle transfer per message instead of bytes.
  After sending, the sending side must not touch the payload again.

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

Wire format: ``u32 term_count``, then per term ``u8 sign`` (0 plus, 1
minus), ``u32 magnitude_byte_len``, the magnitude bytes (little-endian,
minimal length), then the packed monomial itself as ``W`` big-endian bytes,
``W = ceil(FIELD_BITS * nsymbols / 8)``.  The u32s are little-endian.  The
monomial's bytes are the field layout of :mod:`parterm.terms`, left-padded
with zero bits to whole bytes: symbol 0's field comes first, and every field
is its guard bit and its 32 value bits, so a valid monomial always encodes
and every decoded exponent is a u32.

Both directions take the program's ``nsymbols``, which fixes ``W``, and both
reject a monomial with a guard bit set or with a bit at or above ``1 <<
(FIELD_BITS * nsymbols)``: a :class:`WireError` names the monomial's offset.
Every header, coefficient, truncation and trailing-byte check names its
offset too.  Because every monomial of a message has the same width, its
bytes compare in the same order as the ints: the wire keeps the canonical
order.

A monomial is one ``int.to_bytes`` on the way out and one ``int.from_bytes``
on the way in.  That is why the codec keeps no memo of monomials it has
seen: on a 5,456-term, 4-symbol payload its round trip costs about what a
per-field codec (``(symbol id, exponent)`` pairs) cost with every monomial
already memoized, and a quarter of that codec's cold round trip (2-core
host, CPython 3.11).  Without state, the same call works in any process and
nothing grows with a run.  ``mp`` therefore copies everything:
the receiver's term tuples, coefficients and monomials are all new objects
built from the bytes.

Per-slave mailboxes hold at most ``MAILBOX_BOUND`` messages; a send to a full
mailbox blocks until the slave drains it.
"""

from __future__ import annotations

import enum
import queue
import struct
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Optional, Sequence

from .terms import FIELD_BITS, Term, guard_mask

MAILBOX_BOUND = 16

_U32 = struct.Struct("<I")
_TERM_HDR = struct.Struct("<BI")
_U32_MAX = 0xFFFFFFFF


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


def _width(nsymbols: int) -> int:
    """Bytes of one monomial on the wire: its ``FIELD_BITS * nsymbols`` bits,
    rounded up to whole bytes."""
    return (FIELD_BITS * nsymbols + 7) >> 3


def _invalid_bits(nsymbols: int) -> int:
    """The bits a valid monomial leaves clear: its guard bits and every bit
    from ``FIELD_BITS * nsymbols`` up.  The mask is negative, so a negative
    int meets it too."""
    return guard_mask(nsymbols) | -(1 << (FIELD_BITS * nsymbols))


def _bad_monomial(nsymbols: int, offset: int) -> WireError:
    return WireError(f"monomial has a guard bit set (an exponent over u32) or a "
                     f"bit beyond the fields of nsymbols {nsymbols}", offset)


def serialize_terms(ts: Sequence[Term], nsymbols: int) -> bytes:
    """Encode ``ts``; a monomial that is not valid for ``nsymbols`` symbols
    raises :class:`WireError` naming the offset it would have had."""
    if len(ts) > _U32_MAX:
        raise WireError(f"term count {len(ts)} exceeds u32", 0)
    width = _width(nsymbols)
    invalid = _invalid_bits(nsymbols)
    header = _TERM_HDR.pack
    parts = [_U32.pack(len(ts))]
    append = parts.append
    for coeff, mono in ts:
        if coeff < 0:
            sign, mag = 1, -coeff
        else:
            sign, mag = 0, coeff
        mag_len = (mag.bit_length() + 7) >> 3
        if mag_len > _U32_MAX:
            raise WireError("coefficient magnitude exceeds u32 byte length", 0)
        append(header(sign, mag_len))
        append(mag.to_bytes(mag_len, "little"))
        if mono & invalid:
            raise _bad_monomial(nsymbols, sum(map(len, parts)))
        append(mono.to_bytes(width, "big"))
    return b"".join(parts)


def deserialize_terms(data: bytes, nsymbols: int) -> tuple[Term, ...]:
    """Decode and validate ``data``; each monomial is one ``int.from_bytes``."""
    n = len(data)
    width = _width(nsymbols)
    invalid = _invalid_bits(nsymbols)
    header = _TERM_HDR.unpack_from
    from_bytes = int.from_bytes

    if n < 4:
        raise WireError("truncated input", 0)
    (term_count,) = _U32.unpack_from(data, 0)
    offset = 4
    out: list[Term] = []
    append = out.append
    for _ in range(term_count):
        if offset + 5 > n:
            raise WireError("truncated input", offset)
        sign, mag_len = header(data, offset)
        if sign > 1:
            raise WireError(f"invalid sign byte {sign}", offset)
        offset += 5
        end = offset + mag_len
        if end > n:
            raise WireError("truncated input", offset)
        if mag_len:
            if not data[end - 1]:
                raise WireError("non-minimal coefficient magnitude", offset)
            mag = from_bytes(data[offset:end], "little")
        elif sign:
            raise WireError("negative zero coefficient", offset)
        else:
            mag = 0
        offset = end
        end = offset + width
        if end > n:
            raise WireError("truncated input", offset)
        mono = from_bytes(data[offset:end], "big")
        if mono & invalid:
            raise _bad_monomial(nsymbols, offset)
        offset = end
        append((-mag if sign else mag, mono))
    if offset != n:
        raise WireError("overlong input (trailing bytes)", offset)
    return tuple(out)


BACKENDS = ("mp", "sm")


class MasterEndpoint:
    """The master's side of every channel: the slaves' mailboxes, its own
    inbox, the closed flags and the counters, which need no lock because
    only the master counts.  A queue record is the message itself under
    ``sm``, and its fields with the payload as wire bytes under ``mp``.
    ``wait_ns`` is the time the master has spent waiting on its inbox."""

    def __init__(self, backend: str, nslaves: int, nsymbols: int):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        if nslaves < 1:
            raise ValueError("transport needs at least one slave")
        self.nslaves = nslaves
        self.nsymbols = nsymbols
        self._copy = backend == "mp"
        self._outboxes = [queue.Queue(maxsize=MAILBOX_BOUND) for _ in range(nslaves)]
        self._inbox: queue.Queue = queue.Queue()
        self._closed = [False] * nslaves
        self._m2s = 0
        self._s2m = 0
        self._bytes = 0
        self.wait_ns = 0

    def _encode(self, msg: Message):
        if not self._copy:
            return msg
        return (msg.kind, msg.expr, msg.detail, msg.metrics,
                serialize_terms(msg.payload, self.nsymbols))

    def _decode(self, record) -> Message:
        if not self._copy:
            return record
        kind, expr, detail, metrics, wire = record
        payload = deserialize_terms(wire, self.nsymbols)
        return Message(kind, payload, expr, detail, metrics)

    def slave(self, worker: int) -> "SlaveEndpoint":
        return SlaveEndpoint(self, worker)

    def send(self, worker: int, msg: Message) -> None:
        if not 0 <= worker < self.nslaves:
            raise ValueError(f"no slave {worker}; slave ids are 0..{self.nslaves - 1}")
        if self._closed[worker]:
            raise ChannelClosedError(f"channel to slave {worker} is shut down")
        if msg.kind is MessageKind.CHUNK_ASSIGNMENT and not msg.payload:
            raise ValueError("ChunkAssignment payload must be nonempty")
        record = self._encode(msg)
        self._outboxes[worker].put(record)
        self._m2s += 1
        if self._copy:
            self._bytes += len(record[-1])
        if msg.kind is MessageKind.SHUTDOWN:
            self._closed[worker] = True

    def recv_any(self, block: bool = True) -> Optional[tuple[int, Message]]:
        """The next ``(slave id, message)``, or None if ``block`` is false and
        nothing is waiting; the message counts once it is taken.  Only the
        wait for it adds to ``wait_ns``: decoding it is the master's work."""
        t0 = perf_counter_ns()
        try:
            worker, record = self._inbox.get(block=block)
        except queue.Empty:
            return None
        finally:
            self.wait_ns += perf_counter_ns() - t0
        self._s2m += 1
        if self._copy:
            self._bytes += len(record[-1])
        return worker, self._decode(record)

    def stats(self) -> TransportStats:
        """Wire bytes under ``mp``; under ``sm`` one handle per message."""
        handles = 0 if self._copy else self._m2s + self._s2m
        return TransportStats(self._m2s, self._s2m, self._bytes, handles)


class SlaveEndpoint:
    """A slave's single channel, to the master; no slave-addressing API exists."""

    def __init__(self, master: MasterEndpoint, worker: int):
        self._master = master
        self.worker = worker
        self._closed = False
        self.received_ns = 0

    def recv(self) -> Message:
        """The next message; ``received_ns`` is when it left the mailbox, so
        its decode counts as the slave's work, not as waiting."""
        if self._closed:
            raise ChannelClosedError(f"slave {self.worker} channel is shut down")
        master = self._master
        record = master._outboxes[self.worker].get()
        self.received_ns = perf_counter_ns()
        msg = master._decode(record)
        if msg.kind is MessageKind.SHUTDOWN:
            self._closed = True
        return msg

    def encode(self, msg: Message):
        """``msg`` as the record :meth:`reply` sends: encoded now, sent later."""
        return self._master._encode(msg)

    def reply(self, msg) -> None:
        """Send a :class:`Message`, or a record :meth:`encode` made of one."""
        if self._closed:
            raise ChannelClosedError(f"slave {self.worker} channel is shut down")
        record = self.encode(msg) if isinstance(msg, Message) else msg
        self._master._inbox.put((self.worker, record))
