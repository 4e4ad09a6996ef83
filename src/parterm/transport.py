"""The master-slave substrate: the workers, their channels and two swappable codecs.

:class:`MasterEndpoint` is the whole substrate: it starts every slave, feeds
it through its one channel and joins it, and is the only class that knows
where a slave runs.  Here each slave runs on a daemon thread of this process
and each channel is a pair of unbounded queues.  Both backends expose the
same star topology: every slave holds exactly one channel, to the master,
through its :class:`SlaveEndpoint`, and no slave-to-slave channel can be
constructed.  The backend chooses only the codec, that is, how a message's
term payload moves:

* ``mp`` marshals the payload through the binary wire format below, ships
  the bytes, and decodes a fresh flat tuple from them on receipt: the
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

A payload is a flat term batch ``(c0, m0, c1, m1, ...)``, the one form of
an expression (see :mod:`parterm.terms`): ``sm`` hands over that very tuple,
and ``mp``'s wire carries it as it is, so neither codec builds or takes apart
a term.

Wire format: the payload tuple crosses as ``marshal.dumps(payload, 2)`` and
the CRC-32 of those bytes, a little-endian u32: one C call encodes it and
one decodes it, with no per-term work in the interpreter, as ParFORM hands
FORM's term buffers to MPI.  Version 2 writes every int by value, ``i`` and
an i32 if it fits, else ``l``, its signed digit count and its 15-bit
digits; versions 3 and up write back-references, so the bytes would depend
on which ints happen to be one object.  The checksum comes first because
marshal trusts a header: it allocates what a count announces before it
finds the bytes short.  So a changed byte never reaches marshal.  A forged
message with a valid checksum still does, and marshal allocates a nested
tuple in it at its announced length and an ``l`` element at its announced
digit count: 29 bytes announcing 2^24 digits take 32 MiB before the decode
fails as truncated, and the i32 count allows 2^31 - 1 digits, about 4 GiB
(ROADMAP item 9).

:func:`deserialize_terms` checks, in order: the checksum; the header, a
tuple of an even count of elements that the bytes can hold, at 5 bytes an
int at least; marshal's decode; that every element is an ``int``, not a
bool, a float or a tuple; that no monomial has a guard bit set or a bit
beyond the fields of ``nsymbols`` symbols (:func:`parterm.terms.invalid_bits`;
the transport reads no field itself); and that re-encoding gives back the
very bytes, which rejects trailing bytes and non-canonical encodings.
:func:`serialize_terms` runs the monomial check first.  Every
:class:`WireError` names an offset, found only once a check has failed.
``mp`` copies everything: the receiver's tuple, coefficients and monomials
are new objects that marshal built from the bytes.

The channels need no bound: the session protocol lets a channel hold at most
one unread message, or two when a Shutdown follows a slave's failure.
"""

from __future__ import annotations

import enum
import io
import marshal
import queue
import threading
import zlib
from functools import reduce
from operator import countOf, or_
from time import perf_counter_ns
from typing import Callable, NamedTuple, Optional

from .terms import Expression, invalid_bits

_VERSION = 2
_HEADER = 5    # "(" and the u32 element count
_CRC = 4
_MIN_INT = 5   # "i" and an i32: the shortest encoding of an int


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


class Message(NamedTuple):
    """One message; ``expr`` is the index of the local expression a chunk or
    a run belongs to, ``detail`` the traceback a ``FAILED`` carries, and
    ``metrics`` the per-module record a module's last ``RUN_RETURN`` carries.
    On an ``mp`` channel ``payload`` holds the wire bytes."""

    kind: MessageKind
    payload: Expression | bytes = ()
    expr: int = 0
    detail: str = ""
    metrics: object = None


class TransportStats(NamedTuple):
    messages_master_to_slave: int = 0
    messages_slave_to_master: int = 0
    serialized_bytes: int = 0
    handle_transfers: int = 0

    def __sub__(self, other: "TransportStats") -> "TransportStats":
        return TransportStats(*map(int.__sub__, self, other))

    @property
    def messages(self) -> int:
        return self.messages_master_to_slave + self.messages_slave_to_master


def _first_difference(a: bytes, b: bytes) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _element_error(body: bytes, flat: tuple, j: int, message: str) -> WireError:
    """``message`` at element ``j``: the length of the canonical encoding of
    the elements before it, unless they differ from it in ``body`` first."""
    prefix = marshal.dumps(flat[:j], _VERSION)
    at = _HEADER + _first_difference(body[_HEADER:len(prefix)], prefix[_HEADER:])
    return WireError("non-canonical encoding" if at < len(prefix) else message, at)


def _monomial_error(flat: tuple, nsymbols: int, body: bytes) -> WireError:
    """The error for the first monomial of ``flat`` that meets the invalid bits."""
    invalid = invalid_bits(nsymbols)
    j = next(j for j in range(1, len(flat), 2) if flat[j] & invalid)
    return _element_error(body, flat, j, f"monomial has a guard bit set (an exponent over "
                                         f"u32) or a bit beyond the fields of nsymbols {nsymbols}")


def _unreadable(body: bytes, exc: Exception) -> WireError:
    """Where marshal gave up on ``body``: the end of a truncated body, else
    the last byte that a reread from a file consumed before it raised."""
    if isinstance(exc, EOFError):
        return WireError("truncated input", len(body))
    f = io.BytesIO(body)
    try:
        marshal.load(f)
    except (ValueError, TypeError):
        pass
    return WireError(f"unreadable element: {exc}", f.tell() - 1)


def serialize_terms(flat: Expression, nsymbols: int) -> bytes:
    """Encode the flat term batch ``flat``; a monomial that is not valid for
    ``nsymbols`` symbols raises :class:`WireError` naming the offset it would
    have had."""
    if reduce(or_, flat[1::2], 0) & invalid_bits(nsymbols):
        raise _monomial_error(flat, nsymbols, marshal.dumps(flat, _VERSION))
    body = marshal.dumps(flat, _VERSION)
    return body + zlib.crc32(body).to_bytes(_CRC, "little")


def deserialize_terms(data: bytes, nsymbols: int) -> Expression:
    """Check and decode ``data``, in the order the module docstring gives,
    into the flat term batch it carries."""
    n = len(data) - _CRC
    if n < _HEADER:
        raise WireError("truncated input", len(data))
    body = data[:n]
    if zlib.crc32(body) != int.from_bytes(data[n:], "little"):
        raise WireError("checksum mismatch", n)
    if body[0] != ord("("):
        raise WireError("payload is not a tuple", 0)
    count = int.from_bytes(body[1:_HEADER], "little")
    if count & 1:
        raise WireError(f"odd element count {count}", 1)
    if count > (n - _HEADER) // _MIN_INT:
        raise WireError(f"element count {count} is more than {n} bytes can hold", 1)
    try:
        flat = marshal.loads(body)
    except (EOFError, ValueError, TypeError) as exc:
        raise _unreadable(body, exc) from None
    if countOf(map(type, flat), int) != len(flat):
        j = next(j for j, x in enumerate(flat) if type(x) is not int)
        raise _element_error(body, flat, j, f"element is a {type(flat[j]).__name__}")
    if reduce(or_, flat[1::2], 0) & invalid_bits(nsymbols):
        raise _monomial_error(flat, nsymbols, body)
    canonical = marshal.dumps(flat, _VERSION)
    if canonical != body:
        at = _first_difference(body, canonical)
        raise WireError("trailing bytes" if at == len(canonical) else
                        "non-canonical encoding", at)
    return flat


BACKENDS = ("mp", "sm")


class MasterEndpoint:
    """The master's side of every channel: the slaves it started, their
    mailboxes, its own inbox, the closed flags and the counters, which need
    no lock because only the master counts.  A queue record is a
    :class:`Message`: the one sent under ``sm``, and under ``mp`` a copy of it
    whose payload is the wire bytes.  ``wait_ns`` is the time the master has spent waiting on its
    inbox.  With ``nslaves=0`` there are no channels: :meth:`start` and
    :meth:`close` do nothing and the counters stay at zero."""

    def __init__(self, backend: str, nslaves: int, nsymbols: int):
        self.nslaves = nslaves
        self.nsymbols = nsymbols
        self._copy = backend == "mp"
        self._outboxes = [queue.SimpleQueue() for _ in range(nslaves)]
        self._inbox = queue.SimpleQueue()
        self._closed = [False] * nslaves
        self._threads: list[threading.Thread] = []
        self._m2s = 0
        self._s2m = 0
        self._bytes = 0
        self.wait_ns = 0

    def start(self, loop: Callable[..., None], *args) -> None:
        """Run ``loop(self.slave(i), *args)`` for every slave ``i``, each on a
        daemon thread named ``parterm-worker-{i}``."""
        for i in range(self.nslaves):
            th = threading.Thread(target=loop, args=(self.slave(i), *args),
                                  name=f"parterm-worker-{i}", daemon=True)
            th.start()
            self._threads.append(th)

    def close(self) -> None:
        """Send ``Shutdown`` to every started slave and join it.

        A send never blocks, so this returns also after a failure: a failed
        slave has stopped and never reads its Shutdown, and a live one reads
        it after whatever its channel still holds.
        """
        for i in range(len(self._threads)):
            self.send(i, Message(MessageKind.SHUTDOWN))
        for th in self._threads:
            th.join()

    def _encode(self, msg: Message) -> Message:
        if not self._copy:
            return msg
        return msg._replace(payload=serialize_terms(msg.payload, self.nsymbols))

    def _decode(self, record: Message) -> Message:
        if not self._copy:
            return record
        return record._replace(payload=deserialize_terms(record.payload, self.nsymbols))

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
            self._bytes += len(record.payload)
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
            self._bytes += len(record.payload)
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

    def encode(self, msg: Message) -> Message:
        """``msg`` as the record :meth:`reply` sends: encoded now, sent later."""
        return self._master._encode(msg)

    def reply(self, record: Message) -> None:
        """Send a record that :meth:`encode` made."""
        if self._closed:
            raise ChannelClosedError(f"slave {self.worker} channel is shut down")
        self._master._inbox.put((self.worker, record))
