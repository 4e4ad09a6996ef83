"""Master<->slave mailboxes with two swappable backends.

Both backends live in one process and expose the same star topology: every
slave holds exactly one channel, to the master, and no slave-to-slave channel
can be constructed.  :class:`MasterEndpoint` owns every channel and hands
each slave its :class:`SlaveEndpoint`.  The backend chooses only the codec,
that is, how a message's term payload moves:

* ``mp`` marshals the payload through the binary wire format below, ships
  the bytes, and rebuilds fresh term tuples on receipt: the
  serialize/copy/deserialize cost of a message-passing library, with every
  payload byte accounted.  The monomial ints in those tuples may be shared:
  see the codec memo below.
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

Unpacking and packing factors is most of the codec's cost, and the same
monomials cross again and again: module *k*'s output is module *k+1*'s
input, and the master decodes each run right after a worker encodes it.  So
each ``MasterEndpoint`` keeps one :class:`CodecMemo` for every channel of
the run: monomial -> factor-block bytes and factor-block bytes -> monomial.
Encoding and decoding both consult and fill it.  The wire bytes are the same
with or without it, every coefficient and header is still coded and checked,
and a block is remembered only once validated.  A decode hit returns the
memo's monomial int, the same immutable object the encoder saw.  The memo
holds at most ``MEMO_BOUND`` blocks a direction and empties itself when
full.

Per-slave mailboxes hold at most ``MAILBOX_BOUND`` messages; a send to a full
mailbox blocks until the slave drains it.
"""

from __future__ import annotations

import enum
import functools
import queue
import struct
import threading
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Optional, Sequence

from .terms import EXP_MASK, FIELD_BITS, Term, field_shift, guard_mask

MAILBOX_BOUND = 16
# Pairs a CodecMemo holds: above product-chain's 29k distinct monomials, and
# about 10-13 MB when full on a 4-symbol program.
MEMO_BOUND = 1 << 16

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


class CodecMemo:
    """An exact two-way memo of one program's factor blocks: monomial ->
    block bytes (``u16 factor_count`` and its pairs) and block bytes ->
    monomial.

    Every entry comes from a validated monomial or from validated bytes, so a
    hit needs no check.  The layout of a block depends only on ``nsymbols``,
    so a memo serves one program.  Threads may share a memo: inserts take a
    lock, so the bound holds exactly, and lookups need none, because each
    pair is right on its own and a lookup racing an insert or a reset can
    only miss.
    """

    def __init__(self, nsymbols: int):
        self.nsymbols = nsymbols
        self.blocks: dict[int, bytes] = {}
        self.monos: dict[bytes, int] = {}
        self._lock = threading.Lock()

    def remember(self, mono: int, block: bytes) -> None:
        """Add one pair; a memo holding ``MEMO_BOUND`` pairs is emptied first."""
        with self._lock:
            if len(self.blocks) >= MEMO_BOUND:
                self.blocks.clear()
                self.monos.clear()
            self.blocks[mono] = block
            self.monos[block] = mono


def _memo_for(memo: Optional[CodecMemo], nsymbols: int) -> CodecMemo:
    if memo is None:
        return CodecMemo(nsymbols)
    if memo.nsymbols != nsymbols:
        raise ValueError(f"memo is for {memo.nsymbols} symbols, not {nsymbols}")
    return memo


def serialize_terms(ts: Sequence[Term], nsymbols: int,
                    memo: Optional[CodecMemo] = None) -> bytes:
    """Encode ``ts``; ``memo`` supplies and keeps factor blocks (a fresh one
    if None)."""
    if len(ts) > _U32_MAX:
        raise WireError(f"term count {len(ts)} exceeds u32", 0)
    if nsymbols > _U16_MAX:  # a term could carry more factors than a u16 counts
        raise WireError(f"{nsymbols} symbols exceed the u16 factor count", 0)
    memo = _memo_for(memo, nsymbols)
    known = memo.blocks.get
    remember = memo.remember
    header = _TERM_HDR.pack
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
        mag_len = (mag.bit_length() + 7) >> 3
        if mag_len > _U32_MAX:
            raise WireError("coefficient magnitude exceeds u32 byte length", 0)
        block = known(mono)
        if block is None:
            if mono & guard or mono >= limit:
                raise WireError(f"monomial {mono:#x} has an exponent over u32 or a "
                                f"symbol id >= nsymbols {nsymbols}", 0)
            flat = []
            for sid, shift in enumerate(shifts):
                exp = (mono >> shift) & EXP_MASK
                if exp:
                    flat += (sid, exp)
            block = _factor_block(len(flat) >> 1).pack(len(flat) >> 1, *flat)
            remember(mono, block)
        append(header(sign, mag_len))
        append(mag.to_bytes(mag_len, "little"))
        append(block)
    return b"".join(parts)


def deserialize_terms(data: bytes, nsymbols: int,
                      memo: Optional[CodecMemo] = None) -> tuple[Term, ...]:
    """Decode and validate ``data``; ``memo`` as for :func:`serialize_terms`.
    A block is validated before it is remembered, so a malformed one never
    matches."""
    n = len(data)
    memo = _memo_for(memo, nsymbols)
    known = memo.monos.get
    remember = memo.remember
    header = _TERM_HDR.unpack_from
    u16 = _U16.unpack_from
    from_bytes = int.from_bytes
    shifts = _shifts(nsymbols)

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
        if offset + 2 > n:
            raise WireError("truncated input", offset)
        (factor_count,) = u16(data, offset)
        end = offset + 2 + 8 * factor_count
        if end > n:  # name the first incomplete factor
            raise WireError("truncated input", offset + 2 + 8 * ((n - offset - 2) // 8))
        block = data[offset:end]
        mono = known(block)
        if mono is None:
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
            remember(mono, block)
        offset = end
        append((-mag if sign else mag, mono))
    if offset != n:
        raise WireError("overlong input (trailing bytes)", offset)
    return tuple(out)


def _reject_factor(sid: int, exp: int, prev_sid: int, nsymbols: int, offset: int) -> None:
    if sid <= prev_sid:
        raise WireError(f"symbol ids not strictly increasing ({sid})", offset)
    if sid >= nsymbols:
        raise WireError(f"symbol id {sid} >= nsymbols {nsymbols}", offset)
    raise WireError("zero exponent", offset)


BACKENDS = ("mp", "sm")


class MasterEndpoint:
    """The master's side of every channel: the slaves' mailboxes, its own
    inbox, the closed flags and the counters, which need no lock because
    only the master counts.  A queue record is the message itself under
    ``sm``, and its fields with the payload as wire bytes under ``mp``,
    where one :class:`CodecMemo` serves every channel's encode and decode.
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
        self._memo = CodecMemo(nsymbols) if self._copy else None
        self._m2s = 0
        self._s2m = 0
        self._bytes = 0
        self.wait_ns = 0

    def _encode(self, msg: Message):
        if not self._copy:
            return msg
        return (msg.kind, msg.expr, msg.detail, msg.metrics,
                serialize_terms(msg.payload, self.nsymbols, self._memo))

    def _decode(self, record) -> Message:
        if not self._copy:
            return record
        kind, expr, detail, metrics, wire = record
        payload = deserialize_terms(wire, self.nsymbols, self._memo)
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

    def recv(self) -> Message:
        if self._closed:
            raise ChannelClosedError(f"slave {self.worker} channel is shut down")
        master = self._master
        msg = master._decode(master._outboxes[self.worker].get())
        if msg.kind is MessageKind.SHUTDOWN:
            self._closed = True
        return msg

    def reply(self, msg: Message) -> None:
        if self._closed:
            raise ChannelClosedError(f"slave {self.worker} channel is shut down")
        self._master._inbox.put((self.worker, self._master._encode(msg)))
