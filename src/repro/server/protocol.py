"""The one wire protocol of the serving stack: two framings over TCP.

Every request and response is one *frame*. Two framings coexist on the
same port, distinguished by the first byte:

* **JSON lines** — one JSON object on one ``\\n``-terminated line
  (UTF-8). The first byte is always ``{`` (0x7B). Queries and every
  shard control op (``hello``, ``extension_stats``, ``extend``,
  ``ping``, ``metrics``, ``reload``, ``shutdown``) use this framing.
* **Binary frames** — :data:`BINARY_MAGIC` (first byte 0xAB, which can
  never begin a JSON line), two big-endian ``u32`` lengths, a JSON
  header, and a packed payload section of length-prefixed byte buffers
  (:func:`encode_payload`). Shard ``scatter`` requests and responses
  always use this framing: bulk int arrays (scatter frontiers, index
  payloads, probe pairs) live in the payload buffers as packed little-
  endian integers produced by ``ndarray.tobytes()`` and re-adopted with
  ``np.frombuffer`` — no per-element encode/decode loops.

Replies always use the framing of their request, so a mixed
conversation stays unambiguous frame by frame.

Requests carry an ``op`` and an optional client-chosen ``id`` that the
response echoes, so a client may pipeline requests. Two services speak
the protocol:

* the query server (:mod:`repro.server.server` — ``query``, ``metrics``,
  ``reload``, ``ping``, ``shutdown``), and
* the shard server (:mod:`repro.server.shardserver` — ``hello``,
  ``scatter``, ``extension_stats``, ``extend``, ``ping``, ``metrics``,
  ``reload``, ``shutdown``).

Both clients (:class:`~repro.server.client.ServeClient` and
:class:`~repro.engine.parallel.RemoteShardBackend`) share the framing
and error round-trip here rather than growing a second protocol.

Error responses are typed: ``{"ok": false, "error": "<class>",
"message": ...}`` plus class-specific fields, where ``<class>`` is the
name of a :mod:`repro.errors` exception. :func:`error_response` and
:func:`raise_error` are exact inverses, so the client re-raises the same
exception type the service raised — the contract the admission-control
acceptance criterion ("rejected with a typed error") rests on, and the
path a mid-query :class:`~repro.errors.ShardUnavailable` takes from the
scatter executor through the query server to the end client.
"""

from __future__ import annotations

import json
import socket
import struct
import time

import numpy as np

from repro.util import arrays
from repro.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    NotEffectivelyBounded,
    ReproError,
    ServerError,
    ServiceOverloaded,
    ShardHandshakeMismatch,
    ShardProtocolError,
    ShardUnavailable,
)

#: Version of the protocol itself. Bumped on incompatible framing or
#: op-contract changes; the shard handshake (``hello``) requires exact
#: agreement so a mixed deployment fails loudly at connect instead of
#: corrupting answers mid-wave. Version 2 made the binary frame the only
#: encoding of ``scatter``; version 3 made scatter tasks and answers
#: arrays end to end, with predicates evaluated on the shards.
PROTOCOL_VERSION = 3

#: Upper bound on one request/response line; a longer line is a protocol
#: error (keeps a misbehaving peer from ballooning server memory).
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Upper bound on one binary frame (header + payload section). Larger
#: than MAX_LINE_BYTES because packed scatter payloads are dense, but
#: still a hard cap: a corrupt or malicious length prefix must not make
#: a server allocate unbounded memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Upper bound on the number of payload buffers in one binary frame.
MAX_PAYLOAD_BUFFERS = 65536

#: First bytes of a binary frame. The leading 0xAB can never begin a
#: JSON-lines frame (those always start with ``{``, and 0xAB is not
#: valid UTF-8 lead anyway), so one-byte sniffing tells the framings
#: apart on a shared port.
BINARY_MAGIC = b"\xabRW1"

_BINARY_HEAD = struct.Struct(">4sII")  # magic, header_len, payload_len
_U32 = struct.Struct(">I")

#: Default TCP port of ``repro serve`` (0x21C2 would be too cute; this is
#: just an unassigned high port).
DEFAULT_PORT = 8642

#: Default base TCP port of ``repro shard-serve`` (shard N conventionally
#: listens on ``DEFAULT_SHARD_PORT + N``).
DEFAULT_SHARD_PORT = 8650


def encode(doc: dict) -> bytes:
    """One response/request line: compact JSON + newline."""
    return json.dumps(doc, separators=(",", ":")).encode("utf-8") + b"\n"


def decode(line: bytes) -> dict:
    """Parse one line into a dict; raises :class:`ShardProtocolError`
    (a :class:`ServerError`) on an overlong line or junk."""
    if len(line) > MAX_LINE_BYTES:
        raise ShardProtocolError(
            f"protocol frame exceeds {MAX_LINE_BYTES} bytes")
    try:
        doc = json.loads(line)
    except ValueError as exc:
        raise ShardProtocolError(f"malformed protocol line: {exc}") from exc
    if not isinstance(doc, dict):
        raise ShardProtocolError(
            f"protocol line must be a JSON object, got {type(doc).__name__}")
    return doc


class Frame(dict):
    """One decoded wire frame.

    Behaves as the request/response dict (so ``frame.get("id")`` call
    sites predating the binary framing are unchanged), plus the framing
    facts a binary-aware caller needs: ``payloads`` (zero-copy
    memoryviews over the received buffer, in wire order), ``nbytes``
    (bytes this frame occupied on the wire) and ``binary`` (which
    framing carried it — replies must use the same one).
    """

    __slots__ = ("payloads", "nbytes", "binary")

    def __init__(self, doc=(), *, payloads=(), nbytes=0, binary=False):
        super().__init__(doc)
        self.payloads = list(payloads)
        self.nbytes = nbytes
        self.binary = binary


# ----------------------------------------------------- binary framing

def encode_payload(buffers) -> bytes:
    """Pack byte buffers into one payload section: ``u32`` count, ``u32``
    length per buffer, then the buffers back to back."""
    parts = [_U32.pack(len(buffers))]
    parts.extend(_U32.pack(len(buf)) for buf in buffers)
    parts.extend(buffers)
    return b"".join(parts)


def binary_frame(header: bytes, payload: bytes) -> bytes:
    """Assemble one binary frame from an already-encoded JSON header and
    an already-packed payload section (:func:`encode_payload`). Split
    out from :func:`encode_binary` so a scatter broadcast can reuse one
    payload section under many per-shard headers."""
    return _BINARY_HEAD.pack(BINARY_MAGIC, len(header), len(payload)) \
        + header + payload


def encode_binary(doc: dict, buffers=()) -> bytes:
    """One binary frame: ``doc`` as the JSON header plus payload
    buffers. The binary-framed twin of :func:`encode`."""
    header = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    return binary_frame(header, encode_payload(buffers))


def _check_frame_size(header_len: int, payload_len: int) -> None:
    if header_len + payload_len > MAX_FRAME_BYTES:
        raise ShardProtocolError(
            f"binary frame of {header_len + payload_len} bytes exceeds "
            f"{MAX_FRAME_BYTES} bytes")


def _split_payload(view: memoryview) -> list:
    """Slice a payload section into zero-copy per-buffer memoryviews."""
    if len(view) < _U32.size:
        raise ShardProtocolError("truncated binary payload section")
    (nbufs,) = _U32.unpack_from(view, 0)
    if nbufs > MAX_PAYLOAD_BUFFERS:
        raise ShardProtocolError(
            f"binary frame declares {nbufs} payload buffers "
            f"(max {MAX_PAYLOAD_BUFFERS})")
    offset = _U32.size * (1 + nbufs)
    if len(view) < offset:
        raise ShardProtocolError("truncated binary payload section")
    lengths = struct.unpack_from(f">{nbufs}I", view, _U32.size)
    buffers = []
    for length in lengths:
        end = offset + length
        if end > len(view):
            raise ShardProtocolError("truncated binary payload buffer")
        buffers.append(view[offset:end])
        offset = end
    if offset != len(view):
        raise ShardProtocolError("binary payload section has trailing bytes")
    return buffers


def _assemble_binary(body: memoryview, header_len: int,
                     nbytes: int) -> Frame:
    try:
        doc = json.loads(bytes(body[:header_len]))
    except ValueError as exc:
        raise ShardProtocolError(
            f"malformed binary frame header: {exc}") from exc
    if not isinstance(doc, dict):
        raise ShardProtocolError(
            "binary frame header must be a JSON object, got "
            f"{type(doc).__name__}")
    payloads = _split_payload(body[header_len:])
    return Frame(doc, payloads=payloads, nbytes=nbytes, binary=True)


def read_frame(file) -> Frame:
    """Read one frame — either framing, sniffed by first byte — from a
    buffered binary stream.

    Raises :class:`EOFError` when the peer hung up cleanly *or* mid-
    frame (a truncated frame is indistinguishable from a death between
    frames, and both are transient faults to a retrying caller), and
    :class:`ShardProtocolError` on every framing violation — an overlong
    frame, a bad magic/length prefix, a corrupt payload section, a line
    that is not a JSON object (a peer speaking garbage is not transient,
    and the bounded reads mean it cannot balloon server memory either).
    """
    first = file.read(1)
    if not first:
        raise EOFError("peer closed the connection")
    if first == BINARY_MAGIC[:1]:
        rest = file.read(_BINARY_HEAD.size - 1)
        if len(rest) < _BINARY_HEAD.size - 1:
            raise EOFError("peer closed the connection mid-frame")
        magic, header_len, payload_len = _BINARY_HEAD.unpack(first + rest)
        if magic != BINARY_MAGIC:
            raise ShardProtocolError(
                f"bad binary frame magic {magic!r}")
        _check_frame_size(header_len, payload_len)
        body = file.read(header_len + payload_len)
        if len(body) < header_len + payload_len:
            raise EOFError("peer closed the connection mid-frame")
        return _assemble_binary(
            memoryview(body), header_len,
            _BINARY_HEAD.size + header_len + payload_len)
    line = first + file.readline(MAX_LINE_BYTES)
    if not line.endswith(b"\n"):
        if len(line) > MAX_LINE_BYTES:
            raise ShardProtocolError(
                f"protocol frame exceeds {MAX_LINE_BYTES} bytes")
        raise EOFError("peer closed the connection mid-frame")
    return Frame(decode(line), nbytes=len(line))


async def read_frame_async(reader) -> Frame:
    """:func:`read_frame` over an :class:`asyncio.StreamReader` — same
    sniffing, same size bounds, same error contract."""
    import asyncio
    try:
        first = await reader.readexactly(1)
    except asyncio.IncompleteReadError:
        raise EOFError("peer closed the connection") from None
    if first == BINARY_MAGIC[:1]:
        try:
            rest = await reader.readexactly(_BINARY_HEAD.size - 1)
        except asyncio.IncompleteReadError:
            raise EOFError("peer closed the connection mid-frame") from None
        magic, header_len, payload_len = _BINARY_HEAD.unpack(first + rest)
        if magic != BINARY_MAGIC:
            raise ShardProtocolError(f"bad binary frame magic {magic!r}")
        _check_frame_size(header_len, payload_len)
        try:
            body = await reader.readexactly(header_len + payload_len)
        except asyncio.IncompleteReadError:
            raise EOFError("peer closed the connection mid-frame") from None
        return _assemble_binary(
            memoryview(body), header_len,
            _BINARY_HEAD.size + header_len + payload_len)
    try:
        line = first + await reader.readline()
    except ValueError:
        # The stream limit tripped (asyncio wraps LimitOverrunError).
        raise ShardProtocolError(
            f"protocol frame exceeds {MAX_LINE_BYTES} bytes") from None
    if not line.endswith(b"\n"):
        if len(line) > MAX_LINE_BYTES:
            raise ShardProtocolError(
                f"protocol frame exceeds {MAX_LINE_BYTES} bytes")
        raise EOFError("peer closed the connection mid-frame")
    return Frame(decode(line), nbytes=len(line))


def connect_retry(host: str, port: int, *, timeout: float,
                  connect_timeout: float) -> socket.socket:
    """TCP connect with retry until ``connect_timeout`` elapses — the
    peer may still be binding when a client races it up (both smoke
    flows start server and client back to back). The returned socket has
    ``timeout`` as its I/O timeout and Nagle disabled (request/response
    over tiny messages never wants to wait on it). Raises
    :class:`OSError` (the last connect failure) once the deadline
    passes; callers map it to their typed error.
    """
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


def error_response(request_id, exc: Exception) -> dict:
    """Serialize an exception into a typed error response."""
    doc = {"id": request_id, "ok": False,
           "error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, AdmissionRejected):  # covers ServiceOverloaded
        doc["cost"] = exc.cost
        doc["budget"] = exc.budget
    elif isinstance(exc, DeadlineExceeded):
        doc["deadline_ms"] = exc.deadline_ms
    elif isinstance(exc, NotEffectivelyBounded):
        doc["uncovered_nodes"] = list(exc.uncovered_nodes)
        doc["uncovered_edges"] = [list(edge) for edge in exc.uncovered_edges]
    elif isinstance(exc, ShardUnavailable):
        doc["addr"] = exc.addr
        doc["shard_id"] = exc.shard_id
        doc["attempts"] = exc.attempts
    elif isinstance(exc, ShardHandshakeMismatch):
        doc["addr"] = exc.addr
        doc["found"] = exc.found
        doc["expected"] = exc.expected
    elif isinstance(exc, ShardProtocolError):
        doc["addr"] = exc.addr
    return doc


def raise_error(doc: dict) -> None:
    """Re-raise the typed exception encoded by :func:`error_response`.

    Unknown error classes degrade to :class:`ServerError` (an older
    client talking to a newer server still gets a library exception).
    """
    name = doc.get("error", "ServerError")
    message = doc.get("message", "server error")
    if name == "ServiceOverloaded":
        raise ServiceOverloaded(message, cost=doc.get("cost"),
                                budget=doc.get("budget"))
    if name == "AdmissionRejected":
        raise AdmissionRejected(message, cost=doc.get("cost"),
                                budget=doc.get("budget"))
    if name == "DeadlineExceeded":
        raise DeadlineExceeded(message, deadline_ms=doc.get("deadline_ms"))
    if name == "NotEffectivelyBounded":
        raise NotEffectivelyBounded(
            message,
            uncovered_nodes=doc.get("uncovered_nodes", ()),
            uncovered_edges=[tuple(edge)
                             for edge in doc.get("uncovered_edges", ())])
    if name == "ShardUnavailable":
        raise ShardUnavailable(message, addr=doc.get("addr"),
                               shard_id=doc.get("shard_id"),
                               attempts=doc.get("attempts"))
    if name == "ShardHandshakeMismatch":
        raise ShardHandshakeMismatch(message, addr=doc.get("addr"),
                                     found=doc.get("found"),
                                     expected=doc.get("expected"))
    if name == "ShardProtocolError":
        raise ShardProtocolError(message, addr=doc.get("addr"))
    raise ServerError(f"{name}: {message}")


def encode_trace(span) -> dict:
    """The trace-context wire field: ``{"trace_id", "span_id"}``.

    An *optional, additive* request field — a peer that predates it
    ignores unknown keys, so it needs no PROTOCOL_VERSION bump. Carried on
    shard-server requests so a front-end span tree and the shard's
    request log share one trace id (see :mod:`repro.obs.trace`).
    """
    return {"trace_id": span.trace_id, "span_id": span.span_id}


def decode_trace(doc: dict) -> dict | None:
    """The trace context of a request, or ``None`` when absent or
    malformed (tracing must never fail a query)."""
    trace = doc.get("trace")
    if not isinstance(trace, dict):
        return None
    trace_id = trace.get("trace_id")
    if not isinstance(trace_id, str):
        return None
    return {"trace_id": trace_id, "span_id": trace.get("span_id")}


def is_repro_error(exc: Exception) -> bool:
    """True for exceptions safe to serialize to the peer as typed errors
    (anything else is a server bug and is reported opaquely)."""
    return isinstance(exc, ReproError)


# ------------------------------------------------------ shard task codecs
# The scatter wire tasks and their array answers (see repro.core.kernels)
# cross the shard-server wire in binary frames. Every task and every
# answer is one meta — a small JSON-safe list riding in the frame header
# — plus one payload buffer (the i-th meta owns payload buffer i). The
# buffer concatenates the message's int arrays, each packed by
# arrays.pack_ints (ndarray.tobytes on encode, np.frombuffer over the
# received memoryview on decode — no per-element loops on either side);
# the meta's ``codes`` string lists their dtype codes in order. Array
# lengths are mostly implied (a fetch's values are as many as its
# lengths sum to), the rest ride in the meta. The decoders validate
# every shape a later array operation relies on and raise
# ShardProtocolError otherwise. Both ends share these functions, so a
# representation change is a single edit (plus a PROTOCOL_VERSION bump).

def _pack(*parts) -> tuple[str, bytes]:
    codes, raws = [], []
    for values in parts:
        code, raw = arrays.pack_ints(values)
        codes.append(code)
        raws.append(raw)
    return "".join(codes), b"".join(raws)


class _Unpacker:
    """Reads one message's packed arrays back, in order, as int64."""

    __slots__ = ("codes", "view", "at")

    def __init__(self, codes, view):
        if not isinstance(codes, str) or len(codes) % 2:
            raise ShardProtocolError(f"malformed dtype codes {codes!r}")
        self.codes = [codes[i:i + 2] for i in range(0, len(codes), 2)]
        self.view = view
        self.at = 0

    def take(self, count: int):
        if not self.codes:
            raise ShardProtocolError("message holds fewer arrays than "
                                     "its kind needs")
        code = self.codes.pop(0)
        end = self.at + int(count) * arrays.packed_width(code)
        if count < 0 or end > len(self.view):
            raise ShardProtocolError("message buffer is shorter than its "
                                     "arrays")
        values = arrays.unpack_ints(code, self.view[self.at:end])
        self.at = end
        return values.astype(np.int64, copy=False)

    def rest(self):
        """The last array: whatever the buffer holds past the others."""
        code = self.codes[0] if self.codes else "i8"
        return self.take((len(self.view) - self.at)
                         // arrays.packed_width(code))

    def finish(self) -> None:
        if self.codes or self.at != len(self.view):
            raise ShardProtocolError("message buffer holds more than its "
                                     "arrays")


def encode_tasks(tasks) -> tuple[list, list[bytes]]:
    """Pack scatter tasks: a fetch or edge task carries its ``(n, k)``
    combo matrix (a fetch adds its predicate's atoms to the meta), a
    probe its two frontiers."""
    metas: list = []
    buffers: list[bytes] = []
    for task in tasks:
        kind = task[0]
        if kind == "probe":
            codes, raw = _pack(task[1], task[2])
            metas.append(["probe", len(task[1]), codes])
        else:
            combos = np.asarray(task[2], dtype=np.int64)
            codes, raw = _pack(combos)
            meta = [kind, int(task[1]), combos.shape[0], combos.shape[1],
                    codes]
            if kind == "fetch":
                meta.append([[atom.op, _json_constant(atom.constant)]
                             for atom in task[3].atoms])
            metas.append(meta)
        buffers.append(raw)
    return metas, buffers


def _json_constant(constant):
    if constant is None or type(constant) in (bool, int, float, str):
        return constant
    raise ShardProtocolError(
        f"predicate constant {constant!r} has no exact wire form")


def _messages(metas, payloads):
    if not isinstance(metas, list) or len(metas) != len(payloads):
        raise ShardProtocolError(
            "binary frame carries one payload buffer per message")
    return zip(metas, payloads)


def decode_tasks(metas, payloads) -> list[tuple]:
    """Inverse of :func:`encode_tasks`: int64 arrays over the payload
    buffers, combo matrices reshaped, predicates rebuilt."""
    from repro.pattern.predicates import Predicate

    tasks = []
    try:
        for meta, view in _messages(metas, payloads):
            kind = meta[0]
            if kind == "probe":
                _, count, codes = meta
                data = _Unpacker(codes, view)
                task = ("probe", data.take(count), data.rest())
            elif kind in ("fetch", "edge"):
                cpos, count, arity = int(meta[1]), int(meta[2]), int(meta[3])
                data = _Unpacker(meta[4], view)
                flat = data.rest()
                if count < 0 or arity < 0 or flat.size != count * arity:
                    raise ShardProtocolError(
                        f"task buffer holds {flat.size} ints, expected "
                        f"{count}x{arity}")
                task = (kind, cpos, flat.reshape(count, arity))
                if kind == "fetch":
                    task += (Predicate.of(*map(tuple, meta[5])),)
            else:
                raise ShardProtocolError(
                    f"unknown binary task kind {kind!r}")
            data.finish()
            tasks.append(task)
    except ShardProtocolError:
        raise
    except (ReproError, TypeError, ValueError, IndexError) as exc:
        raise ShardProtocolError(
            f"malformed binary shard task: {exc}") from exc
    return tasks


def encode_responses(kinds, responses) -> tuple[list, list]:
    """Pack one scatter round's array answers, aligned with its tasks.

    fetch: per-combo ``lengths``, payload ``values``, the ``found`` ids
    and their info — the label list and kind-3 values ride in the meta,
    ``tags`` and ``numbers`` in the buffer. edge: per-combo lengths,
    entries and direction bitmasks. probe: the count of pairs checked
    and the found pairs.
    """
    metas: list = []
    buffers: list[bytes] = []
    for kind, response in zip(kinds, responses):
        if kind == "fetch":
            lengths, values, found, (labels, tags, numbers, others) = \
                response
            codes, raw = _pack(lengths, values, found, tags, numbers)
            metas.append(["fetch", len(found), codes, labels, others])
        elif kind == "edge":
            codes, raw = _pack(*response)
            metas.append(["edge", codes])
        else:
            checked, pairs = response
            codes, raw = _pack(pairs)
            metas.append(["probe", int(checked), codes])
        buffers.append(raw)
    return metas, buffers


def decode_responses(metas, payloads, expected) -> list:
    """Inverse of :func:`encode_responses`. ``expected`` lists each
    task's ``(kind, combos)``; a response must match its task's kind
    and have one length per combo. Raises :class:`ShardProtocolError` on
    any shape the executor could not merge: lengths that do not sum to
    the payload, ``found`` ids that are not a sorted subset of it, info
    not aligned with ``found``."""
    out = []
    try:
        if len(metas) != len(expected):
            raise ShardProtocolError(
                f"{len(metas)} responses for {len(expected)} tasks")
        for pos, ((meta, view), (kind, combos)) in enumerate(
                zip(_messages(metas, payloads), expected)):
            if meta[0] != kind:
                raise ShardProtocolError(
                    f"binary response {pos} has kind {meta[0]!r}, expected "
                    f"{kind!r}")
            if kind == "probe":
                _, checked, codes = meta
                data = _Unpacker(codes, view)
                pairs = data.rest()
                if pairs.size % 2 or int(checked) < 0:
                    raise ShardProtocolError(
                        "probe response has a malformed pair buffer")
                response = (int(checked), pairs.reshape(-1, 2))
            elif kind == "edge":
                data = _Unpacker(meta[1], view)
                lengths = _lengths(data, combos)
                values = data.take(lengths.sum())
                response = (lengths, values, data.take(len(values)))
            else:
                _, count, codes, labels, others = meta
                data = _Unpacker(codes, view)
                lengths = _lengths(data, combos)
                values = data.take(lengths.sum())
                found = data.take(count)
                tags = data.take(count)
                numbers = data.take(count)
                if not _sorted_subset(found, values):
                    raise ShardProtocolError(
                        "fetch found ids are not a sorted subset of the "
                        "payload")
                if (not isinstance(labels, list)
                        or not isinstance(others, list)
                        or not all(isinstance(label, str)
                                   for label in labels)
                        or (count and (tags.min() < 0
                                       or tags.max() >> 2 >= len(labels)))
                        or int(np.count_nonzero(tags & 3 == 3))
                        != len(others)):
                    raise ShardProtocolError(
                        "fetch node info is not aligned with the found ids")
                response = (lengths, values, found,
                            (labels, tags, numbers, others))
            data.finish()
            out.append(response)
    except ShardProtocolError:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        raise ShardProtocolError(
            f"malformed binary shard response: {exc}") from exc
    return out


def _lengths(data: _Unpacker, combos: int):
    lengths = data.take(combos)
    if len(lengths) and lengths.min() < 0:
        raise ShardProtocolError("negative per-combo payload length")
    return lengths


def _sorted_subset(found, values) -> bool:
    """``found`` is strictly increasing and every id in it occurs in
    ``values`` (no sort of ``values`` needed)."""
    if not len(found):
        return True
    if np.any(found[1:] <= found[:-1]):
        return False
    at = np.minimum(np.searchsorted(found, values), len(found) - 1)
    covered = np.zeros(len(found), dtype=bool)
    covered[at[found[at] == values]] = True
    return bool(covered.all())


def encode_extension_stats(stats: tuple) -> dict:
    """A shard's ``(label counts, neighbour bounds)`` pair; the bounds
    dict keys on label *pairs*, which JSON objects cannot."""
    counts, bounds = stats
    return {"counts": dict(counts),
            "bounds": [[a, b, n] for (a, b), n in bounds.items()]}


def decode_extension_stats(doc: dict) -> tuple:
    try:
        counts = {str(label): int(n)
                  for label, n in doc.get("counts", {}).items()}
        bounds = {(a, b): int(n) for a, b, n in doc.get("bounds", ())}
    except (TypeError, ValueError) as exc:
        raise ServerError(f"malformed extension stats: {exc}") from exc
    return counts, bounds
