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
from itertools import chain

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
#: encoding of ``scatter``.
PROTOCOL_VERSION = 2

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
# The scatter-gather task/response tuples (see repro.core.executor) cross
# the shard-server wire in binary frames. Each function returns (meta,
# buffers): meta is a small JSON-safe skeleton riding in the frame
# header, and every bulk int array rides in a payload buffer packed by
# arrays.pack_ints (ndarray.tobytes on encode, np.frombuffer over the
# received memoryview on decode — no per-element Python loops). A
# buffer reference in the meta is ``[dtype_code, buffer_index]``. The
# decoded shapes are element-for-element identical to what
# InlineShardBackend produces — answers, G_Q and AccessStats must not be
# able to tell the backends apart. Both ends share these functions, so
# a representation change is a single edit (plus a PROTOCOL_VERSION
# bump).

def encode_tasks_binary(tasks) -> tuple[list, list[bytes]]:
    """Pack scatter tasks: combos flatten into one ``(n, arity)`` int
    matrix buffer per task, probe frontiers into one buffer per side."""
    metas: list = []
    buffers: list[bytes] = []

    def push(values):
        code, raw = arrays.pack_ints(values)
        buffers.append(raw)
        return [code, len(buffers) - 1]

    for task in tasks:
        kind = task[0]
        if kind == "probe":
            _, a_nodes, b_nodes = task
            metas.append(["probe", push(np.asarray(a_nodes, dtype=np.int64)),
                          push(np.asarray(b_nodes, dtype=np.int64))])
        else:
            _, cpos, combos = task
            arity = len(combos[0]) if combos else 0
            matrix = np.asarray(combos, dtype=np.int64)
            metas.append([kind, int(cpos), len(combos), arity, push(matrix)])
    return metas, buffers


def decode_tasks_binary(metas, payloads) -> list[tuple]:
    """Inverse of :func:`encode_tasks_binary`, adopting the payload
    memoryviews in place and restoring the exact task tuples: int node
    ids, tuple combos (shard-side index lookups key on tuples)."""

    def pull(ref):
        code, index = ref
        return arrays.unpack_ints(code, payloads[index])

    tasks = []
    try:
        for meta in metas:
            kind = meta[0]
            if kind == "probe":
                _, a_ref, b_ref = meta
                tasks.append(("probe", pull(a_ref).tolist(),
                              pull(b_ref).tolist()))
            elif kind in ("fetch", "edge"):
                _, cpos, count, arity, ref = meta
                flat = pull(ref)
                if flat.size != count * arity:
                    raise ShardProtocolError(
                        f"task buffer holds {flat.size} ints, expected "
                        f"{count}x{arity}")
                combos = [tuple(row) for row in
                          flat.reshape(count, arity).tolist()] if count \
                    else []
                tasks.append((kind, int(cpos), combos))
            else:
                raise ShardProtocolError(
                    f"unknown binary task kind {kind!r}")
    except (TypeError, ValueError, IndexError) as exc:
        raise ShardProtocolError(
            f"malformed binary shard task: {exc}") from exc
    return tasks


def _pack_fetch_info(id_list, info):
    """Pack a fetch response's node-info dict against its sorted
    distinct payload ids, or None when the shapes don't fit the packed
    form (then the JSON-triples fallback rides in the meta).

    Per id (in ``id_list`` order) one ``tag`` byte — ``label_index * 4 +
    value_kind`` with kinds 0=None, 1=int, 2=the ``"<label>_<n>"``
    template every bundled generator emits, 3=anything else — plus one
    entry in the numbers buffer (the int value, the template's ``n``, or
    0). Kind-3 values stay JSON, in id order. The ids themselves never
    travel: both ends derive them from the payload values buffer.
    """
    if len(info) != len(id_list):
        return None
    labels: list[str] = []
    label_pos: dict[str, int] = {}
    tags: list[int] = []
    nums: list[int] = []
    others: list = []
    for v in id_list:
        pair = info.get(v)
        if pair is None or not isinstance(pair, tuple) or len(pair) != 2:
            return None
        label, value = pair
        if not isinstance(label, str):
            return None
        pos = label_pos.get(label)
        if pos is None:
            pos = label_pos[label] = len(labels)
            labels.append(label)
            if pos > 62:  # the tag byte must stay u1
                return None
        vkind, num = 3, 0
        if value is None:
            vkind = 0
        elif type(value) is int:
            vkind, num = 1, value
        elif type(value) is str and value.startswith(label) \
                and value[len(label):len(label) + 1] == "_":
            suffix = value[len(label) + 1:]
            if suffix.isdigit() and str(int(suffix)) == suffix:
                vkind, num = 2, int(suffix)
        if vkind == 3:
            others.append(value)
        tags.append(pos * 4 + vkind)
        nums.append(num)
    return labels, others, tags, nums


def encode_shard_responses_binary(kinds, responses) -> tuple[list, list]:
    """Pack one scatter wave's responses, aligned with its tasks.

    fetch: per-combo payload lengths + flattened payload values as two
    buffers; the node-info dict packs as a label dictionary plus tag and
    number buffers keyed by the *derived* sorted distinct payload ids
    (see :func:`_pack_fetch_info` — the dominant cost of a fetch
    wave), falling back to JSON ``[id, label, value]`` triples when its
    shape doesn't fit. edge: per-combo entry counts, flattened neighbour
    ids, and per-entry direction-flag bitmasks (bit ``2j`` = forward,
    ``2j+1`` = backward for combo member ``j``). probe: the found pairs
    as one ``(n, 2)`` buffer.
    """
    metas: list = []
    buffers: list[bytes] = []

    def push(values):
        code, raw = arrays.pack_ints(values)
        buffers.append(raw)
        return [code, len(buffers) - 1]

    for kind, response in zip(kinds, responses):
        if kind == "fetch":
            payloads, info = response
            lens = [len(p) for p in payloads]
            total = sum(lens)
            values = np.fromiter(chain.from_iterable(payloads),
                                 dtype=np.int64, count=total)
            packed = _pack_fetch_info(np.unique(values).tolist(), info)
            if packed is not None:
                labels, others, tags, nums = packed
                metas.append(["fetch", labels, others, push(lens),
                              push(values), push(tags), push(nums)])
                continue
            metas.append(["fetch",
                          [[v, label, value]
                           for v, (label, value) in info.items()],
                          push(lens), push(values)])
        elif kind == "edge":
            counts, ws, masks = [], [], []
            arity = 0
            for entries in response:
                counts.append(len(entries))
                for w, flags in entries:
                    arity = len(flags)
                    mask = 0
                    for j, (fwd, bwd) in enumerate(flags):
                        if fwd:
                            mask |= 1 << (2 * j)
                        if bwd:
                            mask |= 1 << (2 * j + 1)
                    ws.append(w)
                    masks.append(mask)
            metas.append(["edge", arity, push(counts), push(ws),
                          push(masks)])
        else:
            checked, found = response
            pairs = np.asarray(found, dtype=np.int64)
            metas.append(["probe", int(checked), len(found), push(pairs)])
    return metas, buffers


def decode_shard_responses_binary(metas, payloads,
                                  expected_kinds=None) -> list:
    """Inverse of :func:`encode_shard_responses_binary`, restoring the
    exact in-memory shapes a shard runtime returns (int node ids, tuple
    edge flags, hashable probe pairs) so the merge in the scatter
    executor cannot tell a remote shard from an inline one."""

    def pull(ref):
        code, index = ref
        return arrays.unpack_ints(code, payloads[index])

    out = []
    try:
        for pos, meta in enumerate(metas):
            kind = meta[0]
            if expected_kinds is not None and kind != expected_kinds[pos]:
                raise ShardProtocolError(
                    f"binary response {pos} has kind {kind!r}, expected "
                    f"{expected_kinds[pos]!r}")
            if kind == "fetch":
                if len(meta) == 7:  # packed info (_pack_fetch_info)
                    (_, labels, others, lens_ref, vals_ref,
                     tags_ref, nums_ref) = meta
                    lens = pull(lens_ref).tolist()
                    values = pull(vals_ref)
                    if values.size != sum(lens):
                        raise ShardProtocolError(
                            "fetch payload buffer disagrees with its "
                            "lengths")
                    ids = np.unique(values).tolist()
                    tags = pull(tags_ref).tolist()
                    nums = pull(nums_ref).tolist()
                    if len(tags) != len(ids) or len(nums) != len(ids):
                        raise ShardProtocolError(
                            "fetch info buffers disagree with the "
                            "distinct payload ids")
                    info, oi = {}, 0
                    for v, tag, num in zip(ids, tags, nums):
                        label = labels[tag >> 2]
                        vkind = tag & 3
                        if vkind == 0:
                            value = None
                        elif vkind == 1:
                            value = num
                        elif vkind == 2:
                            value = f"{label}_{num}"
                        else:
                            value = others[oi]
                            oi += 1
                        info[v] = (label, value)
                else:  # JSON-triples fallback
                    _, triples, lens_ref, vals_ref = meta
                    lens = pull(lens_ref).tolist()
                    values = pull(vals_ref)
                    if values.size != sum(lens):
                        raise ShardProtocolError(
                            "fetch payload buffer disagrees with its "
                            "lengths")
                    info = {int(v): (label, value)
                            for v, label, value in triples}
                segments, offset = [], 0
                for n in lens:
                    segments.append(values[offset:offset + n].tolist())
                    offset += n
                out.append((segments, info))
            elif kind == "edge":
                _, arity, counts_ref, ws_ref, masks_ref = meta
                counts = pull(counts_ref).tolist()
                ws = pull(ws_ref).tolist()
                masks = pull(masks_ref).tolist()
                if len(ws) != len(masks) or len(ws) != sum(counts):
                    raise ShardProtocolError(
                        "edge buffers disagree with their counts")
                entries_out, offset = [], 0
                for n in counts:
                    entries = []
                    for k in range(offset, offset + n):
                        mask = masks[k]
                        entries.append(
                            (ws[k],
                             tuple((bool((mask >> (2 * j)) & 1),
                                    bool((mask >> (2 * j + 1)) & 1))
                                   for j in range(arity))))
                    entries_out.append(entries)
                    offset += n
                out.append(entries_out)
            elif kind == "probe":
                _, checked, count, pairs_ref = meta
                pairs = pull(pairs_ref)
                if pairs.size != count * 2:
                    raise ShardProtocolError(
                        "probe pair buffer disagrees with its count")
                out.append((int(checked),
                            [tuple(pair) for pair in
                             pairs.reshape(count, 2).tolist()] if count
                            else []))
            else:
                raise ShardProtocolError(
                    f"unknown binary response kind {kind!r}")
    except (TypeError, ValueError, IndexError) as exc:
        raise ShardProtocolError(
            f"malformed binary shard response: {exc}") from exc
    return out


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
