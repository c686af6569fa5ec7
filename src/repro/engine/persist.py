"""Persistent compiled artifacts: on-disk engine snapshots.

The paper's economics are pay-once (access schema, indexes, compiled
plans), serve-many. PR 1 amortized those costs in-process; this module
makes the compiled state a durable artifact so every **process** after
the first skips graph load, index build, and EBChk/QPlan for previously
prepared canonical forms:

.. code-block:: text

    engine = QueryEngine.open(graph, schema)   # cold: build everything
    engine.prepare(q)                          # compile plans
    engine.save("artifact/")                   # persist the compiled state
    ...
    engine = QueryEngine.open_path("artifact/")  # warm: ~10-40x faster

Artifact layout (one directory)::

    manifest.json     format version, byte order, graph stats, access
                      schema, per-constraint index metadata, file
                      checksums (the root of trust)
    graph.bin         FrozenGraph CSR buffers (binary container)
    graph.meta.json   label table + sparse node-value map
    index.bin         per-constraint FrozenConstraintIndex buffers
    plans.json        plan-cache contents (compiled plans + cached
                      negative EBChk verdicts, keyed by canonical form)
    STALE             marker written by ``QueryEngine.apply`` when the
                      served graph diverges from the snapshot

A *sharded* artifact (``repro compile --shards N``; see
:func:`save_sharded_engine` and DESIGN.md "Sharded execution") nests one
such directory per shard under a top-level manifest that also checksums
every shard manifest, ``plans.json`` and ``partition.bin`` — corruption
anywhere in the tree is detected at open.

The binary container is struct/array-based — a magic header followed by
named int64 sections, 8-byte aligned so loading can hand out zero-copy
``memoryview`` slices over one bytes object. No pickle anywhere. Every
payload file is SHA-256 checksummed in the manifest; corruption raises
:class:`~repro.errors.ArtifactCorrupt`, a format bump raises
:class:`~repro.errors.ArtifactVersionMismatch`, and a stale marker
raises :class:`~repro.errors.ArtifactStale` (all loud, never a wrong
answer). ``plans.json`` uses the :mod:`json` module's infinity literals
for unbounded cost bounds, so it is JSON + ``Infinity``.

Versioning: ``FORMAT_VERSION`` covers everything an artifact's meaning
depends on, including the canonical-fingerprint algorithm of
:mod:`repro.engine.cache` — bump it whenever buffers, JSON schemas, or
fingerprinting change incompatibly.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from array import array
from pathlib import Path
from typing import Sequence

from repro.constraints.index import (
    ConstraintIndex,
    FrozenConstraintIndex,
    SchemaIndex,
)
from repro.constraints.schema import AccessSchema
from repro.core.plan import EdgeCheck, FetchOp, QueryPlan
from repro.errors import (
    ArtifactCorrupt,
    ArtifactError,
    ArtifactStale,
    ArtifactVersionMismatch,
    EngineError,
    NotEffectivelyBounded,
)
from repro.graph.frozen import FrozenGraph
from repro.pattern.pattern import Pattern
from repro.pattern.predicates import Atom, Predicate

#: Bump on any incompatible change to buffers, JSON layouts, or the
#: canonical pattern fingerprint. Version 2 added the sharded layout
#: (``layout: "sharded"`` manifests referencing per-shard sub-artifacts
#: plus ``partition.bin``); single-directory artifacts are bumped with it
#: so one number describes the whole artifact family. Version 3 added
#: the schema catalog (``catalog.json``: generation history + extension
#: provenance, checksummed like every payload).
FORMAT_VERSION = 3

#: Versions this library still *opens*. Version-2 artifacts predate the
#: schema catalog; they open **read-only** (frozen sessions) with a
#: synthesized generation-0 catalog — thawing (``frozen=False``) or
#: extending them on disk requires a re-compile to version 3, so the
#: catalog history is never silently invented for a mutable lineage.
SUPPORTED_READ_VERSIONS = (2, FORMAT_VERSION)

FORMAT_NAME = "repro-engine-artifact"

MANIFEST_FILE = "manifest.json"
GRAPH_FILE = "graph.bin"
GRAPH_META_FILE = "graph.meta.json"
INDEX_FILE = "index.bin"
PLANS_FILE = "plans.json"
CATALOG_FILE = "catalog.json"
STALE_FILE = "STALE"
PARTITION_FILE = "partition.bin"

#: Files whose checksums a single-layout manifest records (everything
#: but itself and the stale marker).
PAYLOAD_FILES = (GRAPH_FILE, GRAPH_META_FILE, INDEX_FILE, PLANS_FILE,
                 CATALOG_FILE)

#: Top-level payload files of a sharded-layout artifact; each shard
#: directory is additionally a complete single-layout artifact.
SHARDED_PAYLOAD_FILES = (PLANS_FILE, PARTITION_FILE, CATALOG_FILE)

#: The payload sets of version-2 artifacts (no catalog file).
_V2_PAYLOAD_FILES = (GRAPH_FILE, GRAPH_META_FILE, INDEX_FILE, PLANS_FILE)
_V2_SHARDED_PAYLOAD_FILES = (PLANS_FILE, PARTITION_FILE)


def _expected_payloads(manifest: dict) -> tuple:
    """The payload-file set a manifest's version and layout promise."""
    sharded = manifest.get("layout") == "sharded"
    if manifest.get("format_version") == FORMAT_VERSION:
        return SHARDED_PAYLOAD_FILES if sharded else PAYLOAD_FILES
    return _V2_SHARDED_PAYLOAD_FILES if sharded else _V2_PAYLOAD_FILES


def shard_dir_name(shard_id: int) -> str:
    """Directory name of one shard inside a sharded artifact."""
    return f"shard-{shard_id:04d}"

_BIN_MAGIC = b"RPROBIN1"
_ITEM = 8  # int64 buffers only


# --------------------------------------------------------------- binary container
def _buffer_bytes(buf) -> bytes:
    """Raw bytes of an int64 buffer (array('q') or memoryview)."""
    if isinstance(buf, array):
        return buf.tobytes()
    return bytes(buf)


def pack_buffers(buffers: dict) -> bytes:
    """Serialize named int64 buffers into one binary blob.

    Layout: magic, ``<I`` buffer count, then per buffer ``<H`` name
    length, UTF-8 name, ``<Q`` payload byte length, zero padding to an
    8-byte boundary, payload. Multi-byte header fields are little-endian;
    payloads are native-endian (recorded in the manifest and swapped on
    load when needed).
    """
    out = bytearray(_BIN_MAGIC)
    out += struct.pack("<I", len(buffers))
    for name, buf in buffers.items():
        raw = _buffer_bytes(buf)
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<Q", len(raw))
        out += b"\x00" * (-len(out) % _ITEM)
        out += raw
    return bytes(out)


def unpack_buffers(data: bytes, *, byteswap: bool = False,
                   source: str = "buffer file") -> dict:
    """Parse :func:`pack_buffers` output into named int64 sequences.

    Returns zero-copy ``memoryview`` slices cast to ``'q'`` (or
    materialized, byte-swapped ``array('q')`` objects when the artifact
    was written on a machine of the other endianness).
    """
    view = memoryview(data)
    try:
        if bytes(view[:len(_BIN_MAGIC)]) != _BIN_MAGIC:
            raise ArtifactCorrupt(f"{source}: bad magic header")
        offset = len(_BIN_MAGIC)
        (count,) = struct.unpack_from("<I", data, offset)
        offset += 4
        buffers = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            name = bytes(view[offset:offset + name_len]).decode("utf-8")
            offset += name_len
            (payload_len,) = struct.unpack_from("<Q", data, offset)
            offset += 8
            offset += -offset % _ITEM
            if payload_len % _ITEM or offset + payload_len > len(data):
                raise ArtifactCorrupt(
                    f"{source}: buffer {name!r} is truncated or misaligned")
            section = view[offset:offset + payload_len].cast("q")
            offset += payload_len
            if byteswap:
                swapped = array("q")
                swapped.frombytes(bytes(section))
                swapped.byteswap()
                buffers[name] = swapped
            else:
                buffers[name] = section
        return buffers
    except struct.error as exc:
        raise ArtifactCorrupt(f"{source}: truncated header ({exc})") from exc


# ------------------------------------------------------------------ plan encoding
def _encode_pattern(pattern: Pattern) -> dict:
    return {
        "name": pattern.name,
        "nodes": [[node, pattern.label_of(node),
                   [[atom.op, atom.constant]
                    for atom in pattern.predicate_of(node).atoms]]
                  for node in sorted(pattern.nodes())],
        "edges": [[u, v] for u, v in pattern.edges()],
    }


def _decode_pattern(doc: dict) -> Pattern:
    pattern = Pattern(name=doc.get("name", ""))
    for node, label, atoms in doc["nodes"]:
        predicate = Predicate(tuple(Atom(op, constant)
                                    for op, constant in atoms))
        pattern.add_node(label, predicate=predicate, node_id=int(node))
    for u, v in doc["edges"]:
        pattern.add_edge(int(u), int(v))
    return pattern


def _encode_plan(plan: QueryPlan, constraint_pos: dict) -> dict:
    return {
        "pattern": _encode_pattern(plan.pattern),
        "semantics": plan.semantics,
        "ops": [{"target": op.target,
                 "source_nodes": list(op.source_nodes),
                 "constraint": constraint_pos[op.constraint],
                 "fetch_bound": op.fetch_bound,
                 "size_bound": op.size_bound} for op in plan.ops],
        "edge_checks": [{"edge": list(check.edge),
                         "mode": check.mode,
                         "fetch_target": check.fetch_target,
                         "source_nodes": list(check.source_nodes),
                         "constraint": (None if check.constraint is None
                                        else constraint_pos[check.constraint]),
                         "cost_bound": check.cost_bound}
                        for check in plan.edge_checks],
    }


def _decode_plan(doc: dict, schema: AccessSchema, constraints: list) -> QueryPlan:
    pattern = _decode_pattern(doc["pattern"])
    plan = QueryPlan(pattern=pattern, schema=schema,
                     semantics=doc["semantics"])
    for op in doc["ops"]:
        target = int(op["target"])
        plan.ops.append(FetchOp(
            target=target,
            source_nodes=tuple(int(v) for v in op["source_nodes"]),
            constraint=constraints[op["constraint"]],
            predicate=pattern.predicate_of(target),
            fetch_bound=float(op["fetch_bound"]),
            size_bound=float(op["size_bound"])))
    for check in doc["edge_checks"]:
        constraint = check["constraint"]
        plan.edge_checks.append(EdgeCheck(
            edge=(int(check["edge"][0]), int(check["edge"][1])),
            mode=check["mode"],
            fetch_target=(None if check["fetch_target"] is None
                          else int(check["fetch_target"])),
            source_nodes=tuple(int(v) for v in check["source_nodes"]),
            constraint=None if constraint is None else constraints[constraint],
            cost_bound=float(check["cost_bound"])))
    return plan


def _freeze(obj):
    """Recursively turn JSON lists back into the hashable tuples the
    plan-cache keys are made of."""
    if isinstance(obj, list):
        return tuple(_freeze(item) for item in obj)
    return obj


def _encode_plan_entries(engine) -> list[dict]:
    constraint_pos = {c: i for i, c in enumerate(engine.schema)}
    entries = []
    for cache_key, entry in engine.plan_cache.items():
        if not entry.usable_by(engine.catalog):
            continue  # foreign-schema or stale-negative entry in a shared cache
        key, semantics = cache_key
        doc = {"key": key, "semantics": semantics,
               "order": list(entry.order), "version": entry.version,
               "schema_size": entry.schema_size}
        if entry.error is not None:
            doc["error"] = {
                "message": str(entry.error),
                "uncovered_nodes": list(entry.error.uncovered_nodes),
                "uncovered_edges": [list(edge)
                                    for edge in entry.error.uncovered_edges]}
        else:
            doc["plan"] = _encode_plan(entry.plan, constraint_pos)
        entries.append(doc)
    return entries


def _decode_plan_entries(payload: dict, schema: AccessSchema):
    from repro.engine.engine import _CacheEntry

    constraints = list(schema)
    for doc in payload.get("entries", ()):
        cache_key = (_freeze(doc["key"]), doc["semantics"])
        order = tuple(int(v) for v in doc["order"])
        if "error" in doc:
            error_doc = doc["error"]
            error = NotEffectivelyBounded(
                error_doc["message"],
                uncovered_nodes=[int(v)
                                 for v in error_doc["uncovered_nodes"]],
                uncovered_edges=[(int(u), int(v))
                                 for u, v in error_doc["uncovered_edges"]])
            entry = _CacheEntry(order=order, schema=schema,
                                version=int(doc.get("version", 0)),
                                schema_size=int(doc["schema_size"]),
                                error=error)
        else:
            plan = _decode_plan(doc["plan"], schema, constraints)
            entry = _CacheEntry(order=order, schema=schema,
                                version=int(doc.get("version", 0)),
                                schema_size=int(doc["schema_size"]),
                                plan=plan)
        yield cache_key, entry


# ------------------------------------------------------------------------- saving
def save_engine(engine, path) -> dict:
    """Write ``engine``'s compiled state to the artifact directory
    ``path`` (created if needed, overwritten if present) and return the
    manifest. Clears any stale marker: a fresh save *is* the repair.
    """
    from repro import __version__  # late: repro/__init__ defines it last

    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    graph = engine.graph
    if not isinstance(graph, FrozenGraph):
        graph = FrozenGraph.from_graph(graph)
    graph_buffers, graph_meta = graph.to_buffers()

    index_buffers: dict = {}
    index_meta = []
    for i, constraint in enumerate(engine.schema):
        index = engine.schema_index.index_for(constraint)
        if isinstance(index, ConstraintIndex):
            index = index.freeze()
        for name, buf in index.to_buffers().items():
            index_buffers[f"c{i}.{name}"] = buf
        index_meta.append({"constraint": constraint.to_dict(),
                           "num_keys": index.num_keys,
                           "size": index.size,
                           "max_entry": index.max_entry})

    plan_entries = _encode_plan_entries(engine)

    contents = {
        GRAPH_FILE: pack_buffers(graph_buffers),
        GRAPH_META_FILE: json.dumps(graph_meta).encode("utf-8"),
        INDEX_FILE: pack_buffers(index_buffers),
        PLANS_FILE: json.dumps({"entries": plan_entries}).encode("utf-8"),
        CATALOG_FILE: json.dumps(engine.catalog.to_dict()).encode("utf-8"),
    }
    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "layout": "single",
        "library_version": __version__,
        "byteorder": sys.byteorder,
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges,
                  "labels": len(graph.labels())},
        "schema": engine.schema.to_dict(),
        "schema_version": engine.catalog.version,
        "index": index_meta,
        "plans": {"entries": len(plan_entries)},
        "files": {name: {"sha256": hashlib.sha256(data).hexdigest(),
                         "bytes": len(data)}
                  for name, data in contents.items()},
    }
    for name, data in contents.items():
        (path / name).write_bytes(data)
    # Manifest last: a crash mid-save leaves a manifest that does not
    # match its payloads, which load_engine reports as corruption.
    (path / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2) + "\n",
                                      encoding="utf-8")
    (path / STALE_FILE).unlink(missing_ok=True)
    return manifest


# ------------------------------------------------------------------------ loading
def _read_manifest(path: Path) -> dict:
    manifest_path = path / MANIFEST_FILE
    if not manifest_path.is_file():
        raise ArtifactCorrupt(f"no artifact manifest at {manifest_path}",
                              path=str(path))
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ArtifactCorrupt(f"unreadable artifact manifest: {exc}",
                              path=str(manifest_path)) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise ArtifactCorrupt(
            f"{manifest_path} is not a {FORMAT_NAME} manifest",
            path=str(manifest_path))
    found = manifest.get("format_version")
    if found not in SUPPORTED_READ_VERSIONS:
        raise ArtifactVersionMismatch(
            f"artifact at {path} has format version {found!r}; this library "
            f"reads versions {SUPPORTED_READ_VERSIONS} — re-compile the "
            f"artifact",
            found=found, supported=FORMAT_VERSION)
    return manifest


def _read_payloads(path: Path, manifest: dict,
                   expected: tuple | None = None) -> dict:
    if expected is None:
        expected = _expected_payloads(manifest)
    files = manifest.get("files")
    if not isinstance(files, dict) or set(files) != set(expected):
        raise ArtifactCorrupt(
            f"artifact manifest at {path} lists unexpected files",
            path=str(path))
    payloads = {}
    for name, meta in files.items():
        file_path = path / name
        try:
            data = file_path.read_bytes()
        except OSError as exc:
            raise ArtifactCorrupt(f"missing artifact file {file_path}: {exc}",
                                  path=str(file_path)) from exc
        if len(data) != meta.get("bytes"):
            raise ArtifactCorrupt(
                f"{file_path}: size {len(data)} != recorded {meta.get('bytes')}",
                path=str(file_path))
        digest = hashlib.sha256(data).hexdigest()
        if digest != meta.get("sha256"):
            raise ArtifactCorrupt(
                f"{file_path}: checksum mismatch (artifact is corrupt or "
                f"was modified; re-compile it)", path=str(file_path))
        payloads[name] = data
    return payloads


def stale_info(path) -> dict | None:
    """The stale-marker contents, or None when the artifact is fresh."""
    marker = Path(path) / STALE_FILE
    if not marker.is_file():
        return None
    try:
        info = json.loads(marker.read_text(encoding="utf-8"))
        return info if isinstance(info, dict) else {"reason": str(info)}
    except (OSError, ValueError):
        return {"reason": "unreadable stale marker"}


def mark_stale(path, reason: str) -> None:
    """Mark the artifact at ``path`` stale (idempotent; no-op when the
    directory is gone). ``QueryEngine.apply`` calls this the moment the
    served graph diverges from the on-disk snapshot."""
    directory = Path(path)
    if not directory.is_dir():
        return
    (directory / STALE_FILE).write_text(
        json.dumps({"reason": reason}) + "\n", encoding="utf-8")


def _decode_catalog(path: Path, manifest: dict,
                    schema: AccessSchema, payload: bytes | None):
    """Rehydrate the schema catalog of a v3 artifact, or synthesize a
    generation-0 catalog for a v2 one (``payload=None``)."""
    from repro.constraints.catalog import SchemaCatalog
    from repro.errors import SchemaError

    if payload is None:
        return SchemaCatalog(schema, provenance={"origin": "v2-artifact"})
    try:
        return SchemaCatalog.from_dict(json.loads(payload), schema)
    except (ValueError, SchemaError) as exc:
        raise ArtifactCorrupt(
            f"malformed schema catalog in {path / CATALOG_FILE}: {exc}",
            path=str(path / CATALOG_FILE)) from exc


def _load_frozen_parts(path: Path, manifest: dict):
    """``(catalog, graph, indexes, plans_payload)`` from a single-layout
    artifact directory whose manifest has already been read."""
    payloads = _read_payloads(path, manifest)
    byteswap = manifest.get("byteorder") != sys.byteorder
    try:
        schema = AccessSchema.from_dict(manifest["schema"])
        graph_meta = json.loads(payloads[GRAPH_META_FILE])
        plans_payload = json.loads(payloads[PLANS_FILE])
    except (KeyError, ValueError) as exc:
        raise ArtifactCorrupt(f"malformed artifact JSON at {path}: {exc}",
                              path=str(path)) from exc
    catalog = _decode_catalog(path, manifest, schema,
                              payloads.get(CATALOG_FILE))

    graph_buffers = unpack_buffers(payloads[GRAPH_FILE], byteswap=byteswap,
                                   source=GRAPH_FILE)
    graph = FrozenGraph.from_buffers(graph_buffers, graph_meta)

    index_buffers = unpack_buffers(payloads[INDEX_FILE], byteswap=byteswap,
                                   source=INDEX_FILE)
    per_constraint: dict[str, dict] = {}
    for name, buf in index_buffers.items():
        prefix, _, field = name.partition(".")
        per_constraint.setdefault(prefix, {})[field] = buf
    indexes = {}
    for i, constraint in enumerate(schema):
        indexes[constraint] = FrozenConstraintIndex.from_buffers(
            constraint, per_constraint.get(f"c{i}", {}))
    return catalog, graph, indexes, plans_payload


def _decode_plan_cache(path: Path, plans_payload: dict, schema,
                       cache_size: int):
    """Rehydrate a plan cache, never letting LRU capacity silently evict
    persisted plans on load — that would quietly re-pay EBChk/QPlan on
    the "warm" path."""
    from repro.engine.cache import PlanCache

    try:
        plan_entries = list(_decode_plan_entries(plans_payload, schema))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ArtifactCorrupt(
            f"malformed plan entry in {path / PLANS_FILE}: {exc}",
            path=str(path / PLANS_FILE)) from exc
    plan_cache = PlanCache(max(cache_size, len(plan_entries), 1))
    for cache_key, entry in plan_entries:
        plan_cache.put(cache_key, entry)
    return plan_cache


def artifact_layout(path) -> str:
    """``"single"`` or ``"sharded"`` for the artifact at ``path``.

    Reads (and version-checks) the manifest only — used by callers that
    must pick open parameters by layout, e.g. the server's hot reload.
    """
    return _read_manifest(Path(path)).get("layout", "single")


#: Serving strategies for sharded artifacts (see :func:`load_engine`).
STRATEGIES = ("auto", "sequential", "scatter")

#: Shard backends for scatter serving (see :func:`load_engine`).
BACKENDS = ("auto", "inline", "process", "remote")


def load_engine(path, *, frozen: bool = True, validate: bool = False,
                cache_size: int = 128, allow_stale: bool = False,
                workers: int = 0, mp_context=None, strategy: str = "auto",
                executor: str = "auto", backend: str = "auto",
                shard_addrs: Sequence[str] = (),
                connect_timeout: float = 5.0,
                request_timeout: float = 30.0,
                retries: int = 2, retry_backoff_s: float = 0.1,
                owner_routing: bool = True,
                scatter_pipeline: bool = True):
    """Open a :class:`~repro.engine.engine.QueryEngine` from an artifact.

    The frozen path (default) is the warm start: CSR buffers are adopted
    zero-copy, constraint indexes decode lazily, and the plan cache is
    rehydrated so previously prepared canonical forms skip EBChk/QPlan.
    ``frozen=False`` thaws the graph into a mutable session (paying a
    mutable index rebuild) with the plan cache still warm — the only
    loaded flavour that supports ``apply``.

    A *sharded* artifact (``repro compile --shards N``) opens under
    ``strategy``:

    * ``"scatter"`` — the scatter-gather session: ``workers=0`` holds
      every shard in-process, ``workers=N`` spawns N worker processes
      that each warm-start their shards from the per-shard sub-artifacts
      (see :mod:`repro.engine.parallel`).
    * ``"sequential"`` — merge the shards back into one frozen graph +
      schema index (:func:`repro.graph.partition.merge_shard_runtimes`)
      and serve an ordinary single-graph session; the (vectorized) plan
      executors apply. Incompatible with ``workers``.
    * ``"auto"`` (default) — ``"sequential"`` when ``workers=0`` (an
      in-process scatter over shards only adds coordination overhead on
      one CPU) and ``"scatter"`` when worker processes are requested.

    ``backend`` picks *where* the shards of a scatter session live:
    ``"inline"`` (this process), ``"process"`` (the worker pool —
    implied by ``workers=N``), or ``"remote"`` — a fleet of ``repro
    shard-serve`` processes reached through ``shard_addrs`` (one
    ``host:port`` per shard, any order), with ``connect_timeout`` /
    ``request_timeout`` / ``retries`` / ``retry_backoff_s`` governing
    the connection robustness (see
    :class:`~repro.engine.parallel.RemoteShardBackend`). ``"auto"``
    (default) infers ``remote`` when ``shard_addrs`` is non-empty and
    ``process`` when ``workers`` is. ``owner_routing=False`` disables
    owner-filtered scatter (broadcast every task — the reference mode).

    ``executor`` picks the plan executor for unsharded or merged serving
    (see :class:`~repro.engine.engine.QueryEngine`). ``workers`` and
    ``strategy="scatter"`` are rejected for single-layout artifacts
    rather than silently ignored.
    """
    from repro.engine.engine import QueryEngine

    if strategy not in STRATEGIES:
        raise EngineError(f"unknown strategy {strategy!r}; expected one "
                          f"of {STRATEGIES}")
    if backend not in BACKENDS:
        raise EngineError(f"unknown backend {backend!r}; expected one "
                          f"of {BACKENDS}")
    if backend == "auto":
        backend = "remote" if shard_addrs else \
            ("process" if workers else "inline")
    if backend == "remote" and not shard_addrs:
        raise EngineError("backend='remote' needs shard_addrs "
                          "(one host:port per shard)")
    if backend != "remote" and shard_addrs:
        raise EngineError(f"shard_addrs only applies to backend='remote', "
                          f"not {backend!r}")
    if backend == "remote" and workers:
        raise EngineError("backend='remote' serves from standalone shard "
                          "servers; it is incompatible with workers")
    if backend == "process" and not workers:
        raise EngineError("backend='process' needs workers >= 1")
    path = Path(path)
    manifest = _read_manifest(path)
    if manifest.get("layout") == "sharded":
        return _load_sharded_engine(path, manifest, validate=validate,
                                    cache_size=cache_size, workers=workers,
                                    mp_context=mp_context, frozen=frozen,
                                    allow_stale=allow_stale,
                                    strategy=strategy, executor=executor,
                                    backend=backend,
                                    shard_addrs=shard_addrs,
                                    connect_timeout=connect_timeout,
                                    request_timeout=request_timeout,
                                    retries=retries,
                                    retry_backoff_s=retry_backoff_s,
                                    owner_routing=owner_routing,
                                    scatter_pipeline=scatter_pipeline)
    if workers:
        raise EngineError(
            f"artifact at {path} is not sharded; open it without workers, "
            f"or re-compile with `repro compile --shards N`")
    if backend == "remote":
        raise EngineError(
            f"artifact at {path} is not sharded; backend='remote' needs "
            f"a sharded artifact (repro compile --shards N)")
    if strategy == "scatter":
        raise EngineError(
            f"artifact at {path} is not sharded; strategy='scatter' needs "
            f"a sharded artifact (repro compile --shards N)")
    stale = stale_info(path)
    if stale is not None and not allow_stale:
        raise ArtifactStale(
            f"artifact at {path} is stale ({stale.get('reason', 'unknown')}); "
            f"re-compile it or pass allow_stale=True",
            reason=stale.get("reason"))
    if not frozen and manifest.get("format_version") != FORMAT_VERSION:
        # The 2 -> 3 migration path: old artifacts stay servable on the
        # read path, but a mutable lineage needs a real catalog history,
        # which only a re-compile can establish.
        raise ArtifactVersionMismatch(
            f"artifact at {path} has format version "
            f"{manifest.get('format_version')} and opens read-only "
            f"(frozen); re-compile it to version {FORMAT_VERSION} for a "
            f"mutable session",
            found=manifest.get("format_version"), supported=FORMAT_VERSION)
    catalog, graph, indexes, plans_payload = _load_frozen_parts(path, manifest)
    schema = catalog.current
    plan_cache = _decode_plan_cache(path, plans_payload, schema, cache_size)

    if frozen:
        schema_index = SchemaIndex.from_prebuilt(graph, schema, indexes)
        engine = QueryEngine(graph, catalog, frozen=True, validate=validate,
                             cache_size=cache_size, plan_cache=plan_cache,
                             schema_index=schema_index, executor=executor)
    else:
        engine = QueryEngine(graph.thaw(), catalog, frozen=False,
                             validate=validate, cache_size=cache_size,
                             plan_cache=plan_cache, executor=executor)

    engine.artifact_path = path
    return engine


# ----------------------------------------------------------------- sharded layout
def save_sharded_engine(engine, path, shards: int,
                        assignment: dict | None = None) -> dict:
    """Partition ``engine``'s graph into ``shards`` halo shards and write
    a sharded artifact directory.

    Layout::

        manifest.json   layout "sharded": partition stats, schema, plan
                        count, checksums of the top payloads *and* of
                        every shard manifest (the root of trust covers
                        the whole tree)
        plans.json      the engine's plan cache (shared by all shards —
                        plans depend on Q and A only)
        partition.bin   per-shard owned-node id buffers
        shard-0000/ …   one complete single-layout artifact per shard:
                        halo graph + owned-target constraint indexes

    Workers warm-start from the shard sub-artifacts, so nothing larger
    than task/response tuples ever crosses a process boundary.
    """
    from repro import __version__
    from repro.engine.cache import PlanCache
    from repro.graph.partition import build_shard_indexes, partition_graph

    if shards < 1:
        raise EngineError(f"shards must be >= 1, got {shards}")
    graph = engine.graph
    if not isinstance(graph, FrozenGraph):
        graph = FrozenGraph.from_graph(graph)
    partition = partition_graph(graph, shards, assignment=assignment)
    shard_indexes = build_shard_indexes(partition, engine.schema)

    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    shard_meta = []
    for shard, schema_index in zip(partition.shards, shard_indexes):
        shard_path = path / shard_dir_name(shard.shard_id)
        session = _ShardSession(graph=shard.graph, catalog=engine.catalog,
                                schema_index=schema_index,
                                plan_cache=PlanCache(1))
        manifest = save_engine(session, shard_path)
        manifest_bytes = (shard_path / MANIFEST_FILE).read_bytes()
        shard_meta.append({
            "dir": shard_dir_name(shard.shard_id),
            "manifest_sha256": hashlib.sha256(manifest_bytes).hexdigest(),
            "nodes": shard.graph.num_nodes,
            "edges": shard.graph.num_edges,
            "owned_nodes": len(shard.owned),
            "owned_edges": shard.owned_edges,
            "halo_nodes": shard.num_halo,
            "bytes": sum(meta["bytes"]
                         for meta in manifest["files"].values()),
        })

    partition_buffers = {
        f"s{shard.shard_id}.owned": array("q", shard.owned)
        for shard in partition.shards
    }
    plan_entries = _encode_plan_entries(engine)
    contents = {
        PLANS_FILE: json.dumps({"entries": plan_entries}).encode("utf-8"),
        PARTITION_FILE: pack_buffers(partition_buffers),
        CATALOG_FILE: json.dumps(engine.catalog.to_dict()).encode("utf-8"),
    }
    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "layout": "sharded",
        "library_version": __version__,
        "byteorder": sys.byteorder,
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges,
                  "labels": len(graph.labels())},
        "schema": engine.schema.to_dict(),
        "schema_version": engine.catalog.version,
        "partition": {"num_shards": partition.num_shards,
                      "cross_edges": partition.cross_edges},
        "shards": shard_meta,
        "plans": {"entries": len(plan_entries)},
        "files": {name: {"sha256": hashlib.sha256(data).hexdigest(),
                         "bytes": len(data)}
                  for name, data in contents.items()},
    }
    for name, data in contents.items():
        (path / name).write_bytes(data)
    # Manifest last: a crash mid-save reads as corruption, never as a
    # trustworthy artifact.
    (path / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2) + "\n",
                                      encoding="utf-8")
    # A fresh save is the repair for staleness, as in save_engine.
    (path / STALE_FILE).unlink(missing_ok=True)
    return manifest


class _ShardSession:
    """The slice of the ``QueryEngine`` surface :func:`save_engine`
    needs, for saving one shard as a standard artifact."""

    def __init__(self, graph, catalog, schema_index, plan_cache):
        self.graph = graph
        self.catalog = catalog
        self.schema = catalog.current
        self.schema_index = schema_index
        self.plan_cache = plan_cache


def save_extended_sharded(engine, source, path) -> dict:
    """Persist an inline sharded session — typically one grown by
    ``extend_schema`` — as a sharded artifact at ``path``, reusing the
    partition of the artifact it was opened from (``source``).

    This is the on-disk half of incremental extension: the partition is
    **not** recomputed and no index is rebuilt — each shard directory is
    re-serialized from its loaded runtime, whose indexes for the added
    constraints were built incrementally over owned targets only.
    ``path`` may equal ``source`` (in-place extension: the loaded
    payloads are plain in-memory bytes, so overwriting is safe).
    """
    from repro import __version__
    from repro.engine.cache import PlanCache
    from repro.engine.parallel import InlineShardBackend

    source = Path(source)
    path = Path(path)
    src_manifest = _read_manifest(source)
    if src_manifest.get("layout") != "sharded":
        raise EngineError(f"artifact at {source} is not sharded")
    backend = getattr(engine, "_shards", None)
    if not isinstance(backend, InlineShardBackend):
        raise EngineError(
            "saving an extended sharded artifact requires an inline "
            "sharded session (open_path(..., workers=0))")
    try:
        partition_bytes = (source / PARTITION_FILE).read_bytes()
    except OSError as exc:
        raise ArtifactCorrupt(
            f"missing artifact file {source / PARTITION_FILE}: {exc}",
            path=str(source / PARTITION_FILE)) from exc
    if src_manifest.get("byteorder") != sys.byteorder:
        # Everything else re-encodes natively below; re-encode the
        # copied partition payload too so one byteorder describes the
        # whole new artifact.
        partition_bytes = pack_buffers(unpack_buffers(
            partition_bytes, byteswap=True, source=PARTITION_FILE))
    path.mkdir(parents=True, exist_ok=True)

    shard_meta = []
    for runtime in backend.runtimes:
        shard_path = path / shard_dir_name(runtime.shard_id)
        session = _ShardSession(graph=runtime.graph, catalog=engine.catalog,
                                schema_index=runtime.schema_index,
                                plan_cache=PlanCache(1))
        manifest = save_engine(session, shard_path)
        manifest_bytes = (shard_path / MANIFEST_FILE).read_bytes()
        shard_meta.append({
            "dir": shard_dir_name(runtime.shard_id),
            "manifest_sha256": hashlib.sha256(manifest_bytes).hexdigest(),
            "nodes": runtime.graph.num_nodes,
            "edges": runtime.graph.num_edges,
            "owned_nodes": len(runtime.owned),
            "owned_edges": sum(runtime.graph.out_degree(v)
                               for v in runtime.owned),
            "halo_nodes": runtime.graph.num_nodes - len(runtime.owned),
            "bytes": sum(meta["bytes"]
                         for meta in manifest["files"].values()),
        })

    plan_entries = _encode_plan_entries(engine)
    contents = {
        PLANS_FILE: json.dumps({"entries": plan_entries}).encode("utf-8"),
        PARTITION_FILE: partition_bytes,
        CATALOG_FILE: json.dumps(engine.catalog.to_dict()).encode("utf-8"),
    }
    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "layout": "sharded",
        "library_version": __version__,
        "byteorder": sys.byteorder,
        "graph": dict(src_manifest.get("graph", {})),
        "schema": engine.schema.to_dict(),
        "schema_version": engine.catalog.version,
        "partition": dict(src_manifest.get("partition", {})),
        "shards": shard_meta,
        "plans": {"entries": len(plan_entries)},
        "files": {name: {"sha256": hashlib.sha256(data).hexdigest(),
                         "bytes": len(data)}
                  for name, data in contents.items()},
    }
    for name, data in contents.items():
        (path / name).write_bytes(data)
    # Manifest last, staleness cleared by the fresh save — the same
    # crash-safety discipline as save_engine/save_sharded_engine.
    (path / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2) + "\n",
                                      encoding="utf-8")
    (path / STALE_FILE).unlink(missing_ok=True)
    engine.artifact_path = path
    return manifest


def _shard_manifests(path: Path, manifest: dict,
                     only=None) -> list[tuple[int, Path, dict]]:
    """Verify and read shard manifests against the top-level root of
    trust; raises on any mismatch. ``only`` restricts the work to a set
    of shard ids (workers verify just their assignment — the parent's
    whole-tree sweep covers the rest)."""
    shard_meta = manifest.get("shards")
    if not isinstance(shard_meta, list) or not shard_meta:
        raise ArtifactCorrupt(
            f"sharded artifact at {path} lists no shards", path=str(path))
    out = []
    for shard_id, meta in enumerate(shard_meta):
        if only is not None and shard_id not in only:
            continue
        shard_path = path / meta.get("dir", shard_dir_name(shard_id))
        manifest_path = shard_path / MANIFEST_FILE
        try:
            manifest_bytes = manifest_path.read_bytes()
        except OSError as exc:
            raise ArtifactCorrupt(
                f"missing shard manifest {manifest_path}: {exc}",
                path=str(manifest_path)) from exc
        digest = hashlib.sha256(manifest_bytes).hexdigest()
        if digest != meta.get("manifest_sha256"):
            raise ArtifactCorrupt(
                f"{manifest_path}: checksum mismatch (shard "
                f"{shard_id} is corrupt or was modified; re-compile)",
                path=str(manifest_path))
        out.append((shard_id, shard_path, _read_manifest(shard_path)))
    return out


def verify_sharded_artifact(path, manifest: dict | None = None) -> int:
    """Eagerly checksum a sharded artifact's whole tree (top payloads,
    every shard manifest, every shard payload). Returns the shard count;
    raises :class:`~repro.errors.ArtifactCorrupt` on the first mismatch —
    corrupting any single shard is detected *before* a worker ever
    serves from it."""
    path = Path(path)
    if manifest is None:
        manifest = _read_manifest(path)
    _read_payloads(path, manifest)
    shard_entries = _shard_manifests(path, manifest)
    for _, shard_path, shard_manifest in shard_entries:
        _read_payloads(shard_path, shard_manifest)
    return len(shard_entries)


def read_sharded_manifest(path) -> dict:
    """The (version-checked) manifest of a *sharded* artifact; raises
    :class:`~repro.errors.ArtifactCorrupt` for the single layout. The
    remote-backend handshake reads its expectations from this — the
    artifact format version, schema version and per-shard manifest
    checksums every ``repro shard-serve`` process must agree with at
    connect time."""
    manifest = _read_manifest(Path(path))
    if manifest.get("layout") != "sharded":
        raise ArtifactCorrupt(f"artifact at {path} is not sharded",
                              path=str(path))
    return manifest


def load_partition_owners(path, manifest: dict | None = None) -> dict:
    """``{shard_id: [owned node ids]}`` from ``partition.bin``, checksum
    verified against the manifest — the node-ownership half of the
    owner-routing metadata (see
    :class:`~repro.engine.parallel.OwnerRouter`). Reads only the
    partition payload, so a front-end that holds no graph can still
    route probes."""
    path = Path(path)
    if manifest is None:
        manifest = read_sharded_manifest(path)
    meta = (manifest.get("files") or {}).get(PARTITION_FILE)
    if not isinstance(meta, dict):
        raise ArtifactCorrupt(
            f"artifact manifest at {path} does not list {PARTITION_FILE}",
            path=str(path))
    file_path = path / PARTITION_FILE
    try:
        data = file_path.read_bytes()
    except OSError as exc:
        raise ArtifactCorrupt(f"missing artifact file {file_path}: {exc}",
                              path=str(file_path)) from exc
    if hashlib.sha256(data).hexdigest() != meta.get("sha256"):
        raise ArtifactCorrupt(
            f"{file_path}: checksum mismatch (artifact is corrupt or was "
            f"modified; re-compile it)", path=str(file_path))
    buffers = unpack_buffers(data,
                             byteswap=manifest.get("byteorder")
                             != sys.byteorder,
                             source=PARTITION_FILE)
    owners: dict[int, list[int]] = {}
    for shard_id in range(len(manifest.get("shards") or ())):
        owned = buffers.get(f"s{shard_id}.owned")
        if owned is None:
            raise ArtifactCorrupt(
                f"{file_path} is missing the owned-node buffer for "
                f"shard {shard_id}", path=str(file_path))
        owners[shard_id] = list(owned)
    return owners


def load_shard_runtimes(path, shard_ids) -> list:
    """Load the given shards of a sharded artifact into
    :class:`~repro.engine.parallel.ShardRuntime` objects (the worker
    warm-start path; also used inline for ``workers=0``)."""
    from repro.engine.parallel import ShardRuntime

    path = Path(path)
    manifest = _read_manifest(path)
    if manifest.get("layout") != "sharded":
        raise ArtifactCorrupt(f"artifact at {path} is not sharded",
                              path=str(path))
    payloads = _read_payloads(path, manifest)
    byteswap = manifest.get("byteorder") != sys.byteorder
    partition_buffers = unpack_buffers(payloads[PARTITION_FILE],
                                       byteswap=byteswap,
                                       source=PARTITION_FILE)
    shard_ids = list(shard_ids)
    shard_entries = {shard_id: (shard_path, shard_manifest)
                     for shard_id, shard_path, shard_manifest
                     in _shard_manifests(path, manifest,
                                         only=set(shard_ids))}
    runtimes = []
    for shard_id in shard_ids:
        if shard_id not in shard_entries:
            raise ArtifactCorrupt(
                f"sharded artifact at {path} has no shard {shard_id}",
                path=str(path))
        owned = partition_buffers.get(f"s{shard_id}.owned")
        if owned is None:
            raise ArtifactCorrupt(
                f"{path / PARTITION_FILE} is missing the owned-node "
                f"buffer for shard {shard_id}",
                path=str(path / PARTITION_FILE))
        shard_path, shard_manifest = shard_entries[shard_id]
        catalog, graph, indexes, _ = _load_frozen_parts(shard_path,
                                                        shard_manifest)
        schema_index = SchemaIndex.from_prebuilt(graph, catalog.current,
                                                 indexes)
        runtimes.append(ShardRuntime(shard_id, graph, schema_index,
                                     list(owned)))
    return runtimes


def _load_sharded_engine(path: Path, manifest: dict, *, validate: bool,
                         cache_size: int, workers: int, mp_context,
                         frozen: bool, allow_stale: bool = False,
                         strategy: str = "auto", executor: str = "auto",
                         backend: str = "inline",
                         shard_addrs: Sequence[str] = (),
                         connect_timeout: float = 5.0,
                         request_timeout: float = 30.0,
                         retries: int = 2, retry_backoff_s: float = 0.1,
                         owner_routing: bool = True,
                         scatter_pipeline: bool = True):
    from repro.engine.engine import QueryEngine
    from repro.engine.parallel import (
        InlineShardBackend,
        ProcessShardBackend,
        RemoteShardBackend,
    )
    from repro.graph.partition import GraphSummary, merge_shard_runtimes

    # Same staleness contract as the single layout: a sharded artifact
    # saved by a mutable session and then diverged via apply() must
    # never be served silently.
    stale = stale_info(path)
    if stale is not None and not allow_stale:
        raise ArtifactStale(
            f"artifact at {path} is stale ({stale.get('reason', 'unknown')}); "
            f"re-compile it or pass allow_stale=True",
            reason=stale.get("reason"))
    if not frozen:
        raise EngineError(
            "sharded artifacts open frozen only; incremental updates go "
            "through re-compile (repro compile --shards) + hot reload")
    if strategy == "auto":
        # One process means in-process scatter only adds coordination
        # overhead; merge the shards back and serve the (vectorized)
        # sequential executors. Worker processes — or a remote fleet —
        # mean real parallelism.
        strategy = "scatter" if (workers or backend == "remote") \
            else "sequential"
    if strategy == "sequential" and workers:
        raise EngineError(
            "strategy='sequential' serves the merged graph in-process; "
            "it is incompatible with workers — drop workers or use "
            "strategy='scatter'")
    if strategy == "sequential" and backend == "remote":
        raise EngineError(
            "strategy='sequential' serves the merged graph in-process; "
            "it is incompatible with backend='remote'")
    if validate and strategy == "scatter":
        raise EngineError(
            "validate=True is not supported for scatter-gather serving: "
            "cardinality bounds are a property of the merged index; "
            "open with strategy='sequential' or validate before compiling")
    shard_meta = manifest.get("shards")
    if not isinstance(shard_meta, list) or not shard_meta:
        raise ArtifactCorrupt(
            f"sharded artifact at {path} lists no shards", path=str(path))
    num_shards = len(shard_meta)
    if workers:
        # Workers checksum-verify only the shards they load, so the
        # whole-tree sweep runs in the parent: corrupting any single
        # shard is detected here, before a worker ever serves from it.
        # The inline path skips the sweep — loading every shard below
        # performs the identical verification exactly once.
        verify_sharded_artifact(path, manifest)
    try:
        schema = AccessSchema.from_dict(manifest["schema"])
        plans_payload = json.loads((path / PLANS_FILE).read_bytes())
        graph_info = manifest["graph"]
        summary = GraphSummary(num_nodes=int(graph_info["nodes"]),
                               num_edges=int(graph_info["edges"]),
                               num_labels=int(graph_info["labels"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactCorrupt(f"malformed sharded manifest at {path}: {exc}",
                              path=str(path)) from exc
    catalog_payload = None
    if manifest.get("format_version") == FORMAT_VERSION:
        try:
            catalog_payload = (path / CATALOG_FILE).read_bytes()
        except OSError as exc:
            raise ArtifactCorrupt(
                f"missing artifact file {path / CATALOG_FILE}: {exc}",
                path=str(path / CATALOG_FILE)) from exc
    catalog = _decode_catalog(path, manifest, schema, catalog_payload)
    plan_cache = _decode_plan_cache(path, plans_payload, schema, cache_size)

    if strategy == "sequential":
        runtimes = load_shard_runtimes(path, range(num_shards))
        merged_graph, merged_index = merge_shard_runtimes(runtimes,
                                                          catalog.current)
        engine = QueryEngine(merged_graph, catalog, frozen=True,
                             validate=validate, cache_size=cache_size,
                             plan_cache=plan_cache,
                             schema_index=merged_index, executor=executor)
        engine.artifact_path = path
        return engine

    if backend == "remote":
        shards = RemoteShardBackend(list(shard_addrs), schema,
                                    artifact_path=path, manifest=manifest,
                                    connect_timeout=connect_timeout,
                                    request_timeout=request_timeout,
                                    retries=retries,
                                    retry_backoff_s=retry_backoff_s,
                                    owner_routing=owner_routing)
    elif workers:
        shards = ProcessShardBackend(path, range(num_shards), schema,
                                     workers=workers,
                                     mp_context=mp_context,
                                     owner_routing=owner_routing)
    else:
        runtimes = load_shard_runtimes(path, range(num_shards))
        shards = InlineShardBackend(runtimes, schema,
                                    owner_routing=owner_routing)
    engine = QueryEngine.from_shards(shards, catalog, summary,
                                     plan_cache=plan_cache,
                                     cache_size=cache_size)
    engine.scatter_pipeline = scatter_pipeline
    engine.artifact_path = path
    return engine


# ---------------------------------------------------------------------- inspection
def inspect_artifact(path) -> dict:
    """Metadata of an artifact without loading it — format and library
    versions, graph stats, per-constraint index sizes, cached plan count,
    staleness, and per-file checksum status (for debugging CI failures).
    """
    path = Path(path)
    manifest = _read_manifest(path)
    files = {}
    for name, meta in manifest.get("files", {}).items():
        file_path = path / name
        if not file_path.is_file():
            status = "missing"
        else:
            data = file_path.read_bytes()
            if (len(data) == meta.get("bytes")
                    and hashlib.sha256(data).hexdigest() == meta.get("sha256")):
                status = "ok"
            else:
                status = "MISMATCH"
        files[name] = {"bytes": meta.get("bytes"), "status": status}
    info = {
        "path": str(path),
        "format": manifest.get("format"),
        "format_version": manifest.get("format_version"),
        "layout": manifest.get("layout", "single"),
        "library_version": manifest.get("library_version"),
        "byteorder": manifest.get("byteorder"),
        "graph": manifest.get("graph", {}),
        "constraints": len(manifest.get("index", [])),
        "index": manifest.get("index", []),
        "cached_plans": manifest.get("plans", {}).get("entries", 0),
        "schema_version": manifest.get("schema_version", 0),
        "generations": [],
        "stale": stale_info(path),
        "files": files,
    }
    catalog_path = path / CATALOG_FILE
    if catalog_path.is_file():
        try:
            catalog_doc = json.loads(catalog_path.read_text(encoding="utf-8"))
            info["generations"] = [
                {"version": gen.get("version"),
                 "added": len(gen.get("added", ())),
                 "size": gen.get("size"),
                 "provenance": gen.get("provenance", {})}
                for gen in catalog_doc.get("generations", ())]
        except (OSError, ValueError):
            info["generations"] = [{"version": None,
                                    "provenance": {"error": "unreadable"}}]
    if info["layout"] == "sharded":
        info["constraints"] = len(manifest.get("schema", {})
                                  .get("constraints", []))
        info["partition"] = manifest.get("partition", {})
        shards = []
        for shard_id, meta in enumerate(manifest.get("shards", [])):
            shard_path = path / meta.get("dir", shard_dir_name(shard_id))
            manifest_path = shard_path / MANIFEST_FILE
            if not manifest_path.is_file():
                status = "missing"
            else:
                digest = hashlib.sha256(
                    manifest_path.read_bytes()).hexdigest()
                status = "ok" if digest == meta.get("manifest_sha256") \
                    else "MISMATCH"
            shards.append({**meta, "status": status})
        info["shards"] = shards
    return info


def render_inspection(info: dict) -> str:
    """Human-readable rendering of :func:`inspect_artifact` output."""
    graph = info.get("graph", {})
    lines = [
        f"artifact: {info['path']}",
        f"  format: {info['format']} v{info['format_version']} "
        f"({info.get('layout', 'single')} layout, library "
        f"{info['library_version']}, {info['byteorder']}-endian)",
        f"  graph: {graph.get('nodes')} nodes, {graph.get('edges')} edges, "
        f"{graph.get('labels')} labels",
        f"  constraints: {info['constraints']}",
        f"  cached plans: {info['cached_plans']}",
        f"  schema version: {info.get('schema_version', 0)}",
        f"  stale: {info['stale'].get('reason') if info['stale'] else 'no'}",
    ]
    for gen in info.get("generations", ()):
        provenance = gen.get("provenance", {})
        origin = provenance.get("origin", "?")
        extras = ", ".join(f"{k}={v}" for k, v in sorted(provenance.items())
                           if k != "origin")
        lines.append(
            f"    generation {gen.get('version')}: +{gen.get('added', 0)} "
            f"constraints -> ||A|| = {gen.get('size')} "
            f"(origin {origin}{', ' + extras if extras else ''})")
    for name, meta in info.get("files", {}).items():
        lines.append(f"  file {name}: {meta['bytes']} bytes [{meta['status']}]")
    if info.get("layout") == "sharded":
        partition = info.get("partition", {})
        lines.append(f"  shards: {partition.get('num_shards')}, "
                     f"cross-shard edges: {partition.get('cross_edges')}")
        for meta in info.get("shards", ()):
            lines.append(
                f"    {meta.get('dir')}: {meta.get('owned_nodes')} owned + "
                f"{meta.get('halo_nodes')} halo nodes, "
                f"{meta.get('owned_edges')} owned edges "
                f"({meta.get('nodes')} nodes / {meta.get('edges')} edges "
                f"stored, {meta.get('bytes')} bytes) "
                f"sha256 {str(meta.get('manifest_sha256'))[:12]}… "
                f"[{meta.get('status')}]")
        return "\n".join(lines)
    total_cells = sum(entry.get("size", 0) for entry in info.get("index", ()))
    largest = sorted(info.get("index", ()),
                     key=lambda e: e.get("size", 0), reverse=True)[:5]
    lines.append(f"  index cells: {total_cells} across "
                 f"{info['constraints']} constraints; largest:")
    for entry in largest:
        constraint = entry.get("constraint", {})
        source = ",".join(constraint.get("source", ())) or "∅"
        lines.append(f"    {source} -> ({constraint.get('target')}, "
                     f"{constraint.get('bound')}): {entry.get('num_keys')} "
                     f"keys, {entry.get('size')} cells")
    return "\n".join(lines)


__all__ = [
    "FORMAT_VERSION",
    "SUPPORTED_READ_VERSIONS",
    "ArtifactError",
    "artifact_layout",
    "inspect_artifact",
    "load_engine",
    "load_shard_runtimes",
    "mark_stale",
    "pack_buffers",
    "render_inspection",
    "save_engine",
    "save_extended_sharded",
    "save_sharded_engine",
    "shard_dir_name",
    "stale_info",
    "unpack_buffers",
    "verify_sharded_artifact",
]
