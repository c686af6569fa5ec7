"""The array executor: node and edge phases as numpy batch kernels.

:func:`execute_plan_vectorized` and :func:`execute_plans_scatter` are
the same executor run against two *fetch sources*. The phases are
written once, in :func:`_plan_steps`, as a generator: it yields the
fetch, edge and probe requests it needs next and resumes with their
answers. The caller decides where the answers come from:

* the **local** source (:class:`KernelContext`) answers with
  :meth:`~repro.constraints.index.FrozenConstraintIndex.fetch_many`
  over the frozen index plus the session caches;
* the **scatter** source (:func:`execute_plans_scatter`) turns each
  request into one owner-routed wire task — a packed combo matrix, plus
  the operation's predicate for a fetch — and merges the shards' array
  answers (:func:`handle_shard_task`).

Inside the phases:

* candidate sets are sorted-unique int64 arrays;
* a fetch operation probes *all* of its source combos with one
  ``np.searchsorted`` into the constraint's packed key buffer;
* candidate reduction is sorted-merge set algebra (sort-based unique,
  ``np.intersect1d``);
* edge resolution is a vectorized CSR membership test over packed
  ``(source row, destination)`` pairs, or, for a scatter, the direction
  bitmasks the owning shard computed with that same test.

**Accounting is reproduced, not recomputed.** The sequential executor
memoizes ``(constraint, combo)`` fetches per phase: the first fetch is
recorded in :class:`~repro.accounting.AccessStats`, repeats are free and
unrecorded, and node/edge phases keep separate memos. The phases keep a
per-phase, per-constraint *seen-combo* set (a sorted packed array)
instead of a payload memo — the index is immutable, so re-probing a seen
combo returns exactly what the memo held, and only unseen combos are
recorded. Answers, candidate sets, ``G_Q`` and every ``AccessStats``
counter (including the distinct-node set) are therefore byte-identical
to :func:`~repro.core.executor.execute_plan` for both sources;
``tests/test_oracle.py`` pins this across sources, shard counts,
semantics, edge modes and drivers.

**Predicates run where the values are.** A scatter fetch ships the
operation's predicate; each shard filters its own payload with the same
:meth:`GraphKernel.predicate_mask` the local source uses. That is exact:
a shard's payload holds only nodes it *owns*, an owned node's value in
the shard graph equals its value in the global graph, and the shards'
payloads are disjoint, so the union of the shards' ``found`` arrays is
the local source's filtered set.

Everything here requires frozen state: a
:class:`~repro.graph.frozen.FrozenGraph` snapshot (whose ``array('q')``
or memoryview buffers become zero-copy ndarray views) and
:class:`~repro.constraints.index.FrozenConstraintIndex` payload buffers.
:func:`can_vectorize` is the gate the engine's ``executor="auto"``
selection uses; a mutable session falls back to the sequential path.
"""

from __future__ import annotations

import queue as _queue_mod

import numpy as np

from repro.accounting import AccessStats
from repro.constraints.index import SchemaIndex
from repro.core.executor import (
    MODE_PLAN,
    MODE_PROBE,
    ExecutionResult,
    _check_coverage,
    _edge_check_geometry,
)
from repro.core.plan import EDGE_VIA_INDEX, EDGE_VIA_PROBE, QueryPlan
from repro.errors import EngineError, PlanError, UnverifiableEdge
from repro.graph.frozen import FrozenGraph
from repro.graph.graph import Graph
from repro.obs.trace import child_span
from repro.util.arrays import (
    in_sorted,
    pack_matrix,
    sorted_unique,
    take_segments,
)

#: Range operators with an exact float64 equivalent (see GraphKernel.
#: predicate_mask). ``!=`` is excluded: ``"str" != 5`` is True in the
#: scalar semantics but a NaN comparison would say False. ``=`` runs on
#: the value-code column instead, which is exact for every hashable
#: constant (strings included).
_RANGE_OPS = frozenset(("<", "<=", ">", ">="))

#: Request and wire-task kinds.
TASK_FETCH = "fetch"
TASK_EDGE = "edge"
TASK_PROBE = "probe"

_EMPTY = np.empty(0, dtype=np.int64)
#: The one (empty) combo of a type (1) fetch.
_NO_COMBOS = np.empty((1, 0), dtype=np.int64)

#: Value kinds of the shard info columns (see GraphKernel.node_info).
_KIND_NONE, _KIND_INT, _KIND_TEMPLATE, _KIND_OTHER = 0, 1, 2, 3


def can_vectorize(schema_index) -> bool:
    """True when ``schema_index`` can serve the vectorized executor:
    CSR graph snapshot, all-frozen indexes."""
    return (schema_index is not None
            and isinstance(schema_index.graph, FrozenGraph)
            and getattr(schema_index, "frozen", False))


def sorted_id_array(ids):
    """Sorted int64 ndarray from an id collection (shard owned sets)."""
    return np.array(sorted(ids), dtype=np.int64)


# ------------------------------------------------------------------ graph kernel
class GraphKernel:
    """Per-snapshot numpy state: CSR views, packed edge keys, and the
    value and info columns predicate masks and shard answers read.

    Cached on the :class:`FrozenGraph` (``_kernel`` slot); the snapshot
    is immutable so nothing here ever invalidates. The ``cache=True``
    lookups memoize per argument bytes, which pays off on a session that
    re-runs queries; a shard server sees a new argument in nearly every
    task, so it calls them with ``cache=False`` and its memory stays
    flat.
    """

    __slots__ = ("graph", "ids", "out_ptr", "out_dst", "in_ptr", "in_src",
                 "num_nodes", "_span", "_edge_keys", "_in_keys", "_val_num",
                 "_val_object", "_val_code", "_code_table", "_info",
                 "_pred_cache", "_mask_cache", "_adj_cache")

    def __init__(self, graph: FrozenGraph):
        views = graph.int64_views()
        self.graph = graph
        self.ids = views["ids"]
        self.out_ptr = views["out_ptr"]
        self.out_dst = views["out_dst"]
        self.in_ptr = views["in_ptr"]
        self.in_src = views["in_src"]
        self.num_nodes = len(self.ids)
        # Adjacency keys are ``row * span + (id - lo)`` int64 scalars
        # when every (row, id) pair fits, packed row bytes otherwise.
        lo = int(self.ids[0]) if self.num_nodes else 0
        span = int(self.ids[-1]) - lo + 1 if self.num_nodes else 1
        self._span = (lo, span) if self.num_nodes * span < 2**62 else None
        self._edge_keys = None
        self._in_keys = None
        self._val_num = None
        self._val_object = None
        self._val_code = None
        self._code_table = None
        self._info = None
        self._pred_cache: dict = {}
        self._mask_cache: dict = {}
        self._adj_cache: dict = {}

    # -- id resolution -------------------------------------------------------
    def positions(self, nodes):
        """CSR row positions of ``nodes`` (which must all be present —
        payloads and candidates always are)."""
        return np.searchsorted(self.ids, nodes)

    # -- adjacency -----------------------------------------------------------
    def has_edges(self, sources, targets, cache: bool = True):
        """Vectorized ``graph.has_edge``: boolean mask per pair. Sources
        absent from the graph resolve to False, like the scalar path."""
        n = len(sources)
        if n == 0 or self.num_nodes == 0 or len(self.out_dst) == 0:
            return np.zeros(n, dtype=bool)
        if cache:
            key = (sources.tobytes(), targets.tobytes())
            cached = self._adj_cache.get(key)
            if cached is not None:
                return cached
        positions = np.searchsorted(self.ids, sources)
        np.minimum(positions, self.num_nodes - 1, out=positions)
        present = self.ids[positions] == sources
        probe, valid = self._row_probe(positions, targets)
        mask = in_sorted(self._out_key_array(), probe) & valid & present
        if cache:
            self._adj_cache[key] = mask
        return mask

    def edge_flags(self, nodes, members):
        """For present ``nodes`` and any ``members`` (pairwise): whether
        the edge ``member -> node`` exists and whether ``node -> member``
        does. Both read ``nodes``' own rows (in- and out-CSR), so they
        are exact for every node whose adjacency the snapshot holds in
        full — a shard's owned nodes."""
        if len(nodes) == 0 or len(self.out_dst) == 0:
            none = np.zeros(len(nodes), dtype=bool)
            return none, none
        probe, valid = self._row_probe(self.positions(nodes), members)
        return (in_sorted(self._in_key_array(), probe) & valid,
                in_sorted(self._out_key_array(), probe) & valid)

    def _row_probe(self, positions, others):
        """Adjacency keys of the pairs ``(row positions[i], others[i])``
        and whether each key can exist at all (``others`` in the id
        range)."""
        if self._span is None:
            return pack_matrix(np.column_stack((positions, others))), True
        lo, span = self._span
        offsets = others - lo
        # Negative offsets wrap to huge unsigned values: one compare
        # checks both ends of the range.
        return positions * span + offsets, offsets.view(np.uint64) < span

    def _row_keys(self, ptr, data):
        rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64),
                         np.diff(ptr))
        # Rows ascend and each row's ids are sorted, so the keys are
        # globally sorted — searchsorted-ready.
        if self._span is None:
            return pack_matrix(np.column_stack((rows, data)))
        lo, span = self._span
        return rows * span + (data - lo)

    def _out_key_array(self):
        if self._edge_keys is None:
            self._edge_keys = self._row_keys(self.out_ptr, self.out_dst)
        return self._edge_keys

    def _in_key_array(self):
        if self._in_keys is None:
            self._in_keys = self._row_keys(self.in_ptr, self.in_src)
        return self._in_keys

    def out_edges_into(self, sources, pool, cache: bool = True):
        """All data edges from ``sources`` into the sorted-unique array
        ``pool``, as ``(src, dst)`` arrays — the vectorized form of the
        |A| x |B| pairwise adjacency probe. Callers must not mutate the
        result."""
        if len(sources) == 0 or len(pool) == 0:
            empty = self.ids[:0]
            return empty, empty
        if cache:
            key = (sources.tobytes(), pool.tobytes(), "out")
            cached = self._adj_cache.get(key)
            if cached is not None:
                return cached
        positions = self.positions(sources)
        starts = self.out_ptr[positions]
        lengths = self.out_ptr[positions + 1] - starts
        destinations = take_segments(self.out_dst, starts, lengths)
        origins = np.repeat(sources, lengths)
        mask = in_sorted(pool, destinations)
        result = origins[mask], destinations[mask]
        if cache:
            self._adj_cache[key] = result
        return result

    # -- predicate masks -----------------------------------------------------
    def _value_columns(self):
        if self._val_num is None:
            val_num = np.full(self.num_nodes, np.nan)
            val_object = np.zeros(self.num_nodes, dtype=bool)
            val_code = np.zeros(self.num_nodes, dtype=np.int64)
            code_table: dict = {}
            positions = self.graph._pos
            for node, value in self.graph._values.items():
                i = positions[node]
                # Value codes: dict identity of hashable values, so the
                # code comparison IS Python ``==`` (bool/int/float
                # unification and huge ints included). NaN never equals
                # anything and unhashable values can only equal constants
                # that are themselves unhashable (which force the object
                # fallback) — both keep code 0, matching no constant.
                try:
                    if value == value:
                        code = code_table.get(value)
                        if code is None:
                            code = len(code_table) + 1
                            code_table[value] = code
                        val_code[i] = code
                except TypeError:
                    pass
                if isinstance(value, bool):
                    # Python bools are exact ints: numeric comparisons
                    # agree with the scalar semantics.
                    val_num[i] = float(value)
                elif isinstance(value, (int, float)):
                    try:
                        as_float = float(value)
                    except OverflowError:
                        val_object[i] = True
                        continue
                    if as_float == value:
                        val_num[i] = as_float
                    else:  # huge int or NaN: no exact float64 form
                        val_object[i] = True
                else:  # strings and friends
                    val_object[i] = True
            self._val_num = val_num
            self._val_object = val_object
            self._val_code = val_code
            self._code_table = code_table
        return self._val_num, self._val_object, self._val_code

    def _compile_predicate(self, predicate):
        """Per-atom micro-ops when every atom vectorizes, else None
        (whole-predicate object fallback).

        Range atoms compile to ``("num", op, float constant)`` when the
        constant has an exact float64 reading. Equality compiles to
        ``("eq", code)`` against the value-code column for any hashable
        constant — exact for strings, bools and huge ints alike (the
        code of a constant the snapshot never carries is -1, matching
        nothing). ``!=``, ``None`` and unhashable constants stay scalar.
        """
        self._value_columns()
        atoms = []
        for atom in predicate.atoms:
            constant = atom.constant
            if atom.op == "=":
                if constant is None:
                    # Missing values read as None in the scalar path, so
                    # "=None" matches valueless nodes — no code reading.
                    return None
                try:
                    if constant != constant:  # NaN: == is always False
                        atoms.append(("eq", -1))
                        continue
                    code = self._code_table.get(constant, -1)
                except TypeError:  # unhashable constant
                    return None
                atoms.append(("eq", code))
                continue
            if (atom.op not in _RANGE_OPS or isinstance(constant, bool)
                    or not isinstance(constant, (int, float))):
                return None
            try:
                as_float = float(constant)
            except OverflowError:
                return None
            if as_float != constant:
                return None
            atoms.append(("num", atom.op, as_float))
        return atoms

    def predicate_mask(self, predicate, nodes, cache: bool = True):
        """Boolean keep-mask over the node array — same verdicts as
        ``predicate.evaluate(graph.value_of(v))`` per node.

        Fast path: range atoms compare float64 against the numeric value
        column, where missing / non-numeric values are NaN and therefore
        fail every atom, exactly like the scalar ``None``/``TypeError``
        rules; equality atoms compare the value-code column, exact for
        every hashable constant (strings included). Nodes whose values
        have no exact float64 form (strings, huge ints, NaN) are
        re-checked through the scalar evaluator when a range atom is
        present — equality codes need no re-check — and the whole batch
        falls back to the scalar evaluator when any atom does not
        compile (``!=``, ``None`` / unhashable constants).

        With ``cache`` the compiled predicate and the mask are kept per
        ``(predicate, node-array bytes)`` — snapshot values never
        change, so a repeated query re-filtering the same pool is a dict
        hit instead of a re-evaluation.
        """
        if cache:
            cache_key = (predicate, nodes.tobytes())
            cached = self._mask_cache.get(cache_key)
            if cached is not None:
                return cached
            if predicate not in self._pred_cache:
                self._pred_cache[predicate] = \
                    self._compile_predicate(predicate)
            atoms = self._pred_cache[predicate]
        else:
            atoms = self._compile_predicate(predicate)
        mask = self._evaluate_mask(predicate, atoms, nodes)
        if cache:
            self._mask_cache[cache_key] = mask
        return mask

    def _evaluate_mask(self, predicate, atoms, nodes):
        count = len(nodes)
        values = self.graph._values
        if atoms is None:
            return np.fromiter(
                (predicate.evaluate(values.get(v)) for v in nodes.tolist()),
                dtype=bool, count=count)
        val_num, val_object, val_code = self._value_columns()
        positions = self.positions(nodes)
        mask = np.ones(count, dtype=bool)
        column = codes = None
        recheck = False
        for item in atoms:
            if item[0] == "eq":
                if codes is None:
                    codes = val_code[positions]
                mask &= codes == item[1]
                continue
            recheck = True
            if column is None:
                column = val_num[positions]
            _, op, constant = item
            if op == "<":
                mask &= column < constant
            elif op == "<=":
                mask &= column <= constant
            elif op == ">":
                mask &= column > constant
            else:
                mask &= column >= constant
        if recheck:
            exotic = val_object[positions]
            if exotic.any():
                node_list = nodes.tolist()
                for i in np.nonzero(exotic)[0].tolist():
                    mask[i] = predicate.evaluate(values.get(node_list[i]))
        return mask

    # -- node info -----------------------------------------------------------
    def _info_columns(self):
        """``(label codes, label table, value kinds, numbers, others)``
        per CSR row, built once per snapshot on first use.

        Kinds: 0 no value, 1 an int64 ``int`` (in ``numbers``), 2 the
        ``"<label>_<n>"`` template every bundled generator emits (``n``
        in ``numbers``), 3 anything else (in ``others``, by row)."""
        info = self._info
        if info is None:
            table: dict[str, int] = {}
            labels = self.graph._labels
            codes = np.fromiter(
                (table.setdefault(label, len(table)) for label in labels),
                dtype=np.int64, count=len(labels))
            kinds = np.zeros(self.num_nodes, dtype=np.int64)
            numbers = np.zeros(self.num_nodes, dtype=np.int64)
            others: dict[int, object] = {}
            positions = self.graph._pos
            for node, value in self.graph._values.items():
                i = positions[node]
                kind, number = _value_kind(labels[i], value)
                kinds[i] = kind
                if kind == _KIND_OTHER:
                    others[i] = value
                else:
                    numbers[i] = number
            info = self._info = (codes, list(table), kinds, numbers, others)
        return info

    def node_info(self, nodes):
        """Label and value of ``nodes`` (sorted, all present) as
        ``(labels, tags, numbers, others)``: ``tags`` is ``label index
        * 4 + kind`` into the response-local ``labels`` list, and
        ``others`` holds the kind-3 values in node order (see
        :func:`describe_nodes`)."""
        codes, table, kinds, numbers, others = self._info_columns()
        if not len(nodes):
            return [], nodes, nodes, []
        positions = self.positions(nodes)
        node_codes = codes[positions]
        node_kinds = kinds[positions]
        used = np.zeros(len(table), dtype=bool)
        used[node_codes] = True
        label_at = np.cumsum(used) - 1
        exotic = positions[node_kinds == _KIND_OTHER].tolist()
        return ([table[code] for code in np.flatnonzero(used).tolist()],
                label_at[node_codes] * 4 + node_kinds, numbers[positions],
                [others[i] for i in exotic])


def _value_kind(label: str, value) -> tuple[int, int]:
    if value is None:
        return _KIND_NONE, 0
    if type(value) is int and -2**63 <= value < 2**63:
        return _KIND_INT, value
    if type(value) is str and value.startswith(label) \
            and value[len(label):len(label) + 1] == "_":
        suffix = value[len(label) + 1:]
        if suffix.isdigit() and str(int(suffix)) == suffix \
                and int(suffix) < 2**63:
            return _KIND_TEMPLATE, int(suffix)
    return _KIND_OTHER, 0


def describe_nodes(infos, nodes) -> list[tuple]:
    """``(label, value)`` of every node in the sorted array ``nodes``,
    from the ``(found, (labels, tags, numbers, others))`` pairs of fetch
    answers that together cover them — the inverse of
    :meth:`GraphKernel.node_info`."""
    if not len(nodes):
        return []
    labels: list = []
    others: list = []
    ids, tags, numbers = [], [], []
    for found, (names, node_tags, node_numbers, exotic) in infos:
        ids.append(found)
        # Re-base label indices onto the concatenated label list; kind-3
        # values are numbered by their order over all answers.
        tags.append(node_tags + 4 * len(labels) if labels else node_tags)
        numbers.append(node_numbers)
        labels.extend(names)
        others.extend(exotic)
    ids = np.concatenate(ids)
    tags = np.concatenate(tags)
    order = np.argsort(ids, kind="stable")
    at = np.minimum(np.searchsorted(ids[order], nodes), len(ids) - 1)
    rows = order[at]
    if not np.array_equal(ids[rows], nodes):
        raise EngineError("scatter answers carry no label or value for "
                          "some G_Q nodes")
    other_at = np.cumsum((tags & 3) == _KIND_OTHER) - 1
    out = []
    for label_at, kind, number, other in zip(
            (tags[rows] >> 2).tolist(), (tags[rows] & 3).tolist(),
            np.concatenate(numbers)[rows].tolist(), other_at[rows].tolist()):
        label = labels[label_at]
        if kind == _KIND_NONE:
            value = None
        elif kind == _KIND_INT:
            value = number
        elif kind == _KIND_TEMPLATE:
            value = f"{label}_{number}"
        else:
            value = others[other]
        out.append((label, value))
    return out


def graph_kernel(graph: FrozenGraph) -> GraphKernel:
    """The (lazily-built, cached) :class:`GraphKernel` of a snapshot."""
    kernel = graph._kernel
    if kernel is None:
        kernel = GraphKernel(graph)
        graph._kernel = kernel
    return kernel


# ---------------------------------------------------------------- fetch answers
class _Batch:
    """The payload segments one fetch or edge request returned.

    ``parts`` holds ``(lengths, values)`` pairs: one for the local
    index, one per answering shard for a scatter (shard payloads are
    disjoint by ownership). Combo ``i`` fetched the concatenation over
    parts of its ``lengths[i]``-long segment of ``values``. Edge
    answers from shards add one direction-bitmask array per part (bit
    ``2j`` = edge from combo member ``j`` to the entry, ``2j+1`` = the
    reverse); local edge answers resolve directions on ``kernel``.
    """

    __slots__ = ("parts", "masks", "kernel", "total", "_listed", "_raw",
                 "_keys")

    def __init__(self, parts, masks=None, kernel=None):
        self.parts = parts
        self.masks = masks
        self.kernel = kernel
        #: Entries fetched over all combos.
        self.total = sum(len(values) for _, values in parts)
        self._listed = None
        self._raw = None
        self._keys = None

    def listed(self) -> list:
        """Every fetched id (with multiplicity) as one Python list."""
        if self._listed is None:
            values = [values for _, values in self.parts]
            if len(values) > 1:
                values = [np.concatenate(values)]
            self._listed = values[0].tolist() if values else []
        return self._listed

    def select(self, new) -> tuple[int, list]:
        """``(entries, ids)`` fetched by the combos ``new`` masks."""
        fetched = 0
        recorded: list = []
        for lengths, values in self.parts:
            kept = lengths[new]
            fetched += int(kept.sum())
            recorded.extend(take_segments(
                values, (np.cumsum(lengths) - lengths)[new], kept).tolist())
        return fetched, recorded

    def raw(self):
        """Sorted distinct fetched ids (the unfiltered node-op result)."""
        if self._raw is None:
            self._raw = sorted_unique(self.parts[0][1])
        return self._raw

    def keys(self, packed):
        """Sorted-unique form of the request's packed combos."""
        if self._keys is None:
            self._keys = sorted_unique(packed)
        return self._keys

    def pairs(self, combos, other_pos: int, forward: bool, target_pool):
        """Data edges this edge answer verifies for one index edge check:
        each fetched entry ``w`` in ``target_pool`` joined with its
        combo's ``other_pos`` member, kept when the edge runs in the
        check's direction. Returns ``(src, dst)`` arrays."""
        src, dst = [], []
        bit = 2 * other_pos + (0 if forward else 1)
        for i, (lengths, values) in enumerate(self.parts):
            others = np.repeat(combos[:, other_pos], lengths)
            keep = in_sorted(target_pool, values)
            fetched = values[keep]
            others = others[keep]
            if self.masks is None:  # the local index: ask the CSR
                if forward:
                    hit = self.kernel.has_edges(others, fetched)
                    return others[hit], fetched[hit]
                hit = self.kernel.has_edges(fetched, others)
                return fetched[hit], others[hit]
            hit = ((self.masks[i][keep] >> bit) & 1).astype(bool)
            fetched = fetched[hit]
            others = others[hit]
            src.append(others if forward else fetched)
            dst.append(fetched if forward else others)
        if len(src) == 1:
            return src[0], dst[0]
        if not src:
            return _EMPTY, _EMPTY
        return np.concatenate(src), np.concatenate(dst)


class _SeenCombos:
    """Per-(phase, constraint) record of combos already fetched in this
    execution, as a growing sorted packed array — the accounting-exact
    replacement for the sequential executor's payload memos."""

    __slots__ = ("packed",)

    def __init__(self):
        self.packed = None

    def new_mask(self, packed_combos):
        if self.packed is None:
            return np.ones(len(packed_combos), dtype=bool)
        return ~in_sorted(self.packed, packed_combos)

    def add(self, packed_combos):
        if self.packed is None:
            self.packed = sorted_unique(packed_combos)
        else:
            self.packed = sorted_unique(np.concatenate((self.packed,
                                                        packed_combos)))


def _record(stats: AccessStats, seen: _SeenCombos, packed, batch: _Batch,
            *, edge_phase: bool) -> None:
    """Record the *unseen* combos of one answered request (the
    memoized-fetch semantics)."""
    if seen.packed is None:  # first fetch per (phase, constraint):
        new = None           # everything is new, skip the mask
        new_count = len(packed)
    else:
        new = seen.new_mask(packed)
        new_count = int(new.sum())
    if not new_count:
        return
    if new_count == len(packed):
        fetched, recorded = batch.total, batch.listed()
    else:
        fetched, recorded = batch.select(new)
    if edge_phase:
        stats.record_edge_fetch_batch(new_count, fetched, recorded)
    else:
        stats.record_fetch_batch(new_count, fetched, recorded)
    if new is None:
        seen.packed = batch.keys(packed)
    else:
        seen.add(packed)


# ---------------------------------------------------------------- local source
class KernelContext:
    """Per-``SchemaIndex`` vectorized-execution state: the local fetch
    source.

    Holds the graph kernel plus two pure-lookup caches over the
    session-immutable index:

    * ``initial_cache`` — a type (1) fetch scans a whole label index and
      filters it by a predicate; ``(constraint, predicate) -> (batch,
      filtered candidates)`` is computed once.
    * ``fetch_cache`` — batched combo probes keyed by ``(constraint,
      packed combo bytes)``; a repeated query re-probing the same combos
      is a dict hit.

    Access *accounting* still happens per execution — the caches skip
    the probing and filtering work, never the recording.
    """

    __slots__ = ("schema_index", "graph_kernel", "initial_cache",
                 "fetch_cache")

    def __init__(self, schema_index: SchemaIndex):
        self.schema_index = schema_index
        self.graph_kernel = graph_kernel(schema_index.graph)
        self.initial_cache: dict = {}
        self.fetch_cache: dict = {}

    def answer(self, request):
        """Answer one :func:`_plan_steps` request from the local index."""
        kind = request[0]
        kernel = self.graph_kernel
        if kind == TASK_PROBE:
            return kernel.out_edges_into(request[1], request[2])
        _, constraint, combos, packed, predicate = request
        if packed is None:
            return self._initial(constraint, predicate)
        key = (constraint, packed.tobytes())
        batch = self.fetch_cache.get(key)
        if batch is None:
            index = self.schema_index.index_for(constraint)
            starts, lengths, payload = index.fetch_many(combos, packed)
            batch = _Batch([(lengths, take_segments(payload, starts,
                                                    lengths))],
                           kernel=kernel)
            self.fetch_cache[key] = batch
        if kind == TASK_EDGE:
            return batch
        raw = batch.raw()
        if predicate.is_trivial or len(raw) == 0:
            return batch, raw
        return batch, raw[kernel.predicate_mask(predicate, raw)]

    def _initial(self, constraint, predicate):
        """A type (1) fetch: whole-payload scan + predicate filter."""
        cache_key = (constraint, predicate)
        entry = self.initial_cache.get(cache_key)
        if entry is None:
            index = self.schema_index.index_for(constraint)
            _, lengths, payload = index.fetch_many(_NO_COMBOS)
            if predicate.is_trivial:
                found = payload
            else:
                found = payload[self.graph_kernel.predicate_mask(predicate,
                                                                 payload)]
            entry = (_Batch([(lengths, payload)]), found)
            self.initial_cache[cache_key] = entry
        return entry


def kernel_context(schema_index: SchemaIndex) -> KernelContext:
    context = getattr(schema_index, "_kernel_ctx", None)
    if context is None:
        context = KernelContext(schema_index)
        schema_index._kernel_ctx = context
    return context


# ------------------------------------------------------------------- the phases
def _pool_arrays(op_or_check, candidates: dict):
    """Candidate pools of the source nodes as sorted arrays, in plan
    order — array twin of the sequential ``_source_pools``."""
    missing = [q for q in op_or_check.source_nodes if q not in candidates]
    if missing:
        raise PlanError(
            f"fetch for node {getattr(op_or_check, 'target', op_or_check)} "
            f"uses nodes {missing} with no candidates yet; plan is out of "
            f"order")
    return [candidates[q] for q in op_or_check.source_nodes]


def _combo_matrix(pools):
    """``(n, k)`` matrix enumerating the cartesian product of the pools
    (row order matches ``itertools.product``: last pool cycles fastest)."""
    if len(pools) == 1:
        return pools[0].reshape(-1, 1)
    total = 1
    for pool in pools:
        total *= len(pool)
    if total == 0:
        return np.empty((0, len(pools)), dtype=np.int64)
    out = np.empty((total, len(pools)), dtype=np.int64)
    inner = total
    outer = 1
    for j, pool in enumerate(pools):
        inner //= len(pool)
        column = np.repeat(pool, inner) if inner > 1 else pool
        out[:, j] = np.tile(column, outer) if outer > 1 else column
        outer *= len(pool)
    return out


def _check_mode(edge_mode: str) -> None:
    if edge_mode not in (MODE_PLAN, MODE_PROBE):
        raise PlanError(f"unknown edge mode {edge_mode!r}")


def _edge_items(plan: QueryPlan, edge_mode: str) -> list[tuple]:
    if edge_mode == MODE_PROBE:
        return [(EDGE_VIA_PROBE, edge) for edge in plan.pattern.edges()]
    items = []
    for check in plan.edge_checks:
        if check.mode == EDGE_VIA_PROBE:
            items.append((EDGE_VIA_PROBE, check.edge))
        elif check.mode == EDGE_VIA_INDEX:
            items.append((EDGE_VIA_INDEX, check))
        else:  # pragma: no cover - defensive
            raise UnverifiableEdge(f"unknown edge-check mode {check.mode!r}")
    return items


def _plan_steps(plan: QueryPlan, stats: AccessStats, edge_mode: str):
    """The node and edge phases of one execution, against any source.

    A generator: each ``yield`` hands the caller the list of requests
    the execution needs next, and the caller resumes it with their
    answers, in request order. Requests are

    * ``(TASK_FETCH, constraint, combos, packed, predicate)`` — answered
      ``(batch, found)``: the :class:`_Batch` of payloads and the sorted
      distinct fetched ids that satisfy ``predicate`` (``packed`` is None
      for a type (1) scan);
    * ``(TASK_EDGE, constraint, combos, packed, None)`` — answered by a
      batch that can resolve edge directions;
    * ``(TASK_PROBE, pool_a, pool_b)`` — answered ``(src, dst)``: the
      data edges from ``pool_a`` into ``pool_b``.

    Node operations run one at a time (each reads the candidates the
    previous ones left); every edge request goes out at once. Returns
    ``(candidates, edge_src, edge_dst)``.
    """
    seen_initial: set = set()
    seen_node: dict = {}
    candidates: dict = {}
    for op in plan.ops:
        if op.is_initial:
            [(batch, found)] = yield [(TASK_FETCH, op.constraint,
                                       _NO_COMBOS, None, op.predicate)]
            if op.constraint not in seen_initial:
                # The scan is recorded once per execution; repeats are
                # the memo hits of the sequential path.
                seen_initial.add(op.constraint)
                stats.record_fetch_batch(1, batch.total, batch.listed())
        else:
            combos = _combo_matrix(_pool_arrays(op, candidates))
            if len(combos) == 0:
                found = _EMPTY
            else:
                packed = pack_matrix(combos)
                [(batch, found)] = yield [(TASK_FETCH, op.constraint,
                                           combos, packed, op.predicate)]
                _record(stats, seen_node.setdefault(op.constraint,
                                                    _SeenCombos()),
                        packed, batch, edge_phase=False)
        if op.target in candidates:
            candidates[op.target] = np.intersect1d(
                candidates[op.target], found, assume_unique=True)
        else:
            candidates[op.target] = found

    _check_coverage(plan, candidates)

    requests: list = []
    steps: list = []
    for mode, item in _edge_items(plan, edge_mode):
        if mode == EDGE_VIA_PROBE:
            pool_a, pool_b = candidates[item[0]], candidates[item[1]]
            # Every (va, vb) pair counts as one edge check.
            stats.record_edge_checks(len(pool_a) * len(pool_b))
            if len(pool_a) and len(pool_b):
                steps.append(None)
                requests.append((TASK_PROBE, pool_a, pool_b))
            continue
        target_pool, other_pos, forward = _edge_check_geometry(item,
                                                               candidates)
        combos = _combo_matrix(_pool_arrays(item, candidates))
        if len(combos):
            packed = pack_matrix(combos)
            steps.append((item.constraint, combos, packed, target_pool,
                          other_pos, forward))
            requests.append((TASK_EDGE, item.constraint, combos, packed,
                             None))
    answers = (yield requests) if requests else ()
    edge_src: list = []
    edge_dst: list = []
    seen_edge: dict = {}
    for step, answer in zip(steps, answers):
        if step is None:
            src, dst = answer
        else:
            constraint, combos, packed, target_pool, other_pos, forward = step
            _record(stats, seen_edge.setdefault(constraint, _SeenCombos()),
                    packed, answer, edge_phase=True)
            src, dst = answer.pairs(combos, other_pos, forward, target_pool)
        if len(src):
            edge_src.append(src)
            edge_dst.append(dst)
    return candidates, edge_src, edge_dst


def _assemble(plan: QueryPlan, outcome, stats: AccessStats,
              nodes) -> ExecutionResult:
    """Build ``G_Q`` from the phases' outcome; ``nodes`` is the local
    graph, or the fetch answers' node info for a scatter."""
    candidates, edge_src, edge_dst = outcome
    pools = [pool for pool in candidates.values() if len(pool)]
    kept = sorted_unique(np.concatenate(pools)) if pools else _EMPTY
    gq = Graph()
    if isinstance(nodes, FrozenGraph):
        for v in kept.tolist():
            gq.add_node(nodes.label_of(v), value=nodes.value_of(v),
                        node_id=v)
    else:
        for v, (label, value) in zip(kept.tolist(),
                                     describe_nodes(nodes, kept)):
            gq.add_node(label, value=value, node_id=v)
    edges_found: set = set()
    if edge_src:
        edges_found.update(zip(np.concatenate(edge_src).tolist(),
                               np.concatenate(edge_dst).tolist()))
    for (v, w) in edges_found:
        gq.add_edge(v, w)
    final = {u: set(pool.tolist()) for u, pool in candidates.items()}
    return ExecutionResult(plan=plan, gq=gq, candidates=final, stats=stats)


# -------------------------------------------------------------- local execution
def execute_plan_vectorized(plan: QueryPlan, schema_index: SchemaIndex,
                            stats: AccessStats | None = None,
                            edge_mode: str = MODE_PLAN) -> ExecutionResult:
    """Array-kernel twin of :func:`~repro.core.executor.execute_plan`
    over the local source.

    Requires :func:`can_vectorize` conditions; answers, candidates,
    ``G_Q`` and ``AccessStats`` are byte-identical to the sequential
    executor (property-tested).
    """
    _check_mode(edge_mode)
    if not can_vectorize(schema_index):
        raise EngineError(
            "vectorized execution needs a frozen session (FrozenGraph "
            "snapshot and frozen constraint indexes)")
    context = kernel_context(schema_index)
    stats = stats if stats is not None else AccessStats()
    steps = _plan_steps(plan, stats, edge_mode)
    answer = context.answer
    try:
        requests = next(steps)
        while True:
            requests = steps.send([answer(r) for r in requests])
    except StopIteration as stop:
        outcome = stop.value
    return _assemble(plan, outcome, stats, schema_index.graph)


# ------------------------------------------------------------ scatter execution
# Wire tasks, one per request (see repro.server.protocol for their
# packed form and repro.engine.parallel.ShardRuntime for the shard side):
#
#   ("fetch", cpos, combos, predicate) -> (lengths, values, found, info)
#   ("edge",  cpos, combos)            -> (lengths, values, masks)
#   ("probe", a_nodes, b_nodes)        -> (pairs_checked, pairs)
#
# ``combos`` is the request's (n, k) int64 combo matrix and ``cpos``
# indexes the constraint in the schema's canonical order (stable across
# processes). Per-shard fetch/edge payloads contain only targets the
# shard *owns*, so the parts together are the global index entry; a
# probe counts only pairs whose source the shard owns.

def _route_task(task: tuple, router, target_by_pos: dict) -> frozenset:
    """Owner routing: the shard ids that can contribute a non-empty
    response to ``task``. Sound by construction — a ``fetch``/``edge``
    response contains only *owned* targets of the constraint's target
    label, and a ``probe`` counts only pairs whose source the shard
    owns, so every shard outside the returned set would respond empty
    under broadcast and skipping it leaves the merged result (and the
    access accounting over it) byte-identical.
    """
    if task[0] == TASK_PROBE:
        return router.shards_owning_any(task[1])
    return router.shards_with_label(target_by_pos[task[1]])


def _merge(task: tuple, responses: list):
    """One wire task's answer from its per-shard responses (``None``
    for shards it was not routed to), in the shape :func:`_plan_steps`
    expects, plus the fetch's node info for ``G_Q`` assembly."""
    rows = [response for response in responses if response is not None]
    kind = task[0]
    if kind == TASK_PROBE:
        pairs = [pairs for _, pairs in rows if len(pairs)]
        if not pairs:
            return (_EMPTY, _EMPTY), ()
        pairs = pairs[0] if len(pairs) == 1 else np.concatenate(pairs)
        return (pairs[:, 0], pairs[:, 1]), ()
    if kind == TASK_EDGE:
        return _Batch([(lengths, values) for lengths, values, _ in rows],
                      masks=[masks for _, _, masks in rows]), ()
    infos = [(found, info) for _, _, found, info in rows if len(found)]
    if not infos:
        found = _EMPTY
    elif len(infos) == 1:
        found = infos[0][0]
    else:  # disjoint by ownership: sorting the union keeps it unique
        found = np.sort(np.concatenate([f for f, _ in infos]))
    return (_Batch([(lengths, values) for lengths, values, _, _ in rows]),
            found), infos


class _WireTask:
    """One wire task in flight and the execution slots waiting on it."""

    __slots__ = ("task", "answer", "infos", "waiters")

    def __init__(self, task: tuple):
        self.task = task
        self.answer = None
        self.infos = ()
        self.waiters: list = []

    def complete(self, responses: list, ready: list) -> None:
        self.answer, self.infos = _merge(self.task, responses)
        for run, slot in self.waiters:
            run.deliver(slot, self)
            run.missing -= 1
            if not run.missing:
                ready.append(run)
        self.waiters = []


class _ScatterRun:
    """One execution's generator and its outstanding requests."""

    __slots__ = ("plan", "stats", "steps", "answers", "missing", "infos",
                 "outcome")

    def __init__(self, plan: QueryPlan, stats: AccessStats, edge_mode: str):
        self.plan = plan
        self.stats = stats
        self.steps = _plan_steps(plan, stats, edge_mode)
        self.answers = None
        self.missing = 0
        self.infos: list = []
        self.outcome = None

    def deliver(self, slot: int, wire: _WireTask) -> None:
        self.answers[slot] = wire.answer
        self.infos.extend(wire.infos)

    def advance(self, constraint_pos: dict, shared: dict | None,
                fresh: list) -> int:
        """Resume the generator until it waits on an unanswered task or
        finishes; new wire tasks go to ``fresh``. With ``shared``,
        identical tasks of other executions in this call are reused.
        Returns the number of reused tasks."""
        hits = 0
        while True:
            try:
                requests = self.steps.send(self.answers)
            except StopIteration as stop:
                self.outcome = stop.value
                return hits
            self.answers = [None] * len(requests)
            for slot, request in enumerate(requests):
                task = _wire_task(request, constraint_pos)
                key = _task_key(task) if shared is not None else None
                wire = shared.get(key) if key is not None else None
                if wire is None:
                    wire = _WireTask(task)
                    fresh.append(wire)
                    if key is not None:
                        shared[key] = wire
                else:
                    hits += 1
                if wire.answer is None:
                    wire.waiters.append((self, slot))
                    self.missing += 1
                else:
                    self.deliver(slot, wire)
            if self.missing:
                return hits

    def result(self) -> ExecutionResult:
        return _assemble(self.plan, self.outcome, self.stats, self.infos)


def _wire_task(request: tuple, constraint_pos: dict) -> tuple:
    kind = request[0]
    if kind == TASK_PROBE:
        return request
    cpos = constraint_pos[request[1]]
    if kind == TASK_EDGE:
        return (TASK_EDGE, cpos, request[2])
    return (TASK_FETCH, cpos, request[2], request[4])


def _task_key(task: tuple) -> tuple:
    if task[0] == TASK_PROBE:
        return (TASK_PROBE, task[1].tobytes(), task[2].tobytes())
    combos = task[2]
    return task[:2] + (combos.shape[1], combos.tobytes()) + task[3:]


def execute_plans_scatter(plans: list[QueryPlan], backend,
                          stats_list: list[AccessStats] | None = None,
                          edge_mode: str = MODE_PLAN,
                          pipeline: bool = True) -> list[ExecutionResult]:
    """Execute ``plans`` over ``backend``'s shards: the phases of
    :func:`_plan_steps` against the scatter source.

    ``backend`` is a :class:`~repro.engine.parallel.ShardBackend`
    (inline shards, a worker-process pool, or a remote fleet). Each
    request of each execution becomes one wire task, submitted with
    ``backend.scatter_submit`` (which completes tasks one by one, out of
    round order on an asynchronous backend). Two drivers:

    * ``pipeline=True`` (default) — per-execution progress: an execution
      resumes the moment its own tasks are answered, even while other
      shards are still busy, and identical tasks of different
      executions in one call travel once;
    * ``pipeline=False`` — the barrier: nothing advances until nothing
      is outstanding, and no task is shared.

    When the backend carries an :class:`~repro.engine.parallel.
    OwnerRouter`, each task goes only to the shards that can own its
    results (:func:`_route_task`). Answers, candidate sets, ``G_Q`` and
    access accounting are identical to :func:`~repro.core.executor.
    execute_plan` on the unpartitioned graph either way: every execution
    records its own ``AccessStats`` from its own answers.
    """
    _check_mode(edge_mode)
    if stats_list is None:
        stats_list = [AccessStats() for _ in plans]
    runs = [_ScatterRun(plan, stats, edge_mode)
            for plan, stats in zip(plans, stats_list)]
    constraint_pos = backend.constraint_pos
    router = backend.router
    shared: dict | None = {} if pipeline else None
    completions: _queue_mod.Queue = _queue_mod.Queue()
    outstanding = 0
    dedup_hits = 0
    wave_index = 0
    ready = list(runs)
    while True:
        fresh: list[_WireTask] = []
        for run in ready:
            dedup_hits += run.advance(constraint_pos, shared, fresh)
        ready = []
        if fresh:
            tasks = [wire.task for wire in fresh]
            shard_sets = None
            if router is not None:
                # Rebuilt per round: extend_schema may have grown the
                # position table since the last one.
                target_by_pos = {pos: constraint.target for constraint, pos
                                 in constraint_pos.items()}
                shard_sets = [_route_task(task, router, target_by_pos)
                              for task in tasks]

            def on_task(i, responses, _fresh=fresh):
                completions.put((_fresh[i], responses))

            with child_span("wave", index=wave_index, tasks=len(tasks)):
                backend.scatter_submit(tasks, shard_sets, on_task)
            outstanding += len(tasks)
            wave_index += 1
        if not outstanding:
            break
        wire, responses = completions.get()
        outstanding -= 1
        while True:
            if isinstance(responses, Exception):
                raise responses
            wire.complete(responses, ready)
            if not pipeline and outstanding:
                wire, responses = completions.get()
            else:
                try:
                    wire, responses = completions.get_nowait()
                except _queue_mod.Empty:
                    break
            outstanding -= 1
    if dedup_hits:
        backend.scatter_dedup_hits += dedup_hits
    return [run.result() for run in runs]


# ----------------------------------------------------------------- shard side
def handle_shard_task(graph: FrozenGraph, schema_index: SchemaIndex,
                      owned_sorted, task: tuple):
    """Answer one wire task on one shard, with arrays only.

    * fetch: per-combo ``lengths``, the payload ``values`` (owned
      targets), the sorted distinct ``found`` ids that satisfy the
      predicate, and :meth:`GraphKernel.node_info` for ``found``;
    * edge: per-combo ``lengths``, the entries, and per-entry direction
      bitmasks against every combo member (an entry is owned, so *all*
      of its adjacency is in the shard graph — both directions resolve
      locally);
    * probe: the pairs checked (sources this shard owns times targets)
      and the data edges found, as an ``(n, 2)`` array.

    Every lookup here is uncached: a shard sees new combos and
    predicates in nearly every task, so caching would only grow memory.
    """
    kernel = graph_kernel(graph)
    kind = task[0]
    if kind == TASK_PROBE:
        a_nodes = np.asarray(task[1], dtype=np.int64)
        b_nodes = np.asarray(task[2], dtype=np.int64)
        if len(a_nodes):
            a_nodes = a_nodes[in_sorted(owned_sorted, a_nodes)]
        sources, targets = kernel.out_edges_into(a_nodes, b_nodes,
                                                 cache=False)
        return (len(a_nodes) * len(b_nodes),
                np.column_stack((sources, targets)))
    combos = task[2]
    index = schema_index.index_for(schema_index.constraint_at(task[1]))
    starts, lengths, payload = index.fetch_many(combos)
    values = take_segments(payload, starts, lengths)
    if kind == TASK_EDGE:
        masks = np.zeros(len(values), dtype=np.int64)
        for j in range(combos.shape[1]):
            forward, backward = kernel.edge_flags(
                values, np.repeat(combos[:, j], lengths))
            masks += forward * (1 << 2 * j) + backward * (2 << 2 * j)
        return lengths, values, masks
    predicate = task[3]
    found = sorted_unique(values)
    if len(found) and not predicate.is_trivial:
        found = found[kernel.predicate_mask(predicate, found, cache=False)]
    return lengths, values, found, kernel.node_info(found)


__all__ = [
    "GraphKernel",
    "KernelContext",
    "can_vectorize",
    "describe_nodes",
    "execute_plan_vectorized",
    "execute_plans_scatter",
    "graph_kernel",
    "handle_shard_task",
    "kernel_context",
    "sorted_id_array",
]
