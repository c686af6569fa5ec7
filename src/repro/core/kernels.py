"""Vectorized plan execution: numpy batch kernels over CSR buffers.

:func:`execute_plan_vectorized` is the third execution strategy, next to
the sequential :func:`~repro.core.executor.execute_plan` and the sharded
:func:`~repro.core.executor.execute_plans_scatter`. It runs the node and
edge phases as array kernels instead of per-candidate Python loops:

* candidate sets are sorted-unique int64 frontier arrays;
* a fetch operation probes *all* of its source combos with one
  ``np.searchsorted`` into the constraint's packed key buffer
  (:meth:`~repro.constraints.index.FrozenConstraintIndex.fetch_many`);
* candidate reduction is sorted-merge set algebra (``np.unique`` /
  ``np.intersect1d``);
* edge resolution is a vectorized CSR membership test over packed
  ``(source row, destination)`` pairs — one ``searchsorted`` per batch
  instead of one bisect per candidate pair.

**Accounting is reproduced, not recomputed.** The sequential executor
memoizes ``(constraint, combo)`` fetches per phase: the first fetch is
recorded in :class:`~repro.accounting.AccessStats`, repeats are free and
unrecorded, and node/edge phases keep separate memos. The kernels keep a
per-phase, per-constraint *seen-combo* set (a sorted packed array)
instead of a payload memo — the index is immutable, so re-probing a seen
combo returns exactly what the memo held, and only unseen combos are
recorded. Answers, candidate sets, ``G_Q`` and every ``AccessStats``
counter (including the distinct-node set) are therefore byte-identical
to :func:`~repro.core.executor.execute_plan`; the property suite in
``tests/test_kernels.py`` pins this.

Everything here requires a frozen session: a
:class:`~repro.graph.frozen.FrozenGraph` snapshot (whose ``array('q')``
or memoryview buffers become zero-copy ndarray views) and
:class:`~repro.constraints.index.FrozenConstraintIndex` payload buffers.
:func:`can_vectorize` is the gate the engine's ``executor="auto"``
selection uses; a mutable session falls back to the sequential path.
"""

from __future__ import annotations

import numpy as np

from repro.accounting import AccessStats
from repro.constraints.index import SchemaIndex
from repro.core.executor import (
    MODE_PLAN,
    MODE_PROBE,
    TASK_EDGE,
    TASK_FETCH,
    TASK_PROBE,
    ExecutionResult,
    _check_coverage,
    _edge_check_geometry,
    run_shard_task,
)
from repro.core.plan import EDGE_VIA_INDEX, EDGE_VIA_PROBE, QueryPlan
from repro.errors import EngineError, PlanError, UnverifiableEdge
from repro.graph.frozen import FrozenGraph
from repro.graph.graph import Graph
from repro.util.arrays import in_sorted, pack_matrix, take_segments

# numpy's first np.unique call lazily imports numpy.ma (~20ms); force it
# at import time so no query pays it as first-execution latency.
np.unique(np.empty(0, dtype=np.int64))

#: Range operators with an exact float64 equivalent (see GraphKernel.
#: predicate_mask). ``!=`` is excluded: ``"str" != 5`` is True in the
#: scalar semantics but a NaN comparison would say False. ``=`` runs on
#: the value-code column instead, which is exact for every hashable
#: constant (strings included).
_RANGE_OPS = frozenset(("<", "<=", ">", ">="))


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
    float64 value columns predicate masks evaluate against.

    Cached on the :class:`FrozenGraph` (``_kernel`` slot); the snapshot
    is immutable so nothing here ever invalidates.
    """

    __slots__ = ("graph", "ids", "out_ptr", "out_dst", "num_nodes",
                 "_edge_keys", "_val_num", "_val_object", "_val_code",
                 "_code_table", "_pred_cache", "_mask_cache",
                 "_adj_cache")

    def __init__(self, graph: FrozenGraph):
        views = graph.int64_views()
        self.graph = graph
        self.ids = views["ids"]
        self.out_ptr = views["out_ptr"]
        self.out_dst = views["out_dst"]
        self.num_nodes = len(self.ids)
        self._edge_keys = None
        self._val_num = None
        self._val_object = None
        self._val_code = None
        self._code_table = None
        self._pred_cache: dict = {}
        self._mask_cache: dict = {}
        self._adj_cache: dict = {}

    # -- id resolution -------------------------------------------------------
    def positions(self, nodes):
        """CSR row positions of ``nodes`` (which must all be present —
        payloads and candidates always are)."""
        return np.searchsorted(self.ids, nodes)

    # -- adjacency -----------------------------------------------------------
    def has_edges(self, sources, targets):
        """Vectorized ``graph.has_edge``: boolean mask per pair. Sources
        absent from the graph resolve to False, like the scalar path.
        Pure lookups into the immutable CSR, so results are cached per
        pair batch — a repeated query's adjacency sweep is a dict hit."""
        n = len(sources)
        if n == 0 or self.num_nodes == 0 or len(self.out_dst) == 0:
            return np.zeros(n, dtype=bool)
        key = (sources.tobytes(), targets.tobytes())
        cached = self._adj_cache.get(key)
        if cached is not None:
            return cached
        positions = np.searchsorted(self.ids, sources)
        np.minimum(positions, self.num_nodes - 1, out=positions)
        present = self.ids[positions] == sources
        keys = pack_matrix(np.column_stack((positions, targets)))
        mask = in_sorted(self._edge_key_array(), keys) & present
        self._adj_cache[key] = mask
        return mask

    def _edge_key_array(self):
        keys = self._edge_keys
        if keys is None:
            degrees = np.diff(self.out_ptr)
            rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64),
                             degrees)
            # Rows ascend and each row's destinations are sorted, so the
            # packed pairs are globally sorted — searchsorted-ready.
            keys = pack_matrix(np.column_stack((rows, self.out_dst)))
            self._edge_keys = keys
        return keys

    def out_edges_into(self, sources, pool):
        """All data edges from ``sources`` into the sorted-unique array
        ``pool``, as ``(src, dst)`` arrays — the vectorized form of the
        |A| x |B| pairwise adjacency probe. Cached like
        :meth:`has_edges`; callers must not mutate the result."""
        if len(sources) == 0 or len(pool) == 0:
            empty = self.ids[:0]
            return empty, empty
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

    def predicate_mask(self, predicate, nodes):
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

        Results are cached per ``(predicate, node-array bytes)`` —
        snapshot values never change, so a repeated query re-filtering
        the same pool is a dict hit instead of a re-evaluation.
        """
        cache_key = (predicate, nodes.tobytes())
        cached = self._mask_cache.get(cache_key)
        if cached is not None:
            return cached
        if predicate not in self._pred_cache:
            self._pred_cache[predicate] = self._compile_predicate(predicate)
        atoms = self._pred_cache[predicate]
        count = len(nodes)
        values = self.graph._values
        if atoms is None:
            mask = np.fromiter(
                (predicate.evaluate(values.get(v)) for v in nodes.tolist()),
                dtype=bool, count=count)
            self._mask_cache[cache_key] = mask
            return mask
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
        self._mask_cache[cache_key] = mask
        return mask


def graph_kernel(graph: FrozenGraph) -> GraphKernel:
    """The (lazily-built, cached) :class:`GraphKernel` of a snapshot."""
    kernel = graph._kernel
    if kernel is None:
        kernel = GraphKernel(graph)
        graph._kernel = kernel
    return kernel


# ---------------------------------------------------------------- session state
class KernelContext:
    """Per-``SchemaIndex`` vectorized-execution state.

    Holds the graph kernel plus two pure-lookup caches over the
    session-immutable index:

    * ``initial_cache`` — a type (1) fetch scans a whole label index and
      filters it by a predicate; ``(constraint, predicate) -> (payload
      length, payload list, filtered candidates)`` is computed once.
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


def kernel_context(schema_index: SchemaIndex) -> KernelContext:
    context = getattr(schema_index, "_kernel_ctx", None)
    if context is None:
        context = KernelContext(schema_index)
        schema_index._kernel_ctx = context
    return context


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
            self.packed = np.unique(packed_combos)
        else:
            self.packed = np.union1d(self.packed, packed_combos)


# ------------------------------------------------------------------- node phase
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


def _batched_fetch(context: "KernelContext", constraint, combos, packed,
                   stats: AccessStats, seen: _SeenCombos, *,
                   edge_phase: bool):
    """Probe every combo; record accounting for the *unseen* ones only
    (the memoized-fetch semantics).

    The probe itself is a pure lookup into an immutable index, so its
    result is cached on the session keyed by ``(constraint, packed
    combo bytes)`` — a repeated query pays a dict hit. The *recording*
    (counters and the distinct-node set) is computed fresh against this
    execution's stats. Returns the cache entry ``[starts, lengths,
    payload, gathered, gathered_list, unique_payload_or_None,
    unique_packed_or_None]``: ``payload`` is the index's whole buffer
    that ``starts``/``lengths`` index into; ``gathered`` is the
    per-combo concatenation in combo order.
    """
    key = (constraint, packed.tobytes())
    entry = context.fetch_cache.get(key)
    if entry is None:
        index = context.schema_index.index_for(constraint)
        starts, lengths, payload = index.fetch_many(combos, packed)
        gathered = take_segments(payload, starts, lengths)
        entry = [starts, lengths, payload, gathered, gathered.tolist(),
                 None, None]
        context.fetch_cache[key] = entry
    starts, lengths, payload, _, gathered_list = entry[:5]
    if seen.packed is None:  # first fetch per (phase, constraint):
        new_count = len(packed)  # everything is new, skip the mask
    else:
        new = seen.new_mask(packed)
        new_count = int(new.sum())
    if new_count:
        if new_count == len(packed):
            fetched = len(gathered_list)
            recorded = gathered_list
        else:
            fetched = int(lengths[new].sum())
            recorded = take_segments(payload, starts[new],
                                     lengths[new]).tolist()
        if edge_phase:
            stats.record_edge_fetch_batch(new_count, fetched, recorded)
        else:
            stats.record_fetch_batch(new_count, fetched, recorded)
        if seen.packed is None:
            # First add for this (phase, constraint): the sorted-unique
            # form is a pure function of the batch — serve it cached.
            unique_packed = entry[6]
            if unique_packed is None:
                unique_packed = entry[6] = np.unique(packed)
            seen.packed = unique_packed
        else:
            seen.add(packed)
    return entry


def _initial_op(context: KernelContext, op, stats: AccessStats,
                seen_initial: set):
    """A type (1) fetch: whole-payload scan + predicate filter, both
    served from the session cache; the scan is recorded once per
    execution (repeats are the memo hits of the sequential path)."""
    cache_key = (op.constraint, op.predicate)
    entry = context.initial_cache.get(cache_key)
    if entry is None:
        index = context.schema_index.index_for(op.constraint)
        _, _, payload = index.fetch_many(np.empty((1, 0), dtype=np.int64))
        if op.predicate.is_trivial:
            found = payload
        else:
            kernel = context.graph_kernel
            found = payload[kernel.predicate_mask(op.predicate, payload)]
        entry = (len(payload), payload.tolist(), found)
        context.initial_cache[cache_key] = entry
    payload_count, payload_list, found = entry
    if op.constraint not in seen_initial:
        seen_initial.add(op.constraint)
        stats.record_fetch_batch(1, payload_count, payload_list)
    return found


# ------------------------------------------------------------------- edge phase
def _probe_edge_vec(kernel: GraphKernel, edge, candidates: dict,
                    stats: AccessStats, edge_src: list, edge_dst: list):
    """Vectorized pairwise probe: every (va, vb) pair counts as one edge
    check, found edges come from one CSR membership sweep."""
    a, b = edge
    pool_a, pool_b = candidates[a], candidates[b]
    stats.record_edge_checks(len(pool_a) * len(pool_b))
    sources, targets = kernel.out_edges_into(pool_a, pool_b)
    if len(sources):
        edge_src.append(sources)
        edge_dst.append(targets)


def _index_edge_vec(check, candidates: dict, context: KernelContext,
                    stats: AccessStats, seen_edge: dict,
                    edge_src: list, edge_dst: list):
    """Vectorized index-driven edge verification (the paper's method)."""
    target_pool, other_pos, forward = _edge_check_geometry(check, candidates)
    combos = _combo_matrix(_pool_arrays(check, candidates))
    if len(combos) == 0:
        return
    packed = pack_matrix(combos)
    seen = seen_edge.setdefault(check.constraint, _SeenCombos())
    entry = _batched_fetch(context, check.constraint, combos, packed,
                           stats, seen, edge_phase=True)
    lengths, fetched = entry[1], entry[3]
    others = np.repeat(combos[:, other_pos], lengths)
    keep = in_sorted(target_pool, fetched)
    fetched = fetched[keep]
    others = others[keep]
    kernel = context.graph_kernel
    if forward:
        mask = kernel.has_edges(others, fetched)
        edge_src.append(others[mask])
        edge_dst.append(fetched[mask])
    else:
        mask = kernel.has_edges(fetched, others)
        edge_src.append(fetched[mask])
        edge_dst.append(others[mask])


# -------------------------------------------------------------------- execution
def execute_plan_vectorized(plan: QueryPlan, schema_index: SchemaIndex,
                            stats: AccessStats | None = None,
                            edge_mode: str = MODE_PLAN) -> ExecutionResult:
    """Array-kernel twin of :func:`~repro.core.executor.execute_plan`.

    Requires :func:`can_vectorize` conditions; answers, candidates,
    ``G_Q`` and ``AccessStats`` are byte-identical to the sequential
    executor (property-tested).
    """
    if edge_mode not in (MODE_PLAN, MODE_PROBE):
        raise PlanError(f"unknown edge mode {edge_mode!r}")
    if not can_vectorize(schema_index):
        raise EngineError(
            "vectorized execution needs a frozen session (FrozenGraph "
            "snapshot and frozen constraint indexes)")
    context = kernel_context(schema_index)
    kernel = context.graph_kernel
    graph = schema_index.graph
    pattern = plan.pattern
    stats = stats if stats is not None else AccessStats()

    # ---- node phase: batched probes + sorted-merge set algebra --------------
    seen_initial: set = set()
    seen_node: dict = {}
    candidates: dict = {}
    for op in plan.ops:
        if op.is_initial:
            found = _initial_op(context, op, stats, seen_initial)
        else:
            combos = _combo_matrix(_pool_arrays(op, candidates))
            if len(combos) == 0:
                found = kernel.ids[:0]
            else:
                packed = pack_matrix(combos)
                seen = seen_node.setdefault(op.constraint, _SeenCombos())
                entry = _batched_fetch(context, op.constraint, combos,
                                       packed, stats, seen,
                                       edge_phase=False)
                if entry[5] is None:
                    entry[5] = np.unique(entry[3])
                raw = entry[5]
                if op.predicate.is_trivial or len(raw) == 0:
                    found = raw
                else:
                    found = raw[kernel.predicate_mask(op.predicate, raw)]
        if op.target in candidates:
            candidates[op.target] = np.intersect1d(
                candidates[op.target], found, assume_unique=True)
        else:
            candidates[op.target] = found

    _check_coverage(plan, candidates)

    # ---- edge phase ---------------------------------------------------------
    edge_src: list = []
    edge_dst: list = []
    seen_edge: dict = {}
    if edge_mode == MODE_PROBE:
        for edge in pattern.edges():
            _probe_edge_vec(kernel, edge, candidates, stats,
                            edge_src, edge_dst)
    else:
        for check in plan.edge_checks:
            if check.mode == EDGE_VIA_PROBE:
                _probe_edge_vec(kernel, check.edge, candidates, stats,
                                edge_src, edge_dst)
            elif check.mode == EDGE_VIA_INDEX:
                _index_edge_vec(check, candidates, context, stats,
                                seen_edge, edge_src, edge_dst)
            else:  # pragma: no cover - defensive
                raise UnverifiableEdge(
                    f"unknown edge-check mode {check.mode!r}")

    # ---- assemble G_Q -------------------------------------------------------
    pools = [pool for pool in candidates.values() if len(pool)]
    kept = np.unique(np.concatenate(pools)) if pools else kernel.ids[:0]
    gq = Graph()
    for v in kept.tolist():
        gq.add_node(graph.label_of(v), value=graph.value_of(v), node_id=v)
    edges_found: set = set()
    if edge_src:
        edges_found.update(zip(np.concatenate(edge_src).tolist(),
                               np.concatenate(edge_dst).tolist()))
    for (v, w) in edges_found:
        gq.add_edge(v, w)
    final = {u: set(pool.tolist()) for u, pool in candidates.items()}
    return ExecutionResult(plan=plan, gq=gq, candidates=final, stats=stats)


# ----------------------------------------------------------------- shard kernels
def run_shard_task_vectorized(graph, schema_index, owned: frozenset,
                              owned_sorted, task: tuple):
    """Shard-side scatter-task handler with the edge work vectorized.

    Responses are element-for-element identical to
    :func:`~repro.core.executor.run_shard_task` — the parent's merge and
    accounting logic must not be able to tell the two apart. ``fetch``
    tasks delegate to the sequential handler (per-combo dict lookups are
    already O(1)); ``probe`` and ``edge`` tasks replace their scalar
    ``has_edge`` loops with batched CSR membership tests.
    """
    kind = task[0]
    if kind == TASK_FETCH:
        return run_shard_task(graph, schema_index, owned, task)
    kernel = graph_kernel(graph)
    if kind == TASK_PROBE:
        _, a_nodes, b_nodes = task
        a_arr = np.asarray(a_nodes, dtype=np.int64)
        if len(a_arr):
            a_arr = a_arr[in_sorted(owned_sorted, a_arr)]
        b_arr = np.asarray(b_nodes, dtype=np.int64)
        checked = len(a_arr) * len(b_arr)
        sources, targets = kernel.out_edges_into(a_arr, b_arr)
        # a_nodes/b_nodes arrive sorted, so this enumerates found pairs
        # in the same (va, vb) order as the scalar double loop.
        return checked, list(zip(sources.tolist(), targets.tolist()))
    if kind == TASK_EDGE:
        _, cpos, combos = task
        constraint = schema_index.constraint_at(cpos)
        results = []
        for combo in combos:
            payload = schema_index.fetch(constraint, combo)
            if not payload:
                results.append([])
                continue
            targets = np.asarray(payload, dtype=np.int64)
            flag_pairs = []
            for member in combo:
                members = np.full(len(targets), member, dtype=np.int64)
                forward = kernel.has_edges(members, targets)
                backward = kernel.has_edges(targets, members)
                flag_pairs.append(list(zip(forward.tolist(),
                                           backward.tolist())))
            results.append([
                (w, tuple(flags[i] for flags in flag_pairs))
                for i, w in enumerate(payload)])
        return results
    return run_shard_task(graph, schema_index, owned, task)


__all__ = [
    "GraphKernel",
    "KernelContext",
    "can_vectorize",
    "execute_plan_vectorized",
    "graph_kernel",
    "kernel_context",
    "run_shard_task_vectorized",
    "sorted_id_array",
]
