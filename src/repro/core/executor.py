"""Plan execution: fetching ``G_Q`` from a graph through the indexes.

Executing a :class:`~repro.core.plan.QueryPlan` has two phases, mirroring
Section IV's "Building G_Q":

1. **Node phase** — run the fetch operations in order. A type (1)
   operation scans the label index; a general operation enumerates the
   product of the already-fetched candidate sets of its source nodes and
   fetches common neighbours through the constraint's index. Later
   operations for the same node *reduce* (intersect) its candidate set.

2. **Edge phase** — verify each query edge through its assigned
   :class:`~repro.core.plan.EdgeCheck`: re-fetch common neighbours of the
   source candidates through the covering constraint's index, intersect
   with the target's candidates, and resolve edge direction. The fetched
   entries are counted as *edge* accesses, matching the paper's Example 1
   arithmetic (17 923 nodes + 35 136 edges for Q0/A0). A ``probe`` check
   instead tests all candidate pairs against the adjacency store.

Within one execution, identical ``(constraint, source-combo)`` fetches
are **memoized per phase**: the first fetch is recorded in the access
accounting, repeats are served from the execution-local memo for free.
Node-phase and edge-phase memos are deliberately separate — an edge-phase
fetch counts as edge examinations (the paper's Example 1 arithmetic), so
folding the two would change what the numbers mean, not just their size.

This module is the *sequential* executor, the reference oracle:
:func:`execute_plan` runs the plan against one
:class:`~repro.constraints.index.SchemaIndex` with per-candidate Python
loops. :mod:`repro.core.kernels` holds the array executor — the same
phases as numpy batch kernels, run against the local frozen index
(``execute_plan_vectorized``) or scattered over the shards of a
partition (``execute_plans_scatter``); its answers, candidate sets,
``G_Q`` and access accounting are identical to this one's.

Correctness (``Q(G_Q) = Q(G)``) holds for both semantics because every
candidate set is a superset of the true matches (fetch operations follow
covered S-labeled sets) and every edge of a true match is re-discovered by
the edge phase — see DESIGN.md for the argument, and the property tests in
``tests/test_properties.py`` for empirical verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.accounting import AccessStats
from repro.constraints.index import SchemaIndex
from repro.core.plan import EDGE_VIA_INDEX, EDGE_VIA_PROBE, QueryPlan
from repro.errors import PlanError, UnverifiableEdge
from repro.graph.graph import Graph

#: Executor edge-phase modes.
MODE_PLAN = "plan"      # follow the plan's edge checks (default)
MODE_PROBE = "probe"    # ignore the plan; probe all candidate pairs


@dataclass
class ExecutionResult:
    """Outcome of executing a plan on a graph.

    Attributes
    ----------
    gq:
        The fetched subgraph ``G_Q`` with ``Q(G_Q) = Q(G)``.
    candidates:
        Final candidate set ``cmat(u)`` per pattern node.
    stats:
        Access accounting for the whole execution.
    """

    plan: QueryPlan
    gq: Graph
    candidates: dict[int, set[int]]
    stats: AccessStats

    @property
    def gq_size(self) -> int:
        return self.gq.size


# ------------------------------------------------------------------ sequential
def execute_plan(plan: QueryPlan, schema_index: SchemaIndex,
                 stats: AccessStats | None = None,
                 edge_mode: str = MODE_PLAN) -> ExecutionResult:
    """Execute ``plan`` against ``schema_index`` and build ``G_Q``.

    ``edge_mode=MODE_PROBE`` replaces every edge check with pairwise
    adjacency probes — used by tests to cross-validate the index-driven
    edge phase (both must produce a ``G_Q`` with identical match sets).
    """
    if edge_mode not in (MODE_PLAN, MODE_PROBE):
        raise PlanError(f"unknown edge mode {edge_mode!r}")
    graph = schema_index.graph
    pattern = plan.pattern
    stats = stats if stats is not None else AccessStats()

    # ---- node phase ------------------------------------------------------------
    # Execution-local fetch memo: identical (constraint, combo) fetches
    # issued by later operations are free and unrecorded.
    node_memo: dict[tuple, tuple[int, ...]] = {}
    candidates: dict[int, set[int]] = {}
    for op in plan.ops:
        predicate = op.predicate
        if op.is_initial:
            combos = [()]
        else:
            pools = _source_pools(op, candidates)
            combos = product(*pools)
        raw: set[int] = set()
        for combo in combos:
            key = (op.constraint, combo)
            payload = node_memo.get(key)
            if payload is None:
                payload = schema_index.fetch(op.constraint, combo, stats=stats)
                node_memo[key] = payload
            raw.update(payload)
        found = {v for v in raw if predicate.evaluate(graph.value_of(v))}
        if op.target in candidates:
            candidates[op.target] &= found
        else:
            candidates[op.target] = found

    _check_coverage(plan, candidates)

    # ---- edge phase ---------------------------------------------------------------
    edges_found: set[tuple[int, int]] = set()
    edge_memo: dict[tuple, tuple[int, ...]] = {}
    probe_memo: dict[tuple, set] = {}
    if edge_mode == MODE_PROBE:
        for edge in pattern.edges():
            _probe_edge(edge, candidates, graph, stats, edges_found,
                        probe_memo)
    else:
        for check in plan.edge_checks:
            if check.mode == EDGE_VIA_PROBE:
                _probe_edge(check.edge, candidates, graph, stats,
                            edges_found, probe_memo)
            elif check.mode == EDGE_VIA_INDEX:
                _index_edge(check, candidates, schema_index, stats,
                            edges_found, edge_memo)
            else:  # pragma: no cover - defensive
                raise UnverifiableEdge(f"unknown edge-check mode {check.mode!r}")

    # ---- assemble G_Q ----------------------------------------------------------------
    gq = Graph()
    for v in _kept_nodes(candidates):
        gq.add_node(graph.label_of(v), value=graph.value_of(v), node_id=v)
    for (v, w) in edges_found:
        gq.add_edge(v, w)
    return ExecutionResult(plan=plan, gq=gq, candidates=candidates, stats=stats)


def _source_pools(op_or_check, candidates: dict[int, set[int]]):
    """Sorted candidate pools of the source nodes, in plan order."""
    missing = [q for q in op_or_check.source_nodes if q not in candidates]
    if missing:
        raise PlanError(
            f"fetch for node {getattr(op_or_check, 'target', op_or_check)} "
            f"uses nodes {missing} with no candidates yet; plan is out of "
            f"order")
    return [sorted(candidates[q]) for q in op_or_check.source_nodes]


def _check_coverage(plan: QueryPlan, candidates: dict[int, set[int]]) -> None:
    uncovered = [u for u in plan.pattern.nodes() if u not in candidates]
    if uncovered:
        raise PlanError(f"plan has no fetch operation for nodes {uncovered}")


def _kept_nodes(candidates: dict[int, set[int]]) -> list[int]:
    kept: set[int] = set()
    for pool in candidates.values():
        kept |= pool
    return sorted(kept)


def _probe_edge(edge: tuple[int, int], candidates: dict[int, set[int]],
                graph, stats: AccessStats,
                edges_found: set[tuple[int, int]],
                probe_memo: dict[tuple, set] | None = None) -> None:
    """Pairwise adjacency probes for one query edge.

    ``probe_memo`` (execution-local, keyed by the two endpoint pools)
    reuses the adjacency answers when several query edges probe the same
    candidate-pool pair. The *accounting* is unchanged — every pair
    still counts as an edge check, exactly like the unmemoized loop —
    only the repeated ``has_edge`` calls are skipped.
    """
    a, b = edge
    pool_a, pool_b = candidates[a], candidates[b]
    key = None
    if probe_memo is not None:
        key = (tuple(sorted(pool_a)), tuple(sorted(pool_b)))
        hit = probe_memo.get(key)
        if hit is not None:
            stats.record_edge_checks(len(pool_a) * len(pool_b))
            edges_found |= hit
            return
    found: set[tuple[int, int]] = set()
    for va in pool_a:
        for vb in pool_b:
            stats.record_edge_checks(1)
            if graph.has_edge(va, vb):
                found.add((va, vb))
    if key is not None:
        probe_memo[key] = found
    edges_found |= found


def _edge_check_geometry(check, candidates: dict[int, set[int]]):
    """``(target_pool, other_pos, forward)`` for one index edge check.

    ``forward`` is True when the fetched node matches the edge's head —
    the verified data edge then runs *from* the combo's ``other`` member
    *to* the fetched node.
    """
    a, b = check.edge
    target = check.fetch_target
    other = a if target == b else b
    try:
        other_pos = check.source_nodes.index(other)
    except ValueError:
        raise UnverifiableEdge(
            f"edge check for {check.edge} does not include endpoint "
            f"{other} in its source nodes") from None
    return candidates[target], other_pos, target == b


def _index_edge(check, candidates: dict[int, set[int]],
                schema_index: SchemaIndex, stats: AccessStats,
                edges_found: set[tuple[int, int]],
                edge_memo: dict[tuple, tuple[int, ...]]) -> None:
    """Index-driven verification for one query edge (paper's method).

    Fetches common neighbours of every source-candidate combination,
    keeps those in the target's candidate set, and resolves the query
    edge's direction against the adjacency store. Fetches repeated
    across combos/checks are served from ``edge_memo`` unrecorded.
    """
    graph = schema_index.graph
    target_pool, other_pos, forward = _edge_check_geometry(check, candidates)
    pools = _source_pools(check, candidates)
    for combo in product(*pools):
        key = (check.constraint, combo)
        fetched = edge_memo.get(key)
        if fetched is None:
            fetched = schema_index.fetch(check.constraint, combo)
            stats.record_edge_fetch(fetched)
            edge_memo[key] = fetched
        vo = combo[other_pos]
        for w in fetched:
            if w not in target_pool:
                continue
            # The query edge is (a, b); w matches `fetch_target`.
            if forward:
                if graph.has_edge(vo, w):
                    edges_found.add((vo, w))
            else:
                if graph.has_edge(w, vo):
                    edges_found.add((w, vo))
