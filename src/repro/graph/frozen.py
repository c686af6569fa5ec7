"""Read-only compact graph snapshot.

``FrozenGraph`` stores adjacency in CSR (compressed sparse row) form using
plain Python ``array`` objects, which cuts memory roughly 5x compared to
dict-of-sets and speeds up scans. It implements the same
:class:`~repro.graph.graph.GraphView` interface, so every algorithm in the
library (matchers, index builders, executors) runs on it unchanged.

The snapshot renumbers nothing: node ids are preserved, so candidate sets
and match relations computed on a ``FrozenGraph`` are directly comparable
with those computed on the source :class:`Graph`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable

from repro.errors import GraphError
from repro.graph.graph import Graph, GraphView


class FrozenGraph(GraphView):
    """Immutable CSR snapshot of a :class:`Graph`.

    Examples
    --------
    >>> g = Graph()
    >>> a = g.add_node("A"); b = g.add_node("B")
    >>> g.add_edge(a, b)
    True
    >>> fz = FrozenGraph.from_graph(g)
    >>> fz.has_edge(a, b), fz.has_edge(b, a)
    (True, False)
    """

    __slots__ = ("_ids", "_pos", "_labels", "_values", "_out_ptr", "_out_dst",
                 "_in_ptr", "_in_src", "_by_label", "_num_edges", "_kernel")

    def __init__(self, ids, pos, labels, values, out_ptr, out_dst,
                 in_ptr, in_src, by_label, num_edges):
        self._ids = ids              # array('q'): index -> node id (sorted)
        self._pos = pos              # dict: node id -> index
        self._labels = labels        # list[str] by index
        self._values = values        # dict: node id -> value (sparse)
        self._out_ptr = out_ptr      # array('q') of length n+1
        self._out_dst = out_dst      # array('q'): node ids, sorted per row
        self._in_ptr = in_ptr
        self._in_src = in_src
        self._by_label = by_label    # label -> tuple of node ids
        self._num_edges = num_edges
        #: Lazily-built per-graph kernel state (repro.core.kernels); the
        #: snapshot is immutable, so the cache never invalidates.
        self._kernel = None

    @classmethod
    def from_graph(cls, graph: GraphView) -> "FrozenGraph":
        """Build a frozen snapshot from any graph view."""
        ids = array("q", sorted(graph.nodes()))
        pos = {v: i for i, v in enumerate(ids)}
        labels = [graph.label_of(v) for v in ids]
        values = {}
        by_label: dict[str, list[int]] = {}
        for i, v in enumerate(ids):
            value = graph.value_of(v)
            if value is not None:
                values[v] = value
            by_label.setdefault(labels[i], []).append(v)

        out_ptr = array("q", [0])
        out_dst = array("q")
        in_ptr = array("q", [0])
        in_src = array("q")
        num_edges = 0
        for v in ids:
            row = sorted(graph.out_neighbors(v))
            out_dst.extend(row)
            num_edges += len(row)
            out_ptr.append(len(out_dst))
        for v in ids:
            row = sorted(graph.in_neighbors(v))
            in_src.extend(row)
            in_ptr.append(len(in_src))

        frozen_by_label = {label: tuple(vs) for label, vs in by_label.items()}
        return cls(ids, pos, labels, values, out_ptr, out_dst,
                   in_ptr, in_src, frozen_by_label, num_edges)

    # -- binary snapshot interface (repro.engine.persist) -----------------------
    def to_buffers(self) -> tuple[dict, dict]:
        """Decompose the snapshot into flat int64 buffers plus JSON meta.

        Returns ``(buffers, meta)``: ``buffers`` maps buffer names to
        int64 sequences (``array('q')`` or an equivalent memoryview) and
        ``meta`` is a JSON-serializable dict carrying the label table and
        the sparse value map. :meth:`from_buffers` is the exact inverse;
        everything else (positions, label buckets, edge count) is derived.
        """
        label_table = sorted(set(self._labels))
        code = {label: i for i, label in enumerate(label_table)}
        label_codes = array("q", (code[label] for label in self._labels))
        buffers = {"ids": self._ids, "label_codes": label_codes,
                   "out_ptr": self._out_ptr, "out_dst": self._out_dst,
                   "in_ptr": self._in_ptr, "in_src": self._in_src}
        meta = {"labels": label_table,
                "values": [[v, self._values[v]] for v in sorted(self._values)]}
        return buffers, meta

    @classmethod
    def from_buffers(cls, buffers: dict, meta: dict) -> "FrozenGraph":
        """Reassemble a snapshot from :meth:`to_buffers` output.

        The int64 buffers are adopted as-is — passing memoryviews over a
        loaded artifact makes this zero-copy for the CSR payloads; only
        the derived lookup structures (id positions, label buckets) are
        rebuilt.
        """
        try:
            ids = buffers["ids"]
            label_table = meta["labels"]
            labels = [label_table[code] for code in buffers["label_codes"]]
            values = {int(v): value for v, value in meta["values"]}
            out_ptr, out_dst = buffers["out_ptr"], buffers["out_dst"]
            in_ptr, in_src = buffers["in_ptr"], buffers["in_src"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise GraphError(f"malformed frozen-graph buffers: {exc}") from exc
        n = len(ids)
        if (len(labels) != n or len(out_ptr) != n + 1 or len(in_ptr) != n + 1
                or (n and (out_ptr[n] != len(out_dst)
                           or in_ptr[n] != len(in_src)))):
            raise GraphError("frozen-graph buffer shapes are inconsistent")
        pos = {v: i for i, v in enumerate(ids)}
        by_label: dict[str, list[int]] = {}
        for i, v in enumerate(ids):
            by_label.setdefault(labels[i], []).append(v)
        frozen_by_label = {label: tuple(vs) for label, vs in by_label.items()}
        return cls(ids, pos, labels, values, out_ptr, out_dst,
                   in_ptr, in_src, frozen_by_label, len(out_dst))

    def int64_views(self) -> dict:
        """Zero-copy numpy int64 views over the CSR buffers.

        Works for both fresh snapshots (``array('q')`` storage) and
        artifact warm-starts (memoryviews over the loaded blob) — either
        way ``np.frombuffer`` aliases the existing bytes, nothing is
        copied. The views alias immutable storage: treat as read-only.
        """
        from repro.util.arrays import as_int64
        return {"ids": as_int64(self._ids),
                "out_ptr": as_int64(self._out_ptr),
                "out_dst": as_int64(self._out_dst),
                "in_ptr": as_int64(self._in_ptr),
                "in_src": as_int64(self._in_src)}

    # -- read interface ---------------------------------------------------------
    def nodes(self) -> Iterable[int]:
        return iter(self._ids)

    def has_node(self, node: int) -> bool:
        return node in self._pos

    def _index(self, node: int) -> int:
        try:
            return self._pos[node]
        except KeyError:
            raise GraphError(f"unknown node {node}") from None

    def label_of(self, node: int) -> str:
        return self._labels[self._index(node)]

    def value_of(self, node: int):
        self._index(node)
        return self._values.get(node)

    def _row(self, ptr: array, data: array, node: int) -> memoryview:
        i = self._index(node)
        return memoryview(data)[ptr[i]:ptr[i + 1]]

    def out_neighbors(self, node: int):
        return self._row(self._out_ptr, self._out_dst, node)

    def in_neighbors(self, node: int):
        return self._row(self._in_ptr, self._in_src, node)

    def has_edge(self, source: int, target: int) -> bool:
        i = self._pos.get(source)
        if i is None:
            return False
        lo, hi = self._out_ptr[i], self._out_ptr[i + 1]
        j = bisect_left(self._out_dst, target, lo, hi)
        return j < hi and self._out_dst[j] == target

    def nodes_with_label(self, label: str) -> tuple[int, ...]:
        return self._by_label.get(label, ())

    def label_count(self, label: str) -> int:
        return len(self._by_label.get(label, ()))

    def labels(self) -> set[str]:
        return set(self._by_label.keys())

    @property
    def num_nodes(self) -> int:
        return len(self._ids)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def out_degree(self, node: int) -> int:
        i = self._index(node)
        return self._out_ptr[i + 1] - self._out_ptr[i]

    def in_degree(self, node: int) -> int:
        i = self._index(node)
        return self._in_ptr[i + 1] - self._in_ptr[i]

    def thaw(self) -> Graph:
        """Convert back to a mutable :class:`Graph`."""
        g = Graph()
        for v in self._ids:
            g.add_node(self.label_of(v), value=self._values.get(v), node_id=v)
        for v in self._ids:
            for w in self.out_neighbors(v):
                g.add_edge(v, w)
        return g

    def __repr__(self) -> str:
        return (f"FrozenGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
                f"labels={len(self._by_label)})")
