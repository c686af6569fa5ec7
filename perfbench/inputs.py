"""Benchmark inputs: the dataset artifacts, the seeded instance stream,
the hot pool and the answer oracle.

Everything here runs outside timing and is cached on disk under
``.perfbench_cache/<code key>/`` in the checkout, so a later run of the
same code and seed reuses it. The code key hashes ``src/`` and this
file: a changed program or input definition never reads stale inputs.

* **Artifacts.** ``imdb`` at scale 1.0 with graph seed 0, compiled into
  a single-layout artifact and a 2-shard artifact. They do not depend
  on the workload seed, so one build serves every seed.
* **Instance stream.** Instance ``i`` of seed ``s`` is drawn from its
  own ``Random(f"{s}/{i}/{attempt}")``, so any prefix is reproducible
  and the stream extends without regenerating what is cached.
  Following graph_query_sampler's degree caps, each instance is a walk
  over data nodes of degree at most :data:`DEGREE_CAP` (at least one
  embedding exists), shaped with the paper's ``#n in [3, 7]`` and
  ``#e in [#n-1, 1.5 #n]``. All nodes but one or two carry a predicate
  bound to the walked node's own value (equality, or a short integer
  range), so the remaining variables have at most ``DEGREE_CAP``
  candidates per anchor. The semantics of instance ``i`` is drawn
  80/20 subgraph/simulation once, before its walks. An instance is kept only when
  it is effectively bounded (EBChk, via the covers QPlan checks), its
  plan bound is at most :data:`BUDGET` (the admission budget
  ``serve_hot`` runs with), and its canonical form differs from every
  earlier instance of the stream.
* **Hot pool.** The first :data:`POOL_SIZE` instances of the
  :data:`POOL_SEED` stream, requested with Zipf(:data:`ZIPF_S`) weights
  by rank.
* **Oracle.** Per instance, the answer digest and size computed with
  ``executor="sequential"`` on the single-layout artifact, plus the
  full canonical answers of the hot pool (``serve_hot`` responses carry
  at most ``limit`` matches; the check is count equality plus
  membership of every returned match).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from pathlib import Path

DATASET = "imdb"
SCALE = 1.0
GRAPH_SEED = 0
SHARDS = 2
#: Admission budget (worst-case items accessed) for every workload.
BUDGET = 100_000
#: graph_query_sampler-style cap on the degree of a walked data node.
DEGREE_CAP = 50
NODE_RANGE = (3, 7)
SUBGRAPH_SHARE = 0.8
POOL_SIZE = 64
#: The hot pool is the head of this seed's stream for every workload
#: seed; the workload seed draws the Zipf request sequences. A 64-query
#: pool drawn per seed would let its few hottest queries set the run's
#: cost and accesses.
POOL_SEED = 0
ZIPF_S = 1.0

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def code_key() -> str:
    """Content hash of the program and of this file, which together
    determine every cached input."""
    digest = hashlib.sha256()
    for path in [*sorted(SRC.rglob("*.py")), Path(__file__).resolve()]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cache_dir() -> Path:
    path = ROOT / ".perfbench_cache" / code_key()
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, doc) -> None:
    """Atomic write: concurrent or killed runs never leave half a file."""
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(doc), encoding="utf-8")
    os.replace(tmp, path)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


# ------------------------------------------------------------ canonical form
def canonical(semantics: str, answer) -> list:
    """Sorted, JSON-stable answer: subgraph matches as sorted item lists,
    simulation relations as sorted ``(pattern node, data node)`` pairs."""
    if semantics == "subgraph":
        return sorted([[int(u), int(v)] for u, v in sorted(match.items())]
                      for match in answer)
    return sorted([int(u), int(v)] for u, matches in answer.items()
                  for v in matches)


def digest(canon: list) -> str:
    return hashlib.blake2b(json.dumps(canon, separators=(",", ":")).encode(),
                           digest_size=16).hexdigest()


# ------------------------------------------------------------------ artifacts
def dataset():
    from repro.bench.datasets import get_dataset
    return get_dataset(DATASET, SCALE, seed=GRAPH_SEED)


def ensure_artifacts(cache: Path) -> dict:
    """Paths of the single-layout and 2-shard artifacts, built once."""
    paths = {"single": cache / "artifact-single",
             "sharded": cache / f"artifact-{SHARDS}shards"}
    missing = [key for key, path in paths.items()
               if not (path / "manifest.json").exists()]
    if missing:
        import repro
        graph, schema = dataset()
        from repro.constraints.schema import AccessSchema
        engine = repro.connect((graph, AccessSchema(list(schema))))
        for key in missing:
            tmp = paths[key].with_name(paths[key].name + f".tmp{os.getpid()}")
            shutil.rmtree(tmp, ignore_errors=True)
            engine.save(tmp, shards=SHARDS if key == "sharded" else None)
            shutil.rmtree(paths[key], ignore_errors=True)
            os.replace(tmp, paths[key])
        engine.close()
    return {key: str(path) for key, path in paths.items()}


# ------------------------------------------------------------ instance stream
class InstanceStream:
    """The seeded stream of never-repeating bounded instances."""

    def __init__(self, graph, schema, seed: int):
        self.graph = graph
        self.schema = schema
        self.seed = seed
        self._capped = {v for v in graph.nodes()
                        if graph.degree(v) <= DEGREE_CAP}
        self._walkable = sorted(self._capped)
        self._neighbors: dict[int, list] = {}
        self._unbounded: set = set()
        self._seen: set = set()
        self.rejected = {"short": 0, "duplicate": 0, "unbounded": 0,
                         "over_budget": 0}
        self.bounded = 0

    def _capped_neighbors(self, node: int) -> list:
        cached = self._neighbors.get(node)
        if cached is None:
            graph, capped = self.graph, self._capped
            cached = [(w, True) for w in sorted(graph.out_neighbors(node))
                      if w in capped]
            cached += [(w, False) for w in sorted(graph.in_neighbors(node))
                       if w in capped]
            self._neighbors[node] = cached
        return cached

    def _walk(self, rng: random.Random):
        from repro.pattern.pattern import Pattern
        from repro.pattern.predicates import Atom, Predicate

        graph = self.graph
        size = rng.randint(*NODE_RANGE)
        data = [rng.choice(self._walkable)]
        pattern = Pattern()
        pattern.add_node(graph.label_of(data[0]))
        for _ in range(8 * size):
            if len(data) == size:
                break
            anchor = rng.randrange(len(data))
            options = self._capped_neighbors(data[anchor])
            if not options:
                continue
            node, outgoing = rng.choice(options)
            if node in data:
                continue
            data.append(node)
            new = pattern.add_node(graph.label_of(node))
            if outgoing:
                pattern.add_edge(anchor, new)
            else:
                pattern.add_edge(new, anchor)
        if len(data) < NODE_RANGE[0]:
            return None
        # Extra edges present in the data, up to #e in [#n-1, 1.5 #n].
        wanted = rng.randint(len(data) - 1, int(1.5 * len(data)))
        extra = [(a, b) for a in range(len(data)) for b in range(len(data))
                 if a != b and not pattern.has_edge(a, b)
                 and graph.has_edge(data[a], data[b])]
        rng.shuffle(extra)
        for a, b in extra[:max(wanted - pattern.num_edges, 0)]:
            pattern.add_edge(a, b)
        shape_key = self._shape_key(pattern)
        # Bind every node but one or two variables to its own value.
        order = list(range(len(data)))
        rng.shuffle(order)
        for node in order[rng.randint(1, 2):]:
            value = graph.value_of(data[node])
            if value is None:
                continue
            if isinstance(value, int) and not isinstance(value, bool):
                width = rng.randint(0, 3)
                low = value - rng.randint(0, width)
                predicate = Predicate((Atom(">=", low),
                                       Atom("<=", low + width)))
            else:
                predicate = Predicate((Atom("=", value),))
            pattern.set_predicate(node, predicate)
        return pattern, shape_key

    @staticmethod
    def _shape_key(pattern) -> tuple:
        labels = tuple(pattern.label_of(u) for u in sorted(pattern.nodes()))
        return labels, tuple(sorted(pattern.edges()))

    def instance(self, index: int) -> dict:
        """Instance ``index``; call in index order (dedup is by prefix)."""
        from repro.core.qplan import generate_plan
        from repro.engine.cache import pattern_fingerprint
        from repro.errors import NotEffectivelyBounded
        from repro.pattern.dsl import format_pattern

        semantics = ("subgraph"
                     if random.Random(f"{self.seed}/{index}").random()
                     < SUBGRAPH_SHARE else "simulation")
        attempt = 0
        while True:
            rng = random.Random(f"{self.seed}/{index}/{attempt}")
            attempt += 1
            walked = self._walk(rng)
            if walked is None:
                self.rejected["short"] += 1
                continue
            pattern, shape_key = walked
            if (shape_key, semantics) in self._unbounded:
                self.rejected["unbounded"] += 1
                continue
            try:
                plan = generate_plan(pattern, self.schema, semantics)
            except NotEffectivelyBounded:
                # Boundedness depends on labels and edges only.
                self._unbounded.add((shape_key, semantics))
                self.rejected["unbounded"] += 1
                continue
            key = (pattern_fingerprint(pattern)[0], semantics)
            if key in self._seen:
                self.rejected["duplicate"] += 1
                continue
            self.bounded += 1
            bound = plan.worst_case_total_accessed
            if bound > BUDGET:
                self.rejected["over_budget"] += 1
                continue
            self._seen.add(key)
            return {"dsl": format_pattern(pattern), "semantics": semantics,
                    "bound": bound, "nodes": pattern.num_nodes}


def instances(cache: Path, seed: int, count: int) -> list[dict]:
    """The first ``count`` instances of the seed's stream (cached)."""
    path = cache / f"instances-{seed}.json"
    cached = _read_json(path) or {"instances": []}
    have = cached["instances"]
    if len(have) >= count:
        return have[:count]
    graph, schema = dataset()
    stream = InstanceStream(graph, schema, seed)
    from repro.engine.cache import pattern_fingerprint
    from repro.pattern.dsl import parse_pattern
    for item in have:
        stream._seen.add((pattern_fingerprint(parse_pattern(item["dsl"]))[0],
                          item["semantics"]))
    out = list(have)
    for index in range(len(have), count):
        out.append(stream.instance(index))
    _write_json(path, {"instances": out, "rejected": stream.rejected,
                       "bounded": stream.bounded})
    return out


def zipf_weights(size: int = POOL_SIZE, s: float = ZIPF_S) -> list[float]:
    return [1.0 / (rank + 1) ** s for rank in range(size)]


# --------------------------------------------------------------------- oracle
def oracle(cache: Path, seed: int, items: list[dict], artifact: str, *,
           full_answers: int = 0) -> dict:
    """Digests for ``items`` (a stream prefix) from the sequential
    executor, plus the full canonical answers of the first
    ``full_answers`` items. Cached and extended per seed."""
    path = cache / f"oracle-{seed}.json"
    cached = _read_json(path) or {"digests": [], "answers": []}
    digests, answers = cached["digests"], cached["answers"]
    if len(digests) >= len(items) and len(answers) >= full_answers:
        return cached
    import repro
    from repro.pattern.dsl import parse_pattern

    needed = sorted(set(range(len(digests), len(items)))
                    | set(range(len(answers), full_answers)))
    with repro.connect(artifact, executor="sequential") as engine:
        for index in needed:
            item = items[index]
            run = engine.query(parse_pattern(item["dsl"]), item["semantics"])
            canon = canonical(item["semantics"], run.answer)
            if index >= len(digests):
                digests.append([digest(canon), len(canon)])
            if index >= len(answers) and index < full_answers:
                answers.append(canon)
    doc = {"digests": digests, "answers": answers}
    _write_json(path, doc)
    return doc


def main(argv=None) -> int:
    """Prepare (or reuse) the inputs of one seed; prints the cache dir."""
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=0,
                        help="stream prefix to generate and digest")
    parser.add_argument("--pool", action="store_true",
                        help="also prepare the hot pool and its answers")
    args = parser.parse_args(argv)
    cache = cache_dir()
    arts = ensure_artifacts(cache)
    if args.count:
        items = instances(cache, args.seed, args.count)
        oracle(cache, args.seed, items, arts["single"])
    if args.pool:
        pool = instances(cache, POOL_SEED, POOL_SIZE)
        oracle(cache, POOL_SEED, pool, arts["single"],
               full_answers=POOL_SIZE)
    print(cache, flush=True)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
