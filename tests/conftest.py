"""Shared fixtures: the paper's running examples and small datasets."""

from __future__ import annotations

import pytest

from repro import AccessConstraint, AccessSchema, Graph, Pattern, SchemaIndex
from repro.graph.generators import dbpedia_like, imdb_like, web_like
from repro.pattern import parse_pattern

Q0_TEXT = """
aw: award;  y: year;  m: movie
a: actor;  s: actress;  c: country
m -> aw;  m -> y;  m -> a;  m -> s
a -> c;  s -> c
y.value >= 2011;  y.value <= 2013
"""


@pytest.fixture(scope="session")
def imdb_small():
    """A small IMDbG stand-in plus its schema (scale 0.02)."""
    return imdb_like(scale=0.02, seed=7)


@pytest.fixture(scope="session")
def imdb_index(imdb_small):
    graph, schema = imdb_small
    return SchemaIndex(graph, schema)


@pytest.fixture(scope="session")
def dbpedia_small():
    return dbpedia_like(scale=0.02, seed=7)


@pytest.fixture(scope="session")
def web_small():
    return web_like(scale=0.02, seed=7)


@pytest.fixture()
def q0():
    """The paper's Fig. 1 pattern Q0."""
    return parse_pattern(Q0_TEXT, name="Q0")


@pytest.fixture()
def a0_schema(imdb_small):
    """The paper's A0 — the first 8 constraints of the IMDb schema are
    exactly Example 3's φ1–φ6 (φ2/φ3 each stand for a pair)."""
    _, schema = imdb_small
    return AccessSchema(list(schema)[:8])


def build_q1() -> Pattern:
    """The paper's Fig. 2 pattern Q1 (A<->B cycle, C and D pointing at B)."""
    q1 = Pattern(name="Q1")
    u1 = q1.add_node("A")
    u2 = q1.add_node("B")
    u3 = q1.add_node("C")
    u4 = q1.add_node("D")
    q1.add_edge(u1, u2)
    q1.add_edge(u2, u1)
    q1.add_edge(u3, u2)
    q1.add_edge(u4, u2)
    return q1


@pytest.fixture()
def q1():
    return build_q1()


@pytest.fixture()
def q2(q1):
    """Example 9's Q2: Q1 with the C/D edges reversed."""
    pattern = q1.reversed_edges([(2, 1), (3, 1)])
    pattern.name = "Q2"
    return pattern


@pytest.fixture()
def a1_schema():
    """The paper's A1 (Example 8)."""
    return AccessSchema([
        AccessConstraint(("B",), "A", 2),
        AccessConstraint(("C", "D"), "B", 2),
        AccessConstraint((), "C", 1),
        AccessConstraint((), "D", 1),
    ])


def build_g1(n: int = 6) -> Graph:
    """The paper's Fig. 2 graph G1: an A/B cycle of length 2n with one C
    and one D node attached to the last B node."""
    graph = Graph()
    cycle = [graph.add_node("A" if i % 2 == 0 else "B") for i in range(2 * n)]
    for i in range(2 * n):
        graph.add_edge(cycle[i], cycle[(i + 1) % (2 * n)])
    c = graph.add_node("C")
    d = graph.add_node("D")
    graph.add_edge(c, cycle[2 * n - 1])
    graph.add_edge(d, cycle[2 * n - 1])
    return graph


@pytest.fixture()
def g1():
    return build_g1()


@pytest.fixture()
def tiny_graph():
    """A 5-node graph used across unit tests.

    movie -> year(2012), movie -> actor, actor -> country, movie2 -> year
    """
    graph = Graph()
    movie = graph.add_node("movie", value="m1")
    year = graph.add_node("year", value=2012)
    actor = graph.add_node("actor", value="a1")
    country = graph.add_node("country", value="uk")
    movie2 = graph.add_node("movie", value="m2")
    graph.add_edge(movie, year)
    graph.add_edge(movie, actor)
    graph.add_edge(actor, country)
    graph.add_edge(movie2, year)
    return graph


def plain(value):
    """Scatter responses with their arrays as nested lists, so two
    responses compare with ``==``."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value
