"""Tests for the colored-graph automorphism engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plinth.autgq import (
    ColoredGraph,
    _Engine,
    graph_automorphism_group,
    incidence_graph,
)
from plinth.algebra import (
    extend_to_lines,
    gq_automorphism_group,
    sp4,
    symplectic_gq,
)
from plinth.errors import DegreeMismatch, GeneratorNotAutomorphism
from plinth.graphs import Graph, is_automorphism
from plinth.perm import PermGroup, Permutation


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_k4_automorphisms():
    k4 = Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    aut = graph_automorphism_group(ColoredGraph(k4))
    assert aut.order() == 24


def test_cycle_automorphisms_dihedral():
    for n in (5, 6, 8):
        aut = graph_automorphism_group(ColoredGraph(cycle_graph(n)))
        assert aut.order() == 2 * n


def test_every_generator_is_an_automorphism():
    g = cycle_graph(7)
    aut = graph_automorphism_group(ColoredGraph(g))
    for gen in aut.generators:
        assert is_automorphism(g, gen)


def test_colors_restrict_automorphisms():
    g = cycle_graph(6)
    colors = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
    aut = graph_automorphism_group(ColoredGraph(g, colors=colors))
    # color classes alternate: only the rotations by even steps and the
    # reflections fixing the classes survive: order 6
    assert aut.order() == 6
    for gen in aut.generators:
        assert (colors[gen.images] == colors).all()


def test_asymmetric_graph():
    # smallest asymmetric tree on 7 vertices
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6)])
    aut = graph_automorphism_group(ColoredGraph(g))
    assert aut.order() == 1


def test_graph_with_no_vertices_has_the_trivial_group():
    aut = graph_automorphism_group(ColoredGraph(Graph.from_edges(0, [])))
    assert aut.degree == 0
    assert aut.order() == 1
    assert aut.generators == []


def test_relabeling_invariance():
    g = cycle_graph(8)
    rng = np.random.default_rng(4)
    relabel = rng.permutation(8)
    edges = []
    for v in range(8):
        for u in g.neighbors(v):
            if v < int(u):
                edges.append((int(relabel[v]), int(relabel[int(u)])))
    h = Graph.from_edges(8, edges)
    assert graph_automorphism_group(ColoredGraph(g)).order() == (
        graph_automorphism_group(ColoredGraph(h)).order()
    )


def test_petersen_automorphism_order():
    from itertools import combinations

    pairs = list(combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = [
        (index[a], index[b])
        for a in pairs
        for b in pairs
        if a < b and not set(a) & set(b)
    ]
    pet = Graph.from_edges(10, edges)
    aut = graph_automorphism_group(ColoredGraph(pet))
    assert aut.order() == 120


def test_symplectic_gq2_incidence_aut():
    # W(2) incidence graph is the Tutte-Coxeter graph: S6 of order 720
    # extended by the point-line duality, order 1440
    geom = symplectic_gq(2)
    cg = incidence_graph(geom)
    aut = graph_automorphism_group(cg)
    assert aut.order() == 1440


def test_symplectic_gq4_incidence_aut():
    geom = symplectic_gq(4)
    cg = incidence_graph(geom)
    aut = graph_automorphism_group(cg)
    assert aut.order() == 3916800


def test_color_array_of_wrong_length_raises_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        ColoredGraph(cycle_graph(5), colors=np.zeros(4, dtype=np.int64))
    with pytest.raises(DegreeMismatch):
        ColoredGraph(cycle_graph(5), colors=np.zeros((5, 1), dtype=np.int64))


# -- the refinement kernel against the former two-branch refinement --------


def unique_round(graph, colors):
    """One former round on a regular graph: ``np.unique(axis=0)`` ranks
    the (color, sorted neighbor colors) rows."""
    nbr = graph.indices.reshape(graph.n, graph.valency())
    rows = np.concatenate([colors[:, None], np.sort(colors[nbr], axis=1)], axis=1)
    return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)


def tuple_round(graph, colors):
    """One former round on any graph: sorted Python tuples."""
    keys = [
        (int(colors[v]),) + tuple(sorted(int(colors[u]) for u in graph.neighbors(v)))
        for v in range(graph.n)
    ]
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return np.array([order[k] for k in keys], dtype=np.int64)


def reference_refine(graph, colors):
    """The former refinement: ``unique_round`` on regular graphs,
    ``tuple_round`` otherwise, until the partition is stable."""
    round_ = unique_round if graph.is_regular() else tuple_round
    while True:
        inv = round_(graph, colors).astype(np.int64)
        if int(inv.max()) == int(colors.max()):
            return inv
        colors = inv


@st.composite
def colored_graphs(draw, max_n=12):
    """(graph, canonical colors): relabelled circulants (regular) or
    random edge sets (mostly irregular), with random vertex colors."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        jumps = draw(st.sets(st.integers(1, max(1, n // 2)), max_size=3))
        edges = {(i, (i + s) % n) for i in range(n) for s in jumps if s < n}
        relabel = rng.permutation(n)
        edges = [(int(relabel[a]), int(relabel[b])) for a, b in edges if a != b]
    else:
        p = draw(st.floats(0.0, 1.0))
        edges = [
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p
        ]
    graph = Graph.from_edges(n, edges)
    colors = rng.integers(0, draw(st.integers(1, 4)), size=n)
    return graph, _Engine._canonical(colors)


@settings(max_examples=300, deadline=None)
@given(colored_graphs())
def test_refine_matches_former_refinement(case):
    graph, colors = case
    engine = _Engine(ColoredGraph(graph, colors))
    assert np.array_equal(engine.refine(colors), reference_refine(graph, colors))
    if graph.is_regular():
        # the former branches agree: tuple order is np.unique's row order
        assert np.array_equal(
            unique_round(graph, colors), tuple_round(graph, colors)
        )


# -- each partition refined once -----------------------------------------


@pytest.mark.parametrize("q,distinct", [(2, 34), (4, 223)])
def test_no_partition_is_refined_twice(monkeypatch, q, distinct):
    inputs = []
    refine = _Engine.refine

    def counting_refine(self, colors):
        inputs.append(colors.tobytes())
        return refine(self, colors)

    monkeypatch.setattr(_Engine, "refine", counting_refine)
    graph_automorphism_group(incidence_graph(symplectic_gq(q)))
    assert len(inputs) == len(set(inputs)) == distinct



# -- a search seeded with known automorphisms --------------------------------


def _sp4_on_gq(q):
    geom = symplectic_gq(q)
    return geom, extend_to_lines(geom, sp4(q).group.generators)


@pytest.mark.parametrize("q", [2, 4])
def test_built_aut_is_the_engines(q):
    geom, sp_gens = _sp4_on_gq(q)
    built = gq_automorphism_group(geom, sp_gens)
    found = graph_automorphism_group(incidence_graph(geom))
    assert built.order() == found.order()
    assert all(found.contains(g) for g in built.generators)
    assert all(built.contains(g) for g in found.generators)


def _counted_transporters(monkeypatch):
    calls = []
    transporter = _Engine.transporter

    def counting(self, depth, right):
        calls.append(depth)
        return transporter(self, depth, right)

    monkeypatch.setattr(_Engine, "transporter", counting)
    return calls


@pytest.mark.parametrize("q,unseeded,seeded", [(2, 27, 0), (4, 212, 21)])
def test_seeded_search_only_rules_out_the_rest(monkeypatch, q, unseeded, seeded):
    # seeded with all of Aut W(q), the search runs only for the cell
    # points outside the known orbits, and finds nothing there
    geom, sp_gens = _sp4_on_gq(q)
    known = gq_automorphism_group(geom, sp_gens)
    cg = incidence_graph(geom)
    calls = _counted_transporters(monkeypatch)
    assert graph_automorphism_group(cg).order() == known.order()
    assert len(calls) == unseeded
    del calls[:]
    aut = graph_automorphism_group(cg, known=known)
    assert len(calls) == seeded
    assert aut is known


def test_seeded_search_does_not_stop_at_the_known_group():
    geom, sp_gens = _sp4_on_gq(4)
    known = PermGroup(sp_gens)
    assert known.order() == 979200
    aut = graph_automorphism_group(incidence_graph(geom), known=known)
    assert aut.order() == 3916800


def test_known_generator_that_is_no_automorphism_raises():
    geom, sp_gens = _sp4_on_gq(2)
    n = geom.num_points + geom.num_lines
    bad = Permutation.from_cycles(n, [(0, 1)])
    known = PermGroup(sp_gens + [bad])
    with pytest.raises(GeneratorNotAutomorphism):
        graph_automorphism_group(incidence_graph(geom), known=known)


def test_known_group_of_another_degree_raises_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        graph_automorphism_group(
            ColoredGraph(cycle_graph(6)), known=PermGroup.cyclic(5)
        )


@pytest.mark.parametrize("seed", range(20))
def test_seeded_order_matches_the_unseeded_order(seed):
    # seeded with one automorphism, or with none, the search still
    # finds the whole group
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    p = float(rng.choice([0.3, 0.5, 0.7]))
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    colors = rng.integers(0, int(rng.integers(1, 3)), size=n)
    cg = ColoredGraph(Graph.from_edges(n, edges), colors=colors)
    full = graph_automorphism_group(cg)
    known = PermGroup(full.generators[-1:], degree=n)
    assert graph_automorphism_group(cg, known=known).order() == full.order()

def _hexagon_and_two_triangles():
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6, 7), (7, 8), (8, 6), (9, 10), (10, 11), (11, 9)]
    return edges


def test_transporter_rejects_a_partition_of_another_shape_at_once():
    # every vertex has degree 2, so refinement cannot tell a hexagon
    # vertex from a triangle vertex until one is individualized; then
    # the cell sizes differ and no search below that node is made
    cg = ColoredGraph(Graph.from_edges(12, _hexagon_and_two_triangles()))
    engine = _Engine(cg)
    colors, (_, cell) = engine._left[0]
    assert int(cell[0]) == 0 and 6 in cell.tolist()
    assert engine.transporter(1, engine._individualize(colors, 6)) is None
    assert engine.nodes == 1


# -- an independent oracle -------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_order_matches_networkx_isomorphism_count(seed):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    p = float(rng.choice([0.2, 0.4, 0.5, 0.7]))
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    colors = rng.integers(0, int(rng.integers(1, 4)), size=n)
    aut = graph_automorphism_group(
        ColoredGraph(Graph.from_edges(n, edges), colors=colors)
    )
    nxg = nx.Graph()
    nxg.add_nodes_from((v, {"c": int(colors[v])}) for v in range(n))
    nxg.add_edges_from(edges)
    matcher = GraphMatcher(nxg, nxg, node_match=lambda a, b: a["c"] == b["c"])
    assert aut.order() == sum(1 for _ in matcher.isomorphisms_iter())


def test_hexagon_and_two_triangles_order_matches_networkx():
    # D12 x (S3 wr S2)
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    edges = _hexagon_and_two_triangles()
    aut = graph_automorphism_group(ColoredGraph(Graph.from_edges(12, edges)))
    nxg = nx.Graph(edges)
    count = sum(1 for _ in GraphMatcher(nxg, nxg).isomorphisms_iter())
    assert aut.order() == count == 864
