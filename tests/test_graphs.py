"""Tests for graphs, suborbits, orbital graphs, and s-arc transitivity."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from random import Random

from plinth.graphs import (
    Graph,
    direct_power,
    is_automorphism,
    is_connected,
    orbital_graph,
    s_arc_transitivity_max,
    suborbits,
    two_arc_transitive,
)
from plinth.algebra import psl2_action
from plinth.actions import cyclic_class_action
from plinth.autgq import ColoredGraph, graph_automorphism_group
from plinth.cli import _petersen
from plinth.errors import (
    DegreeMismatch,
    NotRegular,
    NotSimple,
    NotTransitive,
    OutOfRange,
)
from plinth.perm import PermGroup, Permutation, _schreier_path_images


def complete_graph(n):
    return Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    pairs = list(combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    gens = []
    for g in PermGroup.symmetric(5).generators:
        images = np.empty(10, dtype=np.int64)
        for i, (a, b) in enumerate(pairs):
            images[i] = index[tuple(sorted((int(g.images[a]), int(g.images[b]))))]
        gens.append(Permutation(images, _checked=True))
    K = PermGroup(gens, degree=10)
    # the pair {0, 1} is point 0; its disjoint pairs are its neighbours
    return K, orbital_graph(K, index[(2, 3)], suborbits(K))


def brute_s_arc_orbit(G, graph, s):
    """Oracle for s <= 3: (number of s-arcs, whether G is transitive on
    them), by listing every s-arc and walking the orbit of the first."""
    assert 0 <= s <= 3
    arcs = [(v,) for v in range(graph.n)]
    for _ in range(s):
        arcs = [
            a + (int(w),)
            for a in arcs
            for w in graph.neighbors(a[-1])
            if len(a) < 2 or int(w) != a[-2]
        ]
    if not arcs:
        return 0, False
    arc_set = set(arcs)
    start = arcs[0]
    seen = {start}
    frontier = [start]
    gens = [g for g in G.generators] + [g.inverse() for g in G.generators]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = tuple(int(g.images[x]) for x in a)
            if b in arc_set and b not in seen:
                seen.add(b)
                frontier.append(b)
    return len(arcs), len(seen) == len(arcs)


def brute_s_arc_max(G, graph, s_cap=3):
    """Oracle: largest s <= s_cap with G transitive on the s-arcs."""
    best = 0
    for s in range(1, s_cap + 1):
        if not brute_s_arc_orbit(G, graph, s)[1]:
            break
        best = s
    return best


# ---------------------------------------------------------------------------
# structure


def test_graph_from_edges_rejects_loops():
    with pytest.raises(NotSimple, match="loop at vertex 0"):
        Graph.from_edges(3, [(0, 0)])


def test_neighbors_sorted_and_valency():
    g = Graph.from_edges(4, [(2, 1), (0, 2), (3, 2)])
    assert list(g.neighbors(2)) == [0, 1, 3]
    with pytest.raises(NotRegular):
        g.valency()
    assert complete_graph(5).valency() == 4


def test_empty_graph_is_regular():
    # no vertex breaks regularity
    assert Graph.from_edges(0, []).is_regular()


def test_empty_graph_valency_raises_a_typed_error():
    with pytest.raises(OutOfRange, match="no vertex"):
        Graph.from_edges(0, []).valency()


def test_is_connected():
    assert is_connected(complete_graph(4))[0]
    two_parts = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(two_parts)[0]


def test_is_automorphism():
    g = cycle_graph(5)
    rot = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    swap = Permutation.from_cycles(5, [(0, 1)])
    assert is_automorphism(g, rot)
    assert not is_automorphism(g, swap)


def _reference_is_automorphism(graph, g):
    """The per-vertex test is_automorphism replaced: N(v.g) = g[N(v)].

    The former loop compared rows of different lengths elementwise, so
    a vertex sent to one of another degree raised ValueError (or, for a
    row of one against an empty row, passed); the degree test is added.
    """
    for v in range(graph.n):
        img = np.sort(g.images[graph.neighbors(v)])
        target = graph.neighbors(int(g.images[v]))
        if len(img) != len(target) or not (img == target).all():
            return False
    return True


@st.composite
def graphs_with_permutations(draw):
    n = draw(st.integers(1, 10))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    images = draw(st.permutations(range(n)))
    return Graph.from_edges(n, edges), Permutation(np.array(images, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(graphs_with_permutations())
def test_is_automorphism_matches_per_vertex_reference(case):
    # mostly irregular graphs, which the former code tested vertex by
    # vertex; each automorphism generator must pass, a random
    # permutation must agree with the reference either way
    graph, g = case
    assert is_automorphism(graph, g) == _reference_is_automorphism(graph, g)
    for a in graph_automorphism_group(ColoredGraph(graph)).generators:
        assert is_automorphism(graph, a) and _reference_is_automorphism(graph, a)


@pytest.mark.parametrize("degree", [3, 5, 6])
def test_permutation_of_wrong_degree_is_rejected(degree):
    # these once returned False or raised a raw IndexError
    group = PermGroup.symmetric(degree)
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    for g in group.generators:
        with pytest.raises(DegreeMismatch):
            is_automorphism(path, g)
    with pytest.raises(DegreeMismatch):
        s_arc_transitivity_max(group, cycle_graph(4))
    with pytest.raises(DegreeMismatch):
        two_arc_transitive(group, cycle_graph(4))


# ---------------------------------------------------------------------------
# suborbits and orbital graphs


def test_suborbits_partition_and_trivial_first():
    G = psl2_action(9, "PGammaL")
    PSL = psl2_action(9, "PSL")
    act = cyclic_class_action(G, PSL, 5)
    od = suborbits(act.group)
    assert od.suborbits[0].length == 1
    assert sum(od.lengths()) == act.group.degree
    assert sorted(od.lengths()) == [1, 5, 10, 20]
    assert all(s.self_paired for s in od.suborbits)


def test_suborbit_pairing_invariant_under_relabeling():
    G = PermGroup.symmetric(5)
    od = suborbits(G)
    rng = np.random.default_rng(9)
    # a relabelling that fixes the base point 0
    relabel = np.concatenate([[0], 1 + rng.permutation(4)])
    inv = np.argsort(relabel)
    gens = [
        Permutation(relabel[g.images[inv]], _checked=True) for g in G.generators
    ]
    H = PermGroup(gens, degree=5)
    od2 = suborbits(H)
    assert sorted(od.lengths()) == sorted(od2.lengths())
    assert sorted(s.self_paired for s in od.suborbits) == sorted(
        s.self_paired for s in od2.suborbits
    )


def is_self_paired(G, alpha, beta):
    """Pair-orbit test: does the orbit of (alpha, beta) contain its
    reverse?  The brute oracle for the transporter pairing of
    ``suborbits``."""
    start = (alpha, beta)
    target = (beta, alpha)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for a, b in frontier:
            for g in G.generators:
                pair = (int(g.images[a]), int(g.images[b]))
                if pair == target:
                    return True
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return False


def test_is_self_paired_matches_suborbit_flags():
    G = psl2_action(7)
    od = suborbits(G)
    for s in od.suborbits[1:]:
        assert is_self_paired(G, 0, s.representative) == s.self_paired


def test_orbital_graph_valency_matches_suborbit_length():
    G = psl2_action(9, "PGammaL")
    PSL = psl2_action(9, "PSL")
    act = cyclic_class_action(G, PSL, 5)
    od = suborbits(act.group)
    hit = next(s for s in od.suborbits if s.length == 5 and s.representative != 0)
    graph = orbital_graph(act.group, hit.representative, orbital_data=od)
    assert graph.n == 36
    assert graph.valency() == 5
    for g in act.group.generators:
        assert is_automorphism(graph, g)


@pytest.mark.parametrize(
    "group,beta,error",
    [
        pytest.param(psl2_action(7), -1, OutOfRange, id="-1-OutOfRange"),
        pytest.param(psl2_action(7), 8, OutOfRange, id="8-OutOfRange"),
        pytest.param(psl2_action(7), 0, NotSimple, id="0-NotSimple"),
        pytest.param(PermGroup.symmetric(4), -1, OutOfRange, id="S4--1-OutOfRange"),
        pytest.param(PermGroup.symmetric(4), 4, OutOfRange, id="S4-4-OutOfRange"),
    ],
)
def test_orbital_graph_rejects_a_bad_beta(group, beta, error):
    # on PSL(2,7), -1 once wrapped round to point 7, 0 gave a loop at
    # every vertex and 8 an IndexError
    with pytest.raises(error):
        orbital_graph(group, beta, suborbits(group))


# ---------------------------------------------------------------------------
# s-arc transitivity with brute-force oracle


ORACLE_CASES = []


def _oracle_case(name, group, graph):
    ORACLE_CASES.append(pytest.param(group, graph, id=name))


_k4 = complete_graph(4)
_oracle_case("S4_on_K4", PermGroup.symmetric(4), _k4)
_oracle_case("A4_on_K4", PermGroup.alternating(4), _k4)
_oracle_case("C4_on_C4", PermGroup.cyclic(4), cycle_graph(4))
_oracle_case(
    "D6_on_C6",
    PermGroup(
        [
            Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)]),
            Permutation.from_cycles(6, [(1, 5), (2, 4)]),
        ],
        degree=6,
    ),
    cycle_graph(6),
)
_K_pet, _pet = petersen()
_oracle_case("S5_on_Petersen", _K_pet, _pet)
_oracle_case("K33", PermGroup.symmetric(6), None)  # placeholder replaced below
ORACLE_CASES.pop()
_k33 = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
_k33_gens = [
    Permutation.from_cycles(6, [(0, 1, 2)]),
    Permutation.from_cycles(6, [(3, 4)]),
    Permutation.from_cycles(6, [(0, 3), (1, 4), (2, 5)]),
]
_oracle_case("K33_aut", PermGroup(_k33_gens, degree=6), _k33)


@pytest.mark.parametrize("G,graph", ORACLE_CASES)
def test_two_arc_transitive_matches_brute_oracle(G, graph):
    count, transitive = brute_s_arc_orbit(G, graph, 2)
    assert count <= 2000
    assert two_arc_transitive(G, graph) == transitive


@pytest.mark.parametrize("G,graph", ORACLE_CASES)
def test_s_arc_transitivity_max_matches_brute_oracle(G, graph):
    assert s_arc_transitivity_max(G, graph, s_cap=3) == brute_s_arc_max(G, graph)


def test_two_arc_known_values():
    assert two_arc_transitive(PermGroup.symmetric(4), _k4)
    assert not two_arc_transitive(PermGroup.cyclic(4), cycle_graph(4))
    assert two_arc_transitive(_K_pet, _pet)


def test_s_arc_transitivity_max_values():
    assert s_arc_transitivity_max(PermGroup.symmetric(4), _k4) == 2
    assert s_arc_transitivity_max(_K_pet, _pet) == 3
    assert s_arc_transitivity_max(PermGroup.cyclic(4), cycle_graph(4)) == 0


def test_s_arc_transitivity_max_complete_graph_k33():
    # 33 * 32 * 31 * 31 = 1,014,816 three-arcs: S_33 is transitive on
    # the 2-arcs, but a 3-arc either returns to v_0 or does not
    assert s_arc_transitivity_max(PermGroup.symmetric(33), complete_graph(33)) == 2


def test_s_arc_transitivity_max_perfect_matching():
    matching = Graph.from_edges(4, [(0, 1), (2, 3)])
    G = _perm_group(4, [(0, 1), (2, 3)], [(0, 2), (1, 3)])
    assert s_arc_transitivity_max(G, matching) == 1 == brute_s_arc_max(G, matching)
    with pytest.raises(OutOfRange, match="valency"):
        two_arc_transitive(G, matching)


def test_two_arc_test_refuses_a_graph_with_no_vertex():
    # graph.degree(0) once raised a bare IndexError here
    with pytest.raises(OutOfRange, match="valency"):
        two_arc_transitive(PermGroup.trivial(0), Graph.from_edges(0, []))


def test_products_petersen_is_the_s5_orbital_graph():
    # the edge-list construction against the S5-on-pairs orbital graph
    graph, (_, oracle) = _petersen(), petersen()
    assert graph.n == oracle.n == 10
    for got, want in ((graph.indptr, oracle.indptr), (graph.indices, oracle.indices)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_two_arc_test_refuses_valency_1_before_building_a_stabilizer(monkeypatch):
    built = []

    def spy(group, alpha):
        built.append(alpha)
        raise AssertionError("a stabilizer was built")

    monkeypatch.setattr("plinth.graphs.point_stabilizer", spy)
    matching = Graph.from_edges(4, [(0, 1), (2, 3)])
    G = _perm_group(4, [(0, 1), (2, 3)], [(0, 2), (1, 3)])
    with pytest.raises(OutOfRange, match="valency"):
        two_arc_transitive(G, matching)
    assert built == []


def test_s_arc_transitivity_max_rejects_a_negative_cap():
    # -2 was once returned as the verdict
    with pytest.raises(OutOfRange, match="s_cap"):
        s_arc_transitivity_max(PermGroup.symmetric(4), _k4, s_cap=-2)


def test_count_s_arcs():
    # K4: 12 arcs, each extends to 2 two-arcs
    S4 = PermGroup.symmetric(4)
    assert brute_s_arc_orbit(S4, _k4, 1)[0] == 12
    assert brute_s_arc_orbit(S4, _k4, 2)[0] == 24
    assert brute_s_arc_orbit(_K_pet, _pet, 1)[0] == 30
    assert brute_s_arc_orbit(_K_pet, _pet, 2)[0] == 60


# ---------------------------------------------------------------------------
# products


def test_direct_power_degree_and_valency():
    sq = direct_power(_k4, 2)
    assert sq.n == 16
    assert sq.valency() == 9
    pet2 = direct_power(_pet, 2)
    assert pet2.n == 100
    assert pet2.valency() == 9


def test_direct_power_rejects_an_irregular_graph():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(NotRegular, match="regular graphs"):
        direct_power(path, 2)


@pytest.mark.parametrize("ell", [0, -1])
def test_direct_power_rejects_an_arity_below_one(ell):
    # ell = 0 once gave one vertex with a loop, ell = -1 a TypeError
    with pytest.raises(OutOfRange, match="arity"):
        direct_power(_k4, ell)


def test_direct_power_of_the_empty_graph_is_empty():
    power = direct_power(Graph.from_edges(0, []), 2)
    assert power.n == 0 and len(power.indices) == 0


def test_direct_power_neighborhoods_are_products():
    sq = direct_power(_k4, 2)
    # vertex (i,j) encoded as i*4+j; neighbors are products of neighborhoods
    v = 1 * 4 + 2
    got = {int(u) for u in sq.neighbors(v)}
    want = {
        int(a) * 4 + int(b)
        for a in _k4.neighbors(1)
        for b in _k4.neighbors(2)
    }
    assert got == want


def test_edge_orbit_graph_petersen_shape():
    assert _pet.n == 10
    assert _pet.valency() == 3
    assert is_connected(_pet)[0]


def _reference_edge_orbit_graph(K, edge):
    """The graph whose edges are the K-orbit of the pair, by a
    breadth-first search over pairs."""
    start = tuple(sorted(edge))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for a, b in frontier:
            for g in K.generators:
                pair = tuple(sorted((int(g.images[a]), int(g.images[b]))))
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return Graph.from_edges(K.degree, seen)


def _m12():
    from plinth.cli import data_path, parse_generators

    return parse_generators(data_path("m12.gens"))


EDGE_ORBIT_GROUPS = {
    "S6": lambda: PermGroup.symmetric(6),
    "M12": _m12,
    "PSL(2,9)": lambda: psl2_action(9),
    "S5 on pairs": lambda: _K_pet,
    "D12": lambda: _perm_group(6, [(0, 1, 2, 3, 4, 5)], [(1, 5), (2, 4)]),
    "trivial": lambda: PermGroup.trivial(6),
}


def _same_graph(got, want):
    return (
        got.n == want.n
        and np.array_equal(got.indptr, want.indptr)
        and np.array_equal(got.indices, want.indices)
    )


@pytest.mark.parametrize("edge", [(0, 1), (5, 0), (2, 5)])
@pytest.mark.parametrize("name", sorted(EDGE_ORBIT_GROUPS))
def test_edge_orbit_graph_matches_pair_search(name, edge):
    # orbital_graph builds the orbit of {a, b} as the orbital of {0, beta},
    # with u: 0 -> a from the Schreier tree of 0 and beta = b.u^-1; an
    # intransitive group has no suborbits to build it from
    K = EDGE_ORBIT_GROUPS[name]()
    a, b = edge
    if not K.is_transitive():
        with pytest.raises(NotTransitive):
            suborbits(K)
        return
    u = _schreier_path_images(K.orbit(0), a, K.generators, K.degree)
    beta = int(np.argsort(u)[b])
    got = orbital_graph(K, beta, suborbits(K))
    assert _same_graph(got, _reference_edge_orbit_graph(K, edge))


@pytest.mark.parametrize(
    "name", sorted(n for n in EDGE_ORBIT_GROUPS if n != "trivial")
)
def test_orbital_graph_matches_pair_search_at_every_self_paired_beta(name):
    K = EDGE_ORBIT_GROUPS[name]()
    od = suborbits(K)
    betas = [
        beta
        for beta in range(1, K.degree)
        if od.suborbits[od.labels[beta]].self_paired
    ]
    assert betas
    for beta in betas:
        got = orbital_graph(K, beta, od)
        assert _same_graph(got, _reference_edge_orbit_graph(K, (0, beta))), beta


@pytest.mark.parametrize("seed", range(20))
def test_from_edges_matches_neighbor_sets(seed):
    # duplicates, reversed pairs and isolated vertices, as a loop builds them
    rng = Random(seed)
    n = rng.randrange(1, 25)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(40))]
    edges = [(u, v) for u, v in edges if u != v]
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    g = Graph.from_edges(n, edges)
    assert [g.neighbors(v).tolist() for v in range(n)] == [sorted(s) for s in nbrs]
    assert g.indptr.tolist() == [0, *np.cumsum([len(s) for s in nbrs]).tolist()]


def test_from_edges_of_no_vertices():
    g = Graph.from_edges(0, [])
    assert g.indptr.tolist() == [0] and g.indices.tolist() == []


@pytest.mark.parametrize("edge", [(0, -1), (0, 5), (-2, 1)])
def test_graph_rejects_a_vertex_out_of_range(edge):
    with pytest.raises(OutOfRange):
        Graph.from_edges(3, [(0, 1), edge])


# ---------------------------------------------------------------------------
# the suborbit scan, decided from group data, against the graph oracles


def _perm_group(n, *cycle_lists):
    return PermGroup(
        [Permutation.from_cycles(n, cycles) for cycles in cycle_lists], degree=n
    )


SCAN_CORPUS = [
    # D12 on a hexagon: beta = 3 gives a matching, beta in {2, 4} two
    # triangles, beta in {1, 5} the hexagon itself
    pytest.param(_perm_group(6, [(0, 1, 2, 3, 4, 5)], [(1, 5), (2, 4)]), id="D12"),
    # S2 wr S3 on 6 points: a matching and the octahedron K_{2,2,2}
    pytest.param(
        _perm_group(6, [(0, 1)], [(0, 2, 4), (1, 3, 5)], [(0, 2), (1, 3)]),
        id="S2wrS3",
    ),
    # C6 regular: only beta = 3 is self-paired, a valency-1 matching
    pytest.param(PermGroup.cyclic(6), id="C6"),
    # C5 regular: no nontrivial suborbit is self-paired
    pytest.param(PermGroup.cyclic(5), id="C5"),
    # the Petersen graph (2-AT) and its complement (connected, not 2-AT)
    pytest.param(_K_pet, id="S5_on_pairs"),
    # K8 under PSL(2,7): connected, stabilizer of order 21 not 2-transitive
    pytest.param(psl2_action(7), id="PSL27_on_8"),
    pytest.param(PermGroup.symmetric(4), id="S4"),
    pytest.param(
        cyclic_class_action(psl2_action(9, "PGammaL"), psl2_action(9, "PSL"), 5).group,
        id="PGammaL29_on_36",
    ),
]


@pytest.mark.parametrize("G", SCAN_CORPUS)
def test_suborbit_scan_matches_graph_oracles(G):
    from plinth.cli import _scan_suborbits

    od = suborbits(G)
    scan = _scan_suborbits(od)
    wanted = [s.representative for s in od.suborbits[1:] if s.self_paired]
    assert [r["representative"] for r in scan] == wanted
    for r in scan:
        graph = orbital_graph(G, r["representative"], orbital_data=od)
        assert r["length"] == graph.valency()
        assert r["connected"] == is_connected(graph)[0]
        assert r["two_at"] == brute_s_arc_orbit(G, graph, 2)[1]
        if r["length"] >= 2:
            assert r["two_at"] == two_arc_transitive(G, graph)


def test_suborbit_scan_corpus_covers_every_verdict():
    from plinth.cli import _scan_suborbits

    verdicts = {
        (r["connected"], r["two_at"])
        for param in SCAN_CORPUS
        for r in _scan_suborbits(suborbits(param.values[0]))
    }
    # two triangles under D12 are disconnected yet 2-arc-transitive
    assert verdicts == {(c, t) for c in (False, True) for t in (False, True)}


def test_suborbit_scan_builds_no_orbital_graph(monkeypatch):
    from plinth.actions import coset_action
    from plinth.cli import _scan_suborbits, data_path, parse_generators
    from plinth.perm import random_subgroup_of_order

    def refuse(*args, **kwargs):
        raise AssertionError("the scan built an orbital graph")

    G = parse_generators(data_path("m12.gens"))
    H = random_subgroup_of_order(G, 660, profile=(11, 2), seed=1)
    M = coset_action(G, H).group
    monkeypatch.setattr("plinth.cli.orbital_graph", refuse)
    scan = _scan_suborbits(suborbits(M))
    assert scan
    assert not any(r["connected"] and r["two_at"] for r in scan)


def test_suborbits_carry_stabilizer_and_transporters():
    G = psl2_action(7)
    od = suborbits(G)
    assert od.stabilizer.order() * G.degree == G.order()
    assert all(int(g.images[0]) == 0 for g in od.stabilizer.generators)
    points = np.arange(G.degree)
    assert np.array_equal(od.transporters[0].map(points), points)
    for s, u in zip(od.suborbits, od.transporters):
        assert int(u.map(points)[0]) == s.representative
