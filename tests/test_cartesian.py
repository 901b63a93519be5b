"""Tests for grid decompositions, inclusion classification, factorizations."""

import itertools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from random import Random

from plinth.actions import (
    component,
    coset_action,
    cyclic_class_action,
    product_action_wreath,
    top_projection,
)
from plinth.algebra import psl2_action
from plinth.cartesian import (
    CartesianDecomposition,
    _index2_point_sets,
    blowup_embedding,
    classify_inclusion,
    cross_check_examples,
    dihedral_subgroup,
    find_grid_decompositions,
    index2_subgroups,
    load_examples_table,
    load_factorization_table,
    parabolic_order,
    verify_psl2_factorization_row,
)
from plinth.cli import _Run, _w_class_action, _w_grid, data_path
from plinth.errors import (
    ConstructionFailed,
    DegreeMismatch,
    IoError,
    Mismatch,
    NotCartesian,
    NotInvariant,
    OutOfRange,
    ParseError,
    PlinthError,
    ProjectionUnsupported,
)
from plinth.perm import (
    ENUMERATION_BOUND,
    PermGroup,
    Permutation,
    _orbit_labels,
    _schreier_path_images,
    derived_subgroup,
    intersection_small,
    point_stabilizer,
    reduce_generators,
    suborbit_frame,
)
from test_actions import _plinth_quotient
from test_perm import same_subgroup


# ---------------------------------------------------------------------------
# decomposition structure


def test_cartesian_decomposition_grid():
    # 2x3 grid on 6 points: rows and columns
    rows = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
    cols = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
    E = CartesianDecomposition([rows, cols])
    assert E.arity == 2
    assert sorted(E.block_counts) == [2, 3]


def test_cartesian_decomposition_rejects_non_grid():
    a = np.array([0, 0, 1, 1], dtype=np.int64)
    with pytest.raises(NotCartesian):
        CartesianDecomposition([a, a])
    with pytest.raises(NotCartesian):
        CartesianDecomposition([a])
    with pytest.raises(NotCartesian):
        CartesianDecomposition([a, np.array([0, 1, 2, 2], dtype=np.int64)])


def test_cartesian_decomposition_rejects_partitions_of_different_lengths():
    with pytest.raises(NotCartesian, match="different lengths"):
        CartesianDecomposition([[0, 0, 1, 1], [0, 1]])


def test_a_decomposition_of_another_degree_raises_degree_mismatch():
    E = CartesianDecomposition([[0, 0, 1, 1], [0, 1, 0, 1]])
    S6 = PermGroup.symmetric(6)
    with pytest.raises(DegreeMismatch):
        top_projection(S6, E)
    with pytest.raises(DegreeMismatch):
        classify_inclusion(S6, S6, E)
    with pytest.raises(DegreeMismatch):
        component(S6, E, 0)


# ---------------------------------------------------------------------------
# index-2 subgroups against a brute-force oracle


def brute_index2(G):
    """All index-2 subgroups by brute pair-closure over the element list."""
    n = G.degree
    elems = list(G.elements())
    target = len(elems) // 2
    member = {g.tobytes() for g in elems}
    found = []
    seen_sets = set()
    for subset_seed in itertools.combinations(range(len(elems)), 2):
        gens = [elems[i] for i in subset_seed]
        closure = {Permutation.identity(n).tobytes()}
        frontier = [Permutation.identity(n)]
        reps = {Permutation.identity(n).tobytes(): Permutation.identity(n)}
        while frontier:
            a = frontier.pop()
            for g in gens:
                b = a * g
                if b.tobytes() not in closure:
                    closure.add(b.tobytes())
                    reps[b.tobytes()] = b
                    frontier.append(b)
            if len(closure) > target:
                break
        if len(closure) == target:
            key = frozenset(closure)
            if key not in seen_sets:
                seen_sets.add(key)
                found.append(key)
    return found


ORACLE_GROUPS = [
    pytest.param(PermGroup.symmetric(4), id="S4"),
    pytest.param(PermGroup.cyclic(4), id="C4"),
    pytest.param(PermGroup.cyclic(6), id="C6"),
    pytest.param(PermGroup.cyclic(8), id="C8"),
    pytest.param(
        PermGroup(
            [
                Permutation.from_cycles(4, [(0, 1)]),
                Permutation.from_cycles(4, [(2, 3)]),
            ],
            degree=4,
        ),
        id="V4",
    ),
    pytest.param(
        PermGroup(
            [
                Permutation.from_cycles(8, [(0, 1, 2, 3)]),
                Permutation.from_cycles(8, [(1, 3)]),
            ],
            degree=8,
        ),
        id="D8",
    ),
    pytest.param(PermGroup.symmetric(5), id="S5"),
    pytest.param(PermGroup.alternating(4), id="A4"),
    pytest.param(
        PermGroup(
            [
                Permutation.from_cycles(6, [(0, 1, 2, 3)]),
                Permutation.from_cycles(6, [(4, 5)]),
            ],
            degree=6,
        ),
        id="C4xC2",
    ),
    pytest.param(
        PermGroup(
            [
                Permutation.from_cycles(4, [(0, 1)]),
                Permutation.from_cycles(4, [(2, 3)]),
                Permutation.from_cycles(4, [(0, 1), (2, 3)]),
            ],
            degree=4,
        ),
        id="V4-a-b-ab",
    ),
    pytest.param(
        PermGroup(
            [Permutation.from_cycles(6, [(2 * i, 2 * i + 1)]) for i in range(3)],
            degree=6,
        ),
        id="C2^3",
    ),
    pytest.param(
        PermGroup(
            [
                Permutation.from_cycles(
                    6, [(2 * i, 2 * i + 1) for i in range(3) if mask >> i & 1]
                )
                for mask in range(1, 8)
            ],
            degree=6,
        ),
        id="C2^3-all-7",
    ),
    pytest.param(
        # the order-3 generator must take sign 0: two sign vectors conflict
        PermGroup(
            [
                Permutation.from_cycles(5, [(0, 1)]),
                Permutation.from_cycles(5, [(2, 3, 4)]),
            ],
            degree=5,
        ),
        id="C2xC3",
    ),
]


@pytest.mark.parametrize("G", ORACLE_GROUPS)
def test_index2_subgroups_match_brute_oracle(G):
    got = index2_subgroups(G, derived_subgroup(G))
    want = brute_index2(G)
    assert len(got) == len(want)
    want_keys = set(want)
    for K in got:
        assert K.order() * 2 == G.order()
        key = frozenset(g.tobytes() for g in K.elements())
        assert key in want_keys


def _group(degree, *cycle_lists):
    return PermGroup(
        [Permutation.from_cycles(degree, c) for c in cycle_lists], degree=degree
    )


def _regular_v4():
    return _group(4, [(0, 1), (2, 3)], [(0, 2), (1, 3)])


# (G, D) with D normal in G but not its derived subgroup; in each, D has
# index 2 and is the one index-2 subgroup containing it
OVER_NORMAL_SUBGROUP = {
    "D8 on 4 over C4": lambda: (
        _group(4, [(0, 1, 2, 3)], [(1, 3)]),
        _group(4, [(0, 1, 2, 3)]),
    ),
    "regular V4 over <a>": lambda: (
        _regular_v4(),
        _group(4, [(0, 1), (2, 3)]),
    ),
    "S5 over A5": lambda: (PermGroup.symmetric(5), PermGroup.alternating(5)),
}


@pytest.mark.parametrize("name", sorted(OVER_NORMAL_SUBGROUP))
def test_index2_subgroups_over_a_normal_subgroup_match_brute_oracle(name):
    G, D = OVER_NORMAL_SUBGROUP[name]()
    inside = {g.tobytes() for g in D.elements()}
    want = [k for k in brute_index2(G) if inside <= k]
    got = [
        frozenset(g.tobytes() for g in K.elements()) for K in index2_subgroups(G, D)
    ]
    assert got == want == [frozenset(inside)]


def test_index2_subgroups_distinct():
    V4 = PermGroup(
        [
            Permutation.from_cycles(4, [(0, 1)]),
            Permutation.from_cycles(4, [(2, 3)]),
        ],
        degree=4,
    )
    subs = index2_subgroups(V4, derived_subgroup(V4))
    assert len(subs) == 3
    for a, b in itertools.combinations(subs, 2):
        assert not same_subgroup(a, b)


def _reference_index2_point_sets(Q):
    """The parity search _index2_point_sets replaced: for each nonzero
    sign vector, label the points from 0 by parity along the generators;
    a labelling without conflict is a homomorphism onto C2, and its
    kernel is the set of points labelled 0."""
    n = Q.degree
    gens = [g.images for g in reduce_generators(Q).generators]
    out = []
    for mask in range(1, 2 ** len(gens)):
        signs = [(mask >> i) & 1 for i in range(len(gens))]
        parity = [-1] * n
        parity[0] = 0
        frontier = [0]
        consistent = True
        while frontier and consistent:
            p = frontier.pop()
            for images, sign in zip(gens, signs):
                q = int(images[p])
                want = parity[p] ^ sign
                if parity[q] == -1:
                    parity[q] = want
                    frontier.append(q)
                elif parity[q] != want:
                    consistent = False
                    break
        if consistent:
            out.append([p for p in range(n) if parity[p] == 0])
    return out


def _regular(*cycles, degree):
    """The regular action of the group the cycle lists generate."""
    G = PermGroup([Permutation.from_cycles(degree, c) for c in cycles], degree=degree)
    return coset_action(G, PermGroup.trivial(degree)).group


REGULAR_GROUPS = {
    "C2": lambda: PermGroup.cyclic(2),
    "C2^2": lambda: _regular([(0, 1)], [(2, 3)], degree=4),
    "C2^3": lambda: _regular([(0, 1)], [(2, 3)], [(4, 5)], degree=6),
    "C4xC2": lambda: _regular([(0, 1, 2, 3)], [(4, 5)], degree=6),
    "C6": lambda: PermGroup.cyclic(6),
    "Q8": lambda: PermGroup(
        [
            Permutation.from_cycles(8, [(0, 1, 2, 3), (4, 5, 6, 7)]),
            Permutation.from_cycles(8, [(0, 4, 2, 6), (1, 7, 3, 5)]),
        ],
        degree=8,
    ),
    "D8 on 8": lambda: _regular([(0, 1, 2, 3)], [(0, 2)], degree=4),
    "S3 on 6": lambda: _regular([(0, 1, 2)], [(0, 1)], degree=3),
    "sylvester G/M": lambda: coset_action(*_plinth_quotient(2)).group,
    "sp44 G/M": lambda: coset_action(*_plinth_quotient(4)).group,
}


@pytest.mark.parametrize("name", sorted(REGULAR_GROUPS))
def test_index2_point_sets_match_parity_search(name):
    Q = REGULAR_GROUPS[name]()
    assert Q.order() == Q.degree and Q.is_transitive()
    got = _index2_point_sets(Q)
    assert got and all(len(k) * 2 == Q.degree for k in got)
    assert got == _reference_index2_point_sets(Q)


def test_index2_subgroups_odd_order():
    for G in (PermGroup.cyclic(5), PermGroup.alternating(5)):
        assert index2_subgroups(G, derived_subgroup(G)) == []


# ---------------------------------------------------------------------------
# grid discovery and classification


def a6_setup():
    PGammaL = psl2_action(9, "PGammaL")
    PSL = psl2_action(9, "PSL")
    act = cyclic_class_action(PGammaL, PSL, 5)
    G = act.group
    M = PermGroup([act.action_of(g) for g in PSL.generators], degree=36)
    return G, M


def test_find_grid_decompositions_a6():
    G, M = a6_setup()
    grids = find_grid_decompositions(G, M, suborbit_frame(G))
    assert len(grids) == 1
    assert grids[0].block_counts == [6, 6]


def test_grid_search_skips_only_non_grids(monkeypatch):
    import plinth.cartesian as cartesian

    G, M = a6_setup()

    def rejects(error):
        def build(partitions):
            raise error

        return build

    monkeypatch.setattr(cartesian, "CartesianDecomposition", rejects(NotCartesian()))
    assert find_grid_decompositions(G, M, suborbit_frame(G)) == []
    # any other error from the constructor is a fault, not "no grid"
    monkeypatch.setattr(cartesian, "CartesianDecomposition", rejects(ValueError("boom")))
    with pytest.raises(ValueError, match="boom"):
        find_grid_decompositions(G, M, suborbit_frame(G))


def test_grid_search_on_the_regular_klein_four_group():
    # its index-2 subgroups are intransitive; with M the whole group none
    # is searched, and each pair of its three block systems is a 2 x 2 grid
    V4 = _regular_v4()
    grids = find_grid_decompositions(V4, V4, suborbit_frame(V4))
    assert len({E.signature() for E in grids}) == len(grids) == 3
    assert all(E.block_counts == [2, 2] for E in grids)


def test_grid_search_finds_the_product_grid_of_a5_wr_2():
    # W is primitive on 25 points; its plinth A5 x A5, of index 2, keeps
    # the rows and the columns of the 5 x 5 grid
    W, M, _, E = _a5_wr_2_setup()
    assert M.order() == 3600 and M.is_transitive()
    grids = find_grid_decompositions(W, M, suborbit_frame(W))
    assert [F.signature() for F in grids] == [E.signature()]
    assert grids[0].block_counts == [5, 5]


def test_classify_inclusion_a6_cd2sim():
    G, M = a6_setup()
    grids = find_grid_decompositions(G, M, suborbit_frame(G))
    verdict = classify_inclusion(G, M, grids[0])
    assert verdict.tag == "CD2Sim"
    assert list(verdict.projection_orders) == [60, 60]
    assert verdict.s <= 3


def _a6_grid_projections():
    """The A6 setup, its grid, the verdict, and the block-stabilizer
    projections P_j1 and P_j2 of the plinth."""
    G, M = a6_setup()
    E = find_grid_decompositions(G, M, suborbit_frame(G))[0]
    verdict = classify_inclusion(G, M, E)
    j1, j2 = verdict.details["moved_partitions"][0]
    a, b = (
        point_stabilizer(component(M, E, j), E.block_of(j, 0)) for j in (j1, j2)
    )
    return G, M, E, verdict, (j1, j2), a, b


def test_block_reps_are_block_minima():
    from plinth.actions import _block_reps

    G, M = a6_setup()
    E = find_grid_decompositions(G, M, suborbit_frame(G))[0]
    for j, lab in enumerate(E.partitions):
        minima = {}
        for p in range(E.degree):
            minima.setdefault(int(lab[p]), p)
        assert _block_reps(E, j).tolist() == [minima[b] for b in range(6)]


def test_classify_inclusion_a6_block_bijection_conjugates_projections():
    _, _, E, verdict, (j1, j2), a, b = _a6_grid_projections()
    beta = np.array(verdict.details["block_bijection"])
    assert sorted(beta.tolist()) == list(range(6))
    assert beta[E.block_of(j1, 0)] == E.block_of(j2, 0)
    inverse = np.argsort(beta)
    elements = list(a.elements())
    assert len(elements) == 60
    for x in elements:
        assert b.contains(Permutation(beta[x.images[inverse]]))


def test_a6_projections_agree_on_order_spectrum_and_orbit_lengths():
    # the invariants the block bijection replaced, kept as a cross-check
    *_, a, b = _a6_grid_projections()

    def spectrum(P):
        return sorted({g.order() for g in P.elements()})

    def orbit_lengths(P):
        labels, _ = _orbit_labels([g.images for g in P.generators], P.degree)
        return sorted(np.bincount(labels).tolist())

    assert spectrum(a) == spectrum(b)
    assert orbit_lengths(a) == orbit_lengths(b)


def test_classify_inclusion_rejects_a_block_map_that_is_no_bijection(
    monkeypatch,
):
    import plinth.cartesian as cartesian

    G, M = a6_setup()
    E = find_grid_decompositions(G, M, suborbit_frame(G))[0]
    # the identity leaves partition j1 in place instead of carrying it to
    # j2, so the block map it induces is not a bijection
    monkeypatch.setattr(
        cartesian,
        "_schreier_path_images",
        lambda tree, point, gens, degree: np.arange(degree),
    )
    with pytest.raises(Mismatch, match="no block bijection"):
        classify_inclusion(G, M, E)


def test_classify_inclusion_rejects_a_shifted_block_bijection(monkeypatch):
    import plinth.cartesian as cartesian

    G, M = a6_setup()
    E = find_grid_decompositions(G, M, suborbit_frame(G))[0]
    j2 = classify_inclusion(G, M, E).details["moved_partitions"][0][1]
    labels = E.partitions[j2]
    first = np.unique(labels, return_index=True)[1]
    transporter = cartesian._schreier_path_images

    def shifted(tree, point, gens, degree):
        # move every image one block further along partition j2: the
        # block map stays a bijection but conjugates P_j1 elsewhere
        h = transporter(tree, point, gens, degree)
        return first[(labels[h] + 1) % len(first)]

    monkeypatch.setattr(cartesian, "_schreier_path_images", shifted)
    with pytest.raises(Mismatch, match="does not carry"):
        classify_inclusion(G, M, E)


def test_classify_inclusion_rejects_a_non_normal_plinth():
    G, M = a6_setup()
    E = find_grid_decompositions(G, M, suborbit_frame(G))[0]
    with pytest.raises(NotInvariant):
        classify_inclusion(G, point_stabilizer(G, 0), E)


def test_classify_inclusion_rejects_factors_meeting_different_counts():
    G, M = a6_setup()
    E = find_grid_decompositions(G, M, suborbit_frame(G))[0]
    with pytest.raises(Mismatch):
        classify_inclusion(G, M, E, factors=[M, PermGroup.trivial(36)])


def test_classify_inclusion_rejects_overlapping_factor_supports():
    # s = 2 for each copy of the plinth, and the two copies move the
    # same points
    G, M = a6_setup()
    E = find_grid_decompositions(G, M, suborbit_frame(G))[0]
    with pytest.raises(ProjectionUnsupported, match="overlapping"):
        classify_inclusion(G, M, E, factors=[M, M])


def _a5_wr_2_setup():
    A5 = PermGroup.alternating(5)
    wreath = product_action_wreath(A5, 2, PermGroup.symmetric(2))
    W = wreath.group
    n, d = W.degree, A5.degree
    factor_gens = []
    for j in range(2):
        gens = []
        for g in A5.generators:
            images = np.arange(n, dtype=np.int64)
            for p in range(n):
                # numpy's codec, most significant coordinate first
                tup = list(np.unravel_index(p, (d, d)))
                tup[j] = int(g.images[tup[j]])
                images[p] = wreath.encode(tup)
            gens.append(Permutation(images, _checked=True))
        factor_gens.append(gens)
    factors = [PermGroup(gens, degree=n) for gens in factor_gens]
    M = PermGroup(factor_gens[0] + factor_gens[1], degree=n)
    return W, M, factors, wreath.decomposition


def test_classify_inclusion_normal_for_a5_wr_2():
    W, M, factors, E = _a5_wr_2_setup()
    verdict = classify_inclusion(W, M, E, factors=factors)
    assert verdict.tag == "Normal"
    assert verdict.details.get("stabilizer_product_formula_holds") is True
    assert verdict.s == 1


def _diagonal_wreath(K, ell, top):
    """The diagonal copy of K in the product action of K wr top (each
    generator acting in every coordinate at once), the top generators,
    and the wreath's decomposition."""
    wreath = product_action_wreath(K, ell, top)
    gens = wreath.group.generators
    k = len(K.generators)
    diagonal = []
    for i in range(k):
        g = gens[i]
        for j in range(1, ell):
            g = g * gens[j * k + i]
        diagonal.append(g)
    return diagonal, gens[ell * k:], wreath.decomposition


def test_classify_inclusion_intransitive_top_for_a5_squared():
    # the base group A5 x A5 keeps both partitions: its top is trivial
    base = product_action_wreath(PermGroup.alternating(5), 2, PermGroup.trivial(2))
    verdict = classify_inclusion(base.group, base.group, base.decomposition)
    assert (verdict.tag, verdict.s) == ("IntransitiveTop", 0)


def test_classify_inclusion_cd3_for_the_diagonal_a5_on_three_coordinates():
    diagonal, tops, E = _diagonal_wreath(
        PermGroup.alternating(5), 3, PermGroup.symmetric(3)
    )
    M = PermGroup(diagonal, degree=125)
    G = PermGroup(diagonal + tops, degree=125)
    assert (M.order(), G.order()) == (60, 360)
    verdict = classify_inclusion(G, M, E)
    assert (verdict.tag, verdict.s) == ("CD3", 3)
    assert verdict.details["moved_partitions"] == [[0, 1, 2]]


def test_classify_inclusion_cd1s_for_a_diagonal_fixing_a_block():
    # A5 on points 1..5 fixes point 0, so each component's block
    # stabilizer is the whole component
    K = PermGroup(
        [Permutation.from_cycles(6, [c]) for c in [(1, 2, 3, 4, 5), (1, 2, 3)]]
    )
    diagonal, tops, E = _diagonal_wreath(K, 2, PermGroup.symmetric(2))
    M = PermGroup(diagonal, degree=36)
    G = PermGroup(diagonal + tops, degree=36)
    verdict = classify_inclusion(G, M, E)
    assert (verdict.tag, verdict.s) == ("CD1S", 2)
    assert verdict.projection_orders == (60, 60)


def _reference_component(G, E, j):
    """The routine component replaced: Schreier generators of the
    stabilizer of partition j in G's top action, lifted to G through a
    Schreier tree, read on the blocks of j, in an unbounded chain."""
    top = top_projection(G, E)
    order = top.orbit(j)
    n = G.degree
    lift = {p: _schreier_path_images(order, p, G.generators, n) for p in order}
    lab = E.partitions[j]
    first = np.unique(lab, return_index=True)[1]
    gens = []
    for p in order:
        for t, g in zip(top.generators, G.generators):
            s = np.argsort(lift[int(t.images[p])])[g.images[lift[p]]]
            gens.append(Permutation(lab[s[first]]))
    return PermGroup(gens, degree=len(first))


def _a6_plinth_grid():
    G, M = a6_setup()
    return M, find_grid_decompositions(G, M, suborbit_frame(G))[0]


def _w4_plinth_grid():
    run = _Run("stages", 1)
    return run.shared(_w_class_action, 4).socle_group, run.shared(_w_grid, 4)[0][0]


def _a5_wr_2_base_grid():
    base = product_action_wreath(PermGroup.alternating(5), 2, PermGroup.trivial(2))
    return base.group, base.decomposition


COMPONENT_CASES = {
    "A6": _a6_plinth_grid,
    "W(4)": _w4_plinth_grid,
    "A5 wr S2 base": _a5_wr_2_base_grid,
}


@pytest.mark.parametrize("name", sorted(COMPONENT_CASES))
def test_component_matches_the_schreier_lift(name):
    # a plinth that keeps every partition: its component on the blocks
    # of j is the group the stabilizer's Schreier generators give
    M, E = COMPONENT_CASES[name]()
    assert top_projection(M, E).order() == 1
    for j in range(E.arity):
        got = component(M, E, j)
        assert got.degree == E.block_counts[j]
        assert same_subgroup(got, _reference_component(M, E, j)), j


def test_blowup_embedding_certificate():
    W, M, factors, E = _a5_wr_2_setup()
    cert = blowup_embedding(W, factors)
    # the four base generators fix both partitions; the top one swaps them
    assert cert["top_images"] == [[0, 1]] * 4 + [[1, 0]]
    assert cert["xi_size"] == 5


def test_a6_stabilizer_dihedral_order_10():
    _, M = a6_setup()
    stab = point_stabilizer(M, 0)
    assert stab.order() == 10
    dih = dihedral_subgroup(stab, 10)
    assert dih is not None and dih.order() == 10


@pytest.mark.parametrize("order", [4, 20])
def test_dihedral_subgroup_search_that_finds_none_returns_none(order):
    # D10 has no Klein four-group and no element of order 10
    _, M = a6_setup()
    assert dihedral_subgroup(point_stabilizer(M, 0), order) is None


def test_dihedral_subgroup_of_odd_order_is_a_failed_construction():
    _, M = a6_setup()
    with pytest.raises(ConstructionFailed, match="odd order 5"):
        dihedral_subgroup(point_stabilizer(M, 0), 5)


def test_dihedral_subgroup_of_order_0_is_out_of_range():
    with pytest.raises(OutOfRange):
        dihedral_subgroup(PermGroup.symmetric(4), 0)


# ---------------------------------------------------------------------------
# factorizations


def test_verify_generic_even_row():
    meet = verify_psl2_factorization_row(psl2_action(4), ("P1", 12, "D10", 10, 2, "x"))
    assert meet == 2


def test_verify_generic_odd_row():
    meet = verify_psl2_factorization_row(psl2_action(7), ("P1", 21, "D8", 8, 1, "x"))
    assert meet == 1


def test_verify_exceptional_q9_rows():
    for row, meet in [
        (("S4", 24, "A5", 60, 4, "x"), 4),
        (("P1", 36, "A5", 60, 6, "x"), 6),
        (("A5", 60, "A5", 60, 10, "x"), 10),
    ]:
        assert verify_psl2_factorization_row(psl2_action(9), row) == meet


def test_row_with_wrong_meet_fails():
    from plinth.errors import PlinthError

    with pytest.raises(PlinthError):
        verify_psl2_factorization_row(psl2_action(4), ("P1", 12, "D10", 10, 5, "x"))


@pytest.mark.parametrize(
    "row",
    [
        ("P1", 12, "D10", 10, 0, "x"),
        ("P1", 0, "D10", 10, 2, "x"),
        ("P1", 12, "D10", -10, 2, "x"),
    ],
)
def test_row_with_an_order_below_1_raises_parse_error(row):
    # the loader's rule: a meet of 0 once raised ZeroDivisionError
    with pytest.raises(ParseError, match="below 1"):
        verify_psl2_factorization_row(psl2_action(4), row)


def _row_intersections(monkeypatch, T, row):
    """The row check's meet order and its (A, B, meet order) per call of
    ``intersection_small``, in order."""
    import plinth.cartesian as cartesian

    calls = []

    def spy(a, b):
        meet = intersection_small(a, b)
        calls.append((a, b, meet.order()))
        return meet

    monkeypatch.setattr(cartesian, "intersection_small", spy)
    return verify_psl2_factorization_row(T, row), calls


def _shipped_rows():
    rows = load_factorization_table(data_path("psl2_factorizations.txt"))
    groups = {q: psl2_action(q) for q in {q for q, _ in rows}}
    return [(groups[q], row) for q, row in rows]


def test_each_shipped_row_needs_at_most_two_intersections(monkeypatch):
    # the classes of A and B decide T = AB, and PGL's x -> nu x swaps the
    # two PSL classes of a label that has two: only q = 9 A5 * A5, whose
    # search builds A = B, is decided by B^t
    for T, row in _shipped_rows():
        meet, calls = _row_intersections(monkeypatch, T, row)
        assert meet == row[4], row
        assert 1 <= len(calls) <= 2, row
        assert calls[-1][2] == meet
        if (T.degree - 1, row[0], row[2]) == (9, "A5", "A5"):
            (A, B, first), (_, B_t, _) = calls
            assert first == 60 and same_subgroup(A, B)
            t = psl2_action(9, "PGL").generators[-1]
            assert B_t.generators == [g.conjugate(t) for g in B.generators]
        else:
            assert len(calls) == 1, row


def test_false_row_gives_its_meet_after_two_intersections(monkeypatch):
    # 36 * 10 / 1 = 360 = |PSL(2,9)|, but Lemma 6.1(2)'s P1 * D_(q+1)
    # needs q not 1 mod 4: P1 meets either class of D10 in order 2
    row = ("P1", 36, "D10", 10, 1, "x")
    meet, calls = _row_intersections(monkeypatch, psl2_action(9), row)
    assert meet == 2
    assert [order for _, _, order in calls] == [2, 2]


def _closure(group):
    """Every element of a group as rows of images, by closing the
    generators under composition (no chain)."""
    n = group.degree
    gens = np.array([g.images for g in group.generators], dtype=np.int64)
    seen = {bytes(np.arange(n, dtype=np.int64))}
    elements = frontier = np.arange(n, dtype=np.int64)[None, :]
    while len(frontier):
        images = gens[:, frontier].reshape(-1, n)  # x -> g(f(x))
        fresh = {}
        for row in images:
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                fresh[key] = row
        frontier = np.array(list(fresh.values()), dtype=np.int64).reshape(-1, n)
        elements = np.concatenate([elements, frontier])
    return elements


def test_deciding_pairs_factorize_by_brute_force(monkeypatch):
    # an oracle for T = AB: compose all |A||B| pairs of the pair that
    # decided each row and count the distinct products; no chain and no
    # intersection_small.  The largest is q = 59: 1,711 * 60 products
    for T, row in _shipped_rows():
        q = T.degree - 1
        _, calls = _row_intersections(monkeypatch, T, row)
        A, B, _ = calls[-1]
        a, b = _closure(A).astype(np.uint8), _closure(B).astype(np.uint8)
        assert (len(a), len(b)) == (row[1], row[3]), row
        products = b[:, a].reshape(-1, q + 1)  # x -> b(a(x))
        distinct = np.unique(products.view(f"V{q + 1}"))
        assert len(distinct) == q * (q * q - 1) // (2 if q % 2 else 1), row


def test_parabolic_order():
    assert parabolic_order(4) == 12
    assert parabolic_order(9) == 36
    assert parabolic_order(59) == 1711


def test_shipped_tables_load_and_cross_check():
    rows = load_factorization_table(data_path("psl2_factorizations.txt"))
    assert len(rows) == 15
    meets = [row[4] for q, row in rows if "Table 3" in row[5]]
    assert meets == [2, 3, 4, 6, 10, 5, 3, 1, 2, 1]
    examples = load_examples_table(data_path("liseress_examples.txt"))
    assert len(examples) == 5
    ok, collisions = cross_check_examples(examples, rows)
    assert ok, collisions


def test_cross_check_reports_each_row_whose_meet_an_example_order_hits():
    rows = load_factorization_table(data_path("psl2_factorizations.txt"))
    ok, collisions = cross_check_examples([("X1", "any", "A4", "2", "x")], rows)
    assert ok is False
    assert collisions == [
        {"example": "X1", "q": q, "order": 2, "row": ("P1", label, 2)}
        for q, label in [(4, "D10"), (8, "D18"), (16, "D34"), (5, "A4"), (29, "A5")]
    ]


_FACTORIZATION_ROW = "4 | P1 | 12 | D10 | 10 | 2 | Table 3 row"
_EXAMPLE_ROW = "ex | prime+-1mod5 | D5 | 10 | Table 4 row"


@pytest.mark.parametrize(
    "text,line",
    [
        ("# head\n" + _FACTORIZATION_ROW.replace("| 2 |", "| 1_0 |"), 2),
        (_FACTORIZATION_ROW.replace("4 |", "+4 |"), 1),
        (_FACTORIZATION_ROW.replace("| 12 |", "| \u0661\u0662 |"), 1),
        (_FACTORIZATION_ROW + "\n4 | P1 | 12", 2),
        # q must be a prime power with 4 <= q and q^2 <= ENUMERATION_BOUND
        (_FACTORIZATION_ROW.replace("4 |", "100000000000031 |", 1), 1),
        ("#\n" + _FACTORIZATION_ROW.replace("4 |", "3 |", 1), 2),
        (_FACTORIZATION_ROW.replace("4 |", "6 |", 1), 1),
        (_FACTORIZATION_ROW.replace("4 |", "1024 |", 1), 1),
        # a prime power with no primitive polynomial on file
        ("#\n\n" + _FACTORIZATION_ROW.replace("4 |", "121 |", 1), 3),
        # an order field below 1 (a zero meet divided by zero in the row check)
        (_FACTORIZATION_ROW.replace("| 2 |", "| 0 |"), 1),
        (_FACTORIZATION_ROW.replace("| 12 |", "| 0 |"), 1),
        ("#\n" + _FACTORIZATION_ROW.replace("| 10 |", "| 0 |"), 2),
    ],
)
def test_factorization_table_rejects_bad_rows(tmp_path, text, line):
    path = tmp_path / "t.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_factorization_table(str(path))
    assert info.value.line == line


@pytest.mark.parametrize(
    "text,line",
    [
        (_EXAMPLE_ROW.replace("| 10 |", "| \u0663 |"), 1),
        ("\n" + _EXAMPLE_ROW.replace("mod5", "modx"), 2),
        (_EXAMPLE_ROW.replace("mod5", "mod0"), 1),
        (_EXAMPLE_ROW.replace("prime+-1mod5", "odd"), 1),
    ],
)
def test_examples_table_rejects_bad_rows(tmp_path, text, line):
    path = tmp_path / "t.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_examples_table(str(path))
    assert info.value.line == line


def test_cross_check_rejects_bad_hand_built_rows():
    rows = [(5, ("P1", 12, "D10", 10, 2, "x"))]
    for example in [
        ("ex", "prime+-1modx", "D5", "10", "x"),
        ("ex", "any", "S3", "\u0663", "x"),
    ]:
        with pytest.raises(ParseError):
            cross_check_examples([example], rows)


@pytest.mark.parametrize("q", [100000000000031, 3, 6, 1024, 121])
def test_cross_check_applies_the_loader_q_rule(monkeypatch, q):
    # the bound is checked before q is factorised, so a huge q is
    # rejected at once; the rule is algebra.check_field_order's
    import plinth.algebra as algebra_module

    real = algebra_module._factorize

    def bounded_factorize(n):
        assert n * n <= ENUMERATION_BOUND, f"factorised {n}"
        return real(n)

    monkeypatch.setattr(algebra_module, "_factorize", bounded_factorize)
    rows = [(q, ("P1", 12, "D10", 10, 2, "x"))]
    with pytest.raises(ParseError):
        cross_check_examples([("ex", "prime+-1mod5", "D5", "10", "x")], rows)


@pytest.mark.parametrize("loader", [load_factorization_table, load_examples_table])
def test_tables_reject_unreadable_files(tmp_path, loader):
    with pytest.raises(IoError):
        loader(str(tmp_path / "missing.txt"))
    with pytest.raises(IoError):
        loader(str(tmp_path))
    path = tmp_path / "t.txt"
    path.write_bytes(b"# table\n\xff\n")
    with pytest.raises(ParseError) as info:
        loader(str(path))
    assert info.value.line == 2


_TABLE_FRAGMENTS = st.sampled_from(
    ["|", " ", "\n", "#", "any", "prime+-1mod", "parabolic", "P1", "0", "4",
     "12", "1_0", "+", "-", "\u0663", "x", "\r"]
)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=96),
        st.text(max_size=96).map(lambda s: s.encode("utf-8")),
        st.lists(_TABLE_FRAGMENTS, max_size=40).map(
            lambda parts: "".join(parts).encode("utf-8")
        ),
    )
)
def test_arbitrary_table_input_raises_only_plinth_errors(data):
    rows = load_factorization_table(data_path("psl2_factorizations.txt"))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            load_factorization_table(path)
        except PlinthError:
            pass
        try:
            examples = load_examples_table(path)
        except PlinthError:
            examples = None
        if examples is not None:
            cross_check_examples(examples, rows)


def strong_factorization_check(T, subgroups):
    """Whether A_1, ..., A_s form a strong multiple factorization of T.

    For every r the product condition A_r * (meet of the others) = T is
    evaluated by order arithmetic on computed intersections.
    """
    t_order = T.order()
    detail = {"T_order": t_order, "conditions": []}
    ok = True
    for r, a in enumerate(subgroups):
        rest = [g for i, g in enumerate(subgroups) if i != r]
        meet = rest[0]
        for other in rest[1:]:
            meet = intersection_small(meet, other)
        inner = intersection_small(a, meet)
        holds = a.order() * meet.order() == t_order * inner.order()
        detail["conditions"].append(
            {
                "r": r,
                "A_r_order": a.order(),
                "rest_meet_order": meet.order(),
                "inner_meet_order": inner.order(),
                "holds": holds,
            }
        )
        ok = ok and holds
    return ok, detail


def test_a_cyclic_label_is_unknown():
    # the table defines P1, D<n>, A4, S4 and A5 only: PSL(2,7) = C7 S4
    # holds, but its row names an unknown label
    from plinth.cartesian import _build_labeled_subgroup

    T = psl2_action(7)
    with pytest.raises(ParseError, match="C4"):
        _build_labeled_subgroup(T, "C4", 4)
    with pytest.raises(ParseError, match="C7"):
        verify_psl2_factorization_row(T, ("C7", 7, "S4", 24, 1, "x"))


def test_strong_factorization_check_positive():
    # PSL(2,4) = A5 = P1 * D10 with trivial-ish meet: A * B = G
    T = psl2_action(4)
    from plinth.cartesian import _build_labeled_subgroup

    A = _build_labeled_subgroup(T, "P1", 12)
    B = _build_labeled_subgroup(T, "D10", 10)
    ok, detail = strong_factorization_check(T, [A, B])
    assert ok, detail
    # |A|^2 = 144 < 60 |A|: a subgroup does not factorize T with itself
    ok, detail = strong_factorization_check(T, [A, A])
    assert not ok
    assert not any(c["holds"] for c in detail["conditions"])
