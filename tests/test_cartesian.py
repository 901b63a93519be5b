"""Tests for grid decompositions, inclusion classification, factorizations."""

import itertools

import numpy as np
import pytest
from random import Random

from plinth.actions import cyclic_class_action, product_action_wreath
from plinth.algebra import psl2_action
from plinth.cartesian import (
    CartesianDecomposition,
    blowup_embedding,
    classify_inclusion,
    cross_check_examples,
    dihedral_subgroup,
    find_grid_decompositions,
    index2_subgroups,
    load_examples_table,
    load_factorization_table,
    parabolic_order,
    strong_factorization_check,
    verify_psl2_factorization_row,
)
from plinth.cli import data_path
from plinth.perm import (
    PermGroup,
    Permutation,
    point_stabilizer,
    same_subgroup,
)


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
    with pytest.raises(ValueError):
        CartesianDecomposition([a, a])


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
    got = index2_subgroups(G)
    want = brute_index2(G)
    assert len(got) == len(want)
    want_keys = set(want)
    for K in got:
        assert K.order() * 2 == G.order()
        key = frozenset(g.tobytes() for g in K.elements())
        assert key in want_keys


def test_index2_subgroups_distinct():
    V4 = PermGroup(
        [
            Permutation.from_cycles(4, [(0, 1)]),
            Permutation.from_cycles(4, [(2, 3)]),
        ],
        degree=4,
    )
    subs = index2_subgroups(V4)
    assert len(subs) == 3
    for a, b in itertools.combinations(subs, 2):
        assert not same_subgroup(a, b)


def test_index2_subgroups_odd_order():
    assert index2_subgroups(PermGroup.cyclic(5)) == []
    assert index2_subgroups(PermGroup.alternating(5)) == []


# ---------------------------------------------------------------------------
# grid discovery and classification


def a6_setup():
    PGammaL = psl2_action(9, "PGammaL")
    PSL = psl2_action(9, "PSL")
    act = cyclic_class_action(PGammaL, PSL, 5)
    G = act.group
    M = PermGroup(
        [act.action_of(g) for g in PSL.generators],
        degree=36,
        claimed_order=360,
    )
    return G, M


def test_find_grid_decompositions_a6():
    G, M = a6_setup()
    grids = find_grid_decompositions(G)
    assert len(grids) == 1
    assert grids[0].block_counts == [6, 6]


def test_classify_inclusion_a6_cd2sim():
    G, M = a6_setup()
    grids = find_grid_decompositions(G)
    verdict = classify_inclusion(G, M, grids[0])
    assert verdict.tag == "CD2Sim"
    assert list(verdict.projection_orders) == [60, 60]
    assert verdict.s <= 3


def _a5_wr_2_setup():
    A5 = PermGroup.alternating(5)
    wreath = product_action_wreath(A5, 2, PermGroup.symmetric(2))
    W = wreath.group
    n = W.degree
    factor_gens = []
    for j in range(2):
        gens = []
        for g in A5.generators:
            images = np.arange(n, dtype=np.int64)
            for p in range(n):
                tup = list(wreath.decode(p))
                tup[j] = int(g.images[tup[j]])
                images[p] = wreath.encode(tup)
            gens.append(Permutation(images, _checked=True))
        factor_gens.append(gens)
    factors = [PermGroup(gens, degree=n) for gens in factor_gens]
    M = PermGroup(factor_gens[0] + factor_gens[1], degree=n, claimed_order=3600)
    return W, M, factors, wreath.decomposition


def test_classify_inclusion_normal_for_a5_wr_2():
    W, M, factors, E = _a5_wr_2_setup()
    verdict = classify_inclusion(W, M, E, omega=0, factors=factors)
    assert verdict.tag == "Normal"
    assert verdict.details.get("stabilizer_product_formula_holds") is True
    assert verdict.s == 1


def test_blowup_embedding_certificate():
    W, M, factors, E = _a5_wr_2_setup()
    action, cert = blowup_embedding(W, factors, omega=0)
    # the four base generators fix both partitions; the top one swaps them
    assert cert["top_images"] == [[0, 1]] * 4 + [[1, 0]]
    assert cert["xi_size"] == 5


def test_a6_stabilizer_dihedral_order_10():
    _, M = a6_setup()
    stab = point_stabilizer(M, 0)
    assert stab.order() == 10
    dih = dihedral_subgroup(stab.group, 10, seed=1)
    assert dih is not None and dih.order() == 10


# ---------------------------------------------------------------------------
# factorizations


def test_verify_generic_even_row():
    rec = verify_psl2_factorization_row(
        4, ("P1", 12, "D10", 10, 2, "x"), seed=1
    )
    assert rec.verified and rec.meet_order == 2


def test_verify_generic_odd_row():
    rec = verify_psl2_factorization_row(
        7, ("P1", 21, "D8", 8, 1, "x"), seed=1
    )
    assert rec.verified and rec.meet_order == 1


def test_verify_exceptional_q9_rows():
    for row, meet in [
        (("S4", 24, "A5", 60, 4, "x"), 4),
        (("P1", 36, "A5", 60, 6, "x"), 6),
        (("A5", 60, "A5", 60, 10, "x"), 10),
    ]:
        rec = verify_psl2_factorization_row(9, row, seed=1)
        assert rec.verified and rec.meet_order == meet


def test_row_with_wrong_meet_fails():
    from plinth.errors import PlinthError

    with pytest.raises(PlinthError):
        verify_psl2_factorization_row(
            4, ("P1", 12, "D10", 10, 5, "x"), seed=1, max_attempts=6
        )


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


def test_strong_factorization_check_positive():
    # PSL(2,4) = A5 = P1 * D10 with trivial-ish meet: A * B = G
    T = psl2_action(4)
    from plinth.cartesian import _build_labeled_subgroup

    A = _build_labeled_subgroup(T, "P1", 12, seed=1)
    B = _build_labeled_subgroup(T, "D10", 10, seed=1)
    assert strong_factorization_check(T, [A, B])
