"""Group orders the chain computes without a claimed bound, against sympy."""

import pytest

pytest.importorskip("sympy")

from sympy.combinatorics import Permutation as SympyPermutation  # noqa: E402
from sympy.combinatorics import PermutationGroup as SympyGroup  # noqa: E402

from plinth.algebra import psl2_action, symplectic_gq  # noqa: E402
from plinth.autgq import graph_automorphism_group, incidence_graph  # noqa: E402
from plinth.perm import PermGroup  # noqa: E402


def sympy_order(group):
    gens = [SympyPermutation(g.images.tolist()) for g in group.generators]
    return SympyGroup(gens).order() if gens else 1


def psl2_flavor_cases():
    """Every flavor that exists for q in {4, 5, 7, 8, 9}."""
    for q in (4, 5, 7, 8, 9):
        flavors = ["PSL", "PGL"]
        if q in (4, 8, 9):
            flavors += ["PSigmaL", "PGammaL"]
        if q == 9:
            flavors.append("M10")
        for flavor in flavors:
            yield pytest.param(q, flavor, id=f"{flavor}(2,{q})")


@pytest.mark.parametrize("q,flavor", psl2_flavor_cases())
def test_psl2_flavor_order_matches_sympy(q, flavor):
    G = psl2_action(q, flavor)
    assert G.order() == sympy_order(G)


@pytest.mark.parametrize("n", range(1, 8))
def test_symmetric_and_alternating_orders_match_sympy(n):
    for G in (PermGroup.symmetric(n), PermGroup.alternating(n)):
        assert G.order() == sympy_order(G)


@pytest.mark.parametrize("q,degree", [(2, 30), (4, 170)])
def test_gq_incidence_automorphism_order_matches_sympy(q, degree):
    aut = graph_automorphism_group(incidence_graph(symplectic_gq(q)))
    assert aut.degree == degree
    assert aut.order() == sympy_order(aut)
