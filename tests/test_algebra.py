"""Tests for finite fields, PSL(2,q) actions, and the symplectic geometry."""

import pytest
from hypothesis import given, settings, strategies as st

from plinth.algebra import (
    Field,
    identify_extension_flavor,
    preserves_form,
    projective_points,
    psl2_action,
    sp4,
    symplectic_gq,
)
from plinth.perm import PermGroup, is_k_transitive


FIELD_SIZES = [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32]


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_field_axioms(q):
    F = Field(q)
    elems = list(F.elements())
    assert len(elems) == q
    sample = elems if q <= 9 else elems[:6] + elems[-3:]
    for a in sample:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
    for a in sample:
        for b in sample:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in sample[:4]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_frobenius_is_field_automorphism(q):
    F = Field(q)
    for a in F.elements():
        for b in F.elements():
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
            assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))


def test_field_rejects_non_prime_power():
    with pytest.raises(ValueError):
        Field(6)


PSL2_ORDERS = {
    4: 60,
    5: 60,
    7: 168,
    8: 504,
    9: 360,
    11: 660,
    13: 1092,
}


@pytest.mark.parametrize("q,order", sorted(PSL2_ORDERS.items()))
def test_psl2_orders_and_transitivity(q, order):
    G = psl2_action(q)
    assert G.degree == q + 1
    assert G.order() == order
    assert is_k_transitive(G, list(range(q + 1)), 2)


def test_psl2_sharply_3_transitive_when_pgl():
    # PGL(2,q) is sharply 3-transitive on the projective line
    G = psl2_action(5, "PGL")
    assert G.order() == 120
    assert is_k_transitive(G, list(range(6)), 3)


FLAVOR_ORDERS = {
    "PSL": 360,
    "PGL": 720,
    "PSigmaL": 720,
    "M10": 720,
    "PGammaL": 1440,
}


@pytest.mark.parametrize("flavor", sorted(FLAVOR_ORDERS))
def test_q9_flavor_orders(flavor):
    G = psl2_action(9, flavor)
    assert G.degree == 10
    assert G.order() == FLAVOR_ORDERS[flavor]


@pytest.mark.parametrize("flavor", sorted(FLAVOR_ORDERS))
def test_identify_extension_flavor(flavor):
    G = psl2_action(9, flavor)
    assert identify_extension_flavor(G) == flavor


def test_identify_extension_flavor_needs_the_projective_line():
    from plinth.errors import Unrecognized

    # S6 has order 720 but acts on 6 points, not the 10 points of PG(1,9)
    with pytest.raises(Unrecognized):
        identify_extension_flavor(PermGroup.symmetric(6))


def test_flavor_identification_invariant_under_relabeling():
    import numpy as np
    from plinth.perm import Permutation

    rng = np.random.default_rng(5)
    for flavor in FLAVOR_ORDERS:
        G = psl2_action(9, flavor)
        relabel = rng.permutation(10)
        inv = np.argsort(relabel)
        gens = [
            Permutation(relabel[g.images[inv]], _checked=True)
            for g in G.generators
        ]
        H = PermGroup(gens, degree=10)
        assert identify_extension_flavor(H) == flavor


def test_sp4_order_and_form_preservation():
    ma = sp4(2)
    assert ma.group.order() == 720
    for m in ma.matrices:
        assert preserves_form(ma.field, m)
    ma4 = sp4(4)
    assert ma4.group.order() == 979200
    assert ma4.group.degree == 85


def test_projective_points_count():
    F = Field(4)
    assert len(projective_points(F)) == (4**4 - 1) // (4 - 1)


@pytest.mark.parametrize("q,lines_per_point", [(2, 3), (4, 5)])
def test_symplectic_gq_axioms(q, lines_per_point):
    geom = symplectic_gq(q)
    n_points = (q**4 - 1) // (q - 1)
    assert geom.num_points == n_points
    assert len(geom.lines) == n_points
    # GQ(q,q): every line has q+1 points, every point is on q+1 lines
    assert all(len(line) == q + 1 for line in geom.lines)
    assert all(len(ls) == lines_per_point for ls in geom.point_lines)
    # two distinct lines meet in at most one point
    for i in range(0, len(geom.lines), 7):
        for j in range(i + 1, len(geom.lines), 11):
            assert len(set(geom.lines[i]) & set(geom.lines[j])) <= 1
