"""Tests for coset actions, class actions, and product actions."""

import numpy as np
import pytest
from random import Random

from plinth.actions import (
    component,
    coset_action,
    cyclic_class_action,
    product_action_wreath,
    top_projection,
)
from plinth.algebra import psl2_action
from plinth.cartesian import CartesianDecomposition
from plinth.perm import (
    PermGroup,
    Permutation,
    point_stabilizer,
    random_subgroup_of_order,
)


def test_coset_action_regular():
    G = PermGroup.symmetric(4)
    act = coset_action(G, PermGroup.trivial(4))
    assert act.group.degree == 24
    assert act.group.order() == 24


def test_coset_action_natural():
    G = PermGroup.symmetric(5)
    H = point_stabilizer(G, 0)
    act = coset_action(G, H)
    assert act.group.degree == 5
    assert act.group.order() == 120
    assert act.group.is_transitive()


def test_coset_action_is_homomorphism():
    from plinth.actions import _canonical_coset_images

    G = PermGroup.alternating(5)
    H = random_subgroup_of_order(G, 12, seed=1)
    act = coset_action(G, H)
    assert act.group.degree == 5
    chain_H = H.chain()
    key_index = {arr.tobytes(): i for i, arr in enumerate(act.reps)}

    def image_of(g):
        imgs = [
            key_index[_canonical_coset_images(chain_H, g.images[arr]).tobytes()]
            for arr in act.reps
        ]
        return Permutation(np.array(imgs, dtype=np.int64), _checked=True)

    rng = Random(2)
    chain = G.chain()
    for _ in range(20):
        g = chain.random_element(rng)
        h = chain.random_element(rng)
        assert image_of(g * h) == image_of(g) * image_of(h)


def test_cyclic_class_action_a6():
    PGammaL = psl2_action(9, "PGammaL")
    PSL = psl2_action(9, "PSL")
    act = cyclic_class_action(PGammaL, PSL, 5)
    assert act.group.degree == 36
    assert act.group.order() == 1440
    assert act.group.is_transitive()


def test_cyclic_class_action_is_homomorphism():
    PGammaL = psl2_action(9, "PGammaL")
    PSL = psl2_action(9, "PSL")
    act = cyclic_class_action(PGammaL, PSL, 5)
    rng = Random(3)
    chain = PGammaL.chain()
    for _ in range(10):
        g = chain.random_element(rng)
        h = chain.random_element(rng)
        assert act.action_of(g * h) == act.action_of(g) * act.action_of(h)


def test_cyclic_class_action_labels_independent_of_generators():
    # conjugating the acting group's generators must not change orbit shape
    PSL = psl2_action(9, "PSL")
    act = cyclic_class_action(PSL, PSL, 5)
    assert act.group.degree == 36
    assert act.group.order() == 360


def test_product_action_wreath_degree_and_order():
    K = PermGroup.symmetric(3)
    wreath = product_action_wreath(K, 2, PermGroup.symmetric(2))
    W = wreath.group
    assert W.degree == 9
    assert W.order() == 6 * 6 * 2
    assert W.is_transitive()


def test_product_action_codec_round_trip():
    K = PermGroup.symmetric(4)
    wreath = product_action_wreath(K, 2, PermGroup.symmetric(2))
    for p in range(16):
        assert wreath.encode(wreath.decode(p)) == p


def test_product_action_base_acts_coordinatewise():
    K = PermGroup.symmetric(3)
    wreath = product_action_wreath(K, 2, PermGroup.trivial(2))
    W = wreath.group
    # the base group fixes both coordinate partitions
    E = wreath.decomposition
    assert isinstance(E, CartesianDecomposition)
    for g in W.generators:
        for lab in E.partitions:
            moved = lab[g.images]
            # blocks map to blocks: the label array composed with g is a
            # relabeling of lab
            seen = {}
            for a, b in zip(lab.tolist(), moved.tolist()):
                assert seen.setdefault(a, b) == b


def test_top_projection_and_component():
    K = PermGroup.symmetric(3)
    wreath = product_action_wreath(K, 2, PermGroup.symmetric(2))
    W = wreath.group
    E = wreath.decomposition
    top = top_projection(W, E)
    assert top.order() == 2
    comp = component(W, E, 0)
    assert comp.order() == 6


def test_top_projection_trivial_when_top_trivial():
    K = PermGroup.symmetric(3)
    wreath = product_action_wreath(K, 2, PermGroup.trivial(2))
    top = top_projection(wreath.group, wreath.decomposition)
    assert top.order() == 1
