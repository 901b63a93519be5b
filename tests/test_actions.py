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
from plinth.errors import Mismatch, NotInvariant
from plinth.perm import (
    PermGroup,
    Permutation,
    element_of_order,
    point_stabilizer,
    random_subgroup_of_order,
)


def test_coset_action_regular():
    G = PermGroup.symmetric(4)
    act = coset_action(G, PermGroup.trivial(4))
    assert act.group.degree == 24
    assert act.group.order() == 24


def test_coset_action_of_non_subgroup_raises_mismatch():
    # <(1,2)> is not in A4: the scan finds 12 cosets where the index
    # claims 12 / 2 = 6, an invariant failure rather than a crash
    with pytest.raises(Mismatch):
        H = PermGroup([Permutation.from_cycles(4, [(0, 1)])], degree=4)
        coset_action(PermGroup.alternating(4), H)


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


def _reference_class_action(G, socle, p, seed=1):
    """The class action as a queue BFS keyed by the minimal image bytes
    over all nontrivial powers: (reps, action generators)."""

    def key_of(arr):
        best = power = arr
        for _ in range(p - 2):
            power = arr[power]
            if power.tobytes() < best.tobytes():
                best = power
        return best.tobytes()

    z = element_of_order(socle, p, seed=seed)
    reps = [z.images]
    key_index = {key_of(z.images): 0}
    cursor = 0
    while cursor < len(reps):
        w = reps[cursor]
        cursor += 1
        for g in socle.generators:
            conj = g.images[w[g.inverse().images]]
            if key_of(conj) not in key_index:
                key_index[key_of(conj)] = len(reps)
                reps.append(conj)

    def action_of(g):
        ginv = g.inverse().images
        return [key_index[key_of(g.images[w[ginv]])] for w in reps]

    return reps, [action_of(g) for g in G.generators]


CLASS_ACTION_CASES = [
    (9, "PGammaL", 5),
    (9, "PSL", 5),
    (7, "PSL", 7),
    (7, "PGL", 7),
    (8, "PSL", 7),
    (8, "PGammaL", 7),
    (11, "PSL", 11),
    (11, "PGL", 11),
]


@pytest.mark.parametrize("q,flavor,p", CLASS_ACTION_CASES)
def test_cyclic_class_action_matches_queue_reference(q, flavor, p):
    G, socle = psl2_action(q, flavor), psl2_action(q, "PSL")
    act = cyclic_class_action(G, socle, p)
    reps, gens = _reference_class_action(G, socle, p)
    assert act.reps.dtype == np.int32
    assert np.array_equal(act.reps, np.array(reps))
    assert [g.images.tolist() for g in act.group.generators] == gens


@pytest.mark.parametrize("q,flavor,p", CLASS_ACTION_CASES[::2])
@pytest.mark.parametrize("k", [2, 3])
def test_cyclic_class_action_labels_independent_of_class_generator(
    monkeypatch, q, flavor, p, k
):
    # starting from z^k must give the same labels: the key is canonical
    G, socle = psl2_action(q, flavor), psl2_action(q, "PSL")
    act = cyclic_class_action(G, socle, p)
    monkeypatch.setattr(
        "plinth.actions.element_of_order",
        lambda *args, **kwargs: element_of_order(*args, **kwargs) ** k,
    )
    powered = cyclic_class_action(G, socle, p)
    assert powered.group.generators == act.group.generators
    for row, base_row in zip(powered.reps, act.reps):
        assert (Permutation(base_row) ** k).images.tolist() == row.tolist()


def test_class_action_of_non_normalising_element_raises():
    PSL = psl2_action(9, "PSL")
    act = cyclic_class_action(PSL, PSL, 5)
    with pytest.raises(NotInvariant):
        act.action_of(Permutation.from_cycles(10, [(0, 1)]))


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
