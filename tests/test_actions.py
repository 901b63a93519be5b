"""Tests for coset actions, class actions, and product actions."""

import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from random import Random
from types import SimpleNamespace

from plinth.actions import (
    _canonical_coset_images,
    _canonical_step,
    _enumerate_orbit,
    _keyed,
    _meets_each_once,
    _normalize_labels,
    component,
    coset_action,
    cyclic_class_action,
    order_over,
    ovoid_spread_action,
    product_action_wreath,
    top_projection,
)
from plinth.algebra import (
    extend_to_lines,
    gq_automorphism_group,
    psl2_action,
    sp4,
    symplectic_gq,
)
from plinth.cartesian import CartesianDecomposition
from plinth.cli import (
    _Run,
    _w_aut,
    _w_aut_gens,
    _w_class_action,
    _w_socle,
    _w_sp4_image,
    data_path,
    parse_generators,
)
from plinth.graphs import suborbits
from plinth.errors import (
    ConstructionFailed,
    DegreeMismatch,
    Mismatch,
    NotCartesian,
    NotDecompositionPreserving,
    NotInvariant,
    OutOfRange,
)
from plinth.perm import (
    PermGroup,
    Permutation,
    derived_subgroup,
    element_of_order,
    point_stabilizer,
    random_subgroup_of_order,
)
from test_graphs import petersen


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


def test_coset_action_checks_the_subgroup_before_enumerating(monkeypatch):
    # <(0 1), (0 1 2 3 4 5)> is S6 on six of M12's points, not in M12:
    # a scan would find 95,040 rows before the coset count disagreed
    def refuse(*args, **kwargs):
        raise AssertionError("cosets of a non-subgroup were enumerated")

    H = PermGroup(
        [
            Permutation.from_cycles(12, [(0, 1)]),
            Permutation.from_cycles(12, [(0, 1, 2, 3, 4, 5)]),
        ],
        degree=12,
    )
    monkeypatch.setattr("plinth.actions._enumerate_orbit", refuse)
    with pytest.raises(Mismatch, match="not a subgroup"):
        coset_action(_m12(), H)


def test_coset_action_natural():
    G = PermGroup.symmetric(5)
    H = point_stabilizer(G, 0)
    act = coset_action(G, H)
    assert act.group.degree == 5
    assert act.group.order() == 120
    assert act.group.is_transitive()


def test_coset_action_of_a_subgroup_of_another_degree_raises():
    # S4 on 4 points is not a subgroup of S5 on 5 points, whatever its order
    with pytest.raises(DegreeMismatch):
        coset_action(PermGroup.symmetric(5), PermGroup.symmetric(4))


def test_coset_action_is_homomorphism():
    from plinth.actions import _canonical_coset_images

    G = PermGroup.alternating(5)
    H = random_subgroup_of_order(G, 12, profile=(3, 2), seed=1)
    act = coset_action(G, H)
    assert act.group.degree == 5
    chain_H = H.chain()
    key_index = {row.tobytes(): i for i, row in enumerate(act.reps)}

    def image_of(g):
        rows = _canonical_coset_images(chain_H, g.images[act.reps])
        imgs = [key_index[row.tobytes()] for row in rows]
        return Permutation(np.array(imgs, dtype=np.int64), _checked=True)

    rng = Random(2)
    chain = G.chain()
    for _ in range(20):
        g = chain.random_element(rng)
        h = chain.random_element(rng)
        assert image_of(g * h) == image_of(g) * image_of(h)


def _reference_coset_action(G, H):
    """The coset action as a per-coset queue, each coset canonicalised
    one point at a time: (reps, action generators)."""
    chain = H.chain()

    def canonical(arr):
        for i, lev in enumerate(chain.levels):
            best_p = min(lev.orbit, key=lambda p: int(arr[p]))
            if best_p != lev.beta:
                arr = arr[chain._transversal_images(i, best_p)]
        return arr

    reps = [canonical(np.arange(G.degree, dtype=np.int64))]
    key_index = {reps[0].tobytes(): 0}
    gen_images = [[] for _ in G.generators]
    cursor = 0
    while cursor < len(reps):
        arr = reps[cursor]
        cursor += 1
        for imgs, g in zip(gen_images, G.generators):
            nxt = canonical(g.images[arr])
            j = key_index.setdefault(nxt.tobytes(), len(reps))
            if j == len(reps):
                reps.append(nxt)
            imgs.append(j)
    return reps, gen_images


def _m12():
    return parse_generators(data_path("m12.gens"))


def _m12_660(seed):
    G = _m12()
    return G, random_subgroup_of_order(G, 660, profile=(11, 2), seed=seed)


def _plinth_quotient(q):
    # the G / plinth quotient that index2_subgroups enumerates
    act = _Run("stages", 1).shared(_w_class_action, q)
    return act.group, act.socle_group


COSET_ACTION_CASES = {
    "M12/660 seed 1": lambda: _m12_660(1),
    "M12/660 seed 2": lambda: _m12_660(2),
    "M12/660 seed 3": lambda: _m12_660(3),
    "S5/S4": lambda: (
        PermGroup.symmetric(5),
        point_stabilizer(PermGroup.symmetric(5), 4),
    ),
    "S5/1": lambda: (PermGroup.symmetric(5), PermGroup.trivial(5)),
    "A5/A4": lambda: (
        PermGroup.alternating(5),
        point_stabilizer(PermGroup.alternating(5), 0),
    ),
    "M12/1": lambda: (_m12(), PermGroup.trivial(12)),
    "sylvester G/plinth": lambda: _plinth_quotient(2),
    "sp44 G/plinth": lambda: _plinth_quotient(4),
}


@pytest.mark.parametrize("case", sorted(COSET_ACTION_CASES))
def test_coset_action_matches_queue_reference(case):
    G, H = COSET_ACTION_CASES[case]()
    act = coset_action(G, H)
    reps, gens = _reference_coset_action(G, H)
    assert act.reps.shape == (G.order() // H.order(), G.degree)
    assert np.array_equal(act.reps, np.array(reps))
    assert [g.images.tolist() for g in act.group.generators] == gens


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


def _reference_class_action(G, socle, p):
    """The class action as a queue BFS keyed by the minimal image bytes
    over all nontrivial powers: (reps, action generators)."""

    def key_of(arr):
        best = power = arr
        for _ in range(p - 2):
            power = arr[power]
            if power.tobytes() < best.tobytes():
                best = power
        return best.tobytes()

    z = element_of_order(socle, p)
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


@pytest.mark.parametrize("q,flavor,p", CLASS_ACTION_CASES)
def test_class_action_socle_group_is_the_socles_action(q, flavor, p):
    G, socle = psl2_action(q, flavor), psl2_action(q, "PSL")
    act = cyclic_class_action(G, socle, p)
    assert act.socle_group.generators == [
        act.action_of(s) for s in socle.generators
    ]
    assert act.socle_group.degree == len(act.reps)
    assert act.socle_group.order() == socle.order()


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


def _conjugates(rows, g):
    """The rows g^-1 y g, each built in full."""
    return g.images[rows[:, g.inverse().images]].astype(np.int32)


def _reference_key(row, base, p):
    """The documented key of one order-p element: with c the first base
    point it moves, the base images of the power sending c to the least
    point of c's cycle other than c."""
    c = next(b for b in base if row[b] != b)
    power = best = row
    for _ in range(p - 2):
        power = row[power]
        if power[c] < best[c]:
            best = power
    return best[base].astype(np.int32).tobytes()


def _sample_elements(G, seed, count=4):
    chain = G.chain()
    rng = Random(seed)
    return list(G.generators) + [chain.random_element(rng) for _ in range(count)]


@pytest.mark.parametrize("q,flavor,p", CLASS_ACTION_CASES)
def test_key_of_a_conjugation_matches_the_conjugates_keys(q, flavor, p):
    # (7, 7), (8, 7) and (11, 11) hold elements fixing base point 0, (9, 5) none
    G, socle = psl2_action(q, flavor), psl2_action(q, "PSL")
    act = cyclic_class_action(G, socle, p)
    assert act.key_of(act.reps) == [
        _reference_key(row, act.base, p) for row in act.reps
    ]
    for g in _sample_elements(G, seed=q):
        conj = _conjugates(act.reps, g)
        want = [_reference_key(row, act.base, p) for row in conj]
        assert act.key_of(conj) == want
        assert act.key_of(act.reps, g) == want


@functools.cache
def _sp44_class():
    """The class of a Sylow 17-subgroup of Sp(4,4) under Aut W(4), and
    Aut W(4)'s generators."""
    run = _Run("stages", 1)
    aut = run.shared(_w_aut_gens, 4)
    return cyclic_class_action(aut, run.shared(_w_socle, 4)[1], 17), aut


def test_key_of_a_conjugation_matches_the_conjugates_keys_on_sp44():
    act, aut = _sp44_class()
    assert act.reps.shape == (14400, 170)
    for g in _sample_elements(aut, seed=17, count=2):
        conj = _conjugates(act.reps, g)
        keys = act.key_of(act.reps, g)
        assert keys == act.key_of(conj)
        assert keys[::97] == [
            _reference_key(row, act.base, 17) for row in conj[::97]
        ]


def _least_moved_point_keys(rows, base, p):
    """The key that action_of read off fully conjugated rows before: the
    power sending the least moved point a to the least other point of
    a's cycle, and its base images."""
    m, n = rows.shape
    idx = np.arange(m)
    a = np.argmax(rows != np.arange(n, dtype=rows.dtype), axis=1)
    cur = best = rows[idx, a]
    pos = key = rows[idx[:, None], base]
    for _ in range(p - 2):
        cur = rows[idx, cur]
        pos = rows[idx[:, None], pos]
        better = cur < best
        best = np.where(better, cur, best)
        key = np.where(better[:, None], pos, key)
    return _keyed(key.astype(np.int32))[1]


def test_action_of_matches_the_full_conjugation_path_on_sp44():
    act, aut = _sp44_class()
    index = {
        key: i for i, key in enumerate(_least_moved_point_keys(act.reps, act.base, 17))
    }
    assert len(index) == 14400
    for g in _sample_elements(aut, seed=3, count=1) + act.socle.generators:
        keys = _least_moved_point_keys(_conjugates(act.reps, g), act.base, 17)
        assert act.action_of(g).images.tolist() == [index[k] for k in keys]


# sha256 of the ovoids and spreads naming the pairs, then each
# generator's images of group and socle_group; the pairs are enumerated
# from generators drawn from the chain of Aut W(q) as generated by
# Sp(4,q), the Frobenius and the Klein duality, at q = 2 for a6 and
# q = 4 for sp44
CLASS_ACTION_PINS = {
    "a6": "c8ff54c8a7d2e41a3474e868c0a037afa7ea74c02b2782f83486added669995b",
    "sp44": "efb2511feaa26ad5b235012cd29eb0f701470555026e78ad436723d53a65c9f6",
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(CLASS_ACTION_PINS))
def test_class_action_rows_and_images_are_pinned(monkeypatch, case, seed):
    # the searches draw from one fixed stream: a run at any seed, from a
    # fresh stage cache, builds the same class action
    q = {"a6": 2, "sp44": 4}[case]
    monkeypatch.setattr("plinth.cli._SHARED", {})
    act = _Run("stages", seed).shared(_w_class_action, q)
    digest = hashlib.sha256(act.sets.tobytes())
    for group in (act.group, act.socle_group):
        for g in group.generators:
            digest.update(g.images.tobytes())
    assert digest.hexdigest() == CLASS_ACTION_PINS[case]


def _stacked_batch_orbit(start, steps, canon):
    """The routine _enumerate_orbit replaced: every candidate of a
    frontier is built, stacked in (parent, generator) order and
    canonicalised as one batch."""
    frontier, keys = canon(start[None, :])
    key_index = {keys[0]: 0}
    blocks = [frontier]
    images = [[] for _ in steps]
    while len(frontier) and steps:
        cand = np.stack([step(frontier) for step in steps], axis=1)
        cand, keys = canon(cand.reshape(-1, frontier.shape[1]))
        fresh = []
        labels = []
        for row, key in enumerate(keys):
            j = key_index.get(key)
            if j is None:
                j = key_index[key] = len(key_index)
                fresh.append(row)
            labels.append(j)
        for gi, imgs in enumerate(images):
            imgs.extend(labels[gi :: len(steps)])
        frontier = cand[fresh]
        blocks.append(frontier)
    return np.concatenate(blocks), key_index, images


def _m12_coset_orbit():
    G, H = _m12_660(1)
    chain = H.chain()
    return (
        np.arange(12, dtype=np.int64),
        G.generators,
        lambda rows: _canonical_coset_images(chain, rows),
    )


def _petersen_edge_orbit():
    K, _ = petersen()
    return np.array([0, 7], dtype=np.int64), K.generators, lambda rows: np.sort(
        rows, axis=1
    )


ORBIT_CASES = {
    "M12 on the cosets of PSL(2,11)": _m12_coset_orbit,
    "Petersen edges": _petersen_edge_orbit,
}


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_enumerate_orbit_matches_the_stacked_batch_routine(case):
    start, gens, canon = ORBIT_CASES[case]()
    rows, key_index, images = _enumerate_orbit(
        _keyed(canon(start[None, :])), _canonical_step(gens, canon), len(gens)
    )
    want_rows, want_index, want_images = _stacked_batch_orbit(
        start,
        [g.images.__getitem__ for g in gens],
        lambda rows: _keyed(canon(rows)),
    )
    assert len(rows) > 1
    assert np.array_equal(rows, want_rows)
    assert list(key_index.items()) == list(want_index.items())
    assert images == want_images


def test_class_action_of_non_normalising_element_raises():
    PSL = psl2_action(9, "PSL")
    act = cyclic_class_action(PSL, PSL, 5)
    with pytest.raises(NotInvariant):
        act.action_of(Permutation.from_cycles(10, [(0, 1)]))


@pytest.mark.parametrize("p", [1, 4, 6])
def test_class_action_needs_a_prime(monkeypatch, p):
    # |PSL(2,7)| = 168 = 2^3 3 7: 4 and 6 divide it once, and PSL(2,7)
    # has elements of order 4, so only the primality test stops p = 4
    def refuse(*args, **kwargs):
        raise AssertionError("searched for an element of non-prime order")

    PSL = psl2_action(7, "PSL")
    monkeypatch.setattr("plinth.actions.element_of_order", refuse)
    with pytest.raises(OutOfRange, match="prime"):
        cyclic_class_action(PSL, PSL, p)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_class_action_needs_p_to_divide_the_socle_order_once(p):
    # |PSL(2,9)| = 360 = 2^3 3^2 5: 2 and 3 divide it twice, 7 not at all
    PSL = psl2_action(9, "PSL")
    with pytest.raises(OutOfRange):
        cyclic_class_action(PSL, PSL, p)


def test_class_action_without_an_element_of_order_p_raises(monkeypatch):
    PSL = psl2_action(9, "PSL")
    monkeypatch.setattr("plinth.actions.element_of_order", lambda *a, **k: None)
    with pytest.raises(ConstructionFailed):
        cyclic_class_action(PSL, PSL, 5)


def test_product_action_wreath_rejects_arity_below_two():
    with pytest.raises(OutOfRange):
        product_action_wreath(PermGroup.symmetric(3), 1, PermGroup.trivial(1))


def test_product_action_wreath_rejects_top_of_another_degree():
    with pytest.raises(DegreeMismatch):
        product_action_wreath(PermGroup.symmetric(3), 2, PermGroup.symmetric(3))


def test_top_projection_rejects_a_partition_listed_twice():
    # CartesianDecomposition never lists one twice; a bare stand-in does
    wreath = product_action_wreath(PermGroup.symmetric(3), 2, PermGroup.trivial(2))
    lab = wreath.decomposition.partitions[0]
    with pytest.raises(NotCartesian):
        top_projection(wreath.group, SimpleNamespace(partitions=[lab, lab]))


@pytest.mark.parametrize("seed", range(10))
def test_normalize_labels_numbers_blocks_by_their_least_point(seed):
    # scanning points upwards meets each block first at its least point
    rng = Random(seed)
    labels = [rng.randrange(7) for _ in range(rng.randrange(1, 30))]
    first_seen = {}
    for lab in labels:
        first_seen.setdefault(lab, len(first_seen))
    got = _normalize_labels(np.array(labels))
    assert got.tolist() == [first_seen[lab] for lab in labels]


def _normalize_labels_by_sorting(labels):
    """The sort-based relabelling the one-pass version replaced."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 300), max_size=60))
def test_normalize_labels_matches_the_sort_based_relabelling(labels):
    labels = np.array(labels, dtype=np.int64)
    assert _normalize_labels(labels).tolist() == (
        _normalize_labels_by_sorting(labels).tolist()
    )


def test_normalize_labels_refuses_a_negative_block_id():
    # the first-point table is indexed by block id
    with pytest.raises(OutOfRange):
        _normalize_labels(np.array([0, -1, 0]))


# ---------------------------------------------------------------------------
# orders by index, and Aut W(q) on ovoid-spread pairs


def _w2_over_sp():
    geom, aut, _ = _w2()
    sp = PermGroup(extend_to_lines(geom, sp4(2).group.generators), degree=aut.degree)
    return sp, aut.generators


def _m12_over_psl():
    G, H = _m12_660(1)
    return H, G.generators


# (H, generators of a group G): H normal in G, not normal, and not in G
ORDER_OVER_CASES = {
    "Aut W(2) over Sp(4,2)": _w2_over_sp,
    "S5 over A5": lambda: (PermGroup.alternating(5), PermGroup.symmetric(5).generators),
    "S5 over S4": lambda: (
        point_stabilizer(PermGroup.symmetric(5), 4),
        PermGroup.symmetric(5).generators,
    ),
    "M12 over PSL(2,11)": _m12_over_psl,
    "A5 over an S4 outside it": lambda: (
        point_stabilizer(PermGroup.symmetric(5), 4),
        PermGroup.alternating(5).generators,
    ),
}


@pytest.mark.parametrize("case", sorted(ORDER_OVER_CASES))
def test_order_over_matches_the_unbounded_chain(case):
    H, gens = ORDER_OVER_CASES[case]()
    grown = order_over(H, gens)
    order = PermGroup(list(gens), degree=H.degree).order()
    assert grown.order() == order
    # the bound is exact when H lies in G: A5 meets S4 in A4, so there
    # it is |S4| * 5 = 120, loose, and the chain runs to completion
    assert grown._bound == (120 if case == "A5 over an S4 outside it" else order)


def test_order_over_gives_aut_w4_over_sp44():
    run = _Run("stages", 1)
    image = run.shared(_w_sp4_image, 4)
    aut = run.shared(_w_aut, 4)
    assert aut._bound == image.order() * 4 == 3916800
    assert aut.order() == PermGroup(aut.generators, degree=aut.degree).order()


@functools.cache
def _w2():
    """W(2), Aut W(2) of order 1,440 and its socle A6 of order 360."""
    geom = symplectic_gq(2)
    aut = gq_automorphism_group(geom, extend_to_lines(geom, sp4(2).group.generators))
    return geom, aut, derived_subgroup(aut)


def test_the_double_six_is_the_pair_action_of_w2():
    geom, aut, socle = _w2()
    assert (aut.order(), socle.order()) == (1440, 360)
    act = ovoid_spread_action(geom, aut, socle, element_of_order(socle, 5))
    assert (act.size, act.group.degree) == (6, 36)
    assert (act.group.order(), act.socle_group.order()) == (1440, 360)
    lengths = sorted(suborbits(act.group).lengths())
    assert lengths == [1, 5, 10, 20]
    # the oracle: PGammaL(2,9) on the class of a subgroup of order 5 of
    # PSL(2,9) = A6, built on PG(1,9) with no W(2) in it
    cls = cyclic_class_action(psl2_action(9, "PGammaL"), psl2_action(9, "PSL"), 5)
    assert cls.group.degree == act.group.degree
    assert lengths == sorted(suborbits(cls.group).lengths())


def test_the_pair_builder_refuses_a_set_that_is_not_an_ovoid():
    geom, _, socle = _w2()
    orbits = [np.array(sorted(c)) for c in element_of_order(socle, 5).cycles()]
    lines = np.array(geom.lines)
    ovoid = _meets_each_once(orbits, lines, "line")
    outside = next(v for v in range(geom.num_points) if v not in ovoid)
    swapped = np.sort(np.append(ovoid[1:], outside))
    with pytest.raises(ConstructionFailed, match="meet every line once"):
        _meets_each_once([swapped], lines, "line")


def test_the_pair_builder_refuses_z_of_the_wrong_order():
    geom, aut, socle = _w2()
    for z in (element_of_order(socle, 2), socle.identity()):
        with pytest.raises(ConstructionFailed, match="orbit of z"):
            ovoid_spread_action(geom, aut, socle, z)


def test_the_pair_builder_refuses_a_stabilizer_outside_the_normalizer(monkeypatch):
    geom, aut, socle = _w2()
    # G itself stands in for the stabiliser of point 0
    monkeypatch.setattr("plinth.actions.point_stabilizer", lambda group, alpha: group)
    with pytest.raises(ConstructionFailed, match="normalise"):
        ovoid_spread_action(geom, aut, socle, element_of_order(socle, 5))


def _fixed_set_rows(rows, act, kind):
    """For each class row y, the row of the one set of the given kind
    among act.sets that y keeps."""
    inside = np.zeros((len(act.sets), rows.shape[1]), dtype=bool)
    inside[np.arange(len(act.sets))[:, None], act.sets] = True
    found = np.full(len(rows), -1)
    for r in np.flatnonzero(act.is_ovoid == kind):
        kept = inside[r][rows[:, act.sets[r]]].all(axis=1)
        assert (found[kept] == -1).all()
        found[kept] = r
    assert (found >= 0).all()
    return found


def test_the_w4_pair_action_is_the_class_action():
    cls, _ = _sp44_class()
    pairs = _Run("stages", 1).shared(_w_class_action, 4)
    n = pairs.size
    ovoid = pairs.coords[_fixed_set_rows(cls.reps, pairs, True)]
    spread = pairs.coords[_fixed_set_rows(cls.reps, pairs, False)]
    phi = ovoid * n + spread  # class point -> pair
    assert sorted(phi.tolist()) == list(range(n * n))
    assert phi[0] == 0  # both start from the same z
    for a, b in ((cls.group, pairs.group), (cls.socle_group, pairs.socle_group)):
        assert len(a.generators) == len(b.generators)
        for g, h in zip(a.generators, b.generators):
            assert (h.images[phi] == phi[g.images]).all()
    assert sorted(suborbits(cls.group).lengths()) == sorted(
        suborbits(pairs.group).lengths()
    )


def test_product_action_wreath_degree_and_order():
    K = PermGroup.symmetric(3)
    wreath = product_action_wreath(K, 2, PermGroup.symmetric(2))
    W = wreath.group
    assert W.degree == 9
    assert W.order() == 6 * 6 * 2
    assert W.is_transitive()


def test_product_action_codec_round_trip():
    # encode is a bijection from all tuples onto 0..n-1, coordinate 1
    # most significant
    K = PermGroup.symmetric(4)
    wreath = product_action_wreath(K, 2, PermGroup.symmetric(2))
    tuples = itertools.product(range(4), repeat=2)
    assert [wreath.encode(t) for t in tuples] == list(range(16))


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
    # S3 wr S2 swaps its two partitions, so it has no component; the
    # base group S3^2 keeps both, and acts as S3 on each one's blocks
    K = PermGroup.symmetric(3)
    wreath = product_action_wreath(K, 2, PermGroup.symmetric(2))
    W = wreath.group
    E = wreath.decomposition
    assert top_projection(W, E).order() == 2
    with pytest.raises(NotDecompositionPreserving):
        component(W, E, 0)
    for j in (-1, 2):
        with pytest.raises(OutOfRange):
            component(W, E, j)
    base = product_action_wreath(K, 2, PermGroup.trivial(2))
    assert component(base.group, base.decomposition, 0).order() == 6


def test_top_projection_trivial_when_top_trivial():
    K = PermGroup.symmetric(3)
    wreath = product_action_wreath(K, 2, PermGroup.trivial(2))
    top = top_projection(wreath.group, wreath.decomposition)
    assert top.order() == 1
