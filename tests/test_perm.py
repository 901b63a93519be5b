"""Unit and property tests for the permutation-group core."""

import hashlib
import itertools
import math
import tracemalloc
from functools import cache
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import plinth.perm as perm_module
from plinth.algebra import psl2_action, sp4
from plinth.actions import coset_action, cyclic_class_action
from plinth.cli import (
    _Run,
    _scan_suborbits,
    _w_class_action,
    _w_suborbits,
    data_path,
    parse_generators,
    run_case,
)
from plinth.errors import (
    NotBijection,
    NotInvariant,
    OutOfRange,
    PlinthError,
    TooLarge,
)
from plinth.graphs import suborbits
from plinth.perm import (
    PermGroup,
    Permutation,
    StabChain,
    _block_system_labels,
    _orbit_labels,
    _power_of_order,
    _schreier_path_images,
    _suborbit_blocks,
    derived_subgroup,
    element_of_order,
    fast_orbit,
    induced_action,
    intersection_small,
    is_k_transitive,
    minimal_block_systems,
    point_stabilizer,
    random_subgroup_of_order,
    reduce_generators,
    small_generating_set,
    suborbit_frame,
)


def perms(degree):
    """Strategy yielding random permutations of the given degree."""
    return st.permutations(range(degree)).map(
        lambda t: Permutation(np.array(t, dtype=np.int64), _checked=True)
    )


def small_groups(max_degree=7, max_gens=3):
    """Strategy yielding small permutation groups."""
    return st.integers(3, max_degree).flatmap(
        lambda n: st.lists(perms(n), min_size=1, max_size=max_gens).map(
            lambda gens: PermGroup(gens, degree=n)
        )
    )


# ---------------------------------------------------------------------------
# Permutation basics


def test_from_cycles_and_cycle_string_round_trip():
    g = Permutation.from_cycles(6, [(0, 1, 2), (3, 4)])
    assert g.cycle_string() == "(1,2,3)(4,5)"
    assert g(0) == 1 and g(2) == 0 and g(3) == 4 and g(5) == 5


@pytest.mark.parametrize("images", [[0, 3, 1], [-1, 0, 1]], ids=["high", "negative"])
def test_permutation_rejects_images_out_of_range(images):
    with pytest.raises(NotBijection, match="out of range"):
        Permutation(images)


def test_permutation_rejects_a_non_bijection():
    with pytest.raises(NotBijection, match="not a bijection"):
        Permutation([0, 0, 1])
    with pytest.raises(NotBijection):
        Permutation.from_cycles(4, [(0, 1), (1, 2)])


@pytest.mark.parametrize("images", [[1, 1, 2], [0, 2, 2], [1, 2, 1, 0]])
def test_cycles_of_an_unchecked_non_bijection_raise(images):
    # the walk from a point meets a seen point other than its start;
    # it used to loop forever, growing the cycle without bound
    g = Permutation(np.array(images), _checked=True)
    with pytest.raises(NotBijection):
        g.cycles()
    with pytest.raises(NotBijection):
        g.order()


def test_trivial_group_without_degree_is_a_programming_error():
    with pytest.raises(ValueError) as info:
        PermGroup([])
    assert not isinstance(info.value, PlinthError)


def test_identity_cycle_string():
    e = Permutation.identity(4)
    assert e.is_identity()
    assert e.cycle_string() == "()"


@given(st.integers(3, 8).flatmap(lambda n: st.tuples(perms(n), perms(n), perms(n))))
def test_composition_associative_and_action_axiom(data):
    g, h, k = data
    assert (g * h) * k == g * (h * k)
    for x in range(g.degree):
        assert (g * h)(x) == h(g(x))


@given(st.integers(3, 8).flatmap(perms))
def test_inverse_and_order(g):
    n = g.degree
    assert (g * g.inverse()).is_identity()
    assert g.order() >= 1
    assert (g ** g.order()).is_identity()
    if g.order() > 1:
        assert not (g ** (g.order() - 1) * g.inverse()).is_identity() or g.order() == 2


@given(st.integers(4, 7).flatmap(lambda n: st.tuples(perms(n), perms(n))))
def test_conjugate_matches_definition(data):
    g, h = data
    assert g.conjugate(h) == h.inverse() * g * h


# ---------------------------------------------------------------------------
# BSGS soundness


KNOWN_ORDERS = [
    (PermGroup.symmetric(5), 120),
    (PermGroup.alternating(5), 60),
    (PermGroup.symmetric(6), 720),
    (PermGroup.alternating(6), 360),
    (PermGroup.cyclic(12), 12),
    (PermGroup.trivial(5), 1),
]


@pytest.mark.parametrize("group,order", KNOWN_ORDERS)
def test_known_orders(group, order):
    assert group.order() == order


@pytest.mark.parametrize("claim", [24, 40, 240])
def test_claimed_order_the_product_overshoots_falls_back(claim):
    # the orbit-length product passes these false bounds without reaching
    # them, so the bounded chain completes and reports the true order
    S6 = PermGroup.symmetric(6)
    G = PermGroup._bounded(S6.generators, 6, claim)
    assert G.order() == 720


@pytest.mark.parametrize("claim", [30, 60, 360])
def test_public_group_takes_no_order_claim(claim):
    # these claims are false bounds the orbit product reaches; no public
    # constructor accepts one, so S6's generators always give 720
    S6 = PermGroup.symmetric(6)
    with pytest.raises(TypeError):
        PermGroup(S6.generators, degree=6, claimed_order=claim)
    assert PermGroup(S6.generators, degree=6).order() == 720


def test_mathieu_style_big_group():
    g1 = Permutation.from_cycles(11, [(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)])
    g2 = Permutation.from_cycles(11, [(2, 6, 10, 7), (3, 9, 4, 5)])
    G = PermGroup([g1, g2], degree=11)
    assert G.order() == 7920


@settings(max_examples=40)
@given(small_groups())
def test_elements_bijective_and_membership(G):
    if G.order() > 5000:
        return
    elems = list(G.elements())
    assert len(elems) == G.order()
    assert len({g.tobytes() for g in elems}) == G.order()
    for g in elems[:50]:
        assert G.contains(g)


@settings(max_examples=25)
@given(small_groups(max_degree=6))
def test_contains_agrees_with_enumeration(G):
    if G.order() > 2000:
        return
    member = {g.tobytes() for g in G.elements()}
    n = G.degree
    rng = Random(7)
    for _ in range(30):
        images = list(range(n))
        rng.shuffle(images)
        g = Permutation(np.array(images, dtype=np.int64), _checked=True)
        assert G.contains(g) == (g.tobytes() in member)


def test_random_element_uniform_on_s4():
    G = PermGroup.symmetric(4)
    rng = Random(3)
    chain = G.chain()
    counts = {}
    draws = 24000
    for _ in range(draws):
        g = chain.random_element(rng)
        counts[g.tobytes()] = counts.get(g.tobytes(), 0) + 1
    assert len(counts) == 24
    # chi-square-ish sanity: all counts within 15% of the mean
    mean = draws / 24
    assert all(abs(c - mean) < 0.15 * mean for c in counts.values())


# ---------------------------------------------------------------------------
# orbits and stabilizers


@settings(max_examples=30)
@given(small_groups())
def test_orbit_stabilizer_theorem(G):
    stab = point_stabilizer(G, 0)
    assert len(G.orbit(0)) * stab.order() == G.order()


@settings(max_examples=30)
@given(small_groups())
def test_orbit_closed_under_generators(G):
    pset = set(G.orbit(0))
    for g in G.generators:
        assert {int(g.images[p]) for p in pset} == pset


@settings(max_examples=30)
@given(small_groups())
def test_is_transitive_is_an_orbit_of_0_covering_every_point(G):
    assert G.is_transitive() == (len(G.orbit(0)) == G.degree)
    assert not _padded(G, G.degree + 1).is_transitive()


@pytest.mark.parametrize("alpha", [4, -1])
def test_orbit_rejects_a_point_out_of_range(alpha):
    with pytest.raises(OutOfRange):
        PermGroup.symmetric(4).orbit(alpha)


def test_transporter_maps_correctly():
    G = PermGroup.symmetric(6)
    orbit = G.orbit(0)

    def transporter(beta):
        images = _schreier_path_images(orbit, beta, G.generators, G.degree)
        return Permutation(images, _checked=True)

    for beta in orbit:
        assert transporter(beta)(0) == beta


def _w2_incidence_group():
    from plinth.algebra import symplectic_gq
    from plinth.autgq import graph_automorphism_group, incidence_graph

    return graph_automorphism_group(incidence_graph(symplectic_gq(2)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: PermGroup.symmetric(5),
        lambda: psl2_action(7, "PSL"),
        _w2_incidence_group,
    ],
    ids=["S5", "PSL(2,7)", "W(2) incidence"],
)
def test_cached_transversals_match_schreier_paths(make):
    chain = make().chain()
    assert chain.order() > 1

    def check_every_level():
        for i, lev in enumerate(chain.levels):
            for p in reversed(list(lev.orbit)):
                got = chain._transversal_images(i, p)
                want = _schreier_path_images(
                    lev.orbit, p, chain.gens, chain.degree
                )
                assert np.array_equal(got, want)
            assert set(lev.cache) == set(lev.orbit)
            for arr in lev.cache.values():
                with pytest.raises(ValueError):
                    arr[0] = arr[0]

    check_every_level()  # caches filled while the chain was built
    for lev in chain.levels:
        lev.cache = {lev.beta: chain._identity}
    check_every_level()  # filled from the deepest point upwards


def test_transversal_cache_skips_levels_above_the_bound():
    # degree x orbit length = 1100^2 > ENUMERATION_BOUND
    chain = PermGroup.cyclic(1100).chain()
    lev = chain.levels[0]
    for p in (1099, 550, 1):
        got = chain._transversal_images(0, p)
        assert np.array_equal(
            got, _schreier_path_images(lev.orbit, p, chain.gens, 1100)
        )
    assert lev.cache is None


def test_transversal_cache_skips_short_orbits_above_the_degree_bound():
    # 1100^2 > ENUMERATION_BOUND, though each level's transversal, at
    # most 8 x 1100 entries, would fit
    G = _padded(psl2_action(7, "PSL"), 1100)
    chain = G.chain()
    assert chain.order() == 168
    for i, lev in enumerate(chain.levels):
        assert len(lev.orbit) <= 8
        for p in lev.orbit:
            got = chain._transversal_images(i, p)
            assert np.array_equal(
                got, _schreier_path_images(lev.orbit, p, chain.gens, 1100)
            )
    assert G.contains(G.generators[0] * G.generators[1])
    assert all(lev.cache is None for lev in chain.levels)


def test_chain_level_memory_is_int32_buffers():
    # the orbit, parent and generator buffers take 12 bytes a point; a
    # dict of (parent, generator) tuples and a list of ints took about 160
    n = 14400
    g = Permutation.from_cycles(n, [tuple(range(n))])
    # g^120 first keeps the frontier steps to about 240, and the chain
    # stops at its order, one full orbit, before it sifts anything
    gens = [g**120, g]
    tracemalloc.start()
    try:
        chain = StabChain(n, gens, stop_at=n)
        assert [len(lev.orbit) for lev in chain.levels] == [n]
        held = tracemalloc.get_traced_memory()[0]
        chain.levels.clear()
        level = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 12 * n <= level <= 16 * n


class FullRescanChain(StabChain):
    """Reference chain: the former pair queue, one pair range per point,
    and the former orbit extension, which rescans every orbit point
    under every effective generator."""

    def _assign(self, g):
        i = self._level_of(g)
        if i == len(self.levels):
            self._new_level(g)
            i = self._level_of(g)
        gid = len(self.gens)
        self.gens.append(g)
        self.levels[i].gen_ids.append(gid)
        for j in range(i + 1):
            lev = self.levels[j]
            for k in range(len(lev.orbit)):
                lev.pending.append([k, k + 1, (gid,), 0])
            self._extend_orbit(j, gid)

    def _extend_orbit(self, i, new_gid):
        lev = self.levels[i]
        orbit = lev.orbit
        gids = self._effective_gen_ids(i)
        cursor = 0
        while cursor < len(orbit):
            p = orbit.points[cursor]
            cursor += 1
            for gid in gids:
                q = int(self.gens[gid].images[p])
                if q not in orbit:
                    orbit.parent[q] = p
                    orbit.gen[q] = gid
                    orbit.points[orbit.size] = q
                    orbit.size += 1
                    end = len(orbit)
                    lev.pending.append([end - 1, end, tuple(gids), 0])


def _pending_pairs(lev):
    """The (point, generator) pairs a level's pending ranges still hold,
    in the order they come out."""
    pairs = []
    for start, stop, gids, cursor in lev.pending:
        span = [(p, gid) for p in lev.orbit.points[start:stop] for gid in gids]
        pairs.extend(span[cursor:])
    return pairs


def _tree_edges(orbit):
    """An orbit's Schreier vector as (point, (parent, generator)) pairs in
    the order the points joined; no point outside the orbit has a parent."""
    edges = [(p, (orbit.parent[p], orbit.gen[p])) for p in orbit]
    assert sum(parent >= 0 for parent in orbit.parent) == len(edges)
    return edges


def _level_state(lev):
    return (
        lev.beta,
        list(lev.gen_ids),
        list(lev.orbit),
        _tree_edges(lev.orbit),
        _pending_pairs(lev),
    )


def _chain_states(monkeypatch, chain_class, build):
    """The state of a level after each of its orbit extensions, then of
    every level at the end, over every chain that ``build`` makes."""
    states, chains = [], []

    class Recording(chain_class):
        def __init__(self, *args, **kwargs):
            chains.append(self)
            super().__init__(*args, **kwargs)

        def _extend_orbit(self, i, new_gid):
            super()._extend_orbit(i, new_gid)
            states.append((len(chains), i, _level_state(self.levels[i])))

    with monkeypatch.context() as m:
        m.setattr(perm_module, "StabChain", Recording)
        build()
    return states, [[_level_state(lev) for lev in c.levels] for c in chains]


def _grow_by_extend(degree=6):
    # S6 from a 6-cycle, one transposition at a time, then a member; the
    # points past 5 are fixed
    def perm(cycle):
        return Permutation.from_cycles(degree, [cycle])

    G = PermGroup([perm((0, 1, 2, 3, 4, 5))])
    G.order()
    for a, b in [(0, 1), (2, 4), (1, 3)]:
        G.extend(perm((a, b)))
    assert not G.extend(perm((3, 5)))


def _padded(group, degree):
    """The group on ``degree`` points, fixing every point past its own."""
    tail = np.arange(group.degree, degree)
    return PermGroup(
        [Permutation(np.concatenate([g.images, tail])) for g in group.generators],
        degree=degree,
    )


def _dihedral(n):
    # generators in this order keep the Schreier trees shallow: the
    # rotation alone would grow a path of n points
    rotation = Permutation.from_cycles(n, [tuple(range(n))])
    reflection = Permutation(-np.arange(n) % n)
    return PermGroup([reflection, rotation ** 33, rotation])


# the last three have degree 1,100, above the degree (1,000) from which
# orbits grow a frontier at a time
_GROWTHS = (
    [(f"S{n}", lambda n=n: PermGroup.symmetric(n).order()) for n in range(2, 8)]
    + [(f"PSL(2,{q})", lambda q=q: psl2_action(q, "PSL").order()) for q in (7, 8, 9)]
    + [
        ("W(2) incidence", lambda: _w2_incidence_group().order()),
        ("extend", _grow_by_extend),
        ("derived S6", lambda: derived_subgroup(PermGroup.symmetric(6)).order()),
        ("PSL(2,7) on 1100", lambda: _padded(psl2_action(7, "PSL"), 1100).order()),
        ("D1100", lambda: _dihedral(1100).order()),
        ("extend on 1100", lambda: _grow_by_extend(1100)),
    ]
)


@pytest.mark.parametrize(
    "build", [b for _, b in _GROWTHS], ids=[name for name, _ in _GROWTHS]
)
def test_orbit_extension_matches_full_rescan(monkeypatch, build):
    got = _chain_states(monkeypatch, StabChain, build)
    want = _chain_states(monkeypatch, FullRescanChain, build)
    assert got[0]  # some orbit was extended
    assert got == want


@pytest.mark.parametrize(
    "build", [b for _, b in _GROWTHS], ids=[name for name, _ in _GROWTHS]
)
def test_no_tree_edge_is_sifted(monkeypatch, build):
    # a tree edge's Schreier generator u_p * s * u_q^-1 is the identity
    edges = []
    popped = {}  # level -> the pair it gave last
    pop_pair = perm_module._ChainLevel.pop_pair
    sift = StabChain._sift_images

    def recording_pop_pair(self):
        popped[self] = pop_pair(self)
        return popped[self]

    def recording_sift(self, images, start=0):
        if start:  # a Schreier generator from the pair just popped
            lev = self.levels[start - 1]
            p, gid = popped[lev]
            q = int(self.gens[gid].images[p])
            edges.append((lev.orbit.parent[q], lev.orbit.gen[q]) == (p, gid))
        return sift(self, images, start)

    monkeypatch.setattr(perm_module._ChainLevel, "pop_pair", recording_pop_pair)
    monkeypatch.setattr(StabChain, "_sift_images", recording_sift)
    build()
    assert edges and not any(edges)


def _orbit_reference(group, alpha):
    """The per-point orbit search: each point's generators in turn, with
    the tree as a dict; the root is its own parent, by generator -1."""
    points, tree = [alpha], {alpha: (alpha, -1)}
    for p in points:  # the list grows while it is read
        for gi, g in enumerate(group.generators):
            q = int(g.images[p])
            if q not in tree:
                tree[q] = (p, gi)
                points.append(q)
    return points, tree


def _random_group(degree, ngens, seed):
    rng = Random(seed)
    gens = []
    for _ in range(ngens):
        images = list(range(degree))
        rng.shuffle(images)
        gens.append(Permutation(images))
    return PermGroup(gens, degree=degree)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _padded(psl2_action(7, "PSL"), 1100),
        lambda: _dihedral(1100),
        lambda: _random_group(1100, 2, seed=3),
        lambda: _padded(_random_group(600, 3, seed=4), 1100),
        lambda: PermGroup.trivial(1100),
    ],
    ids=["PSL(2,7) on 1100", "D1100", "2 random on 1100", "3 random on 600 of 1100",
         "trivial on 1100"],
)
def test_orbit_matches_per_point_search(make):
    G = make()
    for alpha in (0, 1, 7, 8, 599, 600, 1099):
        orbit = G.orbit(alpha)
        want_points, want_tree = _orbit_reference(G, alpha)
        assert list(orbit) == want_points
        assert _tree_edges(orbit) == list(want_tree.items())


def _grown(bound, gens, alpha, split):
    """``_grow_orbit`` under ``ENUMERATION_BOUND = bound``: the orbit of
    alpha under gens[:split], then its extension by the rest, whose
    first step maps the old points by the new generators only."""
    orbit = perm_module.Orbit(alpha, gens[0].degree)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(perm_module, "ENUMERATION_BOUND", bound)
        perm_module._grow_orbit(orbit, gens, range(split))
        first = (list(orbit), _tree_edges(orbit))
        perm_module._grow_orbit(
            orbit, gens, range(len(gens)), first_ids=range(split, len(gens))
        )
    return first, (list(orbit), _tree_edges(orbit))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 9).flatmap(
        lambda n: st.tuples(
            st.lists(perms(n), min_size=1, max_size=4),
            st.integers(0, n - 1),
            st.integers(0, 4),
        )
    )
)
def test_grow_orbit_paths_agree(data):
    # a bound of n^2 keeps the per-point loop, n^2 - 1 takes the
    # frontier path; both list points and enter tree edges in one order
    gens, alpha, split = data
    n = gens[0].degree
    split = min(split, len(gens))
    per_point = _grown(n * n, gens, alpha, split)
    frontier = _grown(n * n - 1, gens, alpha, split)
    assert per_point == frontier
    (old_points, old_tree), (points, tree) = per_point
    assert points[: len(old_points)] == old_points
    assert tree[: len(old_tree)] == old_tree
    whole = PermGroup(gens, degree=n).orbit(alpha)
    assert sorted(points) == sorted(whole)


def test_fast_orbit_matches_orbit():
    G = PermGroup.alternating(6)
    images = [g.images for g in G.generators]
    assert fast_orbit(images, 2, 6).tolist() == sorted(G.orbit(2))


def test_point_stabilizer_fixes_point():
    G = PermGroup.symmetric(5)
    stab = point_stabilizer(G, 3)
    assert stab.order() == 24
    for g in stab.generators:
        assert g(3) == 3


# ---------------------------------------------------------------------------
# transitivity, blocks


def test_k_transitivity_ladder():
    S5 = PermGroup.symmetric(5)
    A5 = PermGroup.alternating(5)
    C5 = PermGroup.cyclic(5)
    pts = list(range(5))
    assert is_k_transitive(S5, pts, 3)
    assert is_k_transitive(A5, pts, 3)
    assert is_k_transitive(C5, pts, 1)
    assert not is_k_transitive(C5, pts, 2)
    D5 = PermGroup(
        [
            Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]),
            Permutation.from_cycles(5, [(1, 4), (2, 3)]),
        ],
        degree=5,
    )
    assert not is_k_transitive(D5, pts, 2)


@pytest.mark.parametrize("k", [0, 4])
def test_k_transitivity_rejects_k_outside_one_to_three(k):
    with pytest.raises(OutOfRange, match="between 1 and 3"):
        is_k_transitive(PermGroup.symmetric(5), list(range(5)), k)


def test_k_transitivity_rejects_k_above_the_point_count():
    with pytest.raises(OutOfRange, match="exceeds"):
        is_k_transitive(PermGroup.symmetric(5), [0, 1], 3)


def test_minimal_block_systems_exhaustive_small():
    # C4 acting regularly: one minimal system, the 2|2 one
    C4 = PermGroup.cyclic(4)
    systems = minimal_block_systems(C4)
    assert len(systems) == 1
    labels = systems[0]
    assert labels[0] == labels[2] and labels[1] == labels[3]
    # S4 natural: primitive, no systems
    assert minimal_block_systems(PermGroup.symmetric(4)) == []


def test_minimal_block_systems_degree_at_most_two_and_intransitive():
    from plinth.errors import NotTransitive

    assert minimal_block_systems(PermGroup.trivial(1)) == []
    assert minimal_block_systems(PermGroup.symmetric(2)) == []
    with pytest.raises(NotTransitive):
        minimal_block_systems(PermGroup.trivial(2))


def test_minimal_block_systems_vs_exhaustive_degree_leq_12():
    # brute force: a block containing 0 is valid iff images of the block
    # are equal or disjoint under all elements
    def brute_minimal_blocks(G):
        n = G.degree
        elems = list(G.elements())
        valid = []
        for size in range(2, n):
            if n % size:
                continue
            for rest in itertools.combinations(range(1, n), size - 1):
                block = frozenset((0,) + rest)
                ok = True
                for g in elems:
                    img = frozenset(int(g.images[b]) for b in block)
                    if img != block and img & block:
                        ok = False
                        break
                if ok:
                    valid.append(block)
        minimal = []
        for b in valid:
            if not any(c < b for c in valid):
                minimal.append(b)
        return {frozenset(b) for b in minimal}

    for G in [
        PermGroup.cyclic(6),
        PermGroup.cyclic(8),
        PermGroup(
            [
                Permutation.from_cycles(6, [(0, 1, 2), (3, 4, 5)]),
                Permutation.from_cycles(6, [(0, 3), (1, 4), (2, 5)]),
            ],
            degree=6,
        ),
        BLOCK_CORPUS["S3 wr S2"](),
        # minimal blocks {0, 6} and {0, 4, 8}, incomparable, under the
        # principal blocks {0, 3, 6, 9} and {0, 2, ..., 10}
        PermGroup.cyclic(12),
        # S2 wr S2 wr S2: principal blocks {0, 1} inside {0, 1, 2, 3}
        PermGroup(
            [
                Permutation.from_cycles(8, [(0, 1)]),
                Permutation.from_cycles(8, [(0, 2), (1, 3)]),
                Permutation.from_cycles(8, [(0, 4), (1, 5), (2, 6), (3, 7)]),
            ]
        ),
    ]:
        expected = brute_minimal_blocks(G)
        got = set()
        for labels in minimal_block_systems(G):
            block = frozenset(int(i) for i in np.nonzero(labels == labels[0])[0])
            got.add(block)
        assert got == expected


def _s5_on_pairs():
    pairs = list(itertools.combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    gens = [
        Permutation([index[tuple(sorted((g(a), g(b))))] for a, b in pairs])
        for g in PermGroup.symmetric(5).generators
    ]
    return PermGroup(gens, degree=10)


def _d8_times_d8():
    # the symmetries of a square, twice, on the 16 pairs (x, y) = 4x + y;
    # a transporter here can map one suborbit onto two new ones
    square = [
        Permutation.from_cycles(4, [(0, 1, 2, 3)]),
        Permutation.from_cycles(4, [(1, 3)]),
    ]
    x, y = np.divmod(np.arange(16), 4)
    gens = [Permutation(g.images[x] * 4 + y) for g in square]
    gens += [Permutation(x * 4 + g.images[y]) for g in square]
    return PermGroup(gens)


def _dihedral_square(m):
    """D_m x D_m on the m^2 pairs (x, y) = m x + y: imprimitive, with
    blocks {x} x B and B x {y} for the blocks B of D_m."""
    rotation = Permutation.from_cycles(m, [tuple(range(m))])
    reflection = Permutation(-np.arange(m) % m)
    x, y = np.divmod(np.arange(m * m), m)
    gens = [Permutation(g.images[x] * m + y) for g in (reflection, rotation)]
    gens += [Permutation(x * m + g.images[y]) for g in (reflection, rotation)]
    return PermGroup(gens)


def _m12_on_144():
    G = parse_generators(data_path("m12.gens"))
    H = random_subgroup_of_order(G, 660, profile=(11, 2), seed=1)
    return coset_action(G, H).group


BLOCK_CORPUS = {
    "D12 on a hexagon": lambda: PermGroup(
        [
            Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)]),
            Permutation.from_cycles(6, [(1, 5), (2, 4)]),
        ]
    ),
    # blocks {0, 1, 2} and {3, 4, 5}: exactly n/2 points
    "S3 wr S2": lambda: PermGroup(
        [
            Permutation.from_cycles(6, [(0, 1, 2)]),
            Permutation.from_cycles(6, [(0, 1)]),
            Permutation.from_cycles(6, [(0, 3), (1, 4), (2, 5)]),
        ]
    ),
    "PSL(2,7) on 8 points": lambda: psl2_action(7),
    "S5 on pairs": _s5_on_pairs,
    "D8 x D8 on 16 points": _d8_times_d8,
    "sylvester's G": lambda: cyclic_class_action(
        psl2_action(9, "PGammaL"), psl2_action(9, "PSL"), 5
    ).group,
    "M12 on 144 cosets": _m12_on_144,
}


def _reference_minimal_block_systems(group):
    """minimal_block_systems with each block grown as the point orbit
    of <G_0, u>, one BFS per suborbit."""
    n = group.degree
    stab, _, reps, transporters = suborbit_frame(group)
    stab_images = [g.images for g in stab.generators]
    reps = reps[1:]
    candidates = {}
    block_of = {}
    for beta, u in zip(reps, transporters[1:]):
        block = fast_orbit(stab_images + [u.map(np.arange(n))], 0, n)
        if block.size == n:
            block_of[beta] = None
            continue
        block = block.tolist()
        key = frozenset(block)
        block_of[beta] = key
        if len(block) > 1:
            candidates.setdefault(key, block)
    systems = []
    for key, block in candidates.items():
        if not any(
            beta in key and block_of.get(beta) is not None and block_of[beta] < key
            for beta in reps
        ):
            labels = _block_system_labels(group, sorted(block))
            if labels is not None:
                systems.append(labels)
    systems.sort(key=lambda lab: (int((lab == lab[0]).sum()), lab.tobytes()))
    return systems


@pytest.mark.parametrize("name", sorted(BLOCK_CORPUS))
def test_suborbit_blocks_match_point_orbits(name):
    G = BLOCK_CORPUS[name]()
    n = G.degree
    stab, labels, _, transporters = suborbit_frame(G)
    gens = [g.images for g in stab.generators]
    blocks = _suborbit_blocks(labels, transporters)
    assert len(blocks) == len(transporters)
    for u, block in zip(transporters, blocks):
        orbit = fast_orbit(gens + [u.map(np.arange(n))], 0, n)
        if orbit.size == n:
            assert block is None
        else:
            assert block.tolist() == orbit.tolist()
    expected = _reference_minimal_block_systems(G)
    assert [s.tolist() for s in minimal_block_systems(G)] == [
        s.tolist() for s in expected
    ]


@pytest.mark.parametrize("name", sorted(BLOCK_CORPUS))
def test_scan_and_block_search_grow_no_point_orbit(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("a point orbit was grown")

    G = BLOCK_CORPUS[name]()
    od = suborbits(G)
    frame = suborbit_frame(G)
    scan, systems = _scan_suborbits(od), minimal_block_systems(G)
    monkeypatch.setattr("plinth.perm.fast_orbit", refuse)
    # the frame's own orbit labelling is not block search
    monkeypatch.setattr("plinth.perm.suborbit_frame", lambda group: frame)
    assert _scan_suborbits(od) == scan
    assert [s.tolist() for s in minimal_block_systems(G)] == [
        s.tolist() for s in systems
    ]


def _orbit_labels_reference(gen_images, degree):
    """The per-point labelling: one orbit sweep from each unlabelled point."""
    labels = np.full(degree, -1, dtype=np.int64)
    reps = []
    for p in range(degree):
        if labels[p] == -1:
            labels[fast_orbit(gen_images, p, degree)] = len(reps)
            reps.append(p)
    return labels, reps


def _assert_labels_match(gen_images, degree):
    labels, reps = _orbit_labels(gen_images, degree)
    want_labels, want_reps = _orbit_labels_reference(gen_images, degree)
    assert labels.dtype == want_labels.dtype
    assert labels.tolist() == want_labels.tolist()
    assert reps == want_reps


@pytest.mark.parametrize("name", sorted(BLOCK_CORPUS))
def test_orbit_labels_match_the_per_point_loop_on_the_corpus(name):
    G = BLOCK_CORPUS[name]()
    stab = point_stabilizer(G, 0)
    for group in (G, stab, PermGroup.trivial(G.degree)):
        _assert_labels_match([g.images for g in group.generators], G.degree)


def _sparse_permutation(degree, swaps, rng):
    """A product of ``swaps`` random transpositions: many small orbits."""
    images = list(range(degree))
    for _ in range(swaps):
        a, b = rng.sample(range(degree), 2)
        images[a], images[b] = images[b], images[a]
    return np.array(images, dtype=np.int64)


@pytest.mark.parametrize("seed", range(8))
def test_orbit_labels_match_the_per_point_loop_on_random_groups(seed):
    rng = Random(seed)
    degree = rng.randrange(2, 300)
    gens = [
        _sparse_permutation(degree, rng.randrange(degree), rng)
        for _ in range(rng.randrange(1, 4))
    ]
    _assert_labels_match(gens, degree)


def test_orbit_labels_match_the_per_point_loop_on_sp44s_point_stabilizer():
    stab = _Run("stages", 1).shared(_w_suborbits, 4).stabilizer
    _assert_labels_match([g.images for g in stab.generators], stab.degree)


@pytest.mark.parametrize("name", sorted(BLOCK_CORPUS))
def test_transporter_words_map_as_their_image_arrays(name):
    G = BLOCK_CORPUS[name]()
    points = np.arange(G.degree)
    _, labels, reps, transporters = suborbit_frame(G)
    suborbit_points = [
        np.flatnonzero(labels == i) for i in range(len(reps))
    ]
    assert [int(u.map(points)[0]) for u in transporters] == reps
    for u in transporters:
        product = Permutation.identity(G.degree)
        for gi in u._word:
            product = product * u._gens[gi]
        images = u.map(points)
        assert np.array_equal(images, product.images)
        for pts in suborbit_points:
            assert u.map(pts).tolist() == images[pts].tolist()
        assert u.preimage(0) == int(product.inverse().images[0])


def test_frame_reads_the_orbit_of_0_from_the_chain(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a second orbit of 0 was grown")

    G = BLOCK_CORPUS["M12 on 144 cosets"]()
    monkeypatch.setattr(PermGroup, "orbit", refuse)
    _, labels, reps, transporters = suborbit_frame(G)
    assert labels[0] == 0 and reps[0] == 0
    points = np.arange(G.degree)
    assert np.array_equal(transporters[0].map(points), points)
    assert G.is_transitive()


@pytest.mark.parametrize(
    "make",
    [
        lambda: _Run("stages", 1).shared(_w_class_action, 4).group,
        lambda: _dihedral_square(33),
    ],
    ids=["sp44's G", "D33 x D33"],
)
def test_large_frame_builds_no_full_transporter_array(monkeypatch, make):
    mapped = []
    word_map = perm_module.SchreierWord.map

    def spy(self, points):
        images = word_map(self, points)
        mapped.append(images.size)
        return images

    want = [s.tolist() for s in minimal_block_systems(make())]
    G = make()
    assert G.degree > 1000
    monkeypatch.setattr(perm_module.SchreierWord, "map", spy)
    od = suborbits(G)
    assert len(od.suborbits) == len(od.transporters) > 1
    got = minimal_block_systems(G, od.frame())
    assert [s.tolist() for s in got] == want
    assert mapped and max(mapped) < G.degree


# ---------------------------------------------------------------------------
# derived subgroup, intersections, search helpers


def test_derived_subgroup_standard_cases():
    assert derived_subgroup(PermGroup.symmetric(5)).order() == 60
    assert derived_subgroup(PermGroup.alternating(5)).order() == 60
    assert derived_subgroup(PermGroup.cyclic(6)).order() == 1


def test_derived_subgroup_is_normal_subgroup():
    G = PermGroup.symmetric(4)
    D = derived_subgroup(G)
    for g in G.generators:
        for d in D.generators:
            assert D.contains(g.inverse() * d * g)


def test_intersection_small_vs_brute():
    rng = Random(11)
    for trial in range(8):
        n = rng.choice([5, 6])
        Sn = PermGroup.symmetric(n)
        chain = Sn.chain()
        A = PermGroup([chain.random_element(rng) for _ in range(2)], degree=n)
        B = PermGroup([chain.random_element(rng) for _ in range(2)], degree=n)
        if A.order() > 2000 or B.order() > 2000:
            continue
        got = intersection_small(A, B)
        small = A if A.order() <= B.order() else B
        big = B if small is A else A
        brute = sum(1 for g in small.elements() if big.contains(g))
        assert got.order() == brute


def test_intersection_small_above_enumeration_bound_raises():
    S10 = PermGroup.symmetric(10)
    with pytest.raises(TooLarge):
        intersection_small(S10, S10)


@pytest.mark.parametrize("m", [0, -1])
def test_element_of_order_below_1_is_out_of_range(m):
    with pytest.raises(OutOfRange):
        element_of_order(PermGroup.symmetric(4), m)


def test_element_of_order_finds_and_respects_order():
    G = PermGroup.symmetric(6)
    for m in (2, 3, 4, 5, 6):
        g = element_of_order(G, m)
        assert g is not None and g.order() == m
    assert element_of_order(PermGroup.cyclic(5), 2) is None


def test_small_generating_set_preserves_group():
    G = PermGroup.symmetric(6)
    fat = PermGroup(list(G.elements())[:30], degree=6)
    slim = small_generating_set(fat, seed=1)
    assert slim.order() == fat.order()
    assert len(slim.generators) <= len(fat.generators)
    assert all(fat.contains(g) for g in slim.generators)


def test_small_generating_set_falls_back_to_the_greedy_reduction(monkeypatch):
    G = PermGroup.symmetric(6)
    fat = PermGroup(list(G.elements())[:30], degree=6)
    monkeypatch.setattr(perm_module, "GENERATING_SET_TRIES", 0)
    slim = small_generating_set(fat, seed=1)
    assert slim.order() == fat.order()
    assert slim.generators == reduce_generators(fat).generators


def test_random_subgroup_of_order():
    A5 = PermGroup.alternating(5)
    H = random_subgroup_of_order(A5, 12, profile=(3, 2), seed=1)
    assert H is not None and H.order() == 12
    assert all(A5.contains(g) for g in H.generators)
    assert random_subgroup_of_order(A5, 7, profile=(7, 1), seed=1) is None


@cache
def _search_group(name):
    if name == "A5":
        return PermGroup.alternating(5)
    if name == "M12":
        return parse_generators(data_path("m12.gens"))
    return psl2_action(int(name[len("PSL(2,"):-1]), "PSL")


# (group, target, profile, seed) -> SHA-256 of the returned generators'
# little-endian int64 image bytes, as returned by a search that builds
# every trial chain in full
SEARCH_PINS = {
    ("A5", 12, (3, 2), 1):
        "391d293d116e687f561c24b7086a4017141d45a990f535b1081aa04a575b4d67",
    ("PSL(2,59)", 60, (5, 3), 1):
        "0949725855153de357ec45a6c340d714bf3858b18658861506decb2afcb1a0a2",
    ("PSL(2,59)", 60, (5, 3), 2):
        "5477ce199faabf15aaa1b597ca8efa297c81003231fe4d48f4619a5ad53befa8",
    ("PSL(2,59)", 60, (5, 3), 3):
        "4be65d88c5c5328c27fb49b9d8486628ff6b3bd08c4f3a2cd92a26c75e7b31e6",
    ("PSL(2,23)", 24, (4, 3), 1):
        "873c763f3bb591b804837098fd17be7be22b64b9cadad876ce8e2d4a9c905d49",
    ("M12", 660, (11, 2), 1):
        "444a6fc45b348f5db1108769f5b91b3936ee059ffe7c479b79bc547c069ae5e3",
}


def _pinned_search(key):
    name, target, profile, seed = key
    G = _search_group(name)
    return G, random_subgroup_of_order(G, target, profile=profile, seed=seed)


@pytest.mark.parametrize("key", sorted(SEARCH_PINS, key=str), ids=str)
def test_seeded_search_returns_pinned_generators(key):
    _, H = _pinned_search(key)
    images = b"".join(g.images.astype("<i8").tobytes() for g in H.generators)
    assert hashlib.sha256(images).hexdigest() == SEARCH_PINS[key]


@pytest.mark.parametrize("key", sorted(SEARCH_PINS, key=str), ids=str)
def test_seeded_search_returns_a_complete_chain_of_the_target_order(key):
    G, H = _pinned_search(key)
    target = key[1]
    # the trial chain ran to the end: no Schreier pair is left to sift
    assert not any(lev.pending for lev in H.chain().levels)
    assert H.order() == target
    assert PermGroup(H.generators, degree=G.degree).order() == target
    assert all(G.contains(g) for g in H.generators)


@pytest.mark.parametrize("key", sorted(SEARCH_PINS, key=str), ids=str)
def test_seeded_search_order_matches_sympy(key):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    _, H = _pinned_search(key)
    gens = [combinatorics.Permutation(g.images.tolist()) for g in H.generators]
    assert combinatorics.PermutationGroup(gens).order() == key[1]


def test_trial_chain_stops_once_its_orbit_product_passes_the_target(
    monkeypatch,
):
    S6 = PermGroup.symmetric(6)
    trial = StabChain(6, S6.generators, stop_at=61)
    # stopped unfinished: 6 * 5 * 4 * 3 already exceeds 60
    assert 60 < trial.order() < 720
    assert StabChain(6, S6.generators).order() == 720

    trials = []

    class Spy(StabChain):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if kwargs.get("stop_at") == 61:
                trials.append(self)

    monkeypatch.setattr(perm_module, "StabChain", Spy)
    H = random_subgroup_of_order(S6, 60, profile=(5, 2), seed=1)
    stopped = [c for c in trials if c.order() > 60]
    assert stopped and H is not None
    assert all(H.chain() is not c for c in stopped)
    assert H.order() == 60 == PermGroup(H.generators, degree=6).order()


def test_trial_chain_below_the_target_is_the_full_chain():
    A5 = PermGroup.alternating(5)
    for target in (60, 120):
        trial = StabChain(5, A5.generators, stop_at=target + 1)
        full = StabChain(5, A5.generators)
        assert not any(lev.pending for lev in trial.levels)
        assert trial.base == full.base
        assert [list(lev.orbit) for lev in trial.levels] == [
            list(lev.orbit) for lev in full.levels
        ]


def test_power_of_order_draws_once_per_try():
    chain = PermGroup.cyclic(5).chain()
    rng, twin = Random(3), Random(3)
    assert _power_of_order(chain, rng, 2, 7) is None
    for _ in range(7):
        chain.random_element(twin)
    assert rng.random() == twin.random()
    g = _power_of_order(PermGroup.symmetric(6).chain(), rng, 4, 50)
    assert g is not None and g.order() == 4


# ---------------------------------------------------------------------------
# growing a group in place


def test_extend_drops_claimed_order():
    # the bound 60 holds for A5, not for the S5 that (0 1) extends it to
    A5 = PermGroup._bounded(PermGroup.alternating(5).generators, 5, 60)
    assert A5.order() == 60
    assert A5.extend(Permutation.from_cycles(5, [(0, 1)]))
    assert A5.order() == 120


def test_extend_skips_members():
    G = PermGroup.trivial(5)
    assert not G.extend(Permutation.identity(5))
    g = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    assert G.extend(g)
    assert not G.extend(g ** 2)
    assert G.generators == [g] and G.order() == 5


@pytest.fixture
def chain_builds(monkeypatch):
    """A list that gains one entry per StabChain built."""
    builds = []
    init = StabChain.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StabChain, "__init__", counting_init)
    return builds


def test_sp4_builds_one_chain(chain_builds):
    # one chain, grown transvection by transvection
    ma = sp4(4)
    assert len(chain_builds) == 1
    assert ma.group.order() == 979200


def test_derived_subgroup_builds_one_chain(chain_builds):
    D = derived_subgroup(PermGroup.symmetric(5))
    assert D.order() == 60
    assert len(chain_builds) == 1


def test_reduce_generators_builds_one_chain(chain_builds):
    S6 = PermGroup.symmetric(6)
    fat = PermGroup(list(S6.elements())[:30], degree=6)
    total = fat.order()
    chain_builds.clear()
    slim = reduce_generators(fat)
    assert slim.order() == total
    assert len(slim.generators) < len(fat.generators)
    assert len(chain_builds) == 1


def test_intersection_small_builds_at_most_three_chains(chain_builds):
    S5 = PermGroup.symmetric(5)
    A5 = PermGroup.alternating(5)
    assert intersection_small(S5, A5).order() == 60
    assert len(chain_builds) <= 3


@pytest.mark.parametrize("case,limit", [("factorizations", 3000), ("m12", 550)])
def test_seeded_cases_sift_within_budget(monkeypatch, case, limit):
    # StabChain._sift_images calls from a fresh stage cache, measured:
    # factorizations 14,494 when every search trial built its chain in
    # full, 3,309 once a trial stops past its target order, 2,688 once a
    # row is decided in at most two intersections; m12 3,135 and 488, the
    # latter also with the Lagrange test that spares most suborbit
    # 2-transitivity checks their induced action
    calls = []
    sift = StabChain._sift_images

    def counting_sift(self, *args):
        calls.append(None)
        return sift(self, *args)

    monkeypatch.setattr("plinth.cli._SHARED", {})
    monkeypatch.setattr(StabChain, "_sift_images", counting_sift)
    assert run_case(case).exit_code() == 0
    assert len(calls) <= limit


def same_subgroup(a, b):
    """Subgroup equality: equal orders plus mutual generator membership."""
    if a.order() != b.order():
        return False
    return all(b.contains(g) for g in a.generators) and all(
        a.contains(g) for g in b.generators
    )


def test_same_subgroup():
    A = PermGroup.alternating(4)
    B = derived_subgroup(PermGroup.symmetric(4))
    assert same_subgroup(A, B)
    assert not same_subgroup(A, PermGroup.cyclic(4))


def test_induced_action_faithful_case():
    G = PermGroup.symmetric(5)
    stab = point_stabilizer(G, 4)
    sub, points = induced_action(stab, list(range(4)))
    assert sub.degree == 4
    assert sub.order() == 24


def _reference_induced_images(group, points):
    """The dict loop induced_action replaced: each generator's images on
    the points, relabelled by their positions in the list."""
    index = {p: i for i, p in enumerate(points)}
    out = []
    for g in group.generators:
        images = []
        for p in points:
            q = int(g.images[p])
            if q not in index:
                raise NotInvariant(f"generator moves {p} off the point set")
            images.append(index[q])
        out.append(images)
    return out


@pytest.mark.parametrize("name", sorted(BLOCK_CORPUS))
def test_induced_action_matches_dict_loop(name):
    # G_0 on each of its orbits, the points listed in a shuffled order
    G = BLOCK_CORPUS[name]()
    stab, labels, _, _ = suborbit_frame(G)
    rng = Random(5)
    for label in range(int(labels.max()) + 1):
        points = np.flatnonzero(labels == label).tolist()
        rng.shuffle(points)
        sub, got = induced_action(stab, points)
        assert got == points and sub.degree == len(points)
        assert [g.images.tolist() for g in sub.generators] == (
            _reference_induced_images(stab, points)
        )


def test_induced_action_rejects_a_set_that_is_not_invariant():
    S5 = PermGroup.symmetric(5)
    with pytest.raises(NotInvariant):
        _reference_induced_images(S5, [0, 1])
    with pytest.raises(NotInvariant):
        induced_action(S5, [0, 1])


@pytest.mark.parametrize(
    "points,error",
    [
        ([0, 0, 1, 2], NotBijection),
        ([0, 1, 1], NotBijection),
        ([-1, 0, 1, 2], OutOfRange),
        ([0, 1, 2, 3], OutOfRange),
    ],
)
def test_induced_action_rejects_a_bad_point_list(monkeypatch, points, error):
    # checked before any generator is built: a repeated point once gave
    # non-bijective generators whose order() did not return
    def refuse(images, **kwargs):
        raise AssertionError("a generator was built from a bad point list")

    S3 = PermGroup.symmetric(3)
    monkeypatch.setattr("plinth.perm.Permutation", refuse)
    with pytest.raises(error):
        induced_action(S3, points)
