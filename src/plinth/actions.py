"""Derived permutation actions.

Coset actions with canonical coset representatives, group orders counted
by index over a subgroup, conjugation actions on classes of cyclic
subgroups, the action of Aut W(q) on ovoid-spread pairs, wreath products
in product action, and the actions on a decomposition's partitions and
blocks (top projection, components) used by the inclusion classifier.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .algebra import _factorize
from .errors import (
    ConstructionFailed,
    DegreeMismatch,
    DegreeOverflow,
    IndexTooLarge,
    Mismatch,
    NotCartesian,
    NotDecompositionPreserving,
    NotInvariant,
    OutOfRange,
)
from .perm import (
    _DTYPE,
    _distinct,
    Permutation,
    PermGroup,
    element_of_order,
    point_stabilizer,
)

COSET_INDEX_CAP = 10**5
PRODUCT_DEGREE_CAP = 10**6


# ---------------------------------------------------------------------------
# product action of a wreath product


class EncodedProductAction:
    """K wr top on Delta^ell with a fixed mixed-radix point codec.

    Coordinate 1 is most significant, so certificates are byte-stable.
    """

    def __init__(self, base_degree, group, decomposition):
        self.base_degree = base_degree
        self.group = group
        self.decomposition = decomposition

    def encode(self, coords):
        point = 0
        for c in coords:
            point = point * self.base_degree + int(c)
        return point


def product_action_wreath(K, ell, top):
    """The product action of K wr top on tuples over K's point set.

    Base copies of K act coordinatewise; top elements h move the value
    in coordinate i to coordinate i.h.
    """
    if ell < 2:
        raise OutOfRange(f"arity {ell} is below 2")
    if top.degree != ell:
        raise DegreeMismatch(f"top group degree {top.degree} != arity {ell}")
    d = K.degree
    n = d**ell
    if n > PRODUCT_DEGREE_CAP:
        raise DegreeOverflow(f"degree {n} exceeds cap {PRODUCT_DEGREE_CAP}")
    strides = [d ** (ell - 1 - j) for j in range(ell)]
    points = np.arange(n, dtype=_DTYPE)
    coords = [(points // strides[j]) % d for j in range(ell)]

    gens = []
    for j in range(ell):
        for g in K.generators:
            images = points + (g.images[coords[j]] - coords[j]) * strides[j]
            gens.append(Permutation(images, _checked=True))
    for h in top.generators:
        images = np.zeros(n, dtype=_DTYPE)
        for i in range(ell):
            images += coords[i] * strides[int(h.images[i])]
        gens.append(Permutation(images, _checked=True))

    # an image of K^ell : top, a group of order |K|^ell |top|
    group = PermGroup._bounded(gens, n, K.order() ** ell * top.order())

    from .cartesian import CartesianDecomposition

    partitions = [coords[j].copy() for j in range(ell)]
    decomposition = CartesianDecomposition(partitions)
    return EncodedProductAction(d, group, decomposition)


# ---------------------------------------------------------------------------
# orbits of keyed rows


def _keyed(rows):
    """A 2-D array and the bytes of each row, one hashable key per row."""
    rows = np.ascontiguousarray(rows)
    void = np.dtype((np.void, rows.itemsize * rows.shape[1]))
    return rows, rows.view(void).ravel().tolist()


def _enumerate_orbit(first, step, k):
    """Orbit of rows under k generators, one frontier at a time.

    ``first`` is the canonical start rows as an array and their key
    list; the orbit is the union of theirs, and start row i is row i.
    ``step`` maps a frontier of rows to ``(keys, build)``: a key for
    each of its k images per row, listed in (parent, generator) order,
    and ``build(index)``, the canonical image rows at those
    positions of that list, so only rows that are new get built.  Each
    key is kept at its first occurrence, so row i is the i-th point a
    per-row queue would find (Seress, *Permutation Group Algorithms*,
    2003, section 2.1).  Returns the orbit's rows as one array, the
    key -> row index and, per generator, the list of row images.
    """
    frontier, keys = first
    key_index = {key: i for i, key in enumerate(keys)}
    blocks = [frontier]
    images = [[] for _ in range(k)]
    while len(frontier) and k:
        keys, build = step(frontier)
        done = len(key_index)
        labels = [key_index.setdefault(key, len(key_index)) for key in keys]
        for gi, imgs in enumerate(images):
            imgs.extend(labels[gi::k])
        labels, seen_at = np.unique(labels, return_index=True)
        frontier = build(seen_at[labels >= done])
        blocks.append(frontier)
    return np.concatenate(blocks), key_index, images


def _canonical_step(gens, canon):
    """Step mapping a frontier by each generator's images and keying the
    canonical forms ``canon(rows)`` of all the candidates as one batch."""

    def step(rows):
        cand = np.stack([g.images[rows] for g in gens], axis=1)
        cand, keys = _keyed(canon(cand.reshape(-1, rows.shape[1])))
        return keys, cand.__getitem__

    return step


# ---------------------------------------------------------------------------
# coset actions


class CosetAction:
    """Right-multiplication action of G on cosets of H.

    Point 0 is the coset H; row i of the (index x degree) array ``reps``
    is the canonical representative of coset i (minimal base images
    through H's stabilizer chain).
    """

    def __init__(self, group, reps):
        self.group = group
        self.reps = reps


def _canonical_coset_images(chain, rows):
    """Canonical elements of the cosets H*g, one per row of image arrays.

    Per chain level each row's base image is minimized over the level
    orbit, one transversal gather per distinct best point; the choice is
    unique because image arrays are injective.
    """
    rows = rows.copy()
    for i, lev in enumerate(chain.levels):
        orbit = lev.orbit.view()
        best = orbit[np.argmin(rows[:, orbit], axis=1)]
        for p in _distinct(best[best != lev.beta]).tolist():
            at = best == p
            rows[at] = rows[at][:, chain._transversal_images(i, p)]
    return rows


def _coset_orbit(gens, H):
    """The right cosets Hg reached from H under ``gens``: their canonical
    representatives, the key -> row index and each generator's images,
    as ``_enumerate_orbit`` gives them."""
    canon = partial(_canonical_coset_images, H.chain())
    return _enumerate_orbit(
        _keyed(canon(np.arange(H.degree, dtype=_DTYPE)[None, :])),
        _canonical_step(gens, canon),
        len(gens),
    )


def order_over(H, gens):
    """The group generated by ``gens``, its order bounded by index over a
    subgroup H whose order is known.

    The cosets Hg reached from H under ``gens`` are enumerated as
    ``coset_action`` enumerates them; H need not be normal.  They are
    the orbit of the coset H under G = <gens>, so there are
    |G : G meet H| of them, and |H| times their number bounds |G|,
    exactly when H lies in G.  The returned group's chain stops as soon
    as it reaches that bound.
    """
    gens = list(gens)
    if any(g.degree != H.degree for g in gens):
        raise DegreeMismatch(f"a generator's degree is not H's, {H.degree}")
    cosets = len(_coset_orbit(gens, H)[0])
    # a group whose cosets over a subgroup of known order were just counted
    return PermGroup._bounded(gens, H.degree, H.order() * cosets)


def coset_action(G, H):
    """Action of G on the right cosets of its subgroup H by right
    multiplication."""
    if H.degree != G.degree:
        raise DegreeMismatch(f"H has degree {H.degree}, G {G.degree}")
    if not all(G.contains(h) for h in H.generators):
        raise Mismatch("H is not a subgroup of G: a generator lies outside G")
    index = G.order() // H.order()
    if index > COSET_INDEX_CAP:
        raise IndexTooLarge(f"index {index} exceeds cap {COSET_INDEX_CAP}")
    reps, _, gen_images = _coset_orbit(G.generators, H)
    if len(reps) != index:
        raise Mismatch(
            f"coset scan found {len(reps)} cosets, expected {index}"
        )
    gens = [Permutation(imgs, _checked=True) for imgs in gen_images]
    # an image of G, a group of known order
    group = PermGroup._bounded(gens, index, G.order())
    return CosetAction(group, reps)


# ---------------------------------------------------------------------------
# conjugation on a class of cyclic subgroups


def _conjugation_step(action, gens):
    """Step conjugating a frontier of int32 class rows by each generator:
    the keys are read off the rows, and only the rows asked for are
    conjugated."""
    k = len(gens)
    conjugations = [
        (g.images.astype(np.int32), g.inverse().images) for g in gens
    ]

    def step(rows):
        keys = [None] * (len(rows) * k)
        for gi, g in enumerate(gens):
            keys[gi::k] = action.key_of(rows, g)

        def build(at):
            out = np.empty((len(at), rows.shape[1]), dtype=rows.dtype)
            for gi, (gimg, ginv) in enumerate(conjugations):
                sel = at % k == gi
                out[sel] = gimg[rows[at[sel] // k][:, ginv]]
            return out

        return keys, build

    return step


class SubgroupClassAction:
    """Conjugation action of G on the class of a cyclic subgroup.

    ``reps`` is an (N x n) int32 array whose row i is one generating
    element of class point i.  A point is keyed by its canonical
    generator's images of the socle's base: with c the first base point
    the generators move, the canonical generator is the power that sends
    c to the least point of c's cycle other than c.  For prime p every
    nontrivial power of a generator has the same support, so c, and
    with it the key, does not depend on which generator the expansion
    happened to find.  ``key_of`` reads the key of a conjugate straight
    off the stored row, so mapping a point builds no conjugate.  The key
    is exact for elements of the socle, which a base determines;
    ``action_of`` therefore checks that its argument normalises the
    socle.  ``socle_group`` is the socle's own action, read off the
    enumeration: its generators are the images of ``socle.generators``,
    in that order.
    """

    def __init__(self, prime, socle):
        self.prime = prime
        self.socle = socle
        self.base = np.array(socle.chain().base, dtype=np.intp)
        self.reps = None
        self.key_index = {}
        self.group = None
        self.socle_group = None

    def key_of(self, rows, g=None):
        """Keys (bytes) of the conjugates g^-1 y g of a batch of order-p
        socle elements y, one per row; the rows' own keys when g is None.

        The conjugate's j-th power sends b to g(y^j(g^-1(b))), so each
        row is stepped from g^-1(base) by one flat gather per power; only
        the powers' images of c and the chosen power's base images go
        through g.
        """
        m, n = rows.shape
        if g is None:
            start, image = self.base, lambda a: a
        else:
            start = g.inverse().images[self.base]
            image = g.images.__getitem__
        flat = rows.ravel()
        offsets = np.arange(0, m * n, n)[:, None]
        # pos[j, i] holds y_i^(j+1)(start)
        pos = np.empty((self.prime - 1, m, len(start)), dtype=rows.dtype)
        pos[0] = rows[:, start]
        for j in range(1, self.prime - 1):
            pos[j] = flat[offsets + pos[j - 1]]
        idx = np.arange(m)
        moved = np.argmax(pos[0] != start, axis=1)
        best = np.argmin(image(pos[:, idx, moved]), axis=0)
        return _keyed(image(pos[best, idx]).astype(np.int32))[1]

    def action_of(self, g):
        """Image of an arbitrary parent element in the class action."""
        for s in self.socle.generators:
            if not self.socle.contains(s.conjugate(g)):
                raise NotInvariant("element does not normalise the socle")
        keys = self.key_of(self.reps, g)
        images = np.fromiter(map(self.key_index.__getitem__, keys), dtype=_DTYPE)
        return Permutation(images, _checked=True)


def cyclic_class_action(G, socle, p):
    """Conjugation action of G on the order-p subgroups of its socle.

    Requires p to be a prime dividing the socle order exactly once, so
    the class is the full (conjugate) set of Sylow p-subgroups; the
    orbit is expanded under socle generators one breadth-first frontier
    at a time, keeping first occurrences in (parent, generator) order,
    which gives a point labeling that any overgroup of the socle shares.
    No case builds it: it is the tests' oracle for
    ``ovoid_spread_action`` at q = 2 and q = 4, and a benchmark span.
    """
    if _factorize(p) != {p: 1}:
        raise OutOfRange(f"{p} is not a prime")
    order = socle.order()
    if order % p or (order // p) % p == 0:
        raise OutOfRange(f"{p} must divide the socle order exactly once")
    z = element_of_order(socle, p)
    if z is None:
        raise ConstructionFailed(f"no element of order {p} found")

    action = SubgroupClassAction(p, socle)
    start = z.images.astype(np.int32)[None, :]
    action.reps, action.key_index, socle_images = _enumerate_orbit(
        (start, action.key_of(start)),
        _conjugation_step(action, socle.generators),
        len(socle.generators),
    )
    degree = len(action.reps)
    # images of the socle and of G, groups of known order
    action.socle_group = PermGroup._bounded(
        [Permutation(imgs, _checked=True) for imgs in socle_images], degree, order
    )
    gens = [action.action_of(g) for g in G.generators]
    action.group = PermGroup._bounded(gens, degree, G.order())
    return action


# ---------------------------------------------------------------------------
# Aut W(q) on ovoid-spread pairs: the class of a cyclic subgroup Z of
# order q^2+1 without its enumeration


class OvoidSpreadAction:
    """Aut W(q) and its socle on the pairs (ovoid, spread) of W(q).

    ``sets`` holds the N ovoids and N spreads as sorted vertex rows, and
    ``coords[r]`` is row r's number among the sets of its kind, so pair
    (i, j) is point i * N + j.  ``z`` is the image of the Z generator the
    builder was given; point 0 is the pair of Z's ovoid and spread.
    """

    def __init__(self, points, sets, key_index):
        self.sets = sets
        self.key_index = key_index
        self.is_ovoid = sets[:, 0] < points
        self.coords = np.empty(len(sets), dtype=_DTYPE)
        for kind in (self.is_ovoid, ~self.is_ovoid):
            self.coords[kind] = np.arange(int(kind.sum()))
        self.size = int(self.is_ovoid.sum())
        self.group = None
        self.socle_group = None
        self.z = None

    def _pairs(self, rows):
        """The images of the pairs under an element sending set r to set
        rows[r]: (O, S) goes to (O^g, S^g), or to (S^g, O^g) when g is a
        duality."""
        ovoid_rows = np.flatnonzero(self.is_ovoid)
        spread_rows = np.flatnonzero(~self.is_ovoid)
        a = self.coords[rows[ovoid_rows]]
        b = self.coords[rows[spread_rows]]
        kept = self.is_ovoid[rows[ovoid_rows]]
        if kept.all():
            images = a[:, None] * self.size + b
        elif not kept.any():
            images = b * self.size + a[:, None]
        else:
            raise NotInvariant("an element sends ovoids to ovoids and to spreads")
        return Permutation(images.ravel(), _checked=True)

    def _rows_of(self, g):
        """The row of each set's image under an element of Aut W(q)."""
        keys = _keyed(np.sort(g.images[self.sets], axis=1))[1]
        try:
            return np.fromiter(map(self.key_index.__getitem__, keys), dtype=_DTYPE)
        except KeyError:
            raise NotInvariant("element moves an ovoid or spread off the orbit")

    def action_of(self, g):
        """Image of an element of Aut W(q) in the pair action."""
        return self._pairs(self._rows_of(g))


def _meets_each_once(orbits, blocks, what):
    """The one orbit, a sorted vertex array, that holds exactly one vertex
    of each block; ConstructionFailed when there is not exactly one."""
    hits = [o for o in orbits if (np.isin(blocks, o).sum(axis=1) == 1).all()]
    if len(hits) != 1:
        raise ConstructionFailed(
            f"{len(hits)} orbits of z, not one, meet every {what} once"
        )
    return hits[0]


def ovoid_spread_action(geom, G, socle, z):
    """G's action on the class of Z = <z>, as G on ovoid-spread pairs.

    ``geom`` is W(q), its vertices numbered as in ``incidence_graph``
    (points, then lines); G is generated by Aut W(q), ``socle`` by its
    socle, and z, of order q^2+1, lies in the socle.  An ovoid is q^2+1
    points meeting every line once, a spread q^2+1 lines covering every
    point once.  Z fixes exactly one ovoid O_Z and one spread S_Z (Payne
    and Thas, *Finite Generalized Quadrangles*, 2nd ed., 2009): among
    z's orbits they are the one that meets every line once and the one
    that meets every point once.  Their orbits under G, enumerated from
    those two rows, give N ovoids and N spreads, each numbered in the
    order found, so pair (O_Z, S_Z) is point 0; no class is enumerated.

    The pairs are proved to be the class of Z as a G-set, and
    ConstructionFailed is raised where a step fails:

    - every orbit of z has length q^2+1;
    - of the ovoids and spreads, only O_Z and S_Z are z-invariant, so
      N_G(Z), which permutes the Z-invariant ones, fixes point 0;
    - G's chain on the pairs reaches |G|, so the action is faithful;
    - G is transitive on the pairs;
    - the generators of G_0 normalise <z>, so G_0 = N_G(Z) and the
      pairs are G / N_G(Z).
    """
    q = geom.field.q
    P = geom.num_points
    cycles = [np.sort(np.array(c, dtype=_DTYPE)) for c in z.cycles()]
    if len(cycles) * (q * q + 1) != P + geom.num_lines or any(
        len(c) != q * q + 1 for c in cycles
    ):
        raise ConstructionFailed(f"an orbit of z has length other than {q * q + 1}")
    o_z = _meets_each_once(cycles, np.array(geom.lines), "line")
    s_z = _meets_each_once(cycles, P + np.array(geom.point_lines), "point")

    start = np.stack([o_z, s_z])
    sets, key_index, images = _enumerate_orbit(
        _keyed(start),
        _canonical_step(G.generators, partial(np.sort, axis=1)),
        len(G.generators),
    )
    act = OvoidSpreadAction(P, sets, key_index)
    n = act.size
    if 2 * n != len(sets):
        raise ConstructionFailed(f"{n} ovoids but {len(sets) - n} spreads")
    z_rows = act._rows_of(z)
    fixed = np.flatnonzero(z_rows == np.arange(len(sets)))
    if len(fixed) != 2:
        raise ConstructionFailed(f"z fixes {len(fixed)} ovoids and spreads, not 2")
    act.z = act._pairs(z_rows)
    # images of G and of the socle, groups of known order
    gens = [act._pairs(np.array(imgs, dtype=_DTYPE)) for imgs in images]
    act.group = PermGroup._bounded(gens, n * n, G.order())
    act.socle_group = PermGroup._bounded(
        [act.action_of(s) for s in socle.generators], n * n, socle.order()
    )
    stab = point_stabilizer(act.group, 0)
    if act.group.order() != G.order():
        raise ConstructionFailed("G does not act faithfully on the pairs")
    if not act.group.is_transitive():
        raise ConstructionFailed("G is not transitive on the pairs")
    Z = PermGroup([act.z], degree=n * n)
    if not all(Z.contains(act.z.conjugate(h)) for h in stab.generators):
        raise ConstructionFailed("the stabiliser of point 0 does not normalise <z>")
    return act


# ---------------------------------------------------------------------------
# partitions preserved by a group: top projection and components


def _normalize_labels(labels):
    """Relabel blocks 0..b-1 in order of their minimum point.

    The labels are non-negative block ids (OutOfRange otherwise).  One
    pass finds each block's first point, in a table indexed by block id;
    a block's new label is the number of first points before its own.
    """
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0:
        raise OutOfRange("block ids must be non-negative")
    n = len(labels)
    first = np.full(labels.max(initial=-1) + 1, n)
    np.minimum.at(first, labels, np.arange(n))
    starts = np.zeros(n, dtype=bool)
    starts[first[first < n]] = True
    return (np.cumsum(starts) - 1)[first[labels]].astype(_DTYPE, copy=False)


def _block_reps(E, j):
    """Minimum point of each block of partition j, indexed by block id."""
    return np.unique(E.partitions[j], return_index=True)[1]


def _top_images(G, E):
    """For each generator of G, its permutation of E's partitions.

    E's partitions are normalized, so a permuted partition is matched
    by the bytes of its normalized labels.  Raises NotCartesian when E
    lists a partition twice, DegreeMismatch when E's degree is not G's,
    and NotDecompositionPreserving when a generator moves a partition
    off E.
    """
    sigs = [lab.tobytes() for lab in E.partitions]
    sig_index = {s: j for j, s in enumerate(sigs)}
    if len(sig_index) != len(sigs):
        raise NotCartesian("decomposition lists a partition twice")
    if E.degree != G.degree:
        raise DegreeMismatch(f"decomposition of degree {E.degree}, group {G.degree}")
    out = []
    n = G.degree
    for g in G.generators:
        images = np.empty(len(sigs), dtype=_DTYPE)
        for j, lab in enumerate(E.partitions):
            permuted = np.empty(n, dtype=_DTYPE)
            permuted[g.images] = lab
            target = sig_index.get(_normalize_labels(permuted).tobytes())
            if target is None:
                raise NotDecompositionPreserving(
                    f"a generator moves partition {j} off the decomposition"
                )
            images[j] = target
        out.append(Permutation(images))
    return out


def top_projection(G, E):
    """Induced action of G on the ell partitions of E."""
    return PermGroup(_top_images(G, E), degree=len(E.partitions))


def component(M, E, j):
    """Action of M on the blocks of partition j, for an M that keeps it.

    A generator g keeps the partition iff the block of x.g is a function
    of the block of x, read off the blocks' least points.  Raises
    OutOfRange for j outside 0..ell-1, DegreeMismatch when E's degree
    is not M's, and NotDecompositionPreserving when a generator moves
    the partition.
    """
    if not 0 <= j < len(E.partitions):
        raise OutOfRange(f"partition {j} is outside 0..{len(E.partitions) - 1}")
    if E.degree != M.degree:
        raise DegreeMismatch(f"decomposition of degree {E.degree}, group {M.degree}")
    lab = E.partitions[j]
    first = _block_reps(E, j)
    block_gens = []
    for g in M.generators:
        images = lab[g.images[first]]
        if (lab[g.images] != images[lab]).any():
            raise NotDecompositionPreserving(f"a generator moves partition {j}")
        block_gens.append(Permutation(images))
    # an image of M, a group of order |M|
    return PermGroup._bounded(block_gens, len(first), M.order())
