"""Derived permutation actions.

Coset actions with canonical coset representatives, conjugation actions
on classes of cyclic subgroups, wreath products in product action, and
the partition-stabilizer machinery (top projection, components) used by
the inclusion classifier.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegreeOverflow,
    IndexTooLarge,
    NotDecompositionPreserving,
)
from .perm import _DTYPE, Permutation, PermGroup, _as_group, element_of_order

COSET_INDEX_CAP = 10**5
PRODUCT_DEGREE_CAP = 10**6


# ---------------------------------------------------------------------------
# product action of a wreath product


class EncodedProductAction:
    """K wr top on Delta^ell with a fixed mixed-radix point codec.

    Coordinate 1 is most significant, so certificates are byte-stable.
    """

    def __init__(self, base_degree, arity, group, decomposition):
        self.base_degree = base_degree
        self.arity = arity
        self.group = group
        self.decomposition = decomposition

    def encode(self, coords):
        point = 0
        for c in coords:
            point = point * self.base_degree + int(c)
        return point

    def decode(self, point):
        out = []
        for _ in range(self.arity):
            out.append(point % self.base_degree)
            point //= self.base_degree
        return tuple(reversed(out))


def product_action_wreath(K, ell, top):
    """The product action of K wr top on tuples over K's point set.

    Base copies of K act coordinatewise; top elements h move the value
    in coordinate i to coordinate i.h.
    """
    if ell < 2:
        raise ValueError("arity must be at least 2")
    if top.degree != ell:
        raise ValueError("top group degree must equal the arity")
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

    order = K.order() ** ell * top.order()
    group = PermGroup(gens, degree=n, claimed_order=order)

    from .cartesian import CartesianDecomposition

    partitions = [coords[j].copy() for j in range(ell)]
    decomposition = CartesianDecomposition(partitions)
    return EncodedProductAction(d, ell, group, decomposition)


# ---------------------------------------------------------------------------
# coset actions


class CosetAction:
    """Right-multiplication action of G on cosets of H.

    Point 0 is the coset H; ``reps[i]`` is the canonical representative
    of coset i (minimal base images through H's stabilizer chain).
    """

    def __init__(self, parent, subgroup, group, reps):
        self.parent = parent
        self.subgroup = subgroup
        self.group = group
        self.reps = reps


def _canonical_coset_images(chain, arr):
    """Canonical element of H*g given H's chain and g's image array.

    Per chain level the base image is minimized over the level orbit;
    the choice is unique because image arrays are injective.
    """
    for i, lev in enumerate(chain.levels):
        best = None
        best_p = None
        for p in lev.orbit_list:
            v = int(arr[p])
            if best is None or v < best:
                best = v
                best_p = p
        if best_p != lev.beta:
            arr = arr[chain._transversal_images(i, best_p)]
    return arr


def coset_action(G, H):
    """Action of G on the right cosets of H by right multiplication.

    ``H`` is a SubgroupRef or a PermGroup on G's points.
    """
    index = G.order() // H.order()
    if index > COSET_INDEX_CAP:
        raise IndexTooLarge(f"index {index} exceeds cap {COSET_INDEX_CAP}")
    chain = _as_group(H).chain()
    identity = np.arange(G.degree, dtype=_DTYPE)
    start = _canonical_coset_images(chain, identity)
    reps = [start]
    key_index = {start.tobytes(): 0}
    gen_images = [[] for _ in G.generators]
    cursor = 0
    while cursor < len(reps):
        arr = reps[cursor]
        cursor += 1
        for gi, g in enumerate(G.generators):
            nxt = _canonical_coset_images(chain, g.images[arr])
            key = nxt.tobytes()
            j = key_index.get(key)
            if j is None:
                j = len(reps)
                key_index[key] = j
                reps.append(nxt)
            gen_images[gi].append(j)
    if len(reps) != index:
        raise RuntimeError(
            f"coset scan found {len(reps)} cosets, expected {index}"
        )
    gens = [
        Permutation(np.array(imgs, dtype=_DTYPE), _checked=True)
        for imgs in gen_images
    ]
    group = PermGroup(gens, degree=index, claimed_order=G.order())
    return CosetAction(G, H, group, reps)


# ---------------------------------------------------------------------------
# conjugation on a class of cyclic subgroups


class SubgroupClassAction:
    """Conjugation action of G on the class of a cyclic subgroup.

    Each class point is stored as one generating element of the
    subgroup; the canonical key is the minimal image-array byte string
    over the subgroup's nontrivial elements, so the labeling does not
    depend on which generator the expansion happened to find.
    """

    def __init__(self, parent, prime, reps, key_index, group):
        self.parent = parent
        self.prime = prime
        self.reps = reps
        self.key_index = key_index
        self.group = group

    def key_of(self, arr):
        best = arr
        power = arr
        for _ in range(self.prime - 2):
            power = arr[power]
            if power.tobytes() < best.tobytes():
                best = power
        return best.tobytes()

    def action_of(self, g):
        """Image of an arbitrary parent element in the class action."""
        ginv = g.inverse()
        images = np.empty(len(self.reps), dtype=_DTYPE)
        for i, w in enumerate(self.reps):
            conj = g.images[w[ginv.images]]
            images[i] = self.key_index[self.key_of(conj)]
        return Permutation(images, _checked=True)


def cyclic_class_action(G, socle, p, seed=1):
    """Conjugation action of G on the order-p subgroups of its socle.

    Requires p to divide the socle order exactly once, so the class is
    the full (conjugate) set of Sylow p-subgroups; the orbit is
    expanded under socle generators, giving a point labeling that any
    overgroup of the socle shares.
    """
    socle_group = _as_group(socle)
    order = socle_group.order()
    if order % p or (order // p) % p == 0:
        raise ValueError(f"{p} must divide the socle order exactly once")
    z = element_of_order(socle_group, p, seed=seed)
    if z is None:
        from .errors import ConstructionFailed

        raise ConstructionFailed(f"no element of order {p} found")

    action = SubgroupClassAction(G, p, [], {}, None)
    base = z.images
    reps = [base]
    key_index = {action.key_of(base): 0}
    conj_pairs = [(g.images, g.inverse().images) for g in socle_group.generators]
    cursor = 0
    while cursor < len(reps):
        w = reps[cursor]
        cursor += 1
        for gimg, ginv in conj_pairs:
            conj = gimg[w[ginv]]
            key = action.key_of(conj)
            if key not in key_index:
                key_index[key] = len(reps)
                reps.append(conj)
    action.reps = reps
    action.key_index = key_index
    gens = [action.action_of(g) for g in G.generators]
    action.group = PermGroup(
        gens, degree=len(reps), claimed_order=G.order()
    )
    return action


# ---------------------------------------------------------------------------
# partitions preserved by a group: top projection and components


def _normalize_labels(labels):
    """Relabel blocks 0..b-1 in order of their minimum point."""
    labels = np.asarray(labels, dtype=_DTYPE)
    n = len(labels)
    nblocks = int(labels.max()) + 1
    mins = np.full(nblocks, n, dtype=_DTYPE)
    np.minimum.at(mins, labels, np.arange(n, dtype=_DTYPE))
    order = np.argsort(mins, kind="stable")
    rank = np.empty(nblocks, dtype=_DTYPE)
    rank[order] = np.arange(nblocks, dtype=_DTYPE)
    return rank[labels]


def _block_reps(E, j):
    """Minimum point of each block of partition j, indexed by block id."""
    lab = E.partitions[j]
    b = int(lab.max()) + 1
    first = np.full(b, -1, dtype=_DTYPE)
    for p in range(len(lab) - 1, -1, -1):
        first[lab[p]] = p
    return first


def _top_images(G, E):
    """For each generator of G, its permutation of E's partitions.

    E's partitions are normalized, so a permuted partition is matched
    by the bytes of its normalized labels.
    """
    sigs = [lab.tobytes() for lab in E.partitions]
    sig_index = {s: j for j, s in enumerate(sigs)}
    if len(sig_index) != len(sigs):
        raise ValueError("decomposition lists a partition twice")
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


def partition_stabilizer_generators(G, E, j):
    """Generators (in G) of the stabilizer of partition j.

    Schreier generators of the point stabilizer in the tiny top action,
    evaluated as products of G's generators.
    """
    tops = _top_images(G, E)
    ell = len(E.partitions)
    n = G.degree
    identity = np.arange(n, dtype=_DTYPE)
    transporter = {j: identity}
    order = [j]
    cursor = 0
    while cursor < len(order):
        p = order[cursor]
        cursor += 1
        for t, g in zip(tops, G.generators):
            q = int(t.images[p])
            if q not in transporter:
                transporter[q] = g.images[transporter[p]]
                order.append(q)
    gens = []
    seen = set()
    for p in order:
        up = transporter[p]
        for t, g in zip(tops, G.generators):
            q = int(t.images[p])
            uq = transporter[q]
            uq_inv = np.empty(n, dtype=_DTYPE)
            uq_inv[uq] = identity
            s = uq_inv[g.images[up]]
            key = s.tobytes()
            if key not in seen and not (s == identity).all():
                seen.add(key)
                gens.append(Permutation(s, _checked=True))
    return gens


def component(G, E, j):
    """Action induced on the blocks of partition j by its stabilizer."""
    gens = partition_stabilizer_generators(G, E, j)
    lab = E.partitions[j]
    first = _block_reps(E, j)
    block_gens = []
    for s in gens:
        images = lab[s.images[first]]
        block_gens.append(Permutation(images))
    return PermGroup(block_gens, degree=len(first))
