"""Permutations, permutation groups and stabilizer chains.

Everything downstream (derived actions, orbital graphs, the inclusion
classifier) is built on the primitives in this module: image-array
permutations, deterministic Schreier-Sims chains with an optional
known-order early exit, orbits with Schreier vectors, and a
handful of subgroup utilities (derived subgroups, small intersections,
seeded random subgroup search).

Points are 0-based integers internally; file formats and reports are
1-based.
"""

from __future__ import annotations

import math
from collections import deque
from random import Random

import numpy as np

from .errors import DegreeMismatch, NotInvariant, NotTransitive, TooLarge

_DTYPE = np.int64

#: Default element-enumeration bound for intersections and canonical forms.
ENUMERATION_BOUND = 10**6

#: Random draws made by ``element_of_order`` before it gives up.
ELEMENT_SEARCH_TRIES = 512

#: Random draws per size (2 and 3) made by ``small_generating_set``.
GENERATING_SET_TRIES = 20


class Permutation:
    """A permutation of {0, ..., n-1} stored as an image array.

    ``images[i]`` is the image of point ``i``.  Composition acts on the
    right: ``(g * h)(x) == h(g(x))``, so orbits read ``point . g . h``.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images, _checked=False):
        arr = np.array(images, dtype=_DTYPE)
        if not _checked:
            n = len(arr)
            seen = np.zeros(n, dtype=bool)
            if n and (arr.min() < 0 or arr.max() >= n):
                raise ValueError("image out of range")
            seen[arr] = True
            if not seen.all():
                raise ValueError("images are not a bijection")
        arr.setflags(write=False)
        self.images = arr
        self._hash = None

    @property
    def degree(self):
        return len(self.images)

    @classmethod
    def identity(cls, n):
        return cls(np.arange(n, dtype=_DTYPE), _checked=True)

    @classmethod
    def from_cycles(cls, n, cycles):
        """Build a permutation of degree n from a list of cycles (0-based)."""
        images = np.arange(n, dtype=_DTYPE)
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:]):
                images[a] = b
            if cyc:
                images[cyc[-1]] = cyc[0]
        return cls(images)

    def __mul__(self, other):
        # apply self first, then other
        return Permutation(other.images[self.images], _checked=True)

    def inverse(self):
        inv = np.empty(len(self.images), dtype=_DTYPE)
        inv[self.images] = np.arange(len(self.images), dtype=_DTYPE)
        return Permutation(inv, _checked=True)

    def conjugate(self, h):
        """Return h^-1 * self * h."""
        hinv = h.inverse()
        return Permutation(h.images[self.images[hinv.images]], _checked=True)

    def __call__(self, point):
        return int(self.images[point])

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_identity(self):
        return bool((self.images == np.arange(len(self.images))).all())

    def cycles(self):
        """Nontrivial cycles as a list of tuples of points."""
        seen = np.zeros(self.degree, dtype=bool)
        out = []
        images = self.images
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            p = int(images[start])
            while p != start:
                seen[p] = True
                cyc.append(p)
                p = int(images[p])
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self):
        result = 1
        for cyc in self.cycles():
            result = math.lcm(result, len(cyc))
        return result

    def cycle_string(self):
        """1-based disjoint-cycle notation, ``()`` for the identity."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join(
            "(" + ",".join(str(p + 1) for p in cyc) + ")" for cyc in cycs
        )

    def tobytes(self):
        return self.images.tobytes()

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.degree == other.degree and bool(
            (self.images == other.images).all()
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.images.tobytes())
        return self._hash

    def __repr__(self):
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


def _schreier_path_images(tree, point, gens, degree):
    """Image array of the generator product along a Schreier tree.

    ``tree`` maps each point to (parent, index into ``gens``) and the
    root to (-1, -1); the product maps the root to ``point``.
    """
    path = []
    p = point
    while True:
        parent, gi = tree[p]
        if parent < 0:
            break
        path.append(gi)
        p = parent
    arr = np.arange(degree, dtype=_DTYPE)
    for gi in reversed(path):
        arr = gens[gi].images[arr]
    return arr


class _ChainLevel:
    """One level of a stabilizer chain: a base point, the generators
    assigned at this level, and the fundamental orbit with its Schreier
    vector (parent point, generator index into the chain's gen table)."""

    __slots__ = ("beta", "gen_ids", "orbit_list", "tree", "pending")

    def __init__(self, beta):
        self.beta = beta
        self.gen_ids = []  # indices into StabChain.gens assigned here
        self.orbit_list = [beta]
        self.tree = {beta: (-1, -1)}
        self.pending = deque()


class StabChain:
    """Deterministic Schreier-Sims stabilizer chain.

    ``upper_bound`` enables the known-order early exit: the product of
    fundamental orbit lengths is always a lower bound for the group
    order, so processing stops as soon as the product equals the bound.
    The bound must be a true upper bound on the order; it is not
    verified.  A bound the product overshoots is dropped and the chain
    completes, but a bound below the order that the product happens to
    hit is returned as the order: the S6 generators with bound 60, 30 or
    360 report exactly that, while 24, 40 or 240 fall back to 720.
    Inside the package every bound is the computed order of a group the
    new one is an image or a subgroup of, never a literal or a formula,
    so an early exit stops only at the true order and a certificate
    check of an order against a literal compares it with a computed
    value.
    """

    def __init__(self, degree, generators, base_hint=(), upper_bound=None):
        self.degree = degree
        self.gens = []  # global strong generator table
        self.levels = []
        self._base_hint = list(base_hint)
        self._bound = upper_bound
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} != group degree {degree}"
                )
            if not g.is_identity():
                self._assign(g)
        self._process()

    # -- construction ---------------------------------------------------

    def _level_of(self, g):
        """Deepest level whose base prefix g fixes (may equal len(levels))."""
        for i, lev in enumerate(self.levels):
            if g(lev.beta) != lev.beta:
                return i
        return len(self.levels)

    def _new_level(self, g):
        """Create levels for g past the current chain end.

        Hinted base points the generator fixes still get (empty) levels
        so the chain base always starts with the hint prefix.
        """
        while len(self.levels) < len(self._base_hint):
            hint = self._base_hint[len(self.levels)]
            self.levels.append(_ChainLevel(hint))
            if g(hint) != hint:
                return
        moved = int(np.nonzero(g.images != np.arange(self.degree))[0][0])
        self.levels.append(_ChainLevel(moved))

    def _assign(self, g):
        """Insert a new strong generator, extending orbits above it."""
        i = self._level_of(g)
        if i == len(self.levels):
            self._new_level(g)
            i = self._level_of(g)
        gid = len(self.gens)
        self.gens.append(g)
        self.levels[i].gen_ids.append(gid)
        # the new generator lies in every stabilizer G^(j) with j <= i
        for j in range(i + 1):
            lev = self.levels[j]
            for p in lev.orbit_list:
                lev.pending.append((p, gid))
            self._extend_orbit(j)

    def _effective_gen_ids(self, i):
        return [gid for lev in self.levels[i:] for gid in lev.gen_ids]

    def _extend_orbit(self, i):
        lev = self.levels[i]
        gids = self._effective_gen_ids(i)
        cursor = 0
        while cursor < len(lev.orbit_list):
            p = lev.orbit_list[cursor]
            cursor += 1
            for gid in gids:
                q = int(self.gens[gid].images[p])
                if q not in lev.tree:
                    lev.tree[q] = (p, gid)
                    lev.orbit_list.append(q)
                    for gid2 in gids:
                        lev.pending.append((q, gid2))

    def order(self):
        result = 1
        for lev in self.levels:
            result *= len(lev.orbit_list)
        return result

    def _bound_reached(self):
        if self._bound is None:
            return False
        current = self.order()
        if current > self._bound:
            # claimed order was wrong; fall back to the full computation
            self._bound = None
            return False
        return current == self._bound

    def _process(self):
        while not self._bound_reached():
            target = None
            for i in range(len(self.levels) - 1, -1, -1):
                if self.levels[i].pending:
                    target = i
                    break
            if target is None:
                break
            lev = self.levels[target]
            p, gid = lev.pending.popleft()
            # Schreier generator u_p * s * u_{p.s}^-1
            s = self.gens[gid]
            up = self._transversal_images(target, p)
            q = int(s.images[p])
            uq = self._transversal_images(target, q)
            uq_inv = np.empty(self.degree, dtype=_DTYPE)
            uq_inv[uq] = np.arange(self.degree, dtype=_DTYPE)
            schreier = uq_inv[s.images[up]]
            residue = self._sift_images(schreier, target + 1)
            if residue is not None:
                self._assign(Permutation(residue, _checked=True))

    # -- queries --------------------------------------------------------

    def _transversal_images(self, i, point):
        """Image array of the transversal element mapping base[i] to point."""
        return _schreier_path_images(
            self.levels[i].tree, point, self.gens, self.degree
        )

    def _sift_images(self, images, start=0):
        """Sift an image array; return the residue array or None if identity."""
        arr = images
        for i in range(start, len(self.levels)):
            lev = self.levels[i]
            p = int(arr[lev.beta])
            if p == lev.beta:
                continue
            if p not in lev.tree:
                return arr
            u = self._transversal_images(i, p)
            uinv = np.empty(self.degree, dtype=_DTYPE)
            uinv[u] = np.arange(self.degree, dtype=_DTYPE)
            arr = uinv[arr]
        if (arr == np.arange(self.degree)).all():
            return None
        return arr

    def contains(self, g):
        return self._sift_images(g.images) is None

    @property
    def base(self):
        return [lev.beta for lev in self.levels]

    def random_element(self, rng):
        """Uniform random element (product of random transversal elements)."""
        arr = np.arange(self.degree, dtype=_DTYPE)
        for i, lev in enumerate(self.levels):
            p = lev.orbit_list[rng.randrange(len(lev.orbit_list))]
            arr = arr[self._transversal_images(i, p)]
        return Permutation(arr, _checked=True)

    def elements(self, limit=ENUMERATION_BOUND):
        """Iterate over all group elements (chain transversal products)."""
        if self.order() > limit:
            raise TooLarge(f"order {self.order()} exceeds bound {limit}")
        stack = [np.arange(self.degree, dtype=_DTYPE)]
        for i, lev in enumerate(self.levels):
            stack = [
                arr[self._transversal_images(i, p)]
                for arr in stack
                for p in lev.orbit_list
            ]
        for arr in stack:
            yield Permutation(arr, _checked=True)


class PermGroup:
    """A finitely generated permutation group with a lazily built chain.

    ``claimed_order`` is passed to the chain as its early-exit bound and
    must be a true upper bound on the order (see ``StabChain``).  The
    package claims only orders computed from other chains: the parent's
    order for an action or relabelling of it and for a generating-set
    trial inside it, |K|^ell |top| for a wreath product, half the
    parent's order for a lifted index-2 kernel (``index2_subgroups``
    gives the proof), and an already computed order for a
    ``SubgroupRef``.
    """

    def __init__(self, generators, degree=None, claimed_order=None):
        generators = list(generators)
        if degree is None:
            if not generators:
                raise ValueError("degree required for a trivial group")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch("mixed generator degrees")
        self.degree = degree
        self.generators = generators
        self._claimed_order = claimed_order
        self._chain = None

    @classmethod
    def trivial(cls, degree):
        return cls([], degree=degree)

    @classmethod
    def symmetric(cls, n):
        if n < 2:
            return cls.trivial(max(n, 1))
        gens = [Permutation.from_cycles(n, [tuple(range(n))])]
        if n > 2:
            gens.append(Permutation.from_cycles(n, [(0, 1)]))
        return cls(gens)

    @classmethod
    def alternating(cls, n):
        if n < 3:
            return cls.trivial(max(n, 1))
        gens = [Permutation.from_cycles(n, [(0, 1, 2)])]
        if n > 3:
            cyc = tuple(range(n)) if n % 2 else tuple(range(1, n))
            gens.append(Permutation.from_cycles(n, [cyc]))
        return cls(gens)

    @classmethod
    def cyclic(cls, n):
        return cls([Permutation.from_cycles(n, [tuple(range(n))])])

    def chain(self, base_hint=()):
        base_hint = list(base_hint)
        if self._chain is None or (
            base_hint and self._chain.base[: len(base_hint)] != base_hint
            and self._chain.order() > 1
        ):
            rebuilt = StabChain(
                self.degree,
                self.generators,
                base_hint=base_hint,
                upper_bound=self._claimed_order,
            )
            if self._chain is not None and rebuilt.order() != self._chain.order():
                raise RuntimeError("inconsistent chain rebuild")
            self._chain = rebuilt
        return self._chain

    def order(self):
        return self.chain().order()

    def contains(self, g):
        if g.degree != self.degree:
            raise DegreeMismatch(
                f"element degree {g.degree} != group degree {self.degree}"
            )
        return self.chain().contains(g)

    def identity(self):
        return Permutation.identity(self.degree)

    def random_element(self, rng):
        return self.chain().random_element(rng)

    def elements(self, limit=ENUMERATION_BOUND):
        return self.chain().elements(limit=limit)

    def element_order_spectrum(self, limit=ENUMERATION_BOUND):
        """Sorted set of element orders (full enumeration; small groups)."""
        return sorted({g.order() for g in self.elements(limit=limit)})

    def orbit(self, alpha):
        """Orbit of alpha with a Schreier vector.

        Returns (points, tree) where points lists the orbit in
        first-discovery order and tree maps each point to
        (parent, generator index) with the root mapped to (-1, -1).
        """
        if alpha >= self.degree:
            raise ValueError("point out of range")
        points = [alpha]
        tree = {alpha: (-1, -1)}
        cursor = 0
        while cursor < len(points):
            p = points[cursor]
            cursor += 1
            for gi, g in enumerate(self.generators):
                q = int(g.images[p])
                if q not in tree:
                    tree[q] = (p, gi)
                    points.append(q)
        return points, tree

    def transporter_from_orbit(self, alpha, beta, tree=None):
        """An element mapping alpha to beta, from a Schreier vector."""
        if tree is None:
            _, tree = self.orbit(alpha)
        if beta not in tree:
            return None
        return Permutation(
            _schreier_path_images(tree, beta, self.generators, self.degree),
            _checked=True,
        )

    def orbits(self):
        """All orbits, ordered by minimum point."""
        seen = np.zeros(self.degree, dtype=bool)
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            points, _ = self.orbit(start)
            for p in points:
                seen[p] = True
            out.append(points)
        return out

    def is_transitive(self):
        points, _ = self.orbit(0)
        return len(points) == self.degree

    def __repr__(self):
        return (
            f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"
        )


class SubgroupRef:
    """A subgroup given by generators, tied to a parent group.

    Membership of every generator in the parent is verified by sifting.
    """

    def __init__(self, parent, generators, claimed_order=None, verify=True):
        self.parent = parent
        self.generators = list(generators)
        if verify:
            for g in self.generators:
                if not parent.contains(g):
                    raise ValueError("subgroup generator not in parent")
        self.group = PermGroup(
            self.generators, degree=parent.degree, claimed_order=claimed_order
        )

    def order(self):
        return self.group.order()

    def __repr__(self):
        return f"SubgroupRef(degree={self.parent.degree}, ngens={len(self.generators)})"


def same_subgroup(a, b):
    """Subgroup equality: equal orders plus mutual generator membership."""
    ga, gb = _as_group(a), _as_group(b)
    if ga.order() != gb.order():
        return False
    return all(gb.contains(g) for g in ga.generators) and all(
        ga.contains(g) for g in gb.generators
    )


def _as_group(g):
    return g.group if isinstance(g, SubgroupRef) else g


# ---------------------------------------------------------------------------
# module-level operations


def point_stabilizer(group, alpha):
    """Stabilizer of alpha, via a chain based at alpha."""
    chain = group.chain(base_hint=[alpha])
    if not chain.levels or chain.base[0] != alpha:
        # alpha lies in no generator's support or the group is trivial
        return SubgroupRef(
            group, group.generators, claimed_order=chain.order(), verify=False
        )
    gens = [chain.gens[gid] for lev in chain.levels[1:] for gid in lev.gen_ids]
    sub_order = 1
    for lev in chain.levels[1:]:
        sub_order *= len(lev.orbit_list)
    return SubgroupRef(group, gens, claimed_order=sub_order, verify=False)


def induced_action(group, points):
    """Restrict the group to an invariant point set, relabelled 0..m-1.

    Returns (PermGroup on m points, point list).  Raises NotInvariant
    when a generator moves a point off the set.
    """
    points = list(points)
    index = {p: i for i, p in enumerate(points)}
    gens = []
    for g in group.generators:
        images = np.empty(len(points), dtype=_DTYPE)
        for i, p in enumerate(points):
            q = int(g.images[p])
            if q not in index:
                raise NotInvariant(f"generator moves {p} off the point set")
            images[i] = index[q]
        gens.append(Permutation(images, _checked=True))
    return PermGroup(gens, degree=len(points)), points


def is_k_transitive(group, points, k):
    """Whether the action restricted to ``points`` is k-transitive."""
    if k < 1 or k > 3:
        raise ValueError("k must be between 1 and 3")
    m = len(points)
    if m < k:
        raise ValueError("k exceeds the point set size")
    sub, _ = induced_action(group, points)
    return stabilizer_orbit_sizes(sub, k) == list(range(m, m - k, -1))


def stabilizer_orbit_sizes(group, k):
    """Orbit sizes along the first k iterated point stabilizers.

    Level i takes the orbit of the smallest point not yet fixed, which
    is i, in the stabilizer of 0, ..., i-1.  A group of degree m is
    k-transitive exactly when the sizes are m, m-1, ..., m-k+1.
    """
    sizes = []
    for i in range(k):
        pts, _ = group.orbit(i)
        sizes.append(len(pts))
        if i + 1 < k:
            group = point_stabilizer(group, i).group
    return sizes


def minimal_block_systems(group):
    """All minimal nontrivial block systems of a transitive group.

    Each system is returned as a point -> block-id array.  The empty
    list means the group is primitive.  Blocks are found as orbits of
    <G_alpha, u> for transporters u to stabilizer-suborbit
    representatives, which gives exactly the minimal blocks through the
    base point.
    """
    if not group.is_transitive():
        raise NotTransitive("block systems require a transitive group")
    n = group.degree
    if n <= 2:
        return []
    alpha = 0
    stab = point_stabilizer(group, alpha)
    _, tree = group.orbit(alpha)
    stab_images = [g.images for g in stab.generators]
    _, reps = _orbit_labels(stab_images, n, alpha)
    reps = reps[1:]  # skip the trivial suborbit {alpha}
    candidates = {}
    block_of = {}
    for beta in reps:
        u = group.transporter_from_orbit(alpha, beta, tree=tree)
        block = fast_orbit(stab_images + [u.images], alpha, n).tolist()
        if len(block) == n or len(block) == 1:
            block_of[beta] = frozenset(block) if len(block) < n else None
            continue
        key = frozenset(block)
        block_of[beta] = key
        candidates.setdefault(key, block)
    systems = []
    for key, block in candidates.items():
        # minimal iff every other point of the block regenerates it
        minimal = True
        for beta in reps:
            if beta in key and block_of.get(beta) is not None:
                if block_of[beta] < key:
                    minimal = False
                    break
        if minimal:
            labels = _block_system_labels(group, sorted(block))
            if labels is not None:
                systems.append(labels)
    systems.sort(key=lambda lab: (int((lab == lab[0]).sum()), lab.tobytes()))
    return systems


def _orbit_labels(gen_images, degree, first=0):
    """Label every point with the index of its orbit.

    The orbit of ``first`` gets label 0 and the others follow in order
    of their minimum point.  Returns (label array, representatives),
    where each representative is the point its orbit was labelled from.
    """
    labels = np.full(degree, -1, dtype=_DTYPE)
    reps = []
    for p in [first] + list(range(degree)):
        if labels[p] == -1:
            labels[fast_orbit(gen_images, p, degree)] = len(reps)
            reps.append(p)
    return labels, reps


def _block_system_labels(group, block):
    """Expand one block to a full system; point -> block-id array."""
    n = group.degree
    labels = np.full(n, -1, dtype=_DTYPE)
    labels[block] = 0
    blocks = [np.array(block, dtype=_DTYPE)]
    queue = [0]
    while queue:
        bid = queue.pop()
        for g in group.generators:
            img = g.images[blocks[bid]]
            lab = labels[img[0]]
            if lab == -1:
                new_id = len(blocks)
                if (labels[img] != -1).any():
                    return None  # not a block system
                labels[img] = new_id
                blocks.append(np.sort(img))
                queue.append(new_id)
            else:
                if not (labels[img] == lab).all():
                    return None
    if (labels == -1).any():
        return None
    return labels


def derived_subgroup(group):
    """Derived subgroup as the normal closure of generator commutators."""
    gens = group.generators
    queue = deque()
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            c = (g * h).inverse() * (h * g)
            if not c.is_identity():
                queue.append(c)
    dgens = []
    dgroup = PermGroup.trivial(group.degree)
    while queue:
        x = queue.popleft()
        if x.is_identity() or (dgens and dgroup.contains(x)):
            continue
        dgens.append(x)
        dgroup = PermGroup(dgens, degree=group.degree)
        for g in gens:
            queue.append(x.conjugate(g))
    ref = SubgroupRef(group, dgens, claimed_order=dgroup.order(), verify=False)
    return ref


def element_of_order(group, m, seed=1):
    """A group element of exact order m, or None after the search cap.

    Seeded-random: draws uniform elements from the chain and scans
    power quotients of their orders.
    """
    if m == 1:
        return group.identity()
    rng = Random(seed)
    chain = group.chain()
    for _ in range(ELEMENT_SEARCH_TRIES):
        g = chain.random_element(rng)
        o = g.order()
        if o % m == 0:
            return g ** (o // m)
    return None


def intersection_small(a, b, bound=ENUMERATION_BOUND):
    """Intersection by enumerating the smaller group and sifting in the larger."""
    ga, gb = _as_group(a), _as_group(b)
    if ga.degree != gb.degree:
        raise DegreeMismatch("intersection of groups of different degree")
    if min(ga.order(), gb.order()) > bound:
        raise TooLarge("both groups exceed the enumeration bound")
    small, large = (ga, gb) if ga.order() <= gb.order() else (gb, ga)
    members = []
    mem_group = PermGroup.trivial(ga.degree)
    for g in small.elements(limit=bound):
        if g.is_identity():
            continue
        if members and mem_group.contains(g):
            continue
        if large.contains(g):
            members.append(g)
            mem_group = PermGroup(members, degree=ga.degree)
    parent = a.parent if isinstance(a, SubgroupRef) else ga
    return SubgroupRef(
        parent, members, claimed_order=mem_group.order(), verify=False
    )


def fast_orbit(gen_images, alpha, degree):
    """Orbit of alpha as a sorted point array (no Schreier vector).

    ``gen_images`` is a list of image arrays; the sweep is vectorized,
    intended for large-degree block and suborbit scans.
    """
    seen = np.zeros(degree, dtype=bool)
    seen[alpha] = True
    frontier = np.array([alpha], dtype=_DTYPE)
    while frontier.size:
        batches = []
        for images in gen_images:
            img = images[frontier]
            fresh = img[~seen[img]]
            if fresh.size:
                seen[fresh] = True
                batches.append(fresh)
        if batches:
            frontier = np.unique(np.concatenate(batches))
        else:
            frontier = np.array([], dtype=_DTYPE)
    return np.nonzero(seen)[0]


def reduce_generators(group):
    """A generating subset picked greedily by chain-order growth.

    Keeps heavy downstream computations (derived actions, block scans)
    working with a handful of generators instead of dozens.
    """
    total = group.order()
    kept = []
    current = 1
    for g in group.generators:
        if current == total:
            break
        if g.is_identity():
            continue
        trial = PermGroup(
            kept + [g], degree=group.degree, claimed_order=total
        )
        order = trial.order()
        if order > current:
            kept.append(g)
            current = order
    if current != total:
        raise RuntimeError("generator reduction lost the group")
    return PermGroup(kept, degree=group.degree, claimed_order=total)


def small_generating_set(group, seed=1):
    """A 2- or 3-element generating set found by seeded random draws,
    falling back to the greedy reduction."""
    total = group.order()
    rng = Random(seed)
    chain = group.chain()
    for k in (2, 3):
        for _ in range(GENERATING_SET_TRIES):
            cand = [chain.random_element(rng) for _ in range(k)]
            trial = PermGroup(cand, degree=group.degree, claimed_order=total)
            if trial.order() == total:
                return trial
    return reduce_generators(group)


def random_subgroup_of_order(group, target, profile=None, seed=1, max_iter=400):
    """Seeded search for a subgroup of exactly the target order.

    ``profile`` optionally lists element orders to steer the generator
    draw (e.g. (5, 2) to look for A5-style pairs).  Returns None after
    the iteration cap.
    """
    if group.order() % target:
        return None
    if target == 1:
        return SubgroupRef(group, [], verify=False)
    rng = Random(seed)
    chain = group.chain()

    def draw(want_order):
        for _ in range(64):
            g = chain.random_element(rng)
            o = g.order()
            if want_order is None:
                if not g.is_identity():
                    return g
            elif o % want_order == 0:
                return g ** (o // want_order)
        return None

    want_a = profile[0] if profile else None
    want_b = profile[1] if profile and len(profile) > 1 else None
    for trial in range(max_iter):
        a = draw(want_a)
        b = draw(want_b)
        if a is None or b is None:
            continue
        sub = PermGroup([a, b], degree=group.degree)
        order = sub.order()
        if order == target:
            return SubgroupRef(group, [a, b], claimed_order=order, verify=False)
        if order < target and target % order == 0 and trial % 4 == 3:
            c = draw(None)
            if c is not None:
                sub3 = PermGroup([a, b, c], degree=group.degree)
                if sub3.order() == target:
                    return SubgroupRef(
                        group, [a, b, c], claimed_order=sub3.order(), verify=False
                    )
    return None
