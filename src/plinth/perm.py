"""Permutations, permutation groups and stabilizer chains.

Everything downstream (derived actions, orbital graphs, the inclusion
classifier) is built on the primitives in this module: image-array
permutations, deterministic Schreier-Sims chains with one early exit
(``stop_at``), orbits with Schreier vectors, suborbit transporters kept
as generator words (``SchreierWord``), and a handful of subgroup
utilities (derived subgroups, small intersections, seeded random
subgroup search steered by a pair of element orders).

The three randomized routines, ``element_of_order``,
``small_generating_set`` and ``random_subgroup_of_order``, take the
stream they draw from as ``seed``.  The package's pipelines all run on
the default stream 1; tests draw other streams to widen their corpora.
The two searches return None when they find nothing within their caps.

Points are 0-based integers internally; file formats and reports are
1-based.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from random import Random

import numpy as np

from .errors import (
    DegreeMismatch,
    Mismatch,
    NotBijection,
    NotInvariant,
    NotTransitive,
    OutOfRange,
    TooLarge,
)

_DTYPE = np.int64

#: Cap on the elements ``elements`` enumerates (so on ``intersection_small``),
#: and on degree squared for per-point orbits and cached transversals
#: (``_small_degree``).
ENUMERATION_BOUND = 10**6

#: Random draws made by ``element_of_order`` before it gives up.
ELEMENT_SEARCH_TRIES = 512

#: Random draws per size (2 and 3) made by ``small_generating_set``.
GENERATING_SET_TRIES = 20

#: Generator pairs tried by ``random_subgroup_of_order`` before it gives up.
SUBGROUP_SEARCH_TRIES = 400


def _distinct(values):
    """The sorted distinct entries of an array, flattened, as a bare
    ``np.unique`` gives them; its first call in a process imports
    ``numpy.ma``, about 15 ms."""
    flat = np.sort(values, axis=None)
    keep = np.ones(len(flat), dtype=bool)
    keep[1:] = flat[1:] != flat[:-1]
    return flat[keep]


class Permutation:
    """A permutation of {0, ..., n-1} stored as an image array.

    ``images[i]`` is the image of point ``i``.  Composition acts on the
    right: ``(g * h)(x) == h(g(x))``, so orbits read ``point . g . h``.
    """

    __slots__ = ("images",)

    def __init__(self, images, _checked=False):
        arr = np.array(images, dtype=_DTYPE)
        if not _checked:
            n = len(arr)
            seen = np.zeros(n, dtype=bool)
            if n and (arr.min() < 0 or arr.max() >= n):
                raise NotBijection("image out of range")
            seen[arr] = True
            if not seen.all():
                raise NotBijection("images are not a bijection")
        arr.setflags(write=False)
        self.images = arr

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
        return self.images.item(point)

    def preimage(self, point):
        """The point this permutation maps to ``point``."""
        return int(np.flatnonzero(self.images == point)[0])

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
        """Nontrivial cycles as a list of tuples of points.

        Raises NotBijection when the walk from a point meets a point it
        has already seen that is not its start: the images repeat.
        """
        seen = [False] * self.degree
        out = []
        images = self.images.tolist()
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            p = images[start]
            while p != start:
                if seen[p]:
                    raise NotBijection("images are not a bijection")
                seen[p] = True
                cyc.append(p)
                p = images[p]
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

    def __repr__(self):
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


class SchreierWord:
    """A permutation kept as a word in generators, as a Schreier vector
    gives it: ``gens[word[0]]`` first, then ``gens[word[1]]``, and so on
    (transversals held implicitly: Seress, *Permutation Group
    Algorithms*, 2003, section 4.1).  ``map`` and ``preimage`` follow
    the word for the points asked for; no image array is built.
    """

    __slots__ = ("_gens", "_word")

    def __init__(self, gens, word):
        self._gens = gens
        self._word = tuple(word)

    def map(self, points):
        """Images of a point array, along the word."""
        arr = np.asarray(points, dtype=_DTYPE)
        for gi in self._word:
            arr = self._gens[gi].images[arr]
        return arr

    def preimage(self, point):
        """The point this word maps to ``point``."""
        for gi in reversed(self._word):
            point = self._gens[gi].preimage(point)
        return int(point)


def _small_degree(degree):
    """Whether a degree is small enough for per-point orbit growth and
    cached transversals: a full-length chain level's transversal, degree
    squared image entries, fits in ``ENUMERATION_BOUND``."""
    return degree * degree <= ENUMERATION_BOUND


class Orbit:
    """An orbit with its Schreier vector, in int32 buffers sized to the
    degree (Seress, *Permutation Group Algorithms*, 2003, section 4.1).

    ``points[:size]`` lists the orbit in discovery order.  A point p of
    it other than the root was first reached from ``parent[p]`` by the
    generator numbered ``gen[p]``; the root is its own parent, with
    ``gen`` -1.  A point outside the orbit has ``parent`` -1.
    """

    __slots__ = ("points", "size", "parent", "gen")

    def __init__(self, root, degree):
        self.points = array("i", [root]) * degree
        self.size = 1
        self.parent = array("i", [-1]) * degree
        self.gen = array("i", [-1]) * degree
        self.parent[root] = root

    def __len__(self):
        return self.size

    def __contains__(self, point):
        return self.parent[point] >= 0

    def __iter__(self):
        return iter(self.points[: self.size])

    def view(self):
        """The orbit's points in discovery order, as an int32 numpy view
        of ``points``."""
        return np.frombuffer(self.points, dtype=np.intc, count=self.size)


def _tree_word(orbit, point):
    """Generator indices along an orbit's Schreier tree, root first, to
    ``point``."""
    parent, gen = orbit.parent, orbit.gen
    path = []
    while (gi := gen[point]) >= 0:
        path.append(gi)
        point = parent[point]
    path.reverse()
    return path


def _schreier_path_images(orbit, point, gens, degree):
    """Image array of the generator product along a Schreier tree.

    The product of ``gens`` along ``_tree_word(orbit, point)`` maps the
    root to ``point``.  The result may be a generator's own (read-only)
    image array.
    """
    word = _tree_word(orbit, point)
    if not word:
        return np.arange(degree, dtype=_DTYPE)
    arr = gens[word[0]].images
    for gi in word[1:]:
        arr = gens[gi].images[arr]
    return arr


def _grow_orbit(orbit, gens, gen_ids, first_ids=None):
    """Extend an ``Orbit`` and its Schreier vector.

    Maps the orbit's points by the generators ``gens[gid]`` with gid in
    ``first_ids`` (default ``gen_ids``), then each new point by those
    with gid in ``gen_ids``.  New points are appended to the orbit and
    entered in its Schreier vector as (parent, gid), each at its first
    occurrence in (point, generator) order: the order of a per-point
    queue.  At a small degree (``_small_degree``) that queue runs point
    by point on the int32 buffers; above it the orbit grows one frontier
    per numpy step, written through numpy views of the same buffers, in
    the same order.
    """
    gen_ids = list(gen_ids)
    ids = gen_ids if first_ids is None else list(first_ids)
    size = orbit.size
    if _small_degree(len(orbit.parent)):
        points, parent, gen = orbit.points, orbit.parent, orbit.gen
        rows = [(gid, gens[gid].images) for gid in gen_ids]
        first_rows = [(gid, gens[gid].images) for gid in ids]
        old = size
        cursor = 0
        while cursor < size:
            p = points[cursor]
            for gid, images in rows if cursor >= old else first_rows:
                q = images.item(p)
                if parent[q] < 0:
                    parent[q] = p
                    gen[q] = gid
                    points[size] = q
                    size += 1
            cursor += 1
        orbit.size = size
        return
    points, parent, gen = (
        np.frombuffer(buf, dtype=np.intc)
        for buf in (orbit.points, orbit.parent, orbit.gen)
    )
    frontier = points[:size]
    while frontier.size and ids:
        k = len(ids)
        imgs = np.stack([gens[g].images[frontier] for g in ids], axis=1).ravel()
        fresh = np.flatnonzero(parent[imgs] < 0)
        _, first = np.unique(imgs[fresh], return_index=True)
        at = fresh[np.sort(first)]
        new = imgs[at]
        parent[new] = frontier[at // k]
        gen[new] = np.take(ids, at % k)
        points[size : size + len(new)] = new
        frontier = points[size : size + len(new)]
        size += len(new)
        ids = gen_ids
    orbit.size = size


class _ChainLevel:
    """One level of a stabilizer chain: a base point, the generators
    assigned at this level, and the fundamental ``Orbit`` with its
    Schreier vector (generator numbers index the chain's gen table).

    The Schreier pairs still to sift are kept as ranges
    ``[start, stop, gen_ids, cursor]``: every point of
    ``orbit.points[start:stop]`` with every generator of ``gen_ids``, of
    which ``cursor`` pairs are taken.  The orbit only grows, so a range
    stays valid, and a chain that stops early never builds the pairs it
    does not read.

    At a small degree (``_small_degree``) ``cache`` maps the base point,
    and each orbit point whose transversal element has been built, to
    that element's read-only image array; above it ``cache`` is None and
    the level caches nothing.
    """

    __slots__ = ("beta", "gen_ids", "orbit", "pending", "cache")

    def __init__(self, beta, identity):
        degree = len(identity)
        self.beta = beta
        self.gen_ids = []  # indices into StabChain.gens assigned here
        self.orbit = Orbit(beta, degree)
        self.pending = deque()  # nonempty pair ranges, oldest first
        self.cache = {beta: identity} if _small_degree(degree) else None

    def pop_pair(self):
        """The next pending (point, generator) pair: the ranges in turn,
        each point by point, each point's generators in turn."""
        span = self.pending[0]
        start, stop, gids, cursor = span
        point, g = divmod(cursor, len(gids))
        if cursor + 1 == (stop - start) * len(gids):
            self.pending.popleft()
        else:
            span[3] = cursor + 1
        return self.orbit.points[start + point], gids[g]


class StabChain:
    """Deterministic Schreier-Sims stabilizer chain.

    ``order()`` is the product of the fundamental orbit lengths.  At
    every step of the construction it is a lower bound on the group
    order, and it equals the order once the chain is complete (Seress,
    *Permutation Group Algorithms*, 2003, ch. 4).  That gives the chain
    its one early exit: with ``stop_at`` set, processing stops as soon
    as the product reaches ``stop_at``.  A chain stopped that way reports
    its orbit product, a lower bound on the order.  Two uses:

    - a true upper bound B on the order is ``stop_at=B``: the product
      never exceeds the order, so it reaches B only once the chain is
      complete (``PermGroup._bounded``);
    - a search trial for target order T is ``stop_at=T + 1``: reaching
      it proves the group too big, and the unfinished chain is dropped
      (``random_subgroup_of_order``).

    Without ``stop_at`` the chain always completes.
    """

    def __init__(self, degree, generators, base_hint=(), stop_at=None):
        self.degree = degree
        self._identity = np.arange(degree, dtype=_DTYPE)
        self._identity.setflags(write=False)
        self.gens = []  # global strong generator table
        self.levels = []
        self._base_hint = list(base_hint)
        self._stop = stop_at
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} != group degree {degree}"
                )
            if not g.is_identity():
                self._assign(g)
        self._process()

    def extend(self, g):
        """Insert g as a new strong generator and complete the chain."""
        self._stop = None
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
            self.levels.append(_ChainLevel(hint, self._identity))
            if g(hint) != hint:
                return
        moved = int(np.nonzero(g.images != self._identity)[0][0])
        self.levels.append(_ChainLevel(moved, self._identity))

    def _assign(self, g):
        """Insert a new strong generator, extending orbits above it."""
        i = self._level_of(g)
        if i == len(self.levels):
            self._new_level(g)
            i = self._level_of(g)
        gid = len(self.gens)
        self.gens.append(g)
        self.levels[i].gen_ids.append(gid)
        # the new generator lies in every stabilizer G^(j) with j <= i;
        # its pairs with the orbit as it stands come before those of the
        # points it adds
        for j in range(i + 1):
            lev = self.levels[j]
            lev.pending.append([0, len(lev.orbit), (gid,), 0])
            self._extend_orbit(j, gid)

    def _effective_gen_ids(self, i):
        return [gid for lev in self.levels[i:] for gid in lev.gen_ids]

    def _extend_orbit(self, i, new_gid):
        """Close level i's orbit after generator ``new_gid`` joined it.

        The orbit is already closed under every other generator, so its
        old points need only ``new_gid`` and the points found now need
        all of them.  Points, tree entries and pending pairs come in the
        order a full rescan from the orbit's start would give them.
        """
        lev = self.levels[i]
        gids = tuple(self._effective_gen_ids(i))
        old = len(lev.orbit)
        _grow_orbit(lev.orbit, self.gens, gids, first_ids=(new_gid,))
        if len(lev.orbit) > old:
            lev.pending.append([old, len(lev.orbit), gids, 0])

    def order(self):
        result = 1
        for lev in self.levels:
            result *= lev.orbit.size
        return result

    def _process(self):
        while self._stop is None or self.order() < self._stop:
            target = None
            for i in range(len(self.levels) - 1, -1, -1):
                if self.levels[i].pending:
                    target = i
                    break
            if target is None:
                break
            lev = self.levels[target]
            p, gid = lev.pop_pair()
            # Schreier generator u_p * s * u_{p.s}^-1
            s = self.gens[gid]
            q = s.images.item(p)
            if lev.orbit.gen[q] == gid and lev.orbit.parent[q] == p:
                continue  # a tree edge: u_q is u_p * s, so this is 1
            up = self._transversal_images(target, p)
            uq = self._transversal_images(target, q)
            uq_inv = np.empty(self.degree, dtype=_DTYPE)
            uq_inv[uq] = self._identity
            schreier = uq_inv[s.images[up]]
            residue = self._sift_images(schreier, target + 1)
            if residue is not None:
                self._assign(Permutation(residue, _checked=True))

    # -- queries --------------------------------------------------------

    def _transversal_images(self, i, point):
        """Image array of the transversal element mapping base[i] to point.

        At a small degree (``_small_degree``), where even a full-length
        orbit's transversal fits in ``ENUMERATION_BOUND`` entries, a level
        caches each element (read-only) and builds a new one from its
        nearest cached ancestor with one gather per tree edge.  Above it
        every element is a fresh walk along the Schreier tree.
        """
        lev = self.levels[i]
        cache = lev.cache
        if cache is None:
            return _schreier_path_images(
                lev.orbit, point, self.gens, self.degree
            )
        parent, gen = lev.orbit.parent, lev.orbit.gen
        path = []
        p = point
        while p not in cache:
            path.append((p, gen[p]))
            p = parent[p]
        arr = cache[p]
        for q, gi in reversed(path):
            arr = self.gens[gi].images[arr]
            arr.setflags(write=False)
            cache[q] = arr
        return arr

    def _sift_images(self, images, start=0):
        """Sift an image array; return the residue array or None if identity."""
        arr = images
        for i in range(start, len(self.levels)):
            lev = self.levels[i]
            p = arr.item(lev.beta)
            if p == lev.beta:
                continue
            if lev.orbit.parent[p] < 0:  # p is not in the orbit
                return arr
            u = self._transversal_images(i, p)
            uinv = np.empty(self.degree, dtype=_DTYPE)
            uinv[u] = self._identity
            arr = uinv[arr]
        if (arr == self._identity).all():
            return None
        return arr

    def contains(self, g):
        return self._sift_images(g.images) is None

    @property
    def base(self):
        return [lev.beta for lev in self.levels]

    def random_element(self, rng):
        """Uniform random element (product of random transversal elements)."""
        arr = self._identity
        for i, lev in enumerate(self.levels):
            p = lev.orbit.points[rng.randrange(len(lev.orbit))]
            arr = arr[self._transversal_images(i, p)]
        return Permutation(arr, _checked=True)

    def elements(self):
        """Iterate over all group elements (chain transversal products)."""
        if self.order() > ENUMERATION_BOUND:
            raise TooLarge(f"order {self.order()} exceeds {ENUMERATION_BOUND}")
        stack = [self._identity]
        for i, lev in enumerate(self.levels):
            stack = [
                arr[self._transversal_images(i, p)]
                for arr in stack
                for p in lev.orbit
            ]
        for arr in stack:
            yield Permutation(arr, _checked=True)


class PermGroup:
    """A finitely generated permutation group with a lazily built chain.

    A group built with ``PermGroup(generators, degree)`` always gets a
    complete chain, so ``order()`` is exact.  Package code that already
    knows an upper bound on the order uses ``_bounded`` instead.
    """

    def __init__(self, generators, degree=None):
        generators = list(generators)
        if degree is None:
            if not generators:
                # a programming error, not a data error: left untyped
                raise ValueError("degree required for a trivial group")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch("mixed generator degrees")
        self.degree = degree
        self.generators = generators
        self._bound = None
        self._chain = None

    @classmethod
    def _bounded(cls, generators, degree, bound):
        """A group whose order the caller knows to be at most ``bound``.

        Its chain has ``stop_at=bound`` (see ``StabChain``), so the bound
        must be true; each caller names why it is, as one of four kinds:
        an image of a group of known order, a subgroup whose order was
        just computed, a subset of a group of known order, or a group
        whose cosets over a subgroup of known order were just counted
        (``actions.order_over``).  A false
        bound that the orbit product passes is caught, and the chain is
        built in full; one the product reaches would be believed.
        """
        group = cls(generators, degree)
        group._bound = bound
        return group

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
                self.degree, self.generators, base_hint, stop_at=self._bound
            )
            if self._bound is not None and rebuilt.order() > self._bound:
                # the bound was false: build the complete chain
                rebuilt = StabChain(self.degree, self.generators, base_hint)
            if self._chain is not None and rebuilt.order() != self._chain.order():
                raise Mismatch("inconsistent chain rebuild")
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

    def extend(self, g):
        """Add g to the group in place; False when g is already a member.

        The chain grows by one Schreier-Sims insertion instead of being
        rebuilt.  An order bound is dropped: it does not hold for the
        bigger group.
        """
        if self.contains(g):
            return False
        self.generators.append(g)
        self._bound = None
        self._chain.extend(g)
        return True

    def identity(self):
        return Permutation.identity(self.degree)

    def elements(self):
        return self.chain().elements()

    def orbit(self, alpha):
        """Orbit of alpha with a Schreier vector, as an ``Orbit`` whose
        generator numbers index ``generators``."""
        if not 0 <= alpha < self.degree:
            raise OutOfRange(f"point {alpha} not in 0..{self.degree - 1}")
        orbit = Orbit(alpha, self.degree)
        _grow_orbit(orbit, self.generators, range(len(self.generators)))
        return orbit

    def is_transitive(self):
        gens = [g.images for g in self.generators]
        return len(fast_orbit(gens, 0, self.degree)) == self.degree

    def __repr__(self):
        return (
            f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"
        )


# ---------------------------------------------------------------------------
# module-level operations


def point_stabilizer(group, alpha):
    """Stabilizer of alpha, via a chain based at alpha."""
    chain = group.chain(base_hint=[alpha])
    if not chain.levels or chain.base[0] != alpha:
        # alpha lies in no generator's support or the group is trivial
        return group
    gens = [chain.gens[gid] for lev in chain.levels[1:] for gid in lev.gen_ids]
    sub_order = 1
    for lev in chain.levels[1:]:
        sub_order *= len(lev.orbit)
    # a subgroup whose order was just computed, from a complete chain
    return PermGroup._bounded(gens, group.degree, sub_order)


def induced_action(group, points):
    """Restrict the group to an invariant point set, relabelled 0..m-1.

    Returns (PermGroup on m points, point list).  Raises OutOfRange for
    a point outside 0..n-1, NotBijection for a point listed twice and
    NotInvariant when a generator moves a point off the set.
    """
    points = list(points)
    bad = [p for p in points if not 0 <= p < group.degree]
    if bad:
        raise OutOfRange(f"point {bad[0]} is outside 0..{group.degree - 1}")
    if len(set(points)) != len(points):
        raise NotBijection("a point is listed twice")
    index = np.full(group.degree, -1, dtype=_DTYPE)
    index[points] = np.arange(len(points), dtype=_DTYPE)
    gens = []
    for g in group.generators:
        images = index[g.images[points]]
        if (images < 0).any():
            raise NotInvariant("a generator moves a point off the point set")
        gens.append(Permutation(images, _checked=True))
    return PermGroup(gens, degree=len(points)), points


def is_k_transitive(group, points, k):
    """Whether the action restricted to ``points`` is k-transitive."""
    if k < 1 or k > 3:
        raise OutOfRange("k must be between 1 and 3")
    m = len(points)
    if m < k:
        raise OutOfRange("k exceeds the point set size")
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
        sizes.append(len(group.orbit(i)))
        if i + 1 < k:
            group = point_stabilizer(group, i)
    return sizes


def minimal_block_systems(group, frame=None):
    """All minimal nontrivial block systems of a transitive group.

    Each system is returned as a point -> block-id array.  The empty
    list means the group is primitive.  The principal blocks are the
    orbits <G_0, u> . 0 for transporters u to the nontrivial suborbit
    representatives.  One is minimal exactly when no other principal
    block lies strictly inside it: a smaller block through 0 holds, for
    each of its points beta, the least block through 0 and beta, which is
    the principal block of beta's suborbit.
    ``frame`` may supply ``suborbit_frame(group)`` when it is built.
    """
    _, labels, _, transporters = frame or suborbit_frame(group)
    found = _suborbit_blocks(labels, transporters[1:])
    blocks = list({b.tobytes(): b for b in found if b is not None}.values())
    systems = []
    for block in blocks:
        if any(len(c) < len(block) and np.isin(c, block).all() for c in blocks):
            continue
        system = _block_system_labels(group, block)
        if system is not None:
            systems.append(system)
    systems.sort(key=lambda lab: (int((lab == lab[0]).sum()), lab.tobytes()))
    return systems


def _suborbit_blocks(labels, transporters):
    """The block <G_alpha, u> . alpha for each transporter u, as a sorted
    point array, or None when it is the whole point set.

    ``labels`` are the G_alpha-orbit labels of ``suborbit_frame``, alpha's
    orbit labelled 0.  The block is a union of G_alpha-orbits, since
    G_alpha lies in <G_alpha, u> (blocks through alpha correspond to
    overgroups of G_alpha: Dixon and Mortimer, *Permutation Groups*, 1996,
    section 1.5).  So it is the least label set holding 0 and closed
    under u: the points of each newly added orbit are mapped by u alone
    and the labels they hit are added.  A block's size divides n, so once
    the closure holds more than n/2 points the block is the whole set.
    """
    n = len(labels)
    members = np.split(
        np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1]
    )
    blocks = []
    for u in transporters:
        inside = np.zeros(len(members), dtype=bool)
        inside[0] = True
        size = len(members[0])
        fresh = [0]
        while fresh and 2 * size <= n:
            hit = labels[u.map(np.concatenate([members[i] for i in fresh]))]
            fresh = _distinct(hit[~inside[hit]]).tolist()
            inside[fresh] = True
            size += sum(len(members[i]) for i in fresh)
        if 2 * size > n:
            blocks.append(None)
        else:
            points = [members[i] for i in np.flatnonzero(inside)]
            blocks.append(np.sort(np.concatenate(points)))
    return blocks


def suborbit_frame(group):
    """G_0 of a transitive group, its orbits and a transporter to each.

    Returns (stabilizer, labels, representatives, transporters) with the
    labels of ``_orbit_labels`` (the trivial suborbit is index 0), and
    transporters[i] a ``SchreierWord`` mapping 0 to representatives[i].
    The orbit of 0 and its Schreier vector are read from level 0 of the
    chain with base point 0 that ``point_stabilizer`` builds.
    """
    stab = point_stabilizer(group, 0)
    chain = group.chain(base_hint=[0])
    # a chain with no levels is the trivial group's: 0 is fixed
    top = chain.levels[0].orbit if chain.levels else Orbit(0, group.degree)
    if len(top) != group.degree:
        raise NotTransitive("suborbits and blocks need a transitive group")
    gens = [g.images for g in stab.generators]
    labels, reps = _orbit_labels(gens, group.degree)
    moves = [SchreierWord(chain.gens, _tree_word(top, r)) for r in reps]
    return stab, labels, reps, moves


def _orbit_labels(gen_images, degree):
    """Label every point with the index of its orbit.

    Orbits are labelled in order of their minimum point, so the orbit of
    0 gets label 0.  Returns (label array, representatives), where each
    representative is its orbit's minimum point.

    Every point starts as its own label; each round lowers a label to
    the least label one generator or inverse step away, then follows
    labels to labels (``lab = lab[lab]``) until that changes nothing.
    A label is always a point of the same orbit and at most the point,
    so once a round changes nothing every point carries its orbit's
    minimum.
    """
    lab = np.arange(degree, dtype=_DTYPE)
    steps = []
    for images in gen_images:
        inverse = np.empty_like(lab)
        inverse[images] = lab  # lab is still the identity here
        steps += [images, inverse]
    while True:
        new = lab
        for step in steps:
            new = np.minimum(new, new[step])
        jumped = new[new]
        while not np.array_equal(jumped, new):
            new, jumped = jumped, jumped[jumped]
        if np.array_equal(new, lab):
            break
        lab = new
    reps, labels = np.unique(lab, return_inverse=True)
    return labels.astype(_DTYPE, copy=False), reps.tolist()


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
    queue = deque(
        (g * h).inverse() * (h * g)
        for i, g in enumerate(gens)
        for h in gens[i + 1:]
    )
    derived = PermGroup.trivial(group.degree)
    while queue:
        x = queue.popleft()
        if derived.extend(x):
            queue.extend(x.conjugate(g) for g in gens)
    return derived


def element_of_order(group, m, seed=1):
    """A group element of exact order m, or None after the search cap.

    Seeded-random: draws uniform elements from the chain and scans
    power quotients of their orders.  Raises OutOfRange for m < 1.
    """
    if m < 1:
        raise OutOfRange(f"element order {m} is below 1")
    if m == 1:
        return group.identity()
    return _power_of_order(group.chain(), Random(seed), m, ELEMENT_SEARCH_TRIES)


def _power_of_order(chain, rng, m, tries):
    """g^(o/m) for the first of ``tries`` random chain elements g whose
    order o is a multiple of m, or None; one draw from rng per try."""
    for _ in range(tries):
        g = chain.random_element(rng)
        o = g.order()
        if o % m == 0:
            return g ** (o // m)
    return None


def intersection_small(a, b):
    """Intersection by enumerating the smaller group and sifting in the
    larger; raises TooLarge above ``ENUMERATION_BOUND`` elements."""
    if a.degree != b.degree:
        raise DegreeMismatch("intersection of groups of different degree")
    small, large = (a, b) if a.order() <= b.order() else (b, a)
    meet = PermGroup.trivial(a.degree)
    for g in small.elements():
        if not meet.contains(g) and large.contains(g):
            meet.extend(g)
    return meet


def fast_orbit(gen_images, alpha, degree):
    """Orbit of alpha as a sorted point array (no Schreier vector).

    ``gen_images`` is a list of image arrays; the sweep is vectorized,
    intended for large-degree block and suborbit scans.
    """
    seen = np.zeros(degree, dtype=bool)
    seen[alpha] = True
    frontier = np.array([alpha], dtype=_DTYPE)
    while True:
        batches = []
        for images in gen_images:
            img = images[frontier]
            fresh = img[~seen[img]]
            if fresh.size:
                seen[fresh] = True
                batches.append(fresh)
        if not batches:
            break
        # the batches are disjoint: each was filtered through ``seen``
        frontier = np.concatenate(batches)
    return np.nonzero(seen)[0]


def reduce_generators(group):
    """A generating subset picked greedily by chain-order growth.

    Keeps heavy downstream computations (derived actions, block scans)
    working with a handful of generators instead of dozens.
    """
    total = group.order()
    kept = PermGroup.trivial(group.degree)
    for g in group.generators:
        if kept.order() == total:
            break
        kept.extend(g)
    if kept.order() != total:
        raise Mismatch("generator reduction lost the group")
    return kept


def small_generating_set(group, seed=1):
    """A 2- or 3-element generating set found by seeded random draws,
    falling back to the greedy reduction."""
    total = group.order()
    rng = Random(seed)
    chain = group.chain()
    for k in (2, 3):
        for _ in range(GENERATING_SET_TRIES):
            cand = [chain.random_element(rng) for _ in range(k)]
            # a subset of a group of known order
            trial = PermGroup._bounded(cand, group.degree, total)
            if trial.order() == total:
                return trial
    return reduce_generators(group)


def random_subgroup_of_order(group, target, profile, seed=1):
    """Seeded search for a subgroup of exactly the target order.

    ``profile`` is a pair of element orders (e.g. (5, 2) to look for
    A5-style pairs): each trial draws an element of each order and tests
    the group they generate.  Returns None after
    ``SUBGROUP_SEARCH_TRIES`` trials.

    Each trial pair's chain stops as soon as its orbit product, a lower
    bound on the order, passes ``target`` (``stop_at=target + 1``); the
    trial is then skipped, as it would be after a full build, since
    ``order == target`` cannot hold.  A returned group always carries a
    complete chain, and the random draws, hence the returned generators,
    are those of a search that builds every trial chain in full.
    """
    if group.order() % target:
        return None
    if target == 1:
        return PermGroup.trivial(group.degree)
    rng = Random(seed)
    chain = group.chain()
    want_a, want_b = profile
    for _ in range(SUBGROUP_SEARCH_TRIES):
        a = _power_of_order(chain, rng, want_a, 64)
        b = _power_of_order(chain, rng, want_b, 64)
        if a is None or b is None:
            continue
        trial_chain = StabChain(group.degree, [a, b], stop_at=target + 1)
        if trial_chain.order() == target:
            sub = PermGroup([a, b], degree=group.degree)
            sub._chain = trial_chain
            return sub
    return None
