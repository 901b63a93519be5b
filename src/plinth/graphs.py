"""Orbital graphs and arc-transitivity decision procedures.

Graphs are simple and undirected, stored in compressed sorted-neighbor
form.  Suborbits and orbital graphs are read from the stabilizer of the
base point 0.  Orbital graphs of large transitive groups are assembled
by propagating the base neighborhood along a Schreier tree instead of
expanding the pair orbit.  A permutation whose degree is not the
graph's vertex count raises DegreeMismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeMismatch,
    DegreeOverflow,
    GeneratorNotAutomorphism,
    NonSelfPaired,
    NotRegular,
    NotSimple,
    NotVertexTransitive,
    OutOfRange,
)
from .actions import PRODUCT_DEGREE_CAP
from .perm import _DTYPE, _distinct, point_stabilizer, suborbit_frame


def _check_vertices(n, vertices):
    bad = vertices[(vertices < 0) | (vertices >= n)]
    if bad.size:
        raise OutOfRange(f"vertex {bad[0]} is outside 0..{n - 1}")


class Graph:
    """Simple undirected graph with sorted compressed neighbor lists."""

    def __init__(self, n, indptr, indices):
        self.n = n
        self.indptr = indptr
        self.indices = indices

    @classmethod
    def from_edges(cls, n, edges):
        """Build from an iterable of unordered pairs; loops rejected."""
        pairs = np.array([(u, v) for u, v in edges], dtype=_DTYPE).reshape(-1, 2)
        _check_vertices(n, pairs)
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            raise NotSimple(f"loop at vertex {pairs[loops][0, 0]}")
        u, v = pairs.T
        # arc (u, v) as u * n + v: sorted keys are arcs in lexicographic order
        arcs = _distinct(np.concatenate([u * n + v, v * n + u]))
        indptr = np.zeros(n + 1, dtype=_DTYPE)
        np.cumsum(np.bincount(arcs // n, minlength=n), out=indptr[1:])
        return cls(n, indptr, arcs % n)

    @classmethod
    def from_neighbor_matrix(cls, nbrs):
        """Build a regular graph from an n x d neighbor array."""
        n, d = nbrs.shape
        rows = np.sort(nbrs, axis=1)
        indptr = np.arange(0, (n + 1) * d, d, dtype=_DTYPE)
        return cls(n, indptr, rows.reshape(-1).astype(_DTYPE))

    def neighbors(self, v):
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v):
        return int(self.indptr[v + 1] - self.indptr[v])

    def is_regular(self):
        """Whether every vertex has one valency (so true with no vertex)."""
        degs = np.diff(self.indptr)
        return bool((degs == degs[:1]).all())

    def valency(self):
        if not self.n:
            raise OutOfRange("a graph with no vertex has no valency")
        if not self.is_regular():
            raise NotRegular("graph is not regular")
        return self.degree(0)


def is_connected(graph):
    """(connected flag, component count) by breadth-first search."""
    seen = np.zeros(graph.n, dtype=bool)
    components = 0
    for start in range(graph.n):
        if seen[start]:
            continue
        components += 1
        frontier = [start]
        seen[start] = True
        while frontier:
            nxt = []
            for v in frontier:
                for u in graph.neighbors(v):
                    if not seen[u]:
                        seen[u] = True
                        nxt.append(int(u))
            frontier = nxt
    return components == 1, components


# ---------------------------------------------------------------------------
# suborbits


@dataclass
class Suborbit:
    representative: int
    length: int
    self_paired: bool
    partner: int


@dataclass
class OrbitalData:
    labels: np.ndarray          # point -> suborbit index
    suborbits: list
    stabilizer: object          # the point stabilizer G_0
    transporters: list          # index -> an element 0 -> representative

    def points_of(self, index):
        return np.nonzero(self.labels == index)[0]

    def lengths(self):
        return [s.length for s in self.suborbits]

    def frame(self):
        """The ``suborbit_frame`` these suborbits were read from."""
        reps = [s.representative for s in self.suborbits]
        return self.stabilizer, self.labels, reps, self.transporters


def suborbits(G):
    """Orbits of the point stabilizer G_0, with the pairing involution.

    Suborbits are ordered by minimum point; the trivial suborbit {0} is
    index 0.  The paired suborbit of beta's suborbit is the one holding
    the preimage of 0 under a transporter to beta.
    """
    stab, labels, reps, transporters = suborbit_frame(G)
    lengths = np.bincount(labels).tolist()
    subs = []
    for idx, (rep, u) in enumerate(zip(reps, transporters)):
        partner = int(labels[u.preimage(0)])
        subs.append(Suborbit(rep, lengths[idx], partner == idx, partner))
    return OrbitalData(labels, subs, stab, transporters)


# ---------------------------------------------------------------------------
# orbital graphs


def orbital_graph(G, beta, orbital_data):
    """Graph whose edges are the G-orbit of {0, beta}.

    ``orbital_data`` is ``suborbits(G)``.  The base neighborhood (the
    suborbit of beta) is pushed along the Schreier tree of G's point
    orbit: N(v.g) = g[N(v)].  Raises OutOfRange for beta outside
    0..n-1 and NotSimple for beta = 0, whose orbital is the diagonal.
    """
    n = G.degree
    _check_vertices(n, np.array([beta]))
    if beta == 0:
        raise NotSimple("the orbital of {0, 0} is a loop at every vertex")
    idx = int(orbital_data.labels[beta])
    sub = orbital_data.suborbits[idx]
    if not sub.self_paired:
        raise NonSelfPaired(
            f"suborbit of {beta} pairs with suborbit {sub.partner}"
        )
    base = orbital_data.points_of(idx)
    d = len(base)
    nbrs = np.empty((n, d), dtype=_DTYPE)
    nbrs[0] = base
    orbit = G.orbit(0)
    parent, gen = orbit.parent, orbit.gen
    for p in orbit.points[1 : len(orbit)]:
        nbrs[p] = G.generators[gen[p]].images[nbrs[parent[p]]]
    return Graph.from_neighbor_matrix(nbrs)


def is_automorphism(graph, g):
    """Whether g preserves adjacency: g maps the sorted arc codes
    u * n + v onto themselves.  Raises DegreeMismatch when g does not
    act on the graph's n vertices."""
    n = graph.n
    if g.degree != n:
        raise DegreeMismatch(f"permutation of degree {g.degree} on {n} vertices")
    tails = np.repeat(np.arange(n, dtype=_DTYPE), np.diff(graph.indptr))
    codes = tails * n + graph.indices
    mapped = np.sort(g.images[tails] * n + g.images[graph.indices])
    return bool((mapped == codes).all())


def two_arc_transitive(G, graph):
    """Whether G acts transitively on the 2-arcs of the graph."""
    if graph.degree(0) < 2:
        raise OutOfRange("valency must be at least 2")
    return s_arc_transitivity_max(G, graph, s_cap=2) == 2


def s_arc_transitivity_max(G, graph, s_cap=3):
    """Largest s <= s_cap with G transitive on the s-arcs of the graph.

    Walks one arc v_0, v_1, ... from vertex 0 (Biggs, Algebraic Graph
    Theory, the chapter on t-transitive graphs): a vertex-transitive G
    is (i+1)-arc-transitive iff it is i-arc-transitive and the pointwise
    stabilizer of v_0, ..., v_i is transitive on the nonempty set
    N(v_i) minus v_(i-1).  That set is invariant under the stabilizer,
    so one orbit length decides.  Raises OutOfRange for s_cap below 0.
    """
    if s_cap < 0:
        raise OutOfRange(f"s_cap {s_cap} is below 0")
    for g in G.generators:
        if not is_automorphism(graph, g):
            raise GeneratorNotAutomorphism("a generator breaks adjacency")
    if len(G.orbit(0)) != graph.n:
        raise NotVertexTransitive("group is not vertex-transitive")
    stab, prev, cur = G, -1, 0
    for s in range(s_cap):
        stab = point_stabilizer(stab, cur)
        ahead = [int(w) for w in graph.neighbors(cur) if w != prev]
        if not ahead or len(stab.orbit(ahead[0])) != len(ahead):
            return s
        prev, cur = cur, ahead[0]
    return s_cap


# ---------------------------------------------------------------------------
# products


def direct_power(graph, ell):
    """Direct (tensor) power: tuples adjacent iff adjacent coordinatewise.

    The vertex codec matches the product-action codec: coordinate 1 is
    most significant.  Raises OutOfRange for ell below 1.
    """
    if ell < 1:
        raise OutOfRange(f"arity {ell} is below 1")
    if not graph.n:
        return graph  # the empty graph is its own power
    n = graph.n ** ell
    if n > PRODUCT_DEGREE_CAP:
        raise DegreeOverflow(f"{n} vertices exceed the cap")
    if not graph.is_regular():
        raise NotRegular("direct powers are built for regular graphs")
    d = graph.valency()
    nbrs1 = graph.indices.reshape(graph.n, d)
    base = graph.n
    points = np.arange(n, dtype=_DTYPE)
    out = np.zeros((n, d**ell), dtype=_DTYPE)
    for j in range(ell):
        stride = base ** (ell - 1 - j)
        coord = (points // stride) % base
        block = np.repeat(
            np.tile(nbrs1[coord], (1, d**j)), d ** (ell - 1 - j), axis=1
        )
        out += block * stride
    return Graph.from_neighbor_matrix(out)
