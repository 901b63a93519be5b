"""Orbital graphs and arc-transitivity decision procedures.

Graphs are simple and undirected, stored in compressed sorted-neighbor
form.  Orbital graphs of large transitive groups are assembled by
propagating the base neighborhood along a Schreier tree instead of
expanding the pair orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeOverflow,
    GeneratorNotAutomorphism,
    NonSelfPaired,
    NotTransitive,
    NotVertexTransitive,
)
from .perm import _DTYPE, _orbit_labels, is_k_transitive, point_stabilizer

ARC_ENUMERATION_CAP = 10**6


class Graph:
    """Simple undirected graph with sorted compressed neighbor lists."""

    def __init__(self, n, indptr, indices):
        self.n = n
        self.indptr = indptr
        self.indices = indices

    @classmethod
    def from_edges(cls, n, edges):
        """Build from an iterable of unordered pairs; loops rejected."""
        pairs = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            pairs.add((min(u, v), max(u, v)))
        deg = np.zeros(n, dtype=_DTYPE)
        for u, v in pairs:
            deg[u] += 1
            deg[v] += 1
        indptr = np.zeros(n + 1, dtype=_DTYPE)
        np.cumsum(deg, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=_DTYPE)
        fill = indptr[:-1].copy()
        for u, v in sorted(pairs):
            indices[fill[u]] = v
            fill[u] += 1
            indices[fill[v]] = u
            fill[v] += 1
        for u in range(n):
            indices[indptr[u]:indptr[u + 1]] = np.sort(
                indices[indptr[u]:indptr[u + 1]]
            )
        return cls(n, indptr, indices)

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
        degs = np.diff(self.indptr)
        return bool((degs == degs[0]).all())

    def valency(self):
        if not self.is_regular():
            raise ValueError("graph is not regular")
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
    group: object
    alpha: int
    labels: np.ndarray          # point -> suborbit index
    suborbits: list

    def points_of(self, index):
        return np.nonzero(self.labels == index)[0]

    def lengths(self):
        return [s.length for s in self.suborbits]


def suborbits(G, alpha=0):
    """Orbits of the point stabilizer, with the pairing involution.

    Suborbits are ordered by minimum point; the trivial suborbit is
    index 0.  The paired suborbit of beta's suborbit is the one holding
    the preimage of alpha under a transporter to beta.
    """
    if not G.is_transitive():
        raise NotTransitive("suborbits need a transitive group")
    n = G.degree
    stab = point_stabilizer(G, alpha)
    labels, reps = _orbit_labels([g.images for g in stab.generators], n, alpha)
    _, tree = G.orbit(alpha)
    subs = []
    for idx, rep in enumerate(reps):
        length = int((labels == idx).sum())
        if rep == alpha:
            subs.append(Suborbit(rep, length, True, idx))
            continue
        u = G.transporter_from_orbit(alpha, rep, tree=tree)
        back = int(u.inverse().images[alpha])
        partner = int(labels[back])
        subs.append(Suborbit(rep, length, partner == idx, partner))
    return OrbitalData(G, alpha, labels, subs)


def is_self_paired(G, alpha, beta):
    """Pair-orbit test: does the orbit of (alpha, beta) contain its
    reverse?  This is the brute oracle; suborbits() pairs via
    transporters and the two are cross-checked in the test suite."""
    if alpha == beta:
        raise ValueError("need two distinct points")
    start = (alpha, beta)
    target = (beta, alpha)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for a, b in frontier:
            for g in G.generators:
                pair = (int(g.images[a]), int(g.images[b]))
                if pair == target:
                    return True
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return False


# ---------------------------------------------------------------------------
# orbital graphs


def orbital_graph(G, alpha, beta, orbital_data=None):
    """Graph whose edges are the G-orbit of {alpha, beta}.

    The base neighborhood (the suborbit of beta) is pushed along the
    Schreier tree of G's point orbit: N(v.g) = g[N(v)].
    """
    data = orbital_data if orbital_data is not None else suborbits(G, alpha)
    idx = int(data.labels[beta])
    sub = data.suborbits[idx]
    if not sub.self_paired:
        raise NonSelfPaired(
            f"suborbit of {beta} pairs with suborbit {sub.partner}"
        )
    base = data.points_of(idx)
    n = G.degree
    d = len(base)
    nbrs = np.empty((n, d), dtype=_DTYPE)
    nbrs[alpha] = base
    points, tree = G.orbit(alpha)
    for p in points[1:]:
        parent, gi = tree[p]
        nbrs[p] = G.generators[gi].images[nbrs[parent]]
    return Graph.from_neighbor_matrix(nbrs)


def _neighbor_matrix(graph):
    d = graph.valency()
    return graph.indices.reshape(graph.n, d)


def is_automorphism(graph, g):
    """Whether g preserves adjacency, checked over all edges."""
    if graph.is_regular():
        nbrs = _neighbor_matrix(graph)
        mapped = np.sort(g.images[nbrs], axis=1)
        return bool((mapped == nbrs[g.images]).all())
    for v in range(graph.n):
        img = np.sort(g.images[graph.neighbors(v)])
        if not (img == graph.neighbors(int(g.images[v]))).all():
            return False
    return True


def two_arc_transitive(G, graph, alpha=0):
    """Whether G acts transitively on the 2-arcs of the graph.

    By vertex-transitivity this reduces to 2-transitivity of the point
    stabilizer on the base neighborhood.
    """
    for g in G.generators:
        if not is_automorphism(graph, g):
            raise GeneratorNotAutomorphism("a generator breaks adjacency")
    pts, _ = G.orbit(alpha)
    if len(pts) != graph.n:
        raise NotVertexTransitive("group is not vertex-transitive")
    nbrs = [int(v) for v in graph.neighbors(alpha)]
    if len(nbrs) < 2:
        raise ValueError("valency must be at least 2")
    stab = point_stabilizer(G, alpha)
    return is_k_transitive(stab.group, nbrs, 2)


def count_s_arcs(graph, s):
    """Number of s-arcs (paths with v_i != v_{i+2})."""
    if s == 0:
        return graph.n
    total = 0
    for v in range(graph.n):
        for u in graph.neighbors(v):
            total += _count_arcs_from(graph, int(v), int(u), s - 1)
    return total


def _count_arcs_from(graph, prev, cur, remaining):
    if remaining == 0:
        return 1
    total = 0
    for w in graph.neighbors(cur):
        if w != prev:
            total += _count_arcs_from(graph, cur, int(w), remaining - 1)
    return total


def _arc_orbit_covers_all(G, graph, arc, total):
    seen = {arc}
    frontier = [arc]
    while frontier:
        if len(seen) > ARC_ENUMERATION_CAP:
            raise DegreeOverflow("arc orbit exceeds the enumeration cap")
        nxt = []
        for a in frontier:
            for g in G.generators:
                img = tuple(int(g.images[v]) for v in a)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return len(seen) == total


def _first_s_arc(graph, s):
    arc = [0, int(graph.neighbors(0)[0])]
    while len(arc) < s + 1:
        prev, cur = arc[-2], arc[-1]
        step = next(int(w) for w in graph.neighbors(cur) if int(w) != prev)
        arc.append(step)
    return tuple(arc)


def s_arc_transitivity_max(G, graph, s_cap=3):
    """Largest s <= s_cap with G transitive on s-arcs.

    Uses brute-force arc-orbit counting while the arc count stays under
    the cap, and the iterated-stabilizer criterion beyond it.
    """
    for g in G.generators:
        if not is_automorphism(graph, g):
            raise GeneratorNotAutomorphism("a generator breaks adjacency")
    pts, _ = G.orbit(0)
    if len(pts) != graph.n:
        raise NotVertexTransitive("group is not vertex-transitive")
    best = 0
    for s in range(1, s_cap + 1):
        total = count_s_arcs(graph, s)
        if total == 0:
            break
        if total <= ARC_ENUMERATION_CAP:
            arc = _first_s_arc(graph, s)
            if not _arc_orbit_covers_all(G, graph, arc, total):
                break
        else:
            if s == 1:
                stab = point_stabilizer(G, 0)
                nbrs = [int(v) for v in graph.neighbors(0)]
                if not is_k_transitive(stab.group, nbrs, 1):
                    break
            elif s == 2:
                if not two_arc_transitive(G, graph):
                    break
            else:
                raise DegreeOverflow("3-arc check above the enumeration cap")
        best = s
    return best


# ---------------------------------------------------------------------------
# products


def direct_power(graph, ell):
    """Direct (tensor) power: tuples adjacent iff adjacent coordinatewise.

    The vertex codec matches the product-action codec: coordinate 1 is
    most significant.
    """
    n = graph.n ** ell
    if n > ARC_ENUMERATION_CAP:
        raise DegreeOverflow(f"{n} vertices exceed the cap")
    if not graph.is_regular():
        raise ValueError("direct powers are built for regular graphs")
    d = graph.valency()
    nbrs1 = _neighbor_matrix(graph)
    base = graph.n
    coords = []
    points = np.arange(n, dtype=_DTYPE)
    for j in range(ell):
        stride = base ** (ell - 1 - j)
        coords.append((points // stride) % base)
    out = np.zeros((n, d**ell), dtype=_DTYPE)
    for j in range(ell):
        stride = base ** (ell - 1 - j)
        rep = d ** (ell - 1 - j)
        block = np.repeat(
            np.tile(nbrs1[coords[j]], (1, d**j)), rep, axis=1
        )
        out += block * stride
    return Graph.from_neighbor_matrix(out)


def edge_orbit_graph(K, edge):
    """Graph on K's points whose edges are the K-orbit of the pair."""
    u, v = edge
    start = (min(u, v), max(u, v))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for a, b in frontier:
            for g in K.generators:
                x, y = int(g.images[a]), int(g.images[b])
                pair = (min(x, y), max(x, y))
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return Graph.from_edges(K.degree, seen)
