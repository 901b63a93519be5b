"""Automorphism groups of small vertex-colored graphs.

A mini engine: equitable partition refinement by neighbor-color counts
plus individualization backtracking, organized as an orbit-stabilizer
recursion.  One vectorised kernel refines every graph, regular or not:
each round ranks the rows (color, sorted neighbor colors) of a padded
neighbor matrix with one lexsort.  Each partition is refined once: the
left-hand path that every transporter search compares against is kept
refined, so only right-hand candidates are refined as they are met.
Completeness comes from exhaustive transporter searches at each level
and is certified by |orbit| x |stabilizer| bookkeeping plus an
independent chain-order check.  A search may be seeded with a
``known`` group of automorphisms: its generators are verified, its
orbits along the left path's base stand in for orbits found, and only
the cell points outside them are searched, so the engine has only to
rule out a larger group.  Built for graphs of a few hundred vertices,
not as a general tool.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegreeMismatch,
    GeneratorNotAutomorphism,
    Mismatch,
    SearchBudgetExceeded,
    TooLarge,
)
from .graphs import Graph, is_automorphism
from .perm import _DTYPE, Permutation, PermGroup, fast_orbit

NODE_BUDGET = 10**7


class ColoredGraph:
    """A graph with a vertex color array; automorphisms preserve colors."""

    def __init__(self, graph, colors=None):
        self.graph = graph
        if colors is None:
            colors = np.zeros(graph.n, dtype=_DTYPE)
        self.colors = np.asarray(colors, dtype=_DTYPE)
        if self.colors.shape != (graph.n,):
            raise DegreeMismatch(
                f"color array of shape {self.colors.shape} for {graph.n} vertices"
            )

    @property
    def n(self):
        return self.graph.n


def incidence_graph(geom):
    """Point-line incidence graph of a generalized quadrangle.

    Vertices 0..P-1 are points, P..P+L-1 are lines, all one color:
    dualities must stay discoverable, so the sides are not colored
    apart.
    """
    P = geom.num_points
    edges = []
    for li, line in enumerate(geom.lines):
        for p in line:
            edges.append((p, P + li))
    return ColoredGraph(Graph.from_edges(P + geom.num_lines, edges))


class _Engine:
    """Search state for one colored graph.

    Every transporter search compares a right-hand partition with a
    node of one left-hand path: the partitions met by always
    individualizing the first vertex of the target cell.  ``_left``
    holds that path, refined, with each node's target cell, so each
    left partition is refined once however many right-hand candidates
    it is compared with.
    """

    def __init__(self, cg):
        self.graph = cg.graph
        self.n = cg.n
        self.nodes = 0
        degrees = np.diff(cg.graph.indptr)
        width = int(degrees.max()) if self.n else 0
        # neighbors padded with index n, whose color n sorts after every
        # real color (< n) and is read as -1 once sorted
        self._nbr = np.full((self.n, width), self.n, dtype=_DTYPE)
        self._nbr[np.arange(width) < degrees[:, None]] = cg.graph.indices
        self.base_colors = self._canonical(cg.colors)
        self._left = self._left_path()

    def _tick(self):
        self.nodes += 1
        if self.nodes > NODE_BUDGET:
            raise SearchBudgetExceeded(f"node budget {NODE_BUDGET} exhausted")

    @staticmethod
    def _canonical(colors):
        """Relabel colors to 0..k-1 in order of first appearance by value."""
        _, inv = np.unique(colors, return_inverse=True)
        return inv.astype(_DTYPE)

    def refine(self, colors):
        """Equitable refinement by sorted neighbor-color signatures.

        Each round ranks the rows (old color, sorted neighbor colors)
        lexicographically, a vertex of smaller degree ranking as its
        tuple would (a prefix sorts first), so the result is
        isomorphism-invariant.  ``colors`` must be canonical (0..k-1).
        """
        while True:
            sig = np.sort(np.append(colors, self.n)[self._nbr], axis=1)
            sig[sig == self.n] = -1
            rows = np.concatenate([colors[:, None], sig], axis=1)
            order = np.lexsort(rows.T[::-1])
            ranked = rows[order]
            step = (ranked[1:] != ranked[:-1]).any(axis=1)
            inv = np.empty(self.n, dtype=_DTYPE)
            inv[order[0]] = 0
            inv[order[1:]] = np.cumsum(step)
            if int(inv.max()) == int(colors.max()):
                return inv
            colors = inv

    @staticmethod
    def _target_cell(colors):
        """(color, sorted vertices) of the first smallest non-singleton
        cell of canonical colors, or None when the coloring is discrete."""
        counts = np.bincount(colors)
        color = int(np.argmin(np.where(counts > 1, counts, len(colors) + 1)))
        if counts[color] < 2:
            return None
        return color, np.flatnonzero(colors == color)

    def _individualize(self, colors, v):
        # give v a fresh color class directly above its old cell
        out = colors * 2
        out[v] += 1
        return self._canonical(out)

    def _left_path(self):
        """(refined colors, target cell) of each node of the left path,
        from the refined base coloring down to a discrete one."""
        colors = self.refine(self.base_colors)
        path = [(colors, self._target_cell(colors))]
        while path[-1][1] is not None:
            colors, (_, cell) = path[-1]
            colors = self.refine(self._individualize(colors, int(cell[0])))
            path.append((colors, self._target_cell(colors)))
        return path

    # -- transporter search --------------------------------------------

    @staticmethod
    def _signature(colors):
        return np.bincount(colors).tobytes()

    def transporter(self, depth, right):
        """A color/adjacency-preserving bijection refining the left
        path's node at ``depth`` onto ``right``, or None; exhaustive
        within the node budget."""
        self._tick()
        left, target = self._left[depth]
        right = self.refine(right)
        if self._signature(left) != self._signature(right):
            return None
        if target is None:
            perm = np.empty(self.n, dtype=_DTYPE)
            order_l = np.argsort(left, kind="stable")
            order_r = np.argsort(right, kind="stable")
            perm[order_l] = order_r
            g = Permutation(perm)
            if self._check(g):
                return g
            return None
        for w in np.flatnonzero(right == target[0]).tolist():
            g = self.transporter(depth + 1, self._individualize(right, w))
            if g is not None:
                return g
        return None

    def _check(self, g):
        return (
            (self.base_colors[g.images] == self.base_colors).all()
            and is_automorphism(self.graph, g)
        )

    # -- orbit-stabilizer recursion ------------------------------------

    def automorphisms(self, depth=0, seeds=()):
        """(generators, order) of the automorphisms fixing the left
        path's node at ``depth``.

        ``seeds[d]``, where given, holds image arrays of known
        automorphisms fixing the node at depth d: the orbit of that
        node's first cell point starts from them, and only the
        generators found by transporter searches are returned.
        """
        colors, target = self._left[depth]
        if target is None:
            return [], 1
        _, cell = target
        v = int(cell[0])
        stab_gens, stab_order = self.automorphisms(depth + 1, seeds)
        gens = list(stab_gens)
        known = list(seeds[depth]) if depth < len(seeds) else []

        def orbit_of_v():
            images = known + [h.images for h in gens]
            return set(fast_orbit(images, v, self.n).tolist())

        orbit = orbit_of_v()
        for w in cell[1:].tolist():
            if w in orbit:
                continue
            g = self.transporter(depth + 1, self._individualize(colors, w))
            if g is None:
                continue
            gens.append(g)
            orbit = orbit_of_v()
        return gens, len(orbit) * stab_order

    @property
    def base(self):
        """The first cell point of each node of the left path."""
        return [int(t[1][0]) for _, t in self._left if t is not None]


def graph_automorphism_group(cg, known=None):
    """Full automorphism group of a colored graph.

    Every generator is verified to preserve colors and adjacency; the
    recursion's orbit-times-stabilizer order must match the order of
    the generated group, which the chain computes without a claim.

    ``known``, a group of automorphisms already in hand, seeds the
    search and is trusted for nothing: its generators are verified
    first, its orbits along the left path's base are read from a chain
    with that base, and transporter searches run only for the cell
    points outside them (McKay and Piperno, "Practical graph
    isomorphism, II", 2014).  The result is ``known`` with the found
    generators added.
    """
    if cg.n > 10**4:
        raise TooLarge("engine is limited to 10^4 vertices")
    if cg.n == 0:
        return PermGroup.trivial(0)  # only the empty permutation
    engine = _Engine(cg)
    seeds = ()
    if known is not None:
        if known.degree != cg.n:
            raise DegreeMismatch(
                f"known group of degree {known.degree} on {cg.n} vertices"
            )
        if not all(engine._check(g) for g in known.generators):
            raise GeneratorNotAutomorphism("a known generator is not an automorphism")
        # a subgroup whose order was just computed, rebased on the left
        # path; ``known`` keeps its own chain for the caller
        based = PermGroup._bounded(known.generators, cg.n, known.order())
        chain = based.chain(base_hint=engine.base)
        seeds = [
            [chain.gens[i].images for i in chain._effective_gen_ids(d)]
            for d in range(len(chain.levels))
        ]
    gens, order = engine.automorphisms(seeds=seeds)
    for g in gens:
        if not engine._check(g):
            raise GeneratorNotAutomorphism("engine produced a bad generator")
    if known is not None:
        group = PermGroup(known.generators + gens, degree=cg.n) if gens else known
    elif gens:
        group = PermGroup(gens, degree=cg.n)
    else:
        return PermGroup.trivial(cg.n)
    if group.order() != order:
        raise Mismatch(
            f"orbit-stabilizer order {order} != chain order {group.order()}"
        )
    return group
