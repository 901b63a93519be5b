"""Automorphism groups of small vertex-colored graphs.

A mini engine: equitable partition refinement by neighbor-color counts
plus individualization backtracking, organized as an orbit-stabilizer
recursion.  Completeness comes from exhaustive transporter searches at
each level and is certified by |orbit| x |stabilizer| bookkeeping plus
an independent chain-order check.  Built for graphs of a few hundred
vertices, not as a general tool.
"""

from __future__ import annotations

import numpy as np

from .errors import (
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
        if len(self.colors) != graph.n:
            raise ValueError("color array length mismatch")

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
    def __init__(self, cg):
        self.graph = cg.graph
        self.n = cg.n
        self.nodes = 0
        if self.graph.is_regular():
            self._nbr = cg.graph.indices.reshape(self.n, self.graph.valency())
        else:
            self._nbr = None
        self.base_colors = self._canonical(cg.colors)

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

        The relabeling is by (old color, signature) sort order, so the
        result is isomorphism-invariant.
        """
        g = self.graph
        while True:
            if self._nbr is not None:
                sig = np.sort(colors[self._nbr], axis=1)
                combined = np.concatenate([colors[:, None], sig], axis=1)
                _, inv = np.unique(combined, axis=0, return_inverse=True)
            else:
                keys = []
                for v in range(self.n):
                    keys.append(
                        (int(colors[v]),)
                        + tuple(sorted(int(colors[u]) for u in g.neighbors(v)))
                    )
                order = {k: i for i, k in enumerate(sorted(set(keys)))}
                inv = np.array([order[k] for k in keys], dtype=_DTYPE)
            inv = inv.astype(_DTYPE)
            if int(inv.max()) == int(colors.max()):
                return inv
            colors = inv

    @staticmethod
    def _cells(colors):
        """Cells as {color: sorted vertex array}."""
        order = np.argsort(colors, kind="stable")
        out = {}
        for v in order:
            out.setdefault(int(colors[v]), []).append(int(v))
        return out

    @staticmethod
    def _target_cell(cells):
        """First smallest non-singleton cell (fixed tie-breaking)."""
        best = None
        for color in sorted(cells):
            cell = cells[color]
            if len(cell) > 1 and (best is None or len(cell) < len(best[1])):
                best = (color, cell)
        return best

    def _individualize(self, colors, v):
        # give v a fresh color class directly above its old cell
        out = colors * 2
        out[v] += 1
        return self._canonical(out)

    # -- transporter search --------------------------------------------

    def _signature(self, colors):
        vals, counts = np.unique(colors, return_counts=True)
        return counts.tobytes()

    def transporter(self, left, right):
        """A color/adjacency-preserving bijection refining left onto
        right, or None; exhaustive within the node budget."""
        self._tick()
        left = self.refine(left)
        right = self.refine(right)
        if self._signature(left) != self._signature(right):
            return None
        cells_l = self._cells(left)
        cells_r = self._cells(right)
        target = self._target_cell(cells_l)
        if target is None:
            perm = np.empty(self.n, dtype=_DTYPE)
            order_l = np.argsort(left, kind="stable")
            order_r = np.argsort(right, kind="stable")
            perm[order_l] = order_r
            g = Permutation(perm)
            if self._check(g):
                return g
            return None
        color, cell_l = target
        u = cell_l[0]
        for w in cells_r[color]:
            g = self.transporter(
                self._individualize(left, u), self._individualize(right, w)
            )
            if g is not None:
                return g
        return None

    def _check(self, g):
        return (
            (self.base_colors[g.images] == self.base_colors).all()
            and is_automorphism(self.graph, g)
        )

    # -- orbit-stabilizer recursion ------------------------------------

    def automorphisms(self, colors):
        """(generators, order) of the automorphisms fixing the coloring."""
        colors = self.refine(colors)
        cells = self._cells(colors)
        target = self._target_cell(cells)
        if target is None:
            return [], 1
        color, cell = target
        v = cell[0]
        stab_gens, stab_order = self.automorphisms(
            self._individualize(colors, v)
        )
        gens = list(stab_gens)
        orbit = set(fast_orbit([h.images for h in gens], v, self.n).tolist())
        for w in cell[1:]:
            if w in orbit:
                continue
            g = self.transporter(
                self._individualize(colors, v), self._individualize(colors, w)
            )
            if g is None:
                continue
            gens.append(g)
            orbit = set(fast_orbit([h.images for h in gens], v, self.n).tolist())
        return gens, len(orbit) * stab_order


def graph_automorphism_group(cg):
    """Full automorphism group of a colored graph.

    Every generator is verified to preserve colors and adjacency; the
    recursion's orbit-times-stabilizer order must match the order of
    the generated group, which the chain computes without a claim.
    """
    if cg.n > 10**4:
        raise TooLarge("engine is limited to 10^4 vertices")
    engine = _Engine(cg)
    gens, order = engine.automorphisms(engine.base_colors)
    for g in gens:
        if not engine._check(g):
            raise GeneratorNotAutomorphism("engine produced a bad generator")
    if not gens:
        return PermGroup.trivial(cg.n)
    group = PermGroup(gens, degree=cg.n)
    if group.order() != order:
        raise Mismatch(
            f"orbit-stabilizer order {order} != chain order {group.order()}"
        )
    return group
