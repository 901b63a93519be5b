"""Cartesian decompositions, inclusion types, and factorization checks.

A cartesian decomposition is a set of partitions of the point set whose
blocks intersect pairwise-transversally in singletons, turning the
point set into a grid.  This module finds grids preserved by a group,
classifies how a group with a given plinth sits inside the
corresponding wreath product, certifies the embedding along a blow-up,
and verifies the PSL(2,q) factorization tables that feed the
classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from random import Random

import numpy as np

from .actions import (
    _block_reps,
    _normalize_labels,
    _top_images,
    component,
    coset_action,
    top_projection,
)
from .algebra import _factorize, check_field_order, psl2_action
from .errors import (
    ConstructionFailed,
    Mismatch,
    NotCartesian,
    NotDecompositionPreserving,
    NotXSubgroup,
    NotInvariant,
    NotTransitive,
    ParseError,
    ProjectionUnsupported,
    TooLarge,
    TooManyComponents,
    UnsupportedField,
)
from .perm import (
    PermGroup,
    Permutation,
    _distinct,
    _orbit_labels,
    _power_of_order,
    _schreier_path_images,
    element_of_order,
    fast_orbit,
    intersection_small,
    minimal_block_systems,
    point_stabilizer,
    random_subgroup_of_order,
    reduce_generators,
)
from .textio import parse_int, read_lines


class CartesianDecomposition:
    """Partitions of the point set with the singleton-grid property.

    Each partition is a point -> block-id array; block ids are
    normalized by minimum point.  Construction verifies exhaustively
    that every choice of one block per partition meets in exactly one
    point.
    """

    def __init__(self, partitions):
        if len(partitions) < 2:
            raise NotCartesian("a decomposition needs at least two partitions")
        self.partitions = [_normalize_labels(lab) for lab in partitions]
        n = len(self.partitions[0])
        if any(len(lab) != n for lab in self.partitions):
            raise NotCartesian("partitions of different lengths")
        self.degree = n
        self.block_counts = [int(lab.max()) + 1 for lab in self.partitions]
        total = 1
        for b in self.block_counts:
            total *= b
        if total != n:
            raise NotCartesian("block counts do not multiply to the degree")
        code = self.partitions[0].astype(np.int64)
        for lab, b in zip(self.partitions[1:], self.block_counts[1:]):
            code = code * b + lab
        if len(_distinct(code)) != n:
            raise NotCartesian("blocks do not intersect in singletons")
        self.grid_code = code

    @property
    def arity(self):
        return len(self.partitions)

    def block_of(self, j, point):
        return int(self.partitions[j][point])

    def signature(self):
        """Canonical bytes identifying the decomposition as a set."""
        sigs = sorted(lab.tobytes() for lab in self.partitions)
        return b"|".join(sigs)


# ---------------------------------------------------------------------------
# grid discovery


INDEX2_QUOTIENT_CAP = 512


def index2_subgroups(G, D):
    """Kernels of the homomorphisms from G onto C2 that contain D.

    D must be a normal subgroup of G: the derived subgroup, which every
    index-2 subgroup contains, or any other, such as the plinth.  The
    quotient G/D is enumerated explicitly (G acts regularly on the
    cosets of the normal subgroup D), its index-2 subgroups are read
    off the signs of its generators, and each is lifted back.
    """
    index = G.order() // D.order()
    if index % 2:
        return []
    if index > INDEX2_QUOTIENT_CAP:
        raise TooLarge(f"quotient order {index} exceeds {INDEX2_QUOTIENT_CAP}")
    quotient = coset_action(G, D)
    found = []
    # distinct sign vectors on a generating set give distinct kernels
    for qk in _index2_point_sets(quotient.group):
        gens = list(D.generators)
        gens.extend(Permutation(quotient.reps[i], _checked=True) for i in qk)
        # a subgroup whose order was just computed: the kernel contains
        # D and maps onto an index-2 subgroup of the regular quotient
        K = PermGroup._bounded(gens, G.degree, G.order() // 2)
        if K.order() != G.order() // 2:
            raise Mismatch("lifted kernel missed its certified order")
        found.append(K)
    return found


def _index2_point_sets(Q):
    """Index-2 subgroups of a regular group Q, as sets of points.

    Q acts regularly, so point p stands for the unique element sending
    0 to p, and a homomorphism Q -> C2 is fixed by its signs on a
    generating set.  Each generator kept by ``reduce_generators`` at
    least doubles the order, so there are at most log2 |Q| of them.  A
    sign vector lifts the generators to the double cover p + n*e, sign s
    sending p + n*e to p.g + n*(e+s mod 2): it is a homomorphism exactly
    when the cover orbit of 0 misses n, with kernel the orbit below n.
    """
    n = Q.degree
    gens = [g.images for g in reduce_generators(Q).generators]
    lifts = [np.concatenate([images, images + n]) for images in gens]
    out = []
    for mask in range(1, 2 ** len(gens)):
        cover = [
            np.roll(lift, n) if (mask >> i) & 1 else lift
            for i, lift in enumerate(lifts)
        ]
        orbit = fast_orbit(cover, 0, 2 * n)
        if n not in orbit:
            out.append(orbit[orbit < n].tolist())
    return out


def find_grid_decompositions(G, M, frame):
    """G-invariant cartesian decompositions into two partitions, built
    from minimal block systems of G and of its index-2 subgroups that
    contain M; ``frame`` is G's ``suborbit_frame(G)``.

    G must be innately transitive of degree above 2, with plinth M.
    G permutes the two partitions of a G-invariant grid, so the kernel
    K of that action has index at most 2, and K contains M: K meets M
    in a normal subgroup of G, so in M or in 1 by minimality, and
    meeting it in 1 would embed M in G/K, forcing |M| <= 2 and so, M
    being transitive, degree at most 2.  So the index-2 subgroups that
    may keep a grid's partitions are those containing M, and every
    group searched is transitive.  A pair of systems is skipped when it
    is no grid (``NotCartesian``) or G does not permute it
    (``NotDecompositionPreserving``); any other error propagates.
    """
    systems = []
    seen = set()
    for H in [G, *index2_subgroups(G, M)]:
        for lab in minimal_block_systems(H, frame if H is G else None):
            lab = _normalize_labels(lab)
            key = lab.tobytes()
            if key not in seen:
                seen.add(key)
                systems.append(lab)
    out = []
    out_keys = set()
    for pair in combinations(systems, 2):
        try:
            E = CartesianDecomposition(list(pair))
            _top_images(G, E)
        except (NotCartesian, NotDecompositionPreserving):
            continue
        key = E.signature()
        if key not in out_keys:
            out_keys.add(key)
            out.append(E)
    return out


# ---------------------------------------------------------------------------
# inclusion classification


@dataclass
class InclusionType:
    """Verdict on how (G, M) sits inside Sym(block) wr Sym(ell)."""

    tag: str
    s: int
    projection_orders: tuple = ()
    details: dict = field(default_factory=dict)


def _factor_moves_partition(factor, E, j, first):
    lab = E.partitions[j]
    for g in factor.generators:
        if (lab[g.images[first]] != np.arange(len(first))).any():
            return True
    return False


def classify_inclusion(G, M, E, factors=None):
    """Inclusion type of (G, M) with respect to E, at the base point 0.

    ``factors`` lists the simple direct factors of the plinth M
    (default: M itself, the simple-plinth case).  The verdict counts,
    per simple factor, the number s of partitions the factor moves;
    s must be the same for every factor and at most 3.
    """
    omega = 0  # the base point
    factor_groups = [M] if factors is None else list(factors)
    # normality of M in G, spot-checked on generators
    for g in G.generators:
        for m in M.generators:
            if not M.contains(m.conjugate(g)):
                raise NotInvariant("plinth is not normal in the group")
    top = top_projection(G, E)
    if not top.is_transitive():
        return InclusionType("IntransitiveTop", 0)

    ell = E.arity
    firsts = [_block_reps(E, j) for j in range(ell)]
    moved = []
    for f in factor_groups:
        moved.append(
            [j for j in range(ell) if _factor_moves_partition(f, E, j, firsts[j])]
        )
    s_values = {len(mv) for mv in moved}
    if len(s_values) != 1:
        raise Mismatch(f"components per factor disagree: {moved}")
    s = s_values.pop()
    if s > 3:
        raise TooManyComponents(f"factor meets {s} components")

    details = {"moved_partitions": moved}
    if s == 1:
        # every simple factor lives in one component: normal inclusion
        comp_stab_orders = []
        M_omega = point_stabilizer(M, omega)
        for j in range(ell):
            comp = component(M, E, j)
            delta = E.block_of(j, omega)
            comp_stab_orders.append(point_stabilizer(comp, delta).order())
        prod = 1
        for o in comp_stab_orders:
            prod *= o
        details["plinth_point_stabilizer_order"] = M_omega.order()
        details["component_block_stabilizer_orders"] = comp_stab_orders
        details["stabilizer_product_formula_holds"] = prod == M_omega.order()
        return InclusionType("Normal", 1, tuple(comp_stab_orders), details)

    if len(factor_groups) > 1:
        # a factor's support is the set of points its generators move
        points = np.arange(G.degree)
        supports = [
            np.any([g.images != points for g in f.generators], axis=0)
            for f in factor_groups
        ]
        if any((a & b).any() for a, b in combinations(supports, 2)):
            raise ProjectionUnsupported("overlapping factor supports with s >= 2")

    if s == 3:
        return InclusionType("CD3", 3, (), details)

    # s = 2: compare the block-stabilizer projections of the plinth
    j1, j2 = moved[0][:2]
    projections = []
    for j in (j1, j2):
        comp = component(M, E, j)
        delta = E.block_of(j, omega)
        projections.append((comp, point_stabilizer(comp, delta)))
    orders = tuple(p.order() for _, p in projections)
    full = any(p.order() == comp.order() for comp, p in projections)
    if full:
        return InclusionType("CD1S", 2, orders, details)
    # CD2Sim witness (Praeger-Schneider, Permutation Groups and Cartesian
    # Decompositions, 2018): M is transitive and fixes every partition, so
    # G = M G_omega and G_omega moves j1 to j2; such an h normalizes M and
    # fixes omega, so the block map beta it induces is a permutational
    # isomorphism from P_j1 onto P_j2, which is checked here
    stab = point_stabilizer(G, omega)
    orbit = top_projection(stab, E).orbit(j1)
    if j2 not in orbit:
        raise ProjectionUnsupported(f"G_omega never moves partition {j1} to {j2}")
    h = _schreier_path_images(orbit, j2, stab.generators, G.degree)
    beta = E.partitions[j2][h[_block_reps(E, j1)]]
    (_, a), (_, b) = projections
    if sorted(beta.tolist()) != list(range(b.degree)) or orders[0] != orders[1]:
        raise Mismatch("no block bijection between equal-order projections")
    inverse = np.argsort(beta)
    for x in a.generators:
        if not b.contains(Permutation(beta[x.images[inverse]], _checked=True)):
            raise Mismatch("the block bijection does not carry P_j1 into P_j2")
    details["block_bijection"] = beta.tolist()
    return InclusionType("CD2Sim", 2, orders, details)


# ---------------------------------------------------------------------------
# blow-up embedding

def blowup_embedding(G, factors):
    """Re-embed G into a product action along a direct decomposition of
    its plinth whose point stabilizer splits across the factors.

    Returns a certificate dict.  The partitions of the induced grid
    are the orbit partitions of the complements of each factor; the
    point bijection is the grid code.  The
    certificate records ``top_images``, each generator's permutation of
    the partitions: G permutes them, so its relabelling through the grid
    code lies in Sym(Xi) wr S_ell.
    """
    factor_groups = list(factors)
    n = G.degree
    # the decomposition must be G-invariant: conjugation permutes factors
    for g in G.generators:
        for f in factor_groups:
            hits = set()
            for m in f.generators:
                c = m.conjugate(g)
                owners = [
                    i for i, h in enumerate(factor_groups) if h.contains(c)
                ]
                if not owners:
                    raise NotInvariant("conjugated factor generator escapes")
                hits.add(owners[0])
            if len(hits) != 1:
                raise NotInvariant("a factor is torn apart by conjugation")

    all_gens = [g for f in factor_groups for g in f.generators]
    M_group = PermGroup(all_gens, degree=n)
    if not M_group.is_transitive():
        raise NotTransitive("plinth must be transitive")
    M_omega = point_stabilizer(M_group, 0)  # omega = 0, the base point
    meet_orders = []
    for f in factor_groups:
        meet = intersection_small(M_omega, f)
        meet_orders.append(meet.order())
    prod = 1
    for o in meet_orders:
        prod *= o
    if prod != M_omega.order():
        raise NotXSubgroup(
            f"stabilizer order {M_omega.order()} != split product {prod}"
        )

    # partition i: orbits of the product of all factors except i
    partitions = []
    for i in range(len(factor_groups)):
        others = [
            g.images
            for k, f in enumerate(factor_groups)
            if k != i
            for g in f.generators
        ]
        partitions.append(_orbit_labels(others, n)[0])
    E = CartesianDecomposition(partitions)
    tops = _top_images(G, E)  # raises when G fails to permute the partitions

    sizes = set(E.block_counts)
    if len(sizes) != 1:
        raise NotXSubgroup("coset spaces of the factors differ in size")
    return {
        "point_bijection": E.grid_code,
        "xi_size": sizes.pop(),
        "arity": E.arity,
        "factor_meet_orders": meet_orders,
        "top_images": [t.images.tolist() for t in tops],
    }


# ---------------------------------------------------------------------------
# factorization checks


#: Random draws per element of the cyclic half in ``dihedral_subgroup``.
INVOLUTION_TRIES = 400


def dihedral_subgroup(T, order):
    """A dihedral subgroup of the given (even) order, or None when the
    search finds none: a cyclic half from ``element_of_order``, then a
    random search for an inverting involution, both drawn from stream 1,
    the default of ``perm``'s seeded searches.  A returned group has
    exactly that order and is generated by elements of T's chain.
    Raises ConstructionFailed for an odd order."""
    if order % 2:
        raise ConstructionFailed(f"no dihedral group has odd order {order}")
    half = order // 2
    a = element_of_order(T, half)
    if a is None:
        return None
    a_inv = a.inverse()
    rng = Random(1)
    chain = T.chain()
    for _ in range(INVOLUTION_TRIES * max(4, half)):
        t = _power_of_order(chain, rng, 2, 1)
        if t is not None and a.conjugate(t) == a_inv:
            sub = PermGroup([a, t], degree=T.degree)
            if sub.order() == order:
                return sub
    return None


_SUBGROUP_PROFILES = {
    "A4": (12, (3, 2)),
    "S4": (24, (4, 3)),
    "A5": (60, (5, 3)),
}


def _build_labeled_subgroup(T, label, order):
    """Construct a subgroup of T named by a table label."""
    if label == "P1":
        sub = point_stabilizer(T, 0)
        if sub.order() != order:
            raise ConstructionFailed(
                f"parabolic order {sub.order()}, table says {order}"
            )
        return sub
    if label.startswith("D"):
        want = int(label[1:])
        if want != order:
            raise ParseError(f"dihedral label {label} disagrees with order {order}")
        sub = dihedral_subgroup(T, order)
    elif label in _SUBGROUP_PROFILES:
        expect, profile = _SUBGROUP_PROFILES[label]
        if expect != order:
            raise ParseError(f"label {label} disagrees with order {order}")
        sub = random_subgroup_of_order(T, order, profile=profile)
    else:
        raise ParseError(f"unknown subgroup label {label}")
    if sub is None:
        raise ConstructionFailed(f"no {label} subgroup found")
    return sub


def verify_psl2_factorization_row(T, row):
    """The order in which a factorization row's A and B meet, T being
    ``psl2_action(q)`` on the q + 1 points of PG(1,q); T = AB exactly
    when that order is |A||B|/|T|, the row's meet.

    Whether T = AB depends only on the classes of A and B: if T = AB,
    then A^g B^h = g^-1 (A gh^-1 B) h = T for all g, h, since gh^-1 is
    in AB.  By Dickson's list (Huppert, Endliche Gruppen I, 1967,
    II.8.27) each label names at most two PSL classes, and conjugation
    by t: x -> nu x, the element PGL(2,q) adds, swaps the two where
    there are two.  So the pairs (A, B) and (A, B^t), each built once
    by a search on the default stream, cover every pair of classes up to
    automorphism: the row needs at most two intersections, and a row
    that holds for no pair gives another order, not an error.

    An order field below 1 raises ParseError, as in the table loader.
    A row whose orders do not multiply to |T|, or whose meet is below
    the forced minimum |A||B|/|T|, raises Mismatch.
    """
    a_label, a_order, b_label, b_order, meet_order, _ = row
    _check_table_orders(a_order, b_order, meet_order)
    q = T.degree - 1
    t_order = T.order()
    if (a_order * b_order) % meet_order or a_order * b_order // meet_order != t_order:
        raise Mismatch(
            f"q={q}: |A||B|/|meet| = {a_order * b_order}/{meet_order} != {t_order}"
        )
    forced_min = a_order * b_order // t_order
    if meet_order < forced_min:
        raise Mismatch(f"q={q}: table meet {meet_order} below forced {forced_min}")
    A = _build_labeled_subgroup(T, a_label, a_order)
    B = _build_labeled_subgroup(T, b_label, b_order)
    meet = intersection_small(A, B).order()
    if meet == meet_order:
        return meet
    t = psl2_action(q, "PGL").generators[-1]
    B_t = PermGroup([g.conjugate(t) for g in B.generators], T.degree)
    return intersection_small(A, B_t).order()


# ---------------------------------------------------------------------------
# table data


def _table_rows(path, nfields):
    """(line number, fields) of each line of a ``|``-separated table,
    skipping blank lines and ``#`` comments."""
    rows = []
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != nfields:
            raise ParseError(f"expected {nfields} fields", line=lineno)
        rows.append((lineno, parts))
    return rows


def _check_table_q(q, lineno=None):
    """Raise ParseError unless ``psl2_action`` takes q: 4 <= q, and GF(q)
    passes ``check_field_order``."""
    if q < 4:
        raise ParseError(f"q = {q} is below 4", line=lineno)
    try:
        check_field_order(q)
    except (TooLarge, UnsupportedField) as exc:
        raise ParseError(f"q = {q}: {exc}", line=lineno) from exc


def _check_table_orders(a_order, b_order, meet, lineno=None):
    """Raise ParseError unless each order field of a factorization row
    is at least 1."""
    if min(a_order, b_order, meet) < 1:
        raise ParseError("an order field is below 1", line=lineno)


def load_factorization_table(path):
    """Rows of `q | A-label | A-order | B-label | B-order | meet | anchor`;
    each order field is at least 1."""
    rows = []
    for lineno, parts in _table_rows(path, 7):
        q, a_order, b_order, meet = (
            parse_int(parts[i], "bad integer field", lineno) for i in (0, 2, 4, 5)
        )
        _check_table_q(q, lineno)
        _check_table_orders(a_order, b_order, meet, lineno)
        rows.append((q, (parts[1], a_order, parts[3], b_order, meet, parts[6])))
    return rows


def parabolic_order(q):
    """Order of a point stabilizer of PSL(2,q) on the projective line."""
    return q * (q - 1) // (2 if q % 2 else 1)


def load_examples_table(path):
    """Rows of `example-id | q-condition | label | order-rule | anchor`."""
    rows = []
    for lineno, parts in _table_rows(path, 5):
        _condition_modulus(parts[1], lineno)
        _example_order(parts[3], lineno)
        rows.append(tuple(parts))
    return rows


def _condition_modulus(cond, lineno=None):
    """None for the q-condition ``any``, m >= 1 for ``prime+-1mod<m>``."""
    if cond == "any":
        return None
    head = "prime+-1mod"
    if cond.startswith(head):
        m = parse_int(cond[len(head):], f"bad q-condition {cond}", lineno)
        if m > 0:
            return m
    raise ParseError(f"unknown q-condition {cond}", line=lineno)


def _example_order(rule, lineno=None):
    """None for the ``parabolic`` order rule, else its integer."""
    if rule == "parabolic":
        return None
    return parse_int(rule, f"bad order rule {rule}", lineno)


def _condition_holds(cond, q):
    m = _condition_modulus(cond)
    return m is None or (_factorize(q) == {q: 1} and q % m in (1, m - 1))


def cross_check_examples(example_rows, factorization_rows):
    """Static consistency pass: no known-example stabilizer projection
    shares its order with a table intersection at an admissible q.

    Pure table arithmetic; returns (ok, list of collision dicts).  Each
    row's q must pass the table loader's rule, else ParseError.
    """
    collisions = []
    for q, (a_label, a_order, b_label, b_order, meet, anchor) in factorization_rows:
        _check_table_q(q)
        for ex_id, cond, label, order_rule, ex_anchor in example_rows:
            if not _condition_holds(cond, q):
                continue
            order = _example_order(order_rule)
            if order is None:
                order = parabolic_order(q)
            if order == meet:
                collisions.append(
                    {
                        "example": ex_id,
                        "q": q,
                        "order": order,
                        "row": (a_label, b_label, meet),
                    }
                )
    return not collisions, collisions
